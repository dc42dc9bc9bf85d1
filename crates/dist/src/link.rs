//! Reliable point-to-point **byte** links — the one reliability layer of
//! `cc19-dist`.
//!
//! Every message this crate moves travels over a [`ByteTx`]/[`ByteRx`]
//! pair: the serve cluster's dispatch/reply traffic as encoded
//! request/response bytes, and the gradient rings and stars of
//! [`crate::transport`] as little-endian `f32` bytes. This module is the
//! only code that stamps sequence numbers and CRCs, applies
//! [`FaultPlan`] actions, keeps, pulls and prunes retransmit copies, and
//! classifies duplicate, corrupt and reordered frames (DESIGN.md §9).
//!
//! All receive modes share one loop (`ByteRx::recv_within`) and differ
//! only in how long they wait:
//!
//! - [`ByteRx::try_recv`] — non-blocking, for the router polling many
//!   worker reply links in one event loop: drain the wire, then pull from
//!   the retransmit buffer. A `None` means "nothing ready"; an
//!   `Err(RankDead)` means the peer dropped its sender (died) *and* every
//!   frame it ever sent has been drained — so by the time a death verdict
//!   surfaces, no acknowledged work can be lost;
//! - [`ByteRx::recv_wait`] — blocking up to a caller bound, for a worker
//!   idling on its dispatch queue while it keeps heartbeating;
//! - [`ByteRx::recv`] — blocking up to the hard cap;
//! - `recv_owed` (crate-internal) — the ring/star receive, which is owed
//!   a frame by protocol: it counts every empty wakeup in
//!   `dist_recv_timeouts_total` and runs the caller's stall hook (the
//!   ring's heartbeat and liveness oracle) after each one. An idle byte
//!   link owes nothing, so its wakeups count nothing.
//!
//! Send-side ordering is determinism-critical: a frame is pushed to the
//! channel *before* its authoritative copy lands in the retransmit slot,
//! so an empty channel plus a buffered `want` can only mean the wire
//! genuinely dropped (or corrupted) that frame — the retransmit-pull
//! counters are then a pure function of the fault plan, which is what
//! lets `obs_report` demand byte-identical metrics across runs.
//!
//! This file is on the cc19-lint panic-surface path: every recoverable
//! failure must surface as a typed [`Error`], never a panic.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cc19_obs::lock;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};

use crate::error::Error;
use crate::fault::{FaultKind, FaultPlan};
use crate::obs::LinkStats;
use crate::transport::{backoff_delay, link_stream, TimeoutCfg};

/// One message on a byte link: sequence-numbered, checksummed payload.
#[derive(Debug, Clone)]
pub struct ByteFrame {
    /// Sender's node id.
    pub src: usize,
    /// Per-link sequence number.
    pub seq: u64,
    /// CRC-32 of the *original* payload (corrupt faults flip bits in the
    /// wire copy only, so the mismatch is detectable).
    pub crc: u32,
    /// The payload as sent (possibly corrupted in flight).
    pub payload: Vec<u8>,
}

/// Sender-side reliability buffer, shared with the link's receiver.
type ByteSlot = Arc<Mutex<HashMap<u64, Vec<u8>>>>;

fn crc32_bytes(bytes: &[u8]) -> u32 {
    cc19_nn::checkpoint::crc32(bytes)
}

/// Sending half of a reliable byte link.
pub struct ByteTx {
    src: usize,
    dst: usize,
    seq: u64,
    generation: u64,
    tx: Sender<ByteFrame>,
    slot: ByteSlot,
    faults: FaultPlan,
    stats: LinkStats,
}

/// Receiving half of a reliable byte link.
pub struct ByteRx {
    me: usize,
    peer: usize,
    want: u64,
    rx: Receiver<ByteFrame>,
    slot: ByteSlot,
    stash: HashMap<u64, Vec<u8>>,
    faults: FaultPlan,
    t: TimeoutCfg,
    stats: LinkStats,
}

/// Build a reliable byte link carrying traffic from node `src` to node
/// `dst`, with metrics on the process-global registry.
pub fn byte_link(src: usize, dst: usize, faults: FaultPlan, t: TimeoutCfg) -> (ByteTx, ByteRx) {
    byte_link_in(src, dst, faults, t, cc19_obs::global())
}

/// [`byte_link`] against an explicit `cc19-obs` registry.
pub fn byte_link_in(
    src: usize,
    dst: usize,
    faults: FaultPlan,
    t: TimeoutCfg,
    reg: &cc19_obs::Registry,
) -> (ByteTx, ByteRx) {
    link(src, dst, 0, faults, t, &LinkStats::from_registry(reg))
}

/// Build the link `src -> dst` of ring generation `generation` (the fault
/// plan keys its decisions on it, so a rebuilt ring draws fresh faults).
pub(crate) fn link(
    src: usize,
    dst: usize,
    generation: u64,
    faults: FaultPlan,
    t: TimeoutCfg,
    stats: &LinkStats,
) -> (ByteTx, ByteRx) {
    let (tx, rx) = unbounded();
    let slot: ByteSlot = Arc::new(Mutex::new(HashMap::new()));
    (
        ByteTx {
            src,
            dst,
            seq: 0,
            generation,
            tx,
            slot: slot.clone(),
            faults,
            stats: stats.clone(),
        },
        ByteRx {
            me: dst,
            peer: src,
            want: 0,
            rx,
            slot,
            stash: HashMap::new(),
            faults,
            t,
            stats: stats.clone(),
        },
    )
}

impl ByteTx {
    /// The node id this half sends as.
    pub fn src(&self) -> usize {
        self.src
    }

    /// Ship `payload` down the link. Never blocks and never fails: the
    /// authoritative copy is retained in the retransmit buffer until the
    /// receiver consumes past its sequence number, so even a frame the
    /// fault plan drops or corrupts on the wire is recoverable.
    pub fn send(&mut self, payload: &[u8]) {
        let seq = self.seq;
        self.seq += 1;
        let actions = self.faults.decide(self.src, self.dst, seq, self.generation);
        self.stats.record_faults(&actions);
        if actions.contains(&FaultKind::Drop) {
            // Dropped on the wire: only the reliability buffer gets it.
            lock(&self.slot).insert(seq, payload.to_vec());
            return;
        }
        let crc = crc32_bytes(payload);
        let mut wire = payload.to_vec();
        let mut duplicate = false;
        for a in &actions {
            match a {
                FaultKind::Delay(ms) => std::thread::sleep(Duration::from_millis(*ms)),
                FaultKind::Corrupt => {
                    if let Some(b) = wire.first_mut() {
                        *b ^= 0x40;
                    }
                }
                FaultKind::Duplicate => duplicate = true,
                FaultKind::Drop => {} // handled by the early return above
            }
        }
        let frame = ByteFrame { src: self.src, seq, crc, payload: wire };
        if duplicate {
            let _ = self.tx.send(frame.clone());
        }
        let _ = self.tx.send(frame);
        // Channel push *before* slot insert: an empty channel with a
        // buffered `want` then unambiguously means a wire fault, keeping
        // the receiver's retransmit-pull count deterministic.
        lock(&self.slot).insert(seq, payload.to_vec());
    }
}

impl ByteRx {
    /// The peer node id this half receives from.
    pub fn peer(&self) -> usize {
        self.peer
    }

    /// Non-blocking poll for the next in-sequence payload.
    ///
    /// - `Ok(Some(p))` — the next payload, exactly once, in order;
    /// - `Ok(None)` — nothing deliverable right now;
    /// - `Err(RankDead)` — the peer dropped its sender *and* everything it
    ///   ever sent (wire or retransmit buffer) has been delivered.
    pub fn try_recv(&mut self) -> Result<Option<Vec<u8>>, Error> {
        self.recv_within(Duration::ZERO, false, |_| Ok(()))
    }

    /// Blocking receive bounded by the hard cap: [`Error::Timeout`] once
    /// it passes with the peer still connected.
    pub fn recv(&mut self) -> Result<Vec<u8>, Error> {
        let cap = self.t.hard_cap;
        self.recv_within(cap, false, |_| Ok(()))?
            .ok_or(Error::Timeout { rank: self.me, peer: self.peer, op: "byte recv" })
    }

    /// Blocking receive bounded by `max_wait` instead of the hard cap:
    /// `Ok(None)` when nothing became deliverable in time. A worker idles
    /// on this with a short bound so it keeps heartbeating between
    /// dispatches instead of vanishing into a long blocking receive.
    pub fn recv_wait(&mut self, max_wait: Duration) -> Result<Option<Vec<u8>>, Error> {
        self.recv_within(max_wait, false, |_| Ok(()))
    }

    /// The ring/star receive: the protocol owes this receiver a frame, so
    /// every empty wakeup counts in `dist_recv_timeouts_total`, and
    /// `stalled` (given the attempt count) runs after each one and may
    /// abort the wait. Times out as `op` once the hard cap passes.
    pub(crate) fn recv_owed(
        &mut self,
        op: &'static str,
        stalled: impl FnMut(u32) -> Result<(), Error>,
    ) -> Result<Vec<u8>, Error> {
        let cap = self.t.hard_cap;
        self.recv_within(cap, true, stalled)?
            .ok_or(Error::Timeout { rank: self.me, peer: self.peer, op })
    }

    /// The one receive loop. Each wakeup waits out the jittered backoff
    /// (clipped to what is left of `budget`) for a wire frame; a wakeup
    /// that finds the wire empty pulls `want` from the retransmit buffer.
    /// With the budget spent, one last zero-wait pass drains the wire and
    /// pulls before `Ok(None)` — so a zero budget is exactly a
    /// drain-then-pull poll. A disconnected peer is dead only once the
    /// retransmit buffer no longer holds `want`.
    fn recv_within(
        &mut self,
        budget: Duration,
        owed: bool,
        mut stalled: impl FnMut(u32) -> Result<(), Error>,
    ) -> Result<Option<Vec<u8>>, Error> {
        let start = Instant::now();
        let stream = link_stream(self.peer, self.me);
        let mut attempt: u32 = 0;
        loop {
            if let Some(p) = self.stash.remove(&self.want) {
                return Ok(Some(self.deliver(p)));
            }
            let left = budget.saturating_sub(start.elapsed());
            let wait = backoff_delay(&self.t, self.faults.seed(), stream, attempt).min(left);
            match self.rx.recv_timeout(wait) {
                Ok(frame) => self.absorb(frame),
                Err(RecvTimeoutError::Timeout) => {
                    if owed {
                        self.stats.recv_timeouts.inc();
                    }
                    if let Some(p) = self.pull_buffered() {
                        return Ok(Some(self.deliver(p)));
                    }
                    if left.is_zero() {
                        return Ok(None);
                    }
                    attempt = attempt.saturating_add(1);
                    stalled(attempt)?;
                }
                Err(RecvTimeoutError::Disconnected) => {
                    if let Some(p) = self.pull_buffered() {
                        return Ok(Some(self.deliver(p)));
                    }
                    self.stats.rank_dead.inc();
                    return Err(Error::RankDead { rank: self.peer });
                }
            }
        }
    }

    /// Classify one wire frame: discard stale duplicates, reject CRC
    /// failures (the retransmit buffer holds the good copy), stash
    /// in-order and reordered-ahead payloads.
    fn absorb(&mut self, frame: ByteFrame) {
        if frame.seq < self.want {
            self.stats.duplicates_discarded.inc();
            return;
        }
        if crc32_bytes(&frame.payload) != frame.crc {
            self.stats.crc_rejects.inc();
            return;
        }
        if frame.seq > self.want {
            self.stats.reorder_stash.inc();
        }
        self.stash.insert(frame.seq, frame.payload);
    }

    /// NACK/retransmit round trip: the authoritative copy of `want` from
    /// the sender's reliability buffer, if it was ever sent.
    fn pull_buffered(&mut self) -> Option<Vec<u8>> {
        let buffered = lock(&self.slot).get(&self.want).cloned();
        if buffered.is_some() {
            self.stats.retransmit_pulls.inc();
        }
        buffered
    }

    fn deliver(&mut self, payload: Vec<u8>) -> Vec<u8> {
        let consumed = self.want;
        self.want += 1;
        lock(&self.slot).retain(|&s, _| s > consumed);
        payload
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use crate::fault::FaultConfig;

    fn fresh_reg() -> cc19_obs::Registry {
        cc19_obs::Registry::new()
    }

    #[test]
    fn bytes_roundtrip_in_order() {
        let reg = fresh_reg();
        let (mut tx, mut rx) =
            byte_link_in(0, 1, FaultPlan::none(), TimeoutCfg::fast(), &reg);
        tx.send(b"alpha");
        tx.send(b"beta");
        assert_eq!(rx.recv().unwrap(), b"alpha");
        assert_eq!(rx.try_recv().unwrap(), Some(b"beta".to_vec()));
        assert_eq!(rx.try_recv().unwrap(), None);
    }

    #[test]
    fn dropped_and_corrupt_frames_recover_from_the_buffer() {
        let reg = fresh_reg();
        let cfg = FaultConfig { p_drop: 0.5, p_corrupt: 0.5, ..FaultConfig::clean() };
        let (mut tx, mut rx) =
            byte_link_in(0, 1, FaultPlan::seeded(5, cfg), TimeoutCfg::fast(), &reg);
        for i in 0..64u8 {
            tx.send(&[i, i.wrapping_mul(3)]);
        }
        for i in 0..64u8 {
            assert_eq!(rx.recv().unwrap(), vec![i, i.wrapping_mul(3)]);
        }
    }

    #[test]
    fn duplicates_are_discarded_exactly_once_delivery() {
        let reg = fresh_reg();
        let cfg = FaultConfig { p_duplicate: 1.0, ..FaultConfig::clean() };
        let (mut tx, mut rx) =
            byte_link_in(0, 1, FaultPlan::seeded(5, cfg), TimeoutCfg::fast(), &reg);
        tx.send(b"x");
        tx.send(b"y");
        assert_eq!(rx.recv().unwrap(), b"x");
        assert_eq!(rx.recv().unwrap(), b"y");
        assert_eq!(rx.try_recv().unwrap(), None);
    }

    #[test]
    fn death_is_reported_only_after_all_sent_frames_drain() {
        let reg = fresh_reg();
        // Drop every frame on the wire: the payloads survive only in the
        // retransmit buffer, and must still all be delivered before the
        // dropped sender turns into a death verdict.
        let cfg = FaultConfig { p_drop: 1.0, ..FaultConfig::clean() };
        let (mut tx, mut rx) =
            byte_link_in(2, 0, FaultPlan::seeded(9, cfg), TimeoutCfg::fast(), &reg);
        tx.send(b"last words");
        drop(tx);
        assert_eq!(rx.try_recv().unwrap(), Some(b"last words".to_vec()));
        assert_eq!(rx.try_recv().unwrap_err(), Error::RankDead { rank: 2 });
    }

    /// A policy whose hard cap is a few tens of milliseconds, so the
    /// timeout paths run fast.
    fn short_cap() -> TimeoutCfg {
        TimeoutCfg { hard_cap: Duration::from_millis(30), ..TimeoutCfg::fast() }
    }

    fn counter(reg: &cc19_obs::Registry, key: &str) -> u64 {
        reg.snapshot().counters.iter().find(|c| c.key == key).map_or(0, |c| c.value)
    }

    #[test]
    fn owed_receive_from_a_live_silent_sender_times_out_at_the_hard_cap() {
        let reg = fresh_reg();
        // The sender stays alive (no disconnect) but never sends.
        let (_tx, mut rx) = byte_link_in(0, 1, FaultPlan::none(), short_cap(), &reg);
        let mut stalls = 0u32;
        let t0 = Instant::now();
        let err = rx.recv_owed("ring recv", |_| {
            stalls += 1;
            Ok(())
        });
        assert_eq!(err.unwrap_err(), Error::Timeout { rank: 1, peer: 0, op: "ring recv" });
        assert!(t0.elapsed() >= Duration::from_millis(30));
        assert!(stalls > 0, "the stall hook never ran");
        // Owed: every empty wakeup counted, including the final drain.
        assert_eq!(counter(&reg, "dist_recv_timeouts_total"), u64::from(stalls) + 1);
        assert_eq!(counter(&reg, "dist_rank_dead_total"), 0);
    }

    #[test]
    fn idle_blocking_receive_times_out_without_counting_wakeups() {
        let reg = fresh_reg();
        let (_tx, mut rx) = byte_link_in(3, 2, FaultPlan::none(), short_cap(), &reg);
        assert_eq!(rx.recv().unwrap_err(), Error::Timeout { rank: 2, peer: 3, op: "byte recv" });
        assert_eq!(rx.recv_wait(Duration::from_millis(5)).unwrap(), None);
        assert_eq!(counter(&reg, "dist_recv_timeouts_total"), 0);
    }

    #[test]
    fn try_recv_is_nonblocking_on_an_idle_link() {
        let reg = fresh_reg();
        let (_tx, mut rx) =
            byte_link_in(0, 1, FaultPlan::none(), TimeoutCfg::fast(), &reg);
        let t0 = Instant::now();
        assert_eq!(rx.try_recv().unwrap(), None);
        assert!(t0.elapsed() < Duration::from_millis(100));
    }
}
