//! `serve_open`: open-loop arrivals at a fixed rate (6 studies/s, about
//! half the measured capacity) of unique 8×64×64 studies into an
//! in-process two-pipeline `Server`. The admission queue stays bounded
//! but non-empty, so broker, batcher and stage hand-off costs show in
//! the tail. Latency counts from each request's scheduled send.

use std::sync::mpsc::{self, Receiver, TryRecvError};
use std::time::{Duration, Instant};

use cc19_data::volume::CtVolume;
use cc19_serve::{PendingDiagnosis, ServeRequest, Server, ServerCfg};
use cc19_tensor::rng::Xorshift;
use computecovid19::Diagnosis;

use crate::common::{
    self, check_against_direct, median_of, ms, overhead_pct, percentile_of, poll, spread_note,
    studies, Ctx, Outcome,
};
use crate::openloop::{drive, Schedule, WallClock};
use crate::stats;
use crate::trace::Tracer;

/// A study answered this long after its scheduled send counts as good;
/// `goodput_per_s` counts them per second from the first measured
/// scheduled send to the last answer.
pub const GOOD_WITHIN: Duration = Duration::from_millis(300);

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// The server every pass runs against.
fn server_cfg(ctx: &Ctx) -> ServerCfg {
    ServerCfg {
        pipelines: 2,
        queue_bound: ctx.scale.queue_bound,
        ..ServerCfg::default()
    }
}

/// A started server, warmed by one study.
fn start(ctx: &Ctx, warm: &CtVolume) -> Result<Server, String> {
    let s = Server::start(server_cfg(ctx), common::framework)
        .map_err(|e| format!("server start: {e}"))?;
    let reply = s
        .client()
        .submit(ServeRequest::routine(warm.hu.clone()))
        .map_err(|e| format!("warm-up rejected: {e:?}"))?
        .wait()
        .ok_or("warm-up dropped")?;
    reply.result.map_err(|e| format!("warm-up failed: {e}"))?;
    Ok(s)
}

/// Run the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut rng = Xorshift::new(ctx.seed);
    let warm = studies(&mut rng, 1, ctx.scale.study)?;

    let mut setups = Vec::new();
    let mut server: Option<Server> = None;
    for k in 0..SETUPS {
        if let Some(old) = server.take() {
            old.shutdown();
        }
        let t0 = if k == 0 { ctx.t_proc } else { Instant::now() };
        server = Some(start(ctx, &warm[0])?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let server = server.ok_or("no server")?;

    let lead = (ctx.scale.serve_rate * ctx.scale.lead_in.as_secs_f64()).ceil() as usize;
    let n = (ctx.scale.serve_rate * ctx.pass_seconds()).ceil() as usize;
    let vols = studies(&mut rng, lead + n, ctx.scale.study)?;
    let sched = Schedule {
        rate_per_s: ctx.scale.serve_rate,
        n: lead + n,
    };

    let plain = pass(&server, &vols, sched, lead, false, &mut out);
    check_against_direct("serve_open", &plain.answered, &vols, ctx.tamper, &mut out)?;
    let p50 = percentile_of("study latency", &plain.lat_ms, 50.0)?;
    out.e2e("setup_s", "s", median_of("setup", &setups)?);
    out.e2e("peak_rss_mb", "MiB", common::peak_rss_mb()?);
    out.e2e("op_p50_ms", "ms", p50);
    // Goodput: studies answered within GOOD_WITHIN of their scheduled
    // send, per second.
    out.e2e("ops_per_s", "1/s", plain.good as f64 / plain.window_s);
    // The tail is reported through goodput, not as a p95 metric: a
    // sub-second host stall delays more studies than the dozen beyond
    // the p95 of a run, so the p95 swings between runs by more than any
    // useful bound.
    out.notes.push(format!(
        "serve_open: {n} studies at {} /s after {lead} lead-in, {} answered, {} within {} ms; p95 {:.1} ms with {} beyond it",
        sched.rate_per_s,
        plain.lat_ms.len(),
        plain.good,
        GOOD_WITHIN.as_millis(),
        percentile_of("study latency", &plain.lat_ms, 95.0)?,
        stats::beyond(plain.lat_ms.len(), 95.0),
    ));
    out.notes.push(spread_note("setup_s", "s", &setups));

    if ctx.trace {
        let traced = pass(&server, &vols, sched, lead, true, &mut out);
        let traced_p50 = percentile_of("traced latency", &traced.lat_ms, 50.0)?;
        out.layer(
            "bench.trace_overhead_pct",
            "%",
            overhead_pct(p50, traced_p50, true),
        );
        out.tracer = Some(traced.tracer);
    }
    server.shutdown();
    Ok(out)
}

/// The serving layer: a fresh server under the workload's arrival rate
/// for `ctx.scale.layer_pass` (`serve.*`, `bench.gen_lag_p95_ms`).
pub fn layers(
    ctx: &Ctx,
    rng: &mut Xorshift,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let vols = studies(
        rng,
        (ctx.scale.serve_rate * ctx.scale.layer_pass.as_secs_f64()).ceil() as usize + 1,
        ctx.scale.study,
    )?;
    let server = start(ctx, &vols[0])?;
    let sched = Schedule {
        rate_per_s: ctx.scale.serve_rate,
        n: vols.len() - 1,
    };
    let before = server.metrics().snapshot();
    let traced = pass(&server, &vols[1..], sched, 0, true, out);
    let after = server.metrics().snapshot();
    server.shutdown();
    tracer.absorb(traced.tracer);
    let us = |name: &str| -> Result<f64, String> { Ok(median_of(name, &tracer.secs(name))? * 1e6) };
    out.layer("serve.admit_us", "us", us("serve.submit")?);
    out.layer(
        "serve.queue_p50_ms",
        "ms",
        percentile_of("t_queue", &traced.queue_ms, 50.0)?,
    );
    out.layer(
        "serve.queue_p95_ms",
        "ms",
        percentile_of("t_queue", &traced.queue_ms, 95.0)?,
    );
    out.layer(
        "serve.overhead_p50_ms",
        "ms",
        median_of("overhead", &traced.overhead_ms)?,
    );
    let batches = (after.batches - before.batches).max(1);
    out.layer(
        "serve.batch_mean",
        "studies",
        (after.completed - before.completed) as f64 / batches as f64,
    );
    out.layer("serve.depth_max", "studies", after.depth_max as f64);
    out.layer(
        "bench.gen_lag_p95_ms",
        "ms",
        percentile_of("lag", &tracer.secs("bench.lag"), 95.0)? * 1e3,
    );
    Ok(())
}

/// What one pass over the schedule saw.
struct Pass {
    /// Latency from scheduled send of every answered study.
    lat_ms: Vec<f64>,
    /// `(study index, diagnosis)` of every answered study, by index.
    answered: Vec<(usize, Diagnosis)>,
    /// Answered within [`GOOD_WITHIN`] of the scheduled send.
    good: usize,
    /// First measured scheduled send to the last answer, in seconds.
    window_s: f64,
    /// `Diagnosis.t_queue` of every answered study.
    queue_ms: Vec<f64>,
    /// Latency from submit minus queue wait and stage timers.
    overhead_ms: Vec<f64>,
    tracer: Tracer,
}

/// A submitted request: index, due, submit start, submit end.
type Sent = (usize, Instant, Instant, Instant);

/// Send `vols[i]` at `sched.due(i)` from one thread while a second one
/// collects the answers; the first `lead` answers are not measured.
fn pass(
    server: &Server,
    vols: &[CtVolume],
    sched: Schedule,
    lead: usize,
    traced: bool,
    out: &mut Outcome,
) -> Pass {
    let requests: Vec<ServeRequest> = vols
        .iter()
        .map(|v| ServeRequest::routine(v.hu.clone()))
        .collect();
    let client = server.client();
    let (tx, rx) = mpsc::channel::<(Sent, PendingDiagnosis)>();
    let epoch = Instant::now();
    let (rejected, (replies, tracer)) = std::thread::scope(|s| {
        let sender = s.spawn(move || {
            let mut requests = requests.into_iter();
            let mut rejected = 0u64;
            drive(&WallClock(epoch), &sched, |i, due| {
                let Some(req) = requests.next() else { return };
                let t0 = Instant::now();
                let admitted = client.submit(req);
                let t1 = Instant::now();
                match admitted {
                    Ok(p) => {
                        let _ = tx.send(((i, epoch + due, t0, t1), p));
                    }
                    Err(_) => rejected += 1,
                }
            });
            rejected
        });
        let collector = s.spawn(move || collect(rx, Tracer::new(epoch, traced)));
        (
            sender.join().expect("sender thread"),
            collector.join().expect("collector thread"),
        )
    });

    let mut p = Pass {
        lat_ms: vec![],
        answered: vec![],
        good: 0,
        window_s: 0.0,
        queue_ms: vec![],
        overhead_ms: vec![],
        tracer,
    };
    let first_due = epoch + sched.due(lead);
    out.attempted += sched.n as u64;
    out.failed += rejected;
    for ((i, due, t0, _), response, at) in replies {
        match response.map(|r| r.result) {
            Some(Ok(_)) if i < lead => {}
            Some(Ok(d)) => {
                let lat = at - due;
                p.window_s = p.window_s.max((at - first_due).as_secs_f64());
                p.lat_ms.push(ms(lat));
                p.good += usize::from(lat <= GOOD_WITHIN);
                p.queue_ms.push(ms(d.t_queue));
                let stages = d.t_enhance + d.t_segment + d.t_classify;
                p.overhead_ms.push(ms(at - t0) - ms(d.t_queue) - ms(stages));
                p.answered.push((i, d));
            }
            _ => out.failed += 1,
        }
    }
    p.answered.sort_by_key(|(i, _)| *i);
    p
}

/// Wait for every admitted request's answer; record per request the
/// spans lag (due → submit), submit, and wait, under one `serve.op`.
fn collect(
    rx: Receiver<(Sent, PendingDiagnosis)>,
    mut tracer: Tracer,
) -> (
    Vec<(Sent, Option<cc19_serve::ServeResponse>, Instant)>,
    Tracer,
) {
    let mut inflight = Vec::new();
    let mut done = Vec::new();
    let mut open = true;
    loop {
        while open {
            let msg = if inflight.is_empty() {
                rx.recv().map_err(|_| TryRecvError::Disconnected)
            } else {
                rx.try_recv()
            };
            match msg {
                Ok(m) => inflight.push(m),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => open = false,
            }
        }
        if !open && inflight.is_empty() {
            return (done, tracer);
        }
        for r in poll(&mut inflight) {
            let (i, due, t0, t1) = r.tag;
            let op = tracer.record("serve.op", due, r.at, None, i as u64);
            tracer.record("bench.lag", due, t0, op, i as u64);
            tracer.record("serve.submit", t0, t1, op, i as u64);
            tracer.record("serve.wait", t1, r.at, op, i as u64);
            done.push((r.tag, r.response, r.at));
        }
    }
}
