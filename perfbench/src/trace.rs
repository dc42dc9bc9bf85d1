//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions (the program itself is not instrumented
//! here). They stay in memory until the run ends; the per-layer metrics
//! are derived from them, and `--out` writes them as JSON lines.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call, e.g. `serve.submit`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Operation (request, scan, slice, probe repeat) the span belongs to.
    pub op: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// A span store; disabled tracers record nothing, so untraced runs pay
/// one branch per call site.
#[derive(Debug, Clone)]
pub struct Tracer {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer timing against `epoch`; records only when `on`.
    pub fn new(epoch: Instant, on: bool) -> Self {
        Tracer {
            epoch,
            on,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch at `t`.
    pub fn ns_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span; returns its index when recording.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        op: u64,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let (start_ns, end_ns) = (self.ns_at(start), self.ns_at(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            op,
        });
        Some(self.spans.len() - 1)
    }

    /// Run `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let t0 = Instant::now();
        let out = f();
        self.record(name, t0, Instant::now(), parent, op);
        out
    }

    /// Move another tracer's spans into this one, re-timed to this
    /// tracer's epoch (spans before it start at 0).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        let later = other.epoch >= self.epoch;
        let shift = if later {
            other.epoch - self.epoch
        } else {
            self.epoch - other.epoch
        }
        .as_nanos() as u64;
        let at = |ns: u64| {
            if later {
                ns + shift
            } else {
                ns.saturating_sub(shift)
            }
        };
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            start_ns: at(s.start_ns),
            end_ns: at(s.end_ns),
            parent: s.parent.map(|p| p + base),
            ..s
        }));
    }

    /// Durations in seconds of every span named `name`.
    pub fn secs(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// The spans as JSON lines (name, start, end, parent, op).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now(), false);
        assert_eq!(t.time("x", None, 0, || 7), 7);
        assert!(t.spans.is_empty());
    }

    #[test]
    fn absorb_rebases_parent_indices() {
        let e = Instant::now();
        let mut a = Tracer::new(e, true);
        a.record("x", e, e, None, 0);
        let mut b = Tracer::new(e, true);
        let p = b.record("op", e, e, None, 1);
        b.record("child", e, e, p, 1);
        a.absorb(b);
        assert_eq!(a.spans[2].parent, Some(1));
        assert_eq!(a.secs("child"), vec![0.0]);
        assert_eq!(a.to_jsonl().lines().count(), 3);
    }

    #[test]
    fn absorb_retimes_to_the_own_epoch() {
        let e = Instant::now();
        let later = e + std::time::Duration::from_millis(5);
        let mut a = Tracer::new(e, true);
        let mut b = Tracer::new(later, true);
        b.record(
            "x",
            later,
            later + std::time::Duration::from_millis(1),
            None,
            0,
        );
        a.absorb(b);
        assert_eq!(
            (a.spans[0].start_ns, a.spans[0].end_ns),
            (5_000_000, 6_000_000)
        );
        let mut c = Tracer::new(later, true);
        c.absorb(a);
        assert_eq!((c.spans[0].start_ns, c.spans[0].end_ns), (0, 1_000_000));
    }
}
