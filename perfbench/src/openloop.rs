//! Open-loop arrival schedule: request `i` is due at `i / rate` seconds,
//! whether or not earlier requests have been answered. Latency counts
//! from the due time, so a stall in the generator or in admission is
//! charged to every request it delays, and the generator's own lateness
//! is reported beside it.

use std::time::{Duration, Instant};

/// Time source of the generator (a fake one in tests).
pub trait Clock {
    /// Time since the schedule started.
    fn now(&self) -> Duration;
    /// Block until `now() >= t`.
    fn sleep_until(&self, t: Duration);
}

/// The real clock, started at `epoch`.
pub struct WallClock(pub Instant);

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }

    fn sleep_until(&self, t: Duration) {
        if let Some(wait) = t.checked_sub(self.now()) {
            std::thread::sleep(wait);
        }
    }
}

/// `n` arrivals at a fixed rate.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    /// Arrivals per second.
    pub rate_per_s: f64,
    /// Number of arrivals.
    pub n: usize,
}

impl Schedule {
    /// When arrival `i` is due.
    pub fn due(&self, i: usize) -> Duration {
        Duration::from_secs_f64(i as f64 / self.rate_per_s)
    }
}

/// Send every arrival of `sched` at its due time (or as soon after as
/// the previous send allows) and return how late each send started.
pub fn drive<C: Clock>(
    clock: &C,
    sched: &Schedule,
    mut send: impl FnMut(usize, Duration),
) -> Vec<Duration> {
    (0..sched.n)
        .map(|i| {
            let due = sched.due(i);
            clock.sleep_until(due);
            let lag = clock.now().saturating_sub(due);
            send(i, due);
            lag
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    struct FakeClock(Cell<Duration>);

    impl FakeClock {
        fn advance(&self, d: Duration) {
            self.0.set(self.0.get() + d);
        }
    }

    impl Clock for FakeClock {
        fn now(&self) -> Duration {
            self.0.get()
        }

        fn sleep_until(&self, t: Duration) {
            self.0.set(self.0.get().max(t));
        }
    }

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn a_slow_send_makes_later_sends_late_until_the_schedule_catches_up() {
        let clock = FakeClock(Cell::new(Duration::ZERO));
        let sched = Schedule {
            rate_per_s: 10.0,
            n: 6,
        };
        let mut sent_at = Vec::new();
        let lags = drive(&clock, &sched, |i, due| {
            sent_at.push((due, clock.now()));
            // Send 1 stalls for 250 ms; the others take 1 ms.
            clock.advance(if i == 1 { 250 * MS } else { MS });
        });
        assert_eq!(
            lags,
            vec![
                Duration::ZERO,
                Duration::ZERO,
                150 * MS,
                51 * MS,
                Duration::ZERO,
                Duration::ZERO
            ]
        );
        // Latency is charged from the due time: a reply at 400 ms to
        // request 2 (due 200 ms, sent 350 ms) took 200 ms, not 50 ms.
        let (due2, sent2) = sent_at[2];
        assert_eq!((due2, sent2), (200 * MS, 350 * MS));
        assert_eq!((400 * MS).saturating_sub(due2), 200 * MS);
    }

    #[test]
    fn on_time_sends_have_zero_lag() {
        let clock = FakeClock(Cell::new(Duration::ZERO));
        let sched = Schedule {
            rate_per_s: 12.0,
            n: 24,
        };
        let lags = drive(&clock, &sched, |_, _| clock.advance(MS));
        assert!(lags.iter().all(|l| l.is_zero()));
        assert_eq!(clock.now(), sched.due(23) + MS);
        assert_eq!(sched.due(12), Duration::from_secs(1));
    }
}
