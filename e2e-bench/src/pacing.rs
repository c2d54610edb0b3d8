//! Open-loop pacing.
//!
//! Round `r` falls due at `start + (r + 1) · period` whatever the system
//! under test does: the due time is when the round's last report was
//! created. A round's latency runs from its due time until its work
//! returns, so a stalled round also delays every round queued behind it,
//! and the generator's lateness (how long after its due time a round
//! could start) is reported on its own.

use std::time::{Duration, Instant};

/// Time source for the pacer, in seconds.
pub trait Clock {
    /// Seconds since the clock's origin.
    fn now(&self) -> f64;
    /// Block until `now() >= t` (returns at once if already past).
    fn sleep_until(&mut self, t: f64);
}

/// The real clock.
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// A clock whose origin is now.
    pub fn new() -> WallClock {
        WallClock {
            origin: Instant::now(),
        }
    }
}

impl Clock for WallClock {
    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    fn sleep_until(&mut self, t: f64) {
        let wait = t - self.now();
        if wait > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(wait));
        }
    }
}

/// The real clock, except that it never waits: rounds run back to back.
/// For passes whose timings are not reported (warm-up, recording the
/// expected outputs).
pub struct Unpaced(WallClock);

impl Unpaced {
    /// A clock whose origin is now.
    pub fn new() -> Unpaced {
        Unpaced(WallClock::new())
    }
}

impl Clock for Unpaced {
    fn now(&self) -> f64 {
        self.0.now()
    }

    fn sleep_until(&mut self, _t: f64) {}
}

/// Fixed-period round schedule.
#[derive(Debug, Clone, Copy)]
pub struct Pacer {
    start: f64,
    period: f64,
}

impl Pacer {
    /// Rounds of `period` seconds, the first falling due one period
    /// after `start`.
    pub fn new(start: f64, period: f64) -> Pacer {
        Pacer { start, period }
    }

    /// When `round` falls due.
    pub fn due(&self, round: usize) -> f64 {
        self.start + (round + 1) as f64 * self.period
    }

    /// Wait for `round` to fall due and return how late, in seconds,
    /// it could start (0 when the previous round finished in time).
    pub fn begin(&self, clock: &mut impl Clock, round: usize) -> f64 {
        let due = self.due(round);
        clock.sleep_until(due);
        (clock.now() - due).max(0.0)
    }

    /// Latency of `round` if it finishes now, counted from its due time.
    pub fn latency(&self, clock: &impl Clock, round: usize) -> f64 {
        clock.now() - self.due(round)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A clock that only moves when told to.
    struct FakeClock(f64);

    impl Clock for FakeClock {
        fn now(&self) -> f64 {
            self.0
        }
        fn sleep_until(&mut self, t: f64) {
            self.0 = self.0.max(t);
        }
    }

    /// Run rounds with the given service times; return (lateness, latency).
    fn simulate(period: f64, service: &[f64]) -> Vec<(f64, f64)> {
        let mut clock = FakeClock(0.0);
        let pacer = Pacer::new(0.0, period);
        service
            .iter()
            .enumerate()
            .map(|(r, &s)| {
                let late = pacer.begin(&mut clock, r);
                clock.0 += s;
                (late, pacer.latency(&clock, r))
            })
            .collect()
    }

    fn close(a: &[(f64, f64)], b: &[(f64, f64)]) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| (x.0 - y.0).abs() < 1e-12 && (x.1 - y.1).abs() < 1e-12)
    }

    #[test]
    fn rounds_that_keep_up_see_their_service_time() {
        let got = simulate(1.0, &[0.2, 0.3, 0.1]);
        assert!(
            close(&got, &[(0.0, 0.2), (0.0, 0.3), (0.0, 0.1)]),
            "{got:?}"
        );
    }

    #[test]
    fn a_stalled_round_delays_the_rounds_behind_it() {
        // Round 1 takes 3.5 periods; rounds 2-4 start late and count the
        // wait, until the backlog drains.
        let got = simulate(1.0, &[0.2, 3.5, 0.2, 0.2, 0.2, 0.2]);
        let want = [
            (0.0, 0.2),
            (0.0, 3.5),
            (2.5, 2.7),
            (1.7, 1.9),
            (0.9, 1.1),
            (0.1, 0.3),
        ];
        assert!(close(&got, &want), "{got:?}");
    }

    #[test]
    fn due_times_follow_the_schedule_not_the_work() {
        let pacer = Pacer::new(10.0, 0.05);
        assert!((pacer.due(0) - 10.05).abs() < 1e-12);
        assert!((pacer.due(19) - 11.0).abs() < 1e-12);
    }

    #[test]
    fn wall_clock_sleeps_until_the_due_time() {
        let mut clock = WallClock::new();
        let pacer = Pacer::new(clock.now(), 0.005);
        let late = pacer.begin(&mut clock, 1);
        assert!(clock.now() >= pacer.due(1));
        assert!(late >= 0.0);
    }

    #[test]
    fn unpaced_clock_never_waits() {
        let mut clock = Unpaced::new();
        let pacer = Pacer::new(clock.now(), 3600.0);
        let late = pacer.begin(&mut clock, 0);
        assert_eq!(late, 0.0);
        assert!(clock.now() < pacer.due(0));
    }
}
