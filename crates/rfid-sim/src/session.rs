//! Supervised reader sessions: a simulated LLRP connection with
//! stall detection, reconnect backoff, degraded-mode tracking, and
//! panic isolation.
//!
//! The paper's system tracks the pen *live*; production LLRP readers
//! stall, drop TCP connections, and lose antenna ports mid-session.
//! This module provides the supervision shell the streaming engine
//! (`polardraw_core::online`) runs under:
//!
//! * [`LlrpLink`] — the connection abstraction: connect, poll wire
//!   frames, observe drops. [`SimulatedLink`] implements it over a
//!   pre-faulted [`TagReport`] stream with configurable outage windows
//!   and garbage frames, entirely in virtual time (no real sleeping, no
//!   wall clock — deterministic by construction).
//! * [`BackoffPolicy`] — exponential backoff with deterministic,
//!   seed-derived jitter for reconnect pacing.
//! * [`SessionSupervisor`] — the run loop: polls the link on a fixed
//!   interval, hands decoded reports to a [`ReportSink`], trips a
//!   watchdog when the link goes silent for `t_watchdog_s`, reconnects
//!   through the backoff schedule, flags antenna ports that stay dead
//!   (single-antenna degraded mode), and can isolate a panicking sink
//!   so one bad session cannot take down a multi-session server.
//!
//! Everything is driven by a virtual clock passed through the API, so
//! supervision logic is unit-testable and bit-reproducible under seeds.

use crate::llrp;
use crate::TagReport;
use rf_core::rng::{derive_seed, rng_from_seed, Rng64};

/// Anything that consumes tracked reports one at a time. The streaming
/// tracker in `polardraw-core` implements this; so does a plain
/// `Vec<TagReport>` (capture for tests).
pub trait ReportSink {
    /// Consume one report.
    fn accept(&mut self, report: &TagReport);
}

impl ReportSink for Vec<TagReport> {
    fn accept(&mut self, report: &TagReport) {
        self.push(*report);
    }
}

/// The reader-connection abstraction the supervisor drives. All times
/// are virtual seconds on the session clock.
pub trait LlrpLink {
    /// Attempt to (re)connect at time `now`; returns success.
    fn connect(&mut self, now: f64) -> bool;
    /// True while the link believes it is connected (a poll may clear
    /// this when the connection drops).
    fn is_connected(&self) -> bool;
    /// Drain wire frames that arrived since the previous poll, up to
    /// `now`. Returns nothing while disconnected.
    fn poll(&mut self, now: f64) -> Vec<Vec<u8>>;
    /// True once the link will never produce another frame (simulated
    /// stream fully consumed).
    fn exhausted(&self) -> bool;
}

/// Deterministic exponential backoff with seeded jitter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackoffPolicy {
    /// First retry delay, seconds.
    pub base_s: f64,
    /// Multiplier per attempt (≥ 1).
    pub factor: f64,
    /// Cap on any single delay, seconds.
    pub max_s: f64,
    /// Jitter amplitude as a fraction of the delay: the realized delay
    /// is `d · (1 + jitter_frac · u)` with `u` uniform in `[-1, 1)`
    /// from the supervisor's derived PRNG stream.
    pub jitter_frac: f64,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy { base_s: 0.05, factor: 2.0, max_s: 1.0, jitter_frac: 0.1 }
    }
}

impl BackoffPolicy {
    /// The delay before reconnect attempt `attempt` (0-based).
    pub fn delay(&self, attempt: usize, rng: &mut Rng64) -> f64 {
        let expo = self.factor.max(1.0).powi(attempt.min(64) as i32);
        let d = (self.base_s.max(1e-4) * expo).min(self.max_s.max(1e-4));
        let u = 2.0 * rng.gen_f64() - 1.0;
        d * (1.0 + self.jitter_frac.clamp(0.0, 1.0) * u)
    }

    /// Upper bound on the total virtual time the full schedule of
    /// `attempts` retries can consume (used by tests to assert the
    /// supervisor reconnects "within the backoff schedule").
    pub fn worst_case_total_s(&self, attempts: usize) -> f64 {
        (0..attempts)
            .map(|a| {
                let expo = self.factor.max(1.0).powi(a.min(64) as i32);
                let d = (self.base_s.max(1e-4) * expo).min(self.max_s.max(1e-4));
                d * (1.0 + self.jitter_frac.clamp(0.0, 1.0))
            })
            .sum()
    }
}

/// Supervisor tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionConfig {
    /// Link poll period, seconds (one LLRP keepalive round).
    pub poll_interval_s: f64,
    /// Watchdog: a connected link that delivers no reports for this
    /// long is treated as stalled and recycled.
    pub t_watchdog_s: f64,
    /// Reconnect pacing.
    pub backoff: BackoffPolicy,
    /// Reconnect attempts per outage episode before giving up.
    pub max_reconnect_attempts: usize,
    /// An antenna port silent this long — while the other port keeps
    /// reading — is flagged dead (single-antenna degraded mode).
    pub port_dead_after_s: f64,
    /// Root seed; the backoff-jitter stream is derived from it.
    pub seed: u64,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            poll_interval_s: 0.05,
            t_watchdog_s: 0.5,
            backoff: BackoffPolicy::default(),
            max_reconnect_attempts: 10,
            port_dead_after_s: 1.0,
            seed: 0,
        }
    }
}

/// One entry in the supervisor's event log.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionEvent {
    /// The link (re)connected.
    Connected {
        /// Virtual time, seconds.
        t: f64,
    },
    /// The watchdog tripped: no reports for `silent_for_s`.
    WatchdogStall {
        /// Virtual time, seconds.
        t: f64,
        /// How long the link had been silent.
        silent_for_s: f64,
    },
    /// The link reported itself disconnected.
    Disconnected {
        /// Virtual time, seconds.
        t: f64,
    },
    /// One reconnect attempt was scheduled.
    ReconnectAttempt {
        /// Virtual time the attempt was scheduled at, seconds.
        t: f64,
        /// 0-based attempt number within this episode.
        attempt: usize,
        /// Backoff delay before the attempt, seconds.
        delay_s: f64,
    },
    /// The reconnect cycle succeeded.
    Reconnected {
        /// Virtual time, seconds.
        t: f64,
        /// Attempts the episode took.
        attempts: usize,
    },
    /// The reconnect cycle exhausted its attempts.
    GaveUp {
        /// Virtual time, seconds.
        t: f64,
        /// Attempts made.
        attempts: usize,
    },
    /// A wire frame failed to decode and was discarded.
    BadFrame {
        /// Virtual time, seconds.
        t: f64,
    },
    /// An antenna port has been silent past the dead threshold while
    /// the other port keeps reading.
    PortDead {
        /// Virtual time, seconds.
        t: f64,
        /// The silent port.
        antenna: usize,
    },
    /// A dead port produced reads again.
    PortRecovered {
        /// Virtual time, seconds.
        t: f64,
        /// The recovered port.
        antenna: usize,
    },
    /// A sink panic was caught and contained.
    PanicIsolated {
        /// Panic payload rendered to text.
        context: String,
    },
}

/// Counters summarizing one supervised run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SessionStats {
    /// Reports handed to the sink.
    pub reports_delivered: usize,
    /// Wire frames decoded successfully.
    pub frames_delivered: usize,
    /// Wire frames rejected by the LLRP decoder.
    pub bad_frames: usize,
    /// Successful reconnects (incl. the initial connect).
    pub connects: usize,
    /// Individual reconnect attempts made.
    pub reconnect_attempts: usize,
    /// Watchdog trips.
    pub watchdog_stalls: usize,
    /// The final reconnect cycle gave up before the stream ended.
    pub gave_up: bool,
}

/// The supervision shell: owns a link, drives the poll/watchdog/
/// reconnect loop, and reports everything it did.
#[derive(Debug)]
pub struct SessionSupervisor<L: LlrpLink> {
    config: SessionConfig,
    link: L,
    rng: Rng64,
    events: Vec<SessionEvent>,
    stats: SessionStats,
    port_last_seen: [Option<f64>; 2],
    port_dead: [bool; 2],
}

impl<L: LlrpLink> SessionSupervisor<L> {
    /// New supervisor over `link`.
    pub fn new(config: SessionConfig, link: L) -> SessionSupervisor<L> {
        let rng = rng_from_seed(derive_seed(config.seed, "session.backoff"));
        SessionSupervisor {
            config,
            link,
            rng,
            events: Vec::new(),
            stats: SessionStats::default(),
            port_last_seen: [None; 2],
            port_dead: [false; 2],
        }
    }

    /// Everything that happened, in order.
    pub fn events(&self) -> &[SessionEvent] {
        &self.events
    }

    /// Run counters so far.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Which antenna ports are currently flagged dead.
    pub fn dead_ports(&self) -> [bool; 2] {
        self.port_dead
    }

    /// True when exactly one port is flagged dead — the session is
    /// running in single-antenna degraded mode.
    pub fn degraded_single_antenna(&self) -> bool {
        self.port_dead[0] != self.port_dead[1]
    }

    /// The link, for inspection after a run.
    pub fn link(&self) -> &L {
        &self.link
    }

    /// Drive the session on the virtual clock from `t_start` to `t_end`,
    /// delivering every decoded report to `sink`. Returns the final
    /// counters (also available via [`stats`](Self::stats)).
    pub fn run<S: ReportSink>(&mut self, sink: &mut S, t_start: f64, t_end: f64) -> SessionStats {
        let dt = self.config.poll_interval_s.max(1e-4);
        let mut now = t_start;
        let mut last_report_t = t_start;

        if !self.link.is_connected() && !self.reconnect(&mut now, t_end) {
            return self.stats;
        }

        while now <= t_end {
            let frames = self.link.poll(now);
            for frame in frames {
                match llrp::decode_report(&frame) {
                    Ok((_, reports)) => {
                        self.stats.frames_delivered += 1;
                        for r in &reports {
                            sink.accept(r);
                            self.stats.reports_delivered += 1;
                            self.note_port(r.antenna, now);
                        }
                        if !reports.is_empty() {
                            last_report_t = now;
                        }
                    }
                    Err(_) => {
                        self.stats.bad_frames += 1;
                        self.events.push(SessionEvent::BadFrame { t: now });
                    }
                }
            }
            self.watch_ports(now);

            if self.link.exhausted() {
                break;
            }
            let silent_for = now - last_report_t;
            let stalled = silent_for > self.config.t_watchdog_s;
            let dropped = !self.link.is_connected();
            if stalled || dropped {
                if stalled {
                    self.stats.watchdog_stalls += 1;
                    self.events.push(SessionEvent::WatchdogStall { t: now, silent_for_s: silent_for });
                }
                if dropped {
                    self.events.push(SessionEvent::Disconnected { t: now });
                }
                if !self.reconnect(&mut now, t_end) {
                    return self.stats;
                }
                last_report_t = now;
                continue;
            }
            now += dt;
        }
        self.stats
    }

    /// [`run`](Self::run) with panic isolation: a panicking sink is
    /// caught, logged as [`SessionEvent::PanicIsolated`], and returned
    /// as `Err` — the supervisor (and the process hosting other
    /// sessions) survives.
    pub fn run_isolated<S: ReportSink>(
        &mut self,
        sink: &mut S,
        t_start: f64,
        t_end: f64,
    ) -> Result<SessionStats, String> {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.run(sink, t_start, t_end)
        }));
        match outcome {
            Ok(stats) => Ok(stats),
            Err(payload) => {
                let context = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                self.events.push(SessionEvent::PanicIsolated { context: context.clone() });
                Err(context)
            }
        }
    }

    fn reconnect(&mut self, now: &mut f64, t_end: f64) -> bool {
        for attempt in 0..self.config.max_reconnect_attempts.max(1) {
            let delay = self.config.backoff.delay(attempt, &mut self.rng);
            self.stats.reconnect_attempts += 1;
            self.events.push(SessionEvent::ReconnectAttempt { t: *now, attempt, delay_s: delay });
            *now += delay;
            if *now > t_end + self.config.backoff.max_s {
                break;
            }
            if self.link.connect(*now) {
                self.stats.connects += 1;
                self.events.push(SessionEvent::Connected { t: *now });
                self.events.push(SessionEvent::Reconnected { t: *now, attempts: attempt + 1 });
                return true;
            }
        }
        self.stats.gave_up = true;
        self.events.push(SessionEvent::GaveUp {
            t: *now,
            attempts: self.config.max_reconnect_attempts.max(1),
        });
        false
    }

    fn note_port(&mut self, antenna: usize, now: f64) {
        if antenna >= 2 {
            return;
        }
        self.port_last_seen[antenna] = Some(now);
        if self.port_dead[antenna] {
            self.port_dead[antenna] = false;
            self.events.push(SessionEvent::PortRecovered { t: now, antenna });
        }
    }

    fn watch_ports(&mut self, now: f64) {
        for ant in 0..2 {
            if self.port_dead[ant] {
                continue;
            }
            let other = 1 - ant;
            let this_seen = self.port_last_seen[ant];
            let other_seen = self.port_last_seen[other];
            if let (Some(this_t), Some(other_t)) = (this_seen, other_seen) {
                let threshold = self.config.port_dead_after_s.max(1e-3);
                if now - this_t > threshold && now - other_t <= threshold {
                    self.port_dead[ant] = true;
                    self.events.push(SessionEvent::PortDead { t: now, antenna: ant });
                }
            }
        }
    }
}

/// A simulated LLRP reader connection over a pre-generated (optionally
/// fault-injected) report stream, driven entirely in virtual time.
///
/// Reports are grouped into RO_ACCESS_REPORT frames of
/// `frame_interval_s`; each frame is deliverable once the clock passes
/// its bucket end. Configured outage windows sever the connection:
/// polls inside a window drop the link, connects inside a window fail,
/// and frames whose delivery time falls inside a window are lost (the
/// reader had no connection to send them over). Garbage frames can be
/// interleaved to exercise the decoder's rejection path.
#[derive(Debug, Clone)]
pub struct SimulatedLink {
    frames: Vec<(f64, Vec<u8>)>,
    cursor: usize,
    connected: bool,
    outages: Vec<(f64, f64)>,
    frames_lost: usize,
}

impl SimulatedLink {
    /// Build a link over `reports`, framed every `frame_interval_s`.
    pub fn from_reports(reports: &[TagReport], frame_interval_s: f64) -> SimulatedLink {
        let interval = frame_interval_s.max(1e-4);
        let mut frames: Vec<(f64, Vec<u8>)> = Vec::new();
        if !reports.is_empty() {
            let t0 = reports.iter().map(|r| r.t).fold(f64::INFINITY, f64::min);
            // Group in arrival order; a frame holds the reports of one
            // interval-aligned bucket, delivered at the bucket's end.
            let mut buckets: std::collections::BTreeMap<u64, Vec<TagReport>> =
                std::collections::BTreeMap::new();
            for &r in reports {
                let idx = ((r.t - t0) / interval).floor().max(0.0) as u64;
                buckets.entry(idx).or_default().push(r);
            }
            for (idx, group) in &buckets {
                let deliver_at = t0 + (*idx as f64 + 1.0) * interval;
                frames.push((deliver_at, llrp::encode_report(group, *idx as u32)));
            }
        }
        SimulatedLink { frames, cursor: 0, connected: false, outages: Vec::new(), frames_lost: 0 }
    }

    /// Sever the connection over `[start_s, end_s]` of virtual time.
    /// May be called repeatedly for multiple outages.
    pub fn with_outage(mut self, start_s: f64, end_s: f64) -> SimulatedLink {
        self.outages.push((start_s.min(end_s), start_s.max(end_s)));
        self
    }

    /// Interleave a garbage frame (undecodable bytes) before every
    /// `every_n`-th real frame — deterministic, no PRNG needed.
    pub fn with_garbage_every(mut self, every_n: usize) -> SimulatedLink {
        if every_n == 0 {
            return self;
        }
        let mut out = Vec::with_capacity(self.frames.len() + self.frames.len() / every_n + 1);
        for (i, (t, frame)) in self.frames.iter().enumerate() {
            if i % every_n == every_n - 1 {
                // A header-sized blob of noise: wrong version, wrong
                // type, nonsense length.
                out.push((*t, vec![0xFF, 0xEE, 0xDD, 0xCC, 0xBB, 0xAA, 0x99, 0x88, 0x77, 0x66]));
            }
            out.push((*t, frame.clone()));
        }
        self.frames = out;
        self
    }

    /// Skip frames already delivered before `t` — a fresh connection
    /// resuming an interrupted session (e.g. from a checkpoint taken at
    /// `t`) only receives reports the reader produces from then on.
    /// Skipped frames are not counted as lost.
    pub fn resume_from(mut self, t: f64) -> SimulatedLink {
        while self.cursor < self.frames.len() && self.frames[self.cursor].0 <= t {
            self.cursor += 1;
        }
        self
    }

    /// Position the delivery cursor immediately after everything
    /// `predecessor` (an earlier connection over the same stream) has
    /// already consumed — the exact continuation of an interrupted
    /// session. Unlike [`resume_from`](Self::resume_from), this cannot
    /// lose or duplicate a frame to floating-point cracks between a
    /// poll instant and a frame's delivery time.
    pub fn resume_after(mut self, predecessor: &SimulatedLink) -> SimulatedLink {
        self.cursor = self.cursor.max(predecessor.cursor);
        self
    }

    /// Frames lost because their delivery time fell inside an outage.
    pub fn frames_lost(&self) -> usize {
        self.frames_lost
    }

    fn in_outage(&self, t: f64) -> bool {
        self.outages.iter().any(|&(lo, hi)| t >= lo && t <= hi)
    }
}

impl LlrpLink for SimulatedLink {
    fn connect(&mut self, now: f64) -> bool {
        self.connected = !self.in_outage(now);
        self.connected
    }

    fn is_connected(&self) -> bool {
        self.connected
    }

    fn poll(&mut self, now: f64) -> Vec<Vec<u8>> {
        if self.in_outage(now) {
            self.connected = false;
        }
        let mut out = Vec::new();
        // Frames come due in delivery order regardless of connection
        // state; ones due while severed are lost, not queued.
        while self.cursor < self.frames.len() && self.frames[self.cursor].0 <= now {
            let (t, frame) = &self.frames[self.cursor];
            if self.in_outage(*t) || !self.connected {
                self.frames_lost += 1;
            } else {
                out.push(frame.clone());
            }
            self.cursor += 1;
        }
        if !self.connected {
            return Vec::new();
        }
        out
    }

    fn exhausted(&self) -> bool {
        self.cursor >= self.frames.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(n: usize) -> Vec<TagReport> {
        (0..n)
            .map(|i| TagReport {
                t: i as f64 * 0.01,
                antenna: i % 2,
                rssi_dbm: -40.0,
                phase_rad: (i as f64 * 0.1).rem_euclid(std::f64::consts::TAU),
                channel: 24,
                epc: 0xE280,
            })
            .collect()
    }

    #[test]
    fn clean_link_delivers_every_report_in_order() {
        let reports = stream(200);
        let link = SimulatedLink::from_reports(&reports, 0.05);
        let mut sup = SessionSupervisor::new(SessionConfig::default(), link);
        let mut got: Vec<TagReport> = Vec::new();
        let stats = sup.run(&mut got, 0.0, 3.0);
        assert_eq!(stats.reports_delivered, 200);
        // The LLRP wire format quantizes (µs timestamps, centi-dBm,
        // 2π/65536 phase steps): compare within wire precision.
        assert_eq!(got.len(), reports.len());
        for (a, b) in reports.iter().zip(&got) {
            assert_eq!(a.antenna, b.antenna);
            assert_eq!(a.epc, b.epc);
            assert!((a.t - b.t).abs() < 1e-6);
            assert!((a.rssi_dbm - b.rssi_dbm).abs() < 0.005 + 1e-12);
            assert!((a.phase_rad - b.phase_rad).abs() < std::f64::consts::TAU / 65536.0);
        }
        assert_eq!(stats.bad_frames, 0);
        assert!(!stats.gave_up);
        assert_eq!(stats.connects, 1);
    }

    #[test]
    fn outage_trips_watchdog_and_reconnects_within_schedule() {
        let reports = stream(400); // 4 s of stream
        let link = SimulatedLink::from_reports(&reports, 0.05).with_outage(1.0, 1.8);
        let cfg = SessionConfig { seed: 7, ..SessionConfig::default() };
        let mut sup = SessionSupervisor::new(cfg, link);
        let mut got: Vec<TagReport> = Vec::new();
        let stats = sup.run(&mut got, 0.0, 6.0);
        assert!(!stats.gave_up);
        assert!(stats.connects >= 2, "must reconnect after the outage: {stats:?}");
        // Reconnect must land within the worst-case backoff schedule of
        // the outage's end.
        let reconnect_t = sup
            .events()
            .iter()
            .filter_map(|e| match e {
                SessionEvent::Reconnected { t, .. } => Some(*t),
                _ => None,
            })
            .next_back()
            .expect("a Reconnected event");
        let budget = cfg.backoff.worst_case_total_s(cfg.max_reconnect_attempts);
        assert!(
            reconnect_t <= 1.8 + budget + cfg.t_watchdog_s,
            "reconnected at {reconnect_t}, outside the schedule"
        );
        // Reports on both sides of the outage arrive.
        assert!(got.iter().any(|r| r.t < 1.0));
        assert!(got.iter().any(|r| r.t > 2.0));
        // Reports inside it are lost, not resurrected.
        assert!(got.iter().all(|r| !(1.05..=1.75).contains(&r.t)));
    }

    #[test]
    fn garbage_frames_are_rejected_without_stopping_the_session() {
        let reports = stream(200);
        let link = SimulatedLink::from_reports(&reports, 0.05).with_garbage_every(3);
        let mut sup = SessionSupervisor::new(SessionConfig::default(), link);
        let mut got: Vec<TagReport> = Vec::new();
        let stats = sup.run(&mut got, 0.0, 3.0);
        assert!(stats.bad_frames > 0, "garbage must be seen: {stats:?}");
        assert_eq!(stats.reports_delivered, 200, "garbage must not cost real reports");
    }

    #[test]
    fn dead_port_is_flagged_and_recovery_is_logged() {
        // Port 1 silent from t=1.0 onward, recovers at 3.0.
        let reports: Vec<TagReport> = stream(400)
            .into_iter()
            .filter(|r| r.antenna == 0 || r.t < 1.0 || r.t > 3.0)
            .collect();
        let link = SimulatedLink::from_reports(&reports, 0.05);
        let mut sup = SessionSupervisor::new(SessionConfig::default(), link);
        let mut got: Vec<TagReport> = Vec::new();
        sup.run(&mut got, 0.0, 5.0);
        let dead_events: Vec<_> = sup
            .events()
            .iter()
            .filter(|e| matches!(e, SessionEvent::PortDead { antenna: 1, .. }))
            .collect();
        assert_eq!(dead_events.len(), 1, "port 1 must be flagged dead exactly once");
        assert!(
            sup.events()
                .iter()
                .any(|e| matches!(e, SessionEvent::PortRecovered { antenna: 1, .. })),
            "port 1 must recover"
        );
        assert!(!sup.degraded_single_antenna(), "recovered by end of run");
    }

    #[test]
    fn permanently_dead_port_leaves_session_in_degraded_mode() {
        let reports: Vec<TagReport> =
            stream(400).into_iter().filter(|r| r.antenna == 0 || r.t < 1.0).collect();
        let link = SimulatedLink::from_reports(&reports, 0.05);
        let mut sup = SessionSupervisor::new(SessionConfig::default(), link);
        let mut got: Vec<TagReport> = Vec::new();
        sup.run(&mut got, 0.0, 5.0);
        assert!(sup.degraded_single_antenna());
        assert_eq!(sup.dead_ports(), [false, true]);
    }

    #[test]
    fn gave_up_after_exhausting_backoff_schedule() {
        let reports = stream(400);
        // Outage that never ends within the run.
        let link = SimulatedLink::from_reports(&reports, 0.05).with_outage(1.0, 1e9);
        let cfg = SessionConfig { max_reconnect_attempts: 3, ..SessionConfig::default() };
        let mut sup = SessionSupervisor::new(cfg, link);
        let mut got: Vec<TagReport> = Vec::new();
        let stats = sup.run(&mut got, 0.0, 6.0);
        assert!(stats.gave_up);
        assert!(sup.events().iter().any(|e| matches!(e, SessionEvent::GaveUp { .. })));
    }

    #[test]
    fn panicking_sink_is_isolated() {
        struct Bomb(usize);
        impl ReportSink for Bomb {
            fn accept(&mut self, _report: &TagReport) {
                self.0 += 1;
                if self.0 == 50 {
                    panic!("sink exploded on report 50");
                }
            }
        }
        let reports = stream(200);
        let link = SimulatedLink::from_reports(&reports, 0.05);
        let mut sup = SessionSupervisor::new(SessionConfig::default(), link);
        let err = sup.run_isolated(&mut Bomb(0), 0.0, 3.0).unwrap_err();
        assert!(err.contains("report 50"));
        assert!(sup
            .events()
            .iter()
            .any(|e| matches!(e, SessionEvent::PanicIsolated { .. })));
        // The supervisor itself is still usable: a fresh session on a
        // healthy sink completes — one bad stream didn't take down the
        // "server".
        let link2 = SimulatedLink::from_reports(&reports, 0.05);
        let mut sup2 = SessionSupervisor::new(SessionConfig::default(), link2);
        let mut got: Vec<TagReport> = Vec::new();
        let stats = sup2.run(&mut got, 0.0, 3.0);
        assert_eq!(stats.reports_delivered, 200);
    }

    #[test]
    fn backoff_delays_grow_and_are_deterministic_in_seed() {
        let policy = BackoffPolicy::default();
        let mut rng_a = rng_from_seed(derive_seed(9, "session.backoff"));
        let mut rng_b = rng_from_seed(derive_seed(9, "session.backoff"));
        let a: Vec<f64> = (0..6).map(|i| policy.delay(i, &mut rng_a)).collect();
        let b: Vec<f64> = (0..6).map(|i| policy.delay(i, &mut rng_b)).collect();
        assert_eq!(a, b, "same seed, same schedule");
        // Nominal growth: each delay is within jitter of base·factor^i,
        // capped at max_s.
        for (i, d) in a.iter().enumerate() {
            let nominal = (policy.base_s * policy.factor.powi(i as i32)).min(policy.max_s);
            assert!((d - nominal).abs() <= policy.jitter_frac * nominal + 1e-12);
        }
        assert!(a[5] > a[0], "schedule must grow");
    }
}
