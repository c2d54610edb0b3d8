//! Supervised-session recovery gates (tier-1, named in scripts/verify.sh).
//!
//! Pins the session layer's acceptance contract end to end — simulated
//! LLRP link → `SessionSupervisor` → `OnlineTracker` sink:
//!
//! 1. Under injected mid-glyph disconnects (Gilbert–Elliott presets
//!    plus a hard link outage), the session reconnects within the
//!    backoff schedule and the end-to-end Procrustes error stays within
//!    2× the clean-stream baseline — with zero panics across the
//!    derived-seed property sweep (`run_isolated` would surface one).
//! 2. A session killed mid-glyph and resumed from a checkpoint through
//!    the supervisor converges to bit-for-bit the uninterrupted
//!    supervised run.
//! 3. The hostile preset (worst sweep intensity: correlated loss, a
//!    single-port outage, aggressive reordering) plus garbage wire
//!    frames never panics and always yields a finite trail.

use experiments::setup::{polardraw_config_for, simulate_reports, TrialSetup};
use polardraw_core::{OnlineOptions, OnlineTracker, PolarDraw};
use recognition::procrustes_distance;
use rf_core::rng::derive_seed_indexed;
use rfid_sim::faults::FaultPlan;
use rfid_sim::session::{SessionConfig, SessionEvent, SessionSupervisor, SimulatedLink};
use rfid_sim::TagReport;

/// Coarse grid keeps the sweep fast; the gates here are about recovery
/// behaviour and relative error, not absolute paper-fidelity accuracy.
fn coarse_letter(ch: char) -> TrialSetup {
    TrialSetup::letter(ch).with_cell_scale(6.0)
}

fn span(reports: &[TagReport]) -> (f64, f64) {
    let lo = reports.iter().map(|r| r.t).fold(f64::INFINITY, f64::min);
    let hi = reports.iter().map(|r| r.t).fold(f64::NEG_INFINITY, f64::max);
    (lo, hi)
}

/// Drive one supervised session over `link`, tracking into a fresh
/// `OnlineTracker`, with panic isolation. Returns the supervisor (for
/// event/stat inspection) and the finalized trail points.
fn supervised_track(
    cfg: polardraw_core::PolarDrawConfig,
    link: SimulatedLink,
    session: SessionConfig,
    lag: usize,
    t_end: f64,
) -> (SessionSupervisor<SimulatedLink>, Vec<rf_core::Vec2>) {
    let mut sup = SessionSupervisor::new(session, link);
    let mut tracker = OnlineTracker::new(cfg, OnlineOptions { lag, hold: 2, ..OnlineOptions::default() });
    sup.run_isolated(&mut tracker, 0.0, t_end).expect("session must not panic");
    let out = tracker.finalize();
    (sup, out.trail.points)
}

#[test]
fn midglyph_disconnects_recover_within_2x_clean_baseline() {
    let session_cfg = SessionConfig::default();
    for (i, &ch) in ['L', 'S', 'W'].iter().enumerate() {
        for trial in 0..2u64 {
            let seed = derive_seed_indexed(0x5E55, "session.recovery", i as u64 * 10 + trial);

            // Clean-stream baseline: the batch tracker on the raw
            // (unfaulted, un-framed) stream.
            let clean_setup = coarse_letter(ch);
            let (truth, clean_reports) = simulate_reports(&clean_setup, seed);
            let cfg = polardraw_config_for(&clean_setup);
            let clean = PolarDraw::new(cfg).track_with_diagnostics(&clean_reports);
            let clean_err = procrustes_distance(&truth, &clean.trail.points, 64)
                .expect("clean baseline must produce a trail");

            // Same pen session, now through a flaky office (Gilbert–
            // Elliott bursts, duplication, reordering, clock faults) and
            // a reader link that hard-drops mid-glyph for 0.3 s.
            let mut setup = coarse_letter(ch);
            setup.faults = Some(FaultPlan::flaky_office());
            let (_, reports) = simulate_reports(&setup, seed);
            let (t_lo, t_hi) = span(&reports);
            let t_mid = 0.5 * (t_lo + t_hi);
            let link =
                SimulatedLink::from_reports(&reports, 0.05).with_outage(t_mid, t_mid + 0.3);

            // Lag 64 is the streaming default: enough hindsight that
            // losing a burst of windows costs an annulus widening, not
            // a committed wrong turn (lag 16 measurably exceeds 2× on
            // this sweep; the lag-accuracy tradeoff is the `streaming`
            // experiment's axis).
            let (sup, points) = supervised_track(cfg, link, session_cfg, 64, t_hi + 2.0);
            let stats = sup.stats();
            assert!(!stats.gave_up, "{ch}/{trial}: supervisor gave up: {stats:?}");
            assert!(stats.connects >= 2, "{ch}/{trial}: must reconnect: {stats:?}");

            // Reconnect must land within the worst-case backoff budget
            // of the outage's end (plus the watchdog time it takes to
            // notice the stall).
            let reconnect_t = sup
                .events()
                .iter()
                .filter_map(|e| match e {
                    SessionEvent::Reconnected { t, .. } => Some(*t),
                    _ => None,
                })
                .next_back()
                .expect("a Reconnected event");
            let budget = session_cfg
                .backoff
                .worst_case_total_s(session_cfg.max_reconnect_attempts);
            assert!(
                reconnect_t <= t_mid + 0.3 + session_cfg.t_watchdog_s + budget,
                "{ch}/{trial}: reconnected at {reconnect_t}, outside the schedule"
            );

            let err = procrustes_distance(&truth, &points, 64)
                .expect("supervised session must produce a trail");
            // The acceptance bound: within 2× the clean baseline. The
            // 5 mm absolute floor keeps an unusually sharp clean run on
            // a coarse grid from turning the ratio into a noise gate.
            let bound = (2.0 * clean_err).max(clean_err + 0.005);
            assert!(
                err <= bound,
                "{ch}/{trial}: supervised error {:.1} cm > bound {:.1} cm (clean {:.1} cm)",
                100.0 * err,
                100.0 * bound,
                100.0 * clean_err,
            );
        }
    }
}

#[test]
fn checkpoint_resume_through_supervisor_is_bitwise_uninterrupted() {
    let seed = derive_seed_indexed(0x5E55, "session.resume", 0);
    // The clean-lab preset: a pinned no-op, used here so the split/
    // uninterrupted comparison is about the session layer alone.
    let mut setup = coarse_letter('Z');
    setup.faults = Some(FaultPlan::clean_lab());
    let (_, reports) = simulate_reports(&setup, seed);
    let cfg = polardraw_config_for(&setup);
    let (t_lo, t_hi) = span(&reports);
    let t_end = t_hi + 1.0;
    let base_link = SimulatedLink::from_reports(&reports, 0.05);
    let options = OnlineOptions { lag: 12, hold: 2, ..OnlineOptions::default() };

    // The uninterrupted supervised run.
    let mut sup = SessionSupervisor::new(SessionConfig::default(), base_link.clone());
    let mut full = OnlineTracker::new(cfg, options);
    sup.run(&mut full, 0.0, t_end);
    let reference = full.finalize();
    assert!(!reference.trail.is_empty(), "reference run must track something");

    // Kill the session mid-glyph: run to t_cut, checkpoint the tracker
    // through JSON text, drop everything, then resume a fresh
    // supervisor + restored tracker over the rest of the wire stream.
    // `resume_after` continues exactly where the first leg's connection
    // stopped consuming (a time-based split can lose the frame whose
    // delivery instant falls between the first leg's final poll and
    // the cut time).
    let t_cut = t_lo + 0.5 * (t_hi - t_lo);
    let mut sup_a = SessionSupervisor::new(SessionConfig::default(), base_link.clone());
    let mut first_leg = OnlineTracker::new(cfg, options);
    sup_a.run(&mut first_leg, 0.0, t_cut);
    let checkpoint = first_leg.checkpoint_string();
    drop(first_leg);

    let mut resumed = OnlineTracker::restore_from_str(cfg, &checkpoint).expect("restore");
    let link_b = base_link.clone().resume_after(sup_a.link());
    drop(sup_a);
    let mut sup_b = SessionSupervisor::new(SessionConfig::default(), link_b);
    sup_b.run(&mut resumed, t_cut, t_end);
    let out = resumed.finalize();

    assert_eq!(out.trail.times.len(), reference.trail.times.len());
    for (a, b) in out.trail.points.iter().zip(&reference.trail.points) {
        assert_eq!(a.x.to_bits(), b.x.to_bits(), "resumed trail diverged");
        assert_eq!(a.y.to_bits(), b.y.to_bits(), "resumed trail diverged");
    }
    assert_eq!(out.steps, reference.steps);
    assert_eq!(out.degradation, reference.degradation);
}

#[test]
fn hostile_preset_sessions_never_panic_across_seed_sweep() {
    for trial in 0..4u64 {
        let ch = ['C', 'L', 'S', 'W'][trial as usize % 4];
        let seed = derive_seed_indexed(0x5E55, "session.hostile", trial);
        let mut setup = coarse_letter(ch);
        // The worst point of the fault sweep: heavy correlated loss, a
        // mid-stream single-port outage, strong clock/phase faults...
        setup.faults = Some(FaultPlan::hostile());
        let (_, reports) = simulate_reports(&setup, seed);
        if reports.is_empty() {
            continue; // hostile can eat everything; nothing to supervise
        }
        let (t_lo, t_hi) = span(&reports);
        let t_mid = 0.5 * (t_lo + t_hi);
        // ...plus a hard link outage and undecodable wire garbage.
        let link = SimulatedLink::from_reports(&reports, 0.05)
            .with_outage(t_mid, t_mid + 0.4)
            .with_garbage_every(4);

        let session_cfg = SessionConfig { seed, ..SessionConfig::default() };
        let (sup, points) =
            supervised_track(polardraw_config_for(&setup), link, session_cfg, 16, t_hi + 2.0);
        assert!(sup.stats().bad_frames > 0, "garbage frames must be seen and rejected");
        assert!(
            points.iter().all(|p| p.x.is_finite() && p.y.is_finite()),
            "trial {trial}: hostile session produced non-finite points"
        );
    }
}
