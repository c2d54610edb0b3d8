//! Online/batch equivalence gates (tier-1, named in scripts/verify.sh).
//!
//! Pins the tentpole contract of the streaming engine:
//!
//! 1. Batch mode IS the online engine (a wrapper with infinite lag and
//!    hold) — checked implicitly by the golden-trace suite, and here by
//!    feeding real simulated streams report-by-report.
//! 2. Fixed-lag output with lag ≥ horizon is bit-for-bit the batch
//!    trail, even while committing through a finite hold.
//! 3. Checkpoint → JSON text → restore → resume converges to
//!    bit-for-bit the uninterrupted trail at EVERY cut point (seeded
//!    property sweep).

use experiments::setup::{polardraw_config_for, simulate_reports, TrialSetup};
use polardraw_core::{OnlineOptions, OnlineTracker, PolarDraw, TrackOutput};
use rf_core::rng::derive_seed_indexed;
use rfid_sim::faults::FaultPlan;
use rfid_sim::TagReport;

fn coarse_letter(ch: char) -> TrialSetup {
    // Coarse grid keeps the sweep fast; equivalence is bit-level, so
    // fidelity does not matter here.
    TrialSetup::letter(ch).with_cell_scale(6.0)
}

fn assert_outputs_bitwise_equal(a: &TrackOutput, b: &TrackOutput, ctx: &str) {
    assert_eq!(a.trail.times.len(), b.trail.times.len(), "{ctx}: times length");
    for (x, y) in a.trail.times.iter().zip(&b.trail.times) {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: time bits");
    }
    assert_eq!(a.trail.points.len(), b.trail.points.len(), "{ctx}: points length");
    for (p, q) in a.trail.points.iter().zip(&b.trail.points) {
        assert_eq!(p.x.to_bits(), q.x.to_bits(), "{ctx}: x bits");
        assert_eq!(p.y.to_bits(), q.y.to_bits(), "{ctx}: y bits");
    }
    assert_eq!(a.steps, b.steps, "{ctx}: steps");
    assert_eq!(a.windows, b.windows, "{ctx}: windows");
    assert_eq!(a.decode_stats, b.decode_stats, "{ctx}: decode stats");
    assert_eq!(a.degradation, b.degradation, "{ctx}: degradation report");
    assert_eq!(
        a.initial_azimuth_error.to_bits(),
        b.initial_azimuth_error.to_bits(),
        "{ctx}: azimuth correction"
    );
}

#[test]
fn streaming_push_equals_batch_on_real_simulated_streams() {
    for (ch, seed) in [('L', 1u64), ('S', 2), ('W', 3)] {
        let setup = coarse_letter(ch);
        let (_, reports) = simulate_reports(&setup, seed);
        let cfg = polardraw_config_for(&setup);
        let batch = PolarDraw::new(cfg).track_with_diagnostics(&reports);

        // Report-by-report streaming with a finite hold and infinite
        // lag: windows close while the pen is still writing, yet the
        // result is the batch output bit-for-bit.
        let mut online = OnlineTracker::new(cfg, OnlineOptions { lag: usize::MAX, hold: 2, ..OnlineOptions::default() });
        for &r in &reports {
            online.push(r);
        }
        assert_eq!(online.late_reports_dropped(), 0, "clean streams drop nothing");
        assert_outputs_bitwise_equal(&online.finalize(), &batch, &format!("letter {ch}"));
    }
}

#[test]
fn fixed_lag_at_or_beyond_horizon_is_bitwise_batch() {
    let setup = coarse_letter('Z');
    let (_, reports) = simulate_reports(&setup, 11);
    let cfg = polardraw_config_for(&setup);
    let batch = PolarDraw::new(cfg).track_with_diagnostics(&reports);
    let horizon = batch.steps.len();
    assert!(horizon > 10, "stream must be long enough to be interesting");

    for lag in [horizon, horizon + 1, 4 * horizon] {
        let mut online = OnlineTracker::new(cfg, OnlineOptions { lag, hold: 2, ..OnlineOptions::default() });
        online.extend(&reports);
        assert!(
            online.committed().is_empty(),
            "lag ≥ horizon must not commit early (lag {lag})"
        );
        assert_outputs_bitwise_equal(&online.finalize(), &batch, &format!("lag {lag}"));
    }
}

#[test]
fn finite_lag_commits_early_and_stays_finite() {
    let setup = coarse_letter('C');
    let (_, reports) = simulate_reports(&setup, 4);
    let cfg = polardraw_config_for(&setup);
    let mut online = OnlineTracker::new(cfg, OnlineOptions { lag: 8, hold: 2, ..OnlineOptions::default() });
    let mut committed_mid_stream = 0;
    for &r in &reports {
        online.push(r);
        committed_mid_stream = committed_mid_stream.max(online.committed().len());
    }
    assert!(committed_mid_stream > 0, "an 8-step lag must commit during the stream");
    let out = online.finalize();
    assert!(out.trail.len() >= committed_mid_stream);
    assert!(out.trail.points.iter().all(|p| p.x.is_finite() && p.y.is_finite()));
}

/// Satellite: the checkpoint/restore property sweep. Streams include
/// unsorted/duplicated adversarial input (flaky-office faults) so the
/// carry state being checkpointed is non-trivial.
#[test]
fn checkpoint_restore_resume_is_bitwise_at_every_cut_point() {
    // A synthetic clean stream swept at EVERY report boundary...
    let cfg_setup = coarse_letter('L');
    let cfg = polardraw_config_for(&cfg_setup);
    let synthetic: Vec<TagReport> = (0..150)
        .map(|i| TagReport {
            t: i as f64 * 0.01,
            antenna: i % 2,
            rssi_dbm: -40.0,
            phase_rad: (4.0 * std::f64::consts::PI * 0.06 * (i as f64 * 0.01) / 0.3276 + 1.0)
                .rem_euclid(std::f64::consts::TAU),
            channel: 24,
            epc: 1,
        })
        .collect();
    sweep_cuts(cfg, &synthetic, OnlineOptions { lag: 6, hold: 1, ..OnlineOptions::default() }, 1, "synthetic");

    // ...and real fault-injected letter streams at strided cut points,
    // across derived seeds.
    for trial in 0..3u64 {
        let mut setup = coarse_letter('S');
        setup.faults = Some(FaultPlan::flaky_office());
        let seed = derive_seed_indexed(0xC0FFEE, "ckpt.trial", trial);
        let (_, reports) = simulate_reports(&setup, seed);
        let cfg = polardraw_config_for(&setup);
        sweep_cuts(
            cfg,
            &reports,
            OnlineOptions { lag: 12, hold: 2, ..OnlineOptions::default() },
            reports.len() / 23 + 1,
            &format!("trial {trial}"),
        );
    }
}

fn sweep_cuts(
    cfg: polardraw_core::PolarDrawConfig,
    reports: &[TagReport],
    options: OnlineOptions,
    stride: usize,
    ctx: &str,
) {
    // The uninterrupted reference.
    let mut straight = OnlineTracker::new(cfg, options);
    straight.extend(reports);
    let reference = straight.finalize();

    for cut in (0..=reports.len()).step_by(stride) {
        let mut first = OnlineTracker::new(cfg, options);
        first.extend(&reports[..cut]);
        // Serialize through actual JSON text, not just the in-memory
        // value: the wire format is part of the contract.
        let text = first.checkpoint_string();
        drop(first);
        let mut resumed = OnlineTracker::restore_from_str(cfg, &text)
            .unwrap_or_else(|e| panic!("{ctx}: restore at cut {cut}: {e}"));
        resumed.extend(&reports[cut..]);
        assert_outputs_bitwise_equal(
            &resumed.finalize(),
            &reference,
            &format!("{ctx}, cut {cut}"),
        );
    }
}

#[test]
fn restore_rejects_tampered_and_mismatched_checkpoints() {
    let setup = coarse_letter('C');
    let (_, reports) = simulate_reports(&setup, 9);
    let cfg = polardraw_config_for(&setup);
    let mut online = OnlineTracker::new(cfg, OnlineOptions::default());
    online.extend(&reports[..reports.len() / 2]);
    let text = online.checkpoint_string();

    // A different configuration must be refused (fingerprint check).
    let mut other = cfg;
    other.hmm.wavelength_m = 0.5;
    assert!(OnlineTracker::restore_from_str(other, &text).is_err());

    // Garbage and wrong-format documents error instead of panicking.
    assert!(OnlineTracker::restore_from_str(cfg, "not json").is_err());
    assert!(OnlineTracker::restore_from_str(cfg, "{\"format\": \"bogus.v0\"}").is_err());
}
