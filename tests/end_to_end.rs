//! Cross-crate integration tests: the full simulate → read → track →
//! recognize stack.

use experiments::setup::{run_trial, TrackerKind, TrialSetup};
use recognition::{procrustes_distance, LetterRecognizer};
use rfid_sim::llrp;

#[test]
fn full_stack_tracks_and_recognizes_a_letter() {
    let setup = TrialSetup::letter('L');
    let run = run_trial(&setup, 42);
    assert!(!run.reports.is_empty(), "the reader must produce reports");
    assert!(!run.trail.is_empty(), "the tracker must produce a trail");

    let d = procrustes_distance(&run.truth, &run.trail.points, 64)
        .expect("both trajectories are non-degenerate");
    assert!(d < 0.10, "Procrustes distance {d} m is beyond the paper's error regime");

    let rec = LetterRecognizer::new();
    assert_eq!(rec.classify(&run.trail.points), Some('L'));
}

#[test]
fn all_five_trackers_produce_plausible_trails() {
    for kind in [
        TrackerKind::PolarDraw,
        TrackerKind::PolarDrawNoPolarization,
        TrackerKind::Tagoram2,
        TrackerKind::Tagoram4,
        TrackerKind::RfIdraw4,
    ] {
        let setup = TrialSetup::letter('I').with_tracker(kind);
        let run = run_trial(&setup, 7);
        assert!(!run.trail.is_empty(), "{kind:?} produced an empty trail");
        for p in &run.trail.points {
            assert!(p.x.is_finite() && p.y.is_finite(), "{kind:?} produced non-finite points");
            assert!(
                (-1.0..=2.0).contains(&p.x) && (-1.0..=2.5).contains(&p.y),
                "{kind:?} left the room: {p:?}"
            );
        }
    }
}

#[test]
fn trial_pipeline_is_deterministic_across_runs() {
    let setup = TrialSetup::letter('Z');
    let a = run_trial(&setup, 99);
    let b = run_trial(&setup, 99);
    assert_eq!(a.reports, b.reports);
    assert_eq!(a.trail.points, b.trail.points);
}

#[test]
fn real_report_streams_round_trip_through_llrp() {
    let setup = TrialSetup::letter('C');
    let run = run_trial(&setup, 3);
    let frame = llrp::encode_report(&run.reports, 1);
    let (_, decoded) = llrp::decode_report(&frame).expect("valid frame");
    assert_eq!(decoded.len(), run.reports.len());
    for (a, b) in run.reports.iter().zip(&decoded) {
        assert_eq!(a.antenna, b.antenna);
        assert!((a.t - b.t).abs() < 1e-5);
        assert!((a.rssi_dbm - b.rssi_dbm).abs() < 0.006);
    }
}

#[test]
fn quick_track_helper_works() {
    let (truth, recovered) = polardraw_suite::quick_track("I", 1);
    assert!(!truth.is_empty());
    assert!(!recovered.is_empty());
}

#[test]
fn two_users_tracked_independently_via_epc_separation() {
    // §7's multi-user sketch, end to end: two tagged pens write at the
    // same time; the Gen2 MAC arbitrates; each stream, separated by
    // EPC, still tracks its own pen.
    use experiments::setup::{channel_for, to_tag_poses};
    use rfid_sim::TrajectoryTracker;

    let left_scene =
        pen_sim::Scene { origin: rf_core::Vec2::new(-0.25, 0.6), ..pen_sim::Scene::default() };
    let right_scene =
        pen_sim::Scene { origin: rf_core::Vec2::new(0.1, 0.6), ..pen_sim::Scene::default() };
    let profile = pen_sim::WriterProfile::natural();
    let a = pen_sim::scene::write_text(&left_scene, &profile, "I", 1);
    let b = pen_sim::scene::write_text(&right_scene, &profile, "I", 2);

    let channel = channel_for(TrackerKind::PolarDraw, 15f64.to_radians(), 0.65);
    let reader = rfid_sim::Reader::new(channel);
    let mixed = reader.inventory_multi(
        &[(0xAA, to_tag_poses(&a.poses)), (0xBB, to_tag_poses(&b.poses))],
        7,
    );
    assert!(mixed.iter().any(|r| r.epc == 0xAA));
    assert!(mixed.iter().any(|r| r.epc == 0xBB));

    for (epc, scene) in [(0xAA_u64, &left_scene), (0xBB, &right_scene)] {
        let own: Vec<rfid_sim::TagReport> =
            mixed.iter().filter(|r| r.epc == epc).copied().collect();
        let cfg = polardraw_core::PolarDrawConfig {
            start_hint: rf_core::Vec2::new(scene.origin.x + 0.07, scene.origin.y + 0.1),
            board_min: scene.origin - rf_core::Vec2::new(0.12, 0.12),
            board_max: scene.origin + rf_core::Vec2::new(0.35, 0.35),
            ..polardraw_core::PolarDrawConfig::default()
        };
        let trail = polardraw_core::PolarDraw::new(cfg).track(&own);
        assert!(!trail.is_empty(), "tag {epc:#x} must still be trackable");
        // The trail stays in its own writer's area.
        let cx: f64 =
            trail.points.iter().map(|p| p.x).sum::<f64>() / trail.points.len() as f64;
        assert!(
            (cx - scene.origin.x).abs() < 0.3,
            "tag {epc:#x} wandered to x̄ = {cx}"
        );
    }
}

#[test]
fn pen_rotation_modulates_rss_but_not_for_a_stiff_writer() {
    // End-to-end check of the core physical premise (Fig. 3(b)): pen
    // rotation sweeps the polarization mismatch and swings the RSS —
    // the information PolarDraw decodes. A stiff writer produces a far
    // flatter RSS track.
    use experiments::setup::{channel_for, to_tag_poses};
    let scene = pen_sim::Scene::default();
    let rss_spread = |gain_rad: f64, text: &str| -> f64 {
        let mut profile = pen_sim::WriterProfile::natural();
        profile.wrist.gain_rad = gain_rad;
        let session = pen_sim::scene::write_text(&scene, &profile, text, 5);
        let channel = channel_for(TrackerKind::PolarDraw, 15f64.to_radians(), 0.65);
        let reader = rfid_sim::Reader::new(channel);
        let reports = reader.inventory(&to_tag_poses(&session.poses), 5);
        let rssi: Vec<f64> =
            reports.iter().filter(|r| r.antenna == 0).map(|r| r.rssi_dbm).collect();
        rf_core::stats::std_dev(&rssi).unwrap_or(0.0)
    };
    // 'Z' has strong horizontal strokes, maximizing wrist rotation.
    let rotating = rss_spread(70f64.to_radians(), "Z");
    let stiff = rss_spread(0.0, "Z");
    assert!(
        rotating > 2.0 * stiff + 1.0,
        "rotation must swing RSS: rotating σ = {rotating:.2} dB, stiff σ = {stiff:.2} dB"
    );
}

#[test]
fn single_antenna_outage_degrades_gracefully() {
    // ISSUE 3 acceptance: a mid-trajectory single-antenna-port outage
    // must yield a finite track, a populated DegradationReport, and a
    // Procrustes distance within a stated bound of the clean run.
    use experiments::setup::polardraw_config_for;
    use polardraw_core::PolarDraw;
    use rfid_sim::faults::{FaultInjector, FaultPlan, PortOutage};

    let setup = TrialSetup::letter('L');
    let clean = run_trial(&setup, 42);

    // Antenna 1 goes silent for the middle quarter of the session.
    let plan = FaultPlan {
        outages: vec![PortOutage { antenna: 1, start_frac: 0.40, end_frac: 0.65 }],
        ..FaultPlan::identity()
    };
    let faulty_reports = FaultInjector::new(plan, 7).inject(&clean.reports);
    assert!(faulty_reports.len() < clean.reports.len(), "the outage must drop reads");

    let tracker = PolarDraw::new(polardraw_config_for(&setup));
    let out = tracker.track_with_diagnostics(&faulty_reports);

    // Finite, non-empty track.
    assert!(!out.trail.is_empty());
    for p in &out.trail.points {
        assert!(p.x.is_finite() && p.y.is_finite(), "outage produced a non-finite point");
    }

    // Populated degradation report: the outage shows up as
    // single-antenna windows, and the pipeline owns up to being
    // degraded.
    let d = &out.degradation;
    assert!(d.single_antenna_windows > 0, "outage must be visible in the report: {d:?}");
    assert!(d.is_degraded());
    assert_eq!(d.input_reports, faulty_reports.len());

    // Accuracy bound: the degraded track stays in the clean run's error
    // regime. The clean full-stack test asserts < 0.10 m; allow the
    // outage to cost at most 5 cm of Procrustes distance on top.
    let clean_d = procrustes_distance(&clean.truth, &clean.trail.points, 64)
        .expect("clean run is non-degenerate");
    let degraded_d = procrustes_distance(&clean.truth, &out.trail.points, 64)
        .expect("degraded run is non-degenerate");
    assert!(
        degraded_d < clean_d + 0.05,
        "outage cost too much accuracy: clean {clean_d:.3} m, degraded {degraded_d:.3} m"
    );
}
