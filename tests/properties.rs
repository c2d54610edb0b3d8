//! Property tests over the workspace's core invariants, run as
//! deterministic seeded sweeps.
//!
//! Each property draws its cases from `derive_seed_indexed(BASE_SEED,
//! label, i)`, so every case is reproducible from the (label, index)
//! pair printed in a failing assertion — no shrinker needed, no
//! external property-testing crate, and the exact same inputs on every
//! machine and every run.

use recognition::procrustes::align;
use recognition::resample::{prepare, resample};
use rf_core::angle::{phase_diff, unwrap_phases, wrap_pi, wrap_tau};
use rf_core::rng::{derive_seed_indexed, Rng64};
use rf_core::{Mat2, Vec2, Vec3};
use rf_physics::RigFactors;
use rfid_sim::llrp;
use rfid_sim::TagReport;
use std::f64::consts::{PI, TAU};

/// Root seed for every sweep in this file.
const BASE_SEED: u64 = 42;

/// Standard case count for cheap properties (the ISSUE floor).
const CASES: usize = 256;

/// Run `body` once per derived-seed case. The `ctx` string handed to
/// the body names the property, the case index, and the seed — include
/// it in every assertion message so a failure pinpoints its input.
fn sweep<F: FnMut(&mut Rng64, &str)>(label: &str, cases: usize, mut body: F) {
    for i in 0..cases {
        let seed = derive_seed_indexed(BASE_SEED, label, i as u64);
        let mut rng = Rng64::from_seed(seed);
        let ctx = format!("{label} case {i} (seed {seed:#018x})");
        body(&mut rng, &ctx);
    }
}

fn random_points(rng: &mut Rng64, n: usize, lo: f64, hi: f64) -> Vec<Vec2> {
    (0..n).map(|_| Vec2::new(rng.gen_range(lo..hi), rng.gen_range(lo..hi))).collect()
}

#[test]
fn wrap_tau_round_trips_the_circle() {
    sweep("wrap_tau", CASES, |rng, ctx| {
        let a = rng.gen_range(-1e6..1e6);
        let w = wrap_tau(a);
        assert!((0.0..TAU).contains(&w), "{ctx}: wrap_tau({a}) = {w} out of [0, τ)");
        // Same point on the circle.
        assert!((w.sin() - a.sin()).abs() < 1e-6, "{ctx}: sin mismatch for a={a}");
        assert!((w.cos() - a.cos()).abs() < 1e-6, "{ctx}: cos mismatch for a={a}");
    });
}

#[test]
fn wrap_pi_round_trips_the_circle() {
    sweep("wrap_pi", CASES, |rng, ctx| {
        let a = rng.gen_range(-1e6..1e6);
        let w = wrap_pi(a);
        assert!((-PI..=PI).contains(&w), "{ctx}: wrap_pi({a}) = {w} out of [-π, π]");
        assert!((w.sin() - a.sin()).abs() < 1e-6, "{ctx}: sin mismatch for a={a}");
        assert!((w.cos() - a.cos()).abs() < 1e-6, "{ctx}: cos mismatch for a={a}");
    });
}

#[test]
fn phase_diff_is_antisymmetric_on_the_circle() {
    sweep("phase_diff_antisym", CASES, |rng, ctx| {
        let a = rng.gen_range(0.0..TAU);
        let b = rng.gen_range(0.0..TAU);
        let d1 = phase_diff(a, b);
        let d2 = phase_diff(b, a);
        // Antisymmetric except at the ±π branch point.
        if d1.abs() < PI - 1e-9 {
            assert!((d1 + d2).abs() < 1e-9, "{ctx}: a={a} b={b} d1={d1} d2={d2}");
        }
    });
}

#[test]
fn unwrap_preserves_circle_positions() {
    sweep("unwrap_phases", CASES, |rng, ctx| {
        let n = 1 + rng.gen_index(80);
        let phases: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..TAU)).collect();
        let unwrapped = unwrap_phases(&phases);
        assert_eq!(unwrapped.len(), phases.len(), "{ctx}: length changed");
        for (u, p) in unwrapped.iter().zip(&phases) {
            assert!(
                (wrap_tau(*u) - wrap_tau(*p)).abs() < 1e-9,
                "{ctx}: circle position moved: {u} vs {p}"
            );
        }
        // Adjacent steps never exceed π in magnitude.
        for w in unwrapped.windows(2) {
            assert!((w[1] - w[0]).abs() <= PI + 1e-9, "{ctx}: step {} → {}", w[0], w[1]);
        }
    });
}

#[test]
fn rotation_matrices_preserve_length() {
    sweep("rotation_isometry", CASES, |rng, ctx| {
        let angle = rng.gen_range(-10.0..10.0);
        let v = Vec2::new(rng.gen_range(-5.0..5.0), rng.gen_range(-5.0..5.0));
        let r = Mat2::rotation(angle).apply(v);
        assert!(
            (r.norm() - v.norm()).abs() < 1e-9,
            "{ctx}: |Rv|={} but |v|={} (angle {angle})",
            r.norm(),
            v.norm()
        );
    });
}

#[test]
fn vec3_rejection_is_orthogonal() {
    sweep("vec3_rejection", CASES, |rng, ctx| {
        let v = Vec3::new(
            rng.gen_range(-3.0..3.0),
            rng.gen_range(-3.0..3.0),
            rng.gen_range(-3.0..3.0),
        );
        let raw_axis = Vec3::new(
            rng.gen_range(-1.0..1.0),
            rng.gen_range(-1.0..1.0),
            rng.gen_range(-1.0..1.0),
        );
        if let Some(axis) = raw_axis.normalized() {
            let r = v.reject_from(axis);
            assert!(r.dot(axis).abs() < 1e-9, "{ctx}: rejection not orthogonal: {}", r.dot(axis));
        }
    });
}

#[test]
fn resample_preserves_endpoints_and_count() {
    sweep("resample", CASES, |rng, ctx| {
        let count = 2 + rng.gen_index(28);
        let pts = random_points(rng, count, -1.0, 1.0);
        let n = 2 + rng.gen_index(98);
        let length: f64 = pts.windows(2).map(|w| w[0].distance(w[1])).sum();
        if length <= 1e-6 {
            return; // degenerate polyline: out of scope for this property
        }
        let rs = resample(&pts, n).unwrap_or_else(|| panic!("{ctx}: resample returned None"));
        assert_eq!(rs.len(), n, "{ctx}: wrong count");
        assert!(rs[0].distance(pts[0]) < 1e-9, "{ctx}: start moved");
        assert!(rs[n - 1].distance(*pts.last().unwrap()) < 1e-6, "{ctx}: end moved");
    });
}

#[test]
fn procrustes_removes_any_similarity_transform() {
    sweep("procrustes_invariance", CASES, |rng, ctx| {
        let count = 4 + rng.gen_index(16);
        let pts = random_points(rng, count, -1.0, 1.0);
        let angle = rng.gen_range(-3.0..3.0);
        let scale = rng.gen_range(0.2..4.0);
        let shift = Vec2::new(rng.gen_range(-2.0..2.0), rng.gen_range(-2.0..2.0));
        // Need genuine 2-D extent for a well-posed alignment.
        if prepare(&pts, 16).is_none() {
            return;
        }
        let rot = Mat2::rotation(angle);
        let moved: Vec<Vec2> = pts.iter().map(|&p| rot.apply(p) * scale + shift).collect();
        let a = align(&pts, &moved, f64::INFINITY)
            .unwrap_or_else(|| panic!("{ctx}: alignment failed"));
        assert!(
            a.rms_residual < 1e-6,
            "{ctx}: residual {} after rot {angle}, scale {scale}",
            a.rms_residual
        );
    });
}

#[test]
fn llrp_round_trips_arbitrary_reports() {
    // Frame encode/decode over a full inventory is comparatively heavy;
    // 64 sweeps × up to 40 reports still covers the packing edge cases.
    sweep("llrp_round_trip", 64, |rng, ctx| {
        let n = rng.gen_index(41);
        let reports: Vec<TagReport> = (0..n)
            .map(|_| TagReport {
                t: rng.gen_range(0.0..1000.0),
                antenna: rng.gen_index(4),
                rssi_dbm: rng.gen_range(-90.0..0.0),
                phase_rad: rng.gen_range(0.0..TAU),
                channel: rng.gen_index(50),
                epc: rng.next_u64(),
            })
            .collect();
        let frame = llrp::encode_report(&reports, 9);
        let (id, decoded) =
            llrp::decode_report(&frame).unwrap_or_else(|e| panic!("{ctx}: decode failed: {e:?}"));
        assert_eq!(id, 9, "{ctx}: antenna id changed");
        assert_eq!(decoded.len(), reports.len(), "{ctx}: report count changed");
        for (a, b) in reports.iter().zip(&decoded) {
            assert_eq!(a.antenna, b.antenna, "{ctx}");
            assert_eq!(a.channel, b.channel, "{ctx}");
            assert_eq!(a.epc, b.epc, "{ctx}");
            assert!((a.t - b.t).abs() < 1e-5, "{ctx}: t {} vs {}", a.t, b.t);
            assert!(
                (a.rssi_dbm - b.rssi_dbm).abs() <= 0.005 + 1e-9,
                "{ctx}: rssi {} vs {}",
                a.rssi_dbm,
                b.rssi_dbm
            );
            assert!(
                rf_core::angle::phase_distance(a.phase_rad, b.phase_rad)
                    <= TAU / 65536.0 + 1e-9,
                "{ctx}: phase {} vs {}",
                a.phase_rad,
                b.phase_rad
            );
        }
    });
}

#[test]
fn polarization_coupling_is_bounded() {
    sweep("coupling_bounded", CASES, |rng, ctx| {
        let pos = Vec3::new(
            rng.gen_range(-1.0..1.0),
            rng.gen_range(-1.0..1.0),
            rng.gen_range(0.1..2.0),
        );
        let dipole = Vec3::new(
            rng.gen_range(-1.0..1.0),
            rng.gen_range(-1.0..1.0),
            rng.gen_range(-1.0..1.0),
        );
        let pol = rng.gen_range(0.0..TAU);
        let axis = Vec3::new(pol.cos(), pol.sin(), 0.0);
        let c = rf_physics::polarization::coupling(pos, axis, Vec3::ZERO, dipole);
        assert!((-1.0..=1.0).contains(&c), "{ctx}: coupling {c}");
    });
}

#[test]
fn free_space_phase_advances_with_range() {
    // Eq. 5: phase grows at 4π/λ per metre of range — so it is strictly
    // monotone in distance over any sub-half-wavelength step, and the
    // slope matches the closed form.
    sweep("phase_vs_range", CASES, |rng, ctx| {
        use rf_physics::antenna::Antenna;
        let x = rng.gen_range(-0.3..0.3);
        let y = rng.gen_range(0.4..0.9);
        let step_mm = rng.gen_range(0.5..3.0);
        let ant = Antenna::linear(Vec3::new(0.0, 0.15, 0.65), -Vec3::Z, Vec3::X);
        let ant_pos = ant.position;
        let ch = rf_physics::ChannelModel::free_space(vec![ant]);
        let lambda = ch.plan.wavelength_at(0.0);
        let ch = RigFactors::freeze(&ch);
        let p1 = Vec3::new(x, y, 0.0);
        let dir = (p1 - ant_pos).normalized().unwrap();
        let p2 = p1 + dir * (step_mm / 1000.0);
        let o1 = ch.evaluate(0, p1, Vec3::X, 0.0);
        let o2 = ch.evaluate(0, p2, Vec3::X, 0.0);
        if !(o1.tag_powered && o2.tag_powered) {
            return;
        }
        let d_true = p2.distance(ant_pos) - p1.distance(ant_pos);
        let expect = 4.0 * PI * d_true / lambda;
        let measured = phase_diff(o2.phase_rad, o1.phase_rad);
        assert!(measured > 0.0, "{ctx}: phase did not advance with range ({measured})");
        assert!(
            (measured - expect).abs() < 1e-6,
            "{ctx}: measured {measured} expected {expect}"
        );
    });
}

#[test]
fn free_space_rss_is_monotone_in_mismatch() {
    sweep("rss_monotone_mismatch", CASES, |rng, ctx| {
        // Broadside free space: larger polarization mismatch, lower RSS.
        use rf_physics::antenna::Antenna;
        let b1 = rng.gen_range(0.0..1.45);
        let b2 = rng.gen_range(0.0..1.45);
        let ant = Antenna::linear(Vec3::new(0.0, 0.0, 1.0), -Vec3::Z, Vec3::X);
        let ch = RigFactors::freeze(&rf_physics::ChannelModel::free_space(vec![ant]));
        let rss =
            |b: f64| ch.evaluate(0, Vec3::ZERO, Vec3::new(b.cos(), b.sin(), 0.0), 0.0).rx_power_dbm;
        let (lo, hi) = (b1.min(b2), b1.max(b2));
        if hi - lo <= 1e-3 {
            return;
        }
        assert!(rss(lo) >= rss(hi) - 1e-9, "{ctx}: β {lo} vs {hi}");
    });
}

#[test]
fn mismatch_loss_is_symmetric_in_beta() {
    // The cos²β mismatch factor (Eq. 2) only sees the angle *between*
    // dipole and antenna polarization: flipping the sign of β or adding
    // π to it must not change the received power.
    sweep("cos2_beta_symmetry", CASES, |rng, ctx| {
        use rf_physics::antenna::Antenna;
        let beta = rng.gen_range(-1.45..1.45);
        let ant = Antenna::linear(Vec3::new(0.0, 0.0, 1.0), -Vec3::Z, Vec3::X);
        let ch = RigFactors::freeze(&rf_physics::ChannelModel::free_space(vec![ant]));
        let rss =
            |b: f64| ch.evaluate(0, Vec3::ZERO, Vec3::new(b.cos(), b.sin(), 0.0), 0.0).rx_power_dbm;
        let direct = rss(beta);
        let mirrored = rss(-beta);
        let flipped = rss(beta + PI);
        assert!(
            (direct - mirrored).abs() < 1e-9,
            "{ctx}: rss({beta}) = {direct} but rss({}) = {mirrored}",
            -beta
        );
        assert!(
            (direct - flipped).abs() < 1e-9,
            "{ctx}: rss({beta}) = {direct} but rss(β+π) = {flipped}"
        );
    });
}

#[test]
fn reader_quantization_is_idempotent() {
    sweep("quantization_idempotent", CASES, |rng, ctx| {
        use rfid_sim::reader::{quantize_phase, quantize_rssi};
        let rssi = rng.gen_range(-90.0..-10.0);
        let phase = rng.gen_range(0.0..TAU);
        let r1 = quantize_rssi(rssi, 0.5);
        assert_eq!(quantize_rssi(r1, 0.5), r1, "{ctx}: rssi {rssi}");
        let p1 = quantize_phase(phase, 12);
        assert!((quantize_phase(p1, 12) - p1).abs() < 1e-12, "{ctx}: phase {phase}");
    });
}

#[test]
fn kalman_smoother_preserves_length_and_stability() {
    // The RTS smoother over a 60-point track is the most expensive body
    // here; 64 sweeps keep the test fast while varying track length.
    sweep("kalman_smoother", 64, |rng, ctx| {
        use polardraw_core::smoother::smooth;
        let n = 3 + rng.gen_index(57);
        let points: Vec<Vec2> = (0..n)
            .map(|_| Vec2::new(rng.gen_range(-0.3..0.3), rng.gen_range(0.4..0.9)))
            .collect();
        let times: Vec<f64> = (0..points.len()).map(|i| i as f64 * 0.05).collect();
        let out = smooth(&times, &points);
        assert_eq!(out.len(), points.len(), "{ctx}: length changed");
        // Smoothed points stay within the measurement cloud's bounding
        // box padded by a few sigmas — no runaway filter states.
        let (mut x0, mut x1, mut y0, mut y1) = (f64::MAX, f64::MIN, f64::MAX, f64::MIN);
        for p in &points {
            x0 = x0.min(p.x);
            x1 = x1.max(p.x);
            y0 = y0.min(p.y);
            y1 = y1.max(p.y);
        }
        for p in &out {
            assert!(
                p.x >= x0 - 0.05 && p.x <= x1 + 0.05 && p.y >= y0 - 0.05 && p.y <= y1 + 0.05,
                "{ctx}: smoothed point {:?} left the padded bounding box",
                (p.x, p.y)
            );
            assert!(p.x.is_finite() && p.y.is_finite(), "{ctx}: non-finite output");
        }
    });
}

#[test]
fn glyph_rendering_is_total_over_ascii_words() {
    // Rendering a full word through the wrist model costs ~ms per case;
    // 32 sweeps of up to 6 letters still hit every glyph repeatedly.
    sweep("glyph_total", 32, |rng, ctx| {
        let len = 1 + rng.gen_index(6);
        let word: String = (0..len).map(|_| (b'A' + rng.gen_index(26) as u8) as char).collect();
        let s = pen_sim::scene::write_text(
            &pen_sim::Scene::default(),
            &pen_sim::WriterProfile::natural(),
            &word,
            3,
        );
        assert!(!s.poses.is_empty(), "{ctx}: empty session for {word:?}");
        for p in &s.poses {
            assert!(
                p.tip.x.is_finite() && p.tip.y.is_finite(),
                "{ctx}: non-finite tip in {word:?}"
            );
            assert!(
                (p.dipole.norm() - 1.0).abs() < 1e-9,
                "{ctx}: non-unit dipole in {word:?}"
            );
        }
    });
}

#[test]
fn feasible_region_is_monotone_in_phase() {
    sweep("feasible_region_monotone", CASES, |rng, ctx| {
        let d1 = rng.gen_range(0.0..3.0);
        let d2 = rng.gen_range(0.0..3.0);
        let lambda = polardraw_core::hmm::HmmConfig::default().wavelength_m;
        let small =
            polardraw_core::distance::feasible_region([Some(d1.min(d2)), None], 0.05, lambda);
        let large =
            polardraw_core::distance::feasible_region([Some(d1.max(d2)), None], 0.05, lambda);
        assert!(
            small.min_dist <= large.min_dist + 1e-12,
            "{ctx}: d {} vs {} gave min_dist {} vs {}",
            d1.min(d2),
            d1.max(d2),
            small.min_dist,
            large.min_dist
        );
    });
}

// ---------------------------------------------------------------------
// Adversarial report streams (ISSUE 3): the hardened preprocess and the
// full tracker must survive reordering, duplication, out-of-range
// antenna ports, and empty gaps — no panics, monotone window times,
// and read counts conserved.
// ---------------------------------------------------------------------

/// A synthetic plausible-but-random report stream: ~100 Hz, a smooth
/// phase walk per antenna, occasional reports from ports ≥ 2.
fn random_stream(rng: &mut Rng64, n: usize) -> Vec<TagReport> {
    let mut phases = [rng.gen_range(0.0..TAU), rng.gen_range(0.0..TAU)];
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        // 1 in 16 reports comes from a port the 2-antenna pipeline must
        // ignore (a mis-wired rig or a second reader on the wire).
        let antenna = if rng.gen_bool(1.0 / 16.0) { 2 + rng.gen_index(2) } else { i % 2 };
        if antenna < 2 {
            phases[antenna] = wrap_tau(phases[antenna] + rng.gen_range(-0.08..0.08));
        }
        out.push(TagReport {
            t: i as f64 * 0.01 + rng.gen_range(0.0..0.002),
            antenna,
            rssi_dbm: -45.0 + rng.gen_range(-8.0..8.0),
            phase_rad: if antenna < 2 { phases[antenna] } else { rng.gen_range(0.0..TAU) },
            channel: rng.gen_index(50),
            epc: 0xE280_1160_6000_0001,
        });
    }
    out
}

/// Carve a random interior gap (total outage) out of a stream.
fn carve_gap(rng: &mut Rng64, reports: &mut Vec<TagReport>) {
    if reports.len() < 20 {
        return;
    }
    let start = 5 + rng.gen_index(reports.len() / 2);
    let len = 5 + rng.gen_index(reports.len() / 4);
    let end = (start + len).min(reports.len() - 5);
    reports.drain(start..end);
}

/// One `adversarial_preprocess` case: a random stream with a carved
/// gap, then duplicated and reordered by the fault injector.
fn adversarial_preprocess_stream(rng: &mut Rng64) -> Vec<TagReport> {
    use rfid_sim::faults::{Duplication, FaultInjector, FaultPlan, Reordering};

    let n = 60 + rng.gen_index(240);
    let mut reports = random_stream(rng, n);
    carve_gap(rng, &mut reports);
    let plan = FaultPlan {
        duplication: Some(Duplication {
            p_duplicate: rng.gen_range(0.0..0.3),
            max_copies: 1 + rng.gen_index(3),
        }),
        reordering: Some(Reordering {
            p_displace: rng.gen_range(0.0..0.5),
            max_shift_s: rng.gen_range(0.005..0.08),
        }),
        ..FaultPlan::identity()
    };
    FaultInjector::new(plan, rng.next_u64()).inject(&reports)
}

#[test]
fn adversarial_streams_preprocess_cleanly() {
    use polardraw_core::preprocess::{preprocess_with_stats, PreprocessConfig};

    sweep("adversarial_preprocess", 128, |rng, ctx| {
        let injected = adversarial_preprocess_stream(rng);

        let cfg = PreprocessConfig::default();
        let (windows, stats) = preprocess_with_stats(&injected, &cfg);

        // Window times strictly monotone.
        for w in windows.windows(2) {
            assert!(w[0].t < w[1].t, "{ctx}: window times not monotone");
        }
        // Reads conserved: every injected antenna<2 report lands in
        // exactly one window, minus the exact duplicates preprocess
        // removes. Duplicates are exact copies adjacent after the stable
        // sort (timestamps are untouched by reordering), so the expected
        // count is the sorted-adjacent-unique count.
        let mut sorted = injected.clone();
        sorted.sort_by(|a, b| a.t.total_cmp(&b.t));
        let mut expected = 0usize;
        for (i, r) in sorted.iter().enumerate() {
            if r.antenna < 2 && (i == 0 || sorted[i - 1] != *r) {
                expected += 1;
            }
        }
        let total_reads: usize = windows.iter().map(|w| w.reads[0] + w.reads[1]).sum();
        assert_eq!(total_reads, expected, "{ctx}: reads not conserved");
        assert_eq!(
            stats.ignored_ports,
            sorted.len() - stats.duplicates_removed
                - windows.iter().map(|w| w.reads[0] + w.reads[1]).sum::<usize>(),
            "{ctx}: ignored-port accounting inconsistent"
        );
    });
}

// ---------------------------------------------------------------------
// The windowing pin: `preprocess_with_stats` against
// `tests/snapshots/preprocess_windows.json`, bit for bit. Recorded
// from the batch windowing loop before it was folded into the online
// engine's windower; never regenerated.
// ---------------------------------------------------------------------

fn report_at(t: f64, antenna: usize, rssi_dbm: f64, phase_rad: f64) -> TagReport {
    TagReport { t, antenna, rssi_dbm, phase_rad, channel: 7, epc: 0xE280_1160_6000_0001 }
}

/// The pinned edge cases: no reports, one report, only reports from
/// ports the two-antenna pipeline ignores, and a burst that shares one
/// timestamp (including an exact duplicate and a wrap-straddling pair).
fn preprocess_edge_streams() -> Vec<(&'static str, Vec<TagReport>)> {
    let same_t = 1.234;
    vec![
        ("edge/empty", Vec::new()),
        ("edge/single", vec![report_at(0.5, 1, -47.25, 2.5)]),
        (
            "edge/extra_ports_only",
            (0..6).map(|i| report_at(0.013 * i as f64, 2 + i % 2, -40.0, 0.3 * i as f64)).collect(),
        ),
        (
            "edge/same_timestamp",
            vec![
                report_at(same_t, 0, -41.0, 0.1),
                report_at(same_t, 1, -52.5, 3.0),
                report_at(same_t, 0, -43.0, TAU - 0.1),
                report_at(same_t, 1, -52.5, 3.0),
                report_at(same_t, 2, -30.0, 1.0),
                report_at(same_t, 1, -50.0, 3.1),
            ],
        ),
    ]
}

fn stats_json(s: &polardraw_core::preprocess::PreprocessStats) -> rf_core::Json {
    use rf_core::Json;
    let n = |x: usize| Json::num(x as f64);
    Json::obj([
        ("input_reports", n(s.input_reports)),
        ("input_unsorted", Json::Bool(s.input_unsorted)),
        ("duplicates_removed", n(s.duplicates_removed)),
        ("ignored_ports", n(s.ignored_ports)),
        ("windows", n(s.windows)),
        ("empty_windows", n(s.empty_windows)),
        ("single_antenna_windows", n(s.single_antenna_windows)),
        ("spurious_rejected", n(s.spurious_rejected)),
        ("largest_empty_run", n(s.largest_empty_run)),
    ])
}

/// One window, every field: shortest round-trip numbers, `None` as
/// null.
fn window_json(w: &polardraw_core::preprocess::Windowed) -> String {
    use rf_core::json::ToJson;
    use rf_core::Json;
    let pair = |v: [Option<f64>; 2]| Json::arr(v, |x| x.to_json());
    Json::obj([
        ("t", Json::num(w.t)),
        ("rssi", pair(w.rssi)),
        ("phase", pair(w.phase)),
        ("reads", Json::arr(w.reads, |n| Json::num(n as f64))),
        ("empty", Json::Bool(w.flags.empty)),
        ("single_antenna", Json::Bool(w.flags.single_antenna)),
        ("spurious", Json::arr(w.flags.spurious, Json::Bool)),
    ])
    .to_json_string()
}

/// CRC-32 over every field's bit pattern, window by window.
fn windows_crc(windows: &[polardraw_core::preprocess::Windowed]) -> u32 {
    let mut bytes = Vec::new();
    for w in windows {
        bytes.extend_from_slice(&w.t.to_bits().to_le_bytes());
        for ant in 0..2 {
            for v in [w.rssi[ant], w.phase[ant]] {
                bytes.push(u8::from(v.is_some()));
                bytes.extend_from_slice(&v.map_or(0, f64::to_bits).to_le_bytes());
            }
            bytes.extend_from_slice(&(w.reads[ant] as u64).to_le_bytes());
            bytes.push(u8::from(w.flags.spurious[ant]));
        }
        bytes.push(u8::from(w.flags.empty));
        bytes.push(u8::from(w.flags.single_antenna));
    }
    rf_core::crc::crc32(&bytes)
}

/// Every pinned stream: the 128 `adversarial_preprocess` cases (pinned
/// by CRC), then two clean simulated letters, the fig09 azimuth sweep
/// and the edge cases (pinned in full). The flag says "in full".
fn preprocess_pin_streams() -> Vec<(String, Vec<TagReport>, bool)> {
    use experiments::setup::{simulate_reports, TrialSetup};

    let mut out = Vec::new();
    sweep("adversarial_preprocess", 128, |rng, _| {
        out.push((format!("adversarial/{}", out.len()), adversarial_preprocess_stream(rng), false));
    });
    for (ch, seed) in [('L', 7u64), ('S', 11)] {
        let (_, reports) = simulate_reports(&TrialSetup::letter(ch), seed);
        out.push((format!("letter/{ch}/seed{seed}"), reports, true));
    }
    out.push(("fig09/sweep/seed42".to_string(), experiments::exp::fig09::sweep_stream(42).1, true));
    for (name, reports) in preprocess_edge_streams() {
        out.push((name.to_string(), reports, true));
    }
    out
}

/// Render every pinned stream's windows and stats, one window (or one
/// CRC'd stream) per line.
fn preprocess_windows_document() -> String {
    use polardraw_core::preprocess::{preprocess_with_stats, PreprocessConfig};
    use rf_core::Json;

    let cfg = PreprocessConfig::default();
    let cases = preprocess_pin_streams();
    let mut out = String::from("{\"format\":\"polardraw.preprocess_windows.v1\",\"cases\":[\n");
    for (ci, (name, reports, full)) in cases.iter().enumerate() {
        let (windows, stats) = preprocess_with_stats(reports, &cfg);
        let head = format!(
            "{{\"name\":{},\"stats\":{}",
            Json::str(name.as_str()).to_json_string(),
            stats_json(&stats).to_json_string()
        );
        if *full {
            out.push_str(&head);
            out.push_str(",\"windows\":[\n");
            for (wi, w) in windows.iter().enumerate() {
                out.push_str(&window_json(w));
                out.push_str(if wi + 1 < windows.len() { ",\n" } else { "\n" });
            }
            out.push_str("]}");
        } else {
            out.push_str(&format!("{head},\"windows_crc\":{}}}", windows_crc(&windows)));
        }
        out.push_str(if ci + 1 < cases.len() { ",\n" } else { "\n" });
    }
    out.push_str("]}\n");
    out
}

/// `preprocess_with_stats` reproduces the pinned windows and counters
/// bit for bit on every pinned stream, and on the fully pinned clean
/// streams the batch-equivalent online tracker closes the same windows
/// and reports the same pre-processing census.
#[test]
fn preprocess_windows_match_the_pinned_snapshot() {
    use experiments::setup::{polardraw_config_for, simulate_reports, TrialSetup};
    use polardraw_core::preprocess::{preprocess_with_stats, PreprocessConfig};
    use polardraw_core::OnlineTracker;

    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/snapshots/preprocess_windows.json");
    let expected = std::fs::read_to_string(path).expect("committed windowing snapshot");
    let actual = preprocess_windows_document();
    let mut case = "";
    for (line, (want, got)) in expected.lines().zip(actual.lines()).enumerate() {
        if want.starts_with("{\"name\"") {
            case = want;
        }
        assert_eq!(want, got, "windowing snapshot drifted at line {} ({case})", line + 1);
    }
    assert_eq!(expected.lines().count(), actual.lines().count(), "window count drifted");

    let cfg = PreprocessConfig::default();
    let mut streams: Vec<(String, Vec<TagReport>, polardraw_core::PolarDrawConfig)> = Vec::new();
    // Coarse grids keep the decodes cheap; windowing never sees the grid.
    let config_for = |ch: char| polardraw_config_for(&TrialSetup::letter(ch).with_cell_scale(8.0));
    for (ch, seed) in [('L', 7u64), ('S', 11)] {
        let reports = simulate_reports(&TrialSetup::letter(ch), seed).1;
        streams.push((format!("letter {ch}"), reports, config_for(ch)));
    }
    streams.push(("fig09 sweep".into(), experiments::exp::fig09::sweep_stream(42).1, config_for('L')));
    for (name, reports, config) in streams {
        let (windows, stats) = preprocess_with_stats(&reports, &cfg);
        let mut online = OnlineTracker::batch(config);
        online.extend(&reports);
        let out = online.finalize();
        let render = |ws: &[polardraw_core::preprocess::Windowed]| {
            ws.iter().map(window_json).collect::<Vec<_>>()
        };
        assert_eq!(render(&out.windows), render(&windows), "{name}: online windows differ");
        let d = out.degradation;
        assert_eq!(
            (d.input_reports, d.input_unsorted, d.duplicates_removed, d.windows),
            (stats.input_reports, stats.input_unsorted, stats.duplicates_removed, stats.windows),
            "{name}: online stream census differs"
        );
        assert_eq!(
            (d.empty_windows, d.single_antenna_windows, d.spurious_rejected),
            (stats.empty_windows, stats.single_antenna_windows, stats.spurious_rejected),
            "{name}: online window census differs"
        );
    }
}

#[test]
fn adversarial_streams_track_without_panicking() {
    use polardraw_core::{PolarDraw, PolarDrawConfig};
    use rfid_sim::faults::{FaultInjector, FaultPlan};

    // Full pipeline on composite-fault streams. Fewer cases and a
    // coarse grid: each case runs a whole Viterbi decode.
    sweep("adversarial_track", 48, |rng, ctx| {
        let n = 120 + rng.gen_index(200);
        let mut reports = random_stream(rng, n);
        carve_gap(rng, &mut reports);
        let intensity = rng.gen_range(0.0..1.0);
        let injected =
            FaultInjector::new(FaultPlan::at_intensity(intensity), rng.next_u64()).inject(&reports);

        let mut cfg = PolarDrawConfig::default();
        cfg.hmm.cell_m = 0.02; // coarse: keep 48 decodes cheap
        let out = PolarDraw::new(cfg).track_with_diagnostics(&injected);

        for p in &out.trail.points {
            assert!(
                p.x.is_finite() && p.y.is_finite(),
                "{ctx}: non-finite trail point at intensity {intensity:.2}"
            );
        }
        for t in out.trail.times.windows(2) {
            assert!(t[0] < t[1], "{ctx}: trail times not monotone");
        }
        assert_eq!(out.degradation.windows, out.windows.len(), "{ctx}: window count mismatch");
        // The degradation report must acknowledge a carved gap that was
        // long enough to bridge.
        if out.degradation.gaps_bridged > 0 {
            assert!(
                out.degradation.largest_gap_bridged_s > 0.0,
                "{ctx}: bridged gap with zero span"
            );
        }
    });
}

// ---------------------------------------------------------------------
// Adaptive-beam decoder properties (derived-seed sweeps over the
// kernel knobs introduced with the SoA/f32 beam rewrite).
// ---------------------------------------------------------------------

/// A clean-glyph decode scenario: a smooth simulated pen path whose
/// observations are all mutually consistent (true step direction, an
/// annulus bracketing the true step length, the exact hyperbola
/// measurement at the destination). Returns the scenario plus the
/// ground-truth trajectory.
fn clean_glyph_scenario(
    rng: &mut Rng64,
) -> (
    polardraw_core::hmm::Grid,
    [Vec3; 2],
    Vec2,
    Vec<polardraw_core::hmm::StepObservation>,
    polardraw_core::hmm::HmmConfig,
) {
    use polardraw_core::distance::{expected_dtheta21, FeasibleRegion};
    use polardraw_core::hmm::{Grid, HmmConfig, StepObservation};

    let cell_m = rng.gen_range(0.004..0.012);
    let min = Vec2::new(rng.gen_range(-0.2..0.0), rng.gen_range(0.3..0.5));
    let span = Vec2::new(rng.gen_range(0.15..0.3), rng.gen_range(0.15..0.3));
    let grid = Grid::covering(min, min + span, cell_m);
    let antennas = [
        Vec3::new(rng.gen_range(-0.4..-0.2), rng.gen_range(0.1..0.2), rng.gen_range(0.5..0.7)),
        Vec3::new(rng.gen_range(0.2..0.4), rng.gen_range(0.1..0.2), rng.gen_range(0.5..0.7)),
    ];
    let config = HmmConfig { cell_m, ..HmmConfig::default() };
    let mut pos = min + span * 0.5;
    let start = pos;
    let mut heading = rng.gen_range(0.0..TAU);
    let n = 12 + rng.gen_index(12);
    let mut steps = Vec::with_capacity(n);
    for _ in 0..n {
        heading += rng.gaussian(0.3);
        let step_len = rng.gen_range(cell_m * 1.2..cell_m * 2.5);
        let mut next = pos + Vec2::from_angle(heading) * step_len;
        // Steer back toward the middle rather than walking off-board.
        if next.x < min.x + span.x * 0.1
            || next.x > min.x + span.x * 0.9
            || next.y < min.y + span.y * 0.1
            || next.y > min.y + span.y * 0.9
        {
            let center = min + span * 0.5;
            heading = (center - pos).angle();
            next = pos + Vec2::from_angle(heading) * step_len;
        }
        let dir = (next - pos) * (1.0 / step_len);
        steps.push(StepObservation {
            region: FeasibleRegion { min_dist: step_len * 0.7, max_dist: step_len * 1.4 },
            direction: Some(dir),
            dtheta21: Some(expected_dtheta21(next, antennas, config.wavelength_m)),
            target_dist: step_len,
        });
        pos = next;
    }
    (grid, antennas, start, steps, config)
}

/// On clean glyphs the adaptive beam must never prune the surviving
/// path: with the default margin, the exact-precision adaptive decode
/// returns bit-for-bit the non-adaptive track. The sweep also checks
/// the shrinking is real (not vacuous) in aggregate.
#[test]
fn adaptive_beam_never_prunes_the_surviving_path_on_clean_glyphs() {
    use polardraw_core::hmm::{decode, AdaptiveBeam, KernelOptions};

    let mut shrunk_total = 0usize;
    sweep("adaptive_clean_glyphs", 64, |rng, ctx| {
        let (grid, antennas, start, steps, config) = clean_glyph_scenario(rng);
        let (want, _) = decode(
            &grid, antennas, start, &steps, &config, 2500, KernelOptions::exact(),
        );
        let kernel =
            KernelOptions::exact().with_adaptive(Some(AdaptiveBeam::default()));
        let (got, stats) =
            decode(&grid, antennas, start, &steps, &config, 2500, kernel);
        assert_eq!(got.len(), want.len(), "{ctx}: track lengths differ");
        for (k, (a, b)) in got.iter().zip(&want).enumerate() {
            assert!(
                a.x.to_bits() == b.x.to_bits() && a.y.to_bits() == b.y.to_bits(),
                "{ctx}: adaptive pruning changed point {k}: {a:?} vs {b:?}"
            );
        }
        shrunk_total += stats.adaptive_shrunk_steps;
    });
    assert!(shrunk_total > 0, "the adaptive beam never engaged across the whole sweep");
}

/// Under alternating concentrated / diffuse observation phases (the
/// beam shrinks, then must regrow), the frontier never exceeds the
/// configured beam and the cumulative work counters stay monotone.
#[test]
fn adaptive_frontier_counters_monotone_and_bounded_under_shrink_regrow() {
    use polardraw_core::distance::FeasibleRegion;
    use polardraw_core::hmm::{
        AdaptiveBeam, FixedLagDecoder, KernelOptions, KernelPrecision, StepObservation,
    };

    sweep("adaptive_shrink_regrow", 48, |rng, ctx| {
        let (grid, antennas, start, clean_steps, config) = clean_glyph_scenario(rng);
        let beam = [64usize, 256, 2500][rng.gen_index(3)];
        let precision = if rng.gen_bool(0.5) {
            KernelPrecision::F64Exact
        } else {
            KernelPrecision::F32Tolerance
        };
        let kernel = KernelOptions { precision, adaptive: None }
            .with_adaptive(Some(AdaptiveBeam {
                margin: rng.gen_range(0.5..8.0),
                min_keep: 8 + rng.gen_index(64),
            }));
        let mut dec =
            FixedLagDecoder::new(grid, antennas, start, config, beam, usize::MAX);
        dec.set_kernel(kernel);
        // Interleave: concentrated steps (clean, direction + hyperbola)
        // with diffuse ones (no prior at all, wide annulus) so the
        // frontier shrinks and regrows repeatedly.
        let diffuse = StepObservation {
            region: FeasibleRegion { min_dist: 0.0, max_dist: config.cell_m * 4.0 },
            direction: None,
            dtheta21: None,
            target_dist: config.cell_m,
        };
        let mut prev = dec.stats();
        let mut max_seen_frontier = 0usize;
        for (k, obs) in clean_steps.iter().enumerate() {
            for obs in [obs, &diffuse, &diffuse] {
                dec.step(obs);
                let cur = dec.stats();
                let frontier = dec.frontier().len();
                max_seen_frontier = max_seen_frontier.max(frontier);
                // Bounded by the configured beam (after the ≥8 clamp).
                assert!(
                    frontier <= beam.max(8),
                    "{ctx}: step {k}: frontier {frontier} > beam {beam}"
                );
                assert!(
                    cur.max_frontier <= beam.max(8),
                    "{ctx}: step {k}: max_frontier {} > beam {beam}",
                    cur.max_frontier
                );
                // Monotone cumulative counters.
                assert!(cur.steps == prev.steps + 1, "{ctx}: steps must advance");
                assert!(cur.expansions >= prev.expansions, "{ctx}: expansions regressed");
                assert!(
                    cur.total_frontier >= prev.total_frontier,
                    "{ctx}: total_frontier regressed"
                );
                assert!(
                    cur.touched_cells >= prev.touched_cells,
                    "{ctx}: touched_cells regressed"
                );
                assert!(
                    cur.pruned_beam >= prev.pruned_beam,
                    "{ctx}: pruned_beam regressed"
                );
                assert!(
                    cur.adaptive_shrunk_steps >= prev.adaptive_shrunk_steps,
                    "{ctx}: adaptive_shrunk_steps regressed"
                );
                assert!(
                    cur.max_frontier >= prev.max_frontier,
                    "{ctx}: max_frontier must be a running maximum"
                );
                prev = cur;
            }
        }
        // The diffuse phases must actually regrow the frontier past the
        // adaptive floor at least once, or the cycle is vacuous.
        assert!(
            max_seen_frontier > 8,
            "{ctx}: frontier never regrew (max {max_seen_frontier})"
        );
    });
}
