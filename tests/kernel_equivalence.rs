//! Equivalence-testing harness for the vectorized beam kernels
//! (tier-1, named in scripts/verify.sh).
//!
//! The decoder now has two precision contracts (see `KernelOptions` in
//! `polardraw_core::hmm`), and this file is where each is enforced:
//!
//! * **`F64Exact` — bit-for-bit.** The SoA frontier, the per-step
//!   offset classification, and scratch plumbing must not change a
//!   single bit of the output relative to `viterbi_reference`. Checked
//!   by `to_bits` comparison over derived-seed sweeps.
//! * **`F32Tolerance` — quantitative oracle, not bitwise.** Dropping to
//!   f32 tables rounds every transition/emission term, so bitwise
//!   identity is impossible by construction. Instead the path is gated
//!   by three observable bounds:
//!   1. *per-step best-frontier score deltas* — even when near-ties
//!      resolve differently, the winning score is stable: the f32 best
//!      is within rounding accumulation of the f64 best every step;
//!   2. *final-trail Procrustes distance* between the f32 and exact
//!      trails on real simulated glyph streams;
//!   3. *letter-accuracy parity* on the fig13 reduced config (the
//!      golden suite snapshots the same table; here it is asserted).
//! * **Adaptive beam — pinned bits.** Every adaptive setting in use
//!   (three exact-kernel margins and the fast kernel) is held to the
//!   tracks and `DecodeStats` recorded in
//!   `tests/snapshots/adaptive_decode.json`.
//!
//! Every sweep draws from `derive_seed_indexed(BASE_SEED, label, i)`
//! (the `tests/properties.rs` convention), so a failing case is
//! reproducible from its printed (label, index, seed).

use experiments::setup::{polardraw_config_for, simulate_reports, TrialSetup};
use polardraw_core::distance::{expected_dtheta21, FeasibleRegion};
use polardraw_core::hmm::{
    decode, viterbi_reference, AdaptiveBeam, DecodeStats, FixedLagDecoder, Grid, HmmConfig,
    KernelOptions, KernelPrecision, StepObservation, BACKWARD_PENALTY, DIRECTION_WEIGHT,
    DISTANCE_WEIGHT, DISTANCE_WEIGHT_STILL, HYPERBOLA_WEIGHT,
};
use polardraw_core::{OnlineOptions, OnlineTracker};
use recognition::{procrustes_distance, LetterRecognizer};
use rf_core::rng::{derive_seed_indexed, Rng64};
use rf_core::{Vec2, Vec3};

/// Root seed, shared with `tests/properties.rs`.
const BASE_SEED: u64 = 42;

fn sweep<F: FnMut(&mut Rng64, &str)>(label: &str, cases: usize, mut body: F) {
    for i in 0..cases {
        let seed = derive_seed_indexed(BASE_SEED, label, i as u64);
        let mut rng = Rng64::from_seed(seed);
        let ctx = format!("{label} case {i} (seed {seed:#018x})");
        body(&mut rng, &ctx);
    }
}

/// A randomized decode scenario (same shape as
/// `tests/decoder_equivalence.rs`): small grids, randomized rigs,
/// mixed observation kinds.
struct Scenario {
    grid: Grid,
    antennas: [Vec3; 2],
    start: Vec2,
    steps: Vec<StepObservation>,
    config: HmmConfig,
    beam_width: usize,
}

fn random_scenario(rng: &mut Rng64, beam_widths: &[usize]) -> Scenario {
    let cell_m = rng.gen_range(0.004..0.02);
    let min = Vec2::new(rng.gen_range(-0.3..0.1), rng.gen_range(0.3..0.6));
    let span = Vec2::new(rng.gen_range(0.05..0.35), rng.gen_range(0.05..0.35));
    let grid = Grid::covering(min, min + span, cell_m);
    let antennas = [
        Vec3::new(rng.gen_range(-0.5..-0.1), rng.gen_range(0.0..0.3), rng.gen_range(0.4..0.8)),
        Vec3::new(rng.gen_range(0.1..0.5), rng.gen_range(0.0..0.3), rng.gen_range(0.4..0.8)),
    ];
    let start = Vec2::new(
        rng.gen_range(min.x..min.x + span.x),
        rng.gen_range(min.y..min.y + span.y),
    );
    let config = HmmConfig { cell_m, ..HmmConfig::default() };
    let n_steps = 3 + rng.gen_index(10);
    let mut steps = Vec::with_capacity(n_steps);
    for _ in 0..n_steps {
        let min_dist = rng.gen_range(0.0..cell_m * 3.0);
        let max_dist = min_dist + rng.gen_range(cell_m * 0.5..cell_m * 4.0);
        let direction = if rng.gen_bool(0.7) {
            Some(Vec2::from_angle(rng.gen_range(0.0..std::f64::consts::TAU)))
        } else {
            None
        };
        let dtheta21 = if rng.gen_bool(0.6) {
            let p = Vec2::new(
                rng.gen_range(min.x..min.x + span.x),
                rng.gen_range(min.y..min.y + span.y),
            );
            Some(rf_core::wrap_pi(
                expected_dtheta21(p, antennas, config.wavelength_m) + rng.gaussian(0.4),
            ))
        } else {
            None
        };
        let target_dist = rng.gen_range(0.0..max_dist * 1.2);
        steps.push(StepObservation {
            region: FeasibleRegion { min_dist, max_dist },
            direction,
            dtheta21,
            target_dist,
        });
    }
    let beam_width = beam_widths[rng.gen_index(beam_widths.len())];
    Scenario { grid, antennas, start, steps, config, beam_width }
}

fn assert_tracks_identical(fast: &[Vec2], slow: &[Vec2], ctx: &str) {
    assert_eq!(fast.len(), slow.len(), "{ctx}: track lengths differ");
    for (k, (a, b)) in fast.iter().zip(slow).enumerate() {
        assert!(
            a.x.to_bits() == b.x.to_bits() && a.y.to_bits() == b.y.to_bits(),
            "{ctx}: point {k} differs: kernel {a:?} vs reference {b:?}"
        );
    }
}

// ---------------------------------------------------------------------
// 1. The f64 path: bit-identical to the reference.
// ---------------------------------------------------------------------

#[test]
fn exact_kernel_is_bit_identical_to_reference_across_threads() {
    sweep("kernel_exact_threads", 96, |rng, ctx| {
        let sc = random_scenario(rng, &[1, 8, 64, 256, 2500]);
        let want = viterbi_reference(
            &sc.grid, sc.antennas, sc.start, &sc.steps, &sc.config, sc.beam_width,
        );
        let (got, _) = decode(
            &sc.grid,
            sc.antennas,
            sc.start,
            &sc.steps,
            &sc.config,
            sc.beam_width,
            KernelOptions::exact(),
        );
        assert_tracks_identical(&got, &want, ctx);
    });
}

/// Observations whose distance bounds land exactly on stencil
/// distances. The exact kernel decides a candidate's distance tests
/// from its offset's ideal distance unless that distance lies within
/// the stencil margin of a bound, so these are the steps where a wrong
/// margin would change which candidates are counted, pruned, or scored.
/// Random bounds never come within 1e-9 of a stencil distance.
fn bound_landing_steps(
    grid: &Grid,
    antennas: [Vec3; 2],
    wavelength_m: f64,
) -> Vec<StepObservation> {
    let cell = grid.cell_m;
    // The stencil's own ideal-distance formula.
    let ideal = |dx: f64, dy: f64| f64::hypot(dx, dy) * cell;
    let mut reaches = vec![
        cell,
        2.0 * cell,
        3.0 * cell,
        ideal(1.0, 1.0),
        ideal(2.0, 1.0),
        5.0 * cell,
        ideal(3.0, 4.0),
        // Below one cell: clamped to `max_r = cell`.
        0.4 * cell,
    ];
    // Reaches whose exact membership bound `max_dist + 1e-12` lands on
    // the stencil distance itself, not 1e-12 beyond it.
    for k in [1.0, 2.0] {
        reaches.push(k * cell - 1e-12);
    }
    reaches.push(ideal(1.0, 1.0) - 1e-12);
    reaches.push(ideal(3.0, 4.0) - 1e-12);

    let directions = [None, Some(Vec2::new(1.0, 0.0)), Some(Vec2::from_angle(2.3))];
    let meas = Some(expected_dtheta21(grid.center(grid.len() / 3), antennas, wavelength_m));
    let mut steps = Vec::new();
    let mut k = 0usize;
    let mut push = |steps: &mut Vec<StepObservation>, min_dist: f64, max_dist: f64| {
        for direction in directions {
            steps.push(StepObservation {
                region: FeasibleRegion { min_dist, max_dist },
                direction,
                dtheta21: if k.is_multiple_of(2) { meas } else { None },
                target_dist: max_dist * [0.0, 0.5, 1.0][k % 3],
            });
            k += 1;
        }
    };
    for &r in &reaches {
        push(&mut steps, 0.0, r);
    }
    // Hard lower bounds `min_dist − 2·cell` on a stencil distance.
    for (dx, dy) in [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (2.0, 0.0), (2.0, 1.0), (3.0, 4.0)] {
        let d = ideal(dx, dy);
        push(&mut steps, d + 2.0 * cell, d + cell);
    }
    steps
}

/// Pins the exact kernel on [`bound_landing_steps`]: batch tracks
/// bit-for-bit against `viterbi_reference`, and a `FixedLagDecoder` at
/// infinite lag replayed step by step against
/// [`replay_against_reference`] — every frontier score and every
/// `DecodeStats` counter — with its tracks and counters equal to the
/// batch decode's. Three boards (the paper's 2.5 mm cell at its board
/// corner, and two off-grid cell sizes and origins), each started at an
/// interior cell and at both board corners so candidates clip at every
/// edge.
#[test]
fn exact_kernel_is_bit_identical_when_bounds_land_on_stencil_distances() {
    let antennas = [Vec3::new(-0.25, 0.1, 0.6), Vec3::new(0.25, 0.1, 0.6)];
    let boards = [
        (Vec2::new(-0.45, 0.35), 0.0025),
        (Vec2::new(-0.3137, 0.4219), 0.004),
        (Vec2::new(0.0123, 0.3), 0.0071),
    ];
    for (min, cell) in boards {
        let grid = Grid::covering(min, min + Vec2::new(32.0 * cell, 24.0 * cell), cell);
        let config = HmmConfig { cell_m: cell, ..HmmConfig::default() };
        let steps = bound_landing_steps(&grid, antennas, config.wavelength_m);
        let corner = grid.center(grid.len() - 1);
        for start in [grid.center(grid.len() / 2 + grid.nx / 3), grid.min, corner] {
            for beam in [8usize, 2500] {
                let want = viterbi_reference(&grid, antennas, start, &steps, &config, beam);
                let ctx = format!("cell {cell} start {start:?} beam {beam}");
                let kernel = KernelOptions::exact();
                let (got, stats) = decode(&grid, antennas, start, &steps, &config, beam, kernel);
                assert_tracks_identical(&got, &want, &format!("{ctx} batch"));
                let mut dec = FixedLagDecoder::new(grid, antennas, start, config, beam, usize::MAX);
                dec.set_kernel(kernel);
                replay_against_reference(&mut dec, &grid, antennas, &config, &steps, &ctx);
                assert_eq!(dec.stats(), stats, "{ctx}: fixed-lag vs batch stats");
                assert_tracks_identical(&dec.finish(), &want, &format!("{ctx} fixed-lag"));
            }
        }
    }
}

/// Steps `dec` through `steps`, checking each step against a brute-force
/// rescoring of the decoder's own previous frontier with the
/// reference's arithmetic: `Grid::neighbourhood` membership, an actual
/// centre-distance `hypot` per candidate, the hyperbola term
/// recomputed per candidate, no stencil classification. Every kept
/// cell's score must match the best rescored candidate bit for bit,
/// and every `DecodeStats` counter must match the recount.
fn replay_against_reference(
    dec: &mut FixedLagDecoder,
    grid: &Grid,
    antennas: [Vec3; 2],
    config: &HmmConfig,
    steps: &[StepObservation],
    ctx: &str,
) {
    let mut want = dec.stats();
    for (k, obs) in steps.iter().enumerate() {
        let frontier = dec.frontier();
        want.steps += 1;
        want.total_frontier += frontier.len() as u64;
        want.max_frontier = want.max_frontier.max(frontier.len());
        let max_r = obs.region.max_dist.max(grid.cell_m);
        let target = obs.target_dist.min(obs.region.max_dist);
        let hard_min = obs.region.min_dist - 2.0 * grid.cell_m;
        let mut best = std::collections::BTreeMap::new();
        for &(from, s_from) in &frontier {
            let c_from = grid.center(from as usize);
            for to in grid.neighbourhood(from as usize, max_r) {
                want.expansions += 1;
                let c_to = grid.center(to);
                let delta = c_to - c_from;
                let d = delta.norm();
                if d < hard_min {
                    want.pruned_below_min += 1;
                    continue;
                }
                let mut s = s_from;
                if let Some(meas) = obs.dtheta21 {
                    let expected = expected_dtheta21(c_to, antennas, config.wavelength_m);
                    let err = rf_core::wrap_pi(meas - expected).abs() / std::f64::consts::PI;
                    s -= HYPERBOLA_WEIGHT * err;
                }
                let (d_along, w_dist) = match obs.direction {
                    Some(dir) => (dir.dot(delta), DISTANCE_WEIGHT),
                    None => (d, DISTANCE_WEIGHT_STILL),
                };
                s -= w_dist * ((d_along - target).abs() / max_r).min(2.0);
                if let Some(dir) = obs.direction {
                    if d > 1e-12 {
                        s -= DIRECTION_WEIGHT * (dir.cross(delta).abs() / max_r).min(2.0);
                        if dir.dot(delta) < 0.0 {
                            s -= BACKWARD_PENALTY;
                        }
                    }
                }
                let e = best.entry(to as u32).or_insert(f64::NEG_INFINITY);
                if s > *e {
                    *e = s;
                }
            }
        }
        if best.is_empty() {
            want.carried_steps += 1;
        } else {
            want.touched_cells += best.len() as u64;
            want.pruned_beam += best.len().saturating_sub(dec.beam_width()) as u64;
        }
        dec.step(obs);
        if !best.is_empty() {
            for (cell, score) in dec.frontier() {
                assert_eq!(
                    score.to_bits(),
                    best[&cell].to_bits(),
                    "{ctx}: step {k} cell {cell} score differs from the rescored reference"
                );
            }
        }
        assert_eq!(dec.stats(), want, "{ctx}: step {k} stats differ from the recount");
    }
}

/// A still-heavy stream (two steps in three have no direction, so every
/// candidate reads its actual centre distance) whose stencil radius
/// grows from 2 to 7 cells halfway through, so the kernel's distance
/// memo is first built narrow and must then widen.
fn still_heavy_growing_steps(
    grid: &Grid,
    antennas: [Vec3; 2],
    wavelength_m: f64,
) -> Vec<StepObservation> {
    let cell = grid.cell_m;
    let meas = expected_dtheta21(grid.center(grid.len() / 2 + 3), antennas, wavelength_m);
    (0..18)
        .map(|k| {
            let (min_dist, max_dist) =
                if k < 9 { (0.0, 1.7 * cell) } else { (2.5 * cell, 6.6 * cell) };
            StepObservation {
                region: FeasibleRegion { min_dist, max_dist },
                direction: (k % 3 == 1).then(|| Vec2::from_angle(0.4 * k as f64)),
                dtheta21: (k % 2 == 0).then_some(meas),
                target_dist: max_dist * [0.2, 0.55, 0.9][k % 3],
            }
        })
        .collect()
}

/// Pins the exact kernel's centre-distance memo: on
/// [`still_heavy_growing_steps`], batch tracks bit-for-bit against
/// `viterbi_reference`, and a `FixedLagDecoder` at infinite lag replayed
/// step by step against [`replay_against_reference`] — every frontier
/// score and every `DecodeStats` counter — with its tracks and counters
/// equal to the batch decode's. The boards give each axis and offset
/// its own count of distinct centre differences: one straddles the
/// origin (coordinates near zero carry finer ULPs), one sits metres
/// away, one has an odd 2.3 mm cell, and one is far enough out that
/// no offset settles even on directional steps.
#[test]
fn exact_kernel_distance_memo_is_bit_identical_on_still_heavy_streams() {
    let antennas = [Vec3::new(-0.25, 0.1, 0.6), Vec3::new(0.25, 0.1, 0.6)];
    let boards = [
        (Vec2::new(-0.0413, -0.0327), 0.0025),
        (Vec2::new(4.3719, 3.0511), 0.0025),
        (Vec2::new(-0.2, 0.4101), 0.0023),
        (Vec2::new(1.0e5 + 0.37, -2.0e5 - 0.11), 0.0023),
    ];
    for (min, cell) in boards {
        let grid = Grid::covering(min, min + Vec2::new(36.0 * cell, 28.0 * cell), cell);
        let config = HmmConfig { cell_m: cell, ..HmmConfig::default() };
        let steps = still_heavy_growing_steps(&grid, antennas, config.wavelength_m);
        let corner = grid.center(grid.len() - 1);
        for start in [grid.center(grid.len() / 2 + grid.nx / 3), grid.min, corner] {
            for beam in [8usize, 2500] {
                let want = viterbi_reference(&grid, antennas, start, &steps, &config, beam);
                let ctx = format!("board {min:?} cell {cell} start {start:?} beam {beam}");
                let kernel = KernelOptions::exact();
                let (got, stats) = decode(&grid, antennas, start, &steps, &config, beam, kernel);
                assert_tracks_identical(&got, &want, &format!("{ctx} batch"));
                let mut dec = FixedLagDecoder::new(grid, antennas, start, config, beam, usize::MAX);
                dec.set_kernel(kernel);
                replay_against_reference(&mut dec, &grid, antennas, &config, &steps, &ctx);
                assert_eq!(dec.stats(), stats, "{ctx}: fixed-lag vs batch stats");
                assert_tracks_identical(&dec.finish(), &want, &format!("{ctx} fixed-lag"));
            }
        }
    }
}

// ---------------------------------------------------------------------
// 2. The f32 path: per-step best-frontier score deltas stay within the
//    rounding-accumulation tolerance.
// ---------------------------------------------------------------------

fn best_score(frontier: &[(u32, f64)]) -> f64 {
    frontier.iter().map(|&(_, s)| s).fold(f64::NEG_INFINITY, f64::max)
}

/// Even when a near-tie makes the two precisions pick different argmax
/// cells, the *winning score* is stable: the f32 best is bounded by the
/// f64 best plus per-term rounding, accumulated once per step. The
/// bound here (10⁻⁴ absolute per step + 10⁻⁵ relative) is ~100× the
/// worst delta observed across this sweep, but ~1000× smaller than the
/// score scale — a real kernel bug (wrong term, wrong wrap, wrong
/// merge) blows through it immediately.
#[test]
fn f32_per_step_best_scores_stay_within_tolerance() {
    let f32_kernel = KernelOptions { precision: KernelPrecision::F32Tolerance, adaptive: None };
    sweep("kernel_f32_scores", 64, |rng, ctx| {
        let sc = random_scenario(rng, &[16, 64, 256, 2500]);
        let mut exact = FixedLagDecoder::new(
            sc.grid, sc.antennas, sc.start, sc.config, sc.beam_width, usize::MAX,
        );
        let mut fast = FixedLagDecoder::new(
            sc.grid, sc.antennas, sc.start, sc.config, sc.beam_width, usize::MAX,
        );
        fast.set_kernel(f32_kernel);
        for (k, obs) in sc.steps.iter().enumerate() {
            exact.step(obs);
            fast.step(obs);
            let b64 = best_score(&exact.frontier());
            let b32 = best_score(&fast.frontier());
            let tol = 1e-4 * (k + 1) as f64 + 1e-5 * b64.abs();
            let delta = (b64 - b32).abs();
            assert!(
                delta <= tol,
                "{ctx}: step {k} best-score delta {delta:e} > tol {tol:e} \
                 (f64 {b64}, f32 {b32})"
            );
        }
    });
}

// ---------------------------------------------------------------------
// 3. Real glyph streams: the fast kernel's trail stays Procrustes-close
//    to the exact kernel's trail.
// ---------------------------------------------------------------------

fn track_with_kernel(setup: &TrialSetup, seed: u64, kernel: KernelOptions) -> Vec<Vec2> {
    let (_, reports) = simulate_reports(setup, seed);
    let cfg = polardraw_config_for(setup);
    let mut online = OnlineTracker::new(cfg, OnlineOptions::batch().with_kernel(kernel));
    online.extend(&reports);
    online.finalize().trail.points
}

/// Full pipeline, reduced fidelity (cell_scale 4 ⇒ 1 cm cells): the
/// f32+adaptive trail must stay within 1 cm Procrustes distance of the
/// exact trail — i.e. the precision knob moves the answer by less than
/// one grid cell, far below the paper's ~3 cm tracking-error regime.
#[test]
fn fast_kernel_glyph_trails_stay_procrustes_close_to_exact() {
    for (i, ch) in ['L', 'O', 'V'].into_iter().enumerate() {
        for t in 0..3u64 {
            let seed = derive_seed_indexed(BASE_SEED, "kernel_glyph", i as u64 * 100 + t);
            let setup = TrialSetup::letter(ch).with_cell_scale(4.0);
            let exact = track_with_kernel(&setup, seed, KernelOptions::exact());
            let fast = track_with_kernel(&setup, seed, KernelOptions::fast());
            assert_eq!(exact.len(), fast.len(), "letter {ch} trial {t}: trail lengths");
            let d = procrustes_distance(&exact, &fast, 64)
                .expect("trails are non-degenerate");
            assert!(
                d < 0.01,
                "letter {ch} trial {t} (seed {seed:#018x}): \
                 fast-vs-exact Procrustes {d:.4} m ≥ 1 cm"
            );
        }
    }
}

// ---------------------------------------------------------------------
// 4. Letter-accuracy parity on the fig13 reduced config.
// ---------------------------------------------------------------------

/// The same reduced fidelity the golden fig13 snapshot runs
/// (cell_scale 8): over a letters × seeds panel, the fast kernel must
/// classify at least as many trials correctly as the exact kernel,
/// minus a one-trial slack (a single borderline glyph may flip either
/// way; a systematic accuracy loss may not hide in it).
#[test]
fn fast_kernel_letter_accuracy_parity_on_reduced_fig13() {
    const LETTERS: [char; 8] = ['C', 'I', 'L', 'N', 'O', 'S', 'U', 'Z'];
    let rec = LetterRecognizer::new();
    let mut exact_correct = 0usize;
    let mut fast_correct = 0usize;
    let mut total = 0usize;
    for (i, ch) in LETTERS.into_iter().enumerate() {
        for t in 0..2u64 {
            let seed = derive_seed_indexed(BASE_SEED, "fig13_parity", i as u64 * 10 + t);
            let setup = TrialSetup::letter(ch).with_cell_scale(8.0);
            let exact = track_with_kernel(&setup, seed, KernelOptions::exact());
            let fast = track_with_kernel(&setup, seed, KernelOptions::fast());
            exact_correct += usize::from(rec.classify(&exact) == Some(ch));
            fast_correct += usize::from(rec.classify(&fast) == Some(ch));
            total += 1;
        }
    }
    println!(
        "fig13 reduced-config parity: exact {exact_correct}/{total}, fast {fast_correct}/{total}"
    );
    assert!(
        fast_correct + 1 >= exact_correct,
        "fast kernel lost letter accuracy: {fast_correct}/{total} vs exact \
         {exact_correct}/{total}"
    );
}

// ---------------------------------------------------------------------
// 5. The adaptive beam: output bits pinned to a recorded snapshot.
// ---------------------------------------------------------------------

/// The adaptive settings the pin covers: the default margin on the
/// exact kernel, the fleet ladder's `{4.0, 64}` rung, a tighter one,
/// and the full fast kernel (f32 tables plus the default margin).
fn adaptive_kernels() -> [(&'static str, KernelOptions); 4] {
    let exact_with = |margin, min_keep| {
        KernelOptions::exact().with_adaptive(Some(AdaptiveBeam { margin, min_keep }))
    };
    let default = AdaptiveBeam::default();
    [
        ("exact/adaptive_default", exact_with(default.margin, default.min_keep)),
        ("exact/adaptive_4_64", exact_with(4.0, 64)),
        ("exact/adaptive_1.5_16", exact_with(1.5, 16)),
        ("fast", KernelOptions::fast()),
    ]
}

/// One decode, pinned: track length, CRC-32 over every point's bits,
/// and every `DecodeStats` counter.
fn decode_digest(name: &str, track: &[Vec2], stats: &DecodeStats) -> String {
    use rf_core::Json;
    let bytes: Vec<u8> = track
        .iter()
        .flat_map(|p| [p.x.to_bits(), p.y.to_bits()])
        .flat_map(u64::to_le_bytes)
        .collect();
    let n = |x: u64| Json::num(x as f64);
    Json::obj([
        ("name", Json::str(name)),
        ("points", n(track.len() as u64)),
        ("crc", n(u64::from(rf_core::crc32(&bytes)))),
        ("steps", n(stats.steps as u64)),
        ("carried_steps", n(stats.carried_steps as u64)),
        ("expansions", n(stats.expansions)),
        ("pruned_below_min", n(stats.pruned_below_min)),
        ("pruned_beam", n(stats.pruned_beam)),
        ("touched_cells", n(stats.touched_cells)),
        ("max_frontier", n(stats.max_frontier as u64)),
        ("total_frontier", n(stats.total_frontier)),
        ("adaptive_shrunk_steps", n(stats.adaptive_shrunk_steps as u64)),
    ])
    .to_json_string()
}

/// Every pinned decode, one digest per line: the random scenario
/// family, the stencil-boundary family on its three boards, and the
/// full pipeline on glyph streams, each under every adaptive kernel.
fn adaptive_decode_document() -> String {
    let kernels = adaptive_kernels();
    let mut lines = Vec::new();
    sweep("kernel_adaptive_pin", 48, |rng, _| {
        let sc = random_scenario(rng, &[64, 256, 2500]);
        let case = lines.len() / kernels.len();
        for (kname, kernel) in kernels {
            let (track, stats) = decode(
                &sc.grid, sc.antennas, sc.start, &sc.steps, &sc.config, sc.beam_width, kernel,
            );
            lines.push(decode_digest(&format!("random/{case}/{kname}"), &track, &stats));
        }
    });
    let antennas = [Vec3::new(-0.25, 0.1, 0.6), Vec3::new(0.25, 0.1, 0.6)];
    for (bi, (min, cell)) in [
        (Vec2::new(-0.45, 0.35), 0.0025),
        (Vec2::new(-0.3137, 0.4219), 0.004),
        (Vec2::new(0.0123, 0.3), 0.0071),
    ]
    .into_iter()
    .enumerate()
    {
        let grid = Grid::covering(min, min + Vec2::new(32.0 * cell, 24.0 * cell), cell);
        let config = HmmConfig { cell_m: cell, ..HmmConfig::default() };
        let steps = bound_landing_steps(&grid, antennas, config.wavelength_m);
        let start = grid.center(grid.len() / 2 + grid.nx / 3);
        for (kname, kernel) in kernels {
            let (track, stats) = decode(&grid, antennas, start, &steps, &config, 2500, kernel);
            lines.push(decode_digest(&format!("stencil/{bi}/{kname}"), &track, &stats));
        }
    }
    for (i, ch) in ['L', 'O', 'V'].into_iter().enumerate() {
        let seed = derive_seed_indexed(BASE_SEED, "kernel_glyph", i as u64 * 100);
        let setup = TrialSetup::letter(ch).with_cell_scale(4.0);
        let (_, reports) = simulate_reports(&setup, seed);
        for (kname, kernel) in kernels {
            let options = OnlineOptions::batch().with_kernel(kernel);
            let mut online = OnlineTracker::new(polardraw_config_for(&setup), options);
            online.extend(&reports);
            let out = online.finalize();
            let name = format!("glyph/{ch}/{kname}");
            lines.push(decode_digest(&name, &out.trail.points, &out.decode_stats));
        }
    }
    lines.join("\n") + "\n"
}

/// The adaptive beam's outputs on every pinned decode match
/// `tests/snapshots/adaptive_decode.json` bit for bit: the track and
/// every work counter. The tolerance oracles above cannot see a
/// changed beam cut that stays within tolerance; this can. The file is
/// a recording, never regenerated: a change that moves it changes the
/// adaptive beam.
#[test]
fn adaptive_beam_decodes_match_the_pinned_bits() {
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/snapshots/adaptive_decode.json");
    let expected = std::fs::read_to_string(path).expect("committed adaptive-decode snapshot");
    let actual = adaptive_decode_document();
    for (line, (want, got)) in expected.lines().zip(actual.lines()).enumerate() {
        assert_eq!(want, got, "adaptive decode drifted at line {}", line + 1);
    }
    assert_eq!(expected.lines().count(), actual.lines().count(), "decode count drifted");
}
