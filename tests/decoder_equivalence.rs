//! Exact-equivalence sweep between the optimized Viterbi decoder
//! (`hmm::decode`) and the retained naive reference (`viterbi_reference`).
//!
//! The optimized decoder's contract is *bit-for-bit* identity: same
//! floating-point operations per candidate in the same order, same
//! canonical beam order, same membership/pruning rules. Each sweep
//! below draws randomized grids, rigs, and observation sequences from
//! `derive_seed_indexed(BASE_SEED, label, i)` (the `tests/properties.rs`
//! convention — every failing case is reproducible from its printed
//! (label, index, seed)) and asserts the two decoders return identical
//! tracks, comparing `f64::to_bits`, not approximate distance.
//!
//! Coverage deliberately includes the awkward paths: inconsistent-step
//! carry-through (min_dist > max_dist), frontier collapse (annulus
//! pushed entirely off-board), tiny beam widths (`beam_width < 8`
//! engages the clamp), still steps (no direction), and hyperbola
//! measurements (exercising the emission table against direct
//! recomputation).

use polardraw_core::distance::{expected_dtheta21, FeasibleRegion};
use polardraw_core::hmm::{
    decode, viterbi_reference, Grid, HmmConfig, KernelOptions, StepObservation,
};
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

/// A randomized decode scenario, kept small enough (≤ ~40×40 cells)
/// that the whole sweep stays a release-mode few-seconds job.
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
            // A plausible measurement: the expected value at a random
            // board point, plus noise.
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
            "{ctx}: point {k} differs: optimized {a:?} vs reference {b:?}"
        );
    }
}

fn run_case(sc: &Scenario, ctx: &str) {
    let (fast, _) = decode(
        &sc.grid,
        sc.antennas,
        sc.start,
        &sc.steps,
        &sc.config,
        sc.beam_width,
        KernelOptions::exact(),
    );
    let slow =
        viterbi_reference(&sc.grid, sc.antennas, sc.start, &sc.steps, &sc.config, sc.beam_width);
    assert_tracks_identical(&fast, &slow, ctx);
}

/// The main sweep: 160 randomized scenarios across grid sizes, rigs,
/// beam widths (including the `< 8` clamp region), mixed observation
/// kinds. Exceeds the ≥128-case floor.
#[test]
fn optimized_decoder_matches_reference_exactly() {
    sweep("viterbi_equivalence", 160, |rng, ctx| {
        let sc = random_scenario(rng, &[1, 5, 8, 16, 64, 256, 2500]);
        run_case(&sc, ctx);
    });
}

/// Inconsistent steps (empty annulus: min_dist > max_dist, or a lower
/// bound beyond every reachable cell) must take the carry-through path
/// in both decoders and still agree bit-for-bit afterwards.
#[test]
fn carry_through_steps_stay_equivalent() {
    sweep("viterbi_carry_through", 128, |rng, ctx| {
        let mut sc = random_scenario(rng, &[8, 32, 64, 128, 2500]);
        // Corrupt 1–3 steps into infeasibility.
        let n_bad = 1 + rng.gen_index(3.min(sc.steps.len()));
        for _ in 0..n_bad {
            let k = rng.gen_index(sc.steps.len());
            if rng.gen_bool(0.5) {
                // min > max: the hard bound rejects every candidate.
                sc.steps[k].region =
                    FeasibleRegion { min_dist: 0.5, max_dist: sc.grid.cell_m };
            } else {
                // Huge lower bound with matching upper bound: annulus
                // wider than the whole board.
                sc.steps[k].region = FeasibleRegion { min_dist: 5.0, max_dist: 6.0 };
            }
        }
        run_case(&sc, ctx);
        // And the carry is actually exercised:
        let (_, stats) = decode(
            &sc.grid,
            sc.antennas,
            sc.start,
            &sc.steps,
            &sc.config,
            sc.beam_width,
            KernelOptions::exact(),
        );
        assert!(stats.carried_steps >= 1, "{ctx}: expected at least one carried step");
    });
}

/// Degenerate beam widths: `beam_width` 0 and 1 engage the `max(8)`
/// clamp; equivalence must hold through it.
#[test]
fn tiny_beam_widths_stay_equivalent() {
    sweep("viterbi_tiny_beam", 64, |rng, ctx| {
        let sc = random_scenario(rng, &[0, 1, 2, 7]);
        run_case(&sc, ctx);
    });
}
