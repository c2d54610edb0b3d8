//! Batched channel-engine equivalence gates (tier-1, named in
//! scripts/verify.sh).
//!
//! The batch engine (`rf_physics::batch`) carries three precision
//! contracts, each pinned here:
//!
//! 1. **Scalar bitwise** — over a derived-seed family of whiteboard
//!    rigs, `ChannelBatch` under `F64Exact` reproduces the per-link
//!    `ChannelModel` observation bit for bit on every pose and port
//!    (so the simulator's report streams — and every committed golden —
//!    cannot move). The rig-frozen *single-link* path
//!    (`RigFactors::evaluate`) is bitwise for **both** polarimetries.
//! 2. **Jones batch ≤ 1e-12** — the restructured Jones batch kernel
//!    reassociates per-path algebra for throughput; every observable
//!    stays within 1e-12 of the per-link Jones channel, across
//!    empirical and Fresnel reflectors, linear/circular/elliptical
//!    reader states, bystanders, and reconfigurable tags.
//! 3. **f32 tier by tolerance oracle** — the direct `f32` emission
//!    build is gated quantitatively (wrap-aware per-cell deltas vs the
//!    cast-of-f64 spec, plus fig13 reduced-config letter-accuracy
//!    parity), mirroring the PR-6 kernel oracle.
//!
//! Within each tier, thread counts 1/2/8 are bit-identical.

use experiments::setup::{polardraw_config_for, simulate_reports, TrialSetup};
use polardraw_core::distance::expected_dtheta21;
use polardraw_core::hmm::{
    artifacts_for, EmissionTable, EmissionTableF32, Grid, KernelOptions,
};
use polardraw_core::{OnlineOptions, OnlineTracker};
use recognition::LetterRecognizer;
use rf_core::rng::{derive_seed_indexed, rng_from_seed, Rng64};
use rf_core::{wrap_pi, Vec2, Vec3};
use rf_physics::batch::{BatchOptions, BatchPrecision, ChannelBatch, PoseBatch, RigFactors};
use rf_physics::{
    Bystander, BystanderMotion, ChannelModel, LinkObservation, Polarimetry, Polarization,
    PolState, Surface, TagPolarization,
};

const TOL: f64 = 1e-12;
const MASTER: u64 = 20_260_808;

/// Same whiteboard-rig family as tests/channel_equivalence.rs: γ ∈
/// [5°, 40°], spacing ∈ [0.3, 0.8] m, standoff ∈ [0.2, 1.0] m, every
/// third rig with a walking bystander.
fn sampled_rig(rng: &mut Rng64, with_bystander: bool) -> ChannelModel {
    let gamma = rng.gen_range(5.0..40.0).to_radians();
    let spacing = rng.gen_range(0.3..0.8);
    let standoff = rng.gen_range(0.2..1.0);
    let mut ch = ChannelModel::two_antenna_whiteboard(gamma, spacing, standoff);
    if with_bystander {
        ch.bystander = Some(Bystander {
            position: Vec3::new(rng.gen_range(-0.5..0.5), 1.0, rng.gen_range(1.0..2.0)),
            motion: BystanderMotion::Walking { amplitude_m: 0.5, frequency_hz: 0.6 },
            scattering: 0.2,
            depolarization: rng.gen_range(0.0..1.0),
        });
    }
    ch
}

/// Random tag pose in the writing volume (same distribution as
/// tests/channel_equivalence.rs).
fn sampled_pose(rng: &mut Rng64) -> (Vec3, Vec3) {
    let pos = Vec3::new(
        rng.gen_range(-0.3..0.3),
        rng.gen_range(0.5..1.0),
        rng.gen_range(-0.05..0.05),
    );
    let dipole = loop {
        let v = Vec3::new(
            rng.gen_range(-1.0..1.0),
            rng.gen_range(-1.0..1.0),
            rng.gen_range(-1.0..1.0),
        );
        if let Some(u) = v.normalized() {
            break u;
        }
    };
    (pos, dipole)
}

/// A pose batch plus the matching per-link reference observations.
fn batch_and_reference(
    ch: &ChannelModel,
    rng: &mut Rng64,
    n: usize,
    port: usize,
) -> (PoseBatch, Vec<LinkObservation>) {
    let mut poses = PoseBatch::with_capacity(n);
    let mut reference = Vec::with_capacity(n);
    for _ in 0..n {
        let (pos, dipole) = sampled_pose(rng);
        let t = rng.gen_range(0.0..5.0);
        poses.push(pos, dipole, t);
        reference.push(ch.evaluate(port, pos, dipole, t));
    }
    (poses, reference)
}

fn assert_obs_bitwise(a: &LinkObservation, b: &LinkObservation, ctx: &str) {
    assert_eq!(a.forward_power_dbm.to_bits(), b.forward_power_dbm.to_bits(), "{ctx}: forward");
    assert_eq!(a.rx_power_dbm.to_bits(), b.rx_power_dbm.to_bits(), "{ctx}: rx");
    assert_eq!(a.phase_rad.to_bits(), b.phase_rad.to_bits(), "{ctx}: phase");
    assert_eq!(a.mismatch_rad.to_bits(), b.mismatch_rad.to_bits(), "{ctx}: mismatch");
    assert_eq!(a.tag_powered, b.tag_powered, "{ctx}: power gate");
}

/// Within TOL, treating a shared −inf (both below the amplitude floor)
/// as equal.
fn assert_db_close(a: f64, b: f64, what: &str, ctx: &str) {
    if a == f64::NEG_INFINITY && b == f64::NEG_INFINITY {
        return;
    }
    assert!((a - b).abs() <= TOL, "{what} diverged: {a:.15} vs {b:.15} ({ctx})");
}

// ---------------------------------------------------------------------
// 1. Scalar batch: bitwise vs the per-link channel.
// ---------------------------------------------------------------------

#[test]
fn scalar_batch_is_bitwise_vs_per_link_channel() {
    for rig_idx in 0..12u64 {
        let seed = derive_seed_indexed(MASTER, "batch-rig", rig_idx);
        let mut rng = rng_from_seed(seed);
        let mut ch = sampled_rig(&mut rng, rig_idx % 3 == 2);
        if rig_idx % 4 == 3 {
            ch.tag = TagPolarization::Reconfigurable;
        }
        let rig = RigFactors::freeze(&ch).expect("whiteboard rigs have a fixed plan");
        for port in 0..ch.antenna_count() {
            let (poses, reference) = batch_and_reference(&ch, &mut rng, 40, port);
            let got = ChannelBatch::new(&rig, BatchOptions::default()).evaluate(port, &poses);
            assert_eq!(got.len(), reference.len());
            for (i, (a, b)) in reference.iter().zip(&got).enumerate() {
                assert_obs_bitwise(a, b, &format!("rig {rig_idx} port {port} pose {i}"));
            }
        }
    }
}

/// The rig-frozen *single-link* path is bitwise for the Jones
/// polarimetry too — this is what the simulator's report generation
/// rides on under `--channel jones`.
#[test]
fn frozen_single_link_is_bitwise_for_jones() {
    for rig_idx in 0..8u64 {
        let seed = derive_seed_indexed(MASTER, "batch-jones-link", rig_idx);
        let mut rng = rng_from_seed(seed);
        let mut ch = sampled_rig(&mut rng, rig_idx % 3 == 2);
        ch.polarimetry = Polarimetry::Jones;
        if rig_idx % 2 == 1 {
            ch.antennas[0].polarization = Polarization::Circular;
        }
        let rig = RigFactors::freeze(&ch).expect("fixed plan");
        for sample in 0..40 {
            let (pos, dipole) = sampled_pose(&mut rng);
            let t = rng.gen_range(0.0..5.0);
            for port in 0..ch.antenna_count() {
                let a = ch.evaluate(port, pos, dipole, t);
                let b = rig.evaluate(port, pos, dipole, t);
                assert_obs_bitwise(&a, &b, &format!("rig {rig_idx} sample {sample} port {port}"));
            }
        }
    }
}

// ---------------------------------------------------------------------
// 2. Jones batch: ≤ 1e-12 per link, across every channel feature.
// ---------------------------------------------------------------------

#[test]
fn jones_batch_stays_within_1e12_of_per_link() {
    for rig_idx in 0..12u64 {
        let seed = derive_seed_indexed(MASTER, "batch-jones", rig_idx);
        let mut rng = rng_from_seed(seed);
        let mut ch = sampled_rig(&mut rng, rig_idx % 3 == 2);
        ch.polarimetry = Polarimetry::Jones;
        // Exercise every kernel branch across the family: Fresnel
        // boundaries, non-linear reader states, reconfigurable tags.
        if rig_idx % 2 == 0 && !ch.reflectors.is_empty() {
            ch.reflectors[0].surface = Surface::Fresnel { rel_permittivity: 4.0 };
        }
        match rig_idx % 4 {
            1 => ch.antennas[0].polarization = Polarization::Circular,
            2 => {
                let axis = Vec3::X;
                ch.antennas[1].polarization = Polarization::Jones {
                    axis,
                    state: PolState::Elliptical { psi_rad: 0.3, chi_rad: 0.2 },
                };
            }
            3 => ch.tag = TagPolarization::Reconfigurable,
            _ => {}
        }
        let rig = RigFactors::freeze(&ch).expect("fixed plan");
        for port in 0..ch.antenna_count() {
            let (poses, reference) = batch_and_reference(&ch, &mut rng, 40, port);
            let got = ChannelBatch::new(&rig, BatchOptions::default()).evaluate(port, &poses);
            for (i, (a, b)) in reference.iter().zip(&got).enumerate() {
                let ctx = format!("rig {rig_idx} port {port} pose {i}");
                assert_db_close(a.forward_power_dbm, b.forward_power_dbm, "forward", &ctx);
                assert_db_close(a.rx_power_dbm, b.rx_power_dbm, "rx", &ctx);
                assert_eq!(a.tag_powered, b.tag_powered, "{ctx}: power gate");
                if a.rx_power_dbm.is_finite() {
                    assert!(
                        (a.phase_rad - b.phase_rad).abs() <= TOL,
                        "{ctx}: phase {} vs {}",
                        a.phase_rad,
                        b.phase_rad
                    );
                }
                assert!(
                    (a.mismatch_rad - b.mismatch_rad).abs() <= TOL,
                    "{ctx}: mismatch {} vs {}",
                    a.mismatch_rad,
                    b.mismatch_rad
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// 3. Thread counts are bit-identical within each tier.
// ---------------------------------------------------------------------

#[test]
fn batch_thread_counts_are_bit_identical_within_each_tier() {
    for (label, jones) in [("scalar", false), ("jones", true)] {
        let seed = derive_seed_indexed(MASTER, "batch-threads", jones as u64);
        let mut rng = rng_from_seed(seed);
        let mut ch = sampled_rig(&mut rng, true);
        if jones {
            ch.polarimetry = Polarimetry::Jones;
        }
        let rig = RigFactors::freeze(&ch).expect("fixed plan");
        let (poses, _) = batch_and_reference(&ch, &mut rng, 67, 0);
        let one = ChannelBatch::new(&rig, BatchOptions::default()).evaluate(0, &poses);
        for threads in [2, 8] {
            let opts = BatchOptions { precision: BatchPrecision::F64Exact, threads };
            let got = ChannelBatch::new(&rig, opts).evaluate(0, &poses);
            assert_eq!(one.len(), got.len());
            for (i, (a, b)) in one.iter().zip(&got).enumerate() {
                assert_obs_bitwise(a, b, &format!("{label} threads {threads} pose {i}"));
            }
        }
    }
}

// ---------------------------------------------------------------------
// 4. Emission builds on the row kernels: bitwise at every worker count.
// ---------------------------------------------------------------------

fn paper_rig() -> ([Vec3; 2], Grid) {
    let antennas = [Vec3::new(-0.28, 0.15, 0.65), Vec3::new(0.28, 0.15, 0.65)];
    let grid = Grid::covering(Vec2::new(-0.45, 0.35), Vec2::new(0.45, 1.05), 0.01);
    (antennas, grid)
}

/// The paper board (71 rows) and a 3-row strip of it: the worker
/// counts below run under the row count on the first and up to and
/// past it on the second, where the row-band helper clamps them.
fn emission_grids() -> [Grid; 2] {
    let (_, grid) = paper_rig();
    [grid, Grid { ny: 3, ..grid }]
}

const EMISSION_WORKERS: [usize; 4] = [2, 3, 4, 8];

#[test]
fn emission_build_is_bitwise_vs_per_cell_spec_at_all_worker_counts() {
    let (antennas, _) = paper_rig();
    let lambda = 0.3276;
    for grid in emission_grids() {
        let rows = grid.ny;
        let seq = EmissionTable::build(&grid, antennas, lambda, 1);
        assert_eq!(seq.len(), grid.len());
        for idx in 0..grid.len() {
            let want = expected_dtheta21(grid.center(idx), antennas, lambda);
            assert_eq!(want.to_bits(), seq.expected(idx).to_bits(), "{rows} rows cell {idx}");
        }
        for workers in EMISSION_WORKERS {
            let par = EmissionTable::build(&grid, antennas, lambda, workers);
            assert_eq!(par.len(), grid.len());
            for idx in 0..grid.len() {
                assert_eq!(
                    seq.expected(idx).to_bits(),
                    par.expected(idx).to_bits(),
                    "{rows} rows, workers {workers}, cell {idx}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// 5. The f32 tier: tolerance oracle (emission deltas + letter parity).
// ---------------------------------------------------------------------

#[test]
fn f32_direct_emission_build_stays_in_tolerance_and_is_thread_deterministic() {
    let (antennas, _) = paper_rig();
    let lambda = 0.3276;
    for grid in emission_grids() {
        let rows = grid.ny;
        let exact = EmissionTable::build(&grid, antennas, lambda, 1);
        let cast = EmissionTableF32::from_table(&exact);
        let direct = EmissionTableF32::build_direct(&grid, antennas, lambda, 1);
        assert_eq!(direct.len(), grid.len());
        let mut worst = 0.0f64;
        for idx in 0..grid.len() {
            let delta = wrap_pi(direct.expected(idx) as f64 - cast.expected(idx) as f64).abs();
            worst = worst.max(delta);
            assert!(delta <= 1e-4, "{rows} rows cell {idx}: |Δ| = {delta} vs the cast spec");
        }
        println!("f32 direct-vs-cast worst wrap-aware delta ({rows} rows): {worst:.3e} rad");
        for workers in EMISSION_WORKERS {
            let par = EmissionTableF32::build_direct(&grid, antennas, lambda, workers);
            assert_eq!(par.len(), grid.len());
            for idx in 0..grid.len() {
                assert_eq!(
                    direct.expected(idx).to_bits(),
                    par.expected(idx).to_bits(),
                    "{rows} rows, workers {workers}, cell {idx}"
                );
            }
        }
    }
}

fn track_with_kernel(setup: &TrialSetup, seed: u64, kernel: KernelOptions) -> Vec<Vec2> {
    let (_, reports) = simulate_reports(setup, seed);
    let cfg = polardraw_config_for(setup);
    let mut online = OnlineTracker::new(cfg, OnlineOptions::batch().with_kernel(kernel));
    online.extend(&reports);
    online.finalize().trail.points
}

/// The PR-6-style end-to-end oracle for the `F32Tolerance` grid tier:
/// with the fig13 reduced config's shared artifact entry prewarmed by
/// the *direct* f32 build (so the fast kernel decodes against
/// direct-built tables, not the cast), letter accuracy must hold parity
/// with the exact kernel up to the usual one-trial slack.
#[test]
fn f32_direct_letter_accuracy_parity_on_reduced_fig13() {
    const LETTERS: [char; 8] = ['C', 'I', 'L', 'N', 'O', 'S', 'U', 'Z'];
    // One rig serves every letter at this fidelity; win its f32 slot
    // with the direct build before any tracker resolves it.
    let cfg = polardraw_config_for(&TrialSetup::letter('L').with_cell_scale(8.0));
    let grid = Grid::covering(cfg.board_min, cfg.board_max, cfg.hmm.cell_m);
    let arts = artifacts_for(&grid, cfg.antennas, cfg.hmm.wavelength_m);
    assert!(
        arts.prewarm_f32_direct(2),
        "direct f32 build must win the artifact slot before any decode"
    );

    let rec = LetterRecognizer::new();
    let mut exact_correct = 0usize;
    let mut fast_correct = 0usize;
    let mut total = 0usize;
    for (i, ch) in LETTERS.into_iter().enumerate() {
        for t in 0..2u64 {
            let seed = derive_seed_indexed(42, "fig13_parity", i as u64 * 10 + t);
            let setup = TrialSetup::letter(ch).with_cell_scale(8.0);
            let exact = track_with_kernel(&setup, seed, KernelOptions::exact());
            let fast = track_with_kernel(&setup, seed, KernelOptions::fast());
            exact_correct += usize::from(rec.classify(&exact) == Some(ch));
            fast_correct += usize::from(rec.classify(&fast) == Some(ch));
            total += 1;
        }
    }
    println!(
        "fig13 direct-f32 parity: exact {exact_correct}/{total}, fast {fast_correct}/{total}"
    );
    assert!(
        fast_correct + 1 >= exact_correct,
        "direct f32 tables lost letter accuracy: {fast_correct}/{total} vs exact \
         {exact_correct}/{total}"
    );
}
