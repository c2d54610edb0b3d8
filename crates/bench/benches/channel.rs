//! Channel throughput: the emission-table builds against the per-cell
//! loop they replaced, and the one link evaluator over a pose cloud.
//!
//! Two row families (`scripts/bench.sh --suite channel` regenerates
//! the committed `BENCH_channel.json` and gates the floors):
//!
//! * `channel/emission/…` — building the decoder's Δθ emission table
//!   at paper fidelity (the default board at 2.5 mm, the exact grid
//!   every accuracy trial decodes against) plus the 5 mm rung of the
//!   matrix. `per_link` is the honest pre-batch baseline: one
//!   `expected_dtheta21(grid.center(idx))` per cell, exactly the loop
//!   `EmissionTable::build` used to run. `batch` is the bitwise row
//!   kernel. The fast decode kernel's `f32` table is this table cast
//!   per cell (`EmissionTableF32::from_table`), so it has no build of
//!   its own.
//! * `channel/link/{scalar,jones}/poses512` — the simulator's
//!   whiteboard rig frozen once (`RigFactors::freeze`), then
//!   `RigFactors::evaluate` over the same 512 poses, on the legacy
//!   cos²β channel and the full-polarimetric one.

use polardraw_bench::harness::Bench;
use polardraw_core::distance::expected_dtheta21;
use polardraw_core::hmm::{EmissionTable, Grid};
use polardraw_core::PolarDrawConfig;
use rf_core::rng::rng_from_seed;
use rf_core::Vec3;
use rf_physics::{ChannelModel, Polarimetry, RigFactors};

/// The pre-batch emission build, verbatim: one forward-model call per
/// grid cell through the scalar per-cell API.
fn per_link_emission(grid: &Grid, antennas: [Vec3; 2], wavelength_m: f64) -> Vec<f64> {
    let mut values = vec![0.0; grid.len()];
    for (idx, v) in values.iter_mut().enumerate() {
        *v = expected_dtheta21(grid.center(idx), antennas, wavelength_m);
    }
    values
}

/// Deterministic pose cloud in the writing volume: `(position, dipole,
/// t)` per pose (the link workload).
fn pose_cloud(n: usize) -> Vec<(Vec3, Vec3, f64)> {
    let mut rng = rng_from_seed(0xC0FFEE);
    let mut poses = Vec::with_capacity(n);
    for _ in 0..n {
        let pos = Vec3::new(
            rng.gen_range(-0.3..0.3),
            rng.gen_range(0.5..1.0),
            rng.gen_range(-0.05..0.05),
        );
        let dipole = Vec3::new(
            rng.gen_range(-1.0..1.0),
            rng.gen_range(-1.0..1.0),
            rng.gen_range(-1.0..1.0),
        )
        .normalized()
        .unwrap_or(Vec3::Y);
        poses.push((pos, dipole, rng.gen_range(0.0..5.0)));
    }
    poses
}

fn main() {
    let mut bench = Bench::from_args("channel");
    let cfg = PolarDrawConfig::default();
    let lambda = cfg.hmm.wavelength_m;

    // Emission-table build matrix: paper fidelity first (the headline
    // rows the gates track), then the coarser rung.
    for (cell_label, cell_m) in [("cell2.5mm", 0.0025), ("cell5mm", 0.005)] {
        let grid = Grid::covering(cfg.board_min, cfg.board_max, cell_m);
        bench.bench(&format!("channel/emission/per_link/{cell_label}"), || {
            per_link_emission(&grid, cfg.antennas, lambda)
        });
        bench.bench(&format!("channel/emission/batch/{cell_label}"), || {
            EmissionTable::build(&grid, cfg.antennas, lambda, 1)
        });
    }

    // Link evaluation: the simulator's whiteboard rig, 512 poses.
    let poses = pose_cloud(512);
    let scalar_ch = ChannelModel::two_antenna_whiteboard(15f64.to_radians(), 0.56, 0.30);
    let mut jones_ch = scalar_ch.clone();
    jones_ch.polarimetry = Polarimetry::Jones;
    for (pol_label, ch) in [("scalar", &scalar_ch), ("jones", &jones_ch)] {
        let rig = RigFactors::freeze(ch);
        bench.bench(&format!("channel/link/{pol_label}/poses512"), || {
            poses.iter().map(|&(pos, dipole, t)| rig.evaluate(0, pos, dipole, t)).collect::<Vec<_>>()
        });
    }

    {
        let grid = Grid::covering(cfg.board_min, cfg.board_max, 0.0025);
        bench.note(format!(
            "emission workload: grid {}x{} = {} cells at 2.5 mm; board {:?}..{:?}, lambda {:.4} m",
            grid.nx,
            grid.ny,
            grid.len(),
            cfg.board_min,
            cfg.board_max,
            lambda,
        ));
    }

    bench.finish();
}
