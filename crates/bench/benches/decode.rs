//! Viterbi decode throughput: the beam decoder (`hmm::decode`) across a
//! (cell size × beam width × step count) matrix, plus the retained
//! naive reference at matching workloads so the speedup is measured,
//! not asserted.
//!
//! The workload is the paper-fidelity rig: the default `PolarDrawConfig`
//! board and antennas, a 100-step synthetic observation stream with a
//! slowly-turning direction prior and a hyperbola measurement on every
//! step — the same shape `repro`'s accuracy trials decode thousands of
//! times. `decode/opt/cell2.5mm/beam2500/steps100` versus
//! `decode/ref/cell2.5mm/beam2500/steps100` is the headline pair the
//! committed `BENCH_decode.json` tracks (`scripts/bench.sh` regenerates
//! it; `bench_check --min-speedup` enforces the speedup floor).
//!
//! Kernel rows (see `KernelOptions` in `polardraw_core::hmm`):
//!
//! * `decode/opt/…` — the fast kernel (`KernelOptions::fast()`: f32
//!   tables + adaptive beam), the headline the speedup floor gates.
//! * `decode/exact/…` — the bit-exact f64 SoA path (what every
//!   correctness-critical caller runs by default); `…/mixed100` is the
//!   same stream with every third step still, ungated.
//! * `decode/f32/…` — f32 tables *without* the adaptive beam, so the
//!   adaptive contribution is `f32 / opt` and cannot silently regress
//!   (`scripts/bench.sh` gates it).

use polardraw_bench::harness::Bench;
use polardraw_core::distance::FeasibleRegion;
use polardraw_core::hmm::{
    decode, viterbi_reference, FixedLagDecoder, Grid, HmmConfig, KernelOptions, StepObservation,
};
use polardraw_core::PolarDrawConfig;
use rf_core::Vec2;

/// The synthetic observation stream every decode bench shares: steady
/// ~4 mm steps with a slowly-turning direction and a constant hyperbola
/// measurement (values match the long-standing `components.rs` decode
/// workload).
fn make_steps(n: usize) -> Vec<StepObservation> {
    (0..n)
        .map(|i| StepObservation {
            region: FeasibleRegion { min_dist: 0.002, max_dist: 0.01 },
            direction: Some(Vec2::from_angle(i as f64 * 0.1)),
            dtheta21: Some(0.3),
            target_dist: 0.004,
        })
        .collect()
}

/// `make_steps` with every third step still (`direction: None`): on a
/// still step the distance term reads each candidate's actual centre
/// distance, the cost an all-directional stream never shows.
fn make_mixed_steps(n: usize) -> Vec<StepObservation> {
    let mut steps = make_steps(n);
    for obs in steps.iter_mut().skip(2).step_by(3) {
        obs.direction = None;
    }
    steps
}

fn main() {
    let mut bench = Bench::from_args("decode");
    let cfg = PolarDrawConfig::default();
    let hmm = HmmConfig::default();

    // Fast-kernel decoder: cell × beam matrix at the repro step count.
    let steps100 = make_steps(100);
    let fast = KernelOptions::fast();
    for (cell_label, cell_m) in [("cell2.5mm", 0.0025), ("cell5mm", 0.005), ("cell10mm", 0.01)] {
        let grid = Grid::covering(cfg.board_min, cfg.board_max, cell_m);
        let config = HmmConfig { cell_m, ..hmm };
        for beam in [500usize, 2500] {
            bench.bench(&format!("decode/opt/{cell_label}/beam{beam}/steps100"), || {
                decode(
                    &grid,
                    cfg.antennas,
                    cfg.start_hint,
                    &steps100,
                    &config,
                    beam,
                    fast,
                )
            });
        }
    }

    // Kernel layers in isolation at the headline workload: the exact
    // f64 SoA path (the default every correctness-critical caller
    // runs) and the f32 path without the adaptive beam (so the
    // adaptive contribution is measurable as `f32 / opt`).
    {
        let grid = Grid::covering(cfg.board_min, cfg.board_max, 0.0025);
        let config = HmmConfig { cell_m: 0.0025, ..hmm };
        bench.bench("decode/exact/cell2.5mm/beam2500/steps100", || {
            decode(
                &grid,
                cfg.antennas,
                cfg.start_hint,
                &steps100,
                &config,
                2500,
                KernelOptions::exact(),
            )
        });
        let mixed100 = make_mixed_steps(100);
        bench.bench("decode/exact/cell2.5mm/beam2500/mixed100", || {
            decode(
                &grid,
                cfg.antennas,
                cfg.start_hint,
                &mixed100,
                &config,
                2500,
                KernelOptions::exact(),
            )
        });
        let f32_only = KernelOptions::fast().with_adaptive(None);
        bench.bench("decode/f32/cell2.5mm/beam2500/steps100", || {
            decode(
                &grid,
                cfg.antennas,
                cfg.start_hint,
                &steps100,
                &config,
                2500,
                f32_only,
            )
        });
    }

    // Step-count axis (decode cost is linear in steps; this guards it).
    {
        let cell_m = 0.005;
        let grid = Grid::covering(cfg.board_min, cfg.board_max, cell_m);
        let config = HmmConfig { cell_m, ..hmm };
        for n in [25usize, 400] {
            let steps = make_steps(n);
            bench.bench(&format!("decode/opt/cell5mm/beam2500/steps{n}"), || {
                decode(
                    &grid,
                    cfg.antennas,
                    cfg.start_hint,
                    &steps,
                    &config,
                    2500,
                    fast,
                )
            });
        }
    }

    // Online per-window step latency at paper fidelity, as fixed work:
    // every iteration builds a fresh `FixedLagDecoder` (lag 64, the
    // streaming default) and runs the whole `steps100` cycle through
    // it, so every sample times the same 100 steps, ramp-up included.
    // The row is per cycle; ÷ 100 is the mean per-window step.
    // `scripts/verify.sh --quick-bench` gates the median at 1 s per
    // cycle (10 ms per step) via `bench_check --max-median` — the
    // decoder must keep up with the stream's window period with room
    // to spare.
    {
        let cell_m = 0.0025;
        let grid = Grid::covering(cfg.board_min, cfg.board_max, cell_m);
        let config = HmmConfig { cell_m, ..hmm };
        let cycle = |kernel: KernelOptions| {
            let mut decoder =
                FixedLagDecoder::new(grid, cfg.antennas, cfg.start_hint, config, 2500, 64);
            decoder.set_kernel(kernel);
            steps100.iter().map(|obs| decoder.step(obs)).sum::<usize>()
        };
        bench.bench("decode/online/cycle100/cell2.5mm/beam2500/lag64", || {
            cycle(KernelOptions::exact())
        });

        // The same live-session cycle on the fast kernel: what a
        // throughput-first deployment (OnlineOptions::with_kernel)
        // actually pays per window.
        bench.bench("decode/online/cycle100/fast/cell2.5mm/beam2500/lag64", || cycle(fast));
    }

    // Retained naive reference at the two headline workloads.
    for (cell_label, cell_m) in [("cell2.5mm", 0.0025), ("cell5mm", 0.005)] {
        let grid = Grid::covering(cfg.board_min, cfg.board_max, cell_m);
        let config = HmmConfig { cell_m, ..hmm };
        bench.bench(&format!("decode/ref/{cell_label}/beam2500/steps100"), || {
            viterbi_reference(&grid, cfg.antennas, cfg.start_hint, &steps100, &config, 2500)
        });
    }

    // Work counters for the headline workload: what the decode did, not
    // just how long it took. Each counter decode runs only when a row it
    // describes is selected.
    {
        let grid = Grid::covering(cfg.board_min, cfg.board_max, 0.0025);
        for (label, steps) in [("steps100", make_steps(100)), ("mixed100", make_mixed_steps(100))] {
            if !bench.selects(&format!("decode/exact/cell2.5mm/beam2500/{label}")) {
                continue;
            }
            let (_, stats) = decode(
                &grid,
                cfg.antennas,
                cfg.start_hint,
                &steps,
                &hmm,
                2500,
                KernelOptions::exact(),
            );
            bench.note(format!(
                "decode/exact/cell2.5mm/beam2500/{label} work: {} expansions, {} touched cells, \
                 {} beam-pruned, {} below-min, mean frontier {:.0}, max frontier {}, \
                 {} carried of {} steps",
                stats.expansions,
                stats.touched_cells,
                stats.pruned_beam,
                stats.pruned_below_min,
                stats.mean_frontier(),
                stats.max_frontier,
                stats.carried_steps,
                stats.steps,
            ));
        }
        if bench.selects("decode/opt/cell2.5mm/beam2500/steps100") {
            let (_, fstats) = decode(
                &grid,
                cfg.antennas,
                cfg.start_hint,
                &steps100,
                &hmm,
                2500,
                fast,
            );
            bench.note(format!(
                "decode/opt (fast kernel) work: {} expansions, {} touched cells, {} beam-pruned, \
                 mean frontier {:.0}, max frontier {}, adaptive shrank {} of {} steps",
                fstats.expansions,
                fstats.touched_cells,
                fstats.pruned_beam,
                fstats.mean_frontier(),
                fstats.max_frontier,
                fstats.adaptive_shrunk_steps,
                fstats.steps,
            ));
        }
        bench.note(format!(
            "grid {}x{} = {} cells; board {:?}..{:?}",
            grid.nx,
            grid.ny,
            grid.len(),
            cfg.board_min,
            cfg.board_max,
        ));
    }

    bench.finish();
}
