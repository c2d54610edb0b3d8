//! Ablation benchmarks over the decoder's design knobs (DESIGN.md's
//! "design choices worth ablating"): HMM cell size, beam width, and
//! pre-processing window length. These measure the *runtime* half of
//! each trade-off; the accuracy half comes from the `repro` harness
//! with the corresponding config overrides.

use polardraw_bench::harness::Bench;
use polardraw_bench::letter_reports;
use polardraw_core::hmm::DEFAULT_BEAM_WIDTH;
use polardraw_core::preprocess::{preprocess, PreprocessConfig};
use polardraw_core::{PolarDraw, PolarDrawConfig};
use rfid_sim::TrajectoryTracker;

fn main() {
    let mut bench = Bench::from_args("ablations");

    let cell_reports = letter_reports('S', 21);
    for cell_mm in [2.5f64, 5.0, 10.0] {
        let mut cfg = PolarDrawConfig::default();
        cfg.hmm.cell_m = cell_mm / 1000.0;
        let pd = PolarDraw::new(cfg);
        bench.bench(&format!("ablation/cell_size/{cell_mm}mm"), || pd.track(&cell_reports));
    }

    let window_reports = letter_reports('S', 22);
    for window_ms in [25u64, 50, 100] {
        let cfg = PreprocessConfig { window_s: window_ms as f64 / 1000.0 };
        bench.bench(&format!("ablation/window_length/{window_ms}ms"), || {
            preprocess(&window_reports, &cfg)
        });
    }

    let smoother_reports = letter_reports('S', 23);
    for (label, on) in [("off", false), ("kalman_rts", true)] {
        let pd =
            PolarDraw::new(PolarDrawConfig { smooth_output: on, ..PolarDrawConfig::default() });
        bench.bench(&format!("ablation/output_smoother/{label}"), || {
            pd.track(&smoother_reports)
        });
    }

    // Beam width is exercised through `hmm::decode` in the decode
    // bench; assert here (cheaply, once) that the default stays within
    // the range the accuracy sweeps were tuned for.
    assert!((500..=10_000).contains(&DEFAULT_BEAM_WIDTH));

    bench.finish();
}
