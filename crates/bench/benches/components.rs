//! Component micro-benchmarks: the physics substrate and the stages of
//! the PolarDraw pipeline. Backs the §3.5 real-time claim: one 50 ms
//! window must be processable in far less than 50 ms.

use polardraw_bench::harness::Bench;
use polardraw_bench::letter_reports;
use polardraw_core::hmm::{
    decode, Grid, HmmConfig, KernelOptions, StepObservation, DEFAULT_BEAM_WIDTH,
};
use polardraw_core::preprocess::{preprocess, PreprocessConfig};
use rf_core::{json, Vec2, Vec3};
use rf_physics::{ChannelModel, RigFactors};

fn main() {
    let mut bench = Bench::from_args("components");

    let ch = ChannelModel::two_antenna_whiteboard(15f64.to_radians(), 0.56, 0.30);
    let dipole = Vec3::new(0.1, 0.95, 0.3).normalized().unwrap();
    let rig = RigFactors::freeze(&ch);
    bench.bench("channel/evaluate_one_link", || {
        rig.evaluate(0, Vec3::new(0.0, 0.7, 0.0), dipole, 0.1)
    });

    // The full-polarimetric path on the same rig: what `--channel
    // jones` pays per link relative to the scalar fast path above.
    let mut jones_ch = ch.clone();
    jones_ch.polarimetry = rf_physics::Polarimetry::Jones;
    let jones_rig = RigFactors::freeze(&jones_ch);
    bench.bench("channel/evaluate_one_link_jones", || {
        jones_rig.evaluate(0, Vec3::new(0.0, 0.7, 0.0), dipole, 0.1)
    });

    let cfg = rfid_sim::gen2::Gen2Config::default();
    bench.bench("gen2/round_timing", || {
        cfg.successful_round_duration() + cfg.empty_round_duration()
    });

    let reports = letter_reports('W', 7);
    let pre_cfg = PreprocessConfig::default();
    bench.bench("polardraw/preprocess_letter_stream", || preprocess(&reports, &pre_cfg));

    // Fault-layer overhead: what the injector costs, and what the
    // hardened preprocess pays on a worst-case (reordered + duplicated)
    // stream versus the clean borrow path above.
    let injector = rfid_sim::faults::FaultInjector::new(
        rfid_sim::faults::FaultPlan::at_intensity(0.5),
        11,
    );
    bench.bench("faults/inject_letter_stream", || injector.inject(&reports));
    let adversarial = injector.inject(&reports);
    bench.bench("polardraw/preprocess_adversarial_stream", || {
        preprocess(&adversarial, &pre_cfg)
    });

    let grid = Grid::covering(Vec2::new(-0.3, 0.5), Vec2::new(0.3, 0.9), 0.0025);
    let rig = [Vec3::new(-0.28, 0.15, 0.65), Vec3::new(0.28, 0.15, 0.65)];
    let steps: Vec<StepObservation> = (0..100)
        .map(|i| StepObservation {
            region: polardraw_core::distance::FeasibleRegion {
                min_dist: 0.002,
                max_dist: 0.01,
            },
            direction: Some(Vec2::from_angle(i as f64 * 0.1)),
            dtheta21: Some(0.3),
            target_dist: 0.004,
        })
        .collect();
    bench.bench("polardraw/viterbi_100_steps", || {
        let cfg = HmmConfig::default();
        let start = Vec2::new(0.0, 0.7);
        decode(&grid, rig, start, &steps, &cfg, DEFAULT_BEAM_WIDTH, KernelOptions::exact())
    });

    bench.bench("rfid/inventory_one_letter_session", || letter_reports('I', 9));

    // The checkpoint number writers (ungated). A fast-kernel seal's
    // live frontier is ~400 `[cell, score]` pairs whose scores are
    // f32 values widened to f64; the exact kernel's scores use the
    // full f64 precision. A lag frame's `cells`/`prevs` are u32 arrays
    // of the same length.
    let mut rng = rf_core::Rng64::from_seed(0x5EA1_7E47);
    let cells: Vec<u32> = (0..404).map(|_| (rng.next_u64() % 38_400) as u32).collect();
    let f64_scores: Vec<f64> = (0..404).map(|_| rng.gen_range(-60.0..-20.0)).collect();
    let f32_scores: Vec<f64> = f64_scores.iter().map(|&x| f64::from(x as f32)).collect();
    let mut text = String::new();
    for (row, scores) in [
        ("json/write_number/f32_scores", &f32_scores),
        ("json/write_number/f64_scores", &f64_scores),
    ] {
        bench.bench(row, || {
            text.clear();
            json::write_u32_f64_pairs(cells.iter().copied().zip(scores.iter().copied()), &mut text);
            text.len()
        });
    }
    bench.bench("json/write_u32_array", || {
        text.clear();
        json::write_u32_array(&cells, &mut text);
        text.len()
    });

    bench.finish();
}
