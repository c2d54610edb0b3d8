//! End-to-end tracker benchmarks: PolarDraw vs Tagoram vs RF-IDraw on
//! identical-length report streams — the runtime side of the §5.3
//! comparison (accuracy is the `repro` harness's job).

use baselines::{RfIdraw, RfIdrawConfig, Tagoram, TagoramConfig};
use polardraw_bench::harness::Bench;
use polardraw_bench::letter_reports;
use polardraw_core::{PolarDraw, PolarDrawConfig};
use rfid_sim::TrajectoryTracker;

fn main() {
    let mut bench = Bench::from_args("trackers");

    let reports = letter_reports('W', 11);

    let pd = PolarDraw::new(PolarDrawConfig::default());
    bench.bench("trackers/letter_W/polardraw_2ant", || pd.track(&reports));

    let nopol_cfg = PolarDrawConfig { use_polarization: false, ..PolarDrawConfig::default() };
    let nopol = PolarDraw::new(nopol_cfg);
    bench.bench("trackers/letter_W/polardraw_no_polarization", || nopol.track(&reports));

    let tagoram = Tagoram::new(TagoramConfig::two_antenna());
    bench.bench("trackers/letter_W/tagoram_2ant", || tagoram.track(&reports));

    let rfidraw = RfIdraw::new(RfIdrawConfig::four_antenna());
    bench.bench("trackers/letter_W/rfidraw_4ant", || rfidraw.track(&reports));

    // §3.5: Viterbi decoding "can be computed in real-time even with an
    // embedded mini PC". One 50 ms window of a ~9 s letter session must
    // decode in ≪ 50 ms: we measure the whole track and report
    // per-iteration time; divide by ~180 windows to compare.
    let rt_reports = letter_reports('O', 13);
    let rt = PolarDraw::new(PolarDrawConfig::default());
    bench.bench("trackers/realtime/full_letter_decode_budget", || rt.track(&rt_reports));

    bench.finish();
}
