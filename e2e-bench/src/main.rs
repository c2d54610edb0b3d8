//! End-to-end benchmark of the PolarDraw reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2e-bench/Cargo.toml -- \
//!     --workload letters|serve|serve-durable --seed N --seconds S --trace 0|1
//! ```
//!
//! One invocation runs one workload for one seed. It prints every
//! metric by name with its unit, then, as the last line, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones, measured with no spans recorded;
//! with `--trace 1` they are the per-layer ones from a traced run (see
//! `README.md` in this directory). The process exits 1 when an output
//! check fails and 2 on a bad argument.

mod letters;
mod pacing;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::Command;
use std::time::Instant;
use trace::NameTotals;

/// Set-up is repeated in this many child processes before the workload
/// runs and as many after it, besides the measuring process's own, and
/// `setup_s` is the median of all of them. Child processes start cold,
/// as a real deployment does: the decode artifact cache is per process.
/// Probing at both ends of the run keeps a burst of load from elsewhere
/// on the host from moving every probe at once.
const SETUP_PROBES: usize = 12;

/// How far the layer spans' summed self-times may fall from the traced
/// total before the per-layer attribution counts as incomplete.
const ATTRIBUTION_TOLERANCE: f64 = 0.1;

/// The workloads, by command-line name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Letters,
    Serve,
    ServeDurable,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "letters" => Some(Workload::Letters),
            "serve" => Some(Workload::Serve),
            "serve-durable" => Some(Workload::ServeDurable),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Letters => "letters",
            Workload::Serve => "serve",
            Workload::ServeDurable => "serve-durable",
        }
    }
}

/// One reported figure.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count and percentile actually reported, when relevant.
    pub note: String,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name,
            value,
            unit,
            note: String::new(),
        }
    }

    /// A percentile metric; carries its sample count and the percentile
    /// the sample supports. `None` (too few samples) reads as 0.
    pub fn pct(
        name: &'static str,
        p: Option<stats::Percentile>,
        scale: f64,
        unit: &'static str,
    ) -> Metric {
        match p {
            Some(p) => Metric {
                name,
                value: p.value * scale,
                unit,
                note: format!("p{:.2} of n={}", p.pct, p.n),
            },
            None => Metric {
                name,
                value: 0.0,
                unit,
                note: "too few samples".to_string(),
            },
        }
    }
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (trials, or reports offered).
    pub attempted: u64,
    /// Operations that failed (degenerate trials, or reports never consumed).
    pub failed: u64,
    /// Failed output checks; any entry makes the run incorrect.
    pub problems: Vec<String>,
    /// End-to-end metrics shared by every workload (besides `setup_s`
    /// and `peak_rss_mb`, which `main` adds).
    pub e2e: Vec<Metric>,
    /// The workload's own end-to-end figures, printed by name only.
    pub extra: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// Count, total and self time per span name (traced runs only).
    pub spans: BTreeMap<&'static str, NameTotals>,
    /// The traced pass's busy wall time, seconds (traced runs only).
    pub traced_total: f64,
}

/// End-to-end metrics reported by every workload, in output order.
pub const E2E_METRICS: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p99", "ms"),
    ("capacity_reports_per_s", "1/s"),
    ("delivered_share", "share"),
];

/// Per-layer metrics reported by every traced run, in output order. A
/// layer the workload does not exercise reads 0.
pub const LAYER_METRICS: [(&str, &str); 38] = [
    ("hmm.artifacts_build_ms", "ms"),
    ("pen_sim.write_text_ms", "ms"),
    ("rfid_sim.inventory_ms", "ms"),
    ("rfid_sim.reports", "count"),
    ("rfid_sim.traffic_ms", "ms"),
    ("gen.late_ms_p99", "ms"),
    ("core.track_ms", "ms"),
    ("hmm.steps", "count"),
    ("hmm.expansions", "count/step"),
    ("hmm.touched_cells", "count/step"),
    ("hmm.mean_frontier", "count"),
    ("hmm.beam_kept_ratio", "share"),
    ("hmm.carried_steps", "count"),
    ("hmm.adaptive_shrunk_steps", "count"),
    ("preprocess.windows", "count"),
    ("preprocess.empty_windows", "count"),
    ("preprocess.spurious_rejected", "count"),
    ("recognition.classify_ms", "ms"),
    ("recognition.procrustes_ms", "ms"),
    ("fleet.add_session_ms", "ms"),
    ("fleet.offer_us", "us"),
    ("fleet.drain_ms_p50", "ms"),
    ("fleet.drain_ms_p99", "ms"),
    ("fleet.finish_session_ms", "ms"),
    ("fleet.woken_per_drain", "count"),
    ("fleet.reports_per_drain", "count"),
    ("fleet.busy_share", "share"),
    ("fleet.deferred", "count"),
    ("fleet.peak_level", "count"),
    ("online.late_dropped", "count"),
    ("fleet.drain_ms_sealing", "ms"),
    ("durability.checkpoints", "count"),
    ("durability.seal_ms", "ms"),
    ("durability.checkpoint_kb", "KB"),
    ("durability.open_ms", "ms"),
    ("durability.recover_ms", "ms"),
    ("trace.attributed_share", "share"),
    ("trace.overhead_pct", "%"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_probe: bool,
    write_expected: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("e2e-bench: {msg}");
    eprintln!(
        "usage: e2e-bench --workload letters|serve|serve-durable --seed N --seconds S --trace 0|1\n       \
         e2e-bench --write-expected   (re-record expected/*.tsv; run from the repository root)"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: Workload::Letters,
        seed: 1,
        seconds: 10.0,
        trace: false,
        setup_probe: false,
        write_expected: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value();
                workload = Some(
                    Workload::parse(&v)
                        .unwrap_or_else(|| usage(&format!("unknown workload {v:?}"))),
                );
            }
            "--seed" => {
                let v = value();
                args.seed = v
                    .parse()
                    .unwrap_or_else(|_| usage(&format!("bad --seed {v:?}")));
            }
            "--seconds" => {
                let v = value();
                args.seconds = match v.parse::<f64>() {
                    Ok(s) if s.is_finite() && s >= 1.0 => s,
                    _ => usage(&format!("bad --seconds {v:?} (a number >= 1)")),
                };
            }
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    v => usage(&format!("bad --trace {v:?} (0 or 1)")),
                };
            }
            "--setup-probe" => args.setup_probe = true,
            "--write-expected" => args.write_expected = true,
            other => usage(&format!("unknown flag {other:?}")),
        }
    }
    match workload {
        Some(w) => args.workload = w,
        None if args.write_expected => {}
        None => usage("--workload is required"),
    }
    args
}

/// Peak resident set size of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run set-up once in a fresh child process; its wall time and the part
/// of it spent building decode artifacts, in seconds.
fn probe_setup(workload: Workload) -> Result<(f64, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--setup-probe", "--workload", workload.name()])
        .output()
        .map_err(|e| format!("set-up probe did not start: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "set-up probe failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let times: Vec<f64> = text
        .split_whitespace()
        .map_while(|v| v.parse().ok())
        .collect();
    match times[..] {
        [setup, artifacts] => Ok((setup, artifacts)),
        _ => Err(format!("set-up probe printed {text:?}, not two times")),
    }
}

/// Run [`SETUP_PROBES`] set-up probes, collecting their times.
fn probe_setups(
    workload: Workload,
    samples: &mut Vec<(f64, f64)>,
    problems: &mut Vec<String>,
) {
    for _ in 0..SETUP_PROBES {
        match probe_setup(workload) {
            Ok(s) => samples.push(s),
            Err(e) => problems.push(e),
        }
    }
}

fn print_metric(m: &Metric) {
    if m.note.is_empty() {
        println!("  {:<30} {:>14.6} {}", m.name, m.value, m.unit);
    } else {
        println!(
            "  {:<30} {:>14.6} {:<6} ({})",
            m.name, m.value, m.unit, m.note
        );
    }
}

/// The final JSON line. Metric names and units are fixed identifiers, so
/// no escaping is needed; non-finite values are reported as problems.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Order `found` by the names in `spec`, filling names the workload did
/// not produce with 0.
fn in_spec_order(spec: &[(&'static str, &'static str)], found: &[Metric]) -> Vec<Metric> {
    spec.iter()
        .map(|&(name, unit)| {
            found
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or_else(|| Metric::new(name, 0.0, unit))
        })
        .collect()
}

fn main() {
    let args = parse_args();
    if args.write_expected {
        letters::write_expected();
        serve::write_expected();
        return;
    }
    if args.setup_probe {
        let t = Instant::now();
        let artifacts_s = match args.workload {
            Workload::Letters => letters::setup().artifacts_s,
            Workload::Serve | Workload::ServeDurable => {
                serve::setup(args.workload == Workload::ServeDurable).0.artifacts_s
            }
        };
        println!("{} {artifacts_s}", t.elapsed().as_secs_f64());
        return;
    }

    println!(
        "e2e-bench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut problems = Vec::new();
    let mut setup_samples = Vec::new();
    probe_setups(args.workload, &mut setup_samples, &mut problems);

    let t = Instant::now();
    let mut outcome = match args.workload {
        Workload::Letters => {
            let rig = letters::setup();
            setup_samples.push((t.elapsed().as_secs_f64(), rig.artifacts_s));
            letters::run(&rig, args.seed, args.seconds, args.trace)
        }
        Workload::Serve | Workload::ServeDurable => {
            let durable = args.workload == Workload::ServeDurable;
            let (rig, router) = serve::setup(durable);
            setup_samples.push((t.elapsed().as_secs_f64(), rig.artifacts_s));
            serve::run(&rig, router, durable, args.seed, args.seconds, args.trace)
        }
    };
    problems.append(&mut outcome.problems);
    probe_setups(args.workload, &mut setup_samples, &mut problems);
    let (setup_s, artifacts_s): (Vec<f64>, Vec<f64>) = setup_samples.into_iter().unzip();
    let note = format!("median of n={} cold set-ups", setup_s.len());
    outcome.layers.push(Metric {
        note: note.clone(),
        ..Metric::new("hmm.artifacts_build_ms", stats::median(&artifacts_s) * 1e3, "ms")
    });

    let mut e2e = vec![
        Metric {
            name: "setup_s",
            value: stats::median(&setup_s),
            unit: "s",
            note,
        },
        Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    e2e.append(&mut outcome.e2e);

    println!("end-to-end:");
    for m in e2e.iter().chain(&outcome.extra) {
        print_metric(m);
    }
    let reported = if args.trace {
        println!("per-layer (traced run):");
        let layers = in_spec_order(&LAYER_METRICS, &outcome.layers);
        for m in &layers {
            print_metric(m);
        }
        println!(
            "self time by span (share of the traced total, {:.3} s):",
            outcome.traced_total
        );
        for (name, t) in &outcome.spans {
            println!(
                "  {:<30} {:>7} calls {:>12.3} ms self {:>7.2}%",
                name,
                t.count,
                t.self_time * 1e3,
                100.0 * t.self_time / outcome.traced_total.max(1e-9)
            );
        }
        let share = layers
            .iter()
            .find(|m| m.name == "trace.attributed_share")
            .map_or(0.0, |m| m.value);
        if (share - 1.0).abs() > ATTRIBUTION_TOLERANCE {
            problems.push(format!(
                "layer self-times cover {:.1}% of the traced total, not within {:.0}%",
                100.0 * share,
                100.0 * ATTRIBUTION_TOLERANCE
            ));
        }
        layers
    } else {
        in_spec_order(&E2E_METRICS, &e2e)
    };
    for m in &reported {
        if !m.value.is_finite() {
            problems.push(format!("{} is not finite", m.name));
        }
    }
    let reported: Vec<Metric> = reported
        .into_iter()
        .map(|m| {
            if m.value.is_finite() {
                m
            } else {
                Metric { value: 0.0, ..m }
            }
        })
        .collect();
    for p in &problems {
        println!("CHECK FAILED: {p}");
    }
    let correct = problems.is_empty();
    println!(
        "{}",
        result_json(correct, outcome.attempted.max(1), outcome.failed, &reported)
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rf_core::Json;

    /// The metric lists the binary prints must be exactly those that
    /// BENCHMARK.json declares, with the same units.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let spec =
            Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m.get("name")
                            .and_then(Json::as_str)
                            .expect("name")
                            .to_string(),
                        m.get("unit")
                            .and_then(Json::as_str)
                            .expect("unit")
                            .to_string(),
                    )
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&E2E_METRICS));
        assert_eq!(names("per_layer"), own(&LAYER_METRICS));
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        // `serve` runs by hand only: see README.md, Steadiness.
        assert_eq!(workloads, ["letters", "serve-durable"]);
        for w in ["letters", "serve", "serve-durable"] {
            assert_eq!(Workload::parse(w).map(Workload::name), Some(w));
        }
        assert_eq!(spec.req_f64("run_seconds").ok(), Some(serve::RECORDED_SECONDS));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_json(true, 3, 0, &[Metric::new("setup_s", 0.8127, "s")]);
        let v = Json::parse(&line).expect("valid JSON");
        assert_eq!(v.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(v.req_f64("attempted").ok(), Some(3.0));
        assert_eq!(v.req_f64("failed").ok(), Some(0.0));
        let m = v
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("metric");
        assert_eq!(m.req_f64("value").ok(), Some(0.8127));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("s"));
        match &v {
            Json::Obj(map) => assert_eq!(map.len(), 4),
            other => panic!("not an object: {other:?}"),
        }
    }

    #[test]
    fn missing_layers_read_zero_in_spec_order() {
        let got = in_spec_order(&LAYER_METRICS, &[Metric::new("fleet.offer_us", 2.5, "us")]);
        assert_eq!(got.len(), LAYER_METRICS.len());
        assert!(got
            .iter()
            .zip(LAYER_METRICS.iter())
            .all(|(m, s)| m.name == s.0 && m.unit == s.1));
        assert_eq!(
            got.iter()
                .find(|m| m.name == "fleet.offer_us")
                .map(|m| m.value),
            Some(2.5)
        );
        assert_eq!(got.iter().filter(|m| m.value != 0.0).count(), 1);
    }
}
