//! `letters`: batch letter trials at paper fidelity on the exact kernel.
//!
//! Each trial runs `write_text` → `Reader::inventory` →
//! `PolarDraw::track_with_diagnostics` → `LetterRecognizer::classify` and
//! `procrustes_distance`, one trial at a time on one thread. Trials come
//! from a fixed corpus (A–Z × [`PENS`] pen seeds); the run seed fixes
//! the order they are taken in, so every run meets different letters
//! first while each trial's outcome stays checkable against the
//! recorded table `expected/letters.tsv` (the exact kernel is
//! deterministic, bit for bit).

use crate::stats::{mean, percentile};
use crate::trace::Tracer;
use crate::{Metric, Outcome};
use experiments::setup::{polardraw_config_for, rig_for, to_tag_poses, TrialSetup};
use pen_sim::{Scene, WriterProfile};
use polardraw_core::hmm::{artifacts_for, DecodeStats, Grid, KernelOptions};
use polardraw_core::{DegradationReport, PolarDraw};
use recognition::{procrustes_distance, LetterRecognizer};
use rf_core::rng::{derive_seed, derive_seed_indexed, rng_from_seed};
use rfid_sim::Reader;
use std::time::Instant;

/// Pen seeds per letter in the corpus.
pub const PENS: usize = 8;

/// Untimed trials before the two passes of a traced run.
const WARMUP_TRIALS: usize = 3;

/// Root of every corpus trial seed.
const CORPUS_SEED: u64 = 0x00E2_E1E7_7E25;

/// The recorded outcome of every corpus trial.
const EXPECTED: &str = include_str!("../expected/letters.tsv");

/// Where `--write-expected` writes the table, relative to the
/// repository root.
const EXPECTED_PATH: &str = "e2e-bench/expected/letters.tsv";

/// Everything a trial needs that set-up builds once: the recognizer's
/// templates, the exact-kernel tracker with its decode artifacts, and
/// the reader.
pub struct Rig {
    recognizer: LetterRecognizer,
    tracker: PolarDraw,
    reader: Reader,
    scene: Scene,
    profile: WriterProfile,
    /// Time spent building the decode artifacts, seconds.
    pub artifacts_s: f64,
}

/// Build the rig. Every single-letter trial shares one board and one
/// antenna rig, so one artifact entry serves the whole corpus.
pub fn setup() -> Rig {
    let setup = TrialSetup::letter('A');
    let recognizer = LetterRecognizer::new();
    let config = polardraw_config_for(&setup);
    let t = Instant::now();
    let grid = Grid::covering(config.board_min, config.board_max, config.hmm.cell_m);
    artifacts_for(&grid, config.antennas, config.hmm.wavelength_m).prewarm();
    let artifacts_s = t.elapsed().as_secs_f64();
    Rig {
        recognizer,
        tracker: PolarDraw::new(config).with_kernel(KernelOptions::exact()),
        reader: Reader::new(rig_for(&setup)),
        scene: setup.scene,
        profile: setup.profile,
        artifacts_s,
    }
}

/// One corpus entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Case {
    pub letter: char,
    pub pen: usize,
    pub seed: u64,
}

/// The whole corpus, letter-major.
pub fn corpus() -> Vec<Case> {
    let mut out = Vec::with_capacity(26 * PENS);
    for (li, &letter) in pen_sim::glyph::ALPHABET.iter().enumerate() {
        for pen in 0..PENS {
            let seed = derive_seed_indexed(CORPUS_SEED, "letters.trial", (li * PENS + pen) as u64);
            out.push(Case { letter, pen, seed });
        }
    }
    out
}

/// The order a run with `seed` takes the corpus in: pen seeds in a
/// seeded order, and within each, the 26 letters in a seeded order. Every
/// run of 26 consecutive trials writes the whole alphabet once, so runs
/// of any seed see the same mix of long and short letters.
pub fn order(seed: u64) -> Vec<usize> {
    let mut rng = rng_from_seed(derive_seed(seed, "letters.order"));
    let mut shuffle = |n: usize| {
        let mut idx: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            idx.swap(i, rng.gen_index(i + 1));
        }
        idx
    };
    let pens = shuffle(PENS);
    let mut out = Vec::with_capacity(26 * PENS);
    for pen in pens {
        out.extend(shuffle(26).into_iter().map(|letter| letter * PENS + pen));
    }
    out
}

/// What one trial produced.
#[derive(Debug, Clone)]
pub struct Trial {
    pub case: Case,
    pub predicted: Option<char>,
    pub procrustes_m: Option<f64>,
    pub reports: usize,
    pub secs: f64,
    pub decode: DecodeStats,
    pub degradation: DegradationReport,
}

/// Run one trial, recording a span around each layer call.
pub fn trial(rig: &Rig, case: Case, tracer: &mut Tracer) -> Trial {
    let t = Instant::now();
    tracer.begin("letters.trial");
    let text = case.letter.to_string();
    let session = tracer.time("pen_sim.write_text", || {
        pen_sim::scene::write_text(
            &rig.scene,
            &rig.profile,
            &text,
            derive_seed(case.seed, "pen"),
        )
    });
    let poses = to_tag_poses(&session.poses);
    let reports = tracer.time("rfid_sim.inventory", || {
        rig.reader
            .inventory(&poses, derive_seed(case.seed, "reader"))
    });
    let out = tracer.time("core.track", || {
        rig.tracker.track_with_diagnostics(&reports)
    });
    let predicted = tracer.time("recognition.classify", || {
        rig.recognizer.classify(&out.trail.points)
    });
    let procrustes_m = tracer.time("recognition.procrustes", || {
        procrustes_distance(&session.truth.points, &out.trail.points, 64)
    });
    tracer.end();
    Trial {
        case,
        predicted,
        procrustes_m,
        reports: reports.len(),
        secs: t.elapsed().as_secs_f64(),
        decode: out.decode_stats,
        degradation: out.degradation,
    }
}

/// How long a batch of trials runs.
#[derive(Debug, Clone, Copy)]
enum Limit {
    Seconds(f64),
    Trials(usize),
}

/// Take trials in `order` (wrapping) until `limit`; returns the trials
/// and the loop's wall time.
fn batch(
    rig: &Rig,
    cases: &[Case],
    order: &[usize],
    limit: Limit,
    tracer: &mut Tracer,
) -> (Vec<Trial>, f64) {
    let t = Instant::now();
    let mut out = Vec::new();
    loop {
        let done = match limit {
            Limit::Seconds(s) => t.elapsed().as_secs_f64() >= s,
            Limit::Trials(n) => out.len() >= n,
        };
        if done {
            break;
        }
        out.push(trial(rig, cases[order[out.len() % order.len()]], tracer));
    }
    (out, t.elapsed().as_secs_f64())
}

/// A recorded outcome: predicted letter and Procrustes distance bits.
type Recorded = (Option<char>, Option<u64>);

/// One row of the recorded table: (letter, pen) and its outcome.
type Row = ((char, usize), Recorded);

fn parse_expected() -> Result<Vec<Row>, String> {
    let mut out = Vec::new();
    for (n, line) in EXPECTED
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.starts_with('#') && !l.is_empty())
    {
        let f: Vec<&str> = line.split('\t').collect();
        let bad = || format!("expected/letters.tsv line {}: {line:?}", n + 1);
        if f.len() != 4 {
            return Err(bad());
        }
        let letter = f[0].chars().next().ok_or_else(bad)?;
        let pen: usize = f[1].parse().map_err(|_| bad())?;
        let predicted = if f[2] == "-" {
            None
        } else {
            f[2].chars().next()
        };
        let bits = if f[3] == "-" {
            None
        } else {
            Some(u64::from_str_radix(f[3], 16).map_err(|_| bad())?)
        };
        out.push(((letter, pen), (predicted, bits)));
    }
    Ok(out)
}

fn recorded_line(t: &Trial) -> String {
    format!(
        "{}\t{}\t{}\t{}",
        t.case.letter,
        t.case.pen,
        t.predicted.map_or("-".to_string(), |c| c.to_string()),
        t.procrustes_m
            .map_or("-".to_string(), |m| format!("{:016x}", m.to_bits())),
    )
}

/// Re-record `expected/letters.tsv` by running the whole corpus.
pub fn write_expected() {
    let rig = setup();
    let cases = corpus();
    let mut tracer = Tracer::new(false);
    let mut text = String::from(
        "# letter\tpen\tpredicted\tprocrustes_m (f64 bits, hex); written by `e2e-bench --write-expected`\n",
    );
    for &case in &cases {
        text.push_str(&recorded_line(&trial(&rig, case, &mut tracer)));
        text.push('\n');
    }
    if let Err(e) = std::fs::write(EXPECTED_PATH, text) {
        eprintln!("e2e-bench: cannot write {EXPECTED_PATH} (run from the repository root): {e}");
        std::process::exit(1);
    }
    println!("wrote {} trials to {EXPECTED_PATH}", cases.len());
}

/// Compare every trial with the recorded table; return the problems.
fn check(trials: &[Trial]) -> Vec<String> {
    let table = match parse_expected() {
        Ok(t) => t,
        Err(e) => return vec![e],
    };
    let mut problems = Vec::new();
    for t in trials {
        let key = (t.case.letter, t.case.pen);
        let got: Recorded = (t.predicted, t.procrustes_m.map(f64::to_bits));
        match table.iter().find(|(k, _)| *k == key) {
            None => problems.push(format!(
                "no recorded outcome for letter {} pen {}",
                key.0, key.1
            )),
            Some((_, want)) if *want != got => problems.push(format!(
                "letter {} pen {}: got {:?}, recorded {:?}",
                key.0, key.1, got, want
            )),
            Some(_) => {}
        }
    }
    problems
}

fn accuracy(trials: &[Trial]) -> f64 {
    trials
        .iter()
        .filter(|t| t.predicted == Some(t.case.letter))
        .count() as f64
        / trials.len().max(1) as f64
}

/// Run the workload: untraced for `seconds`, or, when `traced`, a few
/// warm-up trials, an untraced half and a traced replay of the same
/// trials.
pub fn run(rig: &Rig, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let cases = corpus();
    let order = order(seed);
    let mut out = Outcome::default();
    let mut off = Tracer::new(false);
    if !traced {
        let (trials, _) = batch(rig, &cases, &order, Limit::Seconds(seconds), &mut off);
        out.problems = check(&trials);
        summarize(&trials, &mut out);
        return out;
    }
    // Lazily built caches are filled before either pass is timed, so the
    // overhead figure compares warm with warm.
    batch(rig, &cases, &order, Limit::Trials(WARMUP_TRIALS), &mut off);
    let (plain, plain_s) = batch(rig, &cases, &order, Limit::Seconds(seconds / 2.0), &mut off);
    let mut tracer = Tracer::new(true);
    let (trials, traced_s) = batch(rig, &cases, &order, Limit::Trials(plain.len()), &mut tracer);
    out.problems = check(&plain);
    out.problems.extend(check(&trials));
    summarize(&trials, &mut out);
    out.layers = layers(&trials, &tracer, traced_s, plain_s);
    out.spans = tracer.totals();
    out.traced_total = traced_s;
    out
}

fn summarize(trials: &[Trial], out: &mut Outcome) {
    let ms: Vec<f64> = trials.iter().map(|t| t.secs).collect();
    let busy: f64 = ms.iter().sum();
    let reports: usize = trials.iter().map(|t| t.reports).sum();
    let failed = trials
        .iter()
        .filter(|t| t.predicted.is_none() || t.procrustes_m.is_none())
        .count();
    let procrustes: Vec<f64> = trials.iter().filter_map(|t| t.procrustes_m).collect();
    out.attempted = trials.len() as u64;
    out.failed = failed as u64;
    out.e2e = vec![
        Metric::pct("latency_ms_p50", percentile(&ms, 50.0), 1e3, "ms"),
        Metric::pct("latency_ms_p99", percentile(&ms, 99.0), 1e3, "ms"),
        Metric::new(
            "capacity_reports_per_s",
            reports as f64 / busy.max(1e-9),
            "1/s",
        ),
        Metric::new(
            "delivered_share",
            (trials.len() - failed) as f64 / trials.len().max(1) as f64,
            "share",
        ),
    ];
    out.extra = vec![
        Metric::new("trials_per_s", trials.len() as f64 / busy.max(1e-9), "1/s"),
        Metric::pct("trial_ms_p50", percentile(&ms, 50.0), 1e3, "ms"),
        Metric::pct("trial_ms_p90", percentile(&ms, 90.0), 1e3, "ms"),
        Metric {
            note: format!("n={}", trials.len()),
            ..Metric::new("accuracy", accuracy(trials), "share")
        },
        Metric::pct(
            "procrustes_mm_p50",
            percentile(&procrustes, 50.0),
            1e3,
            "mm",
        ),
    ];
}

fn layers(
    trials: &[Trial],
    tracer: &Tracer,
    traced_s: f64,
    plain_s: f64,
) -> Vec<Metric> {
    let totals = tracer.totals();
    let mean_ms = |name: &str| mean(&tracer.durations(name)) * 1e3;
    let attributed: f64 = totals
        .iter()
        .filter(|(name, _)| **name != "letters.trial")
        .map(|(_, t)| t.self_time)
        .sum();
    let sum = |f: &dyn Fn(&Trial) -> u64| trials.iter().map(f).sum::<u64>() as f64;
    let steps = sum(&|t| t.decode.steps as u64);
    let touched = sum(&|t| t.decode.touched_cells);
    vec![
        Metric::new("pen_sim.write_text_ms", mean_ms("pen_sim.write_text"), "ms"),
        Metric::new("rfid_sim.inventory_ms", mean_ms("rfid_sim.inventory"), "ms"),
        Metric::new("rfid_sim.reports", sum(&|t| t.reports as u64), "count"),
        Metric::new("core.track_ms", mean_ms("core.track"), "ms"),
        Metric::new("hmm.steps", steps, "count"),
        Metric::new(
            "hmm.expansions",
            sum(&|t| t.decode.expansions) / steps.max(1.0),
            "count/step",
        ),
        Metric::new("hmm.touched_cells", touched / steps.max(1.0), "count/step"),
        Metric::new(
            "hmm.mean_frontier",
            sum(&|t| t.decode.total_frontier) / steps.max(1.0),
            "count",
        ),
        Metric::new(
            "hmm.beam_kept_ratio",
            1.0 - sum(&|t| t.decode.pruned_beam) / touched.max(1.0),
            "share",
        ),
        Metric::new(
            "hmm.carried_steps",
            sum(&|t| t.decode.carried_steps as u64),
            "count",
        ),
        Metric::new(
            "hmm.adaptive_shrunk_steps",
            sum(&|t| t.decode.adaptive_shrunk_steps as u64),
            "count",
        ),
        Metric::new(
            "preprocess.windows",
            sum(&|t| t.degradation.windows as u64),
            "count",
        ),
        Metric::new(
            "preprocess.empty_windows",
            sum(&|t| t.degradation.empty_windows as u64),
            "count",
        ),
        Metric::new(
            "preprocess.spurious_rejected",
            sum(&|t| t.degradation.spurious_rejected as u64),
            "count",
        ),
        Metric::new(
            "recognition.classify_ms",
            mean_ms("recognition.classify"),
            "ms",
        ),
        Metric::new(
            "recognition.procrustes_ms",
            mean_ms("recognition.procrustes"),
            "ms",
        ),
        Metric {
            note: format!("{:.3} s of {:.3} s traced", attributed, traced_s),
            ..Metric::new(
                "trace.attributed_share",
                attributed / traced_s.max(1e-9),
                "share",
            )
        },
        Metric {
            note: format!(
                "traced {:.3} s vs untraced {:.3} s, same {} trials",
                traced_s,
                plain_s,
                trials.len()
            ),
            ..Metric::new(
                "trace.overhead_pct",
                100.0 * (traced_s / plain_s.max(1e-9) - 1.0),
                "%",
            )
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_covers_the_alphabet_with_distinct_seeds() {
        let c = corpus();
        assert_eq!(c.len(), 26 * PENS);
        let mut seeds: Vec<u64> = c.iter().map(|k| k.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), c.len());
    }

    #[test]
    fn order_is_a_seeded_permutation_stratified_by_alphabet() {
        let a = order(3);
        assert_eq!(a, order(3));
        assert_ne!(a, order(4));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..26 * PENS).collect::<Vec<_>>());
        let cases = corpus();
        for block in a.chunks(26) {
            let mut letters: Vec<char> = block.iter().map(|&i| cases[i].letter).collect();
            letters.sort_unstable();
            assert_eq!(letters, pen_sim::glyph::ALPHABET.to_vec());
        }
    }

    #[test]
    fn recorded_table_covers_the_corpus() {
        let table = parse_expected().expect("table parses");
        for case in corpus() {
            assert!(
                table.iter().any(|(k, _)| *k == (case.letter, case.pen)),
                "no entry for {} pen {}",
                case.letter,
                case.pen
            );
        }
    }
}
