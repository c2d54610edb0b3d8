//! Trial execution: run options, parallel fan-out, and the letter/word
//! accuracy loops every accuracy experiment shares.

use crate::setup::{run_trial, TrialSetup};
use pen_sim::scene::ChannelMode;
use polardraw_core::hmm::KernelOptions;
use recognition::{procrustes_distance, ConfusionMatrix, LetterRecognizer, WordRecognizer};
use rf_core::rng::derive_seed_indexed;

/// Global run options every experiment receives.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    /// Master seed; all trial seeds derive from it.
    pub seed: u64,
    /// Repetitions per condition. The paper uses 10–100; 10 keeps the
    /// full suite in minutes on a laptop (scale up for smoother curves).
    pub trials: usize,
    /// Worker threads for trial fan-out.
    pub threads: usize,
    /// Grid coarsening factor forwarded to every tracker (1.0 = paper
    /// fidelity; >1 trades accuracy for speed — the registry smoke test
    /// and `repro --cell-scale` use this).
    pub cell_scale: f64,
    /// Decode kernel forwarded to every PolarDraw trial (`repro
    /// --kernel fast`). A non-exact selection overrides each setup's
    /// own kernel; the default `exact()` leaves setups untouched so
    /// experiments that pin a kernel keep it.
    pub kernel: KernelOptions,
    /// Polarization formalism forwarded to every trial (`repro
    /// --channel jones`). Selecting `Jones` overrides each setup's own
    /// channel; the default `Scalar` leaves setups untouched so
    /// experiments that pin a channel keep it.
    pub channel: ChannelMode,
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts {
            seed: 42,
            trials: 10,
            threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
            cell_scale: 1.0,
            kernel: KernelOptions::exact(),
            channel: ChannelMode::Scalar,
        }
    }
}

/// Fold the global run options into one condition's setup: compose the
/// grid coarsening multiplicatively and override the kernel/channel
/// when the run asks for a non-default one.
fn apply_opts(setup: &TrialSetup, opts: &RunOpts) -> TrialSetup {
    let mut setup = setup.clone().with_cell_scale(setup.cell_scale * opts.cell_scale);
    if opts.kernel != KernelOptions::exact() {
        setup.kernel = opts.kernel;
    }
    if opts.channel != ChannelMode::Scalar {
        setup = setup.with_channel(opts.channel);
    }
    setup
}

/// The workspace fan-out primitive, re-exported from `rf_core::par` so
/// existing experiment code (and external callers) keep their import
/// path. One implementation serves trial sweeps, the emission-table
/// row build, and the fleet router's drains alike.
pub use rf_core::par::parallel_map;

/// Result of one recognition trial.
#[derive(Debug, Clone)]
pub struct LetterTrial {
    /// Ground-truth letter.
    pub actual: char,
    /// Recognized letter (None: degenerate trail).
    pub predicted: Option<char>,
    /// Procrustes distance to ground truth, metres.
    pub procrustes_m: Option<f64>,
}

/// Run `trials` repetitions of each `(letter, setup)` condition and
/// score them with a shared recognizer. `trials` and `seed` are passed
/// explicitly (experiments split and offset them per condition group);
/// `opts` supplies the thread fan-out and grid fidelity.
pub fn run_letter_trials(
    conditions: &[(char, TrialSetup)],
    trials: usize,
    seed: u64,
    opts: &RunOpts,
) -> Vec<LetterTrial> {
    let recognizer = LetterRecognizer::new();
    let mut jobs = Vec::new();
    for (ci, (ch, setup)) in conditions.iter().enumerate() {
        let setup = apply_opts(setup, opts);
        for t in 0..trials {
            jobs.push((*ch, setup.clone(), derive_seed_indexed(seed, "letter", (ci * 10_000 + t) as u64)));
        }
    }
    parallel_map(jobs, opts.threads, |(ch, setup, s)| {
        let run = run_trial(setup, *s);
        LetterTrial {
            actual: *ch,
            predicted: recognizer.classify(&run.trail.points),
            procrustes_m: procrustes_distance(&run.truth, &run.trail.points, 64),
        }
    })
}

/// Accuracy over letter trials (unrecognized counts as wrong).
pub fn letter_accuracy(trials: &[LetterTrial]) -> f64 {
    if trials.is_empty() {
        return 0.0;
    }
    trials.iter().filter(|t| t.predicted == Some(t.actual)).count() as f64 / trials.len() as f64
}

/// Fold letter trials into a confusion matrix over A–Z.
pub fn confusion_of(trials: &[LetterTrial]) -> ConfusionMatrix {
    let mut m = ConfusionMatrix::new(pen_sim::glyph::ALPHABET.to_vec());
    for t in trials {
        if let Some(p) = t.predicted {
            m.record(t.actual, p);
        }
    }
    m
}

/// Run word-recognition trials: each word in `words` is written
/// `trials` times and matched against the whole group as dictionary.
/// Returns accuracy.
pub fn run_word_trials(
    words: &[&str],
    base: &TrialSetup,
    trials: usize,
    seed: u64,
    opts: &RunOpts,
) -> f64 {
    let recognizer = WordRecognizer::new(words);
    let base = apply_opts(base, opts);
    let mut jobs = Vec::new();
    for (wi, w) in words.iter().enumerate() {
        for t in 0..trials {
            let mut setup = base.clone();
            setup.text = w.to_string();
            jobs.push((w.to_string(), setup, derive_seed_indexed(seed, "word", (wi * 10_000 + t) as u64)));
        }
    }
    let outcomes = parallel_map(jobs, opts.threads, |(w, setup, s)| {
        let run = run_trial(setup, *s);
        recognizer.classify(&run.trail.points).as_deref() == Some(w.as_str())
    });
    outcomes.iter().filter(|&&ok| ok).count() as f64 / outcomes.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let jobs: Vec<u64> = (0..100).collect();
        let out = parallel_map(jobs, 8, |&x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_single_thread_and_empty() {
        assert_eq!(parallel_map(vec![1, 2, 3], 1, |&x| x + 1), vec![2, 3, 4]);
        assert!(parallel_map(Vec::<u8>::new(), 4, |&x| x).is_empty());
    }

    #[test]
    fn letter_accuracy_counts_exact_matches() {
        let trials = vec![
            LetterTrial { actual: 'A', predicted: Some('A'), procrustes_m: None },
            LetterTrial { actual: 'B', predicted: Some('C'), procrustes_m: None },
            LetterTrial { actual: 'C', predicted: None, procrustes_m: None },
            LetterTrial { actual: 'D', predicted: Some('D'), procrustes_m: None },
        ];
        assert!((letter_accuracy(&trials) - 0.5).abs() < 1e-12);
        assert_eq!(letter_accuracy(&[]), 0.0);
    }

    #[test]
    fn confusion_folds_predictions() {
        let trials = vec![
            LetterTrial { actual: 'A', predicted: Some('A'), procrustes_m: None },
            LetterTrial { actual: 'A', predicted: Some('B'), procrustes_m: None },
            LetterTrial { actual: 'B', predicted: None, procrustes_m: None },
        ];
        let m = confusion_of(&trials);
        assert_eq!(m.count('A', 'A'), 1);
        assert_eq!(m.count('A', 'B'), 1);
        assert_eq!(m.total(), 2, "unrecognized trials are not recorded");
    }
}
