//! A std-only benchmark harness (criterion replacement).
//!
//! Each bench target is a plain `harness = false` binary that builds a
//! [`Bench`], registers closures, and calls [`Bench::finish`]. The
//! methodology is deliberately simple and robust:
//!
//! 1. **Warmup**: the closure runs untimed until ~200 ms have elapsed
//!    (at least once), letting caches/branch predictors settle.
//! 2. **Calibration**: the warmup's observed per-iteration time picks an
//!    iteration count per sample targeting ~50 ms of work.
//! 3. **Measurement**: N samples (default 11) each time `iters`
//!    back-to-back calls; per-iteration nanoseconds are recorded.
//! 4. **Median-of-N**: the reported statistic is the median, with
//!    p10/p90 for spread — robust to scheduler noise without criterion's
//!    outlier machinery.
//!
//! Results print as an aligned table and are written under `results/` as
//! `bench_<suite>.csv` and `bench_<suite>.json`, in exactly the
//! [`Report`] format the `repro` binary uses for experiment outputs, so
//! downstream tooling reads both with one parser.
//!
//! CLI: `cargo bench -p polardraw-bench [--bench <target>] -- [--filter
//! SUBSTR] [--quick] [--out DIR]`. `--quick` (or env
//! `POLARDRAW_BENCH_QUICK=1`) cuts warmup/samples to a smoke-test level.

use experiments::Report;
use std::hint::black_box;
use std::io::Write as _;
use std::time::{Duration, Instant};

/// Harness configuration (all overridable from the CLI).
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Minimum warmup wall time per bench.
    pub warmup: Duration,
    /// Target wall time for one measured sample.
    pub sample_target: Duration,
    /// Number of measured samples (median is reported).
    pub samples: usize,
    /// Only run benches whose name contains this substring.
    pub filter: Option<String>,
    /// Output directory for CSV/JSON results.
    pub out_dir: std::path::PathBuf,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            warmup: Duration::from_millis(200),
            sample_target: Duration::from_millis(50),
            samples: 11,
            filter: None,
            // cargo runs bench binaries with the package directory as
            // CWD; anchor to the workspace root so results land next to
            // the `repro` harness's.
            out_dir: std::path::PathBuf::from(concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/../../results"
            )),
        }
    }
}

impl BenchConfig {
    /// A near-instant configuration for smoke tests.
    pub fn quick() -> BenchConfig {
        BenchConfig {
            warmup: Duration::from_millis(1),
            sample_target: Duration::from_millis(1),
            samples: 3,
            ..BenchConfig::default()
        }
    }
}

/// One bench's measured statistics, nanoseconds per iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchStats {
    /// Bench name (`group/case`).
    pub name: String,
    /// Iterations per sample.
    pub iters: u64,
    /// Samples taken.
    pub samples: usize,
    /// Median per-iteration time.
    pub median_ns: f64,
    /// 10th percentile.
    pub p10_ns: f64,
    /// 90th percentile.
    pub p90_ns: f64,
    /// Mean per-iteration time.
    pub mean_ns: f64,
}

/// A benchmark suite under construction.
pub struct Bench {
    suite: String,
    config: BenchConfig,
    stats: Vec<BenchStats>,
    notes: Vec<String>,
}

impl Bench {
    /// Build a suite with an explicit configuration.
    pub fn with_config(suite: &str, config: BenchConfig) -> Bench {
        Bench { suite: suite.to_string(), config, stats: Vec::new(), notes: Vec::new() }
    }

    /// Build a suite, reading options from the process arguments
    /// (ignoring the flags cargo itself passes to bench binaries).
    pub fn from_args(suite: &str) -> Bench {
        let mut config = if std::env::var_os("POLARDRAW_BENCH_QUICK").is_some() {
            BenchConfig::quick()
        } else {
            BenchConfig::default()
        };
        let mut it = std::env::args().skip(1);
        while let Some(a) = it.next() {
            match a.as_str() {
                "--filter" => config.filter = it.next(),
                "--quick" => {
                    let out_dir = config.out_dir.clone();
                    config = BenchConfig::quick();
                    config.out_dir = out_dir;
                }
                "--out" => {
                    if let Some(dir) = it.next() {
                        config.out_dir = dir.into();
                    }
                }
                // `cargo bench` invokes every bench target with `--bench`;
                // a bare non-flag argument is treated as a filter, which
                // matches the familiar `cargo bench -- <substr>` habit.
                "--bench" => {}
                other if !other.starts_with('-') => config.filter = Some(other.to_string()),
                _ => {}
            }
        }
        Bench::with_config(suite, config)
    }

    /// Whether the name filter selects the row `name` (every row, when
    /// there is no filter). [`bench`](Self::bench) and
    /// [`record_ns`](Self::record_ns) skip unselected rows; a suite
    /// asks here before paying for work, or printing a note, that only
    /// describes such a row.
    pub fn selects(&self, name: &str) -> bool {
        self.config.filter.as_deref().is_none_or(|filter| name.contains(filter))
    }

    /// Register and run one benchmark closure.
    pub fn bench<T, F: FnMut() -> T>(&mut self, name: &str, mut f: F) {
        if !self.selects(name) {
            return;
        }

        // Warmup + calibration.
        let warmup_start = Instant::now();
        let mut warmup_iters = 0u64;
        while warmup_iters == 0 || warmup_start.elapsed() < self.config.warmup {
            black_box(f());
            warmup_iters += 1;
        }
        let per_iter = warmup_start.elapsed().as_secs_f64() / warmup_iters as f64;
        let iters = ((self.config.sample_target.as_secs_f64() / per_iter.max(1e-9)).ceil()
            as u64)
            .clamp(1, 1_000_000_000);

        // Measurement.
        let mut per_iter_ns: Vec<f64> = Vec::with_capacity(self.config.samples);
        for _ in 0..self.config.samples.max(1) {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            per_iter_ns.push(t0.elapsed().as_nanos() as f64 / iters as f64);
        }
        per_iter_ns.sort_by(|a, b| a.total_cmp(b));

        let pct = |q: f64| -> f64 {
            let idx = (q * (per_iter_ns.len() - 1) as f64).round() as usize;
            per_iter_ns[idx]
        };
        let stats = BenchStats {
            name: name.to_string(),
            iters,
            samples: per_iter_ns.len(),
            median_ns: pct(0.5),
            p10_ns: pct(0.1),
            p90_ns: pct(0.9),
            mean_ns: per_iter_ns.iter().sum::<f64>() / per_iter_ns.len() as f64,
        };
        eprintln!(
            "  {:<44} median {:>12}  (p10 {}, p90 {}, {} iters × {} samples)",
            stats.name,
            format_ns(stats.median_ns),
            format_ns(stats.p10_ns),
            format_ns(stats.p90_ns),
            stats.iters,
            stats.samples,
        );
        self.stats.push(stats);
    }

    /// Register a row from externally measured per-iteration samples,
    /// nanoseconds. For workloads the closure protocol can't express —
    /// e.g. per-round latencies inside one long fleet run, where each
    /// round mutates the fleet and rounds are *not* interchangeable —
    /// the caller times its own rounds and publishes the distribution
    /// here. Percentiles are computed exactly like [`bench`]'s
    /// (`iters` is recorded as 1); the name filter applies as usual.
    /// Empty sample sets are ignored.
    ///
    /// [`bench`]: Bench::bench
    pub fn record_ns(&mut self, name: &str, samples_ns: &[f64]) {
        if !self.selects(name) || samples_ns.is_empty() {
            return;
        }
        let mut per_iter_ns = samples_ns.to_vec();
        per_iter_ns.sort_by(|a, b| a.total_cmp(b));
        let pct = |q: f64| -> f64 {
            let idx = (q * (per_iter_ns.len() - 1) as f64).round() as usize;
            per_iter_ns[idx]
        };
        let stats = BenchStats {
            name: name.to_string(),
            iters: 1,
            samples: per_iter_ns.len(),
            median_ns: pct(0.5),
            p10_ns: pct(0.1),
            p90_ns: pct(0.9),
            mean_ns: per_iter_ns.iter().sum::<f64>() / per_iter_ns.len() as f64,
        };
        eprintln!(
            "  {:<44} median {:>12}  (p10 {}, p90 {}, {} recorded samples)",
            stats.name,
            format_ns(stats.median_ns),
            format_ns(stats.p10_ns),
            format_ns(stats.p90_ns),
            stats.samples,
        );
        self.stats.push(stats);
    }

    /// The measured statistics so far.
    pub fn stats(&self) -> &[BenchStats] {
        &self.stats
    }

    /// Attach a free-form note to the suite report (workload shapes,
    /// decode work counters — context the timing rows can't carry).
    pub fn note<S: Into<String>>(&mut self, note: S) {
        self.notes.push(note.into());
    }

    /// Fold the suite's results into a [`Report`] (the same structure
    /// the `repro` harness emits).
    pub fn to_report(&self) -> Report {
        let mut report = Report::new(
            &format!("bench_{}", self.suite),
            &format!("std-only benchmark suite `{}`", self.suite),
            "timing backs §3.5's real-time claim; see DESIGN.md",
        )
        .headers(vec![
            "bench",
            "median_ns",
            "p10_ns",
            "p90_ns",
            "mean_ns",
            "iters",
            "samples",
        ]);
        for s in &self.stats {
            report.push_row(vec![
                s.name.clone(),
                format!("{:.1}", s.median_ns),
                format!("{:.1}", s.p10_ns),
                format!("{:.1}", s.p90_ns),
                format!("{:.1}", s.mean_ns),
                s.iters.to_string(),
                s.samples.to_string(),
            ]);
        }
        for note in &self.notes {
            report.push_note(note.clone());
        }
        report
    }

    /// Print the suite table and write `bench_<suite>.{csv,json}`.
    pub fn finish(self) {
        use rf_core::json::ToJson as _;
        let report = self.to_report();
        println!("\n{report}");
        if let Err(e) = std::fs::create_dir_all(&self.config.out_dir).and_then(|()| {
            std::fs::File::create(self.config.out_dir.join(format!("{}.csv", report.id)))?
                .write_all(report.to_csv().as_bytes())?;
            std::fs::File::create(self.config.out_dir.join(format!("{}.json", report.id)))?
                .write_all(report.to_json().to_json_string().as_bytes())
        }) {
            eprintln!(
                "warning: could not write {}/{}.{{csv,json}}: {e}",
                self.config.out_dir.display(),
                report.id
            );
        }
    }
}

fn format_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_bench() -> Bench {
        Bench::with_config("selftest", BenchConfig::quick())
    }

    #[test]
    fn bench_measures_and_reports() {
        let mut b = quick_bench();
        b.bench("sum_1k", || (0..1000u64).sum::<u64>());
        assert_eq!(b.stats().len(), 1);
        let s = &b.stats()[0];
        assert!(s.median_ns > 0.0 && s.median_ns.is_finite());
        assert!(s.p10_ns <= s.median_ns && s.median_ns <= s.p90_ns);
        assert_eq!(s.samples, 3);
        let report = b.to_report();
        assert_eq!(report.id, "bench_selftest");
        assert_eq!(report.rows.len(), 1);
        assert_eq!(report.rows[0][0], "sum_1k");
    }

    #[test]
    fn record_ns_publishes_percentiles_of_recorded_samples() {
        let mut b = quick_bench();
        let samples: Vec<f64> = (1..=101).map(|i| i as f64 * 100.0).collect();
        b.record_ns("recorded", &samples);
        b.record_ns("recorded/p99", &[9_900.0]);
        b.record_ns("empty", &[]);
        assert_eq!(b.stats().len(), 2, "empty sample sets are ignored");
        let s = &b.stats()[0];
        assert_eq!(s.median_ns, 5_100.0);
        assert_eq!(s.iters, 1);
        assert_eq!(s.samples, 101);
        assert_eq!(b.stats()[1].median_ns, 9_900.0, "single sample = that value");
    }

    #[test]
    fn filter_skips_nonmatching_benches() {
        let mut config = BenchConfig::quick();
        config.filter = Some("keep".to_string());
        let mut b = Bench::with_config("filtered", config);
        b.bench("keep_me", || 1u64);
        b.bench("drop_me", || 2u64);
        assert_eq!(b.stats().len(), 1);
        assert_eq!(b.stats()[0].name, "keep_me");
    }

    #[test]
    fn selects_matches_the_filter_substring() {
        assert!(quick_bench().selects("anything"), "no filter selects every row");
        let mut config = BenchConfig::quick();
        config.filter = Some("migrate/warm".to_string());
        let b = Bench::with_config("filtered", config);
        assert!(b.selects("fleet/migrate/warm"));
        assert!(!b.selects("fleet/seal/session/warm"));
        assert!(!b.selects("migrate"), "the filter is a substring of the row, not the reverse");
    }

    #[test]
    fn notes_land_in_the_report() {
        let mut b = quick_bench();
        b.bench("noted", || 0u8);
        b.note("workload: synthetic");
        let report = b.to_report();
        assert_eq!(report.notes, vec!["workload: synthetic".to_string()]);
    }

    #[test]
    fn report_json_round_trips() {
        use rf_core::json::{FromJson, ToJson};
        let mut b = quick_bench();
        b.bench("tiny", || 0u8);
        let report = b.to_report();
        let back = experiments::Report::from_json(
            &rf_core::Json::parse(&report.to_json().to_json_string()).unwrap(),
        )
        .unwrap();
        assert_eq!(back, report);
    }
}
