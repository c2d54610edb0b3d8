//! Multi-session serving throughput: the drain matrix of a one-shard
//! `FleetRouter` (sessions × threads per shard), steady-state contended
//! step latency, and the first-session cold-start (emission-table
//! build) before/after row-parallelization.
//!
//! Three row families, all at paper fidelity (2.5 mm cells, the
//! default rig):
//!
//! * `serve/drain/sessions{S}/threads{T}` — one iteration is a full
//!   session lifecycle: a fresh one-shard router whose queue bound
//!   never bites, S sessions on one rig fed simulated letter streams
//!   (150 reports each) in interleaved chunks, drained to completion,
//!   finalized in parallel by `FleetRouter::finish`. The committed
//!   `BENCH_throughput.json` carries the aggregate reports/sec derived
//!   from these medians in its notes; `scripts/bench.sh` gates
//!   `sessions8/threads1` vs `sessions8/threads8` with a
//!   core-count-aware floor (this is honest wall-clock — on a 1-core
//!   host the router cannot beat sequential, and the gate only requires
//!   it not collapse).
//! * `serve/step/sessions8/threads8` — the contended regime: a
//!   long-lived router with 8 sessions; one iteration offers one
//!   pre-processing window's worth of stream (5 reports at the 50 ms
//!   window, 10 ms report spacing) to EVERY session and drains, so the
//!   drain performs ~8 fixed-lag decode steps. `scripts/bench.sh`
//!   gates the median at 80 ms = 8 × the single-session 10 ms step
//!   guarantee `scripts/verify.sh --quick-bench` enforces — under full
//!   8-session contention no session falls behind its reader.
//! * `serve/coldstart/emission_*` — the shared-artifact build a
//!   fleet's FIRST session pays (everyone after gets the cached
//!   `Arc`): the ~33k-cell paper-fidelity emission table, sequential
//!   vs `EmissionTable::build` on exactly 2 and 8 row-band workers (no
//!   host clamp, so the rows measure the fan-out itself).

use experiments::setup::{polardraw_config_for, simulate_reports, TrialSetup};
use polardraw_bench::harness::Bench;
use polardraw_core::hmm::{EmissionTable, Grid};
use polardraw_core::fleet::{FleetConfig, FleetRouter};
use polardraw_core::{OnlineOptions, PolarDrawConfig};
use rf_core::rng::derive_seed_indexed;
use rfid_sim::TagReport;

/// Reports per session in the drain matrix (~1.5 s of stream, ~28
/// closed pre-processing windows per session).
const STREAM_CAP: usize = 150;

/// The drain-matrix workload: `n` letter streams on one shared rig
/// (the board depends only on the letter count, so every single-letter
/// setup resolves the same `PolarDrawConfig`), truncated to
/// [`STREAM_CAP`] reports.
fn fleet_streams(n: usize) -> Vec<Vec<TagReport>> {
    let letters = ['L', 'S', 'W', 'Z'];
    (0..n)
        .map(|i| {
            let setup = TrialSetup::letter(letters[i % letters.len()]);
            let seed = derive_seed_indexed(0x7B06, "throughput.pen", i as u64);
            let mut reports = simulate_reports(&setup, seed).1;
            reports.truncate(STREAM_CAP);
            reports
        })
        .collect()
}

/// A one-shard router on `threads` workers whose queue bound never
/// bites, so every offer is admitted whole and the load controller
/// never degrades a session.
fn one_shard(threads: usize) -> FleetRouter {
    FleetRouter::new(FleetConfig {
        shards: 1,
        threads_per_shard: threads,
        queue_cap: usize::MAX,
        soft_session_cap: usize::MAX,
        ..FleetConfig::default()
    })
}

/// One full serving lifecycle: fresh router, offer in interleaved
/// chunks (so drains wake several sessions per round), drain to
/// completion, finalize. Returns total reports processed.
fn drain_once(cfg: PolarDrawConfig, streams: &[Vec<TagReport>], threads: usize) -> usize {
    let mut fleet = one_shard(threads);
    let ids: Vec<_> = (0..streams.len())
        .map(|_| fleet.add_session(cfg, OnlineOptions::default()))
        .collect();
    let chunk = 32;
    let longest = streams.iter().map(|s| s.len()).max().unwrap_or(0);
    let mut processed = 0;
    let mut at = 0;
    while at < longest {
        for (i, reports) in streams.iter().enumerate() {
            let lo = at.min(reports.len());
            let hi = (at + chunk).min(reports.len());
            fleet.offer(ids[i], &reports[lo..hi]);
        }
        processed += fleet.drain().reports;
        at += chunk;
    }
    drop(fleet.finish());
    processed
}

/// An endless synthetic stream for the steady-state contended row:
/// alternating antennas, slowly advancing phase, 10 ms report spacing
/// (5 reports per 50 ms pre-processing window).
fn synthetic_report(i: usize) -> TagReport {
    TagReport {
        t: i as f64 * 0.01,
        antenna: i % 2,
        rssi_dbm: -55.0,
        phase_rad: rf_core::wrap_tau(0.02 * i as f64),
        channel: 0,
        epc: 0xB00C,
    }
}

fn main() {
    let mut bench = Bench::from_args("throughput");
    let cfg = polardraw_config_for(&TrialSetup::letter('L'));
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    // Drain matrix: sessions × threads, full lifecycle per iteration.
    const MATRIX_SESSIONS: [usize; 2] = [1, 8];
    const MATRIX_THREADS: [usize; 3] = [1, 2, 8];
    for &s in &MATRIX_SESSIONS {
        let streams = fleet_streams(s);
        for &t in &MATRIX_THREADS {
            bench.bench(&format!("serve/drain/sessions{s}/threads{t}"), || {
                drain_once(cfg, &streams, t)
            });
        }
    }

    // Contended steady state: 8 long-lived sessions, one window of
    // stream to every session per iteration, drained at 8 threads.
    {
        let mut fleet = one_shard(8);
        let ids: Vec<_> =
            (0..8).map(|_| fleet.add_session(cfg, OnlineOptions::default())).collect();
        let mut window = 0usize;
        bench.bench("serve/step/sessions8/threads8", || {
            let batch: [TagReport; 5] = std::array::from_fn(|k| synthetic_report(window * 5 + k));
            for &id in &ids {
                fleet.offer(id, &batch);
            }
            window += 1;
            fleet.drain().reports
        });
    }

    // Cold start: the emission-table build the fleet's first session
    // pays; every later session on the rig shares the cached Arc.
    let grid = Grid::covering(cfg.board_min, cfg.board_max, cfg.hmm.cell_m);
    bench.bench("serve/coldstart/emission_seq", || {
        EmissionTable::build(&grid, cfg.antennas, cfg.hmm.wavelength_m, 1)
    });
    for threads in [2usize, 8] {
        bench.bench(&format!("serve/coldstart/emission_par{threads}"), || {
            EmissionTable::build(&grid, cfg.antennas, cfg.hmm.wavelength_m, threads)
        });
    }

    // Derived numbers the raw rows can't carry: aggregate reports/sec
    // per matrix cell, per-session step latency in the contended
    // regime, and the cold-start ratio.
    let measured: Vec<(String, f64, f64)> =
        bench.stats().iter().map(|s| (s.name.clone(), s.median_ns, s.p90_ns)).collect();
    let median = |name: &str| {
        measured.iter().find(|(n, _, _)| n == name).map(|&(_, med, p90)| (med, p90))
    };
    let mut throughput_lines = Vec::new();
    for &s in &MATRIX_SESSIONS {
        for &t in &MATRIX_THREADS {
            if let Some((med, _)) = median(&format!("serve/drain/sessions{s}/threads{t}")) {
                let reports = (s * STREAM_CAP) as f64;
                throughput_lines
                    .push(format!("{s}x{t}: {:.0} reports/s", reports / (med * 1e-9)));
            }
        }
    }
    if !throughput_lines.is_empty() {
        bench.note(format!(
            "aggregate drain throughput (sessions x threads, {} reports/session, \
             paper-fidelity 2.5 mm grid): {}",
            STREAM_CAP,
            throughput_lines.join(", ")
        ));
    }
    if let Some((med, p90)) = median("serve/step/sessions8/threads8") {
        bench.note(format!(
            "contended per-session step: one drain advances 8 sessions one window each; \
             median {:.2} ms ({:.2} ms/session), p90 {:.2} ms ({:.2} ms/session) — \
             gated at 80 ms total = 8 x the 10 ms single-session guarantee",
            med / 1e6,
            med / 8e6,
            p90 / 1e6,
            p90 / 8e6,
        ));
    }
    if let (Some((seq, _)), Some((p2, _)), Some((p8, _))) = (
        median("serve/coldstart/emission_seq"),
        median("serve/coldstart/emission_par2"),
        median("serve/coldstart/emission_par8"),
    ) {
        bench.note(format!(
            "first-session cold start ({} cells): sequential build {:.2} ms; \
             row-parallel {:.2} ms @2 threads ({:.2}x), {:.2} ms @8 threads ({:.2}x); \
             later sessions on the rig skip this entirely via the shared-Arc cache",
            grid.len(),
            seq / 1e6,
            p2 / 1e6,
            seq / p2,
            p8 / 1e6,
            seq / p8,
        ));
    }
    bench.note(format!(
        "measurement host has {nproc} hardware thread(s); thread-count rows are honest \
         wall-clock — parallel speedup requires real cores, so on a 1-core host every \
         threads{{T}} column is expected ~1x of threads1 (the scripts/bench.sh scaling \
         gate scales its floor with the core count)"
    ));
    bench.finish();
}
