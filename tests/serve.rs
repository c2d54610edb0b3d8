//! Multi-session serving gates (tier-1, named in scripts/verify.sh).
//!
//! Pins the serving engine's two contracts:
//!
//! 1. **Determinism** — a [`ServePool`] drains N sessions in parallel,
//!    yet every session's output is bit-for-bit what a lone
//!    `OnlineTracker` fed the same stream produces, at every tested
//!    thread count and under every fault preset. Parallelism is across
//!    sessions, never within one, so this is structural — these tests
//!    keep it that way.
//! 2. **Shared artifacts** — N sessions on one rig resolve one
//!    `DecodeArtifacts` entry (one `EmissionTable` build, one copy in
//!    memory), verified by `Arc` pointer identity and strong counts, so
//!    per-session memory is sublinear in N.

use experiments::setup::{polardraw_config_for, simulate_reports, TrialSetup};
use polardraw_core::hmm::KernelOptions;
use polardraw_core::serve::ServePool;
use polardraw_core::{OnlineOptions, OnlineTracker, PolarDrawConfig, TrackOutput};
use rf_core::rng::derive_seed_indexed;
use rfid_sim::faults::FaultPlan;
use rfid_sim::TagReport;
use std::sync::Arc;

/// One coarse-grid rig shared by every session in these tests: the
/// board depends only on the letter count, so every single-letter setup
/// below resolves to the *same* `PolarDrawConfig` — many pens, one rig.
fn fleet_config() -> PolarDrawConfig {
    polardraw_config_for(&TrialSetup::letter('L').with_cell_scale(6.0))
}

/// The mixed-fleet workload: `n` sessions cycling through letters,
/// fault presets (clean reader, lab, office, hostile), and derived
/// seeds. Every stream is distinct; every session shares the rig.
fn fleet_streams(n: usize) -> Vec<Vec<TagReport>> {
    let letters = ['L', 'S', 'W', 'Z', 'C'];
    (0..n)
        .map(|i| {
            let mut setup =
                TrialSetup::letter(letters[i % letters.len()]).with_cell_scale(6.0);
            setup.faults = match i % 4 {
                0 => None,
                1 => Some(FaultPlan::clean_lab()),
                2 => Some(FaultPlan::flaky_office()),
                _ => Some(FaultPlan::hostile()),
            };
            let seed = derive_seed_indexed(0x5E12E, "serve.fleet", i as u64);
            simulate_reports(&setup, seed).1
        })
        .collect()
}

fn options_for(i: usize) -> OnlineOptions {
    // Mixed lags exercise different commit cadences inside one pool.
    OnlineOptions { lag: 8 + 4 * (i % 3), hold: 2, ..OnlineOptions::default() }
}

fn assert_outputs_bitwise_equal(a: &TrackOutput, b: &TrackOutput, ctx: &str) {
    assert_eq!(a.trail.times.len(), b.trail.times.len(), "{ctx}: times length");
    for (x, y) in a.trail.times.iter().zip(&b.trail.times) {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: time bits");
    }
    assert_eq!(a.trail.points.len(), b.trail.points.len(), "{ctx}: points length");
    for (p, q) in a.trail.points.iter().zip(&b.trail.points) {
        assert_eq!(p.x.to_bits(), q.x.to_bits(), "{ctx}: x bits");
        assert_eq!(p.y.to_bits(), q.y.to_bits(), "{ctx}: y bits");
    }
    assert_eq!(a.steps, b.steps, "{ctx}: steps");
    assert_eq!(a.windows, b.windows, "{ctx}: windows");
    assert_eq!(a.decode_stats, b.decode_stats, "{ctx}: decode stats");
    assert_eq!(a.degradation, b.degradation, "{ctx}: degradation report");
    assert_eq!(
        a.initial_azimuth_error.to_bits(),
        b.initial_azimuth_error.to_bits(),
        "{ctx}: azimuth correction"
    );
}

/// Sequential reference: each session run alone, in order.
fn sequential_outputs(
    cfg: PolarDrawConfig,
    streams: &[Vec<TagReport>],
) -> Vec<TrackOutput> {
    streams
        .iter()
        .enumerate()
        .map(|(i, reports)| {
            let mut solo = OnlineTracker::new(cfg, options_for(i));
            solo.extend(reports);
            solo.finalize()
        })
        .collect()
}

/// Feed the streams through a pool in interleaved, per-session-skewed
/// chunks (sessions run out of reports at different rounds, so later
/// drains exercise the wake-only-pending path), then finish.
fn pool_outputs(
    cfg: PolarDrawConfig,
    streams: &[Vec<TagReport>],
    threads: usize,
) -> Vec<TrackOutput> {
    let mut pool = ServePool::new(threads);
    let ids: Vec<_> =
        (0..streams.len()).map(|i| pool.add_session(cfg, options_for(i))).collect();
    let mut cursors = vec![0usize; streams.len()];
    loop {
        let mut any = false;
        for (i, reports) in streams.iter().enumerate() {
            let at = cursors[i];
            if at >= reports.len() {
                continue;
            }
            // Skewed chunk sizes desynchronize the queues.
            let chunk = 29 + 11 * (i % 5);
            let hi = (at + chunk).min(reports.len());
            pool.enqueue_batch(ids[i], &reports[at..hi]);
            cursors[i] = hi;
            any = true;
        }
        let round = pool.drain();
        if !any {
            assert_eq!((round.woken, round.reports), (0, 0), "no queues → no wakes");
            break;
        }
    }
    let stats = pool.stats();
    let total: usize = streams.iter().map(|s| s.len()).sum();
    assert_eq!(stats.reports, total, "every enqueued report was consumed");
    pool.finish()
}

/// The tentpole determinism gate: 32 mixed-fault sessions, pool output
/// bitwise-identical to sequential at threads ∈ {1, 2, 8}.
#[test]
fn pool_is_bitwise_identical_to_sequential_across_threads() {
    let cfg = fleet_config();
    let streams = fleet_streams(32);
    let want = sequential_outputs(cfg, &streams);
    for threads in [1usize, 2, 8] {
        let got = pool_outputs(cfg, &streams, threads);
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_outputs_bitwise_equal(g, w, &format!("session {i}, threads {threads}"));
        }
    }
}

/// Kernel plumbing through the pool: sessions carrying mixed
/// `KernelOptions` (exact f64, fast f32+adaptive, f32-only) keep the
/// pool's bitwise-vs-sequential contract at every pool width. The
/// f32 kernels trade f64-exactness for speed but stay run-to-run
/// deterministic, and pool parallelism is across sessions only — so
/// the pool must reproduce each solo tracker bit-for-bit regardless
/// of which kernel the session chose.
#[test]
fn mixed_kernel_sessions_stay_bitwise_across_pool_widths() {
    let kernel_for = |i: usize| match i % 3 {
        0 => KernelOptions::exact(),
        1 => KernelOptions::fast(),
        _ => KernelOptions::fast().with_adaptive(None),
    };
    let cfg = fleet_config();
    let streams = fleet_streams(6);
    let want: Vec<TrackOutput> = streams
        .iter()
        .enumerate()
        .map(|(i, reports)| {
            let mut solo =
                OnlineTracker::new(cfg, options_for(i).with_kernel(kernel_for(i)));
            solo.extend(reports);
            solo.finalize()
        })
        .collect();
    for threads in [1usize, 2, 8] {
        let mut pool = ServePool::new(threads);
        let ids: Vec<_> = (0..streams.len())
            .map(|i| pool.add_session(cfg, options_for(i).with_kernel(kernel_for(i))))
            .collect();
        for (i, reports) in streams.iter().enumerate() {
            pool.enqueue_batch(ids[i], reports);
        }
        pool.drain();
        let got = pool.finish();
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_outputs_bitwise_equal(
                g,
                w,
                &format!("kernel session {i} ({:?}), threads {threads}", kernel_for(i)),
            );
        }
    }
}

/// The 2-thread stress run scripts/verify.sh names: repeated
/// single-report enqueues and drains after every report round, so the
/// pool's wake bookkeeping and per-drain deltas are exercised thousands
/// of times rather than a handful.
#[test]
fn two_thread_stress_single_report_drains() {
    let cfg = fleet_config();
    let streams = fleet_streams(6);
    let want = sequential_outputs(cfg, &streams);

    let mut pool = ServePool::new(2);
    let ids: Vec<_> =
        (0..streams.len()).map(|i| pool.add_session(cfg, options_for(i))).collect();
    let longest = streams.iter().map(|s| s.len()).max().unwrap_or(0);
    for k in 0..longest {
        for (i, reports) in streams.iter().enumerate() {
            if let Some(&r) = reports.get(k) {
                pool.enqueue(ids[i], r);
            }
        }
        pool.drain();
    }
    let stats = pool.stats();
    assert_eq!(stats.drains, longest);
    assert_eq!(stats.reports, streams.iter().map(|s| s.len()).sum::<usize>());
    let got = pool.finish();
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_outputs_bitwise_equal(g, w, &format!("stress session {i}"));
    }
}

/// Checkpoint/restore *through the pool*: cut every session at a swept
/// point, checkpoint via the wire format, adopt the restored trackers
/// into a fresh pool, feed the remainders — bitwise the uncut pool run.
#[test]
fn checkpoint_restore_through_the_pool_is_bitwise_at_swept_cuts() {
    let cfg = fleet_config();
    let streams = fleet_streams(4);
    let reference = pool_outputs(cfg, &streams, 2);
    let longest = streams.iter().map(|s| s.len()).max().unwrap_or(0);

    let stride = longest / 5 + 1;
    for cut in (0..=longest).step_by(stride) {
        // First half through a pool…
        let mut first = ServePool::new(2);
        let ids: Vec<_> =
            (0..streams.len()).map(|i| first.add_session(cfg, options_for(i))).collect();
        for (i, reports) in streams.iter().enumerate() {
            first.enqueue_batch(ids[i], &reports[..cut.min(reports.len())]);
        }
        first.drain();
        // …checkpoint every session over the wire format…
        let texts: Vec<String> =
            ids.iter().map(|&id| first.tracker(id).checkpoint_string()).collect();
        drop(first);
        // …adopt the restores into a fresh pool and feed the rest.
        let mut second = ServePool::new(2);
        let new_ids: Vec<_> = texts
            .iter()
            .map(|text| {
                let tracker = OnlineTracker::restore_from_str(cfg, text)
                    .unwrap_or_else(|e| panic!("restore at cut {cut}: {e}"));
                second.adopt(tracker)
            })
            .collect();
        for (i, reports) in streams.iter().enumerate() {
            second.enqueue_batch(new_ids[i], &reports[cut.min(reports.len())..]);
        }
        second.drain();
        let got = second.finish();
        for (i, (g, w)) in got.iter().zip(&reference).enumerate() {
            assert_outputs_bitwise_equal(g, w, &format!("session {i}, cut {cut}"));
        }
    }
}

/// The memory-sublinearity gate: every session on one rig shares ONE
/// `DecodeArtifacts` entry (pointer-identical emission table), so total
/// table memory is one table, not N — `Arc::strong_count` counts the
/// sharers.
#[test]
fn sessions_share_one_decode_artifact_entry() {
    let cfg = fleet_config();
    let streams = fleet_streams(8);
    let mut pool = ServePool::new(4);
    let ids: Vec<_> =
        (0..streams.len()).map(|i| pool.add_session(cfg, options_for(i))).collect();
    for (i, reports) in streams.iter().enumerate() {
        pool.enqueue_batch(ids[i], reports);
    }
    pool.drain();

    let first = pool
        .tracker(ids[0])
        .decoder()
        .artifacts()
        .expect("session 0 decoded steps with Δθ²¹ measurements")
        .clone();
    let mut sharers = 0;
    for &id in &ids {
        let decoder = pool.tracker(id).decoder();
        if let Some(a) = decoder.artifacts() {
            assert!(Arc::ptr_eq(a, &first), "session {id} resolved a different entry");
            sharers += 1;
            // The emission table inside is the same allocation too.
            if let (Some(t), Some(t0)) = (decoder.emission_table(), first.emission_if_built()) {
                assert!(Arc::ptr_eq(t, t0), "session {id} holds a different table");
            }
        }
    }
    assert!(sharers >= ids.len() / 2, "most sessions decode against shared artifacts");
    // The entry is held by each sharing session + the global cache +
    // our local handle: memory for the table is ONE allocation however
    // many sessions serve on the rig.
    assert!(
        Arc::strong_count(&first) > sharers,
        "strong count {} must cover {} sharers",
        Arc::strong_count(&first),
        sharers
    );
    let table = first.emission_if_built().expect("table built by first decode");
    let one_table_bytes = table.len() * std::mem::size_of::<f64>();
    assert!(one_table_bytes > 0, "table is real");
    // And finishing the fleet must release the sessions' holds.
    drop(pool.finish());
}
