//! Multi-session serving gates (tier-1, named in scripts/verify.sh).
//!
//! Pins the serving engine's two contracts, on a one-shard
//! `FleetRouter` whose queue bound never bites:
//!
//! 1. **Determinism** — the router drains N sessions in parallel, yet
//!    every session's output is bit-for-bit what a lone
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
use polardraw_core::fleet::{CheckpointPolicy, FleetConfig, FleetRouter};
use polardraw_core::{CheckpointStore, OnlineOptions, OnlineTracker, PolarDrawConfig, TrackOutput};
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

/// One shard on `threads` workers whose queue bound never bites, so
/// every offer is admitted whole and no session is ever degraded.
fn one_shard_config(threads: usize) -> FleetConfig {
    FleetConfig {
        shards: 1,
        threads_per_shard: threads,
        queue_cap: usize::MAX,
        soft_session_cap: usize::MAX,
        ..FleetConfig::default()
    }
}

fn one_shard(threads: usize) -> FleetRouter {
    FleetRouter::new(one_shard_config(threads))
}

/// Trails of [`FleetRouter::finish`] in session order, without the ids.
fn finish_outputs(fleet: FleetRouter) -> Vec<TrackOutput> {
    fleet.finish().into_iter().map(|(_, out)| out).collect()
}

fn options_for(i: usize) -> OnlineOptions {
    // Mixed lags exercise different commit cadences inside one shard.
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

/// Feed the streams through a one-shard router in interleaved,
/// per-session-skewed chunks (sessions run out of reports at different
/// rounds, so later drains exercise the wake-only-pending path), then
/// finish.
fn served_outputs(
    cfg: PolarDrawConfig,
    streams: &[Vec<TagReport>],
    threads: usize,
) -> Vec<TrackOutput> {
    let mut fleet = one_shard(threads);
    let ids: Vec<_> =
        (0..streams.len()).map(|i| fleet.add_session(cfg, options_for(i))).collect();
    let mut cursors = vec![0usize; streams.len()];
    let mut consumed = 0;
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
            assert_eq!(fleet.offer(ids[i], &reports[at..hi]), hi - at);
            cursors[i] = hi;
            any = true;
        }
        let round = fleet.drain();
        consumed += round.reports;
        if !any {
            assert_eq!((round.woken, round.reports), (0, 0), "no queues → no wakes");
            break;
        }
    }
    let total: usize = streams.iter().map(|s| s.len()).sum();
    assert_eq!(consumed, total, "every admitted report was consumed");
    finish_outputs(fleet)
}

/// The tentpole determinism gate: 32 mixed-fault sessions, served
/// output bitwise-identical to sequential at threads ∈ {1, 2, 8}.
#[test]
fn pool_is_bitwise_identical_to_sequential_across_threads() {
    let cfg = fleet_config();
    let streams = fleet_streams(32);
    let want = sequential_outputs(cfg, &streams);
    for threads in [1usize, 2, 8] {
        let got = served_outputs(cfg, &streams, threads);
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_outputs_bitwise_equal(g, w, &format!("session {i}, threads {threads}"));
        }
    }
}

/// Kernel plumbing through the router: sessions carrying mixed
/// `KernelOptions` (exact f64, fast f32+adaptive, f32-only) keep the
/// bitwise-vs-sequential contract at every drain width. The f32
/// kernels trade f64-exactness for speed but stay run-to-run
/// deterministic, and drain parallelism is across sessions only — so
/// the router must reproduce each solo tracker bit-for-bit regardless
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
        let mut fleet = one_shard(threads);
        let ids: Vec<_> = (0..streams.len())
            .map(|i| fleet.add_session(cfg, options_for(i).with_kernel(kernel_for(i))))
            .collect();
        for (i, reports) in streams.iter().enumerate() {
            fleet.offer(ids[i], reports);
        }
        fleet.drain();
        let got = finish_outputs(fleet);
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
/// single-report offers and drains after every report round, so the
/// router's wake bookkeeping and per-drain deltas are exercised
/// thousands of times rather than a handful.
#[test]
fn two_thread_stress_single_report_drains() {
    let cfg = fleet_config();
    let streams = fleet_streams(6);
    let want = sequential_outputs(cfg, &streams);

    let mut fleet = one_shard(2);
    let ids: Vec<_> =
        (0..streams.len()).map(|i| fleet.add_session(cfg, options_for(i))).collect();
    let longest = streams.iter().map(|s| s.len()).max().unwrap_or(0);
    let mut consumed = 0;
    for k in 0..longest {
        for (i, reports) in streams.iter().enumerate() {
            if let Some(r) = reports.get(k) {
                fleet.offer(ids[i], std::slice::from_ref(r));
            }
        }
        consumed += fleet.drain().reports;
    }
    assert_eq!(fleet.stats().drains, longest);
    assert_eq!(consumed, streams.iter().map(|s| s.len()).sum::<usize>());
    let got = finish_outputs(fleet);
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_outputs_bitwise_equal(g, w, &format!("stress session {i}"));
    }
}

/// Checkpoint/restore *through the router*: cut every session at a
/// swept point, seal it into a checkpoint store at the drain boundary,
/// crash the shard and recover every session from its sealed
/// generation, feed the remainders — bitwise the uncut run.
#[test]
fn checkpoint_restore_through_the_pool_is_bitwise_at_swept_cuts() {
    let cfg = fleet_config();
    let streams = fleet_streams(4);
    let reference = served_outputs(cfg, &streams, 2);
    let longest = streams.iter().map(|s| s.len()).max().unwrap_or(0);

    let stride = longest / 5 + 1;
    for cut in (0..=longest).step_by(stride) {
        let mut fleet = FleetRouter::new(FleetConfig {
            checkpoint: CheckpointPolicy { every_drains: 1 },
            ..one_shard_config(2)
        });
        fleet.attach_store(CheckpointStore::in_memory(2));
        let ids: Vec<_> =
            (0..streams.len()).map(|i| fleet.add_session(cfg, options_for(i))).collect();
        // First half through the router, sealed at the drain boundary…
        for (i, reports) in streams.iter().enumerate() {
            fleet.offer(ids[i], &reports[..cut.min(reports.len())]);
        }
        fleet.drain();
        // …the shard crashes and every session comes back from its
        // sealed generation over the checkpoint wire format…
        assert_eq!(fleet.kill_shard(0), ids.len());
        let rec = fleet.recover(0);
        assert_eq!(rec.restored, ids.len(), "restore at cut {cut}");
        assert_eq!(rec.requeued_reports, 0, "the seal covered every admitted report");
        // …and the rest of each stream is fed to the restored trackers.
        for (i, reports) in streams.iter().enumerate() {
            fleet.offer(ids[i], &reports[cut.min(reports.len())..]);
        }
        fleet.drain();
        let got = finish_outputs(fleet);
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
    let mut fleet = one_shard(4);
    let ids: Vec<_> =
        (0..streams.len()).map(|i| fleet.add_session(cfg, options_for(i))).collect();
    for (i, reports) in streams.iter().enumerate() {
        fleet.offer(ids[i], reports);
    }
    fleet.drain();

    let first = fleet
        .tracker(ids[0])
        .decoder()
        .artifacts()
        .expect("session 0 decoded steps with Δθ²¹ measurements")
        .clone();
    let mut sharers = 0;
    for &id in &ids {
        let decoder = fleet.tracker(id).decoder();
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
    drop(fleet.finish());
}
