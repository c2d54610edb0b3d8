//! Deterministic chaos/soak gates for the self-healing fleet (tier 1,
//! named in scripts/verify.sh).
//!
//! A `rfid_sim::traffic` crowd (diurnal load, churn) is served through
//! a `FleetRouter` with a `CheckpointStore` attached while a derived
//! -seed `rfid_sim::chaos::ChaosPlan` injects faults at drain-round
//! boundaries: shard kills at swept cut points, corruption of the
//! newest committed checkpoint, duplicated recovery, stalled drains.
//! The gates:
//!
//! 1. **No panics** — any panic aborts the suite.
//! 2. **Zero report loss** — every generated report is eventually
//!    admitted exactly once and consumed.
//! 3. **Bitwise recovery** — the design's escrow ledger replays
//!    exactly what the restored generation had not seen, so recovery
//!    is bit-identical to an uncrashed run *even when the kill lands
//!    mid-window* (stronger than the lag-window divergence bound the
//!    durability design promises as its floor). Boundary kills restore
//!    with an empty replay tail; mid-window kills with a non-empty one
//!    — both asserted explicitly.
//! 4. **Corrupt-checkpoint fallback** — rotting the newest generation
//!    before the kill forces the restore walk-back; the failure is
//!    surfaced in `FleetStats::restore_fallbacks` and the output is
//!    *still* bit-identical, never a crash.

use experiments::setup::{polardraw_config_for, TrialSetup};
use polardraw_core::durability::CheckpointStore;
use polardraw_core::fleet::{CheckpointPolicy, FleetConfig, FleetRouter, RecoverReport};
use polardraw_core::{OnlineOptions, PolarDrawConfig, TrackOutput};
use rfid_sim::chaos::{mutate_bytes, ChaosAction, ChaosPlan};
use rfid_sim::traffic::{TrafficConfig, TrafficModel};
use rfid_sim::TagReport;

const ROUND_S: f64 = 10.0;
const ROUNDS: usize = 12;
const SOAK_SEED: u64 = 0xC4A0_5EED;

fn rig() -> PolarDrawConfig {
    polardraw_config_for(&TrialSetup::letter('L').with_cell_scale(8.0))
}

fn crowd() -> TrafficModel {
    TrafficModel::generate(
        TrafficConfig {
            sessions: 6,
            horizon_s: ROUNDS as f64 * ROUND_S,
            diurnal_period_s: 120.0,
            flash_crowds: 1,
            flash_width_s: 20.0,
            report_hz: 8.0,
            ..TrafficConfig::default()
        },
        SOAK_SEED,
    )
}

/// Serve the crowd through a chaos plan and return every trail plus
/// the router stats. Queue cap is effectively unbounded so the
/// degradation controller stays quiet — these gates isolate crash
/// recovery (overload has its own suite in tests/fleet.rs).
fn run_soak(
    plan: &ChaosPlan,
    threads: usize,
    every_drains: usize,
) -> (Vec<(usize, TrackOutput)>, polardraw_core::fleet::FleetStats) {
    let model = crowd();
    let cfg = rig();
    let mut fleet = FleetRouter::new(FleetConfig {
        shards: 2,
        threads_per_shard: threads,
        queue_cap: usize::MAX / 2,
        soft_session_cap: usize::MAX / 2,
        checkpoint: CheckpointPolicy { every_drains },
    });
    fleet.attach_store(CheckpointStore::in_memory(3));
    let ids: Vec<_> =
        model.plans().iter().map(|_| fleet.add_session(cfg, OnlineOptions::default())).collect();

    let mut generated = 0usize;
    let mut backlog: Vec<Vec<TagReport>> = vec![Vec::new(); ids.len()];
    for round in 0..ROUNDS {
        let t0 = round as f64 * ROUND_S;
        for (i, p) in model.plans().iter().enumerate() {
            let before = backlog[i].len();
            model.reports_into(p, t0, t0 + ROUND_S, &mut backlog[i]);
            generated += backlog[i].len() - before;
        }
        for (i, &id) in ids.iter().enumerate() {
            let admitted = fleet.offer(id, &backlog[i]);
            backlog[i].drain(..admitted);
        }
        let action = plan.action(round);
        if action != ChaosAction::StallDrain {
            fleet.drain();
        }
        match action {
            ChaosAction::Calm | ChaosAction::StallDrain => {}
            ChaosAction::KillRecover { shard } => {
                fleet.kill_shard(shard);
                fleet.recover(shard);
            }
            ChaosAction::DuplicateRecover { shard } => {
                fleet.kill_shard(shard);
                fleet.recover(shard);
                assert_eq!(
                    fleet.recover(shard),
                    RecoverReport::default(),
                    "round {round}: duplicated recovery must be a no-op"
                );
            }
            ChaosAction::CorruptLatest { shard, mutation } => {
                for &id in &ids {
                    if fleet.shard_of(id) != shard {
                        continue;
                    }
                    let store = fleet.store_mut().expect("store attached");
                    let Some(generation) = store.latest(id as u64) else {
                        continue;
                    };
                    let bytes = store.read(id as u64, generation).expect("committed bytes");
                    let mut rotten = mutate_bytes(&bytes, mutation ^ id as u64);
                    if rotten == bytes {
                        rotten.truncate(bytes.len() / 2);
                    }
                    store.overwrite(id as u64, generation, &rotten);
                }
                fleet.kill_shard(shard);
                fleet.recover(shard);
            }
        }
    }
    // Drain whatever the stalls deferred; nothing may be left behind.
    let mut settle = 0;
    while backlog.iter().any(|b| !b.is_empty()) {
        for (i, &id) in ids.iter().enumerate() {
            let admitted = fleet.offer(id, &backlog[i]);
            backlog[i].drain(..admitted);
        }
        fleet.drain();
        settle += 1;
        assert!(settle < 100, "soak failed to drain its backlog");
    }
    fleet.drain();

    let stats = fleet.stats();
    assert_eq!(stats.admitted, generated, "every generated report admitted exactly once");
    assert_eq!(stats.live, ids.len(), "no session shed");
    (fleet.finish(), stats)
}

fn assert_trails_bitwise_equal(
    got: &[(usize, TrackOutput)],
    want: &[(usize, TrackOutput)],
    ctx: &str,
) {
    assert_eq!(got.len(), want.len(), "{ctx}: session count");
    for ((gid, g), (wid, w)) in got.iter().zip(want) {
        assert_eq!(gid, wid, "{ctx}: session order");
        assert_eq!(g.trail.points.len(), w.trail.points.len(), "{ctx}/{gid}: trail length");
        for (p, q) in g.trail.points.iter().zip(&w.trail.points) {
            assert_eq!(p.x.to_bits(), q.x.to_bits(), "{ctx}/{gid}: x bits");
            assert_eq!(p.y.to_bits(), q.y.to_bits(), "{ctx}/{gid}: y bits");
        }
        for (x, y) in g.trail.times.iter().zip(&w.trail.times) {
            assert_eq!(x.to_bits(), y.to_bits(), "{ctx}/{gid}: time bits");
        }
        assert_eq!(g.steps, w.steps, "{ctx}/{gid}: steps");
        assert_eq!(g.decode_stats, w.decode_stats, "{ctx}/{gid}: decode stats");
    }
}

fn reference() -> Vec<(usize, TrackOutput)> {
    let calm = ChaosPlan::kill_at(usize::MAX, 0, ROUNDS);
    run_soak(&calm, 1, 1).0
}

/// Gate 3a: a kill right after a checkpoint boundary (`every_drains =
/// 1` seals at every drain) restores with an empty escrow tail and is
/// bitwise invisible — at every swept cut point, both shards, and
/// thread counts 1/2/8.
#[test]
fn boundary_kill_recovery_is_bitwise_invisible() {
    let want = reference();
    for &threads in &[1usize, 2, 8] {
        for &kill in &[1usize, 4, 8, 11] {
            // Every session shares one rig, so affinity colonizes
            // shard 0 — that is the shard whose death hurts.
            let shard = 0;
            let plan = ChaosPlan::kill_at(kill, shard, ROUNDS);
            let (got, stats) = run_soak(&plan, threads, 1);
            assert_eq!(stats.shard_kills, 1);
            assert!(stats.recoveries > 0, "the killed shard hosted sessions");
            assert_eq!(stats.restore_fallbacks, 0, "clean store: no walk-back");
            assert_trails_bitwise_equal(
                &got,
                &want,
                &format!("kill@{kill} shard{shard} threads{threads}"),
            );
        }
    }
}

/// Gate 3b: a kill *between* checkpoints (`every_drains = 3`) forces a
/// non-empty escrow replay; the escrow ledger reconstructs the exact
/// push sequence, so the result is still bit-identical (the design's
/// lag-window divergence bound is its floor; the implementation
/// achieves zero divergence).
#[test]
fn mid_window_kill_replays_escrow_and_stays_bitwise() {
    let want = reference();
    for &(threads, kill) in &[(1usize, 2usize), (1, 7), (8, 5), (8, 10)] {
        let shard = 0;
        let plan = ChaosPlan::kill_at(kill, shard, ROUNDS);
        let (got, stats) = run_soak(&plan, threads, 3);
        assert_eq!(stats.shard_kills, 1);
        assert!(stats.recoveries > 0, "the killed shard hosted sessions");
        assert_trails_bitwise_equal(
            &got,
            &want,
            &format!("mid-window kill@{kill} shard{shard} threads{threads}"),
        );
    }
}

/// Gate 4: rot the newest committed generation of every session on a
/// shard, then kill it. Restore walks back to the previous good
/// generation, surfaces the rot in `FleetStats::restore_fallbacks`,
/// and the escrow replay still makes the outcome bit-identical.
#[test]
fn corrupted_checkpoints_fall_back_surface_and_stay_bitwise() {
    let want = reference();
    let mut actions = vec![ChaosAction::Calm; ROUNDS];
    actions[6] = ChaosAction::CorruptLatest { shard: 0, mutation: 0xBAD_F00D };
    let plan = ChaosPlan::from_actions(actions);
    let (got, stats) = run_soak(&plan, 1, 2);
    assert_eq!(stats.shard_kills, 1);
    assert!(
        stats.restore_fallbacks > 0,
        "rotten newest generation must be surfaced, not silently retried"
    );
    assert_trails_bitwise_equal(&got, &want, "corrupt-latest kill@6 shard0");
}

/// Gates 1 + 2 as a soak: a derived-seed random plan mixing every
/// fault family (kills, duplicate recovery, checkpoint rot, stalled
/// drains) over the traffic crowd — no panics, zero report loss, and
/// because escrow replay is exact and stalls only delay (never
/// reorder) pushes, the outcome is still bitwise equal to the calm
/// run.
#[test]
fn random_chaos_soak_loses_nothing_and_stays_bitwise() {
    let want = reference();
    for seed in [7u64, 0xD15EA5E] {
        let plan = ChaosPlan::generate(seed, ROUNDS, 2);
        let (got, stats) = run_soak(&plan, 2, 2);
        assert_eq!(stats.shard_kills, plan.kill_rounds().len());
        assert_trails_bitwise_equal(&got, &want, &format!("random soak seed {seed}"));
    }
}
