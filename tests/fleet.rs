//! Fleet front-door gates (tier-1, named in scripts/verify.sh).
//!
//! Pins the multi-shard `FleetRouter` contracts on top of the one-shard
//! ones in tests/serve.rs:
//!
//! 1. **Migration equivalence** — a live session migrated between
//!    shards (bitwise checkpoint round trip, queued reports carried
//!    over) produces output bit-for-bit identical to never
//!    having moved, at every swept cut point and at thread counts
//!    1/2/8.
//! 2. **No-collapse overload** — under offered load beyond the ingest
//!    bound the fleet defers (never drops) reports, keeps every queue
//!    within its cap, walks the degradation ladder monotonically in
//!    load, and recovers hysteretically once the pressure lifts.

use experiments::setup::{polardraw_config_for, simulate_reports, TrialSetup};
use polardraw_core::fleet::{FleetConfig, FleetRouter, MAX_LEVEL, RECOVER_AFTER};
use polardraw_core::{OnlineOptions, OnlineTracker, PolarDrawConfig, TrackOutput};
use rf_core::rng::derive_seed_indexed;
use rfid_sim::faults::FaultPlan;
use rfid_sim::TagReport;

/// One coarse-grid rig shared by every session (same construction as
/// tests/serve.rs: the board depends only on the letter count).
fn fleet_config() -> PolarDrawConfig {
    polardraw_config_for(&TrialSetup::letter('L').with_cell_scale(6.0))
}

/// Mixed-fault session streams on the shared rig.
fn fleet_streams(n: usize) -> Vec<Vec<TagReport>> {
    let letters = ['L', 'S', 'W', 'Z'];
    (0..n)
        .map(|i| {
            let mut setup =
                TrialSetup::letter(letters[i % letters.len()]).with_cell_scale(6.0);
            setup.faults = match i % 3 {
                0 => None,
                1 => Some(FaultPlan::clean_lab()),
                _ => Some(FaultPlan::flaky_office()),
            };
            let seed = derive_seed_indexed(0xF1EE7, "fleet.pen", i as u64);
            simulate_reports(&setup, seed).1
        })
        .collect()
}

fn options_for(i: usize) -> OnlineOptions {
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
}

/// Admitting the first session on a never-seen rig fingerprint must
/// build the shared decode artifacts *at admission* — the first
/// measurement-bearing drain finds a warm cache instead of paying the
/// emission-table cold start on the session's critical path.
#[test]
fn new_rig_admission_prewarms_decode_artifacts() {
    // A cell scale no other test in this binary uses, so this artifact
    // entry is provably cold before the admission below.
    let config = polardraw_config_for(&TrialSetup::letter('O').with_cell_scale(9.0));
    let grid = polardraw_core::hmm::Grid::covering(
        config.board_min,
        config.board_max,
        config.hmm.cell_m,
    );
    let arts =
        polardraw_core::hmm::artifacts_for(&grid, config.antennas, config.hmm.wavelength_m);
    assert!(
        arts.emission_if_built().is_none(),
        "rig must start cold for the prewarm assertion to mean anything"
    );

    let mut fleet = FleetRouter::new(FleetConfig::default());
    let id = fleet.add_session(config, OnlineOptions::batch());
    assert!(
        arts.emission_if_built().is_some(),
        "admission on a new ShardKey must leave the emission table warm before any drain"
    );

    // The warm cache serves the session normally: feed a real stream
    // and check the fleet output matches a lone tracker's.
    let setup = TrialSetup::letter('O').with_cell_scale(9.0);
    let reports = simulate_reports(&setup, derive_seed_indexed(0xF1EE7, "fleet.warm", 0)).1;
    let mut offered = 0;
    while offered < reports.len() {
        offered += fleet.offer(id, &reports[offered..]);
        fleet.drain();
    }
    let fleet_out = fleet.finish_session(id);
    let mut solo = OnlineTracker::new(config, OnlineOptions::batch());
    solo.extend(&reports);
    assert_outputs_bitwise_equal(&fleet_out, &solo.finalize(), "prewarmed fleet vs solo");

    // A second session on the *same* key must not rebuild: same Arc,
    // now additionally held by this test and the cache.
    let before = std::sync::Arc::as_ptr(&arts);
    fleet.add_session(config, OnlineOptions::batch());
    let again =
        polardraw_core::hmm::artifacts_for(&grid, config.antennas, config.hmm.wavelength_m);
    assert_eq!(before, std::sync::Arc::as_ptr(&again), "repeat admission reuses the entry");
}

/// A router whose queue bound never bites and whose controller
/// therefore never degrades — migration must be provable in isolation.
fn unpressured_router(threads: usize) -> FleetRouter {
    FleetRouter::new(FleetConfig {
        shards: 2,
        threads_per_shard: threads,
        queue_cap: usize::MAX / 2,
        soft_session_cap: usize::MAX / 2,
        ..FleetConfig::default()
    })
}

/// The tentpole migration gate: every session cut at a swept point,
/// migrated to the other shard with part of its remainder still queued
/// (un-drained), then finished — bitwise what a lone tracker fed the
/// unbroken stream produces, at thread counts 1/2/8.
#[test]
fn migration_is_bitwise_equivalent_to_never_moving_at_every_cut() {
    let cfg = fleet_config();
    let streams = fleet_streams(4);
    let want: Vec<TrackOutput> = streams
        .iter()
        .enumerate()
        .map(|(i, reports)| {
            let mut solo = OnlineTracker::new(cfg, options_for(i));
            solo.extend(reports);
            solo.finalize()
        })
        .collect();
    let longest = streams.iter().map(|s| s.len()).max().unwrap_or(0);
    let stride = longest / 5 + 1;

    for threads in [1usize, 2, 8] {
        for cut in (0..=longest).step_by(stride) {
            let mut fleet = unpressured_router(threads);
            let ids: Vec<_> =
                (0..streams.len()).map(|i| fleet.add_session(cfg, options_for(i))).collect();
            // First segment, drained before the move…
            for (i, reports) in streams.iter().enumerate() {
                let lo = cut.min(reports.len());
                assert_eq!(fleet.offer(ids[i], &reports[..lo]), lo, "unpressured admits all");
            }
            fleet.drain();
            // …a bite of the remainder left *queued* so the migration
            // must carry live ingest, not just tracker state…
            let mut mids = Vec::new();
            for (i, reports) in streams.iter().enumerate() {
                let lo = cut.min(reports.len());
                let mid = (lo + 17).min(reports.len());
                fleet.offer(ids[i], &reports[lo..mid]);
                mids.push(mid);
            }
            // …the move itself…
            for &id in &ids {
                let from = fleet.shard_of(id);
                let to = (from + 1) % fleet.shards();
                let bytes = fleet.migrate(id, to);
                assert!(bytes > 0, "cut {cut}: migration serialized a checkpoint");
                assert_eq!(fleet.shard_of(id), to, "cut {cut}: session moved");
            }
            // …then the rest of every stream on the new shard.
            for (i, reports) in streams.iter().enumerate() {
                fleet.offer(ids[i], &reports[mids[i]..]);
            }
            fleet.drain();
            assert_eq!(fleet.stats().migrations, ids.len());
            for (id, got) in fleet.finish() {
                assert_outputs_bitwise_equal(
                    &got,
                    &want[id],
                    &format!("session {id}, cut {cut}, threads {threads}"),
                );
            }
        }
    }
}

/// Synthetic per-session load stream (content only matters as decode
/// work; overload behaviour is a queue/controller property).
fn synthetic_report(session: usize, k: usize) -> TagReport {
    TagReport {
        t: k as f64 * 0.01,
        antenna: k % 2,
        rssi_dbm: -55.0 - (session % 7) as f64,
        phase_rad: rf_core::wrap_tau(0.02 * k as f64 + session as f64),
        channel: 0,
        epc: 0xB00C + session as u64,
    }
}

/// Drive one load point against a small bounded queue; returns the
/// router after the loaded rounds (no recovery rounds yet).
fn overloaded_fleet(load: usize, cap: usize, rounds: usize) -> (FleetRouter, Vec<usize>) {
    let cfg = fleet_config();
    let mut fleet = FleetRouter::new(FleetConfig {
        shards: 1,
        threads_per_shard: 1,
        queue_cap: cap,
        soft_session_cap: usize::MAX / 2,
        ..FleetConfig::default()
    });
    let ids: Vec<_> = (0..8).map(|_| fleet.add_session(cfg, OnlineOptions::default())).collect();
    let per_session = 8 * load;
    for r in 0..rounds {
        for (i, &id) in ids.iter().enumerate() {
            let chunk: Vec<TagReport> =
                (0..per_session).map(|k| synthetic_report(i, r * per_session + k)).collect();
            fleet.offer(id, &chunk);
        }
        fleet.drain();
    }
    (fleet, ids)
}

/// The overload property gate: queues bounded by the cap, zero
/// sessions dropped, deferral only past the bound, degradation
/// monotone in load, and full hysteretic recovery once load stops.
#[test]
fn overload_is_bounded_monotone_and_recoverable() {
    let cap = 256;
    let rounds = 12;
    let mut peaks = Vec::new();
    for &load in &[1usize, 2, 4, 8] {
        let (mut fleet, ids) = overloaded_fleet(load, cap, rounds);
        let loaded = fleet.stats();

        // Bounded: the ingest queue never exceeded its cap.
        assert!(
            loaded.peak_pending <= cap,
            "load {load}: peak queue {} exceeds cap {cap}",
            loaded.peak_pending
        );
        // Never dropped: every session still live, every admitted
        // report consumed by a drain.
        assert_eq!(loaded.live, loaded.sessions, "load {load}: sessions shed");
        // Deferral appears only when offered load exceeds capacity.
        let offered_per_round = 8 * 8 * load;
        if offered_per_round <= cap {
            assert_eq!(loaded.offered, loaded.admitted, "load {load}: spurious deferral");
        } else {
            assert!(loaded.offered > loaded.admitted, "load {load}: overload must defer");
        }
        peaks.push(loaded.peak_level);

        // Recovery: calm rounds unwind the ladder completely, and the
        // sessions' effective options return to what they requested.
        for _ in 0..RECOVER_AFTER * MAX_LEVEL + 1 {
            fleet.drain();
        }
        let recovered = fleet.stats();
        assert_eq!(fleet.level(0), 0, "load {load}: ladder fully unwound");
        assert_eq!(
            recovered.degrade_steps, recovered.recover_steps,
            "load {load}: every step down was stepped back up"
        );
        for &id in &ids {
            assert_eq!(
                fleet.effective_options(id),
                OnlineOptions::default(),
                "load {load}: session {id} back on requested options"
            );
        }
        drop(fleet.finish());
    }
    // Monotone: more load never degrades *less*.
    assert!(
        peaks.windows(2).all(|w| w[0] <= w[1]),
        "peak rung must be monotone in load: {peaks:?}"
    );
    // And the sweep actually exercises the ladder end to end.
    assert_eq!(peaks.first(), Some(&0), "baseline load must not degrade");
    assert_eq!(peaks.last(), Some(&3), "top load must reach the last rung");
}
