//! Fleet-scale serving baseline: the `FleetRouter` front door at
//! 64/256/1024 sessions, with an overload run, a migration-cost row and
//! seal and recovery rows.
//!
//! Row families (all on one shared rig, grid coarsened 8× so a
//! 1024-session fleet is tractable on a laptop — the committed numbers
//! are a *relative* baseline, not paper-fidelity decode cost). The
//! sustained/overload rows synthesize endless monotone-time streams on
//! the fly (every offered report is fresh decode work — a finite
//! pre-generated stream would wrap its timestamps and measure the
//! late-drop path instead); the migration and lifecycle rows use
//! `rfid_sim::traffic` session streams, like the committed `overload`
//! experiment:
//!
//! * `fleet/step/sessions{N}` and `…/p99` — sustained serving:
//!   every session offered one chunk per round, drained; the sample is
//!   per-drained-report wall time for one round, so rows are
//!   work-normalized and comparable across fleet sizes and load.
//!   Every session is first warmed [`WARM`] reports deep: the wander
//!   stream's decode frontier grows over roughly the first 256 reports
//!   before plateauing, so sampling an un-warmed fleet would compare
//!   ramp-up cost against steady-state cost and the overload/unloaded
//!   ratio would measure stream depth, not load. Recorded via
//!   `Bench::record_ns` because rounds mutate the fleet (queues,
//!   controller state) and are not interchangeable iterations.
//!   Aggregate reports/s per fleet size lands in the notes.
//! * `fleet/step/sessions256/overload8x` and `…/p99` — the same fleet
//!   offered 8× its queue capacity each round: backpressure defers the
//!   excess and the degradation ladder steps in. The committed
//!   no-collapse floor (`scripts/bench.sh --suite fleet`) gates this
//!   row's p99 at ≤ 10× the unloaded `sessions256` p50 — degradation,
//!   not collapse, under 8× overload.
//! * `fleet/migrate/warm` — one live migration (drain → checkpoint →
//!   re-adopt on the other shard) of a warmed session, ping-ponged
//!   between shards.
//! * `fleet/seal/session/cold` and `…/warm` — one `seal_checkpoint`
//!   per session of a 16-session fleet warmed 128 reports deep, the
//!   sample being wall time ÷ sessions. Each round first drains one
//!   more [`CHUNK`] of reports per session; `warm` then seals the live
//!   trackers, whose seal caches hold the text of everything they
//!   sealed the round before, and `cold` seals trackers just restored
//!   from those seals, whose caches are empty (every history item and
//!   lag frame formatted). Same state, same bytes: the gap is what the
//!   cache saves a periodic seal. Bytes sealed and bytes formatted per
//!   seal land in the notes (deterministic counters).
//! * `fleet/recover/session` — per-session crash recovery: a warmed,
//!   checkpointed one-shard fleet is killed and recovered each
//!   iteration; the sample is `recover()` wall time ÷ sessions
//!   (checkpoint open + CRC verify + tracker rebuild at a boundary
//!   kill, so the escrow replay tail is empty). The committed gate
//!   (`scripts/bench.sh --suite fleet`) holds this row under an
//!   absolute ceiling — recovery must stay interactive.
//! * `fleet/lifecycle/sessions64/threads{1,8}` — full short lifecycle
//!   at 1 vs 8 worker threads per shard for the core-count-aware
//!   scaling gate (same contract as the serve drain matrix).

use experiments::setup::{polardraw_config_for, TrialSetup};
use polardraw_bench::harness::Bench;
use polardraw_core::fleet::{FleetConfig, FleetRouter};
use polardraw_core::OnlineOptions;
use rfid_sim::traffic::{TrafficConfig, TrafficModel};
use rfid_sim::TagReport;
use std::time::Instant;

/// Grid coarsening for every row (see module docs).
const COARSEN: f64 = 8.0;

/// Reports offered per session per sustained round.
const CHUNK: usize = 8;

/// Stream depth every session is warmed to before sampling: past the
/// decode frontier's ramp-up (~256 reports on this rig), so all rows
/// measure steady-state per-report cost.
const WARM: usize = 512;

/// Pre-generated stream length per session (rounds cycle through it).
const STREAM: usize = 192;

fn rig() -> polardraw_core::PolarDrawConfig {
    let mut setup = TrialSetup::letter('L');
    setup.cell_scale *= COARSEN;
    polardraw_config_for(&setup)
}

/// Traffic-generated per-session streams: one `SessionPlan` per fleet
/// session, its report stream truncated/padded to [`STREAM`] reports.
fn traffic_streams(n: usize) -> Vec<Vec<TagReport>> {
    let model = TrafficModel::generate(
        TrafficConfig {
            sessions: n,
            horizon_s: 240.0,
            report_hz: 100.0,
            write_min_s: 4.0,
            ..TrafficConfig::default()
        },
        0x0F1EE7,
    );
    model
        .plans()
        .iter()
        .map(|plan| {
            let mut reports = model.reports_for(plan, 0.0, model.config().horizon_s);
            reports.truncate(STREAM);
            if reports.is_empty() {
                // A plan arriving at the very end of the horizon can
                // emit nothing in-window; give it one seed report.
                reports = model.reports_for(plan, plan.start_s, plan.end_s());
                reports.truncate(1);
            }
            // Short plans wrap around so every session has STREAM
            // reports to cycle through (content only matters as decode
            // work here).
            let base = reports.len().max(1);
            while !reports.is_empty() && reports.len() < STREAM {
                let r = reports[reports.len() % base];
                reports.push(r);
            }
            reports
        })
        .collect()
}

/// Endless synthetic stream: monotone 10 ms-spaced timestamps (5
/// reports per 50 ms pre-processing window), alternating antennas,
/// per-session phase offset. Cheap enough that generation is noise
/// next to decode.
fn endless_report(session: usize, k: usize) -> TagReport {
    TagReport {
        t: k as f64 * 0.01,
        antenna: k % 2,
        rssi_dbm: -55.0 - (session % 7) as f64,
        phase_rad: rf_core::wrap_tau(0.02 * k as f64 + 0.37 * session as f64),
        channel: (k / 64) % 50,
        epc: 0xF1EE7 + session as u64,
    }
}

struct RoundLoop {
    fleet: FleetRouter,
    ids: Vec<usize>,
    /// Next stream position per session (admitted reports only, so
    /// deferral never rewinds time within a session).
    cursors: Vec<usize>,
}

impl RoundLoop {
    fn new(n: usize, queue_cap: usize) -> RoundLoop {
        let cfg = rig();
        let mut fleet = FleetRouter::new(FleetConfig {
            shards: 8,
            threads_per_shard: 1,
            queue_cap,
            // Everyone shares one rig; a low soft cap makes affinity
            // spill the colony across shards instead of pinning the
            // whole fleet to shard 0.
            soft_session_cap: 32,
            ..FleetConfig::default()
        });
        let ids: Vec<usize> =
            (0..n).map(|_| fleet.add_session(cfg, OnlineOptions::default())).collect();
        RoundLoop { fleet, ids, cursors: vec![0; n] }
    }

    /// Warm every session at least `target` reports deep in rounds
    /// small enough (16/session) that the queue watermark never trips
    /// on the way there.
    fn warm(&mut self, target: usize) {
        while self.cursors.iter().any(|&c| c < target) {
            self.round(16);
        }
    }

    /// Offer `per_session` fresh reports to every session, drain, and
    /// return `(elapsed_ns, reports_drained)`. Each session's cursor
    /// advances only past *admitted* reports, so what an overloaded
    /// shard defers is re-offered (same stream position) next round.
    fn round(&mut self, per_session: usize) -> (f64, usize) {
        let mut chunk = Vec::with_capacity(per_session);
        let t0 = Instant::now();
        for (i, &id) in self.ids.iter().enumerate() {
            let at = self.cursors[i];
            chunk.clear();
            chunk.extend((0..per_session).map(|k| endless_report(i, at + k)));
            self.cursors[i] += self.fleet.offer(id, &chunk);
        }
        let report = self.fleet.drain();
        (t0.elapsed().as_nanos() as f64, report.reports)
    }
}

fn main() {
    let mut bench = Bench::from_args("fleet");
    let quick = std::env::var_os("POLARDRAW_BENCH_QUICK").is_some()
        || std::env::args().any(|a| a == "--quick");
    let rounds = if quick { 4 } else { 48 };
    let warm_depth = if quick { 64 } else { WARM };
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    // Sustained serving vs fleet size. Per-report sample keeps rows
    // comparable across sizes; p99 is published as its own row so
    // bench_check can gate on it by name.
    let mut throughput_lines = Vec::new();
    for &n in &[64usize, 256, 1024] {
        let row = format!("fleet/step/sessions{n}");
        if !bench.selects(&row) && !bench.selects(&format!("{row}/p99")) {
            continue;
        }
        let mut run = RoundLoop::new(n, usize::MAX / 2);
        run.warm(warm_depth); // artifact cache, queue capacity, frontier plateau
        let mut samples = Vec::with_capacity(rounds);
        let (mut total_ns, mut total_reports) = (0.0f64, 0usize);
        for _ in 0..rounds {
            let (ns, reports) = run.round(CHUNK);
            samples.push(ns / reports.max(1) as f64);
            total_ns += ns;
            total_reports += reports;
        }
        samples.sort_by(|a, b| a.total_cmp(b));
        let p99 = samples[((samples.len() - 1) as f64 * 0.99).round() as usize];
        bench.record_ns(&row, &samples);
        bench.record_ns(&format!("{row}/p99"), &[p99]);
        throughput_lines
            .push(format!("{n}: {:.0} reports/s", total_reports as f64 / (total_ns * 1e-9)));
    }
    if !throughput_lines.is_empty() {
        bench.note(format!(
            "sustained aggregate drain throughput by fleet size ({CHUNK} reports/session/round, \
             {rounds} rounds, {COARSEN}x-coarsened grid, 8 shards): {}",
            throughput_lines.join(", ")
        ));
    }

    // Overload: 256 sessions offered 8x the shard queue capacity per
    // round. Admission is bounded (the rest is deferred to the next
    // round's offer), the controller walks the degradation ladder, and
    // per-report cost *drops* as rungs engage — that is the
    // no-collapse contract the committed gate checks.
    if bench.selects("fleet/step/sessions256/overload8x")
        || bench.selects("fleet/step/sessions256/overload8x/p99")
    {
        let queue_cap = 2048;
        let mut run = RoundLoop::new(256, queue_cap);
        run.warm(warm_depth);
        let per_session = (8 * queue_cap * run.fleet.shards()) / 256;
        let mut samples = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            let (ns, reports) = run.round(per_session);
            samples.push(ns / reports.max(1) as f64);
        }
        samples.sort_by(|a, b| a.total_cmp(b));
        let p99 = samples[((samples.len() - 1) as f64 * 0.99).round() as usize];
        bench.record_ns("fleet/step/sessions256/overload8x", &samples);
        bench.record_ns("fleet/step/sessions256/overload8x/p99", &[p99]);
        let stats = run.fleet.stats();
        bench.note(format!(
            "overload run: offered {per_session} reports/session/round against a \
             {queue_cap}-report shard cap; peak rung {}/{} (degrade/recover steps {}/{}), \
             peak queue {} of cap, {} of {} offered reports admitted (rest deferred, \
             none dropped: {} of {} sessions live at finish)",
            stats.peak_level,
            polardraw_core::fleet::MAX_LEVEL,
            stats.degrade_steps,
            stats.recover_steps,
            stats.peak_pending,
            stats.admitted,
            stats.offered,
            stats.live,
            stats.sessions,
        ));
    }

    // Live migration cost: ping-pong one warmed session between two
    // shards. Each iteration is a full checkpoint → restore → move
    // round trip.
    if bench.selects("fleet/migrate/warm") {
        let cfg = rig();
        let mut fleet = FleetRouter::new(FleetConfig {
            shards: 2,
            threads_per_shard: 1,
            ..FleetConfig::default()
        });
        let streams = traffic_streams(1);
        let id = fleet.add_session(cfg, OnlineOptions::default());
        let _ = fleet.offer(id, &streams[0][..128]);
        fleet.drain();
        let mut text_len = 0;
        bench.bench("fleet/migrate/warm", || {
            let to = 1 - fleet.shard_of(id);
            text_len = fleet.migrate(id, to);
            to
        });
        bench.note(format!(
            "migration round trip carries the full bitwise checkpoint \
             ({text_len} bytes for a 128-report warm session); equivalence to never \
             having moved is proven by tests/fleet.rs"
        ));
    }

    // Seal cost, warm and cold, on the same sessions in the same state
    // (see the module docs).
    if bench.selects("fleet/seal/session/cold") || bench.selects("fleet/seal/session/warm") {
        use polardraw_core::durability::{open_checkpoint, seal_checkpoint};
        let sessions = 16usize;
        let iters = if quick { 4 } else { 24 };
        let cfg = rig();
        let mut run = RoundLoop::new(sessions, usize::MAX / 2);
        run.warm(128);
        for &id in &run.ids {
            seal_checkpoint(run.fleet.tracker(id), 1);
        }
        let (mut warm, mut cold) = (Vec::with_capacity(iters), Vec::with_capacity(iters));
        let (mut sealed_bytes, mut warm_formatted, mut cold_formatted) = (0usize, 0u64, 0u64);
        for _ in 0..iters {
            run.round(CHUNK);
            let formatted = |fleet: &FleetRouter| {
                run.ids.iter().map(|&id| fleet.tracker(id).checkpoint_bytes_formatted()).sum::<u64>()
            };
            let before = formatted(&run.fleet);
            let t0 = Instant::now();
            let texts: Vec<String> =
                run.ids.iter().map(|&id| seal_checkpoint(run.fleet.tracker(id), 2)).collect();
            warm.push(t0.elapsed().as_nanos() as f64 / sessions as f64);
            warm_formatted += formatted(&run.fleet) - before;
            sealed_bytes += texts.iter().map(String::len).sum::<usize>();

            let restored: Vec<_> = texts
                .iter()
                .map(|text| open_checkpoint(cfg, text).expect("a fresh seal opens").tracker)
                .collect();
            let t0 = Instant::now();
            for tracker in &restored {
                seal_checkpoint(tracker, 2);
            }
            cold.push(t0.elapsed().as_nanos() as f64 / sessions as f64);
            cold_formatted += restored.iter().map(|t| t.checkpoint_bytes_formatted()).sum::<u64>();
        }
        bench.record_ns("fleet/seal/session/cold", &cold);
        bench.record_ns("fleet/seal/session/warm", &warm);
        let seals = (iters * sessions) as u64;
        bench.note(format!(
            "seal rows: {sessions} sessions warmed 128 reports deep, then {iters} rounds of \
             {CHUNK} reports per session; per seal {} bytes sealed, {} bytes formatted warm, \
             {} bytes formatted cold (deterministic counters)",
            sealed_bytes as u64 / seals,
            warm_formatted / seals,
            cold_formatted / seals,
        ));
    }

    // Crash recovery cost: kill a warmed, checkpointed one-shard fleet
    // and rebuild every session from the store. Boundary kills (the
    // checkpoint policy seals every drain) keep the escrow tail empty,
    // so the sample isolates restore cost — parse + CRC verify +
    // decoder rebuild — not replay decode work.
    if bench.selects("fleet/recover/session") {
        use polardraw_core::durability::CheckpointStore;
        use polardraw_core::fleet::CheckpointPolicy;
        let cfg = rig();
        let sessions = 16usize;
        let mut fleet = FleetRouter::new(FleetConfig {
            shards: 1,
            threads_per_shard: 1,
            queue_cap: usize::MAX / 2,
            soft_session_cap: usize::MAX / 2,
            checkpoint: CheckpointPolicy { every_drains: 1 },
        });
        fleet.attach_store(CheckpointStore::in_memory(3));
        let streams = traffic_streams(sessions);
        let ids: Vec<usize> = (0..sessions)
            .map(|_| fleet.add_session(cfg, OnlineOptions::default()))
            .collect();
        for (i, &id) in ids.iter().enumerate() {
            let _ = fleet.offer(id, &streams[i][..128]);
        }
        fleet.drain(); // seals generation 1 for every session
        let iters = if quick { 4 } else { 24 };

        let mut samples = Vec::with_capacity(iters);
        for _ in 0..iters {
            fleet.kill_shard(0);
            let t0 = Instant::now();
            let rec = fleet.recover(0);
            let ns = t0.elapsed().as_nanos() as f64;
            assert_eq!(rec.restored, sessions, "every session restores from the store");
            samples.push(ns / sessions as f64);
        }
        bench.record_ns("fleet/recover/session", &samples);
        bench.note(format!(
            "recover row: {sessions} x 128-report warm sessions on one shard, killed and \
             restored from an in-memory CheckpointStore (keep 3, boundary kills, empty \
             escrow tail); bitwise equivalence to never crashing is proven by tests/chaos.rs"
        ));
    }

    // Lifecycle at 1 vs 8 threads per shard for the scaling gate.
    {
        let cfg = rig();
        let streams = traffic_streams(64);
        for &threads in &[1usize, 8] {
            bench.bench(&format!("fleet/lifecycle/sessions64/threads{threads}"), || {
                let mut fleet = FleetRouter::new(FleetConfig {
                    shards: 4,
                    threads_per_shard: threads,
                    queue_cap: usize::MAX / 2,
                    ..FleetConfig::default()
                });
                let ids: Vec<usize> = (0..64)
                    .map(|_| fleet.add_session(cfg, OnlineOptions::default()))
                    .collect();
                let mut at = 0;
                while at < 64 {
                    for (i, &id) in ids.iter().enumerate() {
                        let s = &streams[i];
                        let _ = fleet.offer(id, &s[at..(at + 16).min(s.len())]);
                    }
                    fleet.drain();
                    at += 16;
                }
                fleet.finish().len()
            });
        }
    }

    bench.note(format!(
        "measurement host has {nproc} hardware thread(s); the threads8 lifecycle row \
         needs real cores to beat threads1 (scripts/bench.sh scales its floor with the \
         core count), and every row is wall-clock on a {COARSEN}x-coarsened grid — \
         paper-fidelity per-report decode cost lives in BENCH_throughput.json"
    ));
    bench.finish();
}
