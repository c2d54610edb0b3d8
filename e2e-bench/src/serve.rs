//! `serve` and `serve-durable`: an open loop through `FleetRouter`.
//!
//! Pens arrive and leave on the `rfid_sim::traffic` schedule (diurnal
//! swing, two flash crowds, Pareto write durations), each on one of two
//! rigs, which the router's rig affinity places on two shards. A pen is
//! added with `add_session` in the round it arrives and closed with
//! `finish_session` in the round it leaves. Every 50 ms virtual round
//! (one pre-processing window) offers the round's reports and runs one
//! `drain`, paced to the wall clock: round `r` falls due when its last
//! report was created, whatever happened to the rounds before it. The
//! arrival schedule and its pool of report streams are fixed; the run
//! seed deals the streams out to the pens.
//!
//! `serve-durable` attaches `CheckpointStore::in_memory(3)` with the
//! default `CheckpointPolicy` (seal every 8 drains), serves fewer pens,
//! and kills and recovers shard 0 once, at a fixed virtual time.

use crate::pacing::{Clock, Pacer, Unpaced, WallClock};
use crate::stats::{mean, percentile};
use crate::trace::Tracer;
use crate::{Metric, Outcome};
use experiments::setup::{polardraw_config_for, TrialSetup};
use polardraw_core::durability::CheckpointStore;
use polardraw_core::fleet::{
    FleetConfig, FleetDrainReport, FleetRouter, FleetSessionId, FleetStats,
};
use polardraw_core::hmm::{artifacts_for, Grid, KernelOptions};
use polardraw_core::{
    open_checkpoint, seal_checkpoint, OnlineOptions, OnlineTracker, PolarDrawConfig,
};
use rf_core::rng::{derive_seed, rng_from_seed};
use rfid_sim::tracking::Trail;
use rfid_sim::traffic::{SessionPlan, TrafficConfig, TrafficModel};
use rfid_sim::TagReport;
use std::time::Instant;

/// Virtual length of one serving round: one pre-processing window.
pub const ROUND_S: f64 = 0.05;

/// Pens arriving per second of traffic horizon. Sized so the busiest
/// rounds still finish within the round period on a 2-thread host.
const SERVE_PENS_PER_S: f64 = 80.0;

/// Fewer pens once checkpoint sealing is in the loop, sized so the
/// backlog never grows: a sealing drain in the busiest rounds may
/// overrun its round, and the rounds after it catch up.
const DURABLE_PENS_PER_S: f64 = 5.0;

/// Where in the horizon shard 0 is killed and recovered (durable only).
const KILL_AT: f64 = 0.6;

/// Sessions whose fleet output is replayed through a bare
/// `OnlineTracker` after the run and compared bit for bit.
const VERIFY_SESSIONS: usize = 12;

/// Live sessions probed with `seal_checkpoint`/`open_checkpoint` at the
/// end of a traced durable run.
const PROBE_SESSIONS: usize = 12;

/// Seconds of traffic served, unpaced, before the untraced pass of a
/// traced run, so that neither pass carries the cost of lazily built
/// caches.
const WARMUP_S: f64 = 2.0;

/// The recorded trail digest of every finished trail, per (workload,
/// seed, horizon), for the run seeds in [`RECORDED_SEEDS`] at
/// [`RECORDED_SECONDS`].
const EXPECTED: &str = include_str!("../expected/serve.tsv");

/// Where `--write-expected` writes the table, relative to the
/// repository root.
const EXPECTED_PATH: &str = "e2e-bench/expected/serve.tsv";

/// Run seeds whose digests are recorded.
pub const RECORDED_SEEDS: std::ops::RangeInclusive<u64> = 1..=10;

/// The horizon the digests are recorded at: `run_seconds` in
/// `BENCHMARK.json`.
pub const RECORDED_SECONDS: f64 = 60.0;

/// The streaming options every pen runs.
fn options() -> OnlineOptions {
    OnlineOptions {
        lag: 64,
        hold: 2,
        kernel: KernelOptions::fast(),
    }
}

/// The two rigs: the paper's letter rig at two antenna standoffs, so
/// their decode artifacts and shard keys differ.
pub struct Rig {
    configs: [PolarDrawConfig; 2],
    /// Time spent building the decode artifacts of both rigs, seconds.
    pub artifacts_s: f64,
}

fn rig_config(standoff_m: f64) -> PolarDrawConfig {
    let mut setup = TrialSetup::letter('A');
    setup.standoff_m = standoff_m;
    polardraw_config_for(&setup)
}

/// A fresh router: two shards, one worker thread each.
pub fn router(durable: bool) -> FleetRouter {
    let mut fleet = FleetRouter::new(FleetConfig {
        shards: 2,
        threads_per_shard: 1,
        ..FleetConfig::default()
    });
    if durable {
        fleet.attach_store(CheckpointStore::in_memory(3));
    }
    fleet
}

/// Build both rigs' decode artifacts and the router.
pub fn setup(durable: bool) -> (Rig, FleetRouter) {
    let configs = [rig_config(0.65), rig_config(0.8)];
    let t = Instant::now();
    for c in &configs {
        let grid = Grid::covering(c.board_min, c.board_max, c.hmm.cell_m);
        artifacts_for(&grid, c.antennas, c.hmm.wavelength_m).prewarm();
    }
    let artifacts_s = t.elapsed().as_secs_f64();
    (
        Rig {
            configs,
            artifacts_s,
        },
        router(durable),
    )
}

/// Seed of the arrival schedule. The schedule (arrivals, flash crowds,
/// write durations, rigs) and its pool of report streams are part of the
/// workload's definition and the same for every run seed, so the load
/// shape does not change from seed to seed; `--seed` deals the streams
/// out to the pens in its own order, as `letters` takes its corpus.
const SCHEDULE_SEED: u64 = 0x5C4E_D01E;

/// The load for one run: `rfid_sim::traffic` session plans whose report
/// streams are dealt out by the run seed.
pub struct Traffic {
    model: TrafficModel,
    plans: Vec<SessionPlan>,
}

impl Traffic {
    /// The traffic for a horizon. Arrivals scale with the horizon and the
    /// diurnal cycle repeats twice per run, so the concurrency profile is
    /// the same for any run length.
    pub fn new(durable: bool, seed: u64, horizon_s: f64) -> Traffic {
        let per_s = if durable {
            DURABLE_PENS_PER_S
        } else {
            SERVE_PENS_PER_S
        };
        let model = TrafficModel::generate(
            TrafficConfig {
                sessions: (per_s * horizon_s).round() as usize,
                horizon_s,
                diurnal_period_s: horizon_s / 2.0,
                diurnal_floor: 0.7,
                flash_crowds: 2,
                flash_boost: 1.0,
                flash_width_s: horizon_s / 10.0,
                rigs: 2,
                write_min_s: 1.0,
                write_tail_alpha: 1.3,
                write_max_s: 4.0,
                report_hz: 100.0,
            },
            SCHEDULE_SEED,
        );
        let mut streams: Vec<u64> = model.plans().iter().map(|p| p.seed).collect();
        let mut rng = rng_from_seed(derive_seed(seed, "serve.streams"));
        for i in (1..streams.len()).rev() {
            streams.swap(i, rng.gen_index(i + 1));
        }
        let plans = model
            .plans()
            .iter()
            .zip(streams)
            .map(|(&p, seed)| SessionPlan { seed, ..p })
            .collect();
        Traffic { model, plans }
    }

    fn horizon_s(&self) -> f64 {
        self.model.config().horizon_s
    }

    /// Every pen, in arrival order.
    pub fn plans(&self) -> &[SessionPlan] {
        &self.plans
    }

    /// Append pen `i`'s reports in `[t0, t1)`.
    fn reports_into(&self, i: usize, t0: f64, t1: f64, out: &mut Vec<TagReport>) {
        self.model.reports_into(&self.plans[i], t0, t1, out);
    }
}

/// Rounds in a horizon (the last one may end past it).
fn rounds(horizon_s: f64) -> usize {
    (horizon_s / ROUND_S - 1e-9).ceil() as usize
}

/// A pen currently writing.
struct Pen {
    plan: usize,
    id: FleetSessionId,
    /// Reports generated but not yet admitted (deferred).
    backlog: Vec<TagReport>,
}

/// Everything one pass over the traffic measured.
#[derive(Default)]
struct Pass {
    latencies: Vec<f64>,
    lateness: Vec<f64>,
    /// Time in fleet calls, seconds (excludes report generation and sleep).
    busy: f64,
    /// Wall time of the rounds, seconds.
    rounds_wall: f64,
    /// Time spent asleep waiting for rounds to fall due, seconds.
    sleep: f64,
    /// Wall time after the last round: probes and closing the pens still writing.
    teardown: f64,
    offered: u64,
    deferred_at_end: u64,
    late_dropped: u64,
    /// Reports admitted by sessions that ended up quarantined.
    quarantined_reports: u64,
    drains: Vec<(FleetDrainReport, f64)>,
    recover_s: Option<f64>,
    /// Digest of every finished trail, in finishing order.
    digest: u64,
    /// Per finished session: (plan index, trail digest).
    finished: Vec<(usize, u64)>,
    /// Sessions live on the killed shard.
    crashed: Vec<usize>,
    decode: [u64; 7],
    pre: [u64; 3],
    probes: Vec<(f64, f64, usize)>,
    stats: FleetStats,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(mut h: u64, x: u64) -> u64 {
    for b in x.to_le_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// FNV-1a over a trail's timestamps and points, bit for bit.
fn trail_digest(trail: &Trail) -> u64 {
    let mut h = fnv(FNV_OFFSET, trail.points.len() as u64);
    for (t, p) in trail.times.iter().zip(&trail.points) {
        h = fnv(fnv(fnv(h, t.to_bits()), p.x.to_bits()), p.y.to_bits());
    }
    h
}

impl Pass {
    /// Reports offered but never consumed.
    fn failed(&self) -> u64 {
        self.deferred_at_end + self.late_dropped + self.quarantined_reports
    }

    /// Close a pen's session and account for its trail.
    fn finish(&mut self, fleet: &mut FleetRouter, pen: Pen, tracer: &mut Tracer) {
        self.deferred_at_end += pen.backlog.len() as u64;
        if fleet.quarantined(pen.id) {
            self.quarantined_reports += fleet.session_flow(pen.id).1 as u64;
            return;
        }
        self.late_dropped += fleet.tracker(pen.id).late_reports_dropped() as u64;
        let out = tracer.time("fleet.finish_session", || fleet.finish_session(pen.id));
        let d = trail_digest(&out.trail);
        self.digest = fnv(fnv(self.digest, pen.plan as u64), d);
        self.finished.push((pen.plan, d));
        let s = &out.decode_stats;
        let add = [
            s.steps as u64,
            s.expansions,
            s.touched_cells,
            s.total_frontier,
            s.pruned_beam,
            s.carried_steps as u64,
            s.adaptive_shrunk_steps as u64,
        ];
        for (acc, v) in self.decode.iter_mut().zip(add) {
            *acc += v;
        }
        let g = &out.degradation;
        for (acc, v) in self
            .pre
            .iter_mut()
            .zip([g.windows, g.empty_windows, g.spurious_rejected])
        {
            *acc += v as u64;
        }
    }
}

/// Serve the whole traffic horizon once through `fleet`, paced by `clock`.
fn pass(
    rig: &Rig,
    mut fleet: FleetRouter,
    traffic: &Traffic,
    durable: bool,
    tracer: &mut Tracer,
    mut clock: impl Clock,
) -> Pass {
    let plans = traffic.plans();
    let rounds = rounds(traffic.horizon_s());
    let kill_round = durable.then_some((rounds as f64 * KILL_AT) as usize);
    let mut p = Pass {
        digest: FNV_OFFSET,
        ..Pass::default()
    };
    let mut live: Vec<Pen> = Vec::new();
    let mut next = 0;
    let pacer = Pacer::new(clock.now(), ROUND_S);
    let loop_start = clock.now();

    for r in 0..rounds {
        let (t0, t1) = (r as f64 * ROUND_S, (r + 1) as f64 * ROUND_S);
        let asleep = clock.now();
        p.lateness.push(pacer.begin(&mut clock, r));
        p.sleep += clock.now() - asleep;
        tracer.begin("serve.round");
        let round_start = Instant::now();

        while next < plans.len() && plans[next].start_s < t1 {
            let config = rig.configs[plans[next].rig];
            let id = tracer.time("fleet.add_session", || fleet.add_session(config, options()));
            live.push(Pen {
                plan: next,
                id,
                backlog: Vec::new(),
            });
            next += 1;
        }

        let gen = Instant::now();
        tracer.begin("rfid_sim.traffic");
        for pen in &mut live {
            let before = pen.backlog.len();
            traffic.reports_into(pen.plan, t0, t1, &mut pen.backlog);
            p.offered += (pen.backlog.len() - before) as u64;
        }
        tracer.end();
        let gen_s = gen.elapsed().as_secs_f64();

        for pen in &mut live {
            if !pen.backlog.is_empty() {
                let taken = tracer.time("fleet.offer", || fleet.offer(pen.id, &pen.backlog));
                pen.backlog.drain(..taken);
            }
        }
        let d = Instant::now();
        let report = tracer.time("fleet.drain", || fleet.drain());
        p.drains.push((report, d.elapsed().as_secs_f64()));
        // The round's latency ends when its drain returns. The work after
        // it (a shard kill and recovery, closing the pens that left)
        // shows as lateness of the rounds behind it, if it overruns.
        p.latencies.push(pacer.latency(&clock, r));

        if kill_round == Some(r) {
            p.crashed = live
                .iter()
                .filter(|pen| fleet.shard_of(pen.id) == 0)
                .map(|pen| pen.plan)
                .collect();
            tracer.time("fleet.kill_shard", || fleet.kill_shard(0));
            let k = Instant::now();
            tracer.time("durability.recover", || fleet.recover(0));
            p.recover_s = Some(k.elapsed().as_secs_f64());
        }

        if r + 1 < rounds {
            let mut k = 0;
            while k < live.len() {
                if plans[live[k].plan].end_s() <= t1 {
                    let pen = live.swap_remove(k);
                    p.finish(&mut fleet, pen, tracer);
                } else {
                    k += 1;
                }
            }
        }
        tracer.end();
        p.busy += round_start.elapsed().as_secs_f64() - gen_s;
    }
    p.rounds_wall = clock.now() - loop_start;

    // Teardown, outside every round: probe checkpoints of the pens still
    // writing (traced durable runs only), then close them.
    let teardown = Instant::now();
    if durable && tracer.enabled() {
        for pen in live.iter().take(PROBE_SESSIONS) {
            let tracker = fleet.tracker(pen.id);
            let s = Instant::now();
            let text = tracer.time("durability.seal_checkpoint", || seal_checkpoint(tracker, 0));
            let seal_s = s.elapsed().as_secs_f64();
            let o = Instant::now();
            let opened = tracer.time("durability.open_checkpoint", || {
                open_checkpoint(*tracker.config(), &text)
            });
            let open_s = o.elapsed().as_secs_f64();
            if opened.is_ok() {
                p.probes.push((seal_s, open_s, text.len()));
            }
        }
    }
    live.sort_by_key(|pen| pen.plan);
    for pen in live {
        p.finish(&mut fleet, pen, tracer);
    }
    p.teardown = teardown.elapsed().as_secs_f64();
    p.stats = fleet.stats();
    p
}

/// Replay sampled sessions through a bare `OnlineTracker` and compare
/// their trails with what the fleet produced.
fn verify(rig: &Rig, traffic: &Traffic, p: &Pass) -> Vec<String> {
    let plans = traffic.plans();
    let end = rounds(traffic.horizon_s()) as f64 * ROUND_S;
    let stride = (p.finished.len() / VERIFY_SESSIONS).max(1);
    let mut sample: Vec<usize> = p
        .crashed
        .iter()
        .copied()
        .take(VERIFY_SESSIONS / 2)
        .collect();
    sample.extend(p.finished.iter().step_by(stride).map(|&(plan, _)| plan));
    sample.sort_unstable();
    sample.dedup();
    sample.truncate(VERIFY_SESSIONS);
    let mut problems = Vec::new();
    for &plan in &sample {
        let mut stream = Vec::new();
        traffic.reports_into(plan, 0.0, end, &mut stream);
        let mut tracker = OnlineTracker::new(rig.configs[plans[plan].rig], options());
        tracker.extend(&stream);
        let want = trail_digest(&tracker.finalize().trail);
        match p.finished.iter().find(|&&(q, _)| q == plan) {
            Some(&(_, got)) if got == want => {}
            Some(&(_, got)) => problems.push(format!(
                "session {plan}: fleet trail digest {got:016x} differs from a bare replay {want:016x}"
            )),
            None => problems.push(format!("session {plan} never finished")),
        }
    }
    problems
}

/// The key of a run in the recorded table.
fn key(durable: bool, seed: u64, horizon_s: f64) -> String {
    let name = if durable { "serve-durable" } else { "serve" };
    format!("{name}\t{seed}\t{horizon_s}")
}

/// The recorded digest for `key`, if the table has one.
fn recorded_digest(key: &str) -> Option<&'static str> {
    EXPECTED
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| l.rsplit_once('\t').filter(|(k, _)| *k == key))
        .map(|(_, d)| d)
}

/// Compare a run's digest with the recorded one; runs whose inputs have
/// no recorded digest pass.
fn check_recorded(key: &str, digest: u64) -> Option<String> {
    let got = format!("{digest:016x}");
    recorded_digest(key)
        .filter(|&want| want != got)
        .map(|want| format!("{key}: trail digest {got} differs from the recorded {want}"))
}

/// Re-record `expected/serve.tsv`: serve every recorded seed's traffic,
/// unpaced, and write its digest.
pub fn write_expected() {
    let (rig, _) = setup(false);
    let mut text = String::from(
        "# workload\tseed\thorizon_s\ttrail digest (hex); written by `e2e-bench --write-expected`\n",
    );
    for durable in [false, true] {
        for seed in RECORDED_SEEDS {
            let traffic = Traffic::new(durable, seed, RECORDED_SECONDS);
            let p = pass(
                &rig,
                router(durable),
                &traffic,
                durable,
                &mut Tracer::new(false),
                Unpaced::new(),
            );
            let k = key(durable, seed, RECORDED_SECONDS);
            let problems = check(&rig, &traffic, &p);
            if !problems.is_empty() {
                eprintln!("e2e-bench: {k}: {}", problems.join("; "));
                std::process::exit(1);
            }
            text.push_str(&format!("{k}\t{:016x}\n", p.digest));
        }
    }
    if let Err(e) = std::fs::write(EXPECTED_PATH, text) {
        eprintln!("e2e-bench: cannot write {EXPECTED_PATH} (run from the repository root): {e}");
        std::process::exit(1);
    }
    println!("wrote {} digests to {EXPECTED_PATH}", 2 * RECORDED_SEEDS.count());
}

/// Output checks of one pass.
fn check(rig: &Rig, traffic: &Traffic, p: &Pass) -> Vec<String> {
    let mut problems = Vec::new();
    if p.failed() > 0 {
        problems.push(format!(
            "{} of {} reports never consumed ({} deferred at the end, {} dropped late, {} quarantined)",
            p.failed(),
            p.offered,
            p.deferred_at_end,
            p.late_dropped,
            p.quarantined_reports
        ));
    }
    if p.stats.quarantined > 0 {
        problems.push(format!("{} sessions quarantined", p.stats.quarantined));
    }
    if p.finished.len() != traffic.plans().len() {
        problems.push(format!(
            "{} of {} sessions finished",
            p.finished.len(),
            traffic.plans().len()
        ));
    }
    problems.extend(verify(rig, traffic, p));
    problems
}

/// Run the workload: one paced pass over `seconds` of traffic, or, when
/// `traced`, a short unpaced warm-up, then an untraced pass and a traced
/// pass over the same `seconds / 2` of traffic.
pub fn run(
    rig: &Rig,
    fleet: FleetRouter,
    durable: bool,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Outcome {
    let mut out = Outcome::default();
    let mut off = Tracer::new(false);
    if !traced {
        let traffic = Traffic::new(durable, seed, seconds);
        let p = pass(rig, fleet, &traffic, durable, &mut off, WallClock::new());
        out.problems = check(rig, &traffic, &p);
        out.problems
            .extend(check_recorded(&key(durable, seed, seconds), p.digest));
        summarize(&p, durable, &mut out);
        return out;
    }
    let warmup = Traffic::new(durable, seed, WARMUP_S);
    pass(rig, router(durable), &warmup, durable, &mut off, Unpaced::new());
    let traffic = Traffic::new(durable, seed, seconds / 2.0);
    let plain = pass(rig, fleet, &traffic, durable, &mut off, WallClock::new());
    let mut tracer = Tracer::new(true);
    let p = pass(rig, router(durable), &traffic, durable, &mut tracer, WallClock::new());
    out.problems = check(rig, &traffic, &plain);
    out.problems.extend(check(rig, &traffic, &p));
    if plain.digest != p.digest {
        out.problems.push(format!(
            "trail digest {:016x} of the traced pass differs from the untraced pass's {:016x}",
            p.digest, plain.digest
        ));
    }
    out.problems
        .extend(check_recorded(&key(durable, seed, seconds / 2.0), p.digest));
    summarize(&p, durable, &mut out);
    out.layers = layers(&p, &plain, &tracer);
    out.spans = tracer.totals();
    out.traced_total = p.rounds_wall - p.sleep + p.teardown;
    out
}

fn summarize(p: &Pass, durable: bool, out: &mut Outcome) {
    let consumed: usize = p.drains.iter().map(|(d, _)| d.reports).sum();
    let failed = p.failed();
    out.attempted = p.offered;
    out.failed = failed;
    let delivered = (p.offered - failed) as f64 / p.offered.max(1) as f64;
    let capacity = consumed as f64 / p.busy.max(1e-9);
    out.e2e = vec![
        Metric::pct("latency_ms_p50", percentile(&p.latencies, 50.0), 1e3, "ms"),
        Metric::pct("latency_ms_p99", percentile(&p.latencies, 99.0), 1e3, "ms"),
        Metric::new("capacity_reports_per_s", capacity, "1/s"),
        Metric::new("delivered_share", delivered, "share"),
    ];
    out.extra = vec![Metric::new("failed_share", 1.0 - delivered, "share")];
    if durable {
        out.extra.push(Metric::new(
            "recover_ms",
            p.recover_s.unwrap_or(0.0) * 1e3,
            "ms",
        ));
    }
}

fn layers(p: &Pass, plain: &Pass, tracer: &Tracer) -> Vec<Metric> {
    let totals = tracer.totals();
    let mean_of = |name: &str, scale: f64| mean(&tracer.durations(name)) * scale;
    let drain_ms: Vec<f64> = p.drains.iter().map(|(_, s)| s * 1e3).collect();
    let sealing: Vec<f64> = p
        .drains
        .iter()
        .filter(|(d, _)| d.checkpoints > 0)
        .map(|(_, s)| s * 1e3)
        .collect();
    let n = p.drains.len().max(1) as f64;
    let stats = &p.stats;
    let [steps, expansions, touched, frontier, pruned, carried, shrunk] =
        p.decode.map(|v| v as f64);
    // Everything the pass did except sleeping: the rounds' work plus the
    // teardown. Spans named after a layer should cover nearly all of it;
    // `serve.round` self time is the benchmark's own bookkeeping.
    let traced_total = p.rounds_wall - p.sleep + p.teardown;
    let plain_total = plain.rounds_wall - plain.sleep + plain.teardown;
    let attributed: f64 = totals
        .iter()
        .filter(|(name, _)| **name != "serve.round")
        .map(|(_, t)| t.self_time)
        .sum();
    let probes =
        |f: fn(&(f64, f64, usize)) -> f64| mean(&p.probes.iter().map(f).collect::<Vec<_>>());
    vec![
        Metric::new("rfid_sim.reports", p.offered as f64, "count"),
        Metric::new(
            "rfid_sim.traffic_ms",
            mean_of("rfid_sim.traffic", 1e3),
            "ms",
        ),
        Metric::pct("gen.late_ms_p99", percentile(&p.lateness, 99.0), 1e3, "ms"),
        Metric::new("hmm.steps", steps, "count"),
        Metric::new("hmm.expansions", expansions / steps.max(1.0), "count/step"),
        Metric::new("hmm.touched_cells", touched / steps.max(1.0), "count/step"),
        Metric::new("hmm.mean_frontier", frontier / steps.max(1.0), "count"),
        Metric::new(
            "hmm.beam_kept_ratio",
            1.0 - pruned / touched.max(1.0),
            "share",
        ),
        Metric::new("hmm.carried_steps", carried, "count"),
        Metric::new("hmm.adaptive_shrunk_steps", shrunk, "count"),
        Metric::new("preprocess.windows", p.pre[0] as f64, "count"),
        Metric::new("preprocess.empty_windows", p.pre[1] as f64, "count"),
        Metric::new("preprocess.spurious_rejected", p.pre[2] as f64, "count"),
        Metric::new(
            "fleet.add_session_ms",
            mean_of("fleet.add_session", 1e3),
            "ms",
        ),
        Metric::new("fleet.offer_us", mean_of("fleet.offer", 1e6), "us"),
        Metric::pct("fleet.drain_ms_p50", percentile(&drain_ms, 50.0), 1.0, "ms"),
        Metric::pct("fleet.drain_ms_p99", percentile(&drain_ms, 99.0), 1.0, "ms"),
        Metric::new(
            "fleet.finish_session_ms",
            mean_of("fleet.finish_session", 1e3),
            "ms",
        ),
        Metric::new(
            "fleet.woken_per_drain",
            p.drains.iter().map(|(d, _)| d.woken).sum::<usize>() as f64 / n,
            "count",
        ),
        Metric::new(
            "fleet.reports_per_drain",
            p.drains.iter().map(|(d, _)| d.reports).sum::<usize>() as f64 / n,
            "count",
        ),
        Metric::new(
            "fleet.busy_share",
            p.busy / p.rounds_wall.max(1e-9),
            "share",
        ),
        Metric::new(
            "fleet.deferred",
            (stats.offered - stats.admitted) as f64,
            "count",
        ),
        Metric::new("fleet.peak_level", stats.peak_level as f64, "count"),
        Metric::new("online.late_dropped", p.late_dropped as f64, "count"),
        Metric {
            note: format!("n={}", sealing.len()),
            ..Metric::new("fleet.drain_ms_sealing", mean(&sealing), "ms")
        },
        Metric::new("durability.checkpoints", stats.checkpoints as f64, "count"),
        Metric {
            note: format!("n={}", p.probes.len()),
            ..Metric::new("durability.seal_ms", probes(|x| x.0) * 1e3, "ms")
        },
        Metric::new(
            "durability.checkpoint_kb",
            probes(|x| x.2 as f64) / 1024.0,
            "KB",
        ),
        Metric::new("durability.open_ms", probes(|x| x.1) * 1e3, "ms"),
        Metric::new(
            "durability.recover_ms",
            p.recover_s.unwrap_or(0.0) * 1e3,
            "ms",
        ),
        Metric {
            note: format!("{:.3} s of {:.3} s traced", attributed, traced_total),
            ..Metric::new(
                "trace.attributed_share",
                attributed / traced_total.max(1e-9),
                "share",
            )
        },
        Metric {
            note: format!(
                "traced {:.3} s vs untraced {:.3} s busy, same traffic",
                traced_total, plain_total
            ),
            ..Metric::new(
                "trace.overhead_pct",
                100.0 * (traced_total / plain_total.max(1e-9) - 1.0),
                "%",
            )
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_is_seeded_and_scales_with_the_horizon() {
        let a = Traffic::new(false, 5, 20.0);
        assert_eq!(a.plans(), Traffic::new(false, 5, 20.0).plans());
        assert_ne!(a.plans(), Traffic::new(false, 6, 20.0).plans());
        assert_eq!(
            a.plans().len(),
            2 * Traffic::new(false, 5, 10.0).plans().len()
        );
        assert!(Traffic::new(true, 5, 20.0).plans().len() < a.plans().len());
        assert!(a.plans().iter().all(|p| p.rig < 2 && p.start_s < 20.0));
        // Another seed: the same schedule and stream pool, dealt out to
        // the pens in another order.
        let b = Traffic::new(false, 6, 20.0);
        assert!(a
            .plans()
            .iter()
            .zip(b.plans())
            .all(|(x, y)| x.start_s == y.start_s));
        let pool = |t: &Traffic| {
            let mut s: Vec<u64> = t.plans().iter().map(|p| p.seed).collect();
            s.sort_unstable();
            s
        };
        assert_eq!(pool(&a), pool(&b));
        assert!(
            a.plans()
                .iter()
                .zip(b.plans())
                .filter(|(x, y)| x.seed != y.seed)
                .count()
                > a.plans().len() / 2
        );
        let (mut ra, mut rb) = (Vec::new(), Vec::new());
        a.reports_into(0, 0.0, 20.0, &mut ra);
        b.reports_into(0, 0.0, 20.0, &mut rb);
        assert_eq!(ra.len(), rb.len());
        assert_ne!(ra, rb);
        assert_eq!(rounds(20.0), 400);
    }

    #[test]
    fn the_two_rigs_have_distinct_shard_keys() {
        use polardraw_core::ShardKey;
        assert_ne!(
            ShardKey::of(&rig_config(0.65)),
            ShardKey::of(&rig_config(0.8))
        );
    }

    #[test]
    fn recorded_table_covers_the_recorded_seeds() {
        for durable in [false, true] {
            for seed in RECORDED_SEEDS {
                let k = key(durable, seed, RECORDED_SECONDS);
                let d = recorded_digest(&k).unwrap_or_else(|| panic!("no digest for {k:?}"));
                assert!(u64::from_str_radix(d, 16).is_ok(), "{k:?}: {d:?}");
            }
        }
    }

    #[test]
    fn runs_are_checked_against_the_recorded_digest_when_there_is_one() {
        let k = key(false, 1, RECORDED_SECONDS);
        let want = recorded_digest(&k).map(|d| u64::from_str_radix(d, 16).unwrap());
        let want = want.expect("recorded");
        assert_eq!(check_recorded(&k, want), None);
        assert!(check_recorded(&k, want ^ 1).is_some());
        assert_eq!(check_recorded(&key(false, 1, 7.0), 0), None);
    }

    #[test]
    fn trail_digest_sees_every_bit() {
        let mut t = Trail {
            times: vec![0.0, 0.05],
            points: vec![Default::default(); 2],
        };
        let a = trail_digest(&t);
        t.points[1].y = f64::from_bits(1);
        assert_ne!(a, trail_digest(&t));
    }
}
