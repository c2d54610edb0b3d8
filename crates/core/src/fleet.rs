//! The serving layer: many pens, one process, one front door.
//!
//! The paper's §3.5 real-time claim covers one pen on one reader;
//! [`FleetRouter`] scales that to a fleet. It owns every session's
//! [`OnlineTracker`] in one session table indexed by [`FleetSessionId`],
//! groups the sessions into shards, and keeps serving under overload
//! (see DESIGN.md "Multi-session serving" and "Fleet serving & overload
//! control"):
//!
//! * **Wake-on-work drains.** Reports are *offered* per session at any
//!   time and queued; a [`drain`](FleetRouter::drain) round wakes only
//!   the sessions that have queued reports and pushes each one its
//!   queue, on up to [`FleetConfig::threads_per_shard`] workers through
//!   the workspace fan-out primitive
//!   ([`rf_core::par::parallel_for_each_mut`]). Idle pens cost nothing
//!   per round.
//! * **Shard routing with rig affinity.** Sessions are keyed by
//!   [`ShardKey`] — the exact rig fingerprint
//!   [`hmm::artifacts_for`](crate::hmm::artifacts_for) keys its
//!   process-wide cache on (board extent, grid cell, antennas,
//!   wavelength, as f64 bit patterns). Sessions sharing a key land on
//!   the same shard until it fills past a soft cap, so every shard
//!   resolves its rigs' `Arc<DecodeArtifacts>` once: one emission table
//!   per rig, however many pens write.
//! * **Bounded ingest with backpressure, never drops.**
//!   [`offer`](FleetRouter::offer) admits reports up to a per-shard
//!   queue bound and returns how many it accepted; the rest stay with
//!   the producer (reader links already buffer — `resume_after` in
//!   `rfid_sim::session`). No report, and no session, is ever dropped
//!   by the fleet.
//! * **Adaptive degradation with hysteresis.** A fixed three-rung
//!   ladder (shorter lag → tighter adaptive beam → f32 kernel, see
//!   [`MAX_LEVEL`] and [`RECOVER_AFTER`]) is applied per shard when
//!   ingest occupancy stays above a high watermark, and unwound when
//!   it stays below a low one. The controller keys on queue occupancy
//!   only — never wall-clock — so fleet runs are deterministic and
//!   testable.
//!
//! ## Why served output is bitwise-identical to sequential
//!
//! Parallelism is *across* sessions, never within one. A drain visits
//! each woken session exactly once, on exactly one worker, and feeds it
//! its own queue in admit order — so every session observes precisely
//! the `push` sequence it would observe running alone, and
//! [`OnlineTracker`] is deterministic given its input sequence (every
//! kernel, the f32 one included: it trades f64-exactness, not
//! reproducibility). Thread count and wake order change *when* a
//! session advances relative to the others, never *what* it computes.
//! `tests/serve.rs` enforces this bit for bit at threads 1/2/8 across
//! mixed fault presets and mixed kernels.
//!
//! Live sessions migrate between shards with
//! [`migrate`](FleetRouter::migrate): the tracker round-trips through
//! the bitwise checkpoint format in place and its queued reports move
//! with it in order. When no rung change happens in flight, the
//! migrated session's output is bit-identical to never having moved —
//! `tests/fleet.rs` proves this at every cut point and at thread counts
//! 1/2/8.
//!
//! ## Crash safety (see DESIGN.md "Durability & crash recovery")
//!
//! With a [`CheckpointStore`] attached
//! ([`attach_store`](FleetRouter::attach_store)), the router becomes
//! self-healing:
//!
//! * **Checkpoint policy.** At post-drain boundaries (queues empty),
//!   every live session on a shard is sealed into the store — every
//!   [`CheckpointPolicy::every_drains`]-th round, on migration, and on
//!   a degrade-rung change.
//! * **Escrow.** Every *admitted* report is also retained in an
//!   in-router escrow ledger spanning the store's retained
//!   generations, so recovery can replay exactly what a restored
//!   checkpoint has not yet seen. Report-loss-free by construction:
//!   a report is either still the producer's (deferred), in escrow,
//!   or covered by a durable checkpoint.
//! * **Kill + recover.** [`kill_shard`](FleetRouter::kill_shard)
//!   simulates a process crash (the shard's trackers, queues and
//!   in-memory controller state vanish);
//!   [`recover`](FleetRouter::recover) rebuilds each lost session from
//!   the newest good generation (walking back over corrupted ones) and
//!   re-queues its escrowed tail. The recovered session observes
//!   exactly the push sequence of an uncrashed run, so its output is
//!   bit-identical — `tests/chaos.rs` proves this at swept kill points
//!   under a deterministic chaos plan.
//! * **Quarantine.** A session whose `push` panics mid-drain (caught
//!   per session, so the round and every other session carry on) or
//!   whose restore fails at every retained generation is isolated with
//!   its escrowed reports instead of taking the shard down, surfaced
//!   via [`FleetStats::quarantined`] and
//!   [`quarantine_context`](FleetRouter::quarantine_context).

use crate::durability::{CheckpointStore, RestoreError};
use crate::hmm::{AdaptiveBeam, KernelPrecision};
use crate::online::{OnlineOptions, OnlineTracker};
use crate::{PolarDrawConfig, TrackOutput};
use rf_core::par::parallel_for_each_mut;
use rfid_sim::TagReport;

/// Handle to one session behind the fleet front door (stable for the
/// router's lifetime, independent of which shard currently hosts it).
pub type FleetSessionId = usize;

/// The rig fingerprint used for shard affinity: exactly the fields
/// [`hmm::artifacts_for`](crate::hmm::artifacts_for) keys its
/// process-wide decode-artifact cache on, captured as f64 bit patterns
/// so keying is exact rather than approximate. Two sessions with equal
/// keys resolve to the same `Arc<DecodeArtifacts>` entry; a shard
/// hosting them pays for one emission table however many pens write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShardKey {
    bits: [u64; 12],
}

impl ShardKey {
    /// The rig fingerprint of a session configuration.
    pub fn of(config: &PolarDrawConfig) -> ShardKey {
        let a = config.antennas;
        ShardKey {
            bits: [
                config.board_min.x.to_bits(),
                config.board_min.y.to_bits(),
                config.board_max.x.to_bits(),
                config.board_max.y.to_bits(),
                config.hmm.cell_m.to_bits(),
                config.hmm.wavelength_m.to_bits(),
                a[0].x.to_bits(),
                a[0].y.to_bits(),
                a[0].z.to_bits(),
                a[1].x.to_bits(),
                a[1].y.to_bits(),
                a[1].z.to_bits(),
            ],
        }
    }
}

/// One rung of the degradation ladder: the overrides that come into
/// effect when the controller steps down to (or past) this rung. Rungs
/// apply cumulatively — at level `k` every rung `0..k` is in effect —
/// and `None` fields leave the session's requested value untouched.
struct DegradeRung {
    /// Cap the decoder decision lag at this many steps (commits come
    /// earlier; bounded-hindsight accuracy trade, no kernel change).
    max_lag: Option<usize>,
    /// Force the adaptive beam to (at least) this aggressive a setting.
    adaptive: Option<AdaptiveBeam>,
    /// Drop the kernel to f32 tables ([`KernelPrecision::F32Tolerance`]).
    f32_kernel: bool,
}

/// The per-shard overload ladder, mildest first. The controller runs
/// once per [`FleetRouter::drain`] round on each shard's ingest
/// occupancy (queued reports ÷ `queue_cap`), entering the round:
///
/// * occupancy ≥ [`HIGH_WATERMARK`] for [`DEGRADE_AFTER`] consecutive
///   rounds → step down one rung;
/// * occupancy ≤ [`LOW_WATERMARK`] for [`RECOVER_AFTER`] consecutive
///   rounds → step back up one rung;
/// * anything in between resets both streaks (hysteresis — the fleet
///   neither flaps nor recovers into a still-loaded shard).
const LADDER: [DegradeRung; 3] = [
    // Rung 1: shorter hindsight. Pure latency/accuracy trade, no
    // kernel change — the mildest knob.
    DegradeRung { max_lag: Some(16), adaptive: None, f32_kernel: false },
    // Rung 2: tight adaptive beam — the frontier shrinks wherever the
    // survivor mass allows.
    DegradeRung {
        max_lag: None,
        adaptive: Some(AdaptiveBeam { margin: 4.0, min_keep: 64 }),
        f32_kernel: false,
    },
    // Rung 3: f32 tables — the full fast kernel.
    DegradeRung { max_lag: None, adaptive: None, f32_kernel: true },
];

/// The deepest degradation level: the number of ladder rungs.
pub const MAX_LEVEL: usize = LADDER.len();

/// Occupancy fraction at or above which a round counts as pressured.
const HIGH_WATERMARK: f64 = 0.75;

/// Occupancy fraction at or below which a round counts as calm.
const LOW_WATERMARK: f64 = 0.25;

/// Consecutive pressured rounds before stepping down one rung.
const DEGRADE_AFTER: usize = 2;

/// Consecutive calm rounds before stepping back up one rung.
pub const RECOVER_AFTER: usize = 4;

/// The effective streaming options at degradation `level` for a session
/// that requested `requested` (level 0 = requested verbatim; levels
/// clamp at the ladder length).
fn options_at(requested: OnlineOptions, level: usize) -> OnlineOptions {
    let mut out = requested;
    for rung in LADDER.iter().take(level) {
        if let Some(cap) = rung.max_lag {
            out.lag = out.lag.min(cap.max(1));
        }
        if let Some(ab) = rung.adaptive {
            out.kernel.adaptive = Some(ab);
        }
        if rung.f32_kernel {
            out.kernel.precision = KernelPrecision::F32Tolerance;
        }
    }
    out
}

/// When the router seals live sessions into an attached
/// [`CheckpointStore`]: every `every_drains`-th drain round, and always
/// on migration and on a degrade-rung change. Checkpoints are only ever
/// taken at post-drain boundaries (every queue empty), so a sealed
/// generation plus the escrowed reports admitted after it reconstructs
/// the exact push sequence of an uncrashed run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointPolicy {
    /// Checkpoint every K-th drain round (0 disables the timer).
    pub every_drains: usize,
}

impl Default for CheckpointPolicy {
    fn default() -> CheckpointPolicy {
        CheckpointPolicy { every_drains: 8 }
    }
}

/// Front-door configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Number of shards: session groups, each with its own ingest
    /// bound and degradation controller.
    pub shards: usize,
    /// Worker threads per shard drain, and for [`FleetRouter::finish`]
    /// (thread count never changes any session's output — see the
    /// module docs).
    pub threads_per_shard: usize,
    /// Per-shard ingest bound: the most queued-but-undrained reports a
    /// shard accepts, summed over its sessions. [`FleetRouter::offer`]
    /// defers (returns short) past it.
    pub queue_cap: usize,
    /// Soft cap on live sessions per shard for affinity placement: a
    /// session whose rig already lives on a shard joins it only below
    /// this count, otherwise a new colony starts on the least-loaded
    /// shard (one giant rig must not pin the whole fleet to one shard).
    pub soft_session_cap: usize,
    /// Durability checkpoint policy (inert until a store is attached
    /// via [`FleetRouter::attach_store`]).
    pub checkpoint: CheckpointPolicy,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            shards: 4,
            threads_per_shard: 1,
            queue_cap: 4096,
            soft_session_cap: 256,
            checkpoint: CheckpointPolicy::default(),
        }
    }
}

/// One session's row in the router's table: where it lives, what it
/// asked for, its tracker and ingest queue, and its durable state.
#[derive(Debug)]
struct Session {
    /// The shard hosting it (the last one, once it is no longer live).
    shard: usize,
    key: ShardKey,
    /// Kept so a crashed session can be rebuilt without a live tracker
    /// to ask.
    config: PolarDrawConfig,
    requested: OnlineOptions,
    /// Degradation level currently applied to the tracker.
    applied_level: usize,
    /// `Some` exactly while a shard hosts the session: `None` once it
    /// is finished or quarantined, and while its shard is crashed.
    tracker: Option<OnlineTracker>,
    /// Admitted reports not yet pushed, in admit order.
    queue: Vec<TagReport>,
    live: bool,
    /// Its hosting shard crashed and it has not been recovered yet
    /// (offers are deferred wholesale until then).
    crashed: bool,
    /// Isolated: its push panicked, or its restore failed at every
    /// retained generation. Escrowed reports are kept for inspection.
    quarantined: bool,
    /// Panic text of the push that blew up mid-drain. `Some` on a
    /// session a shard still hosts means it was poisoned this round:
    /// its tracker is in an unknown state and its queue is intact.
    poison: Option<String>,
    /// (reports consumed, trail points committed) by this round's
    /// visit; folded into the round report right after it.
    drained: (usize, usize),
    offered: usize,
    admitted: usize,
    escrow: Escrow,
}

impl Session {
    /// Hosted with queued reports: the next drain wakes it.
    fn awake(&self) -> bool {
        self.tracker.is_some() && !self.queue.is_empty()
    }
}

/// Per-session escrow ledger: every admitted report since the oldest
/// checkpoint generation the store still retains, in admit order, plus
/// the marks that say how much of it each retained generation covers.
#[derive(Debug, Clone, Default)]
struct Escrow {
    reports: Vec<TagReport>,
    /// `(generation, covered)`: restoring `generation` must replay
    /// `reports[covered..]`.
    marks: Vec<(u64, usize)>,
}

/// One shard: the sessions it hosts plus its controller state.
#[derive(Debug, Default)]
struct Shard {
    /// Fleet session ids currently hosted here (live only).
    sessions: Vec<FleetSessionId>,
    /// Reports admitted since the last drain (the ingest occupancy
    /// numerator; a drain consumes every queue, so this resets to 0).
    pending: usize,
    peak_pending: usize,
    level: usize,
    pressured_rounds: usize,
    calm_rounds: usize,
    degrade_steps: usize,
    recover_steps: usize,
}

/// Push a woken session its whole queue. Pushed by index (not drained)
/// under `catch_unwind`, so a panic part-way through leaves the queue
/// intact and poisons only this session: the round, and every other
/// session in it, carries on, and the router quarantines the session
/// with its reports. The queue is cleared only on success.
fn visit(s: &mut Session) {
    let Some(tracker) = s.tracker.as_mut() else {
        return;
    };
    let queue = &s.queue;
    if queue.is_empty() {
        return;
    }
    let before = tracker.committed().len();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        for r in queue {
            tracker.push(*r);
        }
    }));
    match outcome {
        Ok(()) => {
            s.drained = (queue.len(), tracker.committed().len() - before);
            s.queue.clear();
        }
        Err(payload) => {
            s.poison = Some(
                payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string()),
            );
        }
    }
}

/// What one [`FleetRouter::drain`] round did, summed over shards.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FleetDrainReport {
    /// Sessions woken across all shards.
    pub woken: usize,
    /// Reports consumed.
    pub reports: usize,
    /// Trail points committed.
    pub newly_committed: usize,
    /// Highest shard degradation level after this round.
    pub max_level: usize,
    /// Shards that stepped down a rung this round.
    pub degraded: usize,
    /// Shards that stepped back up a rung this round.
    pub recovered: usize,
    /// Sessions quarantined this round (their `push` panicked).
    pub quarantined: usize,
    /// Durability checkpoints sealed this round.
    pub checkpoints: usize,
}

/// What one [`FleetRouter::recover`] call rebuilt.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RecoverReport {
    /// Sessions restored from a committed checkpoint generation.
    pub restored: usize,
    /// Sessions rebuilt from scratch (never checkpointed, or no store
    /// attached) with a full escrow replay.
    pub rebuilt: usize,
    /// Corrupted generations skipped during restore walk-backs.
    pub fallbacks: usize,
    /// Escrowed reports re-queued for replay.
    pub requeued_reports: usize,
    /// Sessions whose every retained generation failed to open —
    /// quarantined instead of restored.
    pub quarantined: usize,
}

/// Router-lifetime counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FleetStats {
    /// Sessions ever added.
    pub sessions: usize,
    /// Sessions still live (not finished). Migration never changes
    /// this — the fleet sheds fidelity, not sessions.
    pub live: usize,
    /// Reports offered through [`FleetRouter::offer`].
    pub offered: usize,
    /// Reports admitted (the difference was *deferred*, never dropped).
    pub admitted: usize,
    /// Live migrations performed.
    pub migrations: usize,
    /// Rung step-downs, summed over shards.
    pub degrade_steps: usize,
    /// Rung step-ups, summed over shards.
    pub recover_steps: usize,
    /// Highest degradation level any shard ever reached.
    pub peak_level: usize,
    /// Highest ingest occupancy (reports) any shard ever held.
    pub peak_pending: usize,
    /// Drain rounds run.
    pub drains: usize,
    /// Shard crashes simulated via [`FleetRouter::kill_shard`].
    pub shard_kills: usize,
    /// Sessions rebuilt by [`FleetRouter::recover`] (from a stored
    /// generation or, for never-checkpointed sessions, from scratch
    /// plus full escrow replay).
    pub recoveries: usize,
    /// Corrupted generations skipped during restore walk-backs — the
    /// "a checkpoint was bad but we kept serving" signal.
    pub restore_fallbacks: usize,
    /// Sessions isolated with their escrowed reports (poisoned push,
    /// or no retained generation would open).
    pub quarantined: usize,
    /// Durability checkpoints sealed over the router's lifetime.
    pub checkpoints: usize,
}

/// The sharded fleet front door. See the module docs.
///
/// ```
/// use polardraw_core::fleet::{FleetConfig, FleetRouter};
/// use polardraw_core::{OnlineOptions, PolarDrawConfig};
///
/// let mut fleet = FleetRouter::new(FleetConfig::default());
/// let pen = fleet.add_session(PolarDrawConfig::default(), OnlineOptions::default());
/// // … offer reports as they arrive (admission may be partial under
/// // load — re-offer what was deferred), then once per serving round:
/// let round = fleet.drain();
/// assert_eq!(round.woken, 0, "no reports yet");
/// let trails = fleet.finish();
/// assert_eq!(trails.len(), 1);
/// # let _ = pen;
/// ```
#[derive(Debug)]
pub struct FleetRouter {
    config: FleetConfig,
    shards: Vec<Shard>,
    /// The session table, indexed by [`FleetSessionId`].
    sessions: Vec<Session>,
    store: Option<CheckpointStore>,
    migrations: usize,
    peak_level: usize,
    drains: usize,
    shard_kills: usize,
    recoveries: usize,
    restore_fallbacks: usize,
    quarantined: usize,
    checkpoints: usize,
}

impl FleetRouter {
    /// Empty router with `config.shards` shards (clamped to ≥ 1).
    pub fn new(config: FleetConfig) -> FleetRouter {
        let n = config.shards.max(1);
        FleetRouter {
            config,
            shards: (0..n).map(|_| Shard::default()).collect(),
            sessions: Vec::new(),
            store: None,
            migrations: 0,
            peak_level: 0,
            drains: 0,
            shard_kills: 0,
            recoveries: 0,
            restore_fallbacks: 0,
            quarantined: 0,
            checkpoints: 0,
        }
    }

    /// Attach a durability store; from now on the checkpoint policy
    /// runs and every admitted report is escrowed until a checkpoint
    /// covers it. Attach before offering reports — escrow only covers
    /// what is admitted *after* the store is in place.
    pub fn attach_store(&mut self, store: CheckpointStore) {
        self.store = Some(store);
    }

    /// The attached durability store, if any.
    pub fn store(&self) -> Option<&CheckpointStore> {
        self.store.as_ref()
    }

    /// Mutable access to the attached durability store (the chaos
    /// harness corrupts generations through this).
    pub fn store_mut(&mut self) -> Option<&mut CheckpointStore> {
        self.store.as_mut()
    }

    /// The router's configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Affinity placement: among shards already hosting this rig key
    /// and still under the soft session cap, the least loaded; else the
    /// least-loaded shard overall (first index wins ties, so placement
    /// is deterministic).
    fn place(&self, key: ShardKey) -> usize {
        let mut affinity: Option<usize> = None;
        for (si, shard) in self.shards.iter().enumerate() {
            if shard.sessions.len() >= self.config.soft_session_cap {
                continue;
            }
            if shard.sessions.iter().any(|&id| self.sessions[id].key == key) {
                let better = affinity
                    .map(|b| shard.sessions.len() < self.shards[b].sessions.len())
                    .unwrap_or(true);
                if better {
                    affinity = Some(si);
                }
            }
        }
        affinity.unwrap_or_else(|| {
            (0..self.shards.len())
                .min_by_key(|&si| self.shards[si].sessions.len())
                .expect("router has ≥ 1 shard")
        })
    }

    /// Add a session, routing it by rig key; returns its fleet handle.
    /// If the hosting shard is already degraded, the session starts at
    /// the shard's current rung.
    pub fn add_session(
        &mut self,
        config: PolarDrawConfig,
        options: OnlineOptions,
    ) -> FleetSessionId {
        let key = ShardKey::of(&config);
        if !self.sessions.iter().any(|s| s.key == key) {
            // First session on a never-seen rig fingerprint: build the
            // shared decode artifacts now, at admission, so the
            // emission-table cold start happens off the session's first
            // measurement-bearing drain. Same cache entry the decoder
            // resolves lazily (`hmm::artifacts_for`), so this is purely
            // a *when*, never a *what*.
            let grid = crate::hmm::Grid::covering(
                config.board_min,
                config.board_max,
                config.hmm.cell_m,
            );
            crate::hmm::artifacts_for(&grid, config.antennas, config.hmm.wavelength_m).prewarm();
        }
        let shard = self.place(key);
        let id = self.sessions.len();
        self.sessions.push(Session {
            shard,
            key,
            config,
            requested: options,
            applied_level: 0,
            tracker: Some(OnlineTracker::new(config, options)),
            queue: Vec::new(),
            live: true,
            crashed: false,
            quarantined: false,
            poison: None,
            drained: (0, 0),
            offered: 0,
            admitted: 0,
            escrow: Escrow::default(),
        });
        self.shards[shard].sessions.push(id);
        self.apply_level(id);
        id
    }

    /// Offer reports for a session. Admits at most the hosting shard's
    /// remaining ingest budget and returns how many were accepted, from
    /// the front of `reports` in order; the caller keeps the rest and
    /// re-offers after the next drain. Nothing is ever dropped here —
    /// a deferred report is still the producer's.
    pub fn offer(&mut self, id: FleetSessionId, reports: &[TagReport]) -> usize {
        let s = &mut self.sessions[id];
        assert!(s.live || s.quarantined, "session {id} already finished");
        s.offered += reports.len();
        if s.quarantined || s.crashed {
            // A quarantined session admits nothing (its escrow stays
            // frozen for inspection); a crashed one defers wholesale
            // until `recover` runs. The producer keeps every report.
            return 0;
        }
        let shard = &mut self.shards[s.shard];
        let take = reports.len().min(self.config.queue_cap.saturating_sub(shard.pending));
        if take > 0 {
            s.queue.extend_from_slice(&reports[..take]);
            shard.pending += take;
            shard.peak_pending = shard.peak_pending.max(shard.pending);
            s.admitted += take;
            if self.store.is_some() {
                s.escrow.reports.extend_from_slice(&reports[..take]);
            }
        }
        take
    }

    /// Remaining ingest budget of the shard hosting `id` — how many
    /// reports the next [`offer`](Self::offer) for it would accept.
    pub fn budget_for(&self, id: FleetSessionId) -> usize {
        let shard = &self.shards[self.sessions[id].shard];
        self.config.queue_cap.saturating_sub(shard.pending)
    }

    /// One serving round over every shard: run the load controller on
    /// the occupancy entering the round (the backlog this drain is
    /// about to face), apply any rung change to the shard's live
    /// sessions, then push every woken session its queue. Output is
    /// independent of thread count (see the module docs for why).
    ///
    /// With one thread per shard, or at most one session woken, a shard
    /// walks its live sessions in place and a warm store-less round
    /// allocates nothing (asserted by `tests/serve_alloc.rs`); otherwise
    /// it fans out over the session table, whose only per-round
    /// allocations are inside the fan-out primitive itself.
    pub fn drain(&mut self) -> FleetDrainReport {
        self.drains += 1;
        let mut report = FleetDrainReport::default();
        for si in 0..self.shards.len() {
            let changed = self.run_controller(si, &mut report);
            if changed {
                for k in 0..self.shards[si].sessions.len() {
                    let id = self.shards[si].sessions[k];
                    self.apply_level(id);
                }
            }
            self.drain_shard(si, &mut report);
            let shard = &mut self.shards[si];
            shard.pending = 0;
            report.max_level = report.max_level.max(shard.level);
            // Isolate any session whose push panicked mid-drain before
            // a checkpoint could seal its (now suspect) state. Only the
            // poisoned ids are collected (quarantine edits `sessions`),
            // so a healthy round allocates nothing here.
            let poisoned: Vec<FleetSessionId> = self.shards[si]
                .sessions
                .iter()
                .copied()
                .filter(|&id| self.sessions[id].poison.is_some())
                .collect();
            for id in poisoned {
                self.quarantine(id);
                report.quarantined += 1;
            }
            // Durability: this is a post-drain boundary (every queue
            // empty), the only place the policy seals checkpoints.
            let due = self.store.is_some()
                && ((self.config.checkpoint.every_drains > 0
                    && self.drains.is_multiple_of(self.config.checkpoint.every_drains))
                    || changed);
            if due {
                for k in 0..self.shards[si].sessions.len() {
                    let id = self.shards[si].sessions[k];
                    self.checkpoint_session(id);
                    report.checkpoints += 1;
                }
            }
        }
        self.peak_level = self.peak_level.max(report.max_level);
        report
    }

    /// Visit every woken session of shard `si` once (see [`visit`]) and
    /// fold the round's wakes, reports and commits into `report`.
    fn drain_shard(&mut self, si: usize, report: &mut FleetDrainReport) {
        let threads = self.config.threads_per_shard;
        let (ids, sessions) = (&self.shards[si].sessions, &mut self.sessions);
        let woken = ids.iter().filter(|&&id| sessions[id].awake()).count();
        if threads <= 1 || woken <= 1 {
            for &id in ids {
                visit(&mut sessions[id]);
            }
        } else {
            // Fan out over the whole table and let workers skip other
            // shards' and sleeping sessions (one branch each): same
            // visits, same per-session push order.
            parallel_for_each_mut(sessions, threads, |s| {
                if s.shard == si {
                    visit(s);
                }
            });
        }
        report.woken += woken;
        for &id in ids {
            let (reports, committed) = std::mem::take(&mut sessions[id].drained);
            report.reports += reports;
            report.newly_committed += committed;
        }
    }

    /// Seal one live session into the attached store and advance its
    /// escrow marks: the new generation covers everything admitted
    /// except what is still queued un-drained, and reports older than
    /// the store's oldest retained generation are released.
    fn checkpoint_session(&mut self, id: FleetSessionId) {
        let Some(store) = self.store.as_mut() else {
            return;
        };
        let s = &mut self.sessions[id];
        let Some(tracker) = s.tracker.as_ref() else {
            return;
        };
        let generation = store.save(id as u64, tracker);
        let oldest = store.oldest(id as u64).unwrap_or(generation);
        let escrow = &mut s.escrow;
        let covered = escrow.reports.len().saturating_sub(s.queue.len());
        escrow.marks.push((generation, covered));
        escrow.marks.retain(|&(g, _)| g >= oldest);
        let base = escrow.marks.iter().map(|&(_, c)| c).min().unwrap_or(0);
        escrow.reports.drain(..base);
        for m in &mut escrow.marks {
            m.1 -= base;
        }
        self.checkpoints += 1;
    }

    /// Isolate a session: drop its tracker, take it off its shard, and
    /// freeze its escrow for inspection. The shard keeps serving
    /// everyone else.
    fn quarantine(&mut self, id: FleetSessionId) {
        let s = &mut self.sessions[id];
        s.tracker = None;
        let rescued = std::mem::take(&mut s.queue);
        if self.store.is_none() {
            // No escrow ledger was running; keep the rescued queue so
            // inspection still sees what the session never consumed.
            s.escrow.reports = rescued;
        }
        s.live = false;
        s.crashed = false;
        s.quarantined = true;
        self.shards[s.shard].sessions.retain(|&x| x != id);
        self.quarantined += 1;
    }

    /// Simulate a process crash of one shard: its sessions' trackers
    /// and queues and its in-memory controller state vanish; only the
    /// router's durable state (store + escrow) survives. Every hosted
    /// session is marked crashed — offers for it defer wholesale until
    /// [`recover`](Self::recover). Returns how many sessions were
    /// lost. Cumulative counters (degrade/recover steps, peaks)
    /// survive: they are the *router's* memory, not the shard's.
    pub fn kill_shard(&mut self, si: usize) -> usize {
        assert!(si < self.shards.len(), "no shard {si}");
        let shard = &mut self.shards[si];
        shard.pending = 0;
        shard.level = 0;
        shard.pressured_rounds = 0;
        shard.calm_rounds = 0;
        let lost = std::mem::take(&mut shard.sessions);
        for &id in &lost {
            let s = &mut self.sessions[id];
            s.tracker = None;
            s.queue = Vec::new();
            s.crashed = true;
        }
        self.shard_kills += 1;
        lost.len()
    }

    /// Rebuild every crashed session of shard `si` from the attached
    /// store and re-queue its escrowed tail, so the recovered tracker
    /// observes exactly the push sequence of an uncrashed run:
    ///
    /// * newest generation that opens cleanly wins (walk-back over
    ///   corrupted ones is counted in [`FleetStats::restore_fallbacks`]);
    /// * a session with no committed generation (or no store at all)
    ///   is rebuilt from scratch and replays its whole escrow;
    /// * a session whose every retained generation fails to open is
    ///   quarantined with its escrow intact — never a panic, and never
    ///   the shard's problem.
    ///
    /// Idempotent: a second call finds no crashed sessions and is a
    /// no-op. Escrow replay bypasses the ingest budget — those reports
    /// were already admitted once.
    pub fn recover(&mut self, si: usize) -> RecoverReport {
        assert!(si < self.shards.len(), "no shard {si}");
        let mut out = RecoverReport::default();
        let crashed: Vec<FleetSessionId> = (0..self.sessions.len())
            .filter(|&id| {
                let s = &self.sessions[id];
                s.live && s.crashed && s.shard == si
            })
            .collect();
        for id in crashed {
            let (config, requested) = (self.sessions[id].config, self.sessions[id].requested);
            let attempt = self.store.as_ref().map(|s| s.recover(id as u64, config));
            let (tracker, replay_from) = match attempt {
                None | Some(Err(RestoreError::Missing)) => {
                    out.rebuilt += 1;
                    (OnlineTracker::new(config, requested), 0)
                }
                Some(Ok(rec)) => {
                    out.restored += 1;
                    out.fallbacks += rec.fallbacks;
                    self.restore_fallbacks += rec.fallbacks;
                    let from = self.sessions[id]
                        .escrow
                        .marks
                        .iter()
                        .find(|&&(g, _)| g == rec.generation)
                        .map(|&(_, covered)| covered)
                        .unwrap_or(0);
                    (rec.tracker, from)
                }
                Some(Err(_)) => {
                    self.quarantine(id);
                    out.quarantined += 1;
                    continue;
                }
            };
            let s = &mut self.sessions[id];
            let tail = &s.escrow.reports[replay_from..];
            s.queue.extend_from_slice(tail);
            out.requeued_reports += tail.len();
            s.tracker = Some(tracker);
            s.crashed = false;
            // Resync to the (freshly reset) shard rung whatever
            // options the checkpoint carried; the sentinel defeats the
            // applied-level short-circuit.
            s.applied_level = usize::MAX;
            let shard = &mut self.shards[si];
            shard.pending += s.queue.len();
            shard.peak_pending = shard.peak_pending.max(shard.pending);
            shard.sessions.push(id);
            self.recoveries += 1;
            self.apply_level(id);
        }
        out
    }

    /// Whether a session's shard crashed and it awaits
    /// [`recover`](Self::recover).
    pub fn crashed(&self, id: FleetSessionId) -> bool {
        self.sessions[id].crashed
    }

    /// Whether a session has been quarantined (poisoned push, or no
    /// retained generation would restore).
    pub fn quarantined(&self, id: FleetSessionId) -> bool {
        self.sessions[id].quarantined
    }

    /// A quarantined session's escrowed reports — what it admitted but
    /// never durably consumed, kept for inspection or re-driving.
    pub fn quarantined_reports(&self, id: FleetSessionId) -> &[TagReport] {
        assert!(self.sessions[id].quarantined, "session {id} is not quarantined");
        &self.sessions[id].escrow.reports
    }

    /// Panic text of the push that got a session quarantined mid-drain
    /// (`None` if its push never panicked).
    pub fn quarantine_context(&self, id: FleetSessionId) -> Option<&str> {
        self.sessions[id].poison.as_deref()
    }

    /// The watermark/hysteresis controller for one shard. Returns
    /// whether the level changed.
    fn run_controller(&mut self, si: usize, report: &mut FleetDrainReport) -> bool {
        let cap = self.config.queue_cap.max(1);
        let shard = &mut self.shards[si];
        let occupancy = shard.pending as f64 / cap as f64;
        if occupancy >= HIGH_WATERMARK {
            shard.calm_rounds = 0;
            shard.pressured_rounds += 1;
            if shard.pressured_rounds >= DEGRADE_AFTER && shard.level < MAX_LEVEL {
                shard.level += 1;
                shard.pressured_rounds = 0;
                shard.degrade_steps += 1;
                report.degraded += 1;
                return true;
            }
        } else if occupancy <= LOW_WATERMARK {
            shard.pressured_rounds = 0;
            shard.calm_rounds += 1;
            if shard.calm_rounds >= RECOVER_AFTER && shard.level > 0 {
                shard.level -= 1;
                shard.calm_rounds = 0;
                shard.recover_steps += 1;
                report.recovered += 1;
                return true;
            }
        } else {
            shard.pressured_rounds = 0;
            shard.calm_rounds = 0;
        }
        false
    }

    /// Sync one hosted session's tracker to its shard's current rung.
    fn apply_level(&mut self, id: FleetSessionId) {
        let s = &mut self.sessions[id];
        let level = self.shards[s.shard].level;
        if s.applied_level == level {
            return;
        }
        let Some(tracker) = s.tracker.as_mut() else {
            return;
        };
        let eff = options_at(s.requested, level);
        tracker.set_kernel(eff.kernel);
        let _ = tracker.set_lag(eff.lag);
        s.applied_level = level;
    }

    /// Live-migrate a session to `to_shard` through the bitwise
    /// checkpoint round trip: checkpoint its tracker, swap in the
    /// restored copy, and move it with its un-drained queue, in admit
    /// order. The migrated session observes exactly the push sequence
    /// it would have observed staying put, so when no rung change
    /// intervenes its output is bit-identical to never having moved
    /// (`tests/fleet.rs` proves this at every cut point). Carried
    /// reports bypass the target's ingest budget — migration must not
    /// lose what was already admitted. Afterwards the session runs the
    /// *target* shard's rung.
    ///
    /// Returns the checkpoint document's length in bytes (the migration
    /// payload). Migrating a session onto its own shard is a no-op
    /// returning 0.
    pub fn migrate(&mut self, id: FleetSessionId, to_shard: usize) -> usize {
        assert!(to_shard < self.shards.len(), "no shard {to_shard}");
        let s = &mut self.sessions[id];
        assert!(s.live, "session {id} already finished");
        let from = s.shard;
        if from == to_shard {
            return 0;
        }
        let Some(tracker) = s.tracker.as_mut() else {
            panic!("session {id} crashed; recover its shard first");
        };
        let text = tracker.checkpoint_string();
        // If the round trip ever failed, migration moves the live
        // tracker itself — loss-free either way, never a panic.
        if let Ok(restored) = OnlineTracker::restore_from_str(*tracker.config(), &text) {
            *tracker = restored;
        }
        s.shard = to_shard;
        let queued = s.queue.len();
        self.shards[from].pending -= queued;
        self.shards[from].sessions.retain(|&x| x != id);
        let target = &mut self.shards[to_shard];
        target.pending += queued;
        target.peak_pending = target.peak_pending.max(target.pending);
        target.sessions.push(id);
        self.migrations += 1;
        // The target may run a different rung than the source did.
        self.apply_level(id);
        self.checkpoint_session(id);
        text.len()
    }

    /// Which shard currently hosts a session.
    pub fn shard_of(&self, id: FleetSessionId) -> usize {
        self.sessions[id].shard
    }

    /// A shard's current degradation level (0 = full fidelity).
    pub fn level(&self, shard: usize) -> usize {
        self.shards[shard].level
    }

    /// Reports queued on a shard, not yet drained.
    pub fn pending(&self, shard: usize) -> usize {
        self.shards[shard].pending
    }

    /// Live sessions hosted on a shard.
    pub fn sessions_on(&self, shard: usize) -> usize {
        self.shards[shard].sessions.len()
    }

    /// The streaming options a session's tracker is currently running
    /// (its request, degraded to the hosting shard's applied rung).
    pub fn effective_options(&self, id: FleetSessionId) -> OnlineOptions {
        let s = &self.sessions[id];
        options_at(s.requested, s.applied_level)
    }

    /// Read-only access to a hosted session's tracker (checkpointing,
    /// committed-trail peeking, artifact-sharing assertions).
    ///
    /// # Panics
    /// If the session is finished, quarantined, or crashed.
    pub fn tracker(&self, id: FleetSessionId) -> &OnlineTracker {
        self.sessions[id].tracker.as_ref().expect("session is not hosted")
    }

    /// (offered, admitted) report counts for one session; the
    /// difference was deferred back to the producer, never dropped.
    pub fn session_flow(&self, id: FleetSessionId) -> (usize, usize) {
        let s = &self.sessions[id];
        (s.offered, s.admitted)
    }

    /// Router-lifetime counters.
    pub fn stats(&self) -> FleetStats {
        let mut s = FleetStats {
            sessions: self.sessions.len(),
            live: self.sessions.iter().filter(|s| s.live).count(),
            migrations: self.migrations,
            peak_level: self.peak_level,
            drains: self.drains,
            shard_kills: self.shard_kills,
            recoveries: self.recoveries,
            restore_fallbacks: self.restore_fallbacks,
            quarantined: self.quarantined,
            checkpoints: self.checkpoints,
            ..FleetStats::default()
        };
        for r in &self.sessions {
            s.offered += r.offered;
            s.admitted += r.admitted;
        }
        for sh in &self.shards {
            s.degrade_steps += sh.degrade_steps;
            s.recover_steps += sh.recover_steps;
            s.peak_pending = s.peak_pending.max(sh.peak_pending);
        }
        s
    }

    /// Take a hosted session out of service for finalizing: off its
    /// shard, every retained generation purged from the attached store
    /// and its escrow ledger released, so the store holds live sessions
    /// only. Returns its tracker and still-queued reports, or `None`
    /// (and changes nothing) if no shard hosts it.
    fn retire(&mut self, id: FleetSessionId) -> Option<(OnlineTracker, Vec<TagReport>)> {
        let s = &mut self.sessions[id];
        let tracker = s.tracker.take()?;
        let shard = &mut self.shards[s.shard];
        shard.pending = shard.pending.saturating_sub(s.queue.len());
        shard.sessions.retain(|&x| x != id);
        s.live = false;
        s.escrow = Escrow::default();
        if let Some(store) = self.store.as_mut() {
            store.purge(id as u64);
        }
        Some((tracker, std::mem::take(&mut s.queue)))
    }

    /// Finish one session now: push its remaining queue and finalize
    /// its trail. The handle stays allocated, but its durable state
    /// goes: every retained generation is purged from the attached
    /// store and its escrow ledger is released. (A quarantined session
    /// is never finished; its escrow stays for inspection.)
    pub fn finish_session(&mut self, id: FleetSessionId) -> TrackOutput {
        assert!(!self.sessions[id].crashed, "session {id} crashed; recover its shard first");
        match self.retire(id) {
            Some((mut tracker, queue)) => {
                tracker.extend(&queue);
                tracker.finalize()
            }
            None => panic!("session {id} already finished"),
        }
    }

    /// Finish every hosted session, finalizing them in parallel on
    /// [`FleetConfig::threads_per_shard`] workers; trails in fleet-id
    /// order, paired with their ids (sessions finished earlier,
    /// quarantined, or still crashed-unrecovered are omitted). Each
    /// session's durable state goes as in
    /// [`finish_session`](Self::finish_session).
    pub fn finish(mut self) -> Vec<(FleetSessionId, TrackOutput)> {
        type Cell = (FleetSessionId, Option<(OnlineTracker, Vec<TagReport>)>, Option<TrackOutput>);
        let mut cells: Vec<Cell> = (0..self.sessions.len())
            .filter_map(|id| Some((id, Some(self.retire(id)?), None)))
            .collect();
        parallel_for_each_mut(&mut cells, self.config.threads_per_shard, |cell| {
            if let Some((mut tracker, queue)) = cell.1.take() {
                tracker.extend(&queue);
                cell.2 = Some(tracker.finalize());
            }
        });
        cells.into_iter().filter_map(|(id, _, out)| Some((id, out?))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coarse_config() -> PolarDrawConfig {
        let mut cfg = PolarDrawConfig::default();
        cfg.hmm.cell_m *= 8.0;
        cfg
    }

    fn other_rig() -> PolarDrawConfig {
        let mut cfg = PolarDrawConfig::default();
        cfg.hmm.cell_m *= 4.0;
        cfg
    }

    fn stream(n: usize, t0: f64) -> Vec<TagReport> {
        (0..n)
            .map(|i| TagReport {
                t: t0 + i as f64 * 0.01,
                antenna: i % 2,
                rssi_dbm: -55.0,
                phase_rad: rf_core::wrap_tau(0.02 * i as f64),
                channel: 0,
                epc: 0xF1EE7,
            })
            .collect()
    }

    #[test]
    fn shard_key_is_the_rig_fingerprint() {
        assert_eq!(ShardKey::of(&coarse_config()), ShardKey::of(&coarse_config()));
        assert_ne!(ShardKey::of(&coarse_config()), ShardKey::of(&other_rig()));
        let mut moved = coarse_config();
        moved.antennas[1].x += 1e-12;
        assert_ne!(ShardKey::of(&coarse_config()), ShardKey::of(&moved), "keying is exact");
    }

    #[test]
    fn same_rig_sessions_share_a_shard_distinct_rigs_spread() {
        let mut fleet = FleetRouter::new(FleetConfig { shards: 3, ..FleetConfig::default() });
        let a0 = fleet.add_session(coarse_config(), OnlineOptions::default());
        let b0 = fleet.add_session(other_rig(), OnlineOptions::default());
        let a1 = fleet.add_session(coarse_config(), OnlineOptions::default());
        let b1 = fleet.add_session(other_rig(), OnlineOptions::default());
        assert_eq!(fleet.shard_of(a0), fleet.shard_of(a1), "rig affinity");
        assert_eq!(fleet.shard_of(b0), fleet.shard_of(b1), "rig affinity");
        assert_ne!(fleet.shard_of(a0), fleet.shard_of(b0), "distinct rigs spread");
    }

    #[test]
    fn soft_cap_spills_a_giant_rig_across_shards() {
        let mut fleet = FleetRouter::new(FleetConfig {
            shards: 4,
            soft_session_cap: 3,
            ..FleetConfig::default()
        });
        for _ in 0..12 {
            fleet.add_session(coarse_config(), OnlineOptions::default());
        }
        for si in 0..4 {
            assert_eq!(fleet.sessions_on(si), 3, "soft cap balances the colony");
        }
    }

    #[test]
    fn offer_defers_past_the_queue_cap_and_never_drops() {
        let mut fleet = FleetRouter::new(FleetConfig {
            shards: 1,
            queue_cap: 100,
            ..FleetConfig::default()
        });
        let id = fleet.add_session(coarse_config(), OnlineOptions::default());
        let reports = stream(250, 0.0);
        let took = fleet.offer(id, &reports);
        assert_eq!(took, 100, "admission stops at the cap");
        assert_eq!(fleet.pending(0), 100);
        assert_eq!(fleet.offer(id, &reports[took..]), 0, "shard is full until drained");
        fleet.drain();
        assert_eq!(fleet.pending(0), 0, "drain clears the backlog");
        let took2 = fleet.offer(id, &reports[took..]);
        assert_eq!(took2, 100);
        let (offered, admitted) = fleet.session_flow(id);
        assert_eq!(offered, 250 + 150 + 150, "every offer (including re-offers) counted");
        assert_eq!(admitted, 200, "deferred ≠ dropped: the rest is still the producer's");
    }

    #[test]
    fn controller_degrades_under_pressure_and_recovers_with_hysteresis() {
        let mut fleet = FleetRouter::new(FleetConfig {
            shards: 1,
            queue_cap: 100,
            ..FleetConfig::default()
        });
        let id = fleet.add_session(coarse_config(), OnlineOptions::default());
        let requested = fleet.effective_options(id);

        // Pressure: fill to the cap each round.
        let burst = stream(100, 0.0);
        let mut t = 0.0;
        let mut seen_levels = Vec::new();
        for _ in 0..10 {
            let burst: Vec<TagReport> = burst.iter().map(|r| {
                let mut r = *r;
                r.t += t;
                r
            }).collect();
            fleet.offer(id, &burst);
            fleet.drain();
            seen_levels.push(fleet.level(0));
            t += 2.0;
        }
        assert_eq!(fleet.level(0), MAX_LEVEL, "sustained overload walks the ladder");
        for w in seen_levels.windows(2) {
            assert!(w[1] >= w[0], "degradation is monotone under sustained pressure");
        }
        let degraded = fleet.effective_options(id);
        assert!(degraded.lag < requested.lag);
        assert_eq!(degraded.kernel.precision, KernelPrecision::F32Tolerance);
        assert!(degraded.kernel.adaptive.is_some());

        // Calm: empty rounds. Recovery needs `recover_after` calm
        // rounds per rung — count them.
        let mut rounds_to_recover = 0;
        while fleet.level(0) > 0 {
            fleet.drain();
            rounds_to_recover += 1;
            assert!(rounds_to_recover < 100, "recovery must terminate");
        }
        assert_eq!(
            rounds_to_recover,
            RECOVER_AFTER * MAX_LEVEL,
            "hysteresis: one rung per {} calm rounds",
            RECOVER_AFTER
        );
        assert_eq!(fleet.effective_options(id), requested, "full fidelity restored");
        let s = fleet.stats();
        assert_eq!(s.degrade_steps, MAX_LEVEL);
        assert_eq!(s.recover_steps, MAX_LEVEL);
        assert_eq!(s.peak_level, MAX_LEVEL);
        assert_eq!(s.live, 1, "no session was dropped");
    }

    #[test]
    fn kill_and_recover_is_bit_identical_at_a_checkpoint_boundary() {
        let config = FleetConfig {
            shards: 1,
            queue_cap: 100_000,
            checkpoint: CheckpointPolicy { every_drains: 1 },
            ..FleetConfig::default()
        };
        let run = |kill: bool| -> (String, FleetStats) {
            let mut fleet = FleetRouter::new(config.clone());
            fleet.attach_store(CheckpointStore::in_memory(3));
            let id = fleet.add_session(coarse_config(), OnlineOptions::default());
            for round in 0..6 {
                fleet.offer(id, &stream(40, round as f64 * 0.4));
                fleet.drain();
                if kill && round == 3 {
                    assert_eq!(fleet.kill_shard(0), 1);
                    assert!(fleet.crashed(id));
                    assert_eq!(fleet.offer(id, &stream(5, 99.0)), 0, "crashed defers");
                    let rec = fleet.recover(0);
                    assert_eq!(rec.restored, 1);
                    assert_eq!(
                        rec.requeued_reports, 0,
                        "kill right after a checkpoint: escrow fully covered"
                    );
                    assert!(!fleet.crashed(id));
                    // Duplicate recovery is a no-op.
                    assert_eq!(fleet.recover(0), RecoverReport::default());
                }
            }
            let text = fleet.tracker(id).checkpoint_string();
            (text, fleet.stats())
        };
        let (calm, _) = run(false);
        let (crashed, stats) = run(true);
        assert_eq!(calm, crashed, "boundary-kill recovery is bitwise invisible");
        assert_eq!(stats.shard_kills, 1);
        assert_eq!(stats.recoveries, 1);
        assert_eq!(stats.restore_fallbacks, 0);
    }

    #[test]
    fn mid_window_kill_replays_the_escrow_tail() {
        let config = FleetConfig {
            shards: 1,
            queue_cap: 100_000,
            // Checkpoint every 2nd drain: a kill after an odd drain
            // lands one full round past the last sealed generation.
            checkpoint: CheckpointPolicy { every_drains: 2 },
            ..FleetConfig::default()
        };
        let run = |kill: bool| -> String {
            let mut fleet = FleetRouter::new(config.clone());
            fleet.attach_store(CheckpointStore::in_memory(3));
            let id = fleet.add_session(coarse_config(), OnlineOptions::default());
            for round in 0..6 {
                fleet.offer(id, &stream(40, round as f64 * 0.4));
                fleet.drain();
                if kill && round == 2 {
                    // drains == 3 (odd): the round-2 batch is past the
                    // last checkpoint and must come back via escrow.
                    fleet.kill_shard(0);
                    let rec = fleet.recover(0);
                    assert_eq!(rec.restored, 1);
                    assert_eq!(rec.requeued_reports, 40, "one un-sealed round replayed");
                }
            }
            fleet.tracker(id).checkpoint_string()
        };
        assert_eq!(run(false), run(true), "escrow replay reconstructs the push sequence");
    }

    #[test]
    fn corrupt_latest_generation_falls_back_and_still_matches() {
        let config = FleetConfig {
            shards: 1,
            queue_cap: 100_000,
            checkpoint: CheckpointPolicy { every_drains: 1 },
            ..FleetConfig::default()
        };
        let run = |corrupt: bool| -> String {
            let mut fleet = FleetRouter::new(config.clone());
            fleet.attach_store(CheckpointStore::in_memory(4));
            let id = fleet.add_session(coarse_config(), OnlineOptions::default());
            for round in 0..4 {
                fleet.offer(id, &stream(40, round as f64 * 0.4));
                fleet.drain();
            }
            if corrupt {
                let store = fleet.store_mut().unwrap();
                let newest = store.latest(id as u64).unwrap();
                let mut bytes = store.read(id as u64, newest).unwrap();
                bytes[60] ^= 0x04;
                store.overwrite(id as u64, newest, &bytes);
                fleet.kill_shard(0);
                let rec = fleet.recover(0);
                assert_eq!(rec.fallbacks, 1, "walked back over the rotten generation");
                assert_eq!(
                    rec.requeued_reports, 40,
                    "the round the older generation had not seen is replayed"
                );
                assert_eq!(fleet.stats().restore_fallbacks, 1, "failure surfaced");
            }
            fleet.offer(id, &stream(40, 1.6));
            fleet.drain();
            fleet.tracker(id).checkpoint_string()
        };
        assert_eq!(run(false), run(true), "fallback + escrow replay is still bit-identical");
    }

    #[test]
    fn empty_queues_stay_asleep() {
        let mut fleet = FleetRouter::new(FleetConfig {
            shards: 1,
            threads_per_shard: 4,
            ..FleetConfig::default()
        });
        let a = fleet.add_session(coarse_config(), OnlineOptions::default());
        fleet.add_session(coarse_config(), OnlineOptions::default());
        fleet.offer(a, &stream(40, 0.0));
        let round = fleet.drain();
        assert_eq!(round.woken, 1, "only the session with reports wakes");
        assert_eq!(round.reports, 40);
        assert_eq!(fleet.pending(0), 0, "queue consumed");
        let round2 = fleet.drain();
        assert_eq!((round2.woken, round2.reports), (0, 0), "nothing pending → no wakes");
    }

    /// Panic isolation on both drain paths: one thread walks the
    /// shard's sessions in place, two fan out over the session table.
    #[test]
    fn poisoned_session_is_quarantined_and_the_fleet_keeps_serving() {
        for threads in [1, 2] {
            let mut fleet = FleetRouter::new(FleetConfig {
                shards: 1,
                threads_per_shard: threads,
                queue_cap: 100_000,
                ..FleetConfig::default()
            });
            let healthy = fleet.add_session(coarse_config(), OnlineOptions::default());
            // `window_s = 0` trips the tracker's first-push assertion —
            // a deterministic stand-in for any mid-stream panic.
            let mut bad_cfg = coarse_config();
            bad_cfg.preprocess.window_s = 0.0;
            let bad = fleet.add_session(bad_cfg, OnlineOptions::default());
            fleet.offer(healthy, &stream(40, 0.0));
            fleet.offer(bad, &stream(25, 0.0));
            let round = fleet.drain();
            assert_eq!(round.woken, 2, "threads {threads}: both woke, one blew up in isolation");
            assert_eq!(round.reports, 40, "threads {threads}: the healthy queue was consumed");
            assert_eq!(round.quarantined, 1);
            assert!(fleet.quarantined(bad));
            assert!(!fleet.quarantined(healthy));
            assert_eq!(fleet.quarantine_context(healthy), None);
            assert!(
                fleet.quarantine_context(bad).is_some_and(|c| c.contains("window length")),
                "threads {threads}: the panic text is kept"
            );
            assert_eq!(fleet.quarantined_reports(bad).len(), 25, "escrowed, not lost");
            assert_eq!(fleet.offer(bad, &stream(5, 9.0)), 0, "quarantined admits nothing");
            // The healthy session is unaffected and the fleet still
            // serves; the quarantined one never wakes again.
            fleet.offer(healthy, &stream(40, 0.4));
            assert_eq!(fleet.drain().woken, 1);
            let stats = fleet.stats();
            assert_eq!(stats.quarantined, 1);
            assert_eq!(stats.live, 1);
            let trails = fleet.finish();
            assert_eq!(trails.len(), 1);
            assert_eq!(trails[0].0, healthy);
        }
    }

    #[test]
    fn finish_session_removes_the_session_and_finish_skips_it() {
        let mut fleet = FleetRouter::new(FleetConfig {
            shards: 1,
            threads_per_shard: 2,
            ..FleetConfig::default()
        });
        let ids: Vec<FleetSessionId> = (0..3)
            .map(|_| fleet.add_session(coarse_config(), OnlineOptions::default()))
            .collect();
        for &id in &ids {
            fleet.offer(id, &stream(60, 0.0));
        }
        let first = fleet.finish_session(ids[1]);
        assert_eq!(fleet.sessions_on(0), 2);
        assert_eq!(fleet.pending(0), 120, "its queue left with it");
        let rest = fleet.finish();
        assert_eq!(rest.iter().map(|r| r.0).collect::<Vec<_>>(), vec![ids[0], ids[2]]);
        for (_, out) in &rest {
            assert_eq!(first.trail.points, out.trail.points, "same stream, same trail");
        }
    }

    #[test]
    fn finish_purges_only_that_sessions_durable_state() {
        let mut fleet = FleetRouter::new(FleetConfig {
            shards: 2,
            queue_cap: 100_000,
            checkpoint: CheckpointPolicy { every_drains: 1 },
            ..FleetConfig::default()
        });
        fleet.attach_store(CheckpointStore::in_memory(3));
        let ids: Vec<FleetSessionId> = (0..3)
            .map(|_| fleet.add_session(coarse_config(), OnlineOptions::default()))
            .collect();
        let mut bad_cfg = coarse_config();
        bad_cfg.preprocess.window_s = 0.0; // first push panics
        let bad = fleet.add_session(bad_cfg, OnlineOptions::default());
        fleet.offer(bad, &stream(25, 0.0));
        for round in 0..4 {
            for &id in &ids {
                fleet.offer(id, &stream(40, round as f64 * 0.4));
            }
            // The last round stays queued, so the escrow ledger is live.
            if round < 3 {
                fleet.drain();
            }
        }
        assert!(fleet.quarantined(bad));
        let store = fleet.store().expect("store attached");
        let before: Vec<Vec<u64>> = ids.iter().map(|&id| store.generations(id as u64)).collect();
        assert!(before.iter().all(|g| g.len() == 3), "every session retains keep=3");
        assert!(!fleet.sessions[ids[1]].escrow.reports.is_empty());

        fleet.finish_session(ids[1]);
        let store = fleet.store().expect("store attached");
        assert_eq!(store.generations(ids[1] as u64), Vec::<u64>::new(), "purged on finish");
        assert_eq!(store.generations(ids[0] as u64), before[0], "neighbour untouched");
        assert_eq!(store.generations(ids[2] as u64), before[2], "neighbour untouched");
        assert!(fleet.sessions[ids[1]].escrow.reports.is_empty(), "escrow released");
        assert!(fleet.sessions[ids[1]].escrow.marks.is_empty(), "escrow marks released");
        assert!(!fleet.sessions[ids[0]].escrow.reports.is_empty(), "neighbour escrow kept");
        assert_eq!(fleet.quarantined_reports(bad).len(), 25, "quarantined escrow kept");

        // The survivors still recover from their own generations.
        let shard = fleet.shard_of(ids[0]);
        assert_eq!(shard, fleet.shard_of(ids[2]), "same rig, same shard");
        fleet.kill_shard(shard);
        assert_eq!(fleet.recover(shard).restored, 2);
        assert_eq!(fleet.finish().len(), 2);
    }

    #[test]
    fn migration_moves_the_session_and_its_queue() {
        let mut fleet = FleetRouter::new(FleetConfig {
            shards: 2,
            queue_cap: 1000,
            ..FleetConfig::default()
        });
        let id = fleet.add_session(coarse_config(), OnlineOptions::default());
        let from = fleet.shard_of(id);
        let to = 1 - from;
        fleet.offer(id, &stream(50, 0.0));
        assert_eq!(fleet.pending(from), 50);
        let bytes = fleet.migrate(id, to);
        assert!(bytes > 0, "checkpoint payload measured");
        assert_eq!(fleet.shard_of(id), to);
        assert_eq!(fleet.pending(from), 0, "queue went with the session");
        assert_eq!(fleet.pending(to), 50);
        assert_eq!(fleet.sessions_on(from), 0);
        assert_eq!(fleet.sessions_on(to), 1);
        assert_eq!(fleet.migrate(id, to), 0, "same-shard migration is a no-op");
        let round = fleet.drain();
        assert_eq!(round.reports, 50, "carried reports are served on the target");
        assert_eq!(fleet.stats().migrations, 1);
    }
}
