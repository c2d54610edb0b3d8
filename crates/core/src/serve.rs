//! Multi-session serving: many pens, one rig, one process.
//!
//! The paper's §3.5 real-time claim covers one pen on one reader; the
//! serving layer scales that to a fleet. [`ServePool`] is a worker pool
//! that owns many [`OnlineTracker`] sessions and drives them with the
//! workspace fan-out primitive
//! ([`rf_core::par::parallel_for_each_mut`]). Reports are *enqueued*
//! per session at any time; a [`drain`](ServePool::drain) round wakes
//! only the sessions that actually have pending reports and advances
//! each one on some worker thread.
//!
//! ## Why pool output is bitwise-identical to sequential
//!
//! Parallelism is *across* sessions, never within one. A drain visits
//! each woken session exactly once, on exactly one worker, and feeds it
//! its own queue in enqueue order — so every session observes precisely
//! the `push` sequence it would observe running alone, and
//! [`OnlineTracker`] is deterministic given its input sequence. Thread
//! count, work stealing, and wake order can change *when* a session
//! advances relative to the others, but never *what* any session
//! computes. `tests/serve.rs` enforces this bit-for-bit at
//! `threads ∈ {1, 2, 8}` across mixed fault presets.
//!
//! Sessions choose their own decode kernel: `OnlineOptions::with_kernel`
//! carries a [`hmm::KernelOptions`](crate::hmm::KernelOptions) (exact
//! f64 vs f32-table fast path, adaptive beam) into each tracker, and
//! the pool passes it through untouched. Every kernel is deterministic
//! given its input sequence — the f32 path trades f64-exactness, not
//! reproducibility — so the bitwise contract above holds for
//! mixed-kernel fleets too (same tests, mixed kernels). A session's
//! decode step runs on one thread; the pool owns the cores.
//!
//! Memory stays sublinear in session count because every session on one
//! rig resolves the same [`hmm::DecodeArtifacts`](crate::hmm::DecodeArtifacts)
//! entry: one `EmissionTable` build (row-parallel) and one copy of the
//! table/stencils serve the whole fleet (see DESIGN.md "Multi-session
//! serving").

use crate::online::{OnlineOptions, OnlineTracker};
use crate::{PolarDrawConfig, TrackOutput};
use rf_core::par::parallel_for_each_mut;
use rfid_sim::TagReport;

/// Handle to one session in a [`ServePool`] (its slot index; stable for
/// the pool's lifetime).
pub type SessionId = usize;

/// Per-session serving counters (cumulative over the pool's lifetime).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SessionServeStats {
    /// Reports enqueued for this session.
    pub reports_enqueued: usize,
    /// Enqueue calls (batch or single) that delivered ≥ 1 report.
    pub batches_enqueued: usize,
    /// Drain rounds that actually woke this session.
    pub wakes: usize,
    /// Reports the session has consumed.
    pub reports_processed: usize,
    /// Trail points the session has committed (beyond its decoder lag).
    pub points_committed: usize,
}

/// What one [`ServePool::drain`] round did.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DrainReport {
    /// Sessions woken (had pending reports).
    pub woken: usize,
    /// Live sessions left asleep (empty queue) — the wake model's whole
    /// point: idle pens cost nothing per round.
    pub skipped: usize,
    /// Reports consumed this round, summed over woken sessions.
    pub reports: usize,
    /// Trail points committed this round, summed over woken sessions.
    pub newly_committed: usize,
}

/// Pool-lifetime counters (sums of every [`DrainReport`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PoolStats {
    /// Drain rounds run.
    pub drains: usize,
    /// Session wakes, summed over rounds.
    pub wakes: usize,
    /// Reports consumed.
    pub reports: usize,
    /// Trail points committed.
    pub committed: usize,
}

#[derive(Debug)]
struct Slot {
    /// `None` once the session was finished individually.
    tracker: Option<OnlineTracker>,
    queue: Vec<TagReport>,
    stats: SessionServeStats,
    /// Per-drain deltas, written by the worker that visited the slot
    /// and folded into the [`DrainReport`] after the round joins.
    last_reports: usize,
    last_committed: usize,
    /// Set when this session's `push` panicked mid-drain. A poisoned
    /// slot is never woken or finalized again (its tracker may be in
    /// an inconsistent state); its queue is left exactly as it was so
    /// a supervisor can move the reports elsewhere. Generalizes
    /// `rfid_sim::session::run_isolated` up to the pool: one bad
    /// session cannot take the drain round (or the process) down.
    poisoned: bool,
    /// Panic payload text from the poisoning push, for diagnostics.
    poison_context: Option<String>,
}

/// A work-stealing worker pool over many [`OnlineTracker`] sessions.
///
/// ```
/// use polardraw_core::serve::ServePool;
/// use polardraw_core::{OnlineOptions, PolarDrawConfig};
///
/// let mut pool = ServePool::new(4);
/// let pen = pool.add_session(PolarDrawConfig::default(), OnlineOptions::default());
/// // … enqueue reports as they arrive, then periodically:
/// let round = pool.drain();
/// assert_eq!(round.woken, 0, "no reports yet — the pen stayed asleep");
/// let trails = pool.finish();
/// assert_eq!(trails.len(), 1);
/// # let _ = pen;
/// ```
#[derive(Debug)]
pub struct ServePool {
    slots: Vec<Slot>,
    threads: usize,
    stats: PoolStats,
    /// Indices of the slots woken by the current drain round. Reused
    /// across rounds (capacity persists), so steady-state drains do not
    /// allocate — see [`drain`](Self::drain).
    wake: Vec<usize>,
}

impl ServePool {
    /// Empty pool draining on up to `threads` workers (clamped to ≥ 1).
    pub fn new(threads: usize) -> ServePool {
        ServePool {
            slots: Vec::new(),
            threads: threads.max(1),
            stats: PoolStats::default(),
            wake: Vec::new(),
        }
    }

    /// Worker count used by [`drain`](Self::drain) / [`finish`](Self::finish).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Add a fresh session; returns its handle.
    pub fn add_session(&mut self, config: PolarDrawConfig, options: OnlineOptions) -> SessionId {
        self.adopt(OnlineTracker::new(config, options))
    }

    /// Adopt an existing tracker (e.g. one restored from a
    /// `polardraw.online.checkpoint.v1` checkpoint) as a pool session.
    pub fn adopt(&mut self, tracker: OnlineTracker) -> SessionId {
        self.slots.push(Slot {
            tracker: Some(tracker),
            queue: Vec::new(),
            stats: SessionServeStats::default(),
            last_reports: 0,
            last_committed: 0,
            poisoned: false,
            poison_context: None,
        });
        self.slots.len() - 1
    }

    /// Number of sessions ever added (including finished ones — handles
    /// are stable slot indices).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the pool has no sessions.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Queue one report for a session (consumed at the next drain).
    pub fn enqueue(&mut self, id: SessionId, report: TagReport) {
        let slot = &mut self.slots[id];
        assert!(slot.tracker.is_some(), "session {id} already finished");
        slot.queue.push(report);
        slot.stats.reports_enqueued += 1;
        slot.stats.batches_enqueued += 1;
    }

    /// Queue a batch of reports for a session.
    pub fn enqueue_batch(&mut self, id: SessionId, reports: &[TagReport]) {
        if reports.is_empty() {
            return;
        }
        let slot = &mut self.slots[id];
        assert!(slot.tracker.is_some(), "session {id} already finished");
        slot.queue.extend_from_slice(reports);
        slot.stats.reports_enqueued += reports.len();
        slot.stats.batches_enqueued += 1;
    }

    /// Reports queued (not yet consumed) for a session.
    pub fn pending(&self, id: SessionId) -> usize {
        self.slots[id].queue.len()
    }

    /// One serving round: wake every session with pending reports and
    /// advance it on the worker pool; sessions with empty queues are
    /// left untouched. Output is independent of thread count (see the
    /// module docs for why).
    ///
    /// The wake list is a pool-owned index buffer reused round to
    /// round, and queues keep their capacity after draining, so a
    /// warmed single-threaded pool drains with **zero** allocations in
    /// its own serving path (asserted by `tests/serve_alloc.rs`); the
    /// multi-threaded path's only per-round allocations are inside the
    /// fan-out primitive itself.
    pub fn drain(&mut self) -> DrainReport {
        self.stats.drains += 1;
        self.wake.clear();
        let mut live = 0;
        for (i, s) in self.slots.iter().enumerate() {
            if s.tracker.is_some() && !s.poisoned {
                live += 1;
                if !s.queue.is_empty() {
                    self.wake.push(i);
                }
            }
        }
        let mut round = DrainReport {
            woken: self.wake.len(),
            skipped: live - self.wake.len(),
            ..DrainReport::default()
        };
        fn visit(slot: &mut Slot) {
            let queue = &slot.queue;
            let tracker = slot.tracker.as_mut().expect("woken slots hold a tracker");
            let before = tracker.committed().len();
            let n = queue.len();
            // Pushed by index (not drained) so that a panic part-way
            // through leaves the queue bytes intact — the supervisor
            // can then quarantine the session with its reports instead
            // of losing them with the unwound stack frame.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                for r in queue.iter() {
                    tracker.push(*r);
                }
            }));
            slot.stats.wakes += 1;
            match outcome {
                Ok(()) => {
                    slot.queue.clear();
                    let committed = slot.tracker.as_ref().expect("still present").committed().len();
                    slot.last_reports = n;
                    slot.last_committed = committed - before;
                    slot.stats.reports_processed += n;
                    slot.stats.points_committed = committed;
                }
                Err(payload) => {
                    // Isolate, don't unwind further: the round (and
                    // every other session in it) continues untouched.
                    slot.poisoned = true;
                    slot.poison_context = Some(
                        payload
                            .downcast_ref::<&str>()
                            .map(|s| s.to_string())
                            .or_else(|| payload.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "non-string panic payload".to_string()),
                    );
                    slot.last_reports = 0;
                    slot.last_committed = 0;
                }
            }
        }
        if self.threads == 1 || round.woken <= 1 {
            // Sequential fast path: visit woken slots in place through
            // the reused index buffer — no per-round allocation at all.
            for &i in &self.wake {
                visit(&mut self.slots[i]);
            }
        } else {
            // Parallel path: fan out over the whole slot slice and let
            // workers skip sleeping slots (one branch each). Same
            // visits, same per-session push order, so the bitwise
            // thread-count contract in the module docs holds unchanged.
            parallel_for_each_mut(&mut self.slots, self.threads, |slot| {
                if slot.tracker.is_some() && !slot.poisoned && !slot.queue.is_empty() {
                    visit(slot);
                }
            });
        }
        for &i in &self.wake {
            round.reports += self.slots[i].last_reports;
            round.newly_committed += self.slots[i].last_committed;
        }
        self.stats.wakes += round.woken;
        self.stats.reports += round.reports;
        self.stats.committed += round.newly_committed;
        round
    }

    /// Read-only access to a live session's tracker (checkpointing,
    /// committed-trail peeking, artifact-sharing assertions).
    ///
    /// # Panics
    /// If the session was already finished.
    pub fn tracker(&self, id: SessionId) -> &OnlineTracker {
        self.slots[id].tracker.as_ref().expect("session already finished")
    }

    /// Mutable access to a live session's tracker for in-crate control
    /// loops: the fleet degradation controller swaps kernels and lag at
    /// drain boundaries (`OnlineTracker::set_kernel` / `set_lag`).
    ///
    /// # Panics
    /// If the session was already finished or released.
    pub(crate) fn tracker_mut(&mut self, id: SessionId) -> &mut OnlineTracker {
        self.slots[id].tracker.as_mut().expect("session already finished")
    }

    /// Remove a live session from the pool *without* finalizing it,
    /// returning the tracker and any still-queued reports (in enqueue
    /// order). This is the live-migration primitive: checkpoint the
    /// returned tracker, adopt the restored copy into another pool, and
    /// re-enqueue the leftover reports there — the session then
    /// observes exactly the push sequence it would have observed
    /// staying put, so its output is bit-identical to never moving (as
    /// long as nothing changes its kernel options in between). The
    /// handle stays allocated (ids are stable slot indices); the slot
    /// reads as finished afterwards.
    ///
    /// # Panics
    /// If the session was already finished or released.
    pub fn release(&mut self, id: SessionId) -> (OnlineTracker, Vec<TagReport>) {
        let slot = &mut self.slots[id];
        let tracker = slot.tracker.take().expect("session already finished");
        (tracker, std::mem::take(&mut slot.queue))
    }

    /// Whether a session was poisoned (its `push` panicked mid-drain).
    /// Poisoned sessions are never woken or finalized again.
    pub fn poisoned(&self, id: SessionId) -> bool {
        self.slots[id].poisoned
    }

    /// Panic payload text from a poisoned session, if any.
    pub fn poison_context(&self, id: SessionId) -> Option<&str> {
        self.slots[id].poison_context.as_deref()
    }

    /// Drop a session's tracker without finalizing it and return its
    /// still-queued reports. This is the quarantine primitive: the
    /// fleet router uses it to pull a poisoned session out of a shard
    /// while keeping its reports (the tracker itself is unsalvageable
    /// in-process — recovery goes through the durability store).
    pub fn discard(&mut self, id: SessionId) -> Vec<TagReport> {
        let slot = &mut self.slots[id];
        slot.tracker = None;
        std::mem::take(&mut slot.queue)
    }

    /// Cumulative serving counters for one session.
    pub fn session_stats(&self, id: SessionId) -> SessionServeStats {
        self.slots[id].stats
    }

    /// Pool-lifetime counters.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Finish one session now: drain its queue (sequentially — one
    /// session needs no pool) and finalize its trail. Its handle stays
    /// allocated; the slot is empty afterwards.
    pub fn finish_session(&mut self, id: SessionId) -> TrackOutput {
        let slot = &mut self.slots[id];
        let mut tracker = slot.tracker.take().expect("session already finished");
        let n = slot.queue.len();
        for r in slot.queue.drain(..) {
            tracker.push(r);
        }
        slot.stats.reports_processed += n;
        slot.stats.points_committed = tracker.committed().len();
        tracker.finalize()
    }

    /// Drain any remaining reports, then finalize every live session in
    /// parallel. Returns trails in session-id order (sessions finished
    /// earlier via [`finish_session`](Self::finish_session) are
    /// omitted).
    pub fn finish(mut self) -> Vec<TrackOutput> {
        self.drain();
        let threads = self.threads;
        let mut cells: Vec<(Option<OnlineTracker>, Option<TrackOutput>)> = self
            .slots
            .into_iter()
            // A poisoned tracker is in an unknown state; finalizing it
            // could panic again. Quarantined sessions produce no trail.
            .map(|s| (if s.poisoned { None } else { s.tracker }, None))
            .collect();
        parallel_for_each_mut(&mut cells, threads, |cell| {
            if let Some(tracker) = cell.0.take() {
                cell.1 = Some(tracker.finalize());
            }
        });
        cells.into_iter().filter_map(|c| c.1).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny synthetic report stream: two antennas alternating at
    /// 10 ms, constant RSS, slowly advancing phase. Enough to push
    /// windows through the tracker without caring about the trail.
    fn stream(n: usize, t0: f64) -> Vec<TagReport> {
        (0..n)
            .map(|i| TagReport {
                t: t0 + i as f64 * 0.01,
                antenna: i % 2,
                rssi_dbm: -55.0,
                phase_rad: rf_core::wrap_tau(0.02 * i as f64),
                channel: 0,
                epc: 0xB00C,
            })
            .collect()
    }

    fn coarse_config() -> PolarDrawConfig {
        let mut cfg = PolarDrawConfig::default();
        cfg.hmm.cell_m *= 8.0;
        cfg
    }

    #[test]
    fn empty_queues_stay_asleep() {
        let mut pool = ServePool::new(4);
        let a = pool.add_session(coarse_config(), OnlineOptions::default());
        let b = pool.add_session(coarse_config(), OnlineOptions::default());
        pool.enqueue_batch(a, &stream(40, 0.0));
        let round = pool.drain();
        assert_eq!(round.woken, 1, "only the session with reports wakes");
        assert_eq!(round.skipped, 1);
        assert_eq!(round.reports, 40);
        assert_eq!(pool.session_stats(b).wakes, 0);
        assert_eq!(pool.pending(a), 0, "queue consumed");
        let round2 = pool.drain();
        assert_eq!((round2.woken, round2.reports), (0, 0), "nothing pending → no wakes");
    }

    #[test]
    fn pool_matches_sequential_tracker() {
        let reports = stream(300, 0.0);
        // Sequential reference.
        let mut solo = OnlineTracker::new(coarse_config(), OnlineOptions::default());
        solo.extend(&reports);
        let want = solo.finalize();
        // Pool, chunked enqueue, several threads.
        for threads in [1, 3] {
            let mut pool = ServePool::new(threads);
            let id = pool.add_session(coarse_config(), OnlineOptions::default());
            for chunk in reports.chunks(37) {
                pool.enqueue_batch(id, chunk);
                pool.drain();
            }
            let got = pool.finish().remove(0);
            assert_eq!(got.trail.points, want.trail.points, "threads={threads}");
        }
    }

    #[test]
    fn finish_session_removes_slot_and_finish_skips_it() {
        let mut pool = ServePool::new(2);
        let a = pool.add_session(coarse_config(), OnlineOptions::default());
        let b = pool.add_session(coarse_config(), OnlineOptions::default());
        pool.enqueue_batch(a, &stream(60, 0.0));
        pool.enqueue_batch(b, &stream(60, 0.0));
        let first = pool.finish_session(a);
        let rest = pool.finish();
        assert_eq!(rest.len(), 1, "only b remains");
        assert_eq!(first.trail.points, rest[0].trail.points, "same stream, same trail");
    }

    #[test]
    fn poisoned_session_is_isolated_and_the_pool_keeps_serving() {
        let mut pool = ServePool::new(2);
        let good = pool.add_session(coarse_config(), OnlineOptions::default());
        // `window_s = 0` trips the tracker's first-push assertion — a
        // deterministic stand-in for any mid-stream panic.
        let mut bad_cfg = coarse_config();
        bad_cfg.preprocess.window_s = 0.0;
        let bad = pool.add_session(bad_cfg, OnlineOptions::default());

        pool.enqueue_batch(good, &stream(60, 0.0));
        pool.enqueue_batch(bad, &stream(60, 0.0));
        let round = pool.drain();
        assert_eq!(round.woken, 2, "both woke; one blew up in isolation");
        assert!(pool.poisoned(bad));
        assert!(!pool.poisoned(good));
        assert_eq!(pool.pending(bad), 60, "poisoned queue left intact for escrow");
        assert!(pool.poison_context(bad).unwrap().contains("window length"));

        // The pool keeps serving; the poisoned slot never wakes again.
        pool.enqueue_batch(good, &stream(60, 0.6));
        let round2 = pool.drain();
        assert_eq!(round2.woken, 1);

        let escrow = pool.discard(bad);
        assert_eq!(escrow.len(), 60, "quarantine hands back every report");
        let trails = pool.finish();
        assert_eq!(trails.len(), 1, "only the healthy session finalizes");
    }
}
