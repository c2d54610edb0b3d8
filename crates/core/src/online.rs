//! Online (streaming) tracking engine: fixed-lag decode with bounded
//! memory, incremental pre-processing, and checkpoint/restore.
//!
//! The batch API needs the whole report stream up front; a live
//! whiteboard does not have it. [`OnlineTracker`] consumes
//! [`TagReport`]s one at a time (or in bursts), window-averages them
//! incrementally, runs the same movement-type / direction / distance
//! estimators the batch pipeline runs, and decodes through a
//! [`FixedLagDecoder`] so trail points beyond the decision lag are
//! *committed* and their backpointer frames freed.
//!
//! ## Equivalence contract
//!
//! [`PolarDraw::track_with_diagnostics`](crate::PolarDraw) is a thin
//! wrapper over this engine ([`OnlineTracker::batch`]): infinite lag,
//! infinite hold, [`finalize`](OnlineTracker::finalize). Every stage is
//! the per-window restriction of the batch computation:
//!
//! * **Windowing and spurious screen** — one implementation: the
//!   tracker owns a `preprocess::Windower`, the same type the batch
//!   [`preprocess`](crate::preprocess::preprocess) drives, and pulls
//!   closed windows from it — after each push the windows behind the
//!   hold, in [`finalize`](OnlineTracker::finalize) the rest.
//! * **Gap bridging** — runs of empty windows are buffered and
//!   resolved with the batch loop's exact one-window-at-a-time
//!   re-evaluation semantics; a trailing run (stream just ends) keeps
//!   every window individually, as batch does.
//! * **Decoding** — each kept-window pair produces the same
//!   [`StepObservation`] and feeds [`FixedLagDecoder::step`], which
//!   runs the identical `advance_frontier` hot path as the batch
//!   decoders. With lag ≥ steps the final backtrack is the batch
//!   backtrack — bit-for-bit.
//!
//! ## Checkpoint format
//!
//! [`write_checkpoint`](OnlineTracker::write_checkpoint) writes the
//! complete logical state as canonical JSON (format tag
//! `polardraw.online.checkpoint.v1`): stream conditioning carry,
//! pre-processing census, bridge state, estimator state (azimuth
//! tracker snapshot, phase calibration, dead-reckoned position), all
//! windows/steps produced so far, and the decoder's frontier, retained
//! frames, committed points, and work counters. `f64`s round-trip
//! bit-exactly (shortest round-trip formatting), so a restored session
//! converges to the same trail as an uninterrupted one — asserted at
//! every cut point by `tests/online_equivalence.rs`.
//!
//! The writer builds no `Json` tree. It writes keys in the sorted
//! order `Json::Obj` would, through `rf_core::json`'s own number and
//! string writers, so its text is exactly what
//! `Json::parse(text).to_json_string()` returns. History items and
//! retained lag frames never change once pushed, so each tracker keeps
//! their text in a seal cache: formatted the first time the tracker is
//! sealed, copied on every later seal. A seal therefore formats only
//! the items new since the previous seal plus the live state (stream,
//! bridge, estimator, frontier, counters), though the bytes it writes
//! still grow with the session. [`restore`](OnlineTracker::restore)
//! parses into a `Json` tree as before, and a restored tracker starts
//! with an empty cache.

use crate::distance::{directional_displacement, expected_dtheta21, feasible_region};
use crate::durability::RestoreError;
use crate::hmm::{
    rotate_trajectory, AdaptiveBeam, BeamFrame, DecodeStats, FixedLagDecoder, Grid,
    KernelOptions, KernelPrecision, StepObservation, DEFAULT_BEAM_WIDTH,
};
use crate::model::{direction_from_azimuth, rotation_angle, Cardinal, Rotation, Sector};
use crate::pipeline::{DegradationReport, PolarDrawConfig, StepEstimate, StepKind, TrackOutput};
use crate::preprocess::{PreprocessStats, Windowed, Windower, SPURIOUS_THRESHOLD_RAD};
use crate::rotation::{AzimuthSnapshot, AzimuthTracker};
use crate::translation::estimate_translation;
use rf_core::angle::phase_diff;
use rf_core::json::{
    whole_number, write_escaped, write_number, write_u32_array, write_u32_f64_pairs, FromJson,
    ToJson,
};
use rf_core::{wrap_pi, Json, JsonError, Vec2};
use rfid_sim::tracking::Trail;
use rfid_sim::TagReport;
use std::cell::RefCell;
use std::collections::VecDeque;

/// Movement-type threshold δ: an RSS change above this (dB) in a window
/// marks the step rotational (paper: 2 dBm).
pub const MOVEMENT_RSS_THRESHOLD_DB: f64 = 2.0;

/// Clamp on the Eq. 10 correction magnitude, radians. The boundary
/// corrections that estimate α̃a are noisy; an unclamped estimate can
/// swing the whole trail (paper's Fig. 10 corrections are small).
pub const MAX_ROTATION_CORRECTION_RAD: f64 = 25f64.to_radians();

/// Gap bridging: an interior run of at least this many consecutive
/// completely-empty windows (no reads on either antenna — a total
/// outage) is coalesced into a single decoder step whose `dt` spans the
/// whole gap, so the feasible annulus widens to `v_max · gap` instead
/// of emitting a chain of blind per-window steps. Clean streams never
/// hit this (the reader reads every window), so it changes nothing on
/// healthy input.
pub const GAP_BRIDGE_MIN_WINDOWS: usize = 4;

/// Streaming knobs for an [`OnlineTracker`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineOptions {
    /// Decoder decision lag, in steps: how many backpointer frames the
    /// fixed-lag Viterbi retains before committing the oldest point.
    /// `usize::MAX` never commits early (exact batch behaviour).
    pub lag: usize,
    /// Window hold-back, in windows: a pre-processing window is closed
    /// (averaged, screened, fed to the decoder) once the stream head
    /// has advanced more than this many windows past it. Late reports
    /// for already-closed windows are dropped (and counted).
    /// `usize::MAX` closes nothing until [`OnlineTracker::finalize`].
    pub hold: usize,
    /// Decode kernel configuration forwarded to the [`FixedLagDecoder`]:
    /// precision ([`KernelPrecision::F64Exact`] keeps the bit-exact
    /// batch-equivalence contract; `F32Tolerance` trades it for speed
    /// under the tolerance oracle) and the optional adaptive beam.
    /// Checkpoints carry it, so a restored session keeps running the
    /// same kernel.
    pub kernel: KernelOptions,
}

impl Default for OnlineOptions {
    fn default() -> Self {
        // 64 steps of lag is 3.2 s of hindsight at the paper's 50 ms
        // windows — glyph-scale, far beyond where the best path's
        // ancestor settles in practice (the survivor set as a whole
        // often has not merged yet; see EXPERIMENTS.md); hold 2
        // tolerates LLRP reorderings of up to a full window without
        // stalling commits.
        OnlineOptions { lag: 64, hold: 2, kernel: KernelOptions::default() }
    }
}

impl OnlineOptions {
    /// Batch-equivalent options: infinite lag, infinite hold, exact
    /// kernel.
    pub fn batch() -> OnlineOptions {
        OnlineOptions { lag: usize::MAX, hold: usize::MAX, kernel: KernelOptions::exact() }
    }

    /// Same options with a different decode kernel.
    pub fn with_kernel(self, kernel: KernelOptions) -> OnlineOptions {
        OnlineOptions { kernel, ..self }
    }
}

/// The streaming PolarDraw engine. See the module docs for the
/// equivalence contract with the batch pipeline.
#[derive(Debug)]
pub struct OnlineTracker {
    config: PolarDrawConfig,
    options: OnlineOptions,
    // Windowing, spurious screen, and the closed windows.
    windower: Windower,
    // Diagnostics (retained for TrackOutput parity with batch).
    steps: Vec<StepEstimate>,
    // Gap-bridge state.
    run_buf: Vec<Windowed>,
    has_kept: bool,
    last_kept_t: f64,
    prev_kept: Option<Windowed>,
    gaps_bridged: usize,
    largest_gap_bridged_s: f64,
    // Estimator carry.
    azimuth_tracker: AzimuthTracker,
    offset21: Option<f64>,
    pos_est: Vec2,
    // Decoder.
    decoder: FixedLagDecoder,
    // Text of the immutable parts of the last checkpoint written (see
    // `SealCache`). Not logical state: a restored tracker starts empty.
    seal_cache: RefCell<SealCache>,
}

impl OnlineTracker {
    /// New streaming tracker.
    pub fn new(config: PolarDrawConfig, options: OnlineOptions) -> OnlineTracker {
        let grid = Grid::covering(config.board_min, config.board_max, config.hmm.cell_m);
        let mut decoder = FixedLagDecoder::new(
            grid,
            config.antennas,
            config.start_hint,
            config.hmm,
            DEFAULT_BEAM_WIDTH,
            options.lag,
        );
        decoder.set_kernel(options.kernel);
        OnlineTracker {
            config,
            options,
            windower: Windower::new(config.preprocess, options.hold),
            steps: Vec::new(),
            run_buf: Vec::new(),
            has_kept: false,
            last_kept_t: 0.0,
            prev_kept: None,
            gaps_bridged: 0,
            largest_gap_bridged_s: 0.0,
            azimuth_tracker: AzimuthTracker::new(config.rotation),
            offset21: None,
            pos_est: config.start_hint,
            decoder,
            seal_cache: RefCell::default(),
        }
    }

    /// Batch-equivalent tracker: `new(config, OnlineOptions::batch())`.
    /// `extend` + `finalize` on this reproduces
    /// `PolarDraw::track_with_diagnostics` bit-for-bit on *any* input,
    /// including unsorted/duplicated adversarial streams.
    pub fn batch(config: PolarDrawConfig) -> OnlineTracker {
        OnlineTracker::new(config, OnlineOptions::batch())
    }

    /// The configuration this tracker runs.
    pub fn config(&self) -> &PolarDrawConfig {
        &self.config
    }

    /// The streaming options this tracker runs.
    pub fn options(&self) -> OnlineOptions {
        self.options
    }

    /// Swap the decode kernel at a push boundary — the fleet load
    /// controller's degradation knob. Takes effect on the next decoder
    /// step ([`FixedLagDecoder::set_kernel`] is safe at any step
    /// boundary), and the updated options are carried by subsequent
    /// checkpoints, so a migrated or restored session keeps running the
    /// kernel it was degraded to.
    pub fn set_kernel(&mut self, kernel: KernelOptions) {
        self.options.kernel = kernel;
        self.decoder.set_kernel(kernel);
    }

    /// Change the decoder decision lag (degradation knob; clamped to
    /// ≥ 1). Shrinking commits the now-over-lag frames immediately —
    /// the same commits the next steps would have produced — and
    /// returns how many points that committed; growing restores
    /// hindsight for future steps only (already-committed points stay
    /// committed). Carried by subsequent checkpoints.
    pub fn set_lag(&mut self, lag: usize) -> usize {
        self.options.lag = lag.max(1);
        self.decoder.set_lag(lag)
    }

    /// Consume one report.
    pub fn push(&mut self, r: TagReport) {
        let closed = self.windower.windows.len();
        self.windower.push(r);
        self.admit_windows_from(closed);
    }

    /// Consume a burst of reports.
    pub fn extend(&mut self, reports: &[TagReport]) {
        for &r in reports {
            self.push(r);
        }
    }

    /// Trail points committed so far (beyond the decoder lag). These
    /// are raw decoded cell centres — the final rotation correction and
    /// smoothing are global and applied in [`finalize`](Self::finalize).
    pub fn committed(&self) -> &[Vec2] {
        self.decoder.committed()
    }

    /// Decoder steps taken so far.
    pub fn steps_so_far(&self) -> &[StepEstimate] {
        &self.steps
    }

    /// Windows closed so far.
    pub fn windows_so_far(&self) -> &[Windowed] {
        &self.windower.windows
    }

    /// Reports dropped because they arrived after their window closed
    /// (streaming mode only; batch options never drop).
    pub fn late_reports_dropped(&self) -> usize {
        self.windower.late_dropped
    }

    /// Decoder work counters so far.
    pub fn decode_stats(&self) -> DecodeStats {
        self.decoder.stats()
    }

    /// The underlying fixed-lag decoder (read-only) — lets serving
    /// tests assert that N sessions on one rig share one
    /// [`hmm::DecodeArtifacts`](crate::hmm::DecodeArtifacts) entry.
    pub fn decoder(&self) -> &FixedLagDecoder {
        &self.decoder
    }

    /// The degradation census as of now (same accounting the final
    /// [`TrackOutput`] carries, minus not-yet-closed windows).
    pub fn degradation_so_far(&self) -> DegradationReport {
        let mut d = DegradationReport::from_preprocess(&self.windower.stats);
        d.gaps_bridged = self.gaps_bridged;
        d.largest_gap_bridged_s = self.largest_gap_bridged_s;
        d.carried_steps = self.decoder.stats().carried_steps;
        d
    }

    /// Hand the windows the windower closed from index `from` on to
    /// the gap-bridge / step machinery, in window order.
    fn admit_windows_from(&mut self, from: usize) {
        for i in from..self.windower.windows.len() {
            let w = self.windower.windows[i];
            if w.flags.empty {
                // Empty windows buffer until we know whether the run is
                // interior (bridgeable) or trailing.
                self.run_buf.push(w);
            } else {
                self.resolve_run_then_keep(w);
            }
        }
    }

    /// A non-empty window closed after a (possibly empty) run of empty
    /// ones: resolve the run with the batch loop's exact semantics —
    /// bridge the remaining run whenever it is long enough *and*
    /// anchored, else keep one window and re-evaluate — then keep the
    /// non-empty window.
    fn resolve_run_then_keep(&mut self, cur: Windowed) {
        let mut s = 0;
        while s < self.run_buf.len() {
            let remaining = self.run_buf.len() - s;
            if remaining >= GAP_BRIDGE_MIN_WINDOWS && self.has_kept {
                // Bridge the rest of the run: the step from the last
                // kept window to `cur` spans the whole outage, so the
                // feasible annulus widens to `v_max · gap` automatically.
                self.gaps_bridged += 1;
                let gap_s = cur.t - self.last_kept_t;
                self.largest_gap_bridged_s = self.largest_gap_bridged_s.max(gap_s);
                break;
            }
            let w = self.run_buf[s];
            self.keep(w);
            s += 1;
        }
        self.run_buf.clear();
        self.keep(cur);
    }

    /// Admit a window to the kept chain; every consecutive kept pair
    /// becomes one estimator + decoder step.
    fn keep(&mut self, cur: Windowed) {
        if let Some(prev) = self.prev_kept {
            self.step_between(&prev, &cur);
        }
        self.prev_kept = Some(cur);
        self.has_kept = true;
        self.last_kept_t = cur.t;
    }

    /// One kept-window pair → movement classification, direction and
    /// distance estimation, one decoder step. Verbatim the batch
    /// pipeline's pair-loop body.
    fn step_between(&mut self, prev: &Windowed, cur: &Windowed) {
        let cfg = self.config;
        let lambda = cfg.hmm.wavelength_m;
        let dt = (cur.t - prev.t).max(1e-6);

        let ds = [delta(prev.rssi[0], cur.rssi[0]), delta(prev.rssi[1], cur.rssi[1])];
        let dth = [
            delta_phase(prev.phase[0], cur.phase[0]),
            delta_phase(prev.phase[1], cur.phase[1]),
        ];

        let region = feasible_region(dth, dt, lambda);

        // Movement-type detection (§3.3): RSS trend above δ ⇒
        // rotational (only meaningful with polarization enabled).
        let max_ds = ds.iter().flatten().map(|d| d.abs()).fold(0.0, f64::max);
        let rotational = cfg.use_polarization && max_ds > MOVEMENT_RSS_THRESHOLD_DB;

        let (kind, direction, azimuth, alpha_r) = if rotational {
            match (ds[0], ds[1]) {
                (Some(d1), Some(d2)) => match self.azimuth_tracker.step(d1, d2) {
                    Some(step) => {
                        let ar = rotation_angle(step.azimuth, cfg.alpha_e_rad);
                        let dir = direction_from_azimuth(step.azimuth, step.rotation);
                        (
                            StepKind::Rotational { rotation: step.rotation, sector: step.sector },
                            Some(dir),
                            Some(step.azimuth),
                            Some(ar),
                        )
                    }
                    None => (StepKind::Still, None, self.azimuth_tracker.azimuth(), None),
                },
                _ => (StepKind::Still, None, self.azimuth_tracker.azimuth(), None),
            }
        } else {
            let cardinal = match (dth[0], dth[1]) {
                (Some(d1), Some(d2)) => estimate_translation([d1, d2]),
                _ => None,
            };
            match cardinal {
                Some(c) => (
                    StepKind::Translational(c),
                    Some(c.unit()),
                    self.azimuth_tracker.azimuth(),
                    None,
                ),
                None => (StepKind::Still, None, self.azimuth_tracker.azimuth(), None),
            }
        };

        // Calibrated inter-antenna phase difference at the current
        // window.
        let dtheta21 = match (cur.phase[0], cur.phase[1]) {
            (Some(p1), Some(p2)) => {
                let raw = wrap_pi(p2 - p1);
                let off = *self.offset21.get_or_insert_with(|| {
                    raw - expected_dtheta21(cfg.start_hint, cfg.antennas, lambda)
                });
                Some(wrap_pi(raw - off))
            }
            _ => None,
        };

        // Displacement along the estimated direction (Fig. 12(b)×(c)
        // intersection); plain lower bound when direction is unknown.
        let target_dist = match direction {
            Some(dir) => directional_displacement(dth, cfg.antennas, self.pos_est, dir, lambda)
                .min(region.max_dist),
            None => region.min_dist,
        };

        // Dead-reckon a coarse position for the next step's
        // translational geometry.
        if let Some(dir) = direction {
            self.pos_est += dir * target_dist;
        }

        self.steps.push(StepEstimate {
            t: cur.t,
            kind,
            direction,
            azimuth,
            alpha_r,
            bounds: (region.min_dist, region.max_dist),
        });
        self.decoder.step(&StepObservation { region, direction, dtheta21, target_dist });
    }

    /// Close every remaining window, flush the trailing empty run, run
    /// the final backtrack, and assemble the [`TrackOutput`] — the same
    /// rotation correction, smoothing, and degradation accounting as
    /// the batch pipeline.
    pub fn finalize(mut self) -> TrackOutput {
        let cfg = self.config;
        let closed = self.windower.windows.len();
        self.windower.close_all();
        self.admit_windows_from(closed);
        // A trailing empty run has nothing to anchor a bridge after it:
        // keep every window individually (batch semantics).
        for k in 0..self.run_buf.len() {
            let w = self.run_buf[k];
            self.keep(w);
        }
        self.run_buf.clear();

        let mut points = self.decoder.finish();
        let decode_stats = self.decoder.stats();

        let raw_error = self.azimuth_tracker.initial_error_estimate();
        let initial_azimuth_error =
            raw_error.clamp(-MAX_ROTATION_CORRECTION_RAD, MAX_ROTATION_CORRECTION_RAD);
        if cfg.apply_rotation_correction && initial_azimuth_error != 0.0 {
            points = rotate_trajectory(&points, initial_azimuth_error);
        }

        let times: Vec<f64> = self.steps.iter().map(|s| s.t).take(points.len()).collect();
        if cfg.smooth_output {
            points = crate::smoother::smooth(&times, &points);
        }
        let trail = Trail::new(times, points);
        let mut degradation = DegradationReport::from_preprocess(&self.windower.stats);
        degradation.gaps_bridged = self.gaps_bridged;
        degradation.largest_gap_bridged_s = self.largest_gap_bridged_s;
        degradation.carried_steps = decode_stats.carried_steps;
        TrackOutput {
            trail,
            steps: self.steps,
            windows: self.windower.windows,
            initial_azimuth_error,
            decode_stats,
            degradation,
        }
    }

    // ------------------------------------------------------------------
    // Checkpoint / restore.
    // ------------------------------------------------------------------

    /// Format tag carried by every checkpoint document.
    pub const CHECKPOINT_FORMAT: &'static str = "polardraw.online.checkpoint.v1";

    /// Write the complete logical state to `out` as canonical
    /// checkpoint JSON (see the module docs for the format): keys in
    /// sorted order, numbers in shortest round-trip form, so the text
    /// is exactly what `Json::parse(text).to_json_string()` gives back.
    ///
    /// History items (windows, steps, committed points) and retained
    /// lag frames never change once pushed, so the first call formats
    /// them into the tracker's seal cache and later calls copy that
    /// text, formatting only the items pushed since and the live state.
    /// The bytes are the same either way.
    pub fn write_checkpoint(&self, out: &mut String) {
        self.write_checkpoint_with(&mut self.seal_cache.borrow_mut(), out);
    }

    /// The checkpoint text as a new string. Same bytes as
    /// [`write_checkpoint`](Self::write_checkpoint), but formatted
    /// through a throwaway cache: the tracker's own seal cache is left
    /// alone, so a one-off document (a migration payload, a test
    /// reference) costs no cache fill.
    pub fn checkpoint_string(&self) -> String {
        let mut out = String::new();
        self.write_checkpoint_with(&mut SealCache::default(), &mut out);
        out
    }

    /// Bytes the checkpoint writer formatted afresh, rather than copied
    /// from the seal cache, over every `write_checkpoint` call on this
    /// tracker (each seal makes one; `checkpoint_string` does not count).
    /// A deterministic work counter: the difference across one seal is
    /// that seal's formatting work.
    pub fn checkpoint_bytes_formatted(&self) -> u64 {
        self.seal_cache.borrow().formatted
    }

    fn write_checkpoint_with(&self, cache: &mut SealCache, out: &mut String) {
        let start = out.len();
        let new_bytes = cache.sync(self);
        // One allocation for the whole document, with room for the live
        // state to grow a little and for an enclosing seal envelope.
        out.reserve(cache.last_len + new_bytes + 4096);
        let win = &self.windower;
        let pre = &win.stats;
        let snap = self.azimuth_tracker.snapshot();
        let mut copied = 0;

        let mut doc = ObjWriter::open(out);
        let mut bridge = ObjWriter::open(doc.key("bridge"));
        bridge.count("gaps_bridged", self.gaps_bridged);
        bridge.flag("has_kept", self.has_kept);
        bridge.num("largest_gap_bridged_s", self.largest_gap_bridged_s);
        bridge.num("last_kept_t", self.last_kept_t);
        match &self.prev_kept {
            Some(w) => write_windowed(w, bridge.key("prev_kept")),
            None => bridge.null("prev_kept"),
        }
        write_arr(&self.run_buf, bridge.key("run_buf"), write_windowed);
        bridge.close();

        let mut dec = ObjWriter::open(doc.key("decoder"));
        copied += write_cached_array(&cache.committed.text, dec.key("committed"));
        copied += write_cached_array(&cache.frames.text, dec.key("frames"));
        write_u32_f64_pairs(self.decoder.frontier(), dec.key("frontier"));
        write_decode_stats(&self.decoder.stats(), dec.key("stats"));
        dec.close();

        let mut est = ObjWriter::open(doc.key("estimator"));
        est.num("accumulated_error", snap.accumulated_error);
        est.opt("azimuth", snap.azimuth);
        est.count("corrections", snap.corrections);
        est.opt("offset21", self.offset21);
        write_vec2(self.pos_est, est.key("pos_est"));
        est.opt("sector", snap.sector.map(sector_code));
        est.close();

        fingerprint_json(&self.config).write_to(doc.key("fingerprint"));
        doc.text("format", Self::CHECKPOINT_FORMAT);

        let mut opts = ObjWriter::open(doc.key("options"));
        opts.count("hold", self.options.hold);
        write_kernel_options(&self.options.kernel, opts.key("kernel"));
        opts.count("lag", self.options.lag);
        opts.close();

        let mut p = ObjWriter::open(doc.key("pre"));
        p.count("duplicates_removed", pre.duplicates_removed);
        p.count("empty_run", win.empty_run);
        p.count("empty_windows", pre.empty_windows);
        p.count("ignored_ports", pre.ignored_ports);
        p.count("input_reports", pre.input_reports);
        p.flag("input_unsorted", pre.input_unsorted);
        p.count("largest_empty_run", pre.largest_empty_run);
        write_arr(win.prev_measured, p.key("prev_measured"), write_opt);
        p.count("single_antenna_windows", pre.single_antenna_windows);
        p.count("spurious_rejected", pre.spurious_rejected);
        p.count("windows", pre.windows);
        p.close();

        copied += write_cached_array(&cache.steps.text, doc.key("steps"));

        let mut stream = ObjWriter::open(doc.key("stream"));
        stream.opt("first_t", win.first_t);
        stream.count("late_dropped", win.late_dropped);
        stream.num("max_t", win.max_t);
        stream.count("next_window", win.next_window);
        write_arr(&win.pending, stream.key("pending"), |r, out| r.to_json().write_to(out));
        stream.opt("prev_push_t", win.prev_push_t);
        stream.close();

        copied += write_cached_array(&cache.windows.text, doc.key("windows"));
        doc.close();

        let written = out.len() - start;
        cache.last_len = written;
        cache.formatted += (written - copied + new_bytes) as u64;
    }

    /// Rebuild a tracker from a checkpoint. `config` must be the same
    /// configuration the checkpointed tracker ran (verified against the
    /// embedded fingerprint, bit-exact); the streaming options are
    /// restored from the checkpoint itself.
    ///
    /// The document is treated as untrusted (it may have come off a
    /// disk or wire): every malformation — wrong format tag, foreign
    /// fingerprint, missing or mistyped fields, decoder state indexing
    /// outside the rig's grid — returns a typed
    /// [`RestoreError`](crate::durability::RestoreError); nothing
    /// panics.
    pub fn restore(config: PolarDrawConfig, v: &Json) -> Result<OnlineTracker, RestoreError> {
        let format = v.get("format").and_then(Json::as_str).unwrap_or("");
        if format != Self::CHECKPOINT_FORMAT {
            return Err(RestoreError::Format { found: format.to_string() });
        }
        let fp = v
            .get("fingerprint")
            .ok_or_else(|| RestoreError::Field("missing `fingerprint`".into()))?;
        if *fp != fingerprint_json(&config) {
            return Err(RestoreError::Fingerprint);
        }
        let opts = v.get("options").ok_or_else(|| jerr("missing `options`"))?;
        let options = OnlineOptions {
            lag: opts.req_usize("lag")?,
            hold: opts.req_usize("hold")?,
            // Absent in pre-kernel checkpoints: those ran the default
            // (exact, sequential) kernel, so default is the faithful
            // reading, not just a lenient one.
            kernel: match opts.get("kernel") {
                None | Some(Json::Null) => KernelOptions::default(),
                Some(k) => kernel_options_from(k)?,
            },
        };

        let mut tracker = OnlineTracker::new(config, options);

        let win = &mut tracker.windower;
        let stream = v.get("stream").ok_or_else(|| jerr("missing `stream`"))?;
        win.first_t = opt_f64(stream, "first_t")?;
        win.max_t = stream.req_f64("max_t")?;
        win.prev_push_t = opt_f64(stream, "prev_push_t")?;
        win.next_window = stream.req_usize("next_window")?;
        win.late_dropped = stream.req_usize("late_dropped")?;
        win.pending = req_arr(stream, "pending")?
            .iter()
            .map(TagReport::from_json)
            .collect::<Result<_, _>>()?;

        let pre = v.get("pre").ok_or_else(|| jerr("missing `pre`"))?;
        win.stats = PreprocessStats {
            input_reports: pre.req_usize("input_reports")?,
            input_unsorted: req_bool(pre, "input_unsorted")?,
            duplicates_removed: pre.req_usize("duplicates_removed")?,
            ignored_ports: pre.req_usize("ignored_ports")?,
            windows: pre.req_usize("windows")?,
            empty_windows: pre.req_usize("empty_windows")?,
            single_antenna_windows: pre.req_usize("single_antenna_windows")?,
            spurious_rejected: pre.req_usize("spurious_rejected")?,
            largest_empty_run: pre.req_usize("largest_empty_run")?,
        };
        win.empty_run = pre.req_usize("empty_run")?;
        let pm = req_arr(pre, "prev_measured")?;
        if pm.len() != 2 {
            return Err(jerr("`prev_measured` must have 2 entries").into());
        }
        win.prev_measured = [null_or_f64(&pm[0])?, null_or_f64(&pm[1])?];

        let bridge = v.get("bridge").ok_or_else(|| jerr("missing `bridge`"))?;
        tracker.run_buf =
            req_arr(bridge, "run_buf")?.iter().map(windowed_from).collect::<Result<_, _>>()?;
        tracker.has_kept = req_bool(bridge, "has_kept")?;
        tracker.last_kept_t = bridge.req_f64("last_kept_t")?;
        tracker.prev_kept = match bridge.get("prev_kept") {
            None | Some(Json::Null) => None,
            Some(w) => Some(windowed_from(w)?),
        };
        tracker.gaps_bridged = bridge.req_usize("gaps_bridged")?;
        tracker.largest_gap_bridged_s = bridge.req_f64("largest_gap_bridged_s")?;

        let est = v.get("estimator").ok_or_else(|| jerr("missing `estimator`"))?;
        let sector = match est.get("sector") {
            None | Some(Json::Null) => None,
            Some(s) => {
                Some(sector_from_code(s.as_f64().ok_or_else(|| jerr("non-numeric `sector`"))?)?)
            }
        };
        let snap = AzimuthSnapshot {
            azimuth: opt_f64(est, "azimuth")?,
            sector,
            accumulated_error: est.req_f64("accumulated_error")?,
            corrections: est.req_usize("corrections")?,
        };
        tracker.azimuth_tracker = AzimuthTracker::restore(config.rotation, &snap);
        tracker.offset21 = opt_f64(est, "offset21")?;
        tracker.pos_est = vec2_from(est.get("pos_est").ok_or_else(|| jerr("missing `pos_est`"))?)?;

        tracker.windower.windows =
            req_arr(v, "windows")?.iter().map(windowed_from).collect::<Result<_, _>>()?;
        tracker.steps =
            req_arr(v, "steps")?.iter().map(step_estimate_from).collect::<Result<_, _>>()?;

        let dec = v.get("decoder").ok_or_else(|| jerr("missing `decoder`"))?;
        let frontier = req_arr(dec, "frontier")?
            .iter()
            .map(|p| {
                let pair = p.as_arr().filter(|a| a.len() == 2).ok_or_else(|| {
                    jerr("frontier entries must be [cell, score] pairs")
                })?;
                let c = pair[0].as_f64().ok_or_else(|| jerr("non-numeric frontier cell"))?;
                let s = pair[1].as_f64().ok_or_else(|| jerr("non-numeric frontier score"))?;
                Ok((u32_from(c, "frontier cell")?, s))
            })
            .collect::<Result<Vec<_>, JsonError>>()?;
        let frames = req_arr(dec, "frames")?
            .iter()
            .map(|f| {
                let ids = |key: &str| -> Result<Vec<u32>, JsonError> {
                    req_arr(f, key)?
                        .iter()
                        .map(|c| {
                            let x = c.as_f64().ok_or_else(|| jerr(format!("non-numeric {key}")))?;
                            u32_from(x, key)
                        })
                        .collect()
                };
                let cells = ids("cells")?;
                let prevs = ids("prevs")?;
                if cells.len() != prevs.len() {
                    return Err(jerr("frame cells/prevs length mismatch"));
                }
                Ok(BeamFrame { cells, prevs })
            })
            .collect::<Result<Vec<_>, JsonError>>()?;
        let committed =
            req_arr(dec, "committed")?.iter().map(vec2_from).collect::<Result<Vec<_>, _>>()?;
        let stats = decode_stats_from(dec.get("stats").ok_or_else(|| jerr("missing `stats`"))?)?;
        let grid = Grid::covering(config.board_min, config.board_max, config.hmm.cell_m);

        // The decoder trusts its cell ids (they index straight into
        // the grid on backtrack), so a hostile checkpoint must not be
        // able to smuggle out-of-range ones past restore.
        let n_cells = grid.len() as u32;
        if frontier.is_empty() {
            return Err(RestoreError::Field("decoder frontier must not be empty".into()));
        }
        let cells_in_grid = |cells: &[u32]| cells.iter().all(|&c| c < n_cells);
        if !cells_in_grid(&frontier.iter().map(|&(c, _)| c).collect::<Vec<_>>()) {
            return Err(RestoreError::Field("frontier cell outside the rig's grid".into()));
        }
        for f in &frames {
            if !cells_in_grid(&f.cells) || !cells_in_grid(&f.prevs) {
                return Err(RestoreError::Field("frame cell outside the rig's grid".into()));
            }
        }

        tracker.decoder = FixedLagDecoder::from_parts(
            grid,
            config.antennas,
            config.hmm,
            DEFAULT_BEAM_WIDTH,
            options.lag,
            frontier,
            frames,
            committed,
            stats,
        );
        tracker.decoder.set_kernel(options.kernel);
        Ok(tracker)
    }

    /// [`restore`](Self::restore) from a JSON string.
    pub fn restore_from_str(
        config: PolarDrawConfig,
        text: &str,
    ) -> Result<OnlineTracker, RestoreError> {
        OnlineTracker::restore(config, &Json::parse(text).map_err(RestoreError::Parse)?)
    }
}

impl rfid_sim::session::ReportSink for OnlineTracker {
    fn accept(&mut self, report: &TagReport) {
        self.push(*report);
    }
}

fn delta(prev: Option<f64>, cur: Option<f64>) -> Option<f64> {
    match (prev, cur) {
        (Some(a), Some(b)) => Some(b - a),
        _ => None,
    }
}

fn delta_phase(prev: Option<f64>, cur: Option<f64>) -> Option<f64> {
    match (prev, cur) {
        (Some(a), Some(b)) => Some(phase_diff(b, a)),
        _ => None,
    }
}

// ----------------------------------------------------------------------
// JSON helpers (checkpoint plumbing).
// ----------------------------------------------------------------------

/// Writes one canonical JSON object into a buffer. Keys must be given
/// in byte order — the order `Json::Obj`'s `BTreeMap` writes them in —
/// so the text matches the tree writer's.
struct ObjWriter<'a> {
    out: &'a mut String,
    first: bool,
}

impl<'a> ObjWriter<'a> {
    fn open(out: &'a mut String) -> ObjWriter<'a> {
        out.push('{');
        ObjWriter { out, first: true }
    }

    /// Write `"key":` and hand back the buffer for its value.
    fn key(&mut self, key: &str) -> &mut String {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        write_escaped(key, self.out);
        self.out.push(':');
        self.out
    }

    fn num(&mut self, key: &str, x: f64) {
        write_number(x, self.key(key));
    }

    fn count(&mut self, key: &str, n: usize) {
        write_usize(n, self.key(key));
    }

    fn opt(&mut self, key: &str, x: Option<f64>) {
        write_opt(x, self.key(key));
    }

    fn flag(&mut self, key: &str, b: bool) {
        write_bool(b, self.key(key));
    }

    fn text(&mut self, key: &str, s: &str) {
        write_escaped(s, self.key(key));
    }

    fn null(&mut self, key: &str) {
        self.key(key).push_str("null");
    }

    fn close(self) {
        self.out.push('}');
    }
}

/// A JSON array of `items`, each written by `write`.
fn write_arr<T>(
    items: impl IntoIterator<Item = T>,
    out: &mut String,
    write: impl Fn(T, &mut String),
) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write(item, out);
    }
    out.push(']');
}

fn write_usize(n: usize, out: &mut String) {
    // Numbers are f64 in the format: `usize::MAX` writes as 2^64.
    write_number(n as f64, out);
}

fn write_opt(x: Option<f64>, out: &mut String) {
    match x {
        Some(x) => write_number(x, out),
        None => out.push_str("null"),
    }
}

fn write_bool(b: bool, out: &mut String) {
    out.push_str(if b { "true" } else { "false" });
}

fn write_vec2(p: Vec2, out: &mut String) {
    write_arr([p.x, p.y], out, write_number);
}

fn write_frame(f: &BeamFrame, out: &mut String) {
    let mut o = ObjWriter::open(out);
    write_u32_array(&f.cells, o.key("cells"));
    write_u32_array(&f.prevs, o.key("prevs"));
    o.close();
}

/// Checkpoint text a tracker keeps between seals: every item that can
/// no longer change, formatted once. Windows, steps and committed
/// points are append-only; a retained lag frame is immutable until a
/// commit drops it from the front. Everything else is live state and is
/// written fresh by every call. Only `write_checkpoint` (so only a seal)
/// fills the cache — `push`, decoder steps and `checkpoint_string`
/// never touch it — and it is not logical state: a restored or
/// migrated tracker starts empty.
#[derive(Debug, Default)]
struct SealCache {
    windows: HistoryText,
    steps: HistoryText,
    committed: HistoryText,
    frames: FrameRing,
    /// Length of the last checkpoint written (a buffer size hint).
    last_len: usize,
    /// Bytes formatted afresh over every checkpoint written.
    formatted: u64,
}

impl SealCache {
    /// Bring the cached text up to `t`'s state; returns the bytes this
    /// formatted.
    fn sync(&mut self, t: &OnlineTracker) -> usize {
        self.windows.extend(&t.windower.windows, write_windowed)
            + self.steps.extend(&t.steps, write_step_estimate)
            + self.committed.extend(t.decoder.committed(), |&p, out| write_vec2(p, out))
            + self.frames.sync(&t.decoder)
    }
}

/// The text of the first `items` entries of an append-only history
/// array, each entry preceded by a comma.
#[derive(Debug, Default)]
struct HistoryText {
    text: String,
    items: usize,
}

impl HistoryText {
    /// Format the entries of `all` past the cached prefix; returns the
    /// bytes formatted.
    fn extend<T>(&mut self, all: &[T], write: impl Fn(&T, &mut String)) -> usize {
        debug_assert!(all.len() >= self.items, "a history never shrinks within one tracker");
        let before = self.text.len();
        for item in &all[self.items..] {
            self.text.push(',');
            write(item, &mut self.text);
        }
        self.items = all.len();
        self.text.len() - before
    }
}

/// The text of a decoder's retained frames, oldest first, in one
/// buffer: entry `k` (a comma, then the frame) is the frame the
/// decoder pushed as absolute step `first_step + k`, where step `n` is
/// the frame that brought `stats.steps` to `n + 1`. The oldest retained
/// frame is step `stats.steps − retained`; commits, from a step or a
/// lag shrink, only ever drop frames from the front, so this index only
/// grows, and the ring pops whatever fell below it.
#[derive(Debug, Default)]
struct FrameRing {
    text: String,
    lens: VecDeque<usize>,
    first_step: usize,
}

impl FrameRing {
    /// Drop the committed frames, format the new ones; returns the
    /// bytes formatted.
    fn sync(&mut self, decoder: &FixedLagDecoder) -> usize {
        // Wrapping arithmetic keeps the keys consistent even for a
        // restored decoder whose step counter is below its frame count.
        let first = decoder.stats().steps.wrapping_sub(decoder.retained());
        let dropped = first.wrapping_sub(self.first_step);
        if dropped > self.lens.len() {
            // An empty ring, or every cached frame was committed.
            self.text.clear();
            self.lens.clear();
        } else {
            let bytes: usize = self.lens.drain(..dropped).sum();
            self.text.drain(..bytes);
        }
        self.first_step = first;
        let before = self.text.len();
        for frame in decoder.frames().skip(self.lens.len()) {
            let at = self.text.len();
            self.text.push(',');
            write_frame(frame, &mut self.text);
            self.lens.push_back(self.text.len() - at);
        }
        self.text.len() - before
    }
}

/// Write a cache's comma-led entries `,a,b,…` as the array `[a,b,…]`;
/// returns the bytes copied.
fn write_cached_array(entries: &str, out: &mut String) -> usize {
    let body = entries.get(1..).unwrap_or("");
    out.push('[');
    out.push_str(body);
    out.push(']');
    body.len()
}

fn jerr(message: impl Into<String>) -> JsonError {
    JsonError { message: message.into(), offset: 0 }
}

fn usize_json(x: usize) -> Json {
    // `usize::MAX as f64` rounds to 2^64, which casts back saturating
    // to `usize::MAX` — the sentinel survives the round trip.
    Json::num(x as f64)
}

/// A count. `2^64` reads back as `usize::MAX`, the sentinel
/// `write_usize` writes for an unbounded lag or hold.
fn usize_from(x: f64, what: &str) -> Result<usize, JsonError> {
    Ok(whole_number(x, usize::MAX as f64, what)? as usize)
}

fn u32_from(x: f64, what: &str) -> Result<u32, JsonError> {
    Ok(whole_number(x, u32::MAX as f64, what)? as u32)
}

fn req_u64(v: &Json, key: &str) -> Result<u64, JsonError> {
    Ok(whole_number(v.req_f64(key)?, u64::MAX as f64, key)? as u64)
}

fn req_bool(v: &Json, key: &str) -> Result<bool, JsonError> {
    v.get(key)
        .and_then(Json::as_bool)
        .ok_or_else(|| jerr(format!("missing or non-bool field `{key}`")))
}

fn req_arr<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], JsonError> {
    v.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| jerr(format!("missing or non-array field `{key}`")))
}

fn null_or_f64(v: &Json) -> Result<Option<f64>, JsonError> {
    match v {
        Json::Null => Ok(None),
        Json::Num(x) => Ok(Some(*x)),
        _ => Err(jerr("expected number or null")),
    }
}

fn opt_f64(v: &Json, key: &str) -> Result<Option<f64>, JsonError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(x) => null_or_f64(x),
    }
}

fn vec2_json(p: Vec2) -> Json {
    Json::Arr(vec![Json::num(p.x), Json::num(p.y)])
}

fn vec2_from(v: &Json) -> Result<Vec2, JsonError> {
    let a = v.as_arr().filter(|a| a.len() == 2).ok_or_else(|| jerr("expected [x, y]"))?;
    let x = a[0].as_f64().ok_or_else(|| jerr("non-numeric x"))?;
    let y = a[1].as_f64().ok_or_else(|| jerr("non-numeric y"))?;
    Ok(Vec2::new(x, y))
}

/// Canonical rig-identity document embedded in every checkpoint (and
/// CRC'd into v2 envelopes by [`crate::durability::rig_crc`]).
pub(crate) fn fingerprint_json(cfg: &PolarDrawConfig) -> Json {
    Json::obj([
        ("window_s", Json::num(cfg.preprocess.window_s)),
        ("spurious_threshold_rad", Json::num(SPURIOUS_THRESHOLD_RAD)),
        ("cell_m", Json::num(cfg.hmm.cell_m)),
        ("wavelength_m", Json::num(cfg.hmm.wavelength_m)),
        (
            "board",
            Json::Arr(vec![
                Json::num(cfg.board_min.x),
                Json::num(cfg.board_min.y),
                Json::num(cfg.board_max.x),
                Json::num(cfg.board_max.y),
            ]),
        ),
        ("start", vec2_json(cfg.start_hint)),
        (
            "antennas",
            Json::arr(cfg.antennas, |a| {
                Json::Arr(vec![Json::num(a.x), Json::num(a.y), Json::num(a.z)])
            }),
        ),
        ("gap_bridge_min_windows", usize_json(GAP_BRIDGE_MIN_WINDOWS)),
        ("use_polarization", Json::Bool(cfg.use_polarization)),
        ("movement_rss_threshold_db", Json::num(MOVEMENT_RSS_THRESHOLD_DB)),
    ])
}

fn sector_code(s: Sector) -> f64 {
    match s {
        Sector::One => 1.0,
        Sector::Two => 2.0,
        Sector::Three => 3.0,
    }
}

fn sector_from_code(code: f64) -> Result<Sector, JsonError> {
    match u32_from(code, "sector") {
        Ok(1) => Ok(Sector::One),
        Ok(2) => Ok(Sector::Two),
        Ok(3) => Ok(Sector::Three),
        _ => Err(jerr(format!("bad sector code {code}"))),
    }
}

fn rotation_code(r: Rotation) -> &'static str {
    match r {
        Rotation::Clockwise => "cw",
        Rotation::CounterClockwise => "ccw",
    }
}

fn rotation_from_code(v: &Json) -> Result<Rotation, JsonError> {
    match v.as_str() {
        Some("cw") => Ok(Rotation::Clockwise),
        Some("ccw") => Ok(Rotation::CounterClockwise),
        other => Err(jerr(format!("bad rotation code {other:?}"))),
    }
}

fn cardinal_code(c: Cardinal) -> &'static str {
    match c {
        Cardinal::Up => "up",
        Cardinal::Down => "down",
        Cardinal::Left => "left",
        Cardinal::Right => "right",
    }
}

fn cardinal_from_code(v: &Json) -> Result<Cardinal, JsonError> {
    match v.as_str() {
        Some("up") => Ok(Cardinal::Up),
        Some("down") => Ok(Cardinal::Down),
        Some("left") => Ok(Cardinal::Left),
        Some("right") => Ok(Cardinal::Right),
        other => Err(jerr(format!("bad cardinal code {other:?}"))),
    }
}

fn write_windowed(w: &Windowed, out: &mut String) {
    let mut o = ObjWriter::open(out);
    o.flag("empty", w.flags.empty);
    write_arr(w.phase, o.key("phase"), write_opt);
    write_arr(w.reads, o.key("reads"), write_usize);
    write_arr(w.rssi, o.key("rssi"), write_opt);
    o.flag("single_antenna", w.flags.single_antenna);
    write_arr(w.flags.spurious, o.key("spurious"), write_bool);
    o.num("t", w.t);
    o.close();
}

fn windowed_from(v: &Json) -> Result<Windowed, JsonError> {
    let pair2 = |key: &str| -> Result<[Option<f64>; 2], JsonError> {
        let a = req_arr(v, key)?;
        if a.len() != 2 {
            return Err(jerr(format!("`{key}` must have 2 entries")));
        }
        Ok([null_or_f64(&a[0])?, null_or_f64(&a[1])?])
    };
    let reads = req_arr(v, "reads")?;
    if reads.len() != 2 {
        return Err(jerr("`reads` must have 2 entries"));
    }
    let spurious = req_arr(v, "spurious")?;
    if spurious.len() != 2 {
        return Err(jerr("`spurious` must have 2 entries"));
    }
    let mut w = Windowed {
        t: v.req_f64("t")?,
        rssi: pair2("rssi")?,
        phase: pair2("phase")?,
        ..Default::default()
    };
    for (i, r) in reads.iter().enumerate() {
        w.reads[i] = usize_from(r.as_f64().ok_or_else(|| jerr("non-numeric reads"))?, "reads")?;
    }
    w.flags.empty = req_bool(v, "empty")?;
    w.flags.single_antenna = req_bool(v, "single_antenna")?;
    for (i, s) in spurious.iter().enumerate() {
        w.flags.spurious[i] = s.as_bool().ok_or_else(|| jerr("non-bool spurious"))?;
    }
    Ok(w)
}

fn write_step_estimate(s: &StepEstimate, out: &mut String) {
    let mut o = ObjWriter::open(out);
    o.opt("alpha_r", s.alpha_r);
    o.opt("azimuth", s.azimuth);
    write_arr([s.bounds.0, s.bounds.1], o.key("bounds"), write_number);
    match s.direction {
        Some(d) => write_vec2(d, o.key("direction")),
        None => o.null("direction"),
    }
    let mut kind = ObjWriter::open(o.key("kind"));
    match s.kind {
        StepKind::Rotational { rotation, sector } => {
            kind.text("k", "rot");
            kind.text("rotation", rotation_code(rotation));
            kind.num("sector", sector_code(sector));
        }
        StepKind::Translational(c) => {
            kind.text("cardinal", cardinal_code(c));
            kind.text("k", "tr");
        }
        StepKind::Still => kind.text("k", "still"),
    }
    kind.close();
    o.num("t", s.t);
    o.close();
}

fn step_estimate_from(v: &Json) -> Result<StepEstimate, JsonError> {
    let kind_v = v.get("kind").ok_or_else(|| jerr("missing `kind`"))?;
    let kind = match kind_v.get("k").and_then(Json::as_str) {
        Some("rot") => StepKind::Rotational {
            rotation: rotation_from_code(
                kind_v.get("rotation").ok_or_else(|| jerr("missing `rotation`"))?,
            )?,
            sector: sector_from_code(kind_v.req_f64("sector")?)?,
        },
        Some("tr") => StepKind::Translational(cardinal_from_code(
            kind_v.get("cardinal").ok_or_else(|| jerr("missing `cardinal`"))?,
        )?),
        Some("still") => StepKind::Still,
        other => return Err(jerr(format!("bad step kind {other:?}"))),
    };
    let direction = match v.get("direction") {
        None | Some(Json::Null) => None,
        Some(d) => Some(vec2_from(d)?),
    };
    let bounds = req_arr(v, "bounds")?;
    if bounds.len() != 2 {
        return Err(jerr("`bounds` must have 2 entries"));
    }
    Ok(StepEstimate {
        t: v.req_f64("t")?,
        kind,
        direction,
        azimuth: opt_f64(v, "azimuth")?,
        alpha_r: opt_f64(v, "alpha_r")?,
        bounds: (
            bounds[0].as_f64().ok_or_else(|| jerr("non-numeric bound"))?,
            bounds[1].as_f64().ok_or_else(|| jerr("non-numeric bound"))?,
        ),
    })
}

fn write_decode_stats(s: &DecodeStats, out: &mut String) {
    let mut o = ObjWriter::open(out);
    o.count("adaptive_shrunk_steps", s.adaptive_shrunk_steps);
    o.count("carried_steps", s.carried_steps);
    o.num("expansions", s.expansions as f64);
    o.count("max_frontier", s.max_frontier);
    o.num("pruned_beam", s.pruned_beam as f64);
    o.num("pruned_below_min", s.pruned_below_min as f64);
    o.count("steps", s.steps);
    o.num("total_frontier", s.total_frontier as f64);
    o.num("touched_cells", s.touched_cells as f64);
    o.close();
}

fn decode_stats_from(v: &Json) -> Result<DecodeStats, JsonError> {
    Ok(DecodeStats {
        steps: v.req_usize("steps")?,
        carried_steps: v.req_usize("carried_steps")?,
        expansions: req_u64(v, "expansions")?,
        pruned_below_min: req_u64(v, "pruned_below_min")?,
        pruned_beam: req_u64(v, "pruned_beam")?,
        touched_cells: req_u64(v, "touched_cells")?,
        max_frontier: v.req_usize("max_frontier")?,
        total_frontier: req_u64(v, "total_frontier")?,
        // Absent in pre-kernel checkpoints (written before the adaptive
        // beam existed, which implies it never shrank a step).
        adaptive_shrunk_steps: match v.get("adaptive_shrunk_steps") {
            None | Some(Json::Null) => 0,
            Some(n) => usize_from(
                n.as_f64().ok_or_else(|| jerr("non-numeric `adaptive_shrunk_steps`"))?,
                "adaptive_shrunk_steps",
            )?,
        },
    })
}

fn write_kernel_options(k: &KernelOptions, out: &mut String) {
    let mut o = ObjWriter::open(out);
    match &k.adaptive {
        Some(a) => {
            let mut adaptive = ObjWriter::open(o.key("adaptive"));
            adaptive.num("margin", a.margin);
            adaptive.count("min_keep", a.min_keep);
            adaptive.close();
        }
        None => o.null("adaptive"),
    }
    o.text(
        "precision",
        match k.precision {
            KernelPrecision::F64Exact => "f64",
            KernelPrecision::F32Tolerance => "f32",
        },
    );
    // A v1/v2 format constant: the decode step is single-threaded.
    o.count("threads", 1);
    o.close();
}

/// Ceiling on a restored kernel's `threads`, kept as format
/// validation: the decode step no longer reads the field, but v1/v2
/// envelopes carry it, and a document above the ceiling stays the typed
/// field error it always was, so the set of envelopes that open does
/// not change.
const MAX_RESTORED_KERNEL_THREADS: usize = 64;

fn kernel_options_from(v: &Json) -> Result<KernelOptions, JsonError> {
    let precision = match v.get("precision").and_then(Json::as_str) {
        Some("f64") => KernelPrecision::F64Exact,
        Some("f32") => KernelPrecision::F32Tolerance,
        other => return Err(jerr(format!("bad kernel precision {other:?}"))),
    };
    let adaptive = match v.get("adaptive") {
        None | Some(Json::Null) => None,
        Some(a) => Some(AdaptiveBeam {
            margin: a.req_f64("margin")?,
            min_keep: a.req_usize("min_keep")?,
        }),
    };
    let threads = v.req_usize("threads")?;
    if threads > MAX_RESTORED_KERNEL_THREADS {
        return Err(jerr(format!(
            "kernel `threads` {threads} above the ceiling of {MAX_RESTORED_KERNEL_THREADS}"
        )));
    }
    Ok(KernelOptions { precision, adaptive })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PolarDraw;

    fn report(t: f64, antenna: usize, rssi: f64, phase: f64) -> TagReport {
        TagReport {
            t,
            antenna,
            rssi_dbm: rssi,
            phase_rad: rf_core::wrap_tau(phase),
            channel: 24,
            epc: 1,
        }
    }

    /// Same synthetic stream the pipeline tests use: pen moving straight
    /// down at constant speed.
    fn downward_stream(n_windows: usize) -> Vec<TagReport> {
        let mut out = Vec::new();
        let lambda = 0.3276;
        let speed = 0.06;
        for i in 0..n_windows * 5 {
            let t = i as f64 * 0.01;
            let ant = i % 2;
            let phase = 4.0 * std::f64::consts::PI * speed * t / lambda + 1.0;
            out.push(report(t, ant, -40.0, phase));
        }
        out
    }

    fn assert_trails_bitwise_equal(a: &Trail, b: &Trail) {
        assert_eq!(a.times.len(), b.times.len());
        for (x, y) in a.times.iter().zip(&b.times) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(a.points.len(), b.points.len());
        for (p, q) in a.points.iter().zip(&b.points) {
            assert!(p.x.to_bits() == q.x.to_bits() && p.y.to_bits() == q.y.to_bits());
        }
    }

    #[test]
    fn streaming_with_generous_lag_matches_batch_bitwise() {
        let cfg = PolarDrawConfig::default();
        let stream = downward_stream(30);
        let batch = PolarDraw::new(cfg).track_with_diagnostics(&stream);
        let mut online = OnlineTracker::new(cfg, OnlineOptions { lag: usize::MAX, hold: 2, ..OnlineOptions::default() });
        for &r in &stream {
            online.push(r);
        }
        assert_eq!(online.late_reports_dropped(), 0);
        let out = online.finalize();
        assert_trails_bitwise_equal(&out.trail, &batch.trail);
        assert_eq!(out.steps, batch.steps);
        assert_eq!(out.windows, batch.windows);
        assert_eq!(out.degradation, batch.degradation);
        assert_eq!(out.decode_stats, batch.decode_stats);
    }

    #[test]
    fn finite_lag_commits_while_streaming() {
        let cfg = PolarDrawConfig::default();
        let stream = downward_stream(40);
        let mut online = OnlineTracker::new(cfg, OnlineOptions { lag: 5, hold: 1, ..OnlineOptions::default() });
        let mut saw_commit_mid_stream = false;
        for &r in &stream {
            online.push(r);
            if !online.committed().is_empty() {
                saw_commit_mid_stream = true;
            }
        }
        assert!(saw_commit_mid_stream, "a 5-step lag must commit before the stream ends");
        let committed = online.committed().len();
        let out = online.finalize();
        assert!(out.trail.len() >= committed);
        assert!(out.trail.points.iter().all(|p| p.x.is_finite() && p.y.is_finite()));
    }

    #[test]
    fn checkpoint_round_trips_through_json_text() {
        let cfg = PolarDrawConfig::default();
        let stream = downward_stream(20);
        let mut online = OnlineTracker::new(cfg, OnlineOptions { lag: 8, hold: 1, ..OnlineOptions::default() });
        for &r in &stream[..70] {
            online.push(r);
        }
        let text = online.checkpoint_string();
        let restored = OnlineTracker::restore_from_str(cfg, &text).expect("restore");
        // The restored tracker checkpoints to the identical document.
        assert_eq!(restored.checkpoint_string(), text);
        // And a mismatched config is refused.
        let mut other = cfg;
        other.hmm.wavelength_m = 0.4;
        assert!(OnlineTracker::restore_from_str(other, &text).is_err());
    }

    #[test]
    fn empty_stream_finalizes_to_empty_output() {
        let out = OnlineTracker::batch(PolarDrawConfig::default()).finalize();
        assert!(out.trail.is_empty());
        assert!(out.steps.is_empty());
        assert!(out.windows.is_empty());
        assert!(!out.degradation.is_degraded());
    }

    #[test]
    fn late_reports_are_dropped_and_counted_in_streaming_mode() {
        let cfg = PolarDrawConfig::default();
        let mut online = OnlineTracker::new(cfg, OnlineOptions { lag: 8, hold: 1, ..OnlineOptions::default() });
        for &r in &downward_stream(20) {
            online.push(r);
        }
        assert!(online.windows_so_far().len() > 2, "head must have advanced");
        // 0.01 s is many windows behind the closed frontier by now.
        online.push(report(0.01, 0, -40.0, 1.0));
        assert_eq!(online.late_reports_dropped(), 1);
    }
}

