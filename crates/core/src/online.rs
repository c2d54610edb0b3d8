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
//! [`checkpoint`](OnlineTracker::checkpoint) serializes the complete
//! logical state through [`rf_core::json`] (format tag
//! `polardraw.online.checkpoint.v1`): stream conditioning carry,
//! pre-processing census, bridge state, estimator state (azimuth
//! tracker snapshot, phase calibration, dead-reckoned position), all
//! windows/steps produced so far, and the decoder's frontier, retained
//! frames, committed points, and work counters. `f64`s round-trip
//! bit-exactly (shortest round-trip formatting), so a restored session
//! converges to the same trail as an uninterrupted one — asserted at
//! every cut point by `tests/online_equivalence.rs`.

use crate::distance::{directional_displacement, expected_dtheta21, feasible_region};
use crate::durability::RestoreError;
use crate::hmm::{
    rotate_trajectory, AdaptiveBeam, BeamFrame, DecodeStats, FixedLagDecoder, Grid,
    KernelOptions, KernelPrecision, StepObservation, DEFAULT_BEAM_WIDTH,
};
use crate::model::{direction_from_azimuth, rotation_angle, Cardinal, Rotation, Sector};
use crate::pipeline::{DegradationReport, PolarDrawConfig, StepEstimate, StepKind, TrackOutput};
use crate::preprocess::{PreprocessStats, Windowed, Windower};
use crate::rotation::{AzimuthSnapshot, AzimuthTracker};
use rf_core::angle::phase_diff;
use rf_core::json::{FromJson, ToJson};
use rf_core::{wrap_pi, Json, JsonError, Vec2};
use rfid_sim::tracking::Trail;
use rfid_sim::TagReport;

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
        // windows — glyph-scale, far beyond where the beam's survivor
        // paths merge in practice; hold 2 tolerates LLRP reorderings of
        // up to a full window without stalling commits.
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
        let min_run = self.config.gap_bridge_min_windows.max(1);
        let mut s = 0;
        while s < self.run_buf.len() {
            let remaining = self.run_buf.len() - s;
            if remaining >= min_run && self.has_kept {
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
        let dt = (cur.t - prev.t).max(1e-6);

        let ds = [delta(prev.rssi[0], cur.rssi[0]), delta(prev.rssi[1], cur.rssi[1])];
        let dth = [
            delta_phase(prev.phase[0], cur.phase[0]),
            delta_phase(prev.phase[1], cur.phase[1]),
        ];

        let region = feasible_region(dth, dt, &cfg.distance);

        // Movement-type detection (§3.3): RSS trend above δ ⇒
        // rotational (only meaningful with polarization enabled).
        let max_ds = ds.iter().flatten().map(|d| d.abs()).fold(0.0, f64::max);
        let rotational = cfg.use_polarization && max_ds > cfg.movement_rss_threshold_db;

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
            match (dth[0], dth[1]) {
                (Some(d1), Some(d2)) => {
                    match crate::translation::estimate_translation(
                        [d1, d2],
                        cfg.antennas,
                        self.pos_est,
                        &cfg.translation,
                    ) {
                        Some(tr) => {
                            let dir = if cfg.refine_translation {
                                tr.direction
                            } else {
                                tr.cardinal.unit()
                            };
                            (
                                StepKind::Translational(tr.cardinal),
                                Some(dir),
                                self.azimuth_tracker.azimuth(),
                                None,
                            )
                        }
                        None => (StepKind::Still, None, self.azimuth_tracker.azimuth(), None),
                    }
                }
                _ => (StepKind::Still, None, self.azimuth_tracker.azimuth(), None),
            }
        };

        // Calibrated inter-antenna phase difference at the current
        // window.
        let dtheta21 = match (cur.phase[0], cur.phase[1]) {
            (Some(p1), Some(p2)) => {
                let raw = wrap_pi(p2 - p1);
                let off = *self.offset21.get_or_insert_with(|| {
                    raw - expected_dtheta21(cfg.start_hint, cfg.antennas, cfg.distance.wavelength_m)
                });
                Some(wrap_pi(raw - off))
            }
            _ => None,
        };

        // Displacement along the estimated direction (Fig. 12(b)×(c)
        // intersection); plain lower bound when direction is unknown.
        let target_dist = match direction {
            Some(dir) => {
                directional_displacement(dth, cfg.antennas, self.pos_est, dir, &cfg.distance)
                    .min(region.max_dist)
            }
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
            raw_error.clamp(-cfg.max_rotation_correction_rad, cfg.max_rotation_correction_rad);
        if cfg.apply_rotation_correction && initial_azimuth_error != 0.0 {
            points = rotate_trajectory(&points, initial_azimuth_error);
        }

        let times: Vec<f64> = self.steps.iter().map(|s| s.t).take(points.len()).collect();
        if cfg.smooth_output {
            points = crate::smoother::smooth(&times, &points, &cfg.smoother);
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

    /// Serialize the complete logical state to a JSON value. See the
    /// module docs for the format.
    pub fn checkpoint(&self) -> Json {
        let cfg = &self.config;
        let snap = self.azimuth_tracker.snapshot();
        let win = &self.windower;
        let pre = &win.stats;
        Json::obj([
            ("format", Json::str(Self::CHECKPOINT_FORMAT)),
            ("fingerprint", fingerprint_json(cfg)),
            (
                "options",
                Json::obj([
                    ("lag", usize_json(self.options.lag)),
                    ("hold", usize_json(self.options.hold)),
                    ("kernel", kernel_options_json(&self.options.kernel)),
                ]),
            ),
            (
                "stream",
                Json::obj([
                    ("first_t", win.first_t.to_json()),
                    ("max_t", Json::num(win.max_t)),
                    ("prev_push_t", win.prev_push_t.to_json()),
                    ("next_window", usize_json(win.next_window)),
                    ("late_dropped", usize_json(win.late_dropped)),
                    ("pending", Json::arr(win.pending.iter(), |r| r.to_json())),
                ]),
            ),
            (
                "pre",
                Json::obj([
                    ("input_reports", usize_json(pre.input_reports)),
                    ("input_unsorted", Json::Bool(pre.input_unsorted)),
                    ("duplicates_removed", usize_json(pre.duplicates_removed)),
                    ("ignored_ports", usize_json(pre.ignored_ports)),
                    ("windows", usize_json(pre.windows)),
                    ("empty_windows", usize_json(pre.empty_windows)),
                    ("single_antenna_windows", usize_json(pre.single_antenna_windows)),
                    ("spurious_rejected", usize_json(pre.spurious_rejected)),
                    ("largest_empty_run", usize_json(pre.largest_empty_run)),
                    ("empty_run", usize_json(win.empty_run)),
                    ("prev_measured", Json::arr(win.prev_measured, |p| p.to_json())),
                ]),
            ),
            (
                "bridge",
                Json::obj([
                    ("run_buf", Json::arr(self.run_buf.iter(), windowed_json)),
                    ("has_kept", Json::Bool(self.has_kept)),
                    ("last_kept_t", Json::num(self.last_kept_t)),
                    (
                        "prev_kept",
                        match &self.prev_kept {
                            Some(w) => windowed_json(w),
                            None => Json::Null,
                        },
                    ),
                    ("gaps_bridged", usize_json(self.gaps_bridged)),
                    ("largest_gap_bridged_s", Json::num(self.largest_gap_bridged_s)),
                ]),
            ),
            (
                "estimator",
                Json::obj([
                    ("azimuth", snap.azimuth.to_json()),
                    ("sector", snap.sector.map(sector_code).to_json()),
                    ("accumulated_error", Json::num(snap.accumulated_error)),
                    ("corrections", usize_json(snap.corrections)),
                    ("offset21", self.offset21.to_json()),
                    ("pos_est", vec2_json(self.pos_est)),
                ]),
            ),
            ("windows", Json::arr(win.windows.iter(), windowed_json)),
            ("steps", Json::arr(self.steps.iter(), step_estimate_json)),
            (
                "decoder",
                Json::obj([
                    (
                        "frontier",
                        Json::arr(self.decoder.frontier().iter(), |&(c, s)| {
                            Json::Arr(vec![Json::num(c as f64), Json::num(s)])
                        }),
                    ),
                    (
                        "frames",
                        Json::arr(self.decoder.frames(), |f| {
                            Json::obj([
                                (
                                    "cells",
                                    Json::arr(f.cells.iter(), |&c| Json::num(c as f64)),
                                ),
                                (
                                    "prevs",
                                    Json::arr(f.prevs.iter(), |&c| Json::num(c as f64)),
                                ),
                            ])
                        }),
                    ),
                    ("committed", Json::arr(self.decoder.committed().iter(), |&p| vec2_json(p))),
                    ("stats", decode_stats_json(&self.decoder.stats())),
                ]),
            ),
        ])
    }

    /// [`checkpoint`](Self::checkpoint) as a compact JSON string.
    pub fn checkpoint_string(&self) -> String {
        self.checkpoint().to_json_string()
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
            lag: req_usize(opts, "lag")?,
            hold: req_usize(opts, "hold")?,
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
        win.next_window = req_usize(stream, "next_window")?;
        win.late_dropped = req_usize(stream, "late_dropped")?;
        win.pending = req_arr(stream, "pending")?
            .iter()
            .map(TagReport::from_json)
            .collect::<Result<_, _>>()?;

        let pre = v.get("pre").ok_or_else(|| jerr("missing `pre`"))?;
        win.stats = PreprocessStats {
            input_reports: req_usize(pre, "input_reports")?,
            input_unsorted: req_bool(pre, "input_unsorted")?,
            duplicates_removed: req_usize(pre, "duplicates_removed")?,
            ignored_ports: req_usize(pre, "ignored_ports")?,
            windows: req_usize(pre, "windows")?,
            empty_windows: req_usize(pre, "empty_windows")?,
            single_antenna_windows: req_usize(pre, "single_antenna_windows")?,
            spurious_rejected: req_usize(pre, "spurious_rejected")?,
            largest_empty_run: req_usize(pre, "largest_empty_run")?,
        };
        win.empty_run = req_usize(pre, "empty_run")?;
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
        tracker.gaps_bridged = req_usize(bridge, "gaps_bridged")?;
        tracker.largest_gap_bridged_s = bridge.req_f64("largest_gap_bridged_s")?;

        let est = v.get("estimator").ok_or_else(|| jerr("missing `estimator`"))?;
        let sector = match est.get("sector") {
            None | Some(Json::Null) => None,
            Some(s) => Some(sector_from_code(
                s.as_f64().ok_or_else(|| jerr("non-numeric `sector`"))? as u32,
            )?),
        };
        let snap = AzimuthSnapshot {
            azimuth: opt_f64(est, "azimuth")?,
            sector,
            accumulated_error: est.req_f64("accumulated_error")?,
            corrections: req_usize(est, "corrections")?,
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
                Ok((c as u32, s))
            })
            .collect::<Result<Vec<_>, JsonError>>()?;
        let frames = req_arr(dec, "frames")?
            .iter()
            .map(|f| {
                let cells = req_arr(f, "cells")?
                    .iter()
                    .map(|c| c.as_f64().map(|x| x as u32))
                    .collect::<Option<Vec<_>>>()
                    .ok_or_else(|| jerr("non-numeric frame cell"))?;
                let prevs = req_arr(f, "prevs")?
                    .iter()
                    .map(|c| c.as_f64().map(|x| x as u32))
                    .collect::<Option<Vec<_>>>()
                    .ok_or_else(|| jerr("non-numeric frame prev"))?;
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

fn jerr(message: impl Into<String>) -> JsonError {
    JsonError { message: message.into(), offset: 0 }
}

fn usize_json(x: usize) -> Json {
    // `usize::MAX as f64` rounds to 2^64, which casts back saturating
    // to `usize::MAX` — the sentinel survives the round trip.
    Json::num(x as f64)
}

fn req_usize(v: &Json, key: &str) -> Result<usize, JsonError> {
    Ok(v.req_f64(key)? as usize)
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
        ("spurious_threshold_rad", Json::num(cfg.preprocess.spurious_threshold_rad)),
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
        ("gap_bridge_min_windows", usize_json(cfg.gap_bridge_min_windows)),
        ("use_polarization", Json::Bool(cfg.use_polarization)),
        ("movement_rss_threshold_db", Json::num(cfg.movement_rss_threshold_db)),
    ])
}

fn sector_code(s: Sector) -> f64 {
    match s {
        Sector::One => 1.0,
        Sector::Two => 2.0,
        Sector::Three => 3.0,
    }
}

fn sector_from_code(code: u32) -> Result<Sector, JsonError> {
    match code {
        1 => Ok(Sector::One),
        2 => Ok(Sector::Two),
        3 => Ok(Sector::Three),
        _ => Err(jerr(format!("bad sector code {code}"))),
    }
}

fn rotation_code(r: Rotation) -> Json {
    Json::str(match r {
        Rotation::Clockwise => "cw",
        Rotation::CounterClockwise => "ccw",
    })
}

fn rotation_from_code(v: &Json) -> Result<Rotation, JsonError> {
    match v.as_str() {
        Some("cw") => Ok(Rotation::Clockwise),
        Some("ccw") => Ok(Rotation::CounterClockwise),
        other => Err(jerr(format!("bad rotation code {other:?}"))),
    }
}

fn cardinal_code(c: Cardinal) -> Json {
    Json::str(match c {
        Cardinal::Up => "up",
        Cardinal::Down => "down",
        Cardinal::Left => "left",
        Cardinal::Right => "right",
    })
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

fn windowed_json(w: &Windowed) -> Json {
    Json::obj([
        ("t", Json::num(w.t)),
        ("rssi", Json::arr(w.rssi, |x| x.to_json())),
        ("phase", Json::arr(w.phase, |x| x.to_json())),
        ("reads", Json::arr(w.reads, |n| usize_json(n))),
        ("empty", Json::Bool(w.flags.empty)),
        ("single_antenna", Json::Bool(w.flags.single_antenna)),
        ("spurious", Json::arr(w.flags.spurious, Json::Bool)),
    ])
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
        w.reads[i] = r.as_f64().ok_or_else(|| jerr("non-numeric reads"))? as usize;
    }
    w.flags.empty = req_bool(v, "empty")?;
    w.flags.single_antenna = req_bool(v, "single_antenna")?;
    for (i, s) in spurious.iter().enumerate() {
        w.flags.spurious[i] = s.as_bool().ok_or_else(|| jerr("non-bool spurious"))?;
    }
    Ok(w)
}

fn step_estimate_json(s: &StepEstimate) -> Json {
    let kind = match s.kind {
        StepKind::Rotational { rotation, sector } => Json::obj([
            ("k", Json::str("rot")),
            ("rotation", rotation_code(rotation)),
            ("sector", Json::num(sector_code(sector))),
        ]),
        StepKind::Translational(c) => {
            Json::obj([("k", Json::str("tr")), ("cardinal", cardinal_code(c))])
        }
        StepKind::Still => Json::obj([("k", Json::str("still"))]),
    };
    Json::obj([
        ("t", Json::num(s.t)),
        ("kind", kind),
        (
            "direction",
            match s.direction {
                Some(d) => vec2_json(d),
                None => Json::Null,
            },
        ),
        ("azimuth", s.azimuth.to_json()),
        ("alpha_r", s.alpha_r.to_json()),
        ("bounds", Json::Arr(vec![Json::num(s.bounds.0), Json::num(s.bounds.1)])),
    ])
}

fn step_estimate_from(v: &Json) -> Result<StepEstimate, JsonError> {
    let kind_v = v.get("kind").ok_or_else(|| jerr("missing `kind`"))?;
    let kind = match kind_v.get("k").and_then(Json::as_str) {
        Some("rot") => StepKind::Rotational {
            rotation: rotation_from_code(
                kind_v.get("rotation").ok_or_else(|| jerr("missing `rotation`"))?,
            )?,
            sector: sector_from_code(kind_v.req_f64("sector")? as u32)?,
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

fn decode_stats_json(s: &DecodeStats) -> Json {
    Json::obj([
        ("steps", usize_json(s.steps)),
        ("carried_steps", usize_json(s.carried_steps)),
        ("expansions", Json::num(s.expansions as f64)),
        ("pruned_below_min", Json::num(s.pruned_below_min as f64)),
        ("pruned_beam", Json::num(s.pruned_beam as f64)),
        ("touched_cells", Json::num(s.touched_cells as f64)),
        ("max_frontier", usize_json(s.max_frontier)),
        ("total_frontier", Json::num(s.total_frontier as f64)),
        ("adaptive_shrunk_steps", usize_json(s.adaptive_shrunk_steps)),
    ])
}

fn decode_stats_from(v: &Json) -> Result<DecodeStats, JsonError> {
    Ok(DecodeStats {
        steps: req_usize(v, "steps")?,
        carried_steps: req_usize(v, "carried_steps")?,
        expansions: v.req_f64("expansions")? as u64,
        pruned_below_min: v.req_f64("pruned_below_min")? as u64,
        pruned_beam: v.req_f64("pruned_beam")? as u64,
        touched_cells: v.req_f64("touched_cells")? as u64,
        max_frontier: req_usize(v, "max_frontier")?,
        total_frontier: v.req_f64("total_frontier")? as u64,
        // Absent in pre-kernel checkpoints (written before the adaptive
        // beam existed, which implies it never shrank a step).
        adaptive_shrunk_steps: match v.get("adaptive_shrunk_steps") {
            None | Some(Json::Null) => 0,
            Some(n) => n.as_f64().ok_or_else(|| jerr("non-numeric `adaptive_shrunk_steps`"))?
                as usize,
        },
    })
}

fn kernel_options_json(k: &KernelOptions) -> Json {
    Json::obj([
        (
            "precision",
            Json::str(match k.precision {
                KernelPrecision::F64Exact => "f64",
                KernelPrecision::F32Tolerance => "f32",
            }),
        ),
        // A v1/v2 format constant: the decode step is single-threaded.
        ("threads", usize_json(1)),
        (
            "adaptive",
            match &k.adaptive {
                Some(a) => Json::obj([
                    ("margin", Json::num(a.margin)),
                    ("min_keep", usize_json(a.min_keep)),
                ]),
                None => Json::Null,
            },
        ),
    ])
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
            min_keep: req_usize(a, "min_keep")?,
        }),
    };
    let threads = req_usize(v, "threads")?;
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
        let other = cfg.with_wavelength(0.4);
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
