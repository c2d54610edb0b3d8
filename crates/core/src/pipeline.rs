//! The end-to-end PolarDraw tracker (Fig. 5's workflow).
//!
//! Wires pre-processing → movement-type detection → direction estimation
//! (rotational via polarization, translational via phase trends) →
//! distance bounds → HMM Viterbi decoding → trajectory rotation
//! correction, and exposes it all as a [`rfid_sim::TrajectoryTracker`].

use crate::hmm::{DecodeStats, HmmConfig};
use crate::model::{Cardinal, Rotation, Sector};
use crate::preprocess::{PreprocessConfig, PreprocessStats, Windowed};
use crate::rotation::RotationConfig;
use rf_core::{Vec2, Vec3};
use rfid_sim::tracking::{Trail, TrajectoryTracker};
use rfid_sim::TagReport;

/// Complete tracker configuration. Defaults reproduce the paper's
/// published parameter choices (§3, §5.4). The tuning values no caller
/// varies are constants next to the code that reads them: the Eq. 11
/// weights in [`crate::hmm`], v_max and the noise margin in
/// [`crate::distance`], Δβ and the RSS gates in [`crate::rotation`],
/// the Table 4 noise floor in [`crate::translation`], the spurious
/// threshold in [`crate::preprocess`], the smoother tuning in
/// [`crate::smoother`], and δ, the Eq. 10 clamp and the gap-bridge run
/// length in [`crate::online`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolarDrawConfig {
    /// Pre-processing window length (paper: 50 ms).
    pub preprocess: PreprocessConfig,
    /// Antenna mounting angle γ.
    pub rotation: RotationConfig,
    /// HMM cell size and the carrier wavelength λ — the one λ every
    /// stage uses.
    pub hmm: HmmConfig,
    /// Assumed constant pen elevation αe, radians (paper: 30°; Table 7
    /// shows insensitivity).
    pub alpha_e_rad: f64,
    /// Antenna positions, metres (board frame; the writing plane is
    /// z = 0 and the antennas stand off it).
    pub antennas: [Vec3; 2],
    /// Board region the HMM covers: minimum corner.
    pub board_min: Vec2,
    /// Board region: maximum corner.
    pub board_max: Vec2,
    /// Bootstrap position (the paper picks an arbitrary hyperbola
    /// point; evaluation is translation-invariant).
    pub start_hint: Vec2,
    /// `false` reproduces the Table 6 ablation: no polarization-based
    /// rotation estimation, direction from coarse phase trends only.
    pub use_polarization: bool,
    /// Apply the Eq. 10 final rotation correction, clamped to
    /// [`crate::online::MAX_ROTATION_CORRECTION_RAD`].
    pub apply_rotation_correction: bool,
    /// Apply the constant-velocity Kalman/RTS smoother to the decoded
    /// trail (the paper's declared future work, §3.5 footnote 5).
    pub smooth_output: bool,
}

impl Default for PolarDrawConfig {
    fn default() -> Self {
        PolarDrawConfig {
            preprocess: PreprocessConfig::default(),
            rotation: RotationConfig::default(),
            hmm: HmmConfig::default(),
            alpha_e_rad: 30f64.to_radians(),
            antennas: [Vec3::new(-0.28, 0.15, 0.65), Vec3::new(0.28, 0.15, 0.65)],
            board_min: Vec2::new(-0.45, 0.35),
            board_max: Vec2::new(0.75, 1.1),
            start_hint: Vec2::new(-0.2, 0.7),
            use_polarization: true,
            apply_rotation_correction: true,
            smooth_output: true,
        }
    }
}

impl PolarDrawConfig {
    /// Set the antenna mounting angle γ everywhere it matters.
    pub fn with_gamma(mut self, gamma_rad: f64) -> Self {
        self.rotation.gamma_rad = gamma_rad;
        self
    }
}

/// What kind of movement a step was classified as.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StepKind {
    /// RSS trend dominated: rotational movement (§3.3.1).
    Rotational {
        /// Rotation sense.
        rotation: Rotation,
        /// Sector the azimuth was classified into.
        sector: Sector,
    },
    /// Phase trend dominated: translational movement (§3.3.2).
    Translational(Cardinal),
    /// Nothing moved measurably.
    Still,
}

/// Per-step diagnostic record (consumed by the Fig. 9/10 experiments).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepEstimate {
    /// End-of-step window time, seconds.
    pub t: f64,
    /// Movement classification.
    pub kind: StepKind,
    /// Unit direction estimate, if any.
    pub direction: Option<Vec2>,
    /// Tracked azimuth αa after this step, if rotation tracking is
    /// initialized, radians.
    pub azimuth: Option<f64>,
    /// Pen rotation angle αr from Eq. 1 at the assumed αe, if azimuth is
    /// tracked, radians.
    pub alpha_r: Option<f64>,
    /// Feasible displacement bounds `(min, max)`, metres.
    pub bounds: (f64, f64),
}

/// The PolarDraw tracker.
#[derive(Debug, Clone)]
pub struct PolarDraw {
    /// Configuration (public: experiments sweep parameters directly).
    pub config: PolarDrawConfig,
    /// Decode kernel for the batch decode (private: set through
    /// [`PolarDraw::with_kernel`], defaults to the exact f64 path).
    kernel: crate::hmm::KernelOptions,
}

/// How degraded the input stream was and what the pipeline did about
/// it — carried on every [`TrackOutput`] so callers can tell a clean
/// track from one that survived faults, instead of silently getting
/// garbage.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DegradationReport {
    /// Reports in the raw input stream.
    pub input_reports: usize,
    /// The stream arrived out of timestamp order and was sorted.
    pub input_unsorted: bool,
    /// Exact duplicate reports removed.
    pub duplicates_removed: usize,
    /// Total pre-processing windows.
    pub windows: usize,
    /// Windows with no reads at all (total outage).
    pub empty_windows: usize,
    /// Windows where only one antenna read (port outage signature).
    pub single_antenna_windows: usize,
    /// Phases struck by the spurious-rejection screen.
    pub spurious_rejected: usize,
    /// Interior empty-window runs coalesced into one bridged step.
    pub gaps_bridged: usize,
    /// Longest time span handed to the decoder as a single bridged
    /// step, seconds (0 when nothing was bridged).
    pub largest_gap_bridged_s: f64,
    /// Decoder steps whose observation was inconsistent and was carried
    /// through (from [`DecodeStats`]).
    pub carried_steps: usize,
}

impl DegradationReport {
    /// True when the stream needed *any* tolerance beyond the clean
    /// path: sorting, dedup, outage bridging, or missing-antenna spans.
    pub fn is_degraded(&self) -> bool {
        self.input_unsorted
            || self.duplicates_removed > 0
            || self.empty_windows > 0
            || self.single_antenna_windows > 0
            || self.gaps_bridged > 0
    }

    pub(crate) fn from_preprocess(stats: &PreprocessStats) -> DegradationReport {
        DegradationReport {
            input_reports: stats.input_reports,
            input_unsorted: stats.input_unsorted,
            duplicates_removed: stats.duplicates_removed,
            windows: stats.windows,
            empty_windows: stats.empty_windows,
            single_antenna_windows: stats.single_antenna_windows,
            spurious_rejected: stats.spurious_rejected,
            ..DegradationReport::default()
        }
    }
}

/// Everything a tracking run produces beyond the trail itself.
#[derive(Debug, Clone)]
pub struct TrackOutput {
    /// The recovered trail.
    pub trail: Trail,
    /// Per-step diagnostics.
    pub steps: Vec<StepEstimate>,
    /// Pre-processed windows (for the feasibility figures).
    pub windows: Vec<Windowed>,
    /// Estimated initial azimuth error α̃a, radians.
    pub initial_azimuth_error: f64,
    /// Decoder work counters for this run (expansions, pruning, frontier
    /// sizes) — what the decode *did*, complementing wall-time benches.
    pub decode_stats: DecodeStats,
    /// Stream-quality diagnostics: what the pipeline had to tolerate.
    pub degradation: DegradationReport,
}

impl PolarDraw {
    /// Build a tracker (exact f64 decode kernel — the batch-equivalence
    /// default every golden trace pins).
    pub fn new(config: PolarDrawConfig) -> PolarDraw {
        PolarDraw { config, kernel: crate::hmm::KernelOptions::exact() }
    }

    /// Same tracker decoding through `kernel` — e.g.
    /// [`KernelOptions::fast`](crate::hmm::KernelOptions::fast) for the
    /// f32-table + adaptive-beam path. Non-exact kernels trade the
    /// bit-exact batch contract for speed under the tolerance oracle
    /// (`tests/kernel_equivalence.rs`); run-to-run determinism is kept
    /// by every kernel.
    pub fn with_kernel(mut self, kernel: crate::hmm::KernelOptions) -> PolarDraw {
        self.kernel = kernel;
        self
    }

    /// The decode kernel this tracker batches with.
    pub fn kernel(&self) -> crate::hmm::KernelOptions {
        self.kernel
    }

    /// Run the full pipeline, keeping diagnostics.
    ///
    /// Batch mode is a thin wrapper over the streaming engine: an
    /// [`OnlineTracker`](crate::online::OnlineTracker) with infinite
    /// lag and infinite hold, fed the whole stream, then finalized.
    /// `crate::online`'s module docs carry the stage-by-stage
    /// equivalence argument; the decoder-level contract is pinned by
    /// the golden-trace and equivalence test suites.
    pub fn track_with_diagnostics(&self, reports: &[TagReport]) -> TrackOutput {
        let options = crate::online::OnlineOptions::batch().with_kernel(self.kernel);
        let mut online = crate::online::OnlineTracker::new(self.config, options);
        online.extend(reports);
        online.finalize()
    }
}

impl TrajectoryTracker for PolarDraw {
    fn name(&self) -> &str {
        if self.config.use_polarization {
            "PolarDraw (2-antenna)"
        } else {
            "PolarDraw w/o polarization"
        }
    }

    fn antenna_count(&self) -> usize {
        2
    }

    fn track(&self, reports: &[TagReport]) -> Trail {
        self.track_with_diagnostics(reports).trail
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// A synthetic stream: pen moving straight down (away from both
    /// antennas) at constant speed — both phases ramp up, RSS flat.
    fn downward_stream(n_windows: usize) -> Vec<TagReport> {
        let mut out = Vec::new();
        let lambda = 0.3276;
        let speed = 0.06; // m/s
        for i in 0..n_windows * 5 {
            let t = i as f64 * 0.01;
            let ant = i % 2;
            let phase = 4.0 * std::f64::consts::PI * speed * t / lambda + 1.0;
            out.push(report(t, ant, -40.0, phase));
        }
        out
    }

    #[test]
    fn downward_motion_is_classified_translational_down() {
        let pd = PolarDraw::new(PolarDrawConfig::default());
        let out = pd.track_with_diagnostics(&downward_stream(30));
        let downs = out
            .steps
            .iter()
            .filter(|s| matches!(s.kind, StepKind::Translational(Cardinal::Down)))
            .count();
        assert!(
            downs > out.steps.len() / 2,
            "majority of steps must decode Down, got {downs}/{}",
            out.steps.len()
        );
        // And the trail must actually head down (+Y).
        let first = out.trail.points.first().unwrap();
        let last = out.trail.points.last().unwrap();
        // The noise margin shrinks the per-window distance target, so
        // with a constant hyperbola field the synthetic stream descends
        // slowly but steadily.
        assert!(last.y > first.y + 0.008, "trail must descend: {first:?} → {last:?}");
    }

    #[test]
    fn trail_speed_respects_vmax() {
        let pd = PolarDraw::new(PolarDrawConfig::default());
        let out = pd.track_with_diagnostics(&downward_stream(30));
        for w in out.trail.points.windows(2) {
            let d = w[0].distance(w[1]);
            // One window is 50 ms; vmax 0.2 m/s ⇒ ≤ 1 cm (+ cell slack).
            assert!(d <= 0.012 + 0.015, "step {d} exceeds vmax bound");
        }
    }

    #[test]
    fn rss_swing_triggers_rotational_classification() {
        // Alternate windows with a strong RSS swing on both antennas:
        // sector-2-style opposite trends.
        let mut out = Vec::new();
        for i in 0..120 {
            let t = i as f64 * 0.01;
            let ant = i % 2;
            let swing = (t * 10.0).sin() * 5.0;
            let rssi = if ant == 0 { -40.0 - swing } else { -40.0 + swing };
            out.push(report(t, ant, rssi, 1.0));
        }
        let pd = PolarDraw::new(PolarDrawConfig::default());
        let diag = pd.track_with_diagnostics(&out);
        assert!(
            diag.steps.iter().any(|s| matches!(s.kind, StepKind::Rotational { .. })),
            "strong RSS trends must classify as rotational"
        );
    }

    #[test]
    fn no_polarization_mode_never_rotational() {
        let cfg = PolarDrawConfig { use_polarization: false, ..PolarDrawConfig::default() };
        let mut stream = downward_stream(20);
        // Inject big RSS swings that WOULD trigger rotation.
        for (i, r) in stream.iter_mut().enumerate() {
            r.rssi_dbm += ((i / 10) % 2) as f64 * 6.0;
        }
        let pd = PolarDraw::new(cfg);
        let diag = pd.track_with_diagnostics(&stream);
        assert!(diag
            .steps
            .iter()
            .all(|s| !matches!(s.kind, StepKind::Rotational { .. })));
    }

    #[test]
    fn empty_reports_give_empty_trail() {
        let pd = PolarDraw::new(PolarDrawConfig::default());
        let trail = pd.track(&[]);
        assert!(trail.is_empty());
    }

    #[test]
    fn still_tag_stays_near_start() {
        let mut out = Vec::new();
        for i in 0..100 {
            let t = i as f64 * 0.01;
            out.push(report(t, i % 2, -40.0, 1.0));
        }
        let pd = PolarDraw::new(PolarDrawConfig::default());
        let trail = pd.track(&out);
        let start = PolarDrawConfig::default().start_hint;
        for p in &trail.points {
            assert!(p.distance(start) < 0.06, "still tag wandered to {p:?}");
        }
    }

    #[test]
    fn clean_stream_reports_no_degradation() {
        let pd = PolarDraw::new(PolarDrawConfig::default());
        let out = pd.track_with_diagnostics(&downward_stream(30));
        let d = &out.degradation;
        assert!(!d.is_degraded(), "clean synthetic stream flagged degraded: {d:?}");
        assert_eq!(d.gaps_bridged, 0);
        assert_eq!(d.largest_gap_bridged_s, 0.0);
        assert_eq!(d.duplicates_removed, 0);
        assert!(!d.input_unsorted);
    }

    #[test]
    fn total_outage_is_bridged_as_one_widened_step() {
        // 0.5 s of clean reads, a 0.5 s total outage, 0.5 s more reads.
        let mut stream = downward_stream(10); // 0.0 .. 0.5 s
        for r in downward_stream(30) {
            if r.t >= 1.0 {
                stream.push(r); // 1.0 .. 1.5 s
            }
        }
        let cfg = PolarDrawConfig::default();
        let pd = PolarDraw::new(cfg);
        let out = pd.track_with_diagnostics(&stream);
        let d = &out.degradation;
        assert!(d.is_degraded());
        assert_eq!(d.gaps_bridged, 1, "one interior outage: {d:?}");
        assert!(
            (0.4..=0.7).contains(&d.largest_gap_bridged_s),
            "bridged span should cover the ~0.5 s outage, got {}",
            d.largest_gap_bridged_s
        );
        // The bridged gap removes its empty windows from the step chain:
        // every empty window here is interior, so all are coalesced away.
        assert!(d.empty_windows > 0);
        assert_eq!(out.steps.len(), out.windows.len() - 1 - d.empty_windows);
        // The track stays finite and never teleports faster than vmax
        // allows across the bridged step.
        for (w, pts) in out.steps.windows(2).zip(out.trail.points.windows(2)) {
            let dt = w[1].t - w[0].t;
            let dist = pts[0].distance(pts[1]);
            assert!(dist.is_finite());
            assert!(
                dist <= crate::distance::VMAX_MPS * dt + 3.0 * cfg.hmm.cell_m,
                "teleport across bridged step: {dist} m in {dt} s"
            );
        }

        // The run-length boundary: an interior run of 4 empty windows
        // is bridged, a run of 3 is kept window by window.
        for (run, bridged) in [(3, 0), (4, 1)] {
            let carved: Vec<TagReport> = downward_stream(30)
                .into_iter()
                .filter(|r| !(10..10 + run).contains(&((r.t / 0.05).floor() as usize)))
                .collect();
            let d = PolarDraw::new(cfg).track_with_diagnostics(&carved).degradation;
            assert_eq!(d.empty_windows, run, "{d:?}");
            assert_eq!(d.gaps_bridged, bridged, "run of {run}: {d:?}");
        }
    }

    #[test]
    fn unsorted_duplicated_stream_is_tolerated_and_reported() {
        let mut stream = downward_stream(20);
        let dup = stream[7];
        stream.insert(8, dup);
        stream.swap(3, 12);
        let out = PolarDraw::new(PolarDrawConfig::default()).track_with_diagnostics(&stream);
        let d = &out.degradation;
        assert!(d.input_unsorted);
        assert_eq!(d.duplicates_removed, 1);
        assert!(d.is_degraded());
        assert!(out.trail.points.iter().all(|p| p.x.is_finite() && p.y.is_finite()));
    }

    #[test]
    fn tracker_reports_names_and_ports() {
        let pd = PolarDraw::new(PolarDrawConfig::default());
        assert_eq!(pd.antenna_count(), 2);
        assert!(pd.name().contains("PolarDraw"));
        let cfg = PolarDrawConfig { use_polarization: false, ..PolarDrawConfig::default() };
        assert!(PolarDraw::new(cfg).name().contains("w/o"));
    }

    #[test]
    fn config_builders_propagate() {
        let cfg = PolarDrawConfig::default().with_gamma(0.5);
        assert_eq!(cfg.rotation.gamma_rad, 0.5);
    }
}
