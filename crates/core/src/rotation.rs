//! Continuous azimuthal-angle tracking (§3.3.1, Eqs. 2–4) with
//! sector-boundary correction.
//!
//! When rotation dominates a timestep, PolarDraw:
//!
//! 1. classifies the sector and rotation sense from the two antennas'
//!    RSS trends (Table 3, [`crate::model::classify_rss_trend`]);
//! 2. on the *first* rotational step, seeds the azimuth from the sector
//!    entry boundary (Eq. 2);
//! 3. advances the azimuth by a fixed Δβ per window while both antennas
//!    see a strong trend (Eqs. 3–4);
//! 4. whenever the classified sector changes, snaps the azimuth to the
//!    shared boundary and remembers the accumulated discrepancy — the
//!    initial-azimuth error α̃a used by the Fig. 10 correction and the
//!    Eq. 10 final rotation.

use crate::model::{classify_rss_trend, initial_azimuth, Rotation, Sector};

/// Tuning for the azimuth tracker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RotationConfig {
    /// Antenna mounting angle γ, radians (paper: 15° in the end-to-end
    /// experiments).
    pub gamma_rad: f64,
}

impl Default for RotationConfig {
    fn default() -> Self {
        RotationConfig { gamma_rad: 15f64.to_radians() }
    }
}

/// Per-window azimuth step Δβ, radians (paper: 6°).
pub const DELTA_BETA_RAD: f64 = 6f64.to_radians();

/// RSS-trend threshold δ for applying Δβ, dB (paper: 1.5 dBm).
pub const STEP_THRESHOLD_DB: f64 = 1.5;

/// Minimum |ΔRSS| on *both* antennas for the Table 3 signs to be
/// trusted at all, dB. Below this, the weaker antenna's trend sign is
/// measurement noise and classifying would flip the rotation sense at
/// random.
pub const SIGN_CONFIDENCE_DB: f64 = 0.8;

/// One rotational update produced by the tracker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RotationStep {
    /// Tracked azimuth αa after this step, radians.
    pub azimuth: f64,
    /// Rotation sense this step.
    pub rotation: Rotation,
    /// Sector this step.
    pub sector: Sector,
    /// Correction applied at a boundary crossing this step, radians
    /// (`azimuth_estimated − boundary`); 0 when no crossing.
    pub boundary_correction: f64,
}

/// Stateful azimuth tracker.
#[derive(Debug, Clone, PartialEq)]
pub struct AzimuthTracker {
    config: RotationConfig,
    state: Option<TrackState>,
    /// Sum of boundary corrections observed so far — an estimate of the
    /// initial azimuth error α̃a.
    accumulated_error: f64,
    corrections: usize,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct TrackState {
    azimuth: f64,
    sector: Sector,
}

/// The complete logical state of an [`AzimuthTracker`], exposed so the
/// online engine can checkpoint and restore a tracker mid-stream
/// bit-for-bit (the tracker's fields stay private; this is the only
/// door in or out).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AzimuthSnapshot {
    /// Tracked azimuth, radians, if the tracker is initialized.
    pub azimuth: Option<f64>,
    /// Current sector, if the tracker is initialized.
    pub sector: Option<Sector>,
    /// Sum of boundary corrections observed so far.
    pub accumulated_error: f64,
    /// Number of boundary corrections observed so far.
    pub corrections: usize,
}

impl AzimuthTracker {
    /// New tracker with the given configuration.
    pub fn new(config: RotationConfig) -> AzimuthTracker {
        AzimuthTracker { config, state: None, accumulated_error: 0.0, corrections: 0 }
    }

    /// Capture the tracker's logical state for checkpointing.
    pub fn snapshot(&self) -> AzimuthSnapshot {
        AzimuthSnapshot {
            azimuth: self.state.map(|s| s.azimuth),
            sector: self.state.map(|s| s.sector),
            accumulated_error: self.accumulated_error,
            corrections: self.corrections,
        }
    }

    /// Rebuild a tracker from a [`snapshot`](Self::snapshot); the result
    /// continues exactly where the snapshotted tracker left off.
    pub fn restore(config: RotationConfig, snap: &AzimuthSnapshot) -> AzimuthTracker {
        let state = match (snap.azimuth, snap.sector) {
            (Some(azimuth), Some(sector)) => Some(TrackState { azimuth, sector }),
            _ => None,
        };
        AzimuthTracker {
            config,
            state,
            accumulated_error: snap.accumulated_error,
            corrections: snap.corrections,
        }
    }

    /// Whether the tracker has been seeded by a first rotational step.
    pub fn is_initialized(&self) -> bool {
        self.state.is_some()
    }

    /// Current azimuth estimate, if initialized.
    pub fn azimuth(&self) -> Option<f64> {
        self.state.map(|s| s.azimuth)
    }

    /// Estimated initial azimuth error α̃a: the mean of the boundary
    /// corrections seen so far (0 until the first crossing).
    pub fn initial_error_estimate(&self) -> f64 {
        if self.corrections == 0 {
            0.0
        } else {
            self.accumulated_error / self.corrections as f64
        }
    }

    /// Feed one rotational window's RSS deltas. Returns the azimuth
    /// update, or `None` when Table 3 cannot classify the trends (or
    /// either trend is too weak for its sign to be trustworthy).
    pub fn step(&mut self, ds1: f64, ds2: f64) -> Option<RotationStep> {
        if ds1.abs() < SIGN_CONFIDENCE_DB || ds2.abs() < SIGN_CONFIDENCE_DB {
            return None;
        }
        let (sector, rotation) = classify_rss_trend(ds1, ds2)?;
        let g = self.config.gamma_rad;

        let mut correction = 0.0;
        let azimuth = match self.state {
            None => initial_azimuth(sector, rotation, g),
            Some(prev) => {
                // Eq. 4: advance only when both antennas show a strong
                // trend.
                let strong = ds1.abs() > STEP_THRESHOLD_DB && ds2.abs() > STEP_THRESHOLD_DB;
                let delta = if strong { DELTA_BETA_RAD } else { 0.0 };
                // Eq. 3.
                let stepped = match rotation {
                    Rotation::Clockwise => prev.azimuth - delta,
                    Rotation::CounterClockwise => prev.azimuth + delta,
                };
                if sector != prev.sector {
                    // Crossing: the true azimuth is (approximately) the
                    // shared boundary. Snap, and book the discrepancy as
                    // initial-error evidence (§3.3.1 "Initial azimuthal
                    // angle correction").
                    if let Some(boundary) = Sector::boundary_between(prev.sector, sector, g) {
                        correction = stepped - boundary;
                        self.accumulated_error += correction;
                        self.corrections += 1;
                        boundary
                    } else {
                        // Non-adjacent jump (classification glitch):
                        // re-seed from Eq. 2 rather than trusting it.
                        initial_azimuth(sector, rotation, g)
                    }
                } else {
                    // Clamp inside the physical writing range.
                    stepped.clamp(g * 0.5, std::f64::consts::PI - g * 0.5)
                }
            }
        };

        self.state = Some(TrackState { azimuth, sector });
        Some(RotationStep { azimuth, rotation, sector, boundary_correction: correction })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rf_core::deg_to_rad;
    use std::f64::consts::FRAC_PI_2;

    fn tracker() -> AzimuthTracker {
        AzimuthTracker::new(RotationConfig::default())
    }

    /// dB-domain RSS model for synthetic trends (matches the physics:
    /// round-trip RSS ∝ 40·log10|cos β|).
    fn rss_db(alpha: f64, pol: f64) -> f64 {
        40.0 * (alpha - pol).cos().abs().max(1e-9).log10()
    }

    fn deltas(from: f64, to: f64, gamma: f64) -> (f64, f64) {
        let pol1 = FRAC_PI_2 + gamma;
        let pol2 = FRAC_PI_2 - gamma;
        (rss_db(to, pol1) - rss_db(from, pol1), rss_db(to, pol2) - rss_db(from, pol2))
    }

    #[test]
    fn first_step_seeds_from_eq2() {
        let mut t = tracker();
        assert!(!t.is_initialized());
        // Clockwise in sector 2 (α ≈ 90° moving down): Eq. 2 seeds at
        // π/2 + γ.
        let (ds1, ds2) = deltas(deg_to_rad(95.0), deg_to_rad(80.0), deg_to_rad(15.0));
        let step = t.step(ds1, ds2).unwrap();
        assert_eq!(step.sector, Sector::Two);
        assert_eq!(step.rotation, Rotation::Clockwise);
        assert!((step.azimuth - (FRAC_PI_2 + deg_to_rad(15.0))).abs() < 1e-12);
        assert!(t.is_initialized());
    }

    #[test]
    fn strong_trends_advance_by_delta_beta() {
        // Strong trends on *both* antennas only occur when both mismatch
        // angles are large — deep in sector 1 (or 3), where both β's
        // exceed ~35°. That is exactly where the paper's Δβ advance
        // fires.
        let mut t = tracker();
        let gamma = deg_to_rad(15.0);
        // Seed: clockwise deep in sector 1 (150° → 142°).
        let (ds1, ds2) = deltas(deg_to_rad(150.0), deg_to_rad(142.0), gamma);
        assert!(ds1.abs() > 1.5 && ds2.abs() > 1.5, "seed ds1 {ds1} ds2 {ds2}");
        let a0 = t.step(ds1, ds2).unwrap().azimuth;
        // Another strong clockwise window, still in sector 1.
        let (ds1, ds2) = deltas(deg_to_rad(142.0), deg_to_rad(134.0), gamma);
        assert!(ds1.abs() > 1.5 && ds2.abs() > 1.5, "ds1 {ds1} ds2 {ds2}");
        let a1 = t.step(ds1, ds2).unwrap().azimuth;
        assert!((a0 - a1 - deg_to_rad(6.0)).abs() < 1e-9, "Δβ step of 6°");
    }

    #[test]
    fn weak_trends_hold_the_azimuth() {
        let mut t = tracker();
        let gamma = deg_to_rad(15.0);
        let (ds1, ds2) = deltas(deg_to_rad(100.0), deg_to_rad(85.0), gamma);
        let a0 = t.step(ds1, ds2).unwrap().azimuth;
        // A moderate clockwise turn in sector 1: confident signs, but
        // antenna 1's trend is below the Δβ gate (0.8 ≤ |Δs1| < 1.5).
        let (ds1, ds2) = deltas(deg_to_rad(140.0), deg_to_rad(135.0), gamma);
        assert!(ds1.abs() >= 0.8 && ds1.abs() < 1.5, "ds1 {ds1}");
        let a1 = t.step(ds1, ds2).unwrap().azimuth;
        assert_eq!(a0, a1, "Eq. 4: Δβ = 0 under weak trends");

        // Right at the 1.5 dB gate, in sector 2 (clockwise): 1.51 dB on
        // both antennas advances by Δβ, 1.49 dB holds.
        let mut t = tracker();
        let a0 = t.step(-1.51, 1.51).unwrap().azimuth;
        let a1 = t.step(-1.51, 1.51).unwrap().azimuth;
        assert!((a0 - a1 - deg_to_rad(6.0)).abs() < 1e-9, "1.51 dB clears the gate");
        let a2 = t.step(-1.49, 1.49).unwrap().azimuth;
        assert_eq!(a1, a2, "1.49 dB stays under the gate");
    }

    #[test]
    fn unconfident_signs_are_not_classified() {
        let mut t = tracker();
        // Both trends below the sign-confidence floor: noise, not data.
        assert!(t.step(0.5, -0.6).is_none());
        assert!(!t.is_initialized());
        // Right at the 0.8 dB floor: 0.796 dB is noise, 0.804 dB is a
        // trend.
        assert!(t.step(-0.796, 0.796).is_none());
        assert!(!t.is_initialized());
        assert!(t.step(-0.804, 0.804).is_some());
    }

    #[test]
    fn boundary_crossing_snaps_and_records_error() {
        let gamma = deg_to_rad(15.0);
        let mut t = tracker();
        // Seed clockwise in sector 1 (both up, antenna 2 faster).
        let (ds1, ds2) = deltas(deg_to_rad(132.0), deg_to_rad(124.0), gamma);
        let s0 = t.step(ds1, ds2).unwrap();
        assert_eq!(s0.sector, Sector::One);
        // Keep rotating clockwise until the trends flip to sector 2
        // signature (s1 down, s2 up).
        let (ds1, ds2) = deltas(deg_to_rad(100.0), deg_to_rad(85.0), gamma);
        let s1 = t.step(ds1, ds2).unwrap();
        assert_eq!(s1.sector, Sector::Two);
        assert!((s1.azimuth - (FRAC_PI_2 + gamma)).abs() < 1e-12, "snapped to boundary");
        assert_ne!(s1.boundary_correction, 0.0);
        assert!(t.initial_error_estimate() != 0.0);
    }

    #[test]
    fn unclassifiable_trends_return_none_and_keep_state() {
        let mut t = tracker();
        let gamma = deg_to_rad(15.0);
        let (ds1, ds2) = deltas(deg_to_rad(100.0), deg_to_rad(85.0), gamma);
        let a0 = t.step(ds1, ds2).unwrap().azimuth;
        assert!(t.step(0.9, 0.9).is_none(), "balanced same-sign trends");
        assert_eq!(t.azimuth(), Some(a0));
    }

    #[test]
    fn azimuth_stays_in_writing_range_under_long_rotation() {
        let mut t = tracker();
        let gamma = deg_to_rad(15.0);
        // Hammer it with strong clockwise sector-3 trends.
        let (ds1, ds2) = deltas(deg_to_rad(50.0), deg_to_rad(44.0), gamma);
        for _ in 0..50 {
            t.step(ds1, ds2);
        }
        let a = t.azimuth().unwrap();
        assert!(a > 0.0 && a < std::f64::consts::PI);
    }

    #[test]
    fn snapshot_restore_round_trips_mid_track() {
        let gamma = deg_to_rad(15.0);
        let mut t = tracker();
        let (ds1, ds2) = deltas(deg_to_rad(132.0), deg_to_rad(124.0), gamma);
        t.step(ds1, ds2).unwrap();
        let snap = t.snapshot();
        let mut r = AzimuthTracker::restore(RotationConfig::default(), &snap);
        assert_eq!(r, t);
        // Both trackers must evolve identically from here.
        let (ds1, ds2) = deltas(deg_to_rad(100.0), deg_to_rad(85.0), gamma);
        assert_eq!(t.step(ds1, ds2), r.step(ds1, ds2));
        assert_eq!(t.initial_error_estimate(), r.initial_error_estimate());
        // An uninitialized tracker snapshots to an empty state.
        let empty = tracker().snapshot();
        assert_eq!(empty.azimuth, None);
        assert!(!AzimuthTracker::restore(RotationConfig::default(), &empty).is_initialized());
    }

    #[test]
    fn error_estimate_averages_corrections() {
        let mut t = tracker();
        assert_eq!(t.initial_error_estimate(), 0.0);
        t.accumulated_error = 0.3;
        t.corrections = 2;
        assert!((t.initial_error_estimate() - 0.15).abs() < 1e-12);
    }
}
