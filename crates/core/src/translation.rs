//! Translational movement direction estimation (§3.3.2).
//!
//! When the RSS is quiet (little rotation), the pen is translating, and
//! the per-antenna phase trends decode a coarse direction (Table 4):
//! both phases falling = moving up (toward both antennas), both rising =
//! down, split = left/right toward whichever antenna's phase falls. The
//! HMM takes that cardinal's unit vector as the step's direction prior.

use crate::model::{classify_phase_trend, Cardinal};
use rf_core::wrap_pi;

/// Ignore per-antenna phase deltas smaller than this, radians (noise
/// floor).
pub const PHASE_THRESHOLD_RAD: f64 = 0.09;

/// Estimate the translational direction for one window step: wrap the
/// per-antenna phase deltas `dth` (radians) to `(−π, π]` and classify
/// their trend (Table 4). `None` when both stay under
/// [`PHASE_THRESHOLD_RAD`].
pub fn estimate_translation(dth: [f64; 2]) -> Option<Cardinal> {
    classify_phase_trend(wrap_pi(dth[0]), wrap_pi(dth[1]), PHASE_THRESHOLD_RAD)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::range_gradient;
    use rf_core::{Vec2, Vec3};

    const LAMBDA: f64 = 0.3276;

    fn rig() -> [Vec3; 2] {
        // Antennas 56 cm apart facing the writing block from 65 cm in
        // front, slightly above it (the Fig. 17 geometry).
        [Vec3::new(-0.28, 0.15, 0.65), Vec3::new(0.28, 0.15, 0.65)]
    }

    /// Phase deltas a motion `v` (metres over the window) produces at
    /// the rig: Δθ_j = 4π/λ · (g_j · v).
    fn phase_for_motion(from: Vec2, v: Vec2) -> [f64; 2] {
        let k = 4.0 * std::f64::consts::PI / LAMBDA;
        let rig = rig();
        let mut out = [0.0; 2];
        for j in 0..2 {
            let g = range_gradient(rig[j], from);
            out[j] = k * g.dot(v);
        }
        out
    }

    #[test]
    fn cardinal_decoding_matches_table4_at_the_rig() {
        // Slightly off the perpendicular bisector: exactly on it,
        // horizontal motion changes both ranges only to second order
        // and produces no measurable phase trend.
        let from = Vec2::new(0.15, 0.5);
        // 6 mm per window ≈ 0.12 m/s, a brisk but legal writing speed;
        // the raised noise threshold needs this much signal.
        let cases = [
            (Vec2::new(0.0, -0.006), Cardinal::Up),
            (Vec2::new(0.0, 0.006), Cardinal::Down),
            (Vec2::new(-0.006, 0.0), Cardinal::Left),
            (Vec2::new(0.006, 0.0), Cardinal::Right),
        ];
        for (v, expect) in cases {
            let dth = phase_for_motion(from, v);
            assert_eq!(estimate_translation(dth), Some(expect), "motion {v:?}");
        }
    }

    #[test]
    fn still_pen_is_none() {
        assert!(estimate_translation([0.01, -0.01]).is_none());
    }

    #[test]
    fn wrapping_is_applied_to_inputs() {
        let tau = std::f64::consts::TAU;
        // Deltas near ±2π are actually small motions.
        let cardinal = estimate_translation([tau - 0.3, tau - 0.3]);
        assert_eq!(cardinal, Some(Cardinal::Up), "2π − 0.3 wraps to −0.3");
    }
}
