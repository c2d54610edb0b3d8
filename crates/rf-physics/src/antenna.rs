//! Reader antenna models.
//!
//! PolarDraw replaces the reader's standard circularly-polarized antennas
//! with *linearly*-polarized ones (§1). We model both so the ablation
//! "what if we had kept circular polarization?" is expressible: a
//! circularly-polarized antenna couples to any dipole orientation with a
//! constant −3 dB factor, destroying the orientation information the
//! paper exploits.

use crate::polarization;
use crate::polarization::{JonesVector, PolBasis, PolState};
use rf_core::Vec3;

/// Antenna polarization type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Polarization {
    /// Linear polarization along the given (unit) axis.
    Linear(Vec3),
    /// Circular polarization: orientation-independent −3 dB coupling to a
    /// linear dipole, no usable mismatch-angle information.
    Circular,
    /// Full Jones pattern: an arbitrary [`PolState`] radiated in the
    /// frame anchored to `axis` (the mounted reference direction). This
    /// is the general element the Jones channel propagates;
    /// `Jones { axis, state: Linear { psi_rad: 0 } }` is the same
    /// physics as `Linear(axis)`. The scalar channel handles these
    /// antennas magnitude-only — use `Polarimetry::Jones` for fidelity.
    Jones {
        /// Mounted reference direction the frame's `h` axis projects
        /// from (see [`PolBasis::from_reference`]).
        axis: Vec3,
        /// Radiated polarization state in that frame.
        state: PolState,
    },
}

/// A reader antenna: position, boresight, polarization, and a patch-like
/// gain pattern `G(θ) = G₀·cosⁿθ` clipped to the front hemisphere.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Antenna {
    /// Phase-centre position, metres.
    pub position: Vec3,
    /// Boresight (main-beam) unit direction.
    pub boresight: Vec3,
    /// Polarization.
    pub polarization: Polarization,
    /// Boresight gain, dBi. The Laird antennas used by the paper are
    /// ~6 dBi panels.
    pub gain_dbi: f64,
    /// Pattern exponent `n` in `cosⁿθ`; larger = more directional.
    pub pattern_exponent: f64,
}

impl Antenna {
    /// A linearly-polarized panel antenna typical of the paper's setup.
    pub fn linear(position: Vec3, boresight: Vec3, pol_axis: Vec3) -> Antenna {
        Antenna {
            position,
            boresight,
            polarization: Polarization::Linear(pol_axis),
            gain_dbi: 6.0,
            pattern_exponent: 2.0,
        }
    }

    /// A circularly-polarized panel antenna (stock RFID deployment).
    pub fn circular(position: Vec3, boresight: Vec3) -> Antenna {
        Antenna {
            position,
            boresight,
            polarization: Polarization::Circular,
            gain_dbi: 6.0,
            pattern_exponent: 2.0,
        }
    }

    /// A panel radiating an arbitrary [`PolState`] in the frame anchored
    /// to `axis` — the generalized element for the Jones channel.
    pub fn with_state(position: Vec3, boresight: Vec3, axis: Vec3, state: PolState) -> Antenna {
        Antenna {
            position,
            boresight,
            polarization: Polarization::Jones { axis, state },
            gain_dbi: 6.0,
            pattern_exponent: 2.0,
        }
    }

    /// Polarization coupling factor toward a dipole tag (signed, in
    /// `[−1, 1]`): `ê·u` for linear polarization, `1/√2` (−3 dB in
    /// power) independent of orientation for circular. For a `Jones`
    /// pattern this is the complex coupling collapsed for the scalar
    /// channel: the exact signed value for linear states (whose
    /// coupling is purely real) and the magnitude otherwise — phase
    /// structure needs the Jones channel.
    pub fn polarization_coupling(&self, tag_pos: Vec3, dipole: Vec3) -> f64 {
        match self.polarization {
            Polarization::Linear(axis) => {
                polarization::coupling(self.position, axis, tag_pos, dipole)
            }
            Polarization::Circular => std::f64::consts::FRAC_1_SQRT_2,
            Polarization::Jones { .. } => {
                let Some(dir) = (tag_pos - self.position).normalized() else { return 0.0 };
                let Some((basis, jv)) = self.jones_along(dir) else { return 0.0 };
                let Some(u) = dipole.normalized() else { return 0.0 };
                let c = jv.couple(&basis, u);
                if c.im == 0.0 {
                    c.re
                } else {
                    c.abs()
                }
            }
        }
    }

    /// Polarization mismatch angle β toward a dipole (radians, `[0, π/2]`).
    /// For circular polarization there is no mismatch concept; returns 0.
    /// For a `Jones` pattern: `arccos |⟨E, u⊥̂⟩|` with the normalized
    /// transverse dipole — the RSS-visible mismatch of the state.
    pub fn mismatch_angle(&self, tag_pos: Vec3, dipole: Vec3) -> f64 {
        match self.polarization {
            Polarization::Linear(axis) => {
                polarization::mismatch_angle(self.position, axis, tag_pos, dipole)
            }
            Polarization::Circular => 0.0,
            Polarization::Jones { .. } => {
                let half_pi = std::f64::consts::FRAC_PI_2;
                let Some(dir) = (tag_pos - self.position).normalized() else { return half_pi };
                let Some((basis, jv)) = self.jones_along(dir) else { return half_pi };
                let Some(u_t) = dipole.reject_from(dir).normalized() else { return half_pi };
                jv.couple(&basis, u_t).abs().clamp(0.0, 1.0).acos()
            }
        }
    }

    /// The polarization frame and radiated Jones vector along unit
    /// direction `dir` — the antenna as a Jones pattern. `None` when the
    /// frame degenerates (reference axis parallel to the ray).
    ///
    /// Linear antennas radiate `(1, 0)` in the frame anchored to their
    /// axis, so `couple` reduces bitwise to the scalar `ê·u`; circular
    /// antennas radiate right-hand circular in a deterministic frame.
    pub fn jones_along(&self, dir: Vec3) -> Option<(PolBasis, JonesVector)> {
        match self.polarization {
            Polarization::Linear(axis) => {
                Some((PolBasis::from_reference(axis, dir)?, JonesVector::H))
            }
            Polarization::Circular => Some((
                PolBasis::any(dir),
                PolState::Circular { right_handed: true }.jones(),
            )),
            Polarization::Jones { axis, state } => {
                Some((PolBasis::from_reference(axis, dir)?, state.jones()))
            }
        }
    }

    /// The polarization axis for linear antennas; `None` for circular
    /// and general Jones patterns.
    pub fn linear_axis(&self) -> Option<Vec3> {
        match self.polarization {
            Polarization::Linear(a) => Some(a),
            Polarization::Circular | Polarization::Jones { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn downward_panel() -> Antenna {
        Antenna::linear(Vec3::new(0.0, 0.0, 2.0), -Vec3::Z, Vec3::X)
    }

    #[test]
    fn linear_coupling_depends_on_orientation_circular_does_not() {
        let lin = downward_panel();
        let circ = Antenna::circular(Vec3::new(0.0, 0.0, 2.0), -Vec3::Z);
        let aligned = lin.polarization_coupling(Vec3::ZERO, Vec3::X).abs();
        let crossed = lin.polarization_coupling(Vec3::ZERO, Vec3::Y).abs();
        assert!(aligned > 0.99 && crossed < 1e-9);
        let c1 = circ.polarization_coupling(Vec3::ZERO, Vec3::X);
        let c2 = circ.polarization_coupling(Vec3::ZERO, Vec3::Y);
        assert!((c1 - c2).abs() < 1e-12, "circular is orientation-blind");
        assert!((c1 * c1 - 0.5).abs() < 1e-12, "−3 dB coupling");
    }

    #[test]
    fn mismatch_angle_zero_for_circular() {
        let circ = Antenna::circular(Vec3::new(0.0, 0.0, 2.0), -Vec3::Z);
        assert_eq!(circ.mismatch_angle(Vec3::ZERO, Vec3::Y), 0.0);
    }

    #[test]
    fn linear_axis_accessor() {
        assert_eq!(downward_panel().linear_axis(), Some(Vec3::X));
        assert_eq!(Antenna::circular(Vec3::ZERO, Vec3::Z).linear_axis(), None);
        let jones = Antenna::with_state(
            Vec3::ZERO,
            Vec3::Z,
            Vec3::X,
            PolState::Linear { psi_rad: 0.0 },
        );
        assert_eq!(jones.linear_axis(), None);
    }

    #[test]
    fn jones_linear_zero_state_matches_plain_linear() {
        // Polarization::Jones with a ψ=0 linear state is the same
        // physics as Polarization::Linear, through both access paths.
        let lin = downward_panel();
        let jones = Antenna::with_state(
            lin.position,
            lin.boresight,
            Vec3::X,
            PolState::Linear { psi_rad: 0.0 },
        );
        for u in [Vec3::X, Vec3::Y, Vec3::new(0.6, 0.8, 0.0), Vec3::new(0.3, -0.4, 0.5)] {
            let tag = Vec3::new(0.2, -0.1, 0.0);
            assert!(
                (lin.polarization_coupling(tag, u) - jones.polarization_coupling(tag, u)).abs()
                    < 1e-12
            );
            assert!((lin.mismatch_angle(tag, u) - jones.mismatch_angle(tag, u)).abs() < 1e-12);
        }
    }

    #[test]
    fn jones_rotated_linear_state_rotates_the_null() {
        // ψ = 90° moves the coupling null from Y onto X.
        let rotated = Antenna::with_state(
            Vec3::new(0.0, 0.0, 2.0),
            -Vec3::Z,
            Vec3::X,
            PolState::Linear { psi_rad: std::f64::consts::FRAC_PI_2 },
        );
        assert!(rotated.polarization_coupling(Vec3::ZERO, Vec3::X).abs() < 1e-12);
        assert!(rotated.polarization_coupling(Vec3::ZERO, Vec3::Y).abs() > 0.999);
    }

    #[test]
    fn jones_circular_state_is_orientation_blind_at_3db() {
        let circ = Antenna::with_state(
            Vec3::new(0.0, 0.0, 2.0),
            -Vec3::Z,
            Vec3::X,
            PolState::Circular { right_handed: true },
        );
        for deg in [0.0f64, 30.0, 77.0, 145.0] {
            let a = deg.to_radians();
            let u = Vec3::new(a.cos(), a.sin(), 0.0);
            let c = circ.polarization_coupling(Vec3::ZERO, u);
            assert!((c * c - 0.5).abs() < 1e-12, "{deg}° → {c}");
        }
    }
}
