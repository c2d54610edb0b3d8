//! Polarization coupling between a reader antenna and a dipole tag:
//! the scalar `ê · u` fast path and the full Jones calculus.
//!
//! A wave propagating along unit vector `k` carries an electric field
//! confined to the plane transverse to `k` (Figure 1 of the paper). For
//! a *linearly* polarized antenna the voltage induced on a dipole of
//! unit orientation `u` is proportional to `ê · u`, where `ê` is the
//! unit field polarization in that transverse plane. When antenna and
//! tag are coplanar and broadside (the whiteboard geometry), this
//! reduces to `cos β` with `β` the polarization mismatch angle — the
//! quantity PolarDraw's rotational estimator inverts.
//!
//! The general case needs two transverse components with independent
//! complex amplitudes: circular and elliptical states, and bounces that
//! mix horizontal/vertical components differently (Fresnel). That is
//! the [`Jones`] layer: a [`PolBasis`] orthonormal frame per ray, a
//! [`JonesVector`] field in that frame, 2×2 [`Jones`] matrices per
//! propagation leg, and [`PolState`] describing an antenna's radiated
//! state. The scalar functions above remain the fast path — for
//! linear-copolarized broadside rigs the two formulations agree to
//! floating-point accuracy (`tests/channel_equivalence.rs`).

use rf_core::{Complex, Vec3};

/// Field polarization of a linearly-polarized antenna as radiated toward
/// direction `k` (unit vector from antenna to observation point): the
/// antenna's polarization axis projected onto the transverse plane and
/// renormalized.
///
/// Returns `None` when `k` is (anti)parallel to the polarization axis —
/// the antenna radiates no co-polarized field in that direction.
pub fn transverse_field(pol_axis: Vec3, k: Vec3) -> Option<Vec3> {
    pol_axis.reject_from(k).normalized()
}

/// Complex-free coupling factor between a linearly-polarized antenna
/// (axis `pol_axis`, at `antenna_pos`) and a dipole tag (axis `dipole`,
/// at `tag_pos`): `ê · u`, in `[−1, 1]`.
///
/// The magnitude is the `cos β` of the paper; the sign flips when the
/// dipole crosses the polarization plane (irrelevant to power, which is
/// `cos² β` per link leg, but kept for field superposition).
///
/// The dot is taken against the *full 3-D unit dipole* rather than its
/// normalized transverse projection, so the dipole's own pattern null
/// (no response along its axis) is captured for free.
pub fn coupling(antenna_pos: Vec3, pol_axis: Vec3, tag_pos: Vec3, dipole: Vec3) -> f64 {
    let k = match (tag_pos - antenna_pos).normalized() {
        Some(k) => k,
        None => return 0.0, // co-located: undefined geometry, no coupling
    };
    let e = match transverse_field(pol_axis, k) {
        Some(e) => e,
        None => return 0.0,
    };
    let u = match dipole.normalized() {
        Some(u) => u,
        None => return 0.0,
    };
    e.dot(u)
}

/// Polarization mismatch angle β in `[0, π/2]` between antenna and tag,
/// as would be measured by the RSS drop: `β = arccos |ê · u⊥̂|`, where
/// `u⊥̂` is the *normalized* transverse dipole component.
///
/// This isolates pure polarization mismatch from the dipole pattern
/// roll-off; use [`coupling`] for link-budget work.
pub fn mismatch_angle(antenna_pos: Vec3, pol_axis: Vec3, tag_pos: Vec3, dipole: Vec3) -> f64 {
    let k = match (tag_pos - antenna_pos).normalized() {
        Some(k) => k,
        None => return std::f64::consts::FRAC_PI_2,
    };
    let e = match transverse_field(pol_axis, k) {
        Some(e) => e,
        None => return std::f64::consts::FRAC_PI_2,
    };
    let u_t = match dipole.reject_from(k).normalized() {
        Some(u) => u,
        None => return std::f64::consts::FRAC_PI_2,
    };
    e.dot(u_t).abs().clamp(0.0, 1.0).acos()
}

/// Rotate a field vector `e` about the propagation axis `k` by the
/// angle whose `(sin, cos)` is given (Rodrigues' formula restricted to
/// the transverse plane). Callers rotating by a fixed angle pass
/// `angle.sin_cos()` computed once.
///
/// Reflections off walls and furniture partially rotate polarization;
/// this is how the multipath module injects cross-polarized energy that
/// survives when the line-of-sight coupling nulls out at β = 90°.
pub fn rotate_about_axis(e: Vec3, k: Vec3, (s, c): (f64, f64)) -> Vec3 {
    e * c + k.cross(e) * s + k * (k.dot(e) * (1.0 - c))
}

/// A right-handed orthonormal polarization frame attached to one ray:
/// `h` ("horizontal") and `v` ("vertical") span the plane transverse to
/// the unit propagation direction `k`, with `h × v = k`.
///
/// Jones vectors and matrices are meaningless without the frame they
/// are expressed in, so every frame is carried explicitly and
/// [`Jones::basis_change`] rotates between two frames sharing a `k`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolBasis {
    /// First transverse axis (the reference the `h` component lives on).
    pub h: Vec3,
    /// Second transverse axis, `v = k × h`.
    pub v: Vec3,
    /// Unit propagation direction.
    pub k: Vec3,
}

impl PolBasis {
    /// The frame whose `h` axis is `reference` projected onto the plane
    /// transverse to `k` (and renormalized) — exactly
    /// [`transverse_field`], so a linear antenna's Jones `h` axis *is*
    /// its scalar field direction. `None` when `reference` is
    /// (anti)parallel to `k`.
    pub fn from_reference(reference: Vec3, k: Vec3) -> Option<PolBasis> {
        let h = transverse_field(reference, k)?;
        Some(PolBasis { h, v: k.cross(h), k })
    }

    /// Any valid frame for `k`, chosen deterministically (reference X,
    /// falling back to Y when `k` is along X). Used where only
    /// rotation-invariant quantities matter, e.g. circular states.
    pub fn any(k: Vec3) -> PolBasis {
        PolBasis::from_reference(Vec3::X, k)
            .or_else(|| PolBasis::from_reference(Vec3::Y, k))
            .expect("X or Y is transverse to any unit direction")
    }
}

/// A transverse field in a [`PolBasis`]: complex amplitudes on the
/// frame's `h` and `v` axes. The physical field phasor is
/// `E = h·ĥ + v·v̂` (a complex 3-vector).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JonesVector {
    /// Complex amplitude on the frame's `h` axis.
    pub h: Complex,
    /// Complex amplitude on the frame's `v` axis.
    pub v: Complex,
}

impl JonesVector {
    /// The unit horizontal state `(1, 0)` — a linear antenna radiating
    /// along its frame's `h` axis.
    pub const H: JonesVector = JonesVector { h: Complex::ONE, v: Complex::ZERO };

    /// Field intensity `|h|² + |v|²` (time-averaged power, up to the
    /// usual impedance constant).
    pub fn intensity(self) -> f64 {
        self.h.norm_sq() + self.v.norm_sq()
    }

    /// Complex voltage coupling onto a dipole of orientation `u`
    /// (3-vector, need not be transverse): `h·(ĥ·u) + v·(v̂·u)`.
    ///
    /// For the `H` state this is exactly the scalar path's `ê · u` —
    /// the reduction the equivalence suite pins.
    pub fn couple(self, basis: &PolBasis, u: Vec3) -> Complex {
        self.h * basis.h.dot(u) + self.v * basis.v.dot(u)
    }

    /// The field phasor as two real 3-vectors `(Re E, Im E)`.
    pub fn field(self, basis: &PolBasis) -> (Vec3, Vec3) {
        (
            basis.h * self.h.re + basis.v * self.v.re,
            basis.h * self.h.im + basis.v * self.v.im,
        )
    }
}

/// A 2×2 complex Jones matrix acting on [`JonesVector`]s:
/// `[h'; v'] = [hh hv; vh vv]·[h; v]`. One matrix per propagation leg
/// (emission frame change, Fresnel bounce, depolarizing scatter);
/// a path's end-to-end response is their ordered product.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Jones {
    /// Row h, column h.
    pub hh: Complex,
    /// Row h, column v.
    pub hv: Complex,
    /// Row v, column h.
    pub vh: Complex,
    /// Row v, column v.
    pub vv: Complex,
}

impl Jones {
    /// The identity leg.
    pub const IDENTITY: Jones = Jones {
        hh: Complex::ONE,
        hv: Complex::ZERO,
        vh: Complex::ZERO,
        vv: Complex::ONE,
    };

    /// A diagonal leg: independent complex gains on `h` and `v` (e.g.
    /// Fresnel `diag(r_s, r_p)` in the s/p frame of a bounce).
    pub fn diag(h: Complex, v: Complex) -> Jones {
        Jones { hh: h, hv: Complex::ZERO, vh: Complex::ZERO, vv: v }
    }

    /// An in-plane rotation of the transverse frame by `angle` radians:
    /// `[cos −sin; sin cos]`. Lossless (unitary).
    pub fn rotation(angle: f64) -> Jones {
        let (s, c) = angle.sin_cos();
        Jones {
            hh: Complex::new(c, 0.0),
            hv: Complex::new(-s, 0.0),
            vh: Complex::new(s, 0.0),
            vv: Complex::new(c, 0.0),
        }
    }

    /// The rotation re-expressing a `from`-frame vector in the `to`
    /// frame. Both frames must share the same propagation direction;
    /// the entries are the real direction cosines between the axes.
    pub fn basis_change(from: &PolBasis, to: &PolBasis) -> Jones {
        Jones {
            hh: Complex::new(to.h.dot(from.h), 0.0),
            hv: Complex::new(to.h.dot(from.v), 0.0),
            vh: Complex::new(to.v.dot(from.h), 0.0),
            vv: Complex::new(to.v.dot(from.v), 0.0),
        }
    }

    /// Apply this leg to a field.
    pub fn apply(self, e: JonesVector) -> JonesVector {
        JonesVector {
            h: self.hh * e.h + self.hv * e.v,
            v: self.vh * e.h + self.vv * e.v,
        }
    }

    /// Matrix product `self · inner`: the leg `inner` happens first.
    pub fn compose(self, inner: Jones) -> Jones {
        Jones {
            hh: self.hh * inner.hh + self.hv * inner.vh,
            hv: self.hh * inner.hv + self.hv * inner.vv,
            vh: self.vh * inner.hh + self.vv * inner.vh,
            vv: self.vh * inner.hv + self.vv * inner.vv,
        }
    }

    /// Conjugate transpose.
    pub fn dagger(self) -> Jones {
        Jones {
            hh: self.hh.conj(),
            hv: self.vh.conj(),
            vh: self.hv.conj(),
            vv: self.vv.conj(),
        }
    }

    /// Whether `J†J = I` within `tol` — the lossless-leg property
    /// (rotations, basis changes, pure phase delays).
    pub fn is_unitary(self, tol: f64) -> bool {
        let g = self.dagger().compose(self);
        (g.hh - Complex::ONE).abs() <= tol
            && g.hv.abs() <= tol
            && g.vh.abs() <= tol
            && (g.vv - Complex::ONE).abs() <= tol
    }
}

impl std::ops::Mul for Jones {
    type Output = Jones;
    fn mul(self, rhs: Jones) -> Jones {
        self.compose(rhs)
    }
}

impl std::ops::Mul<JonesVector> for Jones {
    type Output = JonesVector;
    fn mul(self, rhs: JonesVector) -> JonesVector {
        self.apply(rhs)
    }
}

/// The polarization state an antenna radiates, expressed in its own
/// `(h, v)` frame (see `Antenna::jones_along` for how the frame is
/// anchored to the mounted axis). All states are unit-intensity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolState {
    /// Linear at `psi_rad` from the `h` axis: `(cos ψ, sin ψ)`.
    Linear {
        /// Tilt from the frame's `h` axis, radians.
        psi_rad: f64,
    },
    /// Circular: `(1, ∓i)/√2` — `−i` for right-handed (IEEE convention
    /// with the physics `e^{−jkd}` phasor used by the channel).
    Circular {
        /// Right- vs left-hand sense.
        right_handed: bool,
    },
    /// General elliptical state: orientation `ψ` of the major axis and
    /// ellipticity angle `χ` (`tan χ` = minor/major, sign = sense);
    /// `R(ψ)·(cos χ, i·sin χ)`. `χ = 0` is linear, `χ = ±45°` circular.
    Elliptical {
        /// Major-axis tilt from the frame's `h` axis, radians.
        psi_rad: f64,
        /// Ellipticity angle, radians, in `[−π/4, π/4]`.
        chi_rad: f64,
    },
}

impl PolState {
    /// The state's Jones vector in its frame.
    pub fn jones(self) -> JonesVector {
        match self {
            PolState::Linear { psi_rad } => {
                let (s, c) = psi_rad.sin_cos();
                JonesVector { h: Complex::new(c, 0.0), v: Complex::new(s, 0.0) }
            }
            PolState::Circular { right_handed } => {
                let q = std::f64::consts::FRAC_1_SQRT_2;
                let sign = if right_handed { -1.0 } else { 1.0 };
                JonesVector { h: Complex::new(q, 0.0), v: Complex::new(0.0, sign * q) }
            }
            PolState::Elliptical { psi_rad, chi_rad } => {
                let (s, c) = chi_rad.sin_cos();
                Jones::rotation(psi_rad)
                    .apply(JonesVector { h: Complex::new(c, 0.0), v: Complex::new(0.0, s) })
            }
        }
    }

    /// Short human-readable label ("linear 15°", "circular RH", …).
    pub fn label(self) -> String {
        match self {
            PolState::Linear { psi_rad } => format!("linear {:.0}°", psi_rad.to_degrees()),
            PolState::Circular { right_handed } => {
                format!("circular {}", if right_handed { "RH" } else { "LH" })
            }
            PolState::Elliptical { psi_rad, chi_rad } => format!(
                "elliptical ψ={:.0}° χ={:.0}°",
                psi_rad.to_degrees(),
                chi_rad.to_degrees()
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rf_core::deg_to_rad;
    use std::f64::consts::FRAC_PI_2;

    /// Broadside geometry used throughout: antenna above the origin on
    /// the +Z axis looking down, tag at the origin in the X–Y plane.
    fn broadside() -> (Vec3, Vec3) {
        (Vec3::new(0.0, 0.0, 2.5), Vec3::ZERO)
    }

    #[test]
    fn aligned_coupling_is_unity() {
        let (ant, tag) = broadside();
        let c = coupling(ant, Vec3::X, tag, Vec3::X);
        assert!((c.abs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn orthogonal_coupling_is_zero() {
        let (ant, tag) = broadside();
        let c = coupling(ant, Vec3::X, tag, Vec3::Y);
        assert!(c.abs() < 1e-12);
    }

    #[test]
    fn coupling_follows_cos_beta_in_broadside() {
        // Rotating the tag in the transverse plane must trace cos β —
        // the law behind Figure 3(b).
        let (ant, tag) = broadside();
        for deg in [0.0, 15.0, 30.0, 45.0, 60.0, 75.0, 89.0] {
            let b = deg_to_rad(deg);
            let dipole = Vec3::new(b.cos(), b.sin(), 0.0);
            let c = coupling(ant, Vec3::X, tag, dipole);
            assert!(
                (c - b.cos()).abs() < 1e-12,
                "β = {deg}°: coupling {c} vs cos β {}",
                b.cos()
            );
        }
    }

    #[test]
    fn mismatch_angle_matches_rotation_in_broadside() {
        let (ant, tag) = broadside();
        for deg in [0.0, 10.0, 45.0, 80.0, 90.0] {
            let b = deg_to_rad(deg);
            let dipole = Vec3::new(b.cos(), b.sin(), 0.0);
            let m = mismatch_angle(ant, Vec3::X, tag, dipole);
            assert!((m - b.min(FRAC_PI_2)).abs() < 1e-9, "deg {deg} → {m}");
        }
    }

    #[test]
    fn dipole_along_los_has_no_coupling() {
        // A dipole pointing straight at the antenna is in its own pattern
        // null: no transverse component.
        let (ant, tag) = broadside();
        let c = coupling(ant, Vec3::X, tag, Vec3::Z);
        assert!(c.abs() < 1e-12);
    }

    #[test]
    fn tilted_dipole_couples_through_projection() {
        // Dipole tilted 45° out of the transverse plane, transverse
        // component along X: coupling is cos 45°, not 1.
        let (ant, tag) = broadside();
        let dipole = Vec3::new(1.0, 0.0, 1.0);
        let c = coupling(ant, Vec3::X, tag, dipole);
        assert!((c - FRAC_PI_2.sin() * 0.0f64.cos() / 2f64.sqrt() * 2.0 / 2f64.sqrt()).abs() < 0.3);
        assert!((c - 1.0 / 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn mismatch_angle_ignores_elevation_tilt() {
        // Same tilted dipole: *mismatch angle* normalizes the transverse
        // component, so β = 0 even though coupling < 1.
        let (ant, tag) = broadside();
        let dipole = Vec3::new(1.0, 0.0, 1.0);
        let m = mismatch_angle(ant, Vec3::X, tag, dipole);
        assert!(m < 1e-9);
    }

    #[test]
    fn polarization_axis_parallel_to_los_is_null() {
        let ant = Vec3::new(0.0, 0.0, 2.5);
        // Antenna "polarized" along Z but the tag is straight below: no
        // transverse field at all.
        assert_eq!(transverse_field(Vec3::Z, -Vec3::Z), None);
        let c = coupling(ant, Vec3::Z, Vec3::ZERO, Vec3::X);
        assert_eq!(c, 0.0);
    }

    #[test]
    fn rotate_about_axis_quarter_turn() {
        let e = Vec3::X;
        let r = rotate_about_axis(e, Vec3::Z, FRAC_PI_2.sin_cos());
        assert!((r.x).abs() < 1e-12 && (r.y - 1.0).abs() < 1e-12 && r.z.abs() < 1e-12);
    }

    #[test]
    fn rotation_preserves_norm_and_transversality() {
        let k = Vec3::new(0.0, 0.0, 1.0);
        let e = Vec3::new(0.6, 0.8, 0.0);
        let r = rotate_about_axis(e, k, 1.234f64.sin_cos());
        assert!((r.norm() - 1.0).abs() < 1e-12);
        assert!(r.dot(k).abs() < 1e-12);
    }

    #[test]
    fn off_broadside_geometry_still_bounded() {
        // Oblique geometry: coupling must stay in [−1, 1].
        let ant = Vec3::new(0.3, -0.2, 1.0);
        for i in 0..50 {
            let a = i as f64 * 0.13;
            let dipole = Vec3::new(a.cos(), a.sin(), 0.3).normalized().unwrap();
            let c = coupling(ant, Vec3::new(0.2, 0.98, 0.0), Vec3::new(0.5, 0.3, 0.0), dipole);
            assert!((-1.0..=1.0).contains(&c));
        }
    }

    // ---- Jones-calculus laws -------------------------------------------

    fn close(a: Complex, b: Complex) -> bool {
        (a - b).abs() < 1e-14
    }

    fn jones_close(a: Jones, b: Jones) -> bool {
        close(a.hh, b.hh) && close(a.hv, b.hv) && close(a.vh, b.vh) && close(a.vv, b.vv)
    }

    /// Three dissimilar legs for the algebra tests: a rotation, a lossy
    /// diagonal, and a complex mixer.
    fn sample_legs() -> [Jones; 3] {
        [
            Jones::rotation(0.7),
            Jones::diag(Complex::new(0.4, 0.1), Complex::new(-0.3, 0.8)),
            Jones {
                hh: Complex::new(0.2, -0.5),
                hv: Complex::new(0.9, 0.1),
                vh: Complex::new(-0.4, 0.3),
                vv: Complex::new(0.0, 0.6),
            },
        ]
    }

    #[test]
    fn jones_composition_is_associative() {
        let [a, b, c] = sample_legs();
        assert!(jones_close((a * b) * c, a * (b * c)));
        // …and on vectors: applying the product equals applying in turn.
        let e = PolState::Elliptical { psi_rad: 0.3, chi_rad: 0.2 }.jones();
        let via_product = ((a * b) * c).apply(e);
        let via_steps = a.apply(b.apply(c.apply(e)));
        assert!(close(via_product.h, via_steps.h) && close(via_product.v, via_steps.v));
    }

    #[test]
    fn lossless_legs_are_unitary() {
        // Rotations, pure phase diagonals, and frame changes between two
        // bases sharing a ray: all preserve intensity.
        assert!(Jones::rotation(1.234).is_unitary(1e-12));
        assert!(Jones::diag(Complex::cis(0.4), Complex::cis(-2.2)).is_unitary(1e-12));
        let k = Vec3::new(0.3, -0.4, 0.8661).normalized().unwrap();
        let b1 = PolBasis::from_reference(Vec3::X, k).unwrap();
        let b2 = PolBasis::from_reference(Vec3::new(0.2, 0.9, -0.1), k).unwrap();
        let change = Jones::basis_change(&b1, &b2);
        assert!(change.is_unitary(1e-12));
        // A lossy leg must NOT pass the gate.
        assert!(!Jones::diag(Complex::new(0.5, 0.0), Complex::ONE).is_unitary(1e-6));
        // Unitary legs preserve intensity on every state.
        for state in [
            PolState::Linear { psi_rad: 0.9 },
            PolState::Circular { right_handed: true },
            PolState::Elliptical { psi_rad: -0.5, chi_rad: 0.3 },
        ] {
            let out = change.apply(Jones::rotation(0.77).apply(state.jones()));
            assert!((out.intensity() - 1.0).abs() < 1e-12, "{state:?}");
        }
    }

    #[test]
    fn pol_states_are_unit_intensity() {
        for state in [
            PolState::Linear { psi_rad: 0.0 },
            PolState::Linear { psi_rad: 1.1 },
            PolState::Circular { right_handed: true },
            PolState::Circular { right_handed: false },
            PolState::Elliptical { psi_rad: 0.4, chi_rad: -0.6 },
        ] {
            assert!((state.jones().intensity() - 1.0).abs() < 1e-12, "{state:?}");
        }
    }

    #[test]
    fn elliptical_degenerates_to_linear_and_circular() {
        // χ = 0 → linear at ψ.
        let lin = PolState::Elliptical { psi_rad: 0.8, chi_rad: 0.0 }.jones();
        let want = PolState::Linear { psi_rad: 0.8 }.jones();
        assert!(close(lin.h, want.h) && close(lin.v, want.v));
        // χ = −45° → right-handed circular, up to the R(ψ) phase-free
        // rotation (circular states are rotation-invariant in magnitude
        // *and* acquire only a phase under rotation).
        let circ = PolState::Elliptical { psi_rad: 0.8, chi_rad: -std::f64::consts::FRAC_PI_4 }
            .jones();
        assert!((circ.intensity() - 1.0).abs() < 1e-12);
        assert!((circ.h.norm_sq() - 0.5).abs() < 1e-12);
        assert!((circ.v.norm_sq() - 0.5).abs() < 1e-12);
        // h and v components stay in quadrature.
        let rel = circ.v / circ.h;
        assert!((rel.re).abs() < 1e-12 && (rel.im + 1.0).abs() < 1e-12);
    }

    #[test]
    fn h_state_couples_exactly_like_the_scalar_path() {
        // The reduction the channel-equivalence suite relies on, at the
        // unit level: JonesVector::H in the from_reference frame gives
        // bitwise the scalar coupling.
        let ant = Vec3::new(0.2, -0.1, 1.3);
        let tag = Vec3::new(-0.1, 0.6, 0.0);
        let axis = Vec3::new(0.3, 0.95, 0.0);
        let u = Vec3::new(0.4, 0.8, 0.45).normalized().unwrap();
        let k = (tag - ant).normalized().unwrap();
        let basis = PolBasis::from_reference(axis, k).unwrap();
        let jones = JonesVector::H.couple(&basis, u);
        assert_eq!(jones.re, coupling(ant, axis, tag, u));
        assert_eq!(jones.im, 0.0);
    }

    #[test]
    fn pol_basis_is_right_handed_orthonormal() {
        let k = Vec3::new(-0.5, 0.3, 0.81).normalized().unwrap();
        for basis in [
            PolBasis::from_reference(Vec3::new(0.9, 0.1, 0.2), k).unwrap(),
            PolBasis::any(k),
            PolBasis::any(Vec3::X), // the X-reference fallback path
        ] {
            assert!((basis.h.norm() - 1.0).abs() < 1e-12);
            assert!((basis.v.norm() - 1.0).abs() < 1e-12);
            assert!(basis.h.dot(basis.v).abs() < 1e-12);
            assert!(basis.h.dot(basis.k).abs() < 1e-12);
            assert!(basis.v.dot(basis.k).abs() < 1e-12);
            let hxv = basis.h.cross(basis.v);
            assert!((hxv - basis.k).norm() < 1e-12, "h × v = k (right-handed)");
        }
    }
}
