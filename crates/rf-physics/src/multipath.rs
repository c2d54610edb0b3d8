//! Multipath: image-method planar reflectors and a bystander scatterer.
//!
//! Two empirical facts from the paper's feasibility study (§2) drive this
//! module's requirements:
//!
//! 1. When the tag is cross-polarized to the reader (β ≈ 90°) it still
//!    occasionally responds "along non-line-of-sight signal propagation
//!    paths, where the signal bounces off nearby objects, changing the
//!    measured phase angle" — the *spurious phase* readings PolarDraw's
//!    pre-processor rejects. Reflections must therefore rotate
//!    polarization, so that some energy survives the LoS null.
//! 2. A bystander standing (static multipath) or walking (dynamic
//!    multipath) near the whiteboard perturbs accuracy only mildly beyond
//!    30 cm (Fig. 16). The bystander is modelled as a discrete scatterer
//!    whose path gain falls with both legs of the detour.

use rf_core::Vec3;

/// Electromagnetic boundary model of a reflecting surface.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Surface {
    /// The calibrated empirical bounce the paper-scale scenes use: a
    /// fixed amplitude `reflectivity` and a fixed `depolarization`
    /// rotation, independent of incidence angle. Cheap, and exactly what
    /// the scalar channel has always computed.
    Empirical,
    /// Lossless-dielectric Fresnel boundary: s/p reflection coefficients
    /// derived from the relative permittivity and the incidence angle,
    /// applied in the plane-of-incidence frame with the proper
    /// polarization-rotating geometry. Only the Jones channel resolves
    /// the s/p split; the scalar channel keeps the empirical transform
    /// for these reflectors (the reduction it is calibrated against).
    Fresnel {
        /// Relative permittivity εr ≥ 1 (drywall ≈ 2–3, concrete ≈ 5–7,
        /// glass ≈ 6–7).
        rel_permittivity: f64,
    },
}

/// Fresnel amplitude reflection coefficient for s-polarization
/// (E perpendicular to the plane of incidence, a.k.a. horizontal/TE) off
/// a lossless dielectric of relative permittivity `eps_r`, given the
/// cosine of the incidence angle (`1` = normal, `0` = grazing).
///
/// `r_s = (cos θ − √(εr − sin²θ)) / (cos θ + √(εr − sin²θ))` — exactly
/// `−1` at grazing incidence, `−(√εr−1)/(√εr+1)` at normal incidence.
pub fn fresnel_rs(eps_r: f64, cos_theta: f64) -> f64 {
    let root = (eps_r - (1.0 - cos_theta * cos_theta)).max(0.0).sqrt();
    (cos_theta - root) / (cos_theta + root)
}

/// Fresnel amplitude reflection coefficient for p-polarization
/// (E in the plane of incidence, a.k.a. vertical/TM):
/// `r_p = (εr·cos θ − √(εr − sin²θ)) / (εr·cos θ + √(εr − sin²θ))` —
/// zero at the Brewster angle `tan θ_B = √εr`, `−1` at grazing.
pub fn fresnel_rp(eps_r: f64, cos_theta: f64) -> f64 {
    let root = (eps_r - (1.0 - cos_theta * cos_theta)).max(0.0).sqrt();
    (eps_r * cos_theta - root) / (eps_r * cos_theta + root)
}

/// An infinite planar reflector (wall, ceiling, desk surface).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reflector {
    /// Any point on the plane.
    pub point: Vec3,
    /// Unit normal.
    pub normal: Vec3,
    /// Amplitude reflection coefficient in `[0, 1]` (drywall ≈ 0.3–0.5,
    /// metal ≈ 0.9). Used by the `Empirical` surface model.
    pub reflectivity: f64,
    /// Extra polarization rotation applied on reflection, radians.
    /// Real oblique reflections mix s- and p-components; a fixed
    /// per-reflector rotation captures the resulting cross-polarized
    /// leakage without a full Fresnel treatment. Used by the `Empirical`
    /// surface model.
    pub depolarization: f64,
    /// Boundary model: `Empirical` (reflectivity + depolarization) or a
    /// proper `Fresnel` dielectric (Jones channel).
    pub surface: Surface,
}

impl Reflector {
    /// A wall `offset` metres behind the whiteboard plane (z = −offset).
    pub fn wall_behind(offset: f64, reflectivity: f64, depolarization: f64) -> Reflector {
        Reflector {
            point: Vec3::new(0.0, 0.0, -offset),
            normal: Vec3::Z,
            reflectivity,
            depolarization,
            surface: Surface::Empirical,
        }
    }

    /// Switch this reflector's boundary model.
    pub fn with_surface(mut self, surface: Surface) -> Reflector {
        self.surface = surface;
        self
    }

    /// Mirror a point across the reflector plane.
    pub fn mirror(&self, p: Vec3) -> Vec3 {
        let d = (p - self.point).dot(self.normal);
        p - self.normal * (2.0 * d)
    }

    /// Mirror a *direction* (free vector) across the plane.
    pub fn mirror_dir(&self, v: Vec3) -> Vec3 {
        v - self.normal * (2.0 * v.dot(self.normal))
    }
}

/// How the bystander moves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BystanderMotion {
    /// Standing still: static multipath.
    Static,
    /// Pacing sinusoidally along X with the given peak-to-peak amplitude
    /// (m) and cadence (Hz). Walking ≈ 0.5 m at 0.5–1 Hz.
    Walking {
        /// Peak-to-peak excursion, metres.
        amplitude_m: f64,
        /// Pacing frequency, hertz.
        frequency_hz: f64,
    },
}

/// A human bystander near the whiteboard, modelled as a point scatterer
/// with a fixed (random, per-scene) scattered polarization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bystander {
    /// Torso centre at t = 0.
    pub position: Vec3,
    /// Motion model.
    pub motion: BystanderMotion,
    /// Amplitude scattering coefficient (dimensionless, relative to an
    /// isotropic re-radiator); human torso at UHF ≈ 0.1–0.3.
    pub scattering: f64,
    /// Orientation of the scattered field's polarization, radians, about
    /// the outgoing propagation axis. Human tissue scatters with largely
    /// randomized polarization.
    pub depolarization: f64,
}

impl Bystander {
    /// Position at time `t` seconds.
    pub fn position_at(&self, t: f64) -> Vec3 {
        match self.motion {
            BystanderMotion::Static => self.position,
            BystanderMotion::Walking { amplitude_m, frequency_hz } => {
                let dx = 0.5
                    * amplitude_m
                    * (std::f64::consts::TAU * frequency_hz * t).sin();
                self.position + Vec3::new(dx, 0.0, 0.0)
            }
        }
    }

    /// Geometry of the scattered path `src → body(t) → dst`:
    /// `(leg1_length, leg2_length, arrival_direction_at_dst)`.
    pub fn path(&self, src: Vec3, dst: Vec3, t: f64) -> (f64, f64, Vec3) {
        let body = self.position_at(t);
        let l1 = (body - src).norm();
        let delta = dst - body;
        let l2 = delta.norm();
        (l1, l2, delta.normalized().unwrap_or(Vec3::Z))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mirror_across_back_wall() {
        let wall = Reflector::wall_behind(1.0, 0.4, 0.3);
        let m = wall.mirror(Vec3::new(0.5, 0.2, 2.0));
        assert_eq!(m, Vec3::new(0.5, 0.2, -4.0));
        // Mirroring twice is the identity.
        assert_eq!(wall.mirror(m), Vec3::new(0.5, 0.2, 2.0));
    }

    #[test]
    fn mirror_dir_flips_normal_component_only() {
        let wall = Reflector::wall_behind(1.0, 0.4, 0.0);
        let v = Vec3::new(1.0, 2.0, 3.0);
        assert_eq!(wall.mirror_dir(v), Vec3::new(1.0, 2.0, -3.0));
    }

    #[test]
    fn image_path_obeys_image_geometry() {
        // By the image method the bounce path is the straight line from
        // the mirrored source. Source and destination equidistant from
        // the wall: its length is the direct distance between the
        // mirrored endpoints, and it is longer than the direct path.
        let wall = Reflector {
            point: Vec3::ZERO,
            normal: Vec3::Z,
            reflectivity: 1.0,
            depolarization: 0.0,
            surface: Surface::Empirical,
        };
        let src = Vec3::new(-1.0, 0.0, 1.0);
        let dst = Vec3::new(1.0, 0.0, 1.0);
        let delta = dst - wall.mirror(src);
        assert!((delta.norm() - 2.0 * 2f64.sqrt()).abs() < 1e-12);
        assert!(delta.norm() > src.distance(dst));
        // Arrives travelling up and to the right at 45°.
        let dir = delta.normalized().unwrap();
        assert!((dir.x - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-12);
        assert!((dir.z - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn static_bystander_does_not_move() {
        let b = Bystander {
            position: Vec3::new(0.5, 0.0, 0.6),
            motion: BystanderMotion::Static,
            scattering: 0.2,
            depolarization: 0.7,
        };
        assert_eq!(b.position_at(0.0), b.position_at(10.0));
    }

    #[test]
    fn walking_bystander_oscillates() {
        let b = Bystander {
            position: Vec3::new(0.5, 0.0, 0.6),
            motion: BystanderMotion::Walking { amplitude_m: 0.5, frequency_hz: 0.5 },
            scattering: 0.2,
            depolarization: 0.7,
        };
        let quarter = b.position_at(0.5); // quarter period: peak excursion
        assert!((quarter.x - 0.75).abs() < 1e-9);
        let full = b.position_at(2.0); // full period: back to start
        assert!((full.x - 0.5).abs() < 1e-9);
    }

    #[test]
    fn bystander_path_lengths_are_positive_detours() {
        let b = Bystander {
            position: Vec3::new(0.3, 0.2, 0.5),
            motion: BystanderMotion::Static,
            scattering: 0.2,
            depolarization: 0.0,
        };
        let src = Vec3::new(0.0, -0.1, 1.5);
        let dst = Vec3::new(0.4, 0.3, 0.0);
        let (l1, l2, _) = b.path(src, dst, 0.0);
        assert!(l1 + l2 > src.distance(dst));
    }

    // ---- Fresnel closed-form laws --------------------------------------

    #[test]
    fn fresnel_vanishes_at_brewster_for_p_polarization() {
        // tan θ_B = √εr ⇒ r_p(θ_B) = 0, for any lossless dielectric.
        for eps_r in [1.5f64, 2.0, 4.0, 6.5, 9.0] {
            let theta_b = eps_r.sqrt().atan();
            let rp = fresnel_rp(eps_r, theta_b.cos());
            assert!(rp.abs() < 1e-12, "εr = {eps_r}: r_p(θ_B) = {rp}");
            // …and s-polarization does NOT vanish there.
            let rs = fresnel_rs(eps_r, theta_b.cos());
            assert!(rs.abs() > 0.1, "εr = {eps_r}: r_s(θ_B) = {rs}");
        }
    }

    #[test]
    fn fresnel_reaches_minus_one_at_grazing() {
        // cos θ → 0: total reflection with a π phase flip, both
        // polarizations (the V-pol/−1 limit of the satellite spec).
        for eps_r in [1.5, 2.0, 4.0, 6.5] {
            assert_eq!(fresnel_rs(eps_r, 0.0), -1.0);
            assert_eq!(fresnel_rp(eps_r, 0.0), -1.0);
        }
    }

    #[test]
    fn fresnel_normal_incidence_closed_form() {
        // At normal incidence the s/p distinction degenerates:
        // |r| = (√εr − 1)/(√εr + 1) for both (signs differ only by the
        // frame convention for the p axis).
        for eps_r in [2.0f64, 4.0, 7.0] {
            let want = (eps_r.sqrt() - 1.0) / (eps_r.sqrt() + 1.0);
            assert!((fresnel_rs(eps_r, 1.0) + want).abs() < 1e-12);
            assert!((fresnel_rp(eps_r, 1.0) - want).abs() < 1e-12);
        }
    }

    #[test]
    fn fresnel_magnitudes_stay_physical() {
        // Passive boundary: |r| ≤ 1 across the whole incidence range,
        // and r_p crosses zero exactly once (at Brewster).
        let eps_r = 5.0f64;
        let theta_b = eps_r.sqrt().atan();
        let mut sign_changes = 0;
        let mut prev = fresnel_rp(eps_r, 1.0);
        for i in 1..=1000 {
            let theta = i as f64 / 1000.0 * std::f64::consts::FRAC_PI_2;
            let rs = fresnel_rs(eps_r, theta.cos());
            let rp = fresnel_rp(eps_r, theta.cos());
            assert!(rs.abs() <= 1.0 + 1e-12 && rp.abs() <= 1.0 + 1e-12);
            if rp.signum() != prev.signum() && prev != 0.0 {
                sign_changes += 1;
                assert!(
                    (theta - theta_b).abs() < 0.01,
                    "r_p sign change at {theta}, Brewster is {theta_b}"
                );
            }
            prev = rp;
        }
        assert_eq!(sign_changes, 1);
    }

    #[test]
    fn with_surface_switches_the_boundary_model() {
        let wall = Reflector::wall_behind(1.0, 0.4, 0.3);
        assert_eq!(wall.surface, Surface::Empirical);
        let fresnel = wall.with_surface(Surface::Fresnel { rel_permittivity: 2.5 });
        assert_eq!(fresnel.surface, Surface::Fresnel { rel_permittivity: 2.5 });
        // The geometric helpers are surface-independent.
        let p = Vec3::new(0.3, 0.1, 2.0);
        assert_eq!(wall.mirror(p), fresnel.mirror(p));
    }
}
