//! The composite monostatic backscatter channel.
//!
//! For each (reader antenna, tag pose, time) triple we compute the
//! one-way complex field coupling onto the tag dipole,
//!
//! ```text
//! F = Σ_paths g_ant(path) · g_tag · A(L_path) · (ê_path · u) · e^{−j 2π L_path / λ}
//! ```
//!
//! summed over the line-of-sight path, image-method wall reflections and
//! the optional bystander scatter. By antenna reciprocity the monostatic
//! round trip is `h = m · F²` with `m` the tag's backscatter modulation
//! factor, so:
//!
//! * received backscatter power `P_rx = P_tx · |h|²` — the reader's RSS;
//! * measured phase `θ = arg h + φ_cable` — note `arg h = 2·arg F`,
//!   which is why phase advances by `4π/λ` per metre of tag motion
//!   (Eq. 5 of the paper);
//! * forward power at the tag `P_tag = P_tx · |F|²` — gated against the
//!   chip sensitivity to decide whether the tag responds at all. This is
//!   what makes reads vanish near β = 90° in Figure 3(b).
//!
//! [`ChannelModel`] describes the rig. [`RigFactors`] is the one
//! evaluator: [`RigFactors::freeze`] hoists every factor that does not
//! depend on the tag pose (antenna gain ratios and Jones states, the
//! antenna images across each reflector, depolarization trig, and λ
//! with its 1 m reference loss per FCC channel), and
//! [`RigFactors::evaluate`] runs one link. Hoisting a value computed
//! from the same inputs does not change its bits, and the carrier is
//! picked per call from the plan's channel at `t`, so fixed and hopping
//! plans freeze alike. `tests/snapshots/channel_links.json` pins the
//! observables bit for bit.

use crate::antenna::{Antenna, Polarization};
use crate::multipath::{fresnel_rp, fresnel_rs, Bystander, Reflector, Surface};
use crate::noise::NoiseModel;
use crate::polarization::{rotate_about_axis, transverse_field, Jones, JonesVector, PolBasis, PolState};
use crate::propagation::{free_space_loss_db, log_distance_loss_db};
use crate::spectrum::{channel_frequency, ChannelPlan, FCC_CHANNEL_COUNT};
use rf_core::{db_to_ratio, wrap_tau, Complex, Vec3};
use std::f64::consts::{FRAC_1_SQRT_2, TAU};

/// Which polarization formalism [`RigFactors::evaluate`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Polarimetry {
    /// The paper's reduction: one real coupling factor per path leg
    /// (`ê·u` for linear antennas, constant `1/√2` for circular). For
    /// linear-copolarized broadside rigs this is provably equivalent to
    /// `Jones` (`tests/channel_equivalence.rs`) — the default and the
    /// model every committed paper artifact was produced under.
    #[default]
    Scalar,
    /// Full Jones-calculus propagation: each path carries a complex
    /// two-component transverse field, bounces compose 2×2 Jones legs
    /// (including the s/p Fresnel split on `Surface::Fresnel`
    /// reflectors), and antennas may radiate circular or elliptical
    /// states.
    Jones,
}

/// How the tag's antenna responds to the incident field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TagPolarization {
    /// A single fixed dipole — the paper's pen tag.
    #[default]
    Dipole,
    /// A polarization-reconfigurable tag (Fara et al.): two orthogonal
    /// dipole states, with the chip driving whichever currently
    /// harvests more forward power. Dodges mismatch fades at the cost
    /// of scrambling the orientation information PolarDraw decodes.
    Reconfigurable,
}

/// Everything the reader can know about one interrogation attempt,
/// before receiver measurement noise and quantization (those live in
/// `rfid-sim`, which owns the reader).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkObservation {
    /// Power delivered to the tag chip, dBm (one-way).
    pub forward_power_dbm: f64,
    /// Backscatter power at the reader port, dBm (round trip).
    pub rx_power_dbm: f64,
    /// Noise-free carrier phase at the reader, radians in `[0, 2π)`.
    pub phase_rad: f64,
    /// Whether the tag chip received enough power to respond.
    pub tag_powered: bool,
    /// The raw round-trip complex gain (amplitude relative to `P_tx`).
    pub round_trip: Complex,
    /// Line-of-sight polarization mismatch angle β, radians (diagnostic).
    pub mismatch_rad: f64,
}

/// The full RF environment: antennas, clutter, regulatory plan, budgets.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelModel {
    /// Reader antennas (PolarDraw uses two; baselines up to four).
    pub antennas: Vec<Antenna>,
    /// Static planar reflectors (office clutter).
    pub reflectors: Vec<Reflector>,
    /// Optional bystander scatterer (Fig. 16 experiments).
    pub bystander: Option<Bystander>,
    /// Carrier schedule.
    pub plan: ChannelPlan,
    /// Receiver noise model (consumed by `rfid-sim`).
    pub noise: NoiseModel,
    /// Reader conducted transmit power, dBm (FCC limit: 30 dBm).
    pub tx_power_dbm: f64,
    /// Tag antenna gain, dBi (AD-227m5-class inlays ≈ 2 dBi).
    pub tag_gain_dbi: f64,
    /// Backscatter modulation loss, dB (power lost to the modulation
    /// depth of the chip; ≈ 5 dB for common chips).
    pub backscatter_loss_db: f64,
    /// Tag chip forward-power sensitivity, dBm (Monza-class ≈ −18 dBm).
    pub tag_sensitivity_dbm: f64,
    /// Per-antenna cable/connector phase offsets, radians.
    pub cable_phase_rad: Vec<f64>,
    /// Path-loss exponent (2.0 = free space; slightly above in clutter).
    pub path_loss_exponent: f64,
    /// Polarization formalism used by [`RigFactors::evaluate`].
    pub polarimetry: Polarimetry,
    /// Tag antenna polarization behaviour.
    pub tag: TagPolarization,
}

impl ChannelModel {
    /// An empty free-space channel with the given antennas.
    pub fn free_space(antennas: Vec<Antenna>) -> ChannelModel {
        let n = antennas.len();
        ChannelModel {
            antennas,
            reflectors: Vec::new(),
            bystander: None,
            plan: ChannelPlan::fixed_mid_band(),
            noise: NoiseModel::default(),
            tx_power_dbm: 30.0,
            tag_gain_dbi: 2.0,
            backscatter_loss_db: 5.0,
            tag_sensitivity_dbm: -18.0,
            cable_phase_rad: vec![0.0; n],
            path_loss_exponent: 2.0,
            polarimetry: Polarimetry::Scalar,
            tag: TagPolarization::Dipole,
        }
    }

    /// The paper's deployment (Figs. 4/17): two linearly-polarized
    /// antennas mounted `spacing` apart above the writing block, facing
    /// it from `standoff` metres in front (the "tag-to-reader distance"
    /// of Table 5). Polarization axes lie in the board plane at ±γ from
    /// board-vertical; with the line of sight roughly perpendicular to
    /// the board, the transverse plane ≈ the board plane and the Fig. 8
    /// sector construction applies directly (the residual obliquity
    /// warps the *effective* γ slightly — a real deployment calibrates
    /// it, and `experiments::setup::effective_gamma` computes it).
    ///
    /// Board frame: X rightward, Y downward (write area around
    /// y ≈ 0.55–0.9 m), Z out of the board toward the antennas.
    pub fn two_antenna_whiteboard(gamma_rad: f64, spacing_m: f64, standoff_m: f64) -> ChannelModel {
        let pol1 = pol_axis_at(std::f64::consts::FRAC_PI_2 + gamma_rad);
        let pol2 = pol_axis_at(std::f64::consts::FRAC_PI_2 - gamma_rad);
        let write_center = Vec3::new(0.0, 0.72, 0.0);
        let mount = |x: f64| Vec3::new(x, 0.15, standoff_m.max(0.05));
        let a1_pos = mount(-spacing_m / 2.0);
        let a2_pos = mount(spacing_m / 2.0);
        let a1 = Antenna::linear(
            a1_pos,
            (write_center - a1_pos).normalized().unwrap(),
            pol1,
        );
        let a2 = Antenna::linear(
            a2_pos,
            (write_center - a2_pos).normalized().unwrap(),
            pol2,
        );
        let mut ch = ChannelModel::free_space(vec![a1, a2]);
        ch.reflectors = office_clutter();
        ch.cable_phase_rad = vec![0.9, 2.1];
        ch
    }

    /// Number of antenna ports.
    pub fn antenna_count(&self) -> usize {
        self.antennas.len()
    }
}

/// Unit polarization axis in the board plane at `angle` radians from +X.
pub fn pol_axis_at(angle: f64) -> Vec3 {
    Vec3::new(angle.cos(), angle.sin(), 0.0)
}

/// The standard "cluttered office" reflector set used by the default
/// scenes: a wall behind the writer, the ceiling, and a side wall, each
/// with moderate reflectivity and some depolarization.
pub fn office_clutter() -> Vec<Reflector> {
    vec![
        // Wall 2 m behind the whiteboard plane (z = +2 m side is the
        // writer's side; the wall faces back toward the board).
        Reflector {
            point: Vec3::new(0.0, 0.0, 2.0),
            normal: -Vec3::Z,
            reflectivity: 0.35,
            depolarization: 0.7,
            surface: Surface::Empirical,
        },
        // Ceiling 1.5 m above the antennas (y = −1.5 in board frame).
        Reflector {
            point: Vec3::new(0.0, -1.5, 0.0),
            normal: Vec3::Y,
            reflectivity: 0.3,
            depolarization: 1.1,
            surface: Surface::Empirical,
        },
        // Side wall 2.5 m to the right.
        Reflector {
            point: Vec3::new(2.5, 0.0, 0.0),
            normal: -Vec3::X,
            reflectivity: 0.25,
            depolarization: 0.5,
            surface: Surface::Empirical,
        },
    ]
}

/// The carrier-dependent factors of one FCC channel: λ and the 1 m
/// reference of the log-distance model, `free_space_loss_db(1.0, λ)`.
#[derive(Debug, Clone, Copy)]
struct Carrier {
    lambda: f64,
    fs_ref_db: f64,
}

/// The frame an antenna's radiated Jones state lives in — the frozen
/// half of [`Antenna::jones_along`] (the state itself never depends on
/// the ray, only the frame construction rule does).
#[derive(Debug, Clone, Copy)]
enum FrozenFrame {
    /// `PolBasis::from_reference(axis, dir)` — linear and general Jones
    /// patterns.
    Reference(Vec3),
    /// `PolBasis::any(dir)` — circular patterns.
    Any,
}

/// One antenna with its pose-independent factors hoisted.
#[derive(Debug, Clone)]
struct FrozenAntenna {
    ant: Antenna,
    /// `db_to_ratio(gain_dbi)` — the boresight power ratio the pattern
    /// scales.
    gain_ratio: f64,
    /// Frame construction rule + frozen radiated state — the
    /// `PolState::jones()` trig paid once per rig instead of per link.
    frame: FrozenFrame,
    jv: JonesVector,
    /// This antenna's image across each reflector, in reflector order.
    /// By the image method a bounce path has the length of the straight
    /// line from the image to the tag, and arrives along it.
    mirrored: Vec<Vec3>,
}

impl FrozenAntenna {
    /// Linear *amplitude* gain toward `target` (√ of the power gain
    /// `G₀·cosⁿθ`), zero behind the panel.
    fn amplitude_gain_towards(&self, target: Vec3) -> f64 {
        let dir = match (target - self.ant.position).normalized() {
            Some(d) => d,
            None => return 0.0,
        };
        let cos_theta = self.ant.boresight.dot(dir);
        if cos_theta <= 0.0 {
            return 0.0; // back hemisphere of a panel antenna
        }
        let pattern = cos_theta.powf(self.ant.pattern_exponent);
        (self.gain_ratio * pattern).sqrt()
    }

    /// [`Antenna::jones_along`] with the radiated state frozen.
    fn jones_along(&self, dir: Vec3) -> Option<(PolBasis, JonesVector)> {
        match self.frame {
            FrozenFrame::Reference(axis) => Some((PolBasis::from_reference(axis, dir)?, self.jv)),
            FrozenFrame::Any => Some((PolBasis::any(dir), self.jv)),
        }
    }

    /// The scalar channel's radiated field toward `dir`: the transverse
    /// polarization axis for linear antennas; circular antennas use an
    /// arbitrary transverse reference at −3 dB (orientation information
    /// is destroyed anyway).
    fn scalar_field(&self, dir: Vec3) -> Option<Vec3> {
        match self.ant.linear_axis() {
            Some(axis) => transverse_field(axis, dir),
            None => Some(transverse_field(Vec3::X, dir)? * FRAC_1_SQRT_2),
        }
    }
}

/// One reflector with its depolarization rotation hoisted.
#[derive(Debug, Clone)]
struct FrozenReflector {
    refl: Reflector,
    /// `sin`/`cos` of the depolarization angle.
    depol: (f64, f64),
}

impl FrozenReflector {
    /// Transform a field polarization vector through the bounce: mirror
    /// it, apply the depolarization rotation about the outgoing axis
    /// `k_out`, and attenuate by the reflectivity.
    fn reflect(&self, e: Vec3, k_out: Vec3) -> Vec3 {
        rotate_about_axis(self.refl.mirror_dir(e), k_out, self.depol) * self.refl.reflectivity
    }
}

/// A [`ChannelModel`] with everything that does not depend on the tag
/// pose precomputed — the evaluator of the link model.
///
/// The carrier is resolved per call: λ and the 1 m reference loss are
/// frozen for every FCC channel index, and [`RigFactors::evaluate`]
/// picks them with `plan.channel_at(t)`, so hopping plans freeze like
/// fixed ones. A moving bystander is resolved per call too: only its
/// position depends on time.
#[derive(Debug, Clone)]
pub struct RigFactors {
    tx_power_dbm: f64,
    tag_sensitivity_dbm: f64,
    ple: f64,
    /// `db_to_ratio(tag_gain_dbi).sqrt()`.
    g_tag: f64,
    /// `db_to_ratio(-backscatter_loss_db).sqrt()`.
    m: f64,
    plan: ChannelPlan,
    /// One entry per FCC channel index.
    carriers: Vec<Carrier>,
    cable_phase_rad: Vec<f64>,
    polarimetry: Polarimetry,
    tag: TagPolarization,
    ants: Vec<FrozenAntenna>,
    refls: Vec<FrozenReflector>,
    /// The bystander plus the hoisted `sin`/`cos` of its depolarization.
    bystander: Option<(Bystander, (f64, f64))>,
}

impl RigFactors {
    /// Freeze a model's pose-independent factors.
    pub fn freeze(model: &ChannelModel) -> RigFactors {
        let carriers = (0..FCC_CHANNEL_COUNT)
            .map(|idx| {
                let lambda = rf_core::wavelength(channel_frequency(idx));
                Carrier { lambda, fs_ref_db: free_space_loss_db(1.0, lambda) }
            })
            .collect();
        let refls: Vec<FrozenReflector> = model
            .reflectors
            .iter()
            .map(|refl| FrozenReflector { refl: *refl, depol: refl.depolarization.sin_cos() })
            .collect();
        let ants = model
            .antennas
            .iter()
            .map(|ant| {
                let (frame, jv) = match ant.polarization {
                    Polarization::Linear(axis) => (FrozenFrame::Reference(axis), JonesVector::H),
                    Polarization::Circular => (
                        FrozenFrame::Any,
                        PolState::Circular { right_handed: true }.jones(),
                    ),
                    Polarization::Jones { axis, state } => {
                        (FrozenFrame::Reference(axis), state.jones())
                    }
                };
                FrozenAntenna {
                    ant: *ant,
                    gain_ratio: db_to_ratio(ant.gain_dbi),
                    frame,
                    jv,
                    mirrored: refls.iter().map(|fr| fr.refl.mirror(ant.position)).collect(),
                }
            })
            .collect();
        RigFactors {
            tx_power_dbm: model.tx_power_dbm,
            tag_sensitivity_dbm: model.tag_sensitivity_dbm,
            ple: model.path_loss_exponent,
            g_tag: db_to_ratio(model.tag_gain_dbi).sqrt(),
            m: db_to_ratio(-model.backscatter_loss_db).sqrt(),
            plan: model.plan.clone(),
            carriers,
            cable_phase_rad: model.cable_phase_rad.clone(),
            polarimetry: model.polarimetry,
            tag: model.tag,
            ants,
            refls,
            bystander: model.bystander.map(|by| (by, by.depolarization.sin_cos())),
        }
    }

    /// Evaluate the link for `antenna_idx` with the tag at `tag_pos`
    /// (metres) and dipole orientation `dipole` (need not be unit) at
    /// time `t` seconds, under the rig's [`Polarimetry`] and
    /// [`TagPolarization`].
    ///
    /// A [`TagPolarization::Reconfigurable`] tag evaluates both of its
    /// orthogonal dipole states and reports the one harvesting more
    /// forward power (ties keep the commanded orientation), so the
    /// returned `mismatch_rad` describes the state the chip actually
    /// selected.
    ///
    /// # Panics
    /// Panics if `antenna_idx` is out of range.
    pub fn evaluate(&self, antenna_idx: usize, tag_pos: Vec3, dipole: Vec3, t: f64) -> LinkObservation {
        let carrier = self.carriers[self.plan.channel_at(t).min(FCC_CHANNEL_COUNT - 1)];
        match self.tag {
            TagPolarization::Dipole => {
                self.evaluate_oriented(carrier, antenna_idx, tag_pos, dipole, t)
            }
            TagPolarization::Reconfigurable => {
                let u = dipole.normalized().unwrap_or(Vec3::Z);
                let primary = self.evaluate_oriented(carrier, antenna_idx, tag_pos, u, t);
                // The second dipole state: the in-board-plane orthogonal
                // of `u` (X for a board-normal dipole).
                let orthogonal = Vec3::new(-u.y, u.x, 0.0).normalized().unwrap_or(Vec3::X);
                let alt = self.evaluate_oriented(carrier, antenna_idx, tag_pos, orthogonal, t);
                if alt.forward_power_dbm > primary.forward_power_dbm {
                    alt
                } else {
                    primary
                }
            }
        }
    }

    fn evaluate_oriented(
        &self,
        c: Carrier,
        antenna_idx: usize,
        tag_pos: Vec3,
        dipole: Vec3,
        t: f64,
    ) -> LinkObservation {
        let fa = &self.ants[antenna_idx];
        let ant = &fa.ant;
        let u = dipole.normalized().unwrap_or(Vec3::Z);

        let mut f = Complex::ZERO;

        // Line of sight.
        let d_los = ant.position.distance(tag_pos);
        let los_amp = fa.amplitude_gain_towards(tag_pos) * self.g_tag * self.log_dist_amp(c, d_los);
        let los_phase = -TAU * d_los / c.lambda;
        match self.polarimetry {
            Polarimetry::Scalar => {
                f += Complex::from_polar(los_amp * ant.polarization_coupling(tag_pos, u), los_phase);
            }
            Polarimetry::Jones => {
                if let Some((basis, jv)) =
                    (tag_pos - ant.position).normalized().and_then(|dir| fa.jones_along(dir))
                {
                    f += jv.couple(&basis, u) * Complex::from_polar(los_amp, los_phase);
                }
            }
        }

        // Wall reflections (image method, one bounce each).
        for (fr, &mirrored) in self.refls.iter().zip(&fa.mirrored) {
            if let Some(term) = self.reflector_term(c, fa, fr, mirrored, tag_pos, u) {
                f += term;
            }
        }

        // Bystander scatter.
        if let Some(term) = self.bystander_term(c, fa, tag_pos, u, t) {
            f += term;
        }

        self.observe(f, antenna_idx, ant.mismatch_angle(tag_pos, u))
    }

    /// The one-way log-distance amplitude `10^(−PL(d)/20)`; zero at
    /// non-positive range.
    fn log_dist_amp(&self, c: Carrier, distance_m: f64) -> f64 {
        let loss = log_distance_loss_db(distance_m, c.fs_ref_db, self.ple);
        if loss.is_infinite() {
            0.0
        } else {
            10f64.powf(-loss / 20.0)
        }
    }

    /// One wall bounce: the field radiated toward the tag's mirror
    /// image, reflected, coupled onto `u`.
    ///
    /// The scalar channel reflects the real field vector. Under Jones,
    /// `Empirical` surfaces apply that same field transform to the real
    /// and imaginary field parts independently (the transform is
    /// linear, so this is exact — and bitwise-identical for the purely
    /// real fields of linear antennas). `Fresnel` surfaces split the
    /// field into s/p components in the plane-of-incidence frame, apply
    /// `diag(r_s, r_p)`, and re-express the bounced field in the
    /// arrival frame.
    fn reflector_term(
        &self,
        c: Carrier,
        fa: &FrozenAntenna,
        fr: &FrozenReflector,
        mirrored: Vec3,
        tag_pos: Vec3,
        u: Vec3,
    ) -> Option<Complex> {
        let delta = tag_pos - mirrored;
        let len = delta.norm();
        let arrive_dir = delta.normalized().unwrap_or(Vec3::Z);
        let image = fr.refl.mirror(tag_pos);
        let emit_dir = (image - fa.ant.position).normalized()?;
        let amp = fa.amplitude_gain_towards(image) * self.g_tag * self.log_dist_amp(c, len);
        let phase = -TAU * len / c.lambda;
        if self.polarimetry == Polarimetry::Scalar {
            let e1 = fr.reflect(fa.scalar_field(emit_dir)?, arrive_dir);
            return Some(Complex::from_polar(amp * e1.dot(u), phase));
        }
        let (emission_basis, jv) = fa.jones_along(emit_dir)?;
        let coupling = match fr.refl.surface {
            Surface::Empirical => {
                let (re, im) = jv.field(&emission_basis);
                let re_out = fr.reflect(re, arrive_dir);
                let im_out = fr.reflect(im, arrive_dir);
                Complex::new(re_out.dot(u), im_out.dot(u))
            }
            Surface::Fresnel { rel_permittivity } => {
                let cos_i = emit_dir.dot(fr.refl.normal).abs();
                // s axis: perpendicular to the plane of incidence. It is
                // shared by the incident and reflected rays; the p axis
                // rotates with the ray.
                let s = emit_dir
                    .cross(fr.refl.normal)
                    .normalized()
                    .unwrap_or(emission_basis.h); // normal incidence: s/p degenerate
                let in_basis = PolBasis { h: s, v: emit_dir.cross(s), k: emit_dir };
                let out_basis = PolBasis { h: s, v: arrive_dir.cross(s), k: arrive_dir };
                let rs = fresnel_rs(rel_permittivity, cos_i);
                let rp = fresnel_rp(rel_permittivity, cos_i);
                let bounce = Jones::diag(Complex::new(rs, 0.0), Complex::new(rp, 0.0))
                    .compose(Jones::basis_change(&emission_basis, &in_basis));
                bounce.apply(jv).couple(&out_basis, u)
            }
        };
        Some(coupling * Complex::from_polar(amp, phase))
    }

    /// The bystander's scatter: a depolarizing rotation of the incident
    /// field (under Jones, of its real and imaginary parts
    /// independently — linear, hence exact), attenuated by the body's
    /// scattering coefficient. The two legs combine as a single detour
    /// path (specular-point approximation). `None` without a bystander.
    fn bystander_term(
        &self,
        c: Carrier,
        fa: &FrozenAntenna,
        tag_pos: Vec3,
        u: Vec3,
        t: f64,
    ) -> Option<Complex> {
        let &(by, depol) = self.bystander.as_ref()?;
        let body = by.position_at(t);
        let (l1, l2, arrive_dir) = by.path(fa.ant.position, tag_pos, t);
        let emit_dir = (body - fa.ant.position).normalized()?;
        let total = l1 + l2;
        let amp = fa.amplitude_gain_towards(body) * self.g_tag * self.log_dist_amp(c, total);
        let phase = -TAU * total / c.lambda;
        let scatter = |e: Vec3| rotate_about_axis(e, arrive_dir, depol) * by.scattering;
        if self.polarimetry == Polarimetry::Scalar {
            let e1 = scatter(fa.scalar_field(emit_dir)?);
            return Some(Complex::from_polar(amp * e1.dot(u), phase));
        }
        let (basis, jv) = fa.jones_along(emit_dir)?;
        let (re, im) = jv.field(&basis);
        let coupling = Complex::new(scatter(re).dot(u), scatter(im).dot(u));
        Some(coupling * Complex::from_polar(amp, phase))
    }

    /// Fold the one-way field `F` into the monostatic observables. Both
    /// polarimetries funnel through here with an identical
    /// floating-point op sequence.
    fn observe(&self, f: Complex, antenna_idx: usize, mismatch_rad: f64) -> LinkObservation {
        let forward_power_dbm = self.tx_power_dbm + amp_to_db(f.abs());
        let tag_powered = forward_power_dbm >= self.tag_sensitivity_dbm;

        let h = (f * f).scale(self.m);
        let rx_power_dbm = self.tx_power_dbm + amp_to_db(h.abs());
        let cable = self.cable_phase_rad.get(antenna_idx).copied().unwrap_or(0.0);
        // Readers report phase in the Eq.-6 convention of the paper:
        // θ = 4π·l/λ (mod 2π), i.e. *increasing* with distance — the
        // negation of the physical e^{−jkd} propagation argument.
        let phase_rad = wrap_tau(-h.arg() + cable);

        LinkObservation {
            forward_power_dbm,
            rx_power_dbm,
            phase_rad,
            tag_powered,
            round_trip: h,
            mismatch_rad,
        }
    }
}

fn amp_to_db(a: f64) -> f64 {
    if a <= 0.0 {
        f64::NEG_INFINITY
    } else {
        20.0 * a.log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multipath::BystanderMotion;
    use rf_core::deg_to_rad;
    use std::f64::consts::FRAC_PI_2;

    /// Single downward-looking antenna 1 m above the origin, X-polarized,
    /// free space: the cleanest testbed.
    fn bench_channel() -> ChannelModel {
        let ant = Antenna::linear(Vec3::new(0.0, 0.0, 1.0), -Vec3::Z, Vec3::X);
        ChannelModel::free_space(vec![ant])
    }

    #[test]
    fn aligned_tag_at_one_metre_hits_expected_budget() {
        let ch = bench_channel();
        let obs = RigFactors::freeze(&ch).evaluate(0, Vec3::ZERO, Vec3::X, 0.0);
        // Analytic: F = g_ant · g_tag · λ/(4πd)
        //             = 1.995 · 1.259 · 0.02608 ≈ 0.0655
        // → P_tag = 30 + 20·log10 F ≈ +6.3 dBm;
        //   P_rx  = 30 + 20·log10(m·F²) ≈ −22.3 dBm (m = −5 dB).
        assert!(obs.tag_powered);
        assert!((obs.forward_power_dbm - 6.33).abs() < 0.1, "fwd {}", obs.forward_power_dbm);
        assert!((obs.rx_power_dbm - (-22.35)).abs() < 0.2, "rx {}", obs.rx_power_dbm);
    }

    #[test]
    fn rss_follows_cos4_law_under_rotation() {
        // Figure 3(b): rotating the tag sweeps RSS as 40·log10 cos β.
        let ch = bench_channel();
        let rig = RigFactors::freeze(&ch);
        let rss0 = rig.evaluate(0, Vec3::ZERO, Vec3::X, 0.0).rx_power_dbm;
        for deg in [15.0, 30.0, 45.0, 60.0] {
            let b = deg_to_rad(deg);
            let dipole = Vec3::new(b.cos(), b.sin(), 0.0);
            let rss = rig.evaluate(0, Vec3::ZERO, dipole, 0.0).rx_power_dbm;
            let expect_drop = -40.0 * b.cos().log10();
            assert!(
                ((rss0 - rss) - expect_drop).abs() < 0.05,
                "β = {deg}°: drop {} vs cos⁴ law {expect_drop}",
                rss0 - rss
            );
        }
    }

    #[test]
    fn panel_gain_follows_the_pattern_and_is_dark_behind() {
        let rig = RigFactors::freeze(&bench_channel());
        let panel = &rig.ants[0];
        // 6 dBi → power ratio ~3.98 → amplitude ~1.995 on boresight.
        let on_axis = panel.amplitude_gain_towards(Vec3::ZERO);
        assert!((on_axis * on_axis - 3.981).abs() < 1e-2);
        let off_axis = panel.amplitude_gain_towards(Vec3::new(1.5, 0.0, 0.0));
        assert!(off_axis > 0.0 && off_axis < on_axis);
        assert_eq!(panel.amplitude_gain_towards(Vec3::new(0.0, 0.0, 5.0)), 0.0);
        assert_eq!(panel.amplitude_gain_towards(panel.ant.position), 0.0);
    }

    #[test]
    fn wall_bounce_attenuates_and_depolarizes() {
        let mut ch = bench_channel();
        ch.reflectors = vec![Reflector::wall_behind(1.0, 0.4, 0.0), Reflector::wall_behind(1.0, 1.0, 0.5)];
        let rig = RigFactors::freeze(&ch);
        let plain = rig.refls[0].reflect(Vec3::X, Vec3::Z);
        assert!((plain.norm() - 0.4).abs() < 1e-12);
        // With depolarization an X-polarized field acquires a Y
        // component — the energy that survives the LoS cross-
        // polarization null and causes spurious phases.
        let rotated = rig.refls[1].reflect(Vec3::X, Vec3::Z);
        assert!(rotated.y.abs() > 0.4);
    }

    #[test]
    fn hopping_plans_freeze_and_take_the_carrier_of_each_call() {
        // A hopping rig evaluates every link on the channel its plan
        // selects at `t`: bit for bit the fixed rig on that channel.
        let mut hop = bench_channel();
        hop.reflectors = office_clutter();
        hop.plan = ChannelPlan::hopping_from_seed(7, 0.2);
        let rig = RigFactors::freeze(&hop);
        let pos = Vec3::new(0.1, 0.2, 0.0);
        let mut phases = Vec::new();
        for t in [0.0, 0.25, 0.45, 0.61, 3.3] {
            let mut fixed = hop.clone();
            fixed.plan = ChannelPlan::Fixed(hop.plan.channel_at(t));
            let a = rig.evaluate(0, pos, Vec3::X, t);
            let b = RigFactors::freeze(&fixed).evaluate(0, pos, Vec3::X, t);
            assert_eq!(a, b, "t = {t}");
            phases.push(a.phase_rad);
        }
        // Different channels give different phase slopes at this range.
        assert!(phases.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn cross_polarized_tag_loses_power_in_free_space() {
        let ch = bench_channel();
        let obs = RigFactors::freeze(&ch).evaluate(0, Vec3::ZERO, Vec3::Y, 0.0);
        assert!(!obs.tag_powered, "no NLoS energy in free space at β = 90°");
        assert_eq!(obs.forward_power_dbm, f64::NEG_INFINITY);
    }

    #[test]
    fn cross_polarized_tag_may_survive_via_reflections() {
        let mut ch = bench_channel();
        // Side wall in the antenna's front hemisphere (a wall behind the
        // antenna would be in the panel's back null and contribute
        // nothing — tested by `panel_gain_follows_the_pattern_and_is_dark_behind`).
        ch.reflectors = vec![Reflector {
            point: Vec3::new(2.0, 0.0, 0.0),
            normal: -Vec3::X,
            reflectivity: 0.8,
            depolarization: 1.2,
            surface: Surface::Empirical,
        }];
        let rig = RigFactors::freeze(&ch);
        let obs = rig.evaluate(0, Vec3::ZERO, Vec3::Y, 0.0);
        // The depolarized reflection couples into the crossed dipole.
        assert!(obs.forward_power_dbm > f64::NEG_INFINITY);
        // And its phase is set by the *reflected* path — the "spurious
        // reading" mechanism of §2.
        let aligned = rig.evaluate(0, Vec3::ZERO, Vec3::X, 0.0);
        let spurious_gap = rf_core::angle::phase_distance(obs.phase_rad, aligned.phase_rad);
        assert!(spurious_gap > 0.2, "reflected path must shift phase, gap {spurious_gap}");
    }

    #[test]
    fn phase_advances_at_4pi_per_wavelength() {
        // Eq. 5: Δθ = 4π·Δd/λ — the round trip doubles the slope, and
        // the reported phase *increases* as the tag recedes (Eq. 6).
        let ch = bench_channel();
        let rig = RigFactors::freeze(&ch);
        let lambda = ch.plan.wavelength_at(0.0);
        let p1 = rig.evaluate(0, Vec3::ZERO, Vec3::X, 0.0).phase_rad;
        let dz = -0.01; // 1 cm farther from the antenna
        let p2 = rig.evaluate(0, Vec3::new(0.0, 0.0, dz), Vec3::X, 0.0).phase_rad;
        let measured = rf_core::angle::phase_diff(p2, p1);
        let expect = 2.0 * std::f64::consts::TAU * 0.01 / lambda;
        assert!(
            (measured - rf_core::wrap_pi(expect)).abs() < 1e-6,
            "measured {measured} expected {expect}"
        );
    }

    #[test]
    fn rss_insensitive_to_small_translation() {
        // Figure 3(c): 8 cm of motion moves RSS by well under a dB.
        let ch = bench_channel();
        let rig = RigFactors::freeze(&ch);
        let r1 = rig.evaluate(0, Vec3::new(0.0, 0.0, 0.0), Vec3::X, 0.0).rx_power_dbm;
        let r2 = rig.evaluate(0, Vec3::new(0.04, 0.0, 0.0), Vec3::X, 0.0).rx_power_dbm;
        assert!((r1 - r2).abs() < 1.0, "Δ = {}", (r1 - r2).abs());
    }

    #[test]
    fn whiteboard_preset_geometry() {
        let ch = ChannelModel::two_antenna_whiteboard(deg_to_rad(15.0), 0.56, 0.3);
        assert_eq!(ch.antenna_count(), 2);
        let p1 = ch.antennas[0].linear_axis().unwrap();
        let p2 = ch.antennas[1].linear_axis().unwrap();
        // Axes straddle board-vertical symmetrically.
        let a1 = p1.y.atan2(p1.x);
        let a2 = p2.y.atan2(p2.x);
        assert!((a1 - (FRAC_PI_2 + deg_to_rad(15.0))).abs() < 1e-9);
        assert!((a2 - (FRAC_PI_2 - deg_to_rad(15.0))).abs() < 1e-9);
        // A pen-like tag mid-board is readable by both antennas.
        let dipole = pol_axis_at(FRAC_PI_2);
        for idx in 0..2 {
            let obs = RigFactors::freeze(&ch).evaluate(idx, Vec3::new(0.0, 0.7, 0.0), dipole, 0.0);
            assert!(obs.tag_powered, "antenna {idx} cannot power the tag");
        }
    }

    #[test]
    fn walking_bystander_makes_channel_time_varying() {
        let mut ch = bench_channel();
        ch.bystander = Some(Bystander {
            position: Vec3::new(0.4, 0.0, 0.5),
            motion: BystanderMotion::Walking { amplitude_m: 0.5, frequency_hz: 0.5 },
            scattering: 0.25,
            depolarization: 0.9,
        });
        let rig = RigFactors::freeze(&ch);
        let p0 = rig.evaluate(0, Vec3::ZERO, Vec3::X, 0.0).phase_rad;
        let p1 = rig.evaluate(0, Vec3::ZERO, Vec3::X, 0.7).phase_rad;
        assert!(
            rf_core::angle::phase_distance(p0, p1) > 1e-4,
            "moving scatterer must modulate the composite phase"
        );
    }

    #[test]
    fn static_scene_is_time_invariant() {
        let mut ch = bench_channel();
        ch.reflectors = office_clutter();
        let rig = RigFactors::freeze(&ch);
        let a = rig.evaluate(0, Vec3::new(0.1, 0.2, 0.0), Vec3::X, 0.0);
        let b = rig.evaluate(0, Vec3::new(0.1, 0.2, 0.0), Vec3::X, 5.0);
        assert_eq!(a, b);
    }

    // ---- Jones-channel physics laws ------------------------------------

    #[test]
    fn jones_reduces_to_scalar_on_the_whiteboard_rig() {
        // Spot check of the equivalence the dedicated suite sweeps:
        // linear-copolarized rig + empirical surfaces → same observables.
        let scalar = ChannelModel::two_antenna_whiteboard(deg_to_rad(15.0), 0.56, 0.3);
        let mut jones = scalar.clone();
        jones.polarimetry = Polarimetry::Jones;
        for (i, dipole) in [Vec3::X, Vec3::Y, Vec3::new(0.6, 0.8, 0.0), Vec3::new(0.3, -0.7, 0.4)]
            .into_iter()
            .enumerate()
        {
            let pos = Vec3::new(0.1 * i as f64 - 0.15, 0.72, 0.0);
            for idx in 0..2 {
                let a = RigFactors::freeze(&scalar).evaluate(idx, pos, dipole, 0.0);
                let b = RigFactors::freeze(&jones).evaluate(idx, pos, dipole, 0.0);
                assert!((a.rx_power_dbm - b.rx_power_dbm).abs() < 1e-12, "{a:?}\n{b:?}");
                assert!((a.phase_rad - b.phase_rad).abs() < 1e-12);
                assert!((a.forward_power_dbm - b.forward_power_dbm).abs() < 1e-12);
                assert_eq!(a.tag_powered, b.tag_powered);
            }
        }
    }

    #[test]
    fn circular_reader_pays_exactly_3db_at_every_rotation() {
        // Textbook circular→linear polarization loss: the coupling
        // magnitude is 1/√2 for *every* in-plane dipole angle, so forward
        // power sits 3.01 dB below the aligned linear antenna and the
        // round trip doubles that to 6.02 dB — flat across β, which is
        // exactly why the paper swaps the stock circular antennas out.
        let three_db = 10.0 * 2f64.log10();
        let mut lin = bench_channel();
        lin.polarimetry = Polarimetry::Jones;
        let lin0 = RigFactors::freeze(&lin).evaluate(0, Vec3::ZERO, Vec3::X, 0.0);
        let mut circ =
            ChannelModel::free_space(vec![Antenna::circular(Vec3::new(0.0, 0.0, 1.0), -Vec3::Z)]);
        circ.polarimetry = Polarimetry::Jones;
        for deg in [0.0, 20.0, 45.0, 63.0, 90.0, 137.0] {
            let b = deg_to_rad(deg);
            let u = Vec3::new(b.cos(), b.sin(), 0.0);
            let obs = RigFactors::freeze(&circ).evaluate(0, Vec3::ZERO, u, 0.0);
            let fwd_loss = lin0.forward_power_dbm - obs.forward_power_dbm;
            let rx_loss = lin0.rx_power_dbm - obs.rx_power_dbm;
            assert!((fwd_loss - three_db).abs() < 1e-9, "β = {deg}°: fwd loss {fwd_loss}");
            assert!((rx_loss - 2.0 * three_db).abs() < 1e-9, "β = {deg}°: rx loss {rx_loss}");
        }
    }

    #[test]
    fn brewster_angle_kills_the_p_polarized_bounce() {
        // Geometry arranged so the single wall bounce is (a) the only
        // propagation path and (b) purely p-polarized at exactly the
        // Brewster angle for εr = 2: antenna polarized along Z sees its
        // own LoS null toward the tag straight below it, and the wall at
        // x = 1/√8 puts the bounce at tan θ = √2 = √εr.
        let w = 1.0 / 8f64.sqrt();
        let wall = |surface| Reflector {
            point: Vec3::new(w, 0.0, 0.0),
            normal: -Vec3::X,
            reflectivity: 0.8,
            depolarization: 0.6,
            surface,
        };
        let image = Vec3::new(2.0 * w, 0.0, 0.0);
        let pos = Vec3::new(0.0, 0.0, 1.0);
        let ant = Antenna::linear(pos, (image - pos).normalized().unwrap(), Vec3::Z);
        let mut ch = ChannelModel::free_space(vec![ant]);
        ch.polarimetry = Polarimetry::Jones;

        ch.reflectors = vec![wall(Surface::Fresnel { rel_permittivity: 2.0 })];
        let brewster = RigFactors::freeze(&ch).evaluate(0, Vec3::ZERO, Vec3::Z, 0.0);
        // r_p(θ_B) = 0: the bounce vanishes (to fp rounding of θ_B).
        assert!(
            brewster.forward_power_dbm < -150.0,
            "Brewster bounce must vanish, got {} dBm",
            brewster.forward_power_dbm
        );

        // Same geometry off Brewster (εr = 6) or with the empirical
        // boundary: the bounce survives.
        ch.reflectors = vec![wall(Surface::Fresnel { rel_permittivity: 6.0 })];
        let off = RigFactors::freeze(&ch).evaluate(0, Vec3::ZERO, Vec3::Z, 0.0);
        assert!(off.forward_power_dbm > -60.0, "off-Brewster {}", off.forward_power_dbm);
        ch.reflectors = vec![wall(Surface::Empirical)];
        let emp = RigFactors::freeze(&ch).evaluate(0, Vec3::ZERO, Vec3::Z, 0.0);
        assert!(emp.forward_power_dbm > -60.0, "empirical {}", emp.forward_power_dbm);
    }

    #[test]
    fn fresnel_s_bounce_tracks_rs_exactly() {
        // Bounce-only geometry: tag in the antenna's back hemisphere
        // (LoS gain is exactly zero), ceiling bounce oblique in the XZ
        // plane. A Y-polarized antenna radiates purely s-polarized into
        // that plane of incidence, so swapping the perfect mirror for a
        // Fresnel dielectric must shift forward power by 20·log10|r_s|
        // and nothing else.
        let pos = Vec3::new(0.0, 0.0, 1.0);
        let tag = Vec3::new(1.0, 0.0, 0.0);
        let ceiling = |surface| Reflector {
            point: Vec3::new(0.0, 0.0, 2.0),
            normal: -Vec3::Z,
            reflectivity: 1.0,
            depolarization: 0.0,
            surface,
        };
        let image = ceiling(Surface::Empirical).mirror(tag); // (1, 0, 4)
        let boresight = (image - pos).normalized().unwrap();
        // LoS direction (1, 0, −1) is behind this boresight.
        assert!(boresight.dot((tag - pos).normalized().unwrap()) < 0.0);
        let ant = Antenna::linear(pos, boresight, Vec3::Y);
        let mut ch = ChannelModel::free_space(vec![ant]);
        ch.polarimetry = Polarimetry::Jones;

        let eps_r = 3.0;
        let cos_i = boresight.dot(-Vec3::Z).abs();
        let rs = fresnel_rs(eps_r, cos_i);

        ch.reflectors = vec![ceiling(Surface::Fresnel { rel_permittivity: eps_r })];
        let fresnel = RigFactors::freeze(&ch).evaluate(0, tag, Vec3::Y, 0.0);
        ch.reflectors = vec![ceiling(Surface::Empirical)];
        let mirror = RigFactors::freeze(&ch).evaluate(0, tag, Vec3::Y, 0.0);
        let measured = fresnel.forward_power_dbm - mirror.forward_power_dbm;
        let want = 20.0 * rs.abs().log10();
        assert!((measured - want).abs() < 1e-9, "Δ = {measured}, 20·log10|r_s| = {want}");
    }

    #[test]
    fn reconfigurable_tag_dodges_the_cross_polarized_blackout() {
        // Fara-style tag: crossed dipole flips to its orthogonal state
        // and keeps harvesting; the fixed dipole blacks out.
        let mut ch = bench_channel();
        ch.tag = TagPolarization::Reconfigurable;
        let rig = RigFactors::freeze(&ch);
        let rec = rig.evaluate(0, Vec3::ZERO, Vec3::Y, 0.0);
        assert!(rec.tag_powered, "reconfigurable tag must dodge the null");
        let fixed = RigFactors::freeze(&bench_channel()).evaluate(0, Vec3::ZERO, Vec3::Y, 0.0);
        assert!(!fixed.tag_powered);
        // Aligned dipole: the primary state already wins, so the
        // reconfigurable observation matches the fixed one exactly.
        let a = RigFactors::freeze(&bench_channel()).evaluate(0, Vec3::ZERO, Vec3::X, 0.0);
        let b = rig.evaluate(0, Vec3::ZERO, Vec3::X, 0.0);
        assert_eq!(a, b);
    }

    #[test]
    fn cable_phase_shifts_reported_phase_only() {
        let mut ch = bench_channel();
        let base = RigFactors::freeze(&ch).evaluate(0, Vec3::ZERO, Vec3::X, 0.0);
        ch.cable_phase_rad = vec![1.0];
        let shifted = RigFactors::freeze(&ch).evaluate(0, Vec3::ZERO, Vec3::X, 0.0);
        assert_eq!(base.rx_power_dbm, shifted.rx_power_dbm);
        let d = rf_core::angle::phase_diff(shifted.phase_rad, base.phase_rad);
        assert!((d - 1.0).abs() < 1e-9);
    }
}
