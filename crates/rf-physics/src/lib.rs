//! # rf-physics — electromagnetic substrate for the PolarDraw reproduction
//!
//! The paper's measurements come from real UHF RFID hardware in a
//! cluttered office. This crate replaces that hardware with a
//! physics-grade simulation of the monostatic backscatter link:
//!
//! * [`polarization`] — the heart of the paper: the scalar `ê·u`
//!   coupling between a linearly-polarized reader antenna and the tag's
//!   dipole (the cos β law of Figure 1/3(b)), plus the full Jones
//!   calculus — [`polarization::PolBasis`] ray frames,
//!   [`polarization::JonesVector`] fields, 2×2 [`polarization::Jones`]
//!   legs, and [`polarization::PolState`] (linear/circular/elliptical)
//!   — for everything the scalar reduction cannot express.
//! * [`antenna`] — linearly/circularly polarized antenna models with
//!   patch-like gain patterns, each also exposable as a Jones pattern
//!   ([`Antenna::jones_along`]).
//! * [`propagation`] — free-space and log-distance path loss.
//! * [`multipath`] — image-method planar reflectors (walls, the
//!   whiteboard's surroundings) and a bystander scatterer (static or
//!   walking), both of which rotate polarization on reflection. These
//!   produce the "spurious" phase readings of §2 that PolarDraw's
//!   pre-processing must reject, and the interference regimes of Fig. 16.
//!   Reflectors carry a [`multipath::Surface`] boundary model: the
//!   calibrated empirical bounce or a lossless-dielectric Fresnel
//!   boundary with proper s/p coefficients.
//! * [`channel`] — composes everything into a time-varying complex
//!   channel: one-way field sum `F = Σ_p f_p`, round-trip backscatter
//!   `h = m·F²`, forward tag power for the sensitivity gate. A
//!   [`ChannelModel`] describes the rig; [`RigFactors::freeze`] hoists
//!   its pose-independent factors (per FCC channel for the carrier) and
//!   [`RigFactors::evaluate`] is the one link evaluator. Runs either
//!   the scalar fast path or full Jones propagation
//!   ([`channel::Polarimetry`]), with fixed or polarization-
//!   reconfigurable tags ([`channel::TagPolarization`]).
//! * [`noise`] — thermal floor, RSS and phase measurement noise.
//! * [`spectrum`] — the FCC 902–928 MHz channel plan with an optional
//!   frequency-hopping sequence (the paper implicitly uses per-channel
//!   processing; fixed-channel is the default).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod antenna;
pub mod channel;
pub mod multipath;
pub mod noise;
pub mod polarization;
pub mod propagation;
pub mod spectrum;

pub use antenna::{Antenna, Polarization};
pub use channel::{ChannelModel, LinkObservation, Polarimetry, RigFactors, TagPolarization};
pub use multipath::{fresnel_rp, fresnel_rs, Bystander, BystanderMotion, Reflector, Surface};
pub use noise::NoiseModel;
pub use polarization::{Jones, JonesVector, PolBasis, PolState};
pub use spectrum::ChannelPlan;
