//! # polardraw-core — the PolarDraw tracking algorithm
//!
//! Faithful implementation of §3 of *"Leveraging Electromagnetic
//! Polarization in a Two-Antenna Whiteboard in the Air"* (CoNEXT 2016):
//! recover a pen's trajectory from the RSS and phase reported by **two**
//! linearly-polarized RFID antennas.
//!
//! The pipeline mirrors Figure 5 of the paper:
//!
//! 1. [`preprocess`] — 50 ms window averaging of RSS and phase, plus
//!    rejection of the "spurious" phase readings that occur when the tag
//!    is nearly cross-polarized and only multipath energy reaches it
//!    (§3.1).
//! 2. [`model`] — the writing model (§3.2): pen azimuth/elevation
//!    geometry (Eq. 1), the sector construction of Fig. 8(c), the
//!    Table 3 RSS-trend decision rules and the Table 4 phase-trend
//!    rules.
//! 3. [`rotation`] — rotational movement direction estimation (§3.3.1):
//!    continuous azimuth tracking (Eqs. 2–4) with sector-boundary
//!    correction.
//! 4. [`translation`] — translational movement direction estimation
//!    from inter-antenna phase trends (§3.3.2).
//! 5. [`distance`] — movement distance bounds from per-antenna phase
//!    deltas and the inter-antenna hyperbola constraint (§3.4,
//!    Eqs. 5–7).
//! 6. [`hmm`] — the discrete-cell HMM with Eq. 8 transitions and Eq. 11
//!    emissions, decoded with Viterbi (§3.5), plus the final trajectory
//!    rotation correction (Eq. 10).
//! 7. [`smoother`] — the paper's declared future work (§3.5 footnote):
//!    a constant-velocity Kalman/RTS smoother over the decoded trail,
//!    enabled by [`PolarDrawConfig::smooth_output`].
//!
//! The whole thing is wired together by [`PolarDraw`], which implements
//! [`rfid_sim::TrajectoryTracker`]. Setting
//! [`PolarDrawConfig::use_polarization`] to `false` reproduces the
//! Table 6 ablation (trajectory tracking without polarization).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod distance;
pub mod durability;
pub mod fleet;
pub mod hmm;
pub mod model;
pub mod online;
pub mod preprocess;
pub mod rotation;
pub mod smoother;
pub mod translation;

mod pipeline;

pub use durability::{open_checkpoint, seal_checkpoint, CheckpointStore, RestoreError};
pub use fleet::{FleetConfig, FleetRouter, ShardKey};
pub use online::{OnlineOptions, OnlineTracker};
pub use pipeline::{DegradationReport, PolarDraw, PolarDrawConfig, StepEstimate, StepKind, TrackOutput};
