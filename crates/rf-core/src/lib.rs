//! # rf-core — foundations for the PolarDraw reproduction
//!
//! Small, dependency-light building blocks shared by every other crate in
//! the workspace:
//!
//! * [`vec`] — 2-D and 3-D vectors with the handful of operations an RF
//!   geometry simulation needs (dot/cross products, norms, projections).
//! * [`angle`] — angle wrapping and conversion helpers. Phase arithmetic on
//!   the unit circle is the single most bug-prone part of RFID tracking
//!   code, so it lives here behind a tested API.
//! * [`complex`] — a minimal `Complex` type for baseband channel gains.
//! * [`db`] — decibel/linear power conversions (dBm ↔ mW, dB ↔ ratio).
//! * [`mat`] — 2×2 matrices (rotations for trajectory correction, Eq. 10
//!   of the paper).
//! * [`stats`] — descriptive statistics used by the evaluation harness
//!   (means, percentiles, empirical CDFs).
//! * [`rng`] — the workspace-standard seeded PRNG (xoshiro256++) and
//!   seed derivation so that every experiment in the workspace is
//!   reproducible from a single `u64`.
//! * [`par`] — the workspace's scoped-thread fan-out primitives
//!   ([`parallel_map`] and [`par::parallel_for_each_mut`]), shared by
//!   experiment trial sweeps, the emission-table row build, and the
//!   multi-session fleet router's drains and finish.
//! * [`json`] — a minimal JSON writer/parser so result dumps and
//!   scenario configs need no external serialization crate.
//! * [`crc`] — CRC-32 (IEEE) for checksummed checkpoint envelopes.
//! * [`store`] — the [`store::BlobStore`] virtual key/bytes store the
//!   durability layer persists through (with [`store::MemBlobStore`]
//!   as the in-memory reference backend).
//!
//! Nothing in this crate knows about RFID, antennas, or pens; it is pure
//! math. Higher layers are `rf-physics` (electromagnetics), `rfid-sim`
//! (the reader/tag protocol), `pen-sim` (the workload), `polardraw-core`
//! (the paper's algorithm), `baselines`, `recognition`, and `experiments`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod angle;
pub mod complex;
pub mod crc;
pub mod db;
pub mod json;
pub mod store;
pub mod mat;
pub mod par;
pub mod rng;
pub mod stats;
pub mod vec;

pub use angle::{deg_to_rad, rad_to_deg, wrap_pi, wrap_tau, Angle};
pub use complex::Complex;
pub use crc::crc32;
pub use db::{db_to_ratio, dbm_to_mw, mw_to_dbm, ratio_to_db};
pub use json::{FromJson, Json, JsonError, ToJson};
pub use mat::Mat2;
pub use par::{chunk_bounds, parallel_for_each_mut, parallel_map};
pub use rng::Rng64;
pub use store::{BlobStore, MemBlobStore};
pub use vec::{Vec2, Vec3};

/// Speed of light in vacuum, metres per second.
pub const SPEED_OF_LIGHT: f64 = 299_792_458.0;

/// Convert a carrier frequency in hertz to its wavelength in metres.
///
/// The UHF RFID band in the US spans 902–928 MHz, giving wavelengths of
/// roughly 32.3–33.2 cm; the paper's λ/2 ≈ 16 cm displacement bound
/// (§3.4) comes straight from this.
///
/// # Examples
/// ```
/// let lambda = rf_core::wavelength(915.0e6);
/// assert!((lambda - 0.3276).abs() < 1e-3);
/// ```
pub fn wavelength(freq_hz: f64) -> f64 {
    SPEED_OF_LIGHT / freq_hz
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wavelength_of_uhf_band() {
        // 902 and 928 MHz bracket the FCC band; both must be ~33 cm.
        assert!((wavelength(902.0e6) - 0.33236).abs() < 1e-4);
        assert!((wavelength(928.0e6) - 0.32305).abs() < 1e-4);
    }

    #[test]
    fn half_wavelength_matches_papers_16cm_bound() {
        let half = wavelength(915.0e6) / 2.0;
        assert!((half - 0.1638).abs() < 1e-3, "λ/2 ≈ 16 cm per §3.4");
    }
}
