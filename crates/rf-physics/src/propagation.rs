//! Path-loss models.
//!
//! At whiteboard ranges (0.2–2.5 m) the line-of-sight path dominates and
//! free-space loss is an excellent model; the log-distance generalization
//! is kept for the longer-range sweeps (Table 5 / Fig. 22 go out to
//! 140 cm and the feasibility rig sits at 2.5 m).

/// One-way free-space *amplitude* factor `λ / (4π d)`.
///
/// Squaring gives the Friis power ratio for isotropic ends; antenna gains
/// are applied separately by the channel model.
pub fn free_space_amplitude(distance_m: f64, wavelength_m: f64) -> f64 {
    if distance_m <= 0.0 {
        return 0.0;
    }
    wavelength_m / (4.0 * std::f64::consts::PI * distance_m)
}

/// One-way free-space path loss in dB (positive number).
pub fn free_space_loss_db(distance_m: f64, wavelength_m: f64) -> f64 {
    let a = free_space_amplitude(distance_m, wavelength_m);
    if a <= 0.0 {
        f64::INFINITY
    } else {
        -20.0 * a.log10()
    }
}

/// Log-distance path loss in dB relative to a 1 m reference:
/// `PL(d) = PL(d₀) + 10·n·log10(d/d₀)` with `d₀ = 1 m` and
/// `PL(d₀) = reference_loss_db` (the free-space loss at 1 m,
/// [`free_space_loss_db`]`(1.0, λ)`, which callers hoist per carrier).
pub fn log_distance_loss_db(distance_m: f64, reference_loss_db: f64, exponent: f64) -> f64 {
    if distance_m <= 0.0 {
        return f64::INFINITY;
    }
    reference_loss_db + 10.0 * exponent * distance_m.log10()
}

#[cfg(test)]
mod tests {
    use super::*;

    const LAMBDA: f64 = 0.3276; // 915 MHz

    #[test]
    fn friis_at_one_metre() {
        // λ/(4π·1) ≈ 0.02607 → ~31.7 dB one-way loss at 915 MHz.
        let db = free_space_loss_db(1.0, LAMBDA);
        assert!((db - 31.67).abs() < 0.05, "got {db}");
    }

    #[test]
    fn amplitude_halves_when_distance_doubles() {
        let a1 = free_space_amplitude(1.0, LAMBDA);
        let a2 = free_space_amplitude(2.0, LAMBDA);
        assert!((a1 / a2 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn log_distance_with_exponent_two_equals_free_space() {
        for d in [0.3, 1.0, 2.5] {
            let fs = free_space_loss_db(d, LAMBDA);
            let ld = log_distance_loss_db(d, free_space_loss_db(1.0, LAMBDA), 2.0);
            assert!((fs - ld).abs() < 1e-9, "d = {d}");
        }
    }

    #[test]
    fn larger_exponent_means_more_loss_beyond_reference() {
        let n2 = log_distance_loss_db(3.0, free_space_loss_db(1.0, LAMBDA), 2.0);
        let n3 = log_distance_loss_db(3.0, free_space_loss_db(1.0, LAMBDA), 3.0);
        assert!(n3 > n2);
        // ... and *less* loss inside the reference distance.
        let m2 = log_distance_loss_db(0.5, free_space_loss_db(1.0, LAMBDA), 2.0);
        let m3 = log_distance_loss_db(0.5, free_space_loss_db(1.0, LAMBDA), 3.0);
        assert!(m3 < m2);
    }

    #[test]
    fn degenerate_distances() {
        assert_eq!(free_space_amplitude(0.0, LAMBDA), 0.0);
        assert_eq!(free_space_loss_db(0.0, LAMBDA), f64::INFINITY);
        assert_eq!(log_distance_loss_db(-1.0, free_space_loss_db(1.0, LAMBDA), 2.0), f64::INFINITY);
    }
}
