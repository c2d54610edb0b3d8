//! Movement distance estimation (§3.4, Eqs. 5–7).
//!
//! Phase deltas bound the per-window displacement from below (triangle
//! inequality against each antenna's range change) while the maximum
//! writing speed bounds it from above, defining the annular *feasible
//! region* of Fig. 12(a). The inter-antenna phase difference adds the
//! hyperbola constraint of Fig. 12(c): the pen must lie where the
//! range *difference* to the two antennas matches the measured
//! `Δθ^{2,1}` up to the 2kπ ambiguity.

use rf_core::{wrap_pi, Vec2, Vec3};

/// Maximum pen speed v_max, m/s (paper: 0.2).
pub const VMAX_MPS: f64 = 0.2;

/// Phase-noise allowance subtracted from each |Δθ| before it enters the
/// lower bound, radians. Without it, measurement noise alone would
/// force the decoder to move every window even for a still pen (the
/// paper's reader averages more reads per window than the noise floor
/// of ours; this keeps the bound meaningful).
pub const NOISE_MARGIN_RAD: f64 = 0.10;

/// The feasible displacement annulus for one timestep (Fig. 12(a)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeasibleRegion {
    /// Lower bound: `max_j |Δl_j|`, metres.
    pub min_dist: f64,
    /// Upper bound: `v_max · Δt`, metres.
    pub max_dist: f64,
}

impl FeasibleRegion {
    /// Whether a displacement magnitude is inside the annulus.
    pub fn contains(&self, dist: f64) -> bool {
        dist >= self.min_dist - 1e-12 && dist <= self.max_dist + 1e-12
    }

    /// Whether the region is non-empty (`min ≤ max`). An empty region
    /// means the phase moved faster than v_max allows — evidence of a
    /// spurious reading that survived pre-processing.
    pub fn is_consistent(&self) -> bool {
        self.min_dist <= self.max_dist
    }
}

/// Eq. 5: convert a per-antenna phase delta (radians, wrapped) into a
/// range change, metres.
pub fn range_delta(dtheta: f64, wavelength_m: f64) -> f64 {
    wrap_pi(dtheta) * wavelength_m / (4.0 * std::f64::consts::PI)
}

/// Compute the feasible annulus from both antennas' phase deltas over a
/// window of `dt` seconds at wavelength `wavelength_m`.
pub fn feasible_region(dth: [Option<f64>; 2], dt: f64, wavelength_m: f64) -> FeasibleRegion {
    let min_dist =
        dth.iter().flatten().map(|&d| denoised_range_delta(d, wavelength_m)).fold(0.0, f64::max);
    FeasibleRegion { min_dist, max_dist: VMAX_MPS * dt }
}

/// `|Δl|` for one phase delta after the [`NOISE_MARGIN_RAD`] allowance.
fn denoised_range_delta(dtheta: f64, wavelength_m: f64) -> f64 {
    let denoised = (wrap_pi(dtheta).abs() - NOISE_MARGIN_RAD).max(0.0);
    range_delta(denoised, wavelength_m).abs()
}

/// The best single displacement estimate from the phase deltas: the
/// largest noise-compensated |Δl_j| (a lower bound on true displacement;
/// the residual scale bias washes out in Procrustes evaluation).
pub fn displacement_estimate(dth: [Option<f64>; 2], wavelength_m: f64) -> f64 {
    feasible_region(dth, f64::INFINITY, wavelength_m).min_dist
}

/// In-plane gradient of the 3-D range `‖p − a_j‖` with the pen on the
/// board plane (z = 0): moving the pen by board vector `v` changes the
/// range by `g_j · v`. Unlike a unit direction, `‖g_j‖ < 1` when the
/// antenna stands off the board — the out-of-plane component of the
/// line of sight does not respond to in-plane motion.
pub fn range_gradient(antenna: Vec3, from: Vec2) -> Vec2 {
    let p = from.with_z(0.0);
    let delta = p - antenna;
    let l = delta.norm();
    if l < 1e-9 {
        Vec2::ZERO
    } else {
        Vec2::new(delta.x / l, delta.y / l)
    }
}

/// Displacement estimate *along a known moving direction* — the
/// Fig. 12(b)×(c) intersection. Each antenna measures the range rate
/// `Δl_j = d · (g_j · dir)`; dividing by the projection recovers `d`.
/// Only antennas whose range gradient projects at least `min_projection`
/// onto the direction contribute (a near-tangential antenna amplifies
/// noise instead of information); falls back to the plain lower bound
/// when neither qualifies.
pub fn directional_displacement(
    dth: [Option<f64>; 2],
    antennas: [Vec3; 2],
    from: Vec2,
    dir: Vec2,
    wavelength_m: f64,
) -> f64 {
    const MIN_PROJECTION: f64 = 0.3;
    let mut best = 0.0_f64;
    for j in 0..2 {
        let Some(d) = dth[j] else { continue };
        let g = range_gradient(antennas[j], from);
        let proj = g.dot(dir).abs();
        if proj < MIN_PROJECTION {
            continue;
        }
        best = best.max(denoised_range_delta(d, wavelength_m) / proj);
    }
    best.max(displacement_estimate(dth, wavelength_m))
}

/// Eq. 7: the set of plausible range-*differences* `Δl^{2,1} = l₂ − l₁`
/// consistent with a measured inter-antenna phase difference, one per
/// integer ambiguity `k`, limited to geometrically possible values
/// (`|Δl| ≤` antenna separation).
pub fn hyperbola_range_differences(
    dtheta21: f64,
    antenna_separation_m: f64,
    wavelength_m: f64,
) -> Vec<f64> {
    let base = wrap_pi(dtheta21) * wavelength_m / (4.0 * std::f64::consts::PI);
    let half_cycle = wavelength_m / 2.0; // 2π of Δθ ↔ λ/2 of Δl
    let k_max = (antenna_separation_m / half_cycle).ceil() as i64 + 1;
    let mut out = Vec::new();
    for k in -k_max..=k_max {
        let dl = base + k as f64 * half_cycle;
        if dl.abs() <= antenna_separation_m {
            out.push(dl);
        }
    }
    out
}

/// The range difference `l₂ − l₁` of a board point (on the z = 0 plane)
/// to the two antennas — the quantity the hyperbola constraint pins
/// down. Full 3-D ranges: the antennas stand off the board.
pub fn range_difference_at(p: Vec2, antennas: [Vec3; 2]) -> f64 {
    let p3 = p.with_z(0.0);
    p3.distance(antennas[1]) - p3.distance(antennas[0])
}

/// Theoretical inter-antenna phase difference (mod 2π, wrapped to
/// `(−π, π]`) at a board point — used by the HMM emission (Eq. 11's
/// `Δθ^{1,2}_{x₁,y₁}` term).
pub fn expected_dtheta21(p: Vec2, antennas: [Vec3; 2], wavelength_m: f64) -> f64 {
    wrap_pi(4.0 * std::f64::consts::PI * range_difference_at(p, antennas) / wavelength_m)
}

/// Distances from `src` to the row of points `(xs[i], y, z)`, written
/// into `out` (lengths must match). The per-row `Δy²`/`Δz²` terms are
/// hoisted; the per-point expression `((Δx² + Δy²) + Δz²).sqrt()`
/// associates exactly like `Vec3::distance`, so each output is
/// **bit-identical** to `Vec3::new(xs[i], y, z).distance(src)`.
fn distances_row(src: Vec3, xs: &[f64], y: f64, z: f64, out: &mut [f64]) {
    let dy = y - src.y;
    let dy2 = dy * dy;
    let dz = z - src.z;
    let dz2 = dz * dz;
    for (o, &x) in out.iter_mut().zip(xs) {
        let dx = x - src.x;
        *o = ((dx * dx + dy2) + dz2).sqrt();
    }
}

/// Row-batched [`expected_dtheta21`]: evaluate a whole grid row of
/// board points `(xs[i], y)` at once, streaming per-antenna distances
/// through the row kernel [`distances_row`] and combining them in
/// place. Holds the per-row distance scratch so a build loop allocates
/// once per worker, not once per row.
///
/// **Bitwise contract:** each output is bit-identical to
/// `expected_dtheta21(Vec2::new(xs[i], y), antennas, wavelength_m)`.
/// The row kernel hoists the per-antenna `Δy²`/`Δz²` terms, and the
/// remaining per-cell expression associates exactly like
/// `Vec3::distance` + the scalar combine — `tests/channel_batch.rs`
/// and the emission-table build both pin this.
#[derive(Debug, Clone, Default)]
pub struct DthetaRowKernel {
    d0: Vec<f64>,
    d1: Vec<f64>,
}

impl DthetaRowKernel {
    /// An empty kernel (scratch grows to the first row's width).
    pub fn new() -> DthetaRowKernel {
        DthetaRowKernel::default()
    }

    /// Evaluate one row: `out[i] = expected_dtheta21((xs[i], y), …)`,
    /// bit for bit.
    ///
    /// # Panics
    /// Panics if `xs` and `out` lengths differ.
    pub fn row(
        &mut self,
        xs: &[f64],
        y: f64,
        antennas: [Vec3; 2],
        wavelength_m: f64,
        out: &mut [f64],
    ) {
        assert_eq!(xs.len(), out.len(), "xs/out length mismatch");
        self.d0.resize(xs.len(), 0.0);
        self.d1.resize(xs.len(), 0.0);
        distances_row(antennas[0], xs, y, 0.0, &mut self.d0);
        distances_row(antennas[1], xs, y, 0.0, &mut self.d1);
        for (i, o) in out.iter_mut().enumerate() {
            // Same expression shape as `expected_dtheta21` (constant ·
            // difference ÷ λ) — bit-identical per cell.
            *o = wrap_pi(4.0 * std::f64::consts::PI * (self.d1[i] - self.d0[i]) / wavelength_m);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LAMBDA: f64 = 0.3276;

    #[test]
    fn eq5_range_delta_scaling() {
        // A full 2π of phase = λ/2 of motion.
        let full = range_delta(std::f64::consts::PI, LAMBDA);
        assert!((full - LAMBDA / 4.0).abs() < 1e-12);
        assert_eq!(range_delta(0.0, LAMBDA), 0.0);
        assert!(range_delta(-0.5, LAMBDA) < 0.0);
    }

    #[test]
    fn feasible_region_bounds() {
        let r = feasible_region([Some(0.2), Some(-0.3)], 0.05, LAMBDA);
        let expect_min = range_delta(0.3 - NOISE_MARGIN_RAD, LAMBDA).abs();
        assert!((r.min_dist - expect_min).abs() < 1e-12, "lower bound is the max |Δl|");
        assert!((r.max_dist - 0.01).abs() < 1e-12, "v_max·Δt = 0.2·0.05");
        assert!(r.is_consistent());
        assert!(r.contains(0.008));
        assert!(!r.contains(0.02));
        assert!(!r.contains(0.0));
    }

    #[test]
    fn missing_phases_relax_the_lower_bound() {
        let r = feasible_region([None, None], 0.05, LAMBDA);
        assert_eq!(r.min_dist, 0.0);
        assert!(r.contains(0.0));
    }

    #[test]
    fn inconsistent_region_detected() {
        // Phase claims ~λ/4 ≈ 8 cm of motion in 50 ms → impossible at
        // v_max = 0.2 m/s.
        let r = feasible_region([Some(3.0), None], 0.05, LAMBDA);
        assert!(!r.is_consistent());
    }

    #[test]
    fn hyperbola_candidates_cover_the_true_difference() {
        let rig = [Vec3::new(-0.28, 0.15, 0.65), Vec3::new(0.28, 0.15, 0.65)];
        let p = Vec2::new(0.07, 0.62);
        let true_dl = range_difference_at(p, rig);
        let dtheta = 4.0 * std::f64::consts::PI * true_dl / LAMBDA;
        let candidates = hyperbola_range_differences(dtheta, 0.56, LAMBDA);
        let best = candidates
            .iter()
            .map(|c| (c - true_dl).abs())
            .fold(f64::INFINITY, f64::min);
        assert!(best < 1e-9, "one candidate must hit the true Δl, best err {best}");
    }

    #[test]
    fn hyperbola_candidates_respect_geometry() {
        let candidates = hyperbola_range_differences(1.0, 0.56, LAMBDA);
        assert!(!candidates.is_empty());
        for c in &candidates {
            assert!(c.abs() <= 0.56, "|l₂ − l₁| can never exceed the baseline");
        }
        // Adjacent candidates are λ/2 apart.
        for w in candidates.windows(2) {
            assert!((w[1] - w[0] - LAMBDA / 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn expected_dtheta_matches_forward_model() {
        let rig = [Vec3::new(-0.28, 0.15, 0.65), Vec3::new(0.28, 0.15, 0.65)];
        let p = Vec2::new(-0.1, 0.8);
        let dl = range_difference_at(p, rig);
        let th = expected_dtheta21(p, rig, LAMBDA);
        let reconstructed = wrap_pi(4.0 * std::f64::consts::PI * dl / LAMBDA);
        assert!((th - reconstructed).abs() < 1e-12);
    }

    #[test]
    fn distances_row_matches_vec3_bitwise() {
        let src = Vec3::new(-0.28, 0.15, 0.30);
        let xs: Vec<f64> = (0..64).map(|i| -0.3 + 0.01 * i as f64).collect();
        let mut out = vec![0.0; xs.len()];
        distances_row(src, &xs, 0.72, 0.0, &mut out);
        for (i, &x) in xs.iter().enumerate() {
            let want = Vec3::new(x, 0.72, 0.0).distance(src);
            assert_eq!(want.to_bits(), out[i].to_bits(), "col {i}");
        }
    }

    #[test]
    fn dtheta_row_kernel_is_bitwise() {
        let rig = [Vec3::new(-0.28, 0.15, 0.65), Vec3::new(0.28, 0.15, 0.65)];
        let xs: Vec<f64> = (0..97).map(|i| -0.45 + 0.01 * i as f64).collect();
        let mut kernel = DthetaRowKernel::new();
        let mut out = vec![0.0; xs.len()];
        for row in 0..5 {
            let y = 0.4 + 0.11 * row as f64;
            kernel.row(&xs, y, rig, LAMBDA, &mut out);
            for (i, &x) in xs.iter().enumerate() {
                let want = expected_dtheta21(Vec2::new(x, y), rig, LAMBDA);
                assert_eq!(want.to_bits(), out[i].to_bits(), "row {row} col {i}");
            }
        }
    }

    #[test]
    fn equidistant_point_has_zero_difference() {
        let rig = [Vec3::new(-0.28, 0.15, 0.65), Vec3::new(0.28, 0.15, 0.65)];
        let p = Vec2::new(0.0, 0.7); // on the perpendicular bisector
        assert!(range_difference_at(p, rig).abs() < 1e-12);
        assert!(expected_dtheta21(p, rig, LAMBDA).abs() < 1e-12);
    }
}
