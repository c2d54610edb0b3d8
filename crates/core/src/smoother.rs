//! Trajectory smoothing — the paper's stated future work.
//!
//! §3.5, footnote 5: *"We leave more sophisticated motion modeling, such
//! as the Kalman and Particle filters, for future work."* This module
//! supplies that: a constant-velocity Kalman filter with a
//! Rauch–Tung–Striebel backward pass, applied to the Viterbi output.
//! Cell-quantized trails come out staircase-shaped; the smoother
//! restores sub-cell continuity without distorting letter shapes.
//!
//! State per axis: `[position, velocity]`; the two axes are independent
//! (diagonal process/measurement covariances), so the filter runs as two
//! scalar-pair filters for clarity and speed.

use rf_core::Vec2;

/// Process noise: white acceleration spectral density, (m/s²)²·s.
/// Writing is smooth; 0.5–2 works well.
pub const ACCEL_DENSITY: f64 = 1.0;

/// Measurement noise std-dev, metres (≈ the HMM cell size).
pub const MEASUREMENT_SIGMA_M: f64 = 0.004;

#[derive(Debug, Clone, Copy)]
struct AxisState {
    // State mean [x, v] and covariance [[p00, p01], [p01, p11]].
    x: f64,
    v: f64,
    p00: f64,
    p01: f64,
    p11: f64,
}

/// Smooth a timed trail with a constant-velocity RTS smoother.
///
/// `times` and `points` must have equal length; returns the smoothed
/// points (same length). Inputs shorter than 3 points are returned
/// unchanged.
pub fn smooth(times: &[f64], points: &[Vec2]) -> Vec<Vec2> {
    assert_eq!(times.len(), points.len(), "times/points length mismatch");
    let n = points.len();
    if n < 3 {
        return points.to_vec();
    }
    let xs: Vec<f64> = points.iter().map(|p| p.x).collect();
    let ys: Vec<f64> = points.iter().map(|p| p.y).collect();
    let sx = smooth_axis(times, &xs);
    let sy = smooth_axis(times, &ys);
    sx.into_iter().zip(sy).map(|(x, y)| Vec2::new(x, y)).collect()
}

fn smooth_axis(times: &[f64], zs: &[f64]) -> Vec<f64> {
    let n = zs.len();
    let r = MEASUREMENT_SIGMA_M.powi(2);
    let q = ACCEL_DENSITY;

    // Forward pass, storing filtered and predicted states.
    let mut filtered: Vec<AxisState> = Vec::with_capacity(n);
    let mut predicted: Vec<AxisState> = Vec::with_capacity(n);
    let mut state = AxisState { x: zs[0], v: 0.0, p00: r, p01: 0.0, p11: 0.25 };
    predicted.push(state);
    // First measurement update.
    state = update(state, zs[0], r);
    filtered.push(state);

    for i in 1..n {
        let dt = (times[i] - times[i - 1]).max(1e-4);
        let pred = predict(state, dt, q);
        predicted.push(pred);
        state = update(pred, zs[i], r);
        filtered.push(state);
    }

    // RTS backward pass.
    let mut smoothed = filtered.clone();
    for i in (0..n - 1).rev() {
        let dt = (times[i + 1] - times[i]).max(1e-4);
        let f = &filtered[i];
        let pr = &predicted[i + 1];
        // Cross covariance of [x,v]_i with predicted state i+1:
        // P_i · Fᵀ where F = [[1, dt], [0, 1]].
        let c00 = f.p00 + dt * f.p01;
        let c01 = f.p01;
        let c10 = f.p01 + dt * f.p11;
        let c11 = f.p11;
        // Gain G = C · P_pred⁻¹.
        let det = pr.p00 * pr.p11 - pr.p01 * pr.p01;
        if det.abs() < 1e-18 {
            continue;
        }
        let (i00, i01, i11) = (pr.p11 / det, -pr.p01 / det, pr.p00 / det);
        let g00 = c00 * i00 + c01 * i01;
        let g01 = c00 * i01 + c01 * i11;
        let g10 = c10 * i00 + c11 * i01;
        let g11 = c10 * i01 + c11 * i11;
        let dx = smoothed[i + 1].x - pr.x;
        let dv = smoothed[i + 1].v - pr.v;
        smoothed[i].x = f.x + g00 * dx + g01 * dv;
        smoothed[i].v = f.v + g10 * dx + g11 * dv;
    }
    smoothed.into_iter().map(|s| s.x).collect()
}

fn predict(s: AxisState, dt: f64, q: f64) -> AxisState {
    // F = [[1, dt], [0, 1]]; Q for white acceleration.
    let q00 = q * dt.powi(3) / 3.0;
    let q01 = q * dt.powi(2) / 2.0;
    let q11 = q * dt;
    AxisState {
        x: s.x + dt * s.v,
        v: s.v,
        p00: s.p00 + 2.0 * dt * s.p01 + dt * dt * s.p11 + q00,
        p01: s.p01 + dt * s.p11 + q01,
        p11: s.p11 + q11,
    }
}

fn update(s: AxisState, z: f64, r: f64) -> AxisState {
    let innov = z - s.x;
    let denom = s.p00 + r;
    let k0 = s.p00 / denom;
    let k1 = s.p01 / denom;
    AxisState {
        x: s.x + k0 * innov,
        v: s.v + k1 * innov,
        p00: (1.0 - k0) * s.p00,
        p01: (1.0 - k0) * s.p01,
        p11: s.p11 - k1 * s.p01,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn staircase(n: usize, cell: f64) -> (Vec<f64>, Vec<Vec2>) {
        // True motion: straight diagonal; measurements quantized to a
        // cell grid (what the Viterbi emits).
        let times: Vec<f64> = (0..n).map(|i| i as f64 * 0.05).collect();
        let points: Vec<Vec2> = times
            .iter()
            .map(|&t| {
                let x = 0.04 * t;
                let y = 0.03 * t;
                Vec2::new((x / cell).round() * cell, (y / cell).round() * cell)
            })
            .collect();
        (times, points)
    }

    #[test]
    fn smoothing_reduces_quantization_error() {
        let (times, quantized) = staircase(80, 0.005);
        let smoothed = smooth(&times, &quantized);
        let err = |pts: &[Vec2]| -> f64 {
            times
                .iter()
                .zip(pts)
                .map(|(&t, p)| p.distance(Vec2::new(0.04 * t, 0.03 * t)).powi(2))
                .sum::<f64>()
                .sqrt()
        };
        assert!(
            err(&smoothed) < 0.8 * err(&quantized),
            "smoothed {:.4} vs raw {:.4}",
            err(&smoothed),
            err(&quantized)
        );
    }

    #[test]
    fn short_inputs_pass_through() {
        let times = vec![0.0, 0.05];
        let pts = vec![Vec2::new(0.0, 0.0), Vec2::new(0.01, 0.0)];
        assert_eq!(smooth(&times, &pts), pts);
        assert!(smooth(&[], &[]).is_empty());
    }

    #[test]
    fn constant_input_stays_constant() {
        let times: Vec<f64> = (0..50).map(|i| i as f64 * 0.05).collect();
        let pts = vec![Vec2::new(0.1, 0.2); 50];
        let smoothed = smooth(&times, &pts);
        for p in smoothed {
            assert!(p.distance(Vec2::new(0.1, 0.2)) < 1e-6);
        }
    }

    #[test]
    fn corners_are_preserved_not_oversmoothed() {
        // An L-shape must stay an L (recognition depends on it).
        let mut times = Vec::new();
        let mut pts = Vec::new();
        for i in 0..40 {
            times.push(i as f64 * 0.05);
            if i < 20 {
                pts.push(Vec2::new(0.0, 0.005 * i as f64));
            } else {
                pts.push(Vec2::new(0.005 * (i - 20) as f64, 0.095));
            }
        }
        let smoothed = smooth(&times, &pts);
        // The corner point must not be dragged more than ~1.5 cells.
        let corner = smoothed[20];
        assert!(corner.distance(pts[20]) < 0.008, "corner moved to {corner:?}");
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_inputs_panic() {
        smooth(&[0.0], &[]);
    }
}
