//! 2×2 matrices.
//!
//! The paper's final trajectory-correction step (Eq. 10) multiplies the
//! recovered point sequence by a rotation matrix to undo the residual
//! initial-azimuth error; Procrustes analysis in the `recognition` crate
//! also solves for an optimal rotation.

use crate::vec::Vec2;

/// A 2×2 matrix in row-major order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mat2 {
    /// Row 0, column 0.
    pub a: f64,
    /// Row 0, column 1.
    pub b: f64,
    /// Row 1, column 0.
    pub c: f64,
    /// Row 1, column 1.
    pub d: f64,
}

impl Mat2 {
    /// Identity matrix.
    pub const IDENTITY: Mat2 = Mat2 { a: 1.0, b: 0.0, c: 0.0, d: 1.0 };

    /// Construct from rows `[a b; c d]`.
    pub const fn new(a: f64, b: f64, c: f64, d: f64) -> Mat2 {
        Mat2 { a, b, c, d }
    }

    /// Counter-clockwise rotation by `angle` radians.
    pub fn rotation(angle: f64) -> Mat2 {
        let (s, c) = angle.sin_cos();
        Mat2::new(c, -s, s, c)
    }

    /// Uniform scaling.
    pub fn scaling(s: f64) -> Mat2 {
        Mat2::new(s, 0.0, 0.0, s)
    }

    /// Matrix–vector product.
    pub fn apply(self, v: Vec2) -> Vec2 {
        Vec2::new(self.a * v.x + self.b * v.y, self.c * v.x + self.d * v.y)
    }

    /// Determinant.
    pub fn det(self) -> f64 {
        self.a * self.d - self.b * self.c
    }

    /// Transpose.
    pub fn transpose(self) -> Mat2 {
        Mat2::new(self.a, self.c, self.b, self.d)
    }

    /// Inverse; `None` if singular.
    pub fn inverse(self) -> Option<Mat2> {
        let det = self.det();
        if det.abs() < 1e-12 {
            return None;
        }
        Some(Mat2::new(self.d / det, -self.b / det, -self.c / det, self.a / det))
    }
}

impl std::ops::Mul for Mat2 {
    type Output = Mat2;

    /// Matrix–matrix product `self · rhs`.
    fn mul(self, rhs: Mat2) -> Mat2 {
        Mat2::new(
            self.a * rhs.a + self.b * rhs.c,
            self.a * rhs.b + self.b * rhs.d,
            self.c * rhs.a + self.d * rhs.c,
            self.c * rhs.b + self.d * rhs.d,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::FRAC_PI_2;

    #[test]
    fn rotation_is_orthonormal() {
        let r = Mat2::rotation(0.9);
        let rtr = r.transpose() * r;
        assert!((rtr.a - 1.0).abs() < 1e-12 && rtr.b.abs() < 1e-12);
        assert!(rtr.c.abs() < 1e-12 && (rtr.d - 1.0).abs() < 1e-12);
        assert!((r.det() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quarter_turn_maps_x_to_y() {
        let r = Mat2::rotation(FRAC_PI_2);
        let v = r.apply(Vec2::new(1.0, 0.0));
        assert!(v.x.abs() < 1e-12 && (v.y - 1.0).abs() < 1e-12);
    }

    #[test]
    fn inverse_undoes_transform() {
        let m = Mat2::new(2.0, 1.0, -1.0, 3.0);
        let inv = m.inverse().unwrap();
        let id = m * inv;
        assert!((id.a - 1.0).abs() < 1e-12 && id.b.abs() < 1e-12);
        assert!(id.c.abs() < 1e-12 && (id.d - 1.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_has_no_inverse() {
        assert!(Mat2::new(1.0, 2.0, 2.0, 4.0).inverse().is_none());
    }

    #[test]
    fn rotation_composition_adds_angles() {
        let r = Mat2::rotation(0.3) * Mat2::rotation(0.4);
        let expect = Mat2::rotation(0.7);
        assert!((r.a - expect.a).abs() < 1e-12 && (r.b - expect.b).abs() < 1e-12);
    }
}
