//! 2-D and 3-D vector types.
//!
//! The whiteboard surface is modelled as the X–Y plane, so most tracking
//! code works with [`Vec2`]; the electromagnetic substrate needs [`Vec3`]
//! for antenna positions, pen/tag dipole orientation, and multipath
//! reflector geometry.

use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A 2-D vector / point on the whiteboard plane, in metres.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    /// Horizontal board coordinate (rightward positive).
    pub x: f64,
    /// Vertical board coordinate (paper plots use downward-positive Y).
    pub y: f64,
}

impl Vec2 {
    /// The zero vector.
    pub const ZERO: Vec2 = Vec2 { x: 0.0, y: 0.0 };

    /// Construct from components.
    pub const fn new(x: f64, y: f64) -> Self {
        Vec2 { x, y }
    }

    /// Euclidean norm.
    pub fn norm(self) -> f64 {
        self.x.hypot(self.y)
    }

    /// Squared Euclidean norm (avoids the `sqrt` when only comparing).
    pub fn norm_sq(self) -> f64 {
        self.x * self.x + self.y * self.y
    }

    /// Dot product.
    pub fn dot(self, other: Vec2) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// 2-D cross product (z-component of the 3-D cross product).
    pub fn cross(self, other: Vec2) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Distance to another point.
    pub fn distance(self, other: Vec2) -> f64 {
        (self - other).norm()
    }

    /// Unit vector in the same direction; `None` for (near-)zero vectors.
    pub fn normalized(self) -> Option<Vec2> {
        let n = self.norm();
        if n < 1e-12 {
            None
        } else {
            Some(self / n)
        }
    }

    /// The unit vector at `angle` radians from the +X axis.
    pub fn from_angle(angle: f64) -> Vec2 {
        Vec2::new(angle.cos(), angle.sin())
    }

    /// Angle of this vector from the +X axis, in (−π, π].
    pub fn angle(self) -> f64 {
        self.y.atan2(self.x)
    }

    /// Rotate by `angle` radians counter-clockwise.
    pub fn rotated(self, angle: f64) -> Vec2 {
        let (s, c) = angle.sin_cos();
        Vec2::new(c * self.x - s * self.y, s * self.x + c * self.y)
    }

    /// Linear interpolation: `self` at `t = 0`, `other` at `t = 1`.
    pub fn lerp(self, other: Vec2, t: f64) -> Vec2 {
        self + (other - self) * t
    }

    /// Promote to a 3-D vector with the given z-component.
    pub fn with_z(self, z: f64) -> Vec3 {
        Vec3::new(self.x, self.y, z)
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    fn add(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign for Vec2 {
    fn add_assign(&mut self, rhs: Vec2) {
        *self = *self + rhs;
    }
}

impl Sub for Vec2 {
    type Output = Vec2;
    fn sub(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl SubAssign for Vec2 {
    fn sub_assign(&mut self, rhs: Vec2) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for Vec2 {
    type Output = Vec2;
    fn mul(self, s: f64) -> Vec2 {
        Vec2::new(self.x * s, self.y * s)
    }
}

impl Div<f64> for Vec2 {
    type Output = Vec2;
    fn div(self, s: f64) -> Vec2 {
        Vec2::new(self.x / s, self.y / s)
    }
}

impl Neg for Vec2 {
    type Output = Vec2;
    fn neg(self) -> Vec2 {
        Vec2::new(-self.x, -self.y)
    }
}

/// A 3-D vector / point, in metres.
///
/// Board convention: X rightward along the board, Y downward along the
/// board (matching the paper's trajectory plots), Z out of the board
/// toward the writer.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    /// X component.
    pub x: f64,
    /// Y component.
    pub y: f64,
    /// Z component.
    pub z: f64,
}

impl Vec3 {
    /// The zero vector.
    pub const ZERO: Vec3 = Vec3 { x: 0.0, y: 0.0, z: 0.0 };
    /// Unit X.
    pub const X: Vec3 = Vec3 { x: 1.0, y: 0.0, z: 0.0 };
    /// Unit Y.
    pub const Y: Vec3 = Vec3 { x: 0.0, y: 1.0, z: 0.0 };
    /// Unit Z.
    pub const Z: Vec3 = Vec3 { x: 0.0, y: 0.0, z: 1.0 };

    /// Construct from components.
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    /// Euclidean norm.
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Squared Euclidean norm.
    pub fn norm_sq(self) -> f64 {
        self.dot(self)
    }

    /// Dot product.
    pub fn dot(self, other: Vec3) -> f64 {
        self.x * other.x + self.y * other.y + self.z * other.z
    }

    /// Cross product.
    pub fn cross(self, other: Vec3) -> Vec3 {
        Vec3::new(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )
    }

    /// Distance to another point.
    pub fn distance(self, other: Vec3) -> f64 {
        (self - other).norm()
    }

    /// Unit vector in the same direction; `None` for (near-)zero vectors.
    pub fn normalized(self) -> Option<Vec3> {
        let n = self.norm();
        if n < 1e-12 {
            None
        } else {
            Some(self / n)
        }
    }

    /// Component of `self` perpendicular to the (unit) direction `axis`.
    ///
    /// Used to project a tag's dipole onto the plane transverse to a
    /// line-of-sight: the transverse component is what couples to a
    /// linearly-polarized antenna.
    pub fn reject_from(self, axis: Vec3) -> Vec3 {
        self - axis * self.dot(axis)
    }

    /// Drop the z-component.
    pub fn xy(self) -> Vec2 {
        Vec2::new(self.x, self.y)
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    fn add(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl AddAssign for Vec3 {
    fn add_assign(&mut self, rhs: Vec3) {
        *self = *self + rhs;
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    fn sub(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl SubAssign for Vec3 {
    fn sub_assign(&mut self, rhs: Vec3) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    fn mul(self, s: f64) -> Vec3 {
        Vec3::new(self.x * s, self.y * s, self.z * s)
    }
}

impl Div<f64> for Vec3 {
    type Output = Vec3;
    fn div(self, s: f64) -> Vec3 {
        Vec3::new(self.x / s, self.y / s, self.z / s)
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

impl crate::json::ToJson for Vec2 {
    fn to_json(&self) -> crate::json::Json {
        crate::json::Json::Arr(vec![
            crate::json::Json::Num(self.x),
            crate::json::Json::Num(self.y),
        ])
    }
}

impl crate::json::FromJson for Vec2 {
    fn from_json(v: &crate::json::Json) -> Result<Vec2, crate::json::JsonError> {
        match v.as_arr() {
            Some([x, y]) => match (x.as_f64(), y.as_f64()) {
                (Some(x), Some(y)) => Ok(Vec2::new(x, y)),
                _ => Err(bad_vec("Vec2: non-numeric component")),
            },
            _ => Err(bad_vec("Vec2: expected [x, y]")),
        }
    }
}

impl crate::json::ToJson for Vec3 {
    fn to_json(&self) -> crate::json::Json {
        crate::json::Json::Arr(vec![
            crate::json::Json::Num(self.x),
            crate::json::Json::Num(self.y),
            crate::json::Json::Num(self.z),
        ])
    }
}

impl crate::json::FromJson for Vec3 {
    fn from_json(v: &crate::json::Json) -> Result<Vec3, crate::json::JsonError> {
        match v.as_arr() {
            Some([x, y, z]) => match (x.as_f64(), y.as_f64(), z.as_f64()) {
                (Some(x), Some(y), Some(z)) => Ok(Vec3::new(x, y, z)),
                _ => Err(bad_vec("Vec3: non-numeric component")),
            },
            _ => Err(bad_vec("Vec3: expected [x, y, z]")),
        }
    }
}

fn bad_vec(message: &str) -> crate::json::JsonError {
    crate::json::JsonError { message: message.to_string(), offset: 0 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec2_basic_algebra() {
        let a = Vec2::new(3.0, 4.0);
        let b = Vec2::new(-1.0, 2.0);
        assert_eq!(a.norm(), 5.0);
        assert_eq!(a + b, Vec2::new(2.0, 6.0));
        assert_eq!(a - b, Vec2::new(4.0, 2.0));
        assert_eq!(a * 2.0, Vec2::new(6.0, 8.0));
        assert_eq!(a.dot(b), 5.0);
        assert_eq!(a.cross(b), 10.0);
    }

    #[test]
    fn vec2_rotation_quarter_turn() {
        let v = Vec2::new(1.0, 0.0).rotated(std::f64::consts::FRAC_PI_2);
        assert!(v.x.abs() < 1e-12);
        assert!((v.y - 1.0).abs() < 1e-12);
    }

    #[test]
    fn vec2_angle_round_trip() {
        for k in 0..16 {
            let a = -3.0 + 0.4 * k as f64;
            let v = Vec2::from_angle(a);
            let diff = (v.angle() - a).rem_euclid(std::f64::consts::TAU);
            assert!(diff.min(std::f64::consts::TAU - diff) < 1e-9);
        }
    }

    #[test]
    fn vec2_normalized_zero_is_none() {
        assert!(Vec2::ZERO.normalized().is_none());
        assert!(Vec2::new(1e-15, 0.0).normalized().is_none());
    }

    #[test]
    fn vec2_lerp_endpoints_and_midpoint() {
        let a = Vec2::new(0.0, 0.0);
        let b = Vec2::new(2.0, 4.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Vec2::new(1.0, 2.0));
    }

    #[test]
    fn vec3_cross_follows_right_hand_rule() {
        assert_eq!(Vec3::X.cross(Vec3::Y), Vec3::Z);
        assert_eq!(Vec3::Y.cross(Vec3::Z), Vec3::X);
        assert_eq!(Vec3::Z.cross(Vec3::X), Vec3::Y);
    }

    #[test]
    fn vec3_rejection_is_orthogonal_to_axis() {
        let v = Vec3::new(1.0, 2.0, 3.0);
        let axis = Vec3::new(0.0, 0.0, 1.0);
        let r = v.reject_from(axis);
        assert!(r.dot(axis).abs() < 1e-12);
        assert_eq!(r, Vec3::new(1.0, 2.0, 0.0));
    }

    #[test]
    fn vec3_distance_symmetric() {
        let a = Vec3::new(1.0, 1.0, 1.0);
        let b = Vec3::new(2.0, 3.0, 5.0);
        assert_eq!(a.distance(b), b.distance(a));
        assert!((a.distance(b) - 21f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn vectors_round_trip_through_json() {
        use crate::json::{FromJson, Json, ToJson};
        let v2 = Vec2::new(-0.25, 1e-3);
        assert_eq!(Vec2::from_json(&Json::parse(&v2.to_json().to_json_string()).unwrap()).unwrap(), v2);
        let v3 = Vec3::new(0.1, -0.0, 2.5e8);
        assert_eq!(Vec3::from_json(&Json::parse(&v3.to_json().to_json_string()).unwrap()).unwrap(), v3);
        assert!(Vec2::from_json(&Json::parse("[1,2,3]").unwrap()).is_err());
        assert!(Vec3::from_json(&Json::parse("[1,2,\"x\"]").unwrap()).is_err());
    }
}
