//! 2-D points and vectors in metric space.
//!
//! The testbed room, anchors, antennas, reflectors and the tag all live in a
//! 2-D plane (the paper's evaluation is planar: anchors at the edge midpoints
//! of a 5 m × 6 m room, Fig. 7c). `P2` doubles as point and vector.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A point (or vector) in the 2-D plane, metres.
#[derive(Clone, Copy, PartialEq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct P2 {
    /// X coordinate, metres.
    pub x: f64,
    /// Y coordinate, metres.
    pub y: f64,
}

impl P2 {
    /// The origin.
    pub const ORIGIN: P2 = P2 { x: 0.0, y: 0.0 };

    /// Builds a point from coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// Euclidean distance to `other`, metres.
    #[inline]
    pub fn dist(self, other: P2) -> f64 {
        (self.x - other.x).hypot(self.y - other.y)
    }

    /// Squared distance (no sqrt).
    #[inline]
    pub fn dist_sq(self, other: P2) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Vector length, metres.
    #[inline]
    pub fn norm(self) -> f64 {
        self.x.hypot(self.y)
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, other: P2) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// 2-D cross product (z-component of the 3-D cross product).
    #[inline]
    pub fn cross(self, other: P2) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Unit vector in the direction of `self`; zero vector maps to zero.
    #[inline]
    pub fn normalize(self) -> P2 {
        let n = self.norm();
        if n == 0.0 {
            P2::ORIGIN
        } else {
            self / n
        }
    }

    /// The vector rotated 90° counter-clockwise.
    #[inline]
    pub fn perp(self) -> P2 {
        P2::new(-self.y, self.x)
    }

    /// Unit vector at angle `theta` radians from the +x axis.
    #[inline]
    pub fn from_angle(theta: f64) -> P2 {
        let (s, c) = theta.sin_cos();
        P2::new(c, s)
    }

    /// Angle of the vector from the +x axis, radians in (−π, π].
    #[cfg(test)]
    pub(crate) fn angle(self) -> f64 {
        self.y.atan2(self.x)
    }

    /// Linear interpolation: `self + t · (other − self)`.
    #[inline]
    pub fn lerp(self, other: P2, t: f64) -> P2 {
        self + (other - self) * t
    }

    /// Midpoint between `self` and `other`.
    #[inline]
    pub fn midpoint(self, other: P2) -> P2 {
        self.lerp(other, 0.5)
    }
}

impl fmt::Debug for P2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}, {:.3})", self.x, self.y)
    }
}

impl fmt::Display for P2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl Add for P2 {
    type Output = P2;
    #[inline]
    fn add(self, rhs: P2) -> P2 {
        P2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for P2 {
    type Output = P2;
    #[inline]
    fn sub(self, rhs: P2) -> P2 {
        P2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Mul<f64> for P2 {
    type Output = P2;
    #[inline]
    fn mul(self, k: f64) -> P2 {
        P2::new(self.x * k, self.y * k)
    }
}

impl Mul<P2> for f64 {
    type Output = P2;
    #[inline]
    fn mul(self, p: P2) -> P2 {
        p * self
    }
}

impl Div<f64> for P2 {
    type Output = P2;
    #[inline]
    fn div(self, k: f64) -> P2 {
        P2::new(self.x / k, self.y / k)
    }
}

impl Neg for P2 {
    type Output = P2;
    #[inline]
    fn neg(self) -> P2 {
        P2::new(-self.x, -self.y)
    }
}

impl AddAssign for P2 {
    #[inline]
    fn add_assign(&mut self, rhs: P2) {
        *self = *self + rhs;
    }
}

impl SubAssign for P2 {
    #[inline]
    fn sub_assign(&mut self, rhs: P2) {
        *self = *self - rhs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn distance_is_euclidean() {
        assert_eq!(P2::new(0.0, 0.0).dist(P2::new(3.0, 4.0)), 5.0);
    }

    #[test]
    fn angle_roundtrip() {
        for k in -7..=7 {
            let th = k as f64 * PI / 8.0;
            let v = P2::from_angle(th);
            assert!((v.angle() - th).abs() < 1e-12);
            assert!((v.norm() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn perp_is_ccw_rotation() {
        let v = P2::new(1.0, 0.0).perp();
        assert!((v.angle() - FRAC_PI_2).abs() < 1e-12);
        assert_eq!(P2::new(1.0, 2.0).dot(P2::new(1.0, 2.0).perp()), 0.0);
    }

    #[test]
    fn midpoint_and_lerp() {
        let a = P2::new(0.0, 0.0);
        let b = P2::new(2.0, 4.0);
        assert_eq!(a.midpoint(b), P2::new(1.0, 2.0));
        assert_eq!(a.lerp(b, 0.25), P2::new(0.5, 1.0));
    }

    proptest! {
        #[test]
        fn prop_triangle_inequality(ax in -10.0..10.0f64, ay in -10.0..10.0f64,
                                    bx in -10.0..10.0f64, by in -10.0..10.0f64,
                                    cx in -10.0..10.0f64, cy in -10.0..10.0f64) {
            let a = P2::new(ax, ay);
            let b = P2::new(bx, by);
            let c = P2::new(cx, cy);
            prop_assert!(a.dist(c) <= a.dist(b) + b.dist(c) + 1e-9);
        }

        #[test]
        fn prop_normalize_is_unit(x in -10.0..10.0f64, y in -10.0..10.0f64) {
            prop_assume!(x.abs() > 1e-6 || y.abs() > 1e-6);
            let n = P2::new(x, y).normalize().norm();
            prop_assert!((n - 1.0).abs() < 1e-12);
        }
    }
}
