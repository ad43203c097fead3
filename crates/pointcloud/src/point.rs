//! 3D point and axis-aligned bounding-box primitives.
//!
//! Everything in the Crescent pipeline — K-d tree construction, neighbor
//! search, dataset generation — operates on [`Point3`]. The type is a plain
//! `f32` triple in the C-struct spirit (public fields, `Copy`), matching the
//! paper's `[x, y, z]` representation (Sec 2.1).

use std::fmt;
use std::ops::{Add, AddAssign, Div, Index, Mul, Neg, Sub};

/// Number of spatial dimensions of a point cloud.
pub const DIMS: usize = 3;

/// A point (or vector) in 3D space.
///
/// # Examples
///
/// ```
/// use crescent_pointcloud::Point3;
///
/// let p = Point3::new(1.0, 2.0, 2.0);
/// assert_eq!(p.norm(), 3.0);
/// assert_eq!(p[1], 2.0);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Point3 {
    /// Coordinate along the first split axis.
    pub x: f32,
    /// Coordinate along the second split axis.
    pub y: f32,
    /// Coordinate along the third split axis.
    pub z: f32,
}

impl Point3 {
    /// The origin, `(0, 0, 0)`.
    pub const ZERO: Point3 = Point3 { x: 0.0, y: 0.0, z: 0.0 };

    /// Creates a point from its three coordinates.
    #[inline]
    pub const fn new(x: f32, y: f32, z: f32) -> Self {
        Point3 { x, y, z }
    }

    /// Creates a point with all three coordinates equal to `v`.
    #[inline]
    pub const fn splat(v: f32) -> Self {
        Point3 { x: v, y: v, z: v }
    }

    /// Returns the coordinate along `axis` (0 = x, 1 = y, 2 = z).
    ///
    /// # Panics
    ///
    /// Panics if `axis >= 3`.
    #[inline]
    pub fn coord(&self, axis: usize) -> f32 {
        match axis {
            0 => self.x,
            1 => self.y,
            2 => self.z,
            _ => panic!("axis {axis} out of range for Point3"),
        }
    }

    /// Replaces the coordinate along `axis` and returns the new point.
    ///
    /// # Panics
    ///
    /// Panics if `axis >= 3`.
    #[inline]
    pub fn with_coord(mut self, axis: usize, v: f32) -> Self {
        match axis {
            0 => self.x = v,
            1 => self.y = v,
            2 => self.z = v,
            _ => panic!("axis {axis} out of range for Point3"),
        }
        self
    }

    /// Dot product with another point interpreted as a vector.
    #[inline]
    pub fn dot(&self, rhs: Point3) -> f32 {
        self.x * rhs.x + self.y * rhs.y + self.z * rhs.z
    }

    /// Squared Euclidean norm.
    #[inline]
    pub fn norm2(&self) -> f32 {
        self.dot(*self)
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(&self) -> f32 {
        self.norm2().sqrt()
    }

    /// Squared Euclidean distance to `other`.
    ///
    /// This is the distance computed by the PE's CD (calculate-distance)
    /// pipeline stage; the square root is never materialized in hardware.
    #[inline]
    pub fn dist2(&self, other: Point3) -> f32 {
        (*self - other).norm2()
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn dist(&self, other: Point3) -> f32 {
        self.dist2(other).sqrt()
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(&self, other: Point3) -> Point3 {
        Point3::new(self.x.min(other.x), self.y.min(other.y), self.z.min(other.z))
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(&self, other: Point3) -> Point3 {
        Point3::new(self.x.max(other.x), self.y.max(other.y), self.z.max(other.z))
    }

    /// Returns the unit vector pointing in the same direction, or zero if
    /// the norm is zero.
    #[inline]
    pub fn normalized(&self) -> Point3 {
        let n = self.norm();
        if n == 0.0 {
            Point3::ZERO
        } else {
            *self / n
        }
    }

    /// Rotates the point around the z (up) axis by `angle` radians.
    ///
    /// Used for dataset augmentation, matching the standard azimuthal
    /// rotation augmentation of PointNet++-style training.
    #[inline]
    pub fn rotated_z(&self, angle: f32) -> Point3 {
        let (s, c) = angle.sin_cos();
        Point3::new(c * self.x - s * self.y, s * self.x + c * self.y, self.z)
    }

    /// Returns the point as a `[x, y, z]` array.
    #[inline]
    pub fn to_array(self) -> [f32; DIMS] {
        [self.x, self.y, self.z]
    }

    /// Returns true if all coordinates are finite.
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }
}

impl fmt::Display for Point3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.x, self.y, self.z)
    }
}

impl From<[f32; DIMS]> for Point3 {
    #[inline]
    fn from(a: [f32; DIMS]) -> Self {
        Point3::new(a[0], a[1], a[2])
    }
}

impl From<Point3> for [f32; DIMS] {
    #[inline]
    fn from(p: Point3) -> Self {
        p.to_array()
    }
}

impl Index<usize> for Point3 {
    type Output = f32;

    #[inline]
    fn index(&self, axis: usize) -> &f32 {
        match axis {
            0 => &self.x,
            1 => &self.y,
            2 => &self.z,
            _ => panic!("axis {axis} out of range for Point3"),
        }
    }
}

impl Add for Point3 {
    type Output = Point3;
    #[inline]
    fn add(self, rhs: Point3) -> Point3 {
        Point3::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl AddAssign for Point3 {
    #[inline]
    fn add_assign(&mut self, rhs: Point3) {
        *self = *self + rhs;
    }
}

impl Sub for Point3 {
    type Output = Point3;
    #[inline]
    fn sub(self, rhs: Point3) -> Point3 {
        Point3::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl Neg for Point3 {
    type Output = Point3;
    #[inline]
    fn neg(self) -> Point3 {
        Point3::new(-self.x, -self.y, -self.z)
    }
}

impl Mul<f32> for Point3 {
    type Output = Point3;
    #[inline]
    fn mul(self, rhs: f32) -> Point3 {
        Point3::new(self.x * rhs, self.y * rhs, self.z * rhs)
    }
}

impl Div<f32> for Point3 {
    type Output = Point3;
    #[inline]
    fn div(self, rhs: f32) -> Point3 {
        Point3::new(self.x / rhs, self.y / rhs, self.z / rhs)
    }
}

/// An axis-aligned bounding box.
///
/// Used for K-d tree space subdivision and for box-IoU in the detection
/// task (F-PointNet evaluation metric).
///
/// # Examples
///
/// ```
/// use crescent_pointcloud::{Aabb, Point3};
///
/// let b = Aabb::new(Point3::ZERO, Point3::splat(2.0));
/// assert!(b.contains(Point3::splat(1.0)));
/// assert_eq!(b.volume(), 8.0);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Aabb {
    /// Minimum corner.
    pub min: Point3,
    /// Maximum corner.
    pub max: Point3,
}

impl Aabb {
    /// An empty box (inverted infinite bounds); grows via [`Aabb::expand`].
    pub const EMPTY: Aabb = Aabb {
        min: Point3 { x: f32::INFINITY, y: f32::INFINITY, z: f32::INFINITY },
        max: Point3 { x: f32::NEG_INFINITY, y: f32::NEG_INFINITY, z: f32::NEG_INFINITY },
    };

    /// Creates a box from its two corners.
    ///
    /// # Panics
    ///
    /// Panics if any `min` coordinate exceeds the corresponding `max`.
    pub fn new(min: Point3, max: Point3) -> Self {
        assert!(
            min.x <= max.x && min.y <= max.y && min.z <= max.z,
            "invalid Aabb: min {min} exceeds max {max}"
        );
        Aabb { min, max }
    }

    /// Creates a box centered at `center` with the given `size` per axis.
    pub fn from_center_size(center: Point3, size: Point3) -> Self {
        let half = size / 2.0;
        Aabb::new(center - half, center + half)
    }

    /// The tightest box containing every point of `points`.
    ///
    /// Returns [`Aabb::EMPTY`] for an empty input.
    pub fn from_points<I: IntoIterator<Item = Point3>>(points: I) -> Self {
        let mut b = Aabb::EMPTY;
        for p in points {
            b.expand(p);
        }
        b
    }

    /// Grows the box to contain `p`.
    #[inline]
    pub fn expand(&mut self, p: Point3) {
        self.min = self.min.min(p);
        self.max = self.max.max(p);
    }

    /// Whether the box contains `p` (inclusive on all faces).
    #[inline]
    pub fn contains(&self, p: Point3) -> bool {
        p.x >= self.min.x
            && p.x <= self.max.x
            && p.y >= self.min.y
            && p.y <= self.max.y
            && p.z >= self.min.z
            && p.z <= self.max.z
    }

    /// Box center.
    #[inline]
    pub fn center(&self) -> Point3 {
        (self.min + self.max) / 2.0
    }

    /// Per-axis extent.
    #[inline]
    pub fn size(&self) -> Point3 {
        self.max - self.min
    }

    /// Volume; zero for degenerate or empty boxes.
    #[inline]
    pub fn volume(&self) -> f32 {
        let s = self.size();
        if s.x < 0.0 || s.y < 0.0 || s.z < 0.0 {
            0.0
        } else {
            s.x * s.y * s.z
        }
    }

    /// Intersection of two boxes; empty/degenerate boxes yield zero volume.
    pub fn intersection(&self, other: &Aabb) -> Aabb {
        Aabb { min: self.min.max(other.min), max: self.max.min(other.max) }
    }

    /// Intersection-over-union with another box.
    ///
    /// This is the detection-accuracy metric of the F-PointNet evaluation
    /// (Sec 6, "geometric mean of the IoU metric on the car class").
    pub fn iou(&self, other: &Aabb) -> f32 {
        let inter = self.intersection(other).volume();
        let union = self.volume() + other.volume() - inter;
        if union <= 0.0 {
            0.0
        } else {
            inter / union
        }
    }

    /// Squared distance from `p` to the box (zero if inside).
    ///
    /// The K-d tree backtracking test compares this against the squared
    /// search radius to prune half-spaces (Sec 2.2).
    pub fn dist2_to(&self, p: Point3) -> f32 {
        let mut d2 = 0.0;
        for axis in 0..DIMS {
            let v = p.coord(axis);
            let lo = self.min.coord(axis);
            let hi = self.max.coord(axis);
            let d = if v < lo {
                lo - v
            } else if v > hi {
                v - hi
            } else {
                0.0
            };
            d2 += d * d;
        }
        d2
    }
}

impl Default for Aabb {
    fn default() -> Self {
        Aabb::EMPTY
    }
}

impl fmt::Display for Aabb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} .. {}]", self.min, self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_arithmetic() {
        let a = Point3::new(1.0, 2.0, 3.0);
        let b = Point3::new(4.0, 5.0, 6.0);
        assert_eq!(a + b, Point3::new(5.0, 7.0, 9.0));
        assert_eq!(b - a, Point3::splat(3.0));
        assert_eq!(a * 2.0, Point3::new(2.0, 4.0, 6.0));
        assert_eq!(b / 2.0, Point3::new(2.0, 2.5, 3.0));
        assert_eq!(-a, Point3::new(-1.0, -2.0, -3.0));
    }

    #[test]
    fn point_dot_and_norm() {
        let a = Point3::new(1.0, 2.0, 2.0);
        assert_eq!(a.dot(a), 9.0);
        assert_eq!(a.norm(), 3.0);
        assert_eq!(a.dist2(Point3::ZERO), 9.0);
        assert_eq!(a.dist(Point3::ZERO), 3.0);
    }

    #[test]
    fn point_coord_access() {
        let p = Point3::new(7.0, 8.0, 9.0);
        for axis in 0..DIMS {
            assert_eq!(p.coord(axis), p[axis]);
        }
        assert_eq!(p.with_coord(1, 0.5).y, 0.5);
        assert_eq!(p.to_array(), [7.0, 8.0, 9.0]);
        assert_eq!(Point3::from([7.0, 8.0, 9.0]), p);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn point_coord_out_of_range_panics() {
        let _ = Point3::ZERO.coord(3);
    }

    #[test]
    fn point_normalized() {
        let p = Point3::new(3.0, 0.0, 4.0);
        let n = p.normalized();
        assert!((n.norm() - 1.0).abs() < 1e-6);
        assert_eq!(Point3::ZERO.normalized(), Point3::ZERO);
    }

    #[test]
    fn point_rotation_preserves_norm_and_z() {
        let p = Point3::new(1.0, 2.0, 3.0);
        let r = p.rotated_z(1.3);
        assert!((r.norm() - p.norm()).abs() < 1e-5);
        assert_eq!(r.z, p.z);
    }

    #[test]
    fn aabb_contains_and_volume() {
        let b = Aabb::new(Point3::ZERO, Point3::new(1.0, 2.0, 3.0));
        assert!(b.contains(Point3::new(0.5, 1.0, 2.9)));
        assert!(!b.contains(Point3::new(1.5, 1.0, 1.0)));
        assert_eq!(b.volume(), 6.0);
        assert_eq!(b.center(), Point3::new(0.5, 1.0, 1.5));
    }

    #[test]
    fn aabb_from_points() {
        let pts = [Point3::new(-1.0, 0.0, 2.0), Point3::new(1.0, -3.0, 0.0)];
        let b = Aabb::from_points(pts);
        assert_eq!(b.min, Point3::new(-1.0, -3.0, 0.0));
        assert_eq!(b.max, Point3::new(1.0, 0.0, 2.0));
        assert_eq!(Aabb::from_points([]).volume(), 0.0);
    }

    #[test]
    fn aabb_iou() {
        let a = Aabb::new(Point3::ZERO, Point3::splat(2.0));
        let b = Aabb::new(Point3::splat(1.0), Point3::splat(3.0));
        // intersection volume 1, union 8 + 8 - 1 = 15
        assert!((a.iou(&b) - 1.0 / 15.0).abs() < 1e-6);
        assert_eq!(a.iou(&a), 1.0);
        let far = Aabb::new(Point3::splat(10.0), Point3::splat(11.0));
        assert_eq!(a.iou(&far), 0.0);
    }

    #[test]
    fn aabb_dist2() {
        let b = Aabb::new(Point3::ZERO, Point3::splat(1.0));
        assert_eq!(b.dist2_to(Point3::splat(0.5)), 0.0);
        assert_eq!(b.dist2_to(Point3::new(2.0, 0.5, 0.5)), 1.0);
        assert_eq!(b.dist2_to(Point3::new(2.0, 2.0, 0.5)), 2.0);
    }

    #[test]
    #[should_panic(expected = "invalid Aabb")]
    fn aabb_invalid_panics() {
        let _ = Aabb::new(Point3::splat(1.0), Point3::ZERO);
    }

    #[test]
    fn aabb_from_center_size() {
        let b = Aabb::from_center_size(Point3::splat(1.0), Point3::splat(2.0));
        assert_eq!(b.min, Point3::ZERO);
        assert_eq!(b.max, Point3::splat(2.0));
    }
}
