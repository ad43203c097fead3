//! Point-cloud container.

use std::fmt;

use crate::point::{Aabb, Point3};

/// A collection of points in 3D space, the unit of input to every Crescent
/// pipeline stage.
///
/// A `PointCloud` is conceptually a `Vec<Point3>`; it additionally caches
/// convenience geometry (bounds) and supports the normalizations used by the
/// evaluation datasets.
///
/// # Examples
///
/// ```
/// use crescent_pointcloud::{Point3, PointCloud};
///
/// let cloud: PointCloud = [Point3::ZERO, Point3::splat(1.0)].into_iter().collect();
/// assert_eq!(cloud.len(), 2);
/// assert_eq!(cloud.bounds().size(), Point3::splat(1.0));
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PointCloud {
    points: Vec<Point3>,
}

impl PointCloud {
    /// Creates an empty point cloud.
    pub fn new() -> Self {
        PointCloud { points: Vec::new() }
    }

    /// Creates a point cloud from a vector of points.
    pub fn from_points(points: Vec<Point3>) -> Self {
        PointCloud { points }
    }

    /// Creates an empty cloud with capacity for `n` points.
    pub fn with_capacity(n: usize) -> Self {
        PointCloud { points: Vec::with_capacity(n) }
    }

    /// Number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the cloud has no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The points as a slice.
    #[inline]
    pub fn points(&self) -> &[Point3] {
        &self.points
    }

    /// The point at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    #[inline]
    pub fn point(&self, idx: usize) -> Point3 {
        self.points[idx]
    }

    /// Appends a point.
    #[inline]
    pub fn push(&mut self, p: Point3) {
        self.points.push(p);
    }

    /// Iterates over the points.
    pub fn iter(&self) -> std::slice::Iter<'_, Point3> {
        self.points.iter()
    }

    /// Consumes the cloud and returns the underlying point vector.
    pub fn into_points(self) -> Vec<Point3> {
        self.points
    }

    /// The tightest axis-aligned bounding box of the cloud.
    pub fn bounds(&self) -> Aabb {
        Aabb::from_points(self.points.iter().copied())
    }

    /// Arithmetic-mean centroid, or the origin for an empty cloud.
    pub fn centroid(&self) -> Point3 {
        if self.points.is_empty() {
            return Point3::ZERO;
        }
        let sum = self.points.iter().copied().fold(Point3::ZERO, |a, p| a + p);
        sum / self.points.len() as f32
    }

    /// Translates every point by `delta`.
    pub fn translate(&mut self, delta: Point3) {
        for p in &mut self.points {
            *p += delta;
        }
    }

    /// Scales every point about the origin.
    pub fn scale(&mut self, factor: f32) {
        for p in &mut self.points {
            *p = *p * factor;
        }
    }

    /// Centers the cloud on the origin and scales it into the unit sphere,
    /// the canonical normalization of the ModelNet/ShapeNet evaluation
    /// pipelines.
    ///
    /// Returns the applied `(translation, scale)` so callers can invert it.
    pub fn normalize_unit_sphere(&mut self) -> (Point3, f32) {
        let c = self.centroid();
        self.translate(-c);
        let max_norm = self.points.iter().map(|p| p.norm()).fold(0.0_f32, f32::max);
        let s = if max_norm > 0.0 { 1.0 / max_norm } else { 1.0 };
        self.scale(s);
        (-c, s)
    }

    /// Returns the total payload size in bytes assuming the accelerator's
    /// 12-byte (3 × f32) point representation.
    ///
    /// Used by the DRAM-traffic experiments to compute the "theoretical
    /// minimum" traffic of Fig 3 (each point and query read once).
    #[inline]
    pub fn payload_bytes(&self) -> usize {
        self.points.len() * POINT_BYTES
    }
}

/// Size of one point in the accelerator's memory layout (3 × f32).
pub const POINT_BYTES: usize = 12;

impl fmt::Display for PointCloud {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PointCloud({} points)", self.len())
    }
}

impl FromIterator<Point3> for PointCloud {
    fn from_iter<I: IntoIterator<Item = Point3>>(iter: I) -> Self {
        PointCloud { points: iter.into_iter().collect() }
    }
}

impl Extend<Point3> for PointCloud {
    fn extend<I: IntoIterator<Item = Point3>>(&mut self, iter: I) {
        self.points.extend(iter);
    }
}

impl From<Vec<Point3>> for PointCloud {
    fn from(points: Vec<Point3>) -> Self {
        PointCloud { points }
    }
}

impl<'a> IntoIterator for &'a PointCloud {
    type Item = &'a Point3;
    type IntoIter = std::slice::Iter<'a, Point3>;
    fn into_iter(self) -> Self::IntoIter {
        self.points.iter()
    }
}

impl IntoIterator for PointCloud {
    type Item = Point3;
    type IntoIter = std::vec::IntoIter<Point3>;
    fn into_iter(self) -> Self::IntoIter {
        self.points.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PointCloud {
        PointCloud::from_points(vec![
            Point3::new(1.0, 0.0, 0.0),
            Point3::new(-1.0, 0.0, 0.0),
            Point3::new(0.0, 2.0, 0.0),
            Point3::new(0.0, -2.0, 0.0),
        ])
    }

    #[test]
    fn len_and_access() {
        let c = sample();
        assert_eq!(c.len(), 4);
        assert!(!c.is_empty());
        assert_eq!(c.point(2), Point3::new(0.0, 2.0, 0.0));
        assert_eq!(c.points().len(), 4);
    }

    #[test]
    fn centroid_and_bounds() {
        let c = sample();
        assert_eq!(c.centroid(), Point3::ZERO);
        let b = c.bounds();
        assert_eq!(b.min, Point3::new(-1.0, -2.0, 0.0));
        assert_eq!(b.max, Point3::new(1.0, 2.0, 0.0));
    }

    #[test]
    fn empty_cloud_behaviour() {
        let c = PointCloud::new();
        assert!(c.is_empty());
        assert_eq!(c.centroid(), Point3::ZERO);
        assert_eq!(c.payload_bytes(), 0);
    }

    #[test]
    fn translate_scale() {
        let mut c = sample();
        c.translate(Point3::splat(1.0));
        assert_eq!(c.centroid(), Point3::splat(1.0));
        c.scale(2.0);
        assert_eq!(c.centroid(), Point3::splat(2.0));
    }

    #[test]
    fn normalize_unit_sphere_bounds_all_points() {
        let mut c = sample();
        c.translate(Point3::new(5.0, -3.0, 2.0));
        c.normalize_unit_sphere();
        assert!(c.centroid().norm() < 1e-6);
        for p in &c {
            assert!(p.norm() <= 1.0 + 1e-6);
        }
        // at least one point lands exactly on the sphere
        let max = c.iter().map(|p| p.norm()).fold(0.0_f32, f32::max);
        assert!((max - 1.0).abs() < 1e-6);
    }

    #[test]
    fn collect_and_extend() {
        let mut c: PointCloud = (0..3).map(|i| Point3::splat(i as f32)).collect();
        c.extend([Point3::splat(9.0)]);
        assert_eq!(c.len(), 4);
        let pts = c.into_points();
        assert_eq!(pts[3], Point3::splat(9.0));
    }

    #[test]
    fn payload_bytes_matches_layout() {
        assert_eq!(sample().payload_bytes(), 4 * 12);
    }
}
