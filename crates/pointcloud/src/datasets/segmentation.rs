//! ShapeNet-like synthetic part-segmentation dataset.
//!
//! The paper evaluates PointNet++(s) on ShapeNet part segmentation with the
//! mIoU metric (Sec 6). This module assembles shapes from labelled parts
//! (e.g. a "table" = top plane + four legs) so a per-point classifier has a
//! learnable geometric task whose accuracy degrades when neighborhoods are
//! corrupted by approximation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cloud::PointCloud;
use crate::datasets::shapes;
use crate::point::Point3;

/// Number of distinct part labels across the dataset.
pub const NUM_PARTS: usize = 4;

/// Shape categories of the segmentation dataset.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SegCategory {
    /// Flat top (part 0) on four legs (part 1).
    Table,
    /// Shade cone (part 2), pole (part 1), base disk (part 0).
    Lamp,
    /// Fuselage (part 0), wings (part 3), tail fin (part 2).
    Plane,
    /// Cup body cylinder (part 0) with a handle torus segment (part 3).
    Mug,
}

impl SegCategory {
    /// All categories.
    pub const ALL: [SegCategory; 4] =
        [SegCategory::Table, SegCategory::Lamp, SegCategory::Plane, SegCategory::Mug];

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            SegCategory::Table => "table",
            SegCategory::Lamp => "lamp",
            SegCategory::Plane => "plane",
            SegCategory::Mug => "mug",
        }
    }
}

/// A labelled segmentation sample: one point cloud plus one part label per
/// point.
#[derive(Clone, Debug, PartialEq)]
pub struct SegmentationSample {
    /// The point cloud.
    pub cloud: PointCloud,
    /// Part label (`0..NUM_PARTS`) for each point of `cloud`.
    pub labels: Vec<usize>,
    /// The generating category.
    pub category: SegCategory,
}

/// Train/test split of segmentation samples.
#[derive(Clone, Debug, Default)]
pub struct SegmentationDataset {
    /// Training samples.
    pub train: Vec<SegmentationSample>,
    /// Held-out evaluation samples.
    pub test: Vec<SegmentationSample>,
    /// Number of part labels.
    pub num_parts: usize,
}

/// Configuration for [`SegmentationDataset::generate`].
#[derive(Clone, Copy, Debug)]
pub struct SegmentationConfig {
    /// Points per sample cloud (approximate; parts round independently).
    pub points_per_cloud: usize,
    /// Training samples per category.
    pub train_per_category: usize,
    /// Test samples per category.
    pub test_per_category: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SegmentationConfig {
    fn default() -> Self {
        SegmentationConfig {
            points_per_cloud: 512,
            train_per_category: 24,
            test_per_category: 8,
            seed: 0x5E63,
        }
    }
}

impl SegmentationDataset {
    /// Generates a deterministic synthetic dataset.
    pub fn generate(cfg: &SegmentationConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let make = |per: usize, rng: &mut StdRng| {
            let mut out = Vec::with_capacity(per * SegCategory::ALL.len());
            for cat in SegCategory::ALL {
                for _ in 0..per {
                    out.push(generate_sample(rng, cat, cfg.points_per_cloud));
                }
            }
            out
        };
        let train = make(cfg.train_per_category, &mut rng);
        let test = make(cfg.test_per_category, &mut rng);
        SegmentationDataset { train, test, num_parts: NUM_PARTS }
    }

    /// Instance-average mIoU of per-point `predictions` against the test
    /// labels — the ShapeNet metric of Sec 6.
    ///
    /// `predictions[i]` must hold one predicted label per point of test
    /// sample `i`.
    ///
    /// # Panics
    ///
    /// Panics if the prediction shapes do not match the test set.
    pub fn mean_iou(&self, predictions: &[Vec<usize>]) -> f32 {
        assert_eq!(predictions.len(), self.test.len(), "one prediction vec per test sample");
        if self.test.is_empty() {
            return 0.0;
        }
        let mut total = 0.0;
        for (pred, sample) in predictions.iter().zip(&self.test) {
            total += sample_iou(pred, &sample.labels, self.num_parts);
        }
        total / self.test.len() as f32
    }
}

/// Mean IoU over the part labels present in either prediction or ground
/// truth of a single sample.
///
/// # Panics
///
/// Panics if `pred.len() != truth.len()`.
pub fn sample_iou(pred: &[usize], truth: &[usize], num_parts: usize) -> f32 {
    assert_eq!(pred.len(), truth.len(), "prediction/label length mismatch");
    let mut inter = vec![0usize; num_parts];
    let mut union = vec![0usize; num_parts];
    for (&p, &t) in pred.iter().zip(truth) {
        if p == t {
            inter[t] += 1;
            union[t] += 1;
        } else {
            union[p] += 1;
            union[t] += 1;
        }
    }
    let mut sum = 0.0;
    let mut parts = 0;
    for part in 0..num_parts {
        if union[part] > 0 {
            sum += inter[part] as f32 / union[part] as f32;
            parts += 1;
        }
    }
    if parts == 0 {
        1.0
    } else {
        sum / parts as f32
    }
}

/// Generates one augmented sample of `cat` with roughly `points` points.
pub fn generate_sample<R: Rng + ?Sized>(
    rng: &mut R,
    cat: SegCategory,
    points: usize,
) -> SegmentationSample {
    let mut pts: Vec<Point3> = Vec::with_capacity(points);
    let mut labels: Vec<usize> = Vec::with_capacity(points);
    let add = |vs: Vec<Point3>, label: usize, pts: &mut Vec<Point3>, labels: &mut Vec<usize>| {
        labels.extend(std::iter::repeat_n(label, vs.len()));
        pts.extend(vs);
    };

    match cat {
        SegCategory::Table => {
            let top = points / 2;
            let per_leg = (points - top) / 4;
            add(
                shapes::plane_patch(rng, top, Point3::new(0.0, 0.0, 0.5), 1.6, 1.0),
                0,
                &mut pts,
                &mut labels,
            );
            for (dx, dy) in [(-0.7, -0.4), (-0.7, 0.4), (0.7, -0.4), (0.7, 0.4)] {
                add(
                    shapes::segment(
                        rng,
                        per_leg,
                        Point3::new(dx, dy, -0.5),
                        Point3::new(dx, dy, 0.5),
                        0.02,
                    ),
                    1,
                    &mut pts,
                    &mut labels,
                );
            }
        }
        SegCategory::Lamp => {
            let third = points / 3;
            add(
                shapes::disk(rng, third, Point3::new(0.0, 0.0, -0.8), 0.5),
                0,
                &mut pts,
                &mut labels,
            );
            add(
                shapes::segment(
                    rng,
                    third,
                    Point3::new(0.0, 0.0, -0.8),
                    Point3::new(0.0, 0.0, 0.4),
                    0.02,
                ),
                1,
                &mut pts,
                &mut labels,
            );
            add(
                shapes::cone(rng, points - 2 * third, Point3::new(0.0, 0.0, 0.6), 0.5, 0.5),
                2,
                &mut pts,
                &mut labels,
            );
        }
        SegCategory::Plane => {
            let body = points / 2;
            let wings = points / 3;
            add(
                shapes::ellipsoid(rng, body, Point3::ZERO, Point3::new(1.0, 0.18, 0.18)),
                0,
                &mut pts,
                &mut labels,
            );
            add(
                shapes::plane_patch(rng, wings, Point3::new(0.1, 0.0, 0.0), 0.45, 1.9),
                3,
                &mut pts,
                &mut labels,
            );
            add(
                shapes::plane_patch(
                    rng,
                    points - body - wings,
                    Point3::new(-0.9, 0.0, 0.2),
                    0.3,
                    0.5,
                ),
                2,
                &mut pts,
                &mut labels,
            );
        }
        SegCategory::Mug => {
            let body = points * 3 / 4;
            add(shapes::cylinder(rng, body, Point3::ZERO, 0.5, 1.0), 0, &mut pts, &mut labels);
            // handle: half-torus sticking out in +x
            let handle: Vec<Point3> =
                shapes::torus(rng, 2 * (points - body), Point3::ZERO, 0.3, 0.06)
                    .into_iter()
                    .map(|p| Point3::new(p.x + 0.5, p.z, p.y)) // rotate into xz plane, offset
                    .filter(|p| p.x > 0.55)
                    .take(points - body)
                    .collect();
            add(handle, 3, &mut pts, &mut labels);
        }
    }

    // shared augmentation: rotate about z, normalize
    let angle = rng.random::<f32>() * std::f32::consts::TAU;
    let mut cloud: PointCloud = pts.into_iter().map(|p| p.rotated_z(angle)).collect();
    cloud.normalize_unit_sphere();
    SegmentationSample { cloud, labels, category: cat }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> SegmentationConfig {
        SegmentationConfig {
            points_per_cloud: 96,
            train_per_category: 2,
            test_per_category: 1,
            seed: 9,
        }
    }

    #[test]
    fn generate_counts() {
        let ds = SegmentationDataset::generate(&tiny_cfg());
        assert_eq!(ds.train.len(), 8);
        assert_eq!(ds.test.len(), 4);
        for s in ds.train.iter().chain(&ds.test) {
            assert_eq!(s.cloud.len(), s.labels.len());
            assert!(s.cloud.len() > 48, "category {:?} too sparse", s.category);
            assert!(s.labels.iter().all(|&l| l < NUM_PARTS));
        }
    }

    #[test]
    fn each_category_has_multiple_parts() {
        let ds = SegmentationDataset::generate(&tiny_cfg());
        for s in &ds.train {
            let mut seen = [false; NUM_PARTS];
            for &l in &s.labels {
                seen[l] = true;
            }
            assert!(seen.iter().filter(|&&x| x).count() >= 2, "category {:?}", s.category);
        }
    }

    #[test]
    fn deterministic() {
        let a = SegmentationDataset::generate(&tiny_cfg());
        let b = SegmentationDataset::generate(&tiny_cfg());
        assert_eq!(a.train[0].cloud, b.train[0].cloud);
        assert_eq!(a.train[0].labels, b.train[0].labels);
    }

    #[test]
    fn iou_perfect_and_disjoint() {
        assert_eq!(sample_iou(&[0, 1, 2], &[0, 1, 2], 4), 1.0);
        assert_eq!(sample_iou(&[1, 1, 1], &[0, 0, 0], 4), 0.0);
        // half right on one part, one part absent from pred
        let iou = sample_iou(&[0, 0, 1, 1], &[0, 0, 0, 0], 4);
        // part 0: inter 2, union 4 -> 0.5 ; part 1: inter 0, union 2 -> 0
        assert!((iou - 0.25).abs() < 1e-6);
    }

    #[test]
    fn mean_iou_metric() {
        let ds = SegmentationDataset::generate(&tiny_cfg());
        let perfect: Vec<Vec<usize>> = ds.test.iter().map(|s| s.labels.clone()).collect();
        assert_eq!(ds.mean_iou(&perfect), 1.0);
        let majority: Vec<Vec<usize>> = ds.test.iter().map(|s| vec![0; s.labels.len()]).collect();
        assert!(ds.mean_iou(&majority) < 0.9);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn iou_rejects_mismatch() {
        let _ = sample_iou(&[0], &[0, 1], 4);
    }
}
