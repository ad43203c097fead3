//! ModelNet40-like synthetic classification dataset.
//!
//! The paper evaluates PointNet++(c) and DensePoint on ModelNet40 (Tbl 1).
//! ModelNet40 itself is a mesh corpus we cannot ship, so this module
//! generates a 10-class corpus of parametric shapes with random rotation,
//! anisotropic scaling, and jitter. The classes are chosen to be separable
//! by local geometry (what set-abstraction layers perceive) but not
//! trivially separable by global statistics, so approximation-induced
//! neighbor corruption measurably hurts accuracy — the property the Fig 13 /
//! 18 / 19 / 20 / 21 experiments rely on.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cloud::PointCloud;
use crate::datasets::shapes;
use crate::point::Point3;
use crate::sampling::gaussian;

/// The shape classes of the synthetic classification dataset.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum ShapeClass {
    /// Uniform sphere surface.
    Sphere = 0,
    /// Box surface.
    Cuboid = 1,
    /// Open cylinder shell.
    Cylinder = 2,
    /// Cone shell.
    Cone = 3,
    /// Torus.
    Torus = 4,
    /// Flat disk.
    Disk = 5,
    /// Helical curve.
    Helix = 6,
    /// Elongated ellipsoid.
    Ellipsoid = 7,
    /// Two stacked spheres.
    TwoLobes = 8,
    /// Three orthogonal bars.
    Cross = 9,
}

impl ShapeClass {
    /// All classes, in label order.
    pub const ALL: [ShapeClass; 10] = [
        ShapeClass::Sphere,
        ShapeClass::Cuboid,
        ShapeClass::Cylinder,
        ShapeClass::Cone,
        ShapeClass::Torus,
        ShapeClass::Disk,
        ShapeClass::Helix,
        ShapeClass::Ellipsoid,
        ShapeClass::TwoLobes,
        ShapeClass::Cross,
    ];

    /// Number of classes.
    pub const COUNT: usize = Self::ALL.len();

    /// The integer label of this class.
    pub fn label(self) -> usize {
        self as usize
    }

    /// The class for an integer label.
    ///
    /// # Panics
    ///
    /// Panics if `label >= ShapeClass::COUNT`.
    pub fn from_label(label: usize) -> ShapeClass {
        Self::ALL[label]
    }

    /// Human-readable class name.
    pub fn name(self) -> &'static str {
        match self {
            ShapeClass::Sphere => "sphere",
            ShapeClass::Cuboid => "cuboid",
            ShapeClass::Cylinder => "cylinder",
            ShapeClass::Cone => "cone",
            ShapeClass::Torus => "torus",
            ShapeClass::Disk => "disk",
            ShapeClass::Helix => "helix",
            ShapeClass::Ellipsoid => "ellipsoid",
            ShapeClass::TwoLobes => "two_lobes",
            ShapeClass::Cross => "cross",
        }
    }

    /// Samples `n` surface points of this class's canonical shape.
    pub fn sample<R: Rng + ?Sized>(self, rng: &mut R, n: usize) -> Vec<Point3> {
        let c = Point3::ZERO;
        match self {
            ShapeClass::Sphere => shapes::sphere(rng, n, c, 1.0),
            ShapeClass::Cuboid => shapes::cuboid(rng, n, c, Point3::new(1.4, 1.0, 0.8)),
            ShapeClass::Cylinder => shapes::cylinder(rng, n, c, 0.6, 1.8),
            ShapeClass::Cone => shapes::cone(rng, n, c, 0.9, 1.6),
            ShapeClass::Torus => shapes::torus(rng, n, c, 0.8, 0.25),
            ShapeClass::Disk => shapes::disk(rng, n, c, 1.0),
            ShapeClass::Helix => shapes::helix(rng, n, c, 0.7, 1.8, 2.5),
            ShapeClass::Ellipsoid => shapes::ellipsoid(rng, n, c, Point3::new(1.2, 0.5, 0.4)),
            ShapeClass::TwoLobes => shapes::two_lobes(rng, n, c, 0.7),
            ShapeClass::Cross => shapes::cross(rng, n, c, 0.9),
        }
    }
}

/// A labelled classification sample.
#[derive(Clone, Debug, PartialEq)]
pub struct ClassificationSample {
    /// The (normalized, augmented) point cloud.
    pub cloud: PointCloud,
    /// Ground-truth class label (`0..ShapeClass::COUNT`).
    pub label: usize,
}

/// A train/test split of classification samples.
#[derive(Clone, Debug, Default)]
pub struct ClassificationDataset {
    /// Training samples.
    pub train: Vec<ClassificationSample>,
    /// Held-out evaluation samples.
    pub test: Vec<ClassificationSample>,
    /// Number of distinct labels.
    pub num_classes: usize,
}

/// Configuration for [`ClassificationDataset::generate`].
#[derive(Clone, Copy, Debug)]
pub struct ClassificationConfig {
    /// Points per sample cloud.
    pub points_per_cloud: usize,
    /// Training samples per class.
    pub train_per_class: usize,
    /// Test samples per class.
    pub test_per_class: usize,
    /// Gaussian jitter sigma applied after normalization.
    pub jitter_sigma: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ClassificationConfig {
    fn default() -> Self {
        ClassificationConfig {
            points_per_cloud: 512,
            train_per_class: 24,
            test_per_class: 8,
            jitter_sigma: 0.01,
            seed: 0xC0FFEE,
        }
    }
}

impl ClassificationDataset {
    /// Generates a deterministic synthetic dataset.
    ///
    /// Each sample is drawn from its class's parametric surface, randomly
    /// rotated about z, anisotropically scaled by up to ±20 % per axis,
    /// jittered, and normalized into the unit sphere.
    pub fn generate(cfg: &ClassificationConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let make = |per_class: usize, rng: &mut StdRng| {
            let mut out = Vec::with_capacity(per_class * ShapeClass::COUNT);
            for class in ShapeClass::ALL {
                for _ in 0..per_class {
                    out.push(generate_sample(rng, class, cfg.points_per_cloud, cfg.jitter_sigma));
                }
            }
            out
        };
        let train = make(cfg.train_per_class, &mut rng);
        let test = make(cfg.test_per_class, &mut rng);
        ClassificationDataset { train, test, num_classes: ShapeClass::COUNT }
    }

    /// Overall accuracy of `predictions` against the test labels.
    ///
    /// This is the "overall accuracy" metric of the ModelNet40 evaluation
    /// (Sec 6).
    ///
    /// # Panics
    ///
    /// Panics if `predictions.len() != self.test.len()`.
    pub fn overall_accuracy(&self, predictions: &[usize]) -> f32 {
        assert_eq!(predictions.len(), self.test.len(), "one prediction per test sample");
        if self.test.is_empty() {
            return 0.0;
        }
        let correct = predictions.iter().zip(&self.test).filter(|(p, s)| **p == s.label).count();
        correct as f32 / self.test.len() as f32
    }
}

/// Generates one augmented sample of `class`.
pub fn generate_sample<R: Rng + ?Sized>(
    rng: &mut R,
    class: ShapeClass,
    points: usize,
    jitter_sigma: f32,
) -> ClassificationSample {
    let raw = class.sample(rng, points);
    let angle = rng.random::<f32>() * std::f32::consts::TAU;
    let sx = 1.0 + (rng.random::<f32>() - 0.5) * 0.4;
    let sy = 1.0 + (rng.random::<f32>() - 0.5) * 0.4;
    let sz = 1.0 + (rng.random::<f32>() - 0.5) * 0.4;
    let mut cloud: PointCloud = raw
        .into_iter()
        .map(|p| {
            let p = Point3::new(p.x * sx, p.y * sy, p.z * sz).rotated_z(angle);
            p + Point3::new(gaussian(rng), gaussian(rng), gaussian(rng)) * jitter_sigma
        })
        .collect();
    cloud.normalize_unit_sphere();
    ClassificationSample { cloud, label: class.label() }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> ClassificationConfig {
        ClassificationConfig {
            points_per_cloud: 64,
            train_per_class: 2,
            test_per_class: 1,
            jitter_sigma: 0.01,
            seed: 5,
        }
    }

    #[test]
    fn labels_round_trip() {
        for class in ShapeClass::ALL {
            assert_eq!(ShapeClass::from_label(class.label()), class);
            assert!(!class.name().is_empty());
        }
        assert_eq!(ShapeClass::COUNT, 10);
    }

    #[test]
    fn generate_counts_and_labels() {
        let ds = ClassificationDataset::generate(&tiny_cfg());
        assert_eq!(ds.train.len(), 2 * 10);
        assert_eq!(ds.test.len(), 10);
        assert_eq!(ds.num_classes, 10);
        for s in ds.train.iter().chain(&ds.test) {
            assert_eq!(s.cloud.len(), 64);
            assert!(s.label < 10);
        }
        // every class present in train
        let mut seen = [false; 10];
        for s in &ds.train {
            seen[s.label] = true;
        }
        assert!(seen.iter().all(|&x| x));
    }

    #[test]
    fn generation_is_deterministic() {
        let a = ClassificationDataset::generate(&tiny_cfg());
        let b = ClassificationDataset::generate(&tiny_cfg());
        assert_eq!(a.train[0].cloud, b.train[0].cloud);
        let mut cfg = tiny_cfg();
        cfg.seed = 6;
        let c = ClassificationDataset::generate(&cfg);
        assert_ne!(a.train[0].cloud, c.train[0].cloud);
    }

    #[test]
    fn samples_are_normalized() {
        let ds = ClassificationDataset::generate(&tiny_cfg());
        for s in &ds.train {
            assert!(s.cloud.centroid().norm() < 1e-4);
            for p in &s.cloud {
                assert!(p.norm() <= 1.0 + 1e-5);
            }
        }
    }

    #[test]
    fn accuracy_metric() {
        let ds = ClassificationDataset::generate(&tiny_cfg());
        let perfect: Vec<usize> = ds.test.iter().map(|s| s.label).collect();
        assert_eq!(ds.overall_accuracy(&perfect), 1.0);
        let wrong: Vec<usize> = ds.test.iter().map(|s| (s.label + 1) % 10).collect();
        assert_eq!(ds.overall_accuracy(&wrong), 0.0);
    }

    #[test]
    #[should_panic(expected = "one prediction per test sample")]
    fn accuracy_rejects_wrong_len() {
        let ds = ClassificationDataset::generate(&tiny_cfg());
        let _ = ds.overall_accuracy(&[0]);
    }
}
