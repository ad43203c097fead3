//! KITTI-like synthetic LiDAR scenes and frustum detection samples.
//!
//! Two consumers:
//!
//! * the **memory-characterization experiments** (Figs 2–4) need large
//!   outdoor-scale scenes — "a typical KITTI-constructed scene with about
//!   1.2 million points" (Sec 2.2) — with realistic spatial irregularity;
//!   [`LidarSceneConfig`] generates those (ground plane, car-like cuboids,
//!   poles, walls, clutter);
//! * the **F-PointNet accuracy experiments** (Fig 13) need a learnable
//!   detection task; [`DetectionDataset`] extracts frustum samples (points
//!   around one car plus background) labelled with a per-point car mask and
//!   the ground-truth box, evaluated by box IoU on the car class.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cloud::PointCloud;
use crate::datasets::shapes;
use crate::point::{Aabb, Point3};
use crate::sampling::gaussian;

/// Configuration for [`generate_scene`].
#[derive(Clone, Copy, Debug)]
pub struct LidarSceneConfig {
    /// Approximate total number of points in the scene.
    pub total_points: usize,
    /// Number of car-like objects.
    pub num_cars: usize,
    /// Number of pole-like objects (trees, signs).
    pub num_poles: usize,
    /// Number of wall segments (buildings).
    pub num_walls: usize,
    /// Half-extent of the scene in x and y (meters).
    pub half_extent: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for LidarSceneConfig {
    fn default() -> Self {
        LidarSceneConfig {
            total_points: 120_000,
            num_cars: 12,
            num_poles: 24,
            num_walls: 6,
            half_extent: 40.0,
            seed: 0x1DAA,
        }
    }
}

impl LidarSceneConfig {
    /// The paper-scale configuration (~1.2 M points), used by the Fig 2/3
    /// trace experiments.
    pub fn paper_scale(seed: u64) -> Self {
        LidarSceneConfig {
            total_points: 1_200_000,
            num_cars: 40,
            num_poles: 80,
            num_walls: 16,
            half_extent: 60.0,
            seed,
        }
    }
}

/// A generated LiDAR-like scene.
#[derive(Clone, Debug)]
pub struct LidarScene {
    /// All scene points, shuffled into sensor-sweep-like order.
    pub cloud: PointCloud,
    /// Ground-truth boxes of the car objects.
    pub car_boxes: Vec<Aabb>,
}

/// Generates a synthetic outdoor scene.
///
/// Point budget: 55 % ground, 20 % walls, 15 % cars, 10 % poles/clutter
/// (roughly mimicking the composition of an urban LiDAR sweep). Points are
/// emitted in azimuthal sweep order, like a spinning LiDAR, which is what
/// makes the *memory* order of spatially-adjacent tree nodes irregular.
pub fn generate_scene(cfg: &LidarSceneConfig) -> LidarScene {
    let (pts, car_boxes) = scatter_scene(cfg);
    LidarScene { cloud: PointCloud::from_points(sweep_order(pts)), car_boxes }
}

/// The scene's points in generation order, and its car boxes.
fn scatter_scene(cfg: &LidarSceneConfig) -> (Vec<Point3>, Vec<Aabb>) {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let n = cfg.total_points;
    let he = cfg.half_extent;
    let mut pts: Vec<Point3> = Vec::with_capacity(n + 1024);

    // ground plane with gentle undulation and dropout holes
    let n_ground = n * 55 / 100;
    for _ in 0..n_ground {
        let x = (rng.random::<f32>() * 2.0 - 1.0) * he;
        let y = (rng.random::<f32>() * 2.0 - 1.0) * he;
        let z = 0.05 * (x * 0.21).sin() * (y * 0.17).cos() + gaussian(&mut rng) * 0.02;
        pts.push(Point3::new(x, y, z));
    }

    // walls
    let n_walls_total = n * 20 / 100;
    let per_wall = n_walls_total / cfg.num_walls.max(1);
    for _ in 0..cfg.num_walls {
        let cx = (rng.random::<f32>() * 2.0 - 1.0) * he * 0.9;
        let cy = (rng.random::<f32>() * 2.0 - 1.0) * he * 0.9;
        let len = 8.0 + rng.random::<f32>() * 16.0;
        let height = 3.0 + rng.random::<f32>() * 5.0;
        let along_x = rng.random::<bool>();
        for _ in 0..per_wall {
            let t = (rng.random::<f32>() - 0.5) * len;
            let z = rng.random::<f32>() * height;
            let jitter = gaussian(&mut rng) * 0.03;
            let p = if along_x {
                Point3::new(cx + t, cy + jitter, z)
            } else {
                Point3::new(cx + jitter, cy + t, z)
            };
            pts.push(p);
        }
    }

    // cars
    let mut car_boxes = Vec::with_capacity(cfg.num_cars);
    let n_cars_total = n * 15 / 100;
    let per_car = n_cars_total / cfg.num_cars.max(1);
    for _ in 0..cfg.num_cars {
        let center = Point3::new(
            (rng.random::<f32>() * 2.0 - 1.0) * he * 0.8,
            (rng.random::<f32>() * 2.0 - 1.0) * he * 0.8,
            0.8,
        );
        let size = Point3::new(
            4.0 + rng.random::<f32>() * 0.8,
            1.7 + rng.random::<f32>() * 0.3,
            1.5 + rng.random::<f32>() * 0.2,
        );
        car_boxes.push(Aabb::from_center_size(center, size));
        pts.extend(shapes::cuboid(&mut rng, per_car, center, size));
    }

    // poles / clutter
    let n_poles_total = n - pts.len().min(n);
    let per_pole = (n_poles_total / cfg.num_poles.max(1)).max(1);
    for _ in 0..cfg.num_poles {
        let x = (rng.random::<f32>() * 2.0 - 1.0) * he;
        let y = (rng.random::<f32>() * 2.0 - 1.0) * he;
        let h = 2.0 + rng.random::<f32>() * 6.0;
        pts.extend(shapes::segment(
            &mut rng,
            per_pole,
            Point3::new(x, y, 0.0),
            Point3::new(x, y, h),
            0.05,
        ));
    }

    (pts, car_boxes)
}

/// Emits points in azimuthal sweep order (sensor at origin), like a
/// spinning LiDAR: sort by angle, breaking memory locality of spatial
/// neighbors. Each azimuth is computed once per point, not per
/// comparison. The sort is stable and compares with `partial_cmp`, so
/// tied azimuths (including −0.0 against +0.0) keep generation order.
fn sweep_order(pts: Vec<Point3>) -> Vec<Point3> {
    let mut keyed: Vec<(f32, Point3)> = pts.into_iter().map(|p| (p.y.atan2(p.x), p)).collect();
    keyed.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    keyed.into_iter().map(|(_, p)| p).collect()
}

/// One frustum detection sample: the points in a view frustum containing a
/// single car plus background, the per-point car mask, and the ground-truth
/// box.
#[derive(Clone, Debug)]
pub struct DetectionSample {
    /// Frustum point cloud, centered per F-PointNet convention.
    pub cloud: PointCloud,
    /// 1 for points on the car, 0 for background.
    pub mask: Vec<usize>,
    /// Ground-truth car box in the same (centered) frame.
    pub gt_box: Aabb,
}

/// Train/test split of frustum detection samples.
#[derive(Clone, Debug, Default)]
pub struct DetectionDataset {
    /// Training samples.
    pub train: Vec<DetectionSample>,
    /// Held-out evaluation samples.
    pub test: Vec<DetectionSample>,
}

/// Configuration for [`DetectionDataset::generate`].
#[derive(Clone, Copy, Debug)]
pub struct DetectionConfig {
    /// Points per frustum sample.
    pub points_per_sample: usize,
    /// Number of training samples.
    pub train_samples: usize,
    /// Number of test samples.
    pub test_samples: usize,
    /// Fraction of points on the car (rest is background).
    pub car_fraction: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DetectionConfig {
    fn default() -> Self {
        DetectionConfig {
            points_per_sample: 512,
            train_samples: 160,
            test_samples: 48,
            car_fraction: 0.45,
            seed: 0xF9,
        }
    }
}

impl DetectionDataset {
    /// Generates a deterministic synthetic frustum dataset.
    pub fn generate(cfg: &DetectionConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let make = |count: usize, rng: &mut StdRng| {
            (0..count).map(|_| generate_frustum_sample(rng, cfg)).collect::<Vec<_>>()
        };
        let train = make(cfg.train_samples, &mut rng);
        let test = make(cfg.test_samples, &mut rng);
        DetectionDataset { train, test }
    }

    /// Geometric mean of per-sample box IoU against the test ground truth —
    /// the detection metric of Sec 6.
    ///
    /// # Panics
    ///
    /// Panics if `boxes.len() != self.test.len()`.
    pub fn geometric_mean_iou(&self, boxes: &[Aabb]) -> f32 {
        assert_eq!(boxes.len(), self.test.len(), "one predicted box per test sample");
        if self.test.is_empty() {
            return 0.0;
        }
        let mut log_sum = 0.0_f64;
        for (pred, sample) in boxes.iter().zip(&self.test) {
            let iou = sample.gt_box.iou(pred).max(1e-4);
            log_sum += (iou as f64).ln();
        }
        (log_sum / self.test.len() as f64).exp() as f32
    }
}

/// Generates one frustum sample.
pub fn generate_frustum_sample<R: Rng + ?Sized>(
    rng: &mut R,
    cfg: &DetectionConfig,
) -> DetectionSample {
    let n = cfg.points_per_sample;
    let n_car = ((n as f32) * cfg.car_fraction) as usize;

    // car box with random pose near the frustum center
    let center =
        Point3::new((rng.random::<f32>() - 0.5) * 2.0, (rng.random::<f32>() - 0.5) * 2.0, 0.75);
    let size = Point3::new(
        3.8 + rng.random::<f32>() * 1.0,
        1.6 + rng.random::<f32>() * 0.4,
        1.4 + rng.random::<f32>() * 0.3,
    );
    let gt_box = Aabb::from_center_size(center, size);

    let mut pts = shapes::cuboid(rng, n_car, center, size);
    let mut mask = vec![1usize; pts.len()];

    // background: ground + a clutter pole + a wall patch inside the frustum
    let n_bg = n - pts.len();
    let n_ground = n_bg * 6 / 10;
    for _ in 0..n_ground {
        pts.push(Point3::new(
            (rng.random::<f32>() - 0.5) * 10.0,
            (rng.random::<f32>() - 0.5) * 10.0,
            gaussian(rng) * 0.03,
        ));
    }
    let n_wall = n_bg - n_ground;
    let wall_x = 4.0 + rng.random::<f32>() * 2.0;
    for _ in 0..n_wall {
        pts.push(Point3::new(
            wall_x + gaussian(rng) * 0.05,
            (rng.random::<f32>() - 0.5) * 8.0,
            rng.random::<f32>() * 3.0,
        ));
    }
    mask.resize(pts.len(), 0);

    // center the frustum cloud on its centroid (F-PointNet's frame
    // normalization), adjusting the gt box by the same shift
    let mut cloud = PointCloud::from_points(pts);
    let c = cloud.centroid();
    cloud.translate(-c);
    let gt_box = Aabb::new(gt_box.min - c, gt_box.max - c);

    DetectionSample { cloud, mask, gt_box }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scene_cfg() -> LidarSceneConfig {
        LidarSceneConfig {
            total_points: 4_000,
            num_cars: 3,
            num_poles: 4,
            num_walls: 2,
            half_extent: 20.0,
            seed: 1,
        }
    }

    #[test]
    fn scene_point_budget() {
        let scene = generate_scene(&tiny_scene_cfg());
        let n = scene.cloud.len();
        assert!((3_500..=4_500).contains(&n), "got {n}");
        assert_eq!(scene.car_boxes.len(), 3);
    }

    #[test]
    fn scene_points_within_extent() {
        let scene = generate_scene(&tiny_scene_cfg());
        for p in &scene.cloud {
            assert!(p.x.abs() <= 21.0 && p.y.abs() <= 21.0, "point {p}");
            assert!(p.z >= -1.0 && p.z <= 10.0, "point {p}");
        }
    }

    #[test]
    fn scene_sweep_order_is_azimuthal() {
        let scene = generate_scene(&tiny_scene_cfg());
        let angles: Vec<f32> = scene.cloud.iter().map(|p| p.y.atan2(p.x)).collect();
        assert!(angles.windows(2).all(|w| w[0] <= w[1] + 1e-6));
    }

    /// The sweep order before azimuths were computed once per point: a
    /// stable sort with `atan2` per comparison.
    fn reference_sweep_order(mut pts: Vec<Point3>) -> Vec<Point3> {
        pts.sort_by(|a, b| {
            let aa = a.y.atan2(a.x);
            let ab = b.y.atan2(b.x);
            aa.partial_cmp(&ab).unwrap_or(std::cmp::Ordering::Equal)
        });
        pts
    }

    #[test]
    fn scene_order_matches_the_per_comparison_reference() {
        let (raw, _) = scatter_scene(&tiny_scene_cfg());
        let reference = reference_sweep_order(raw);
        let scene = generate_scene(&tiny_scene_cfg());
        assert_eq!(scene.cloud.iter().copied().collect::<Vec<_>>(), reference);
    }

    #[test]
    fn sweep_order_keeps_tied_azimuths_in_generation_order() {
        // points on the four axis rays tie exactly in azimuth, and z marks
        // generation order; the +x ray mixes +0.0 and −0.0 (total_cmp
        // would split them), and the count is past the small-slice cutoff
        // below which an unstable sort happens to be stable
        let pts: Vec<Point3> = (0..256)
            .map(|i| {
                let r = 1.0 + (i % 3) as f32;
                let z = i as f32;
                match i % 4 {
                    0 => Point3::new(r, if i % 8 == 0 { 0.0 } else { -0.0 }, z),
                    1 => Point3::new(0.0, r, z),
                    2 => Point3::new(-r, 0.0, z),
                    _ => Point3::new(0.0, -r, z),
                }
            })
            .collect();
        assert_eq!(sweep_order(pts.clone()), reference_sweep_order(pts));
    }

    #[test]
    fn scene_deterministic() {
        let a = generate_scene(&tiny_scene_cfg());
        let b = generate_scene(&tiny_scene_cfg());
        assert_eq!(a.cloud, b.cloud);
    }

    #[test]
    fn scene_cars_have_points_inside_boxes() {
        let scene = generate_scene(&tiny_scene_cfg());
        for car in &scene.car_boxes {
            let grown = Aabb::new(car.min - Point3::splat(0.01), car.max + Point3::splat(0.01));
            let inside = scene.cloud.iter().filter(|p| grown.contains(**p)).count();
            assert!(inside > 20, "car box {car} has only {inside} points");
        }
    }

    fn tiny_det_cfg() -> DetectionConfig {
        DetectionConfig {
            points_per_sample: 128,
            train_samples: 4,
            test_samples: 2,
            car_fraction: 0.4,
            seed: 2,
        }
    }

    #[test]
    fn detection_counts_and_mask() {
        let ds = DetectionDataset::generate(&tiny_det_cfg());
        assert_eq!(ds.train.len(), 4);
        assert_eq!(ds.test.len(), 2);
        for s in ds.train.iter().chain(&ds.test) {
            assert_eq!(s.cloud.len(), 128);
            assert_eq!(s.mask.len(), 128);
            let car_pts = s.mask.iter().filter(|&&m| m == 1).count();
            assert!(car_pts > 30 && car_pts < 80, "{car_pts} car points");
        }
    }

    #[test]
    fn detection_mask_matches_box() {
        let ds = DetectionDataset::generate(&tiny_det_cfg());
        for s in &ds.test {
            let grown =
                Aabb::new(s.gt_box.min - Point3::splat(0.01), s.gt_box.max + Point3::splat(0.01));
            for (p, &m) in s.cloud.iter().zip(&s.mask) {
                if m == 1 {
                    assert!(grown.contains(*p), "car point {p} outside gt box {grown}");
                }
            }
        }
    }

    #[test]
    fn geometric_mean_iou_bounds() {
        let ds = DetectionDataset::generate(&tiny_det_cfg());
        let perfect: Vec<Aabb> = ds.test.iter().map(|s| s.gt_box).collect();
        assert!((ds.geometric_mean_iou(&perfect) - 1.0).abs() < 1e-5);
        let bad: Vec<Aabb> = ds
            .test
            .iter()
            .map(|_| Aabb::from_center_size(Point3::splat(50.0), Point3::splat(1.0)))
            .collect();
        assert!(ds.geometric_mean_iou(&bad) < 0.01);
    }

    #[test]
    fn paper_scale_config_is_large() {
        let cfg = LidarSceneConfig::paper_scale(0);
        assert_eq!(cfg.total_points, 1_200_000);
    }
}
