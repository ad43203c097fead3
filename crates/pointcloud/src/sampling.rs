//! Point-cloud sampling: farthest-point sampling and random subsampling.
//!
//! PointNet++-style set-abstraction layers pick their output centroids by
//! farthest-point sampling (FPS) over the input cloud; every network in the
//! Crescent evaluation uses it (Sec 2.1's "output point cloud").

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cloud::PointCloud;
use crate::point::Point3;

/// Selects `n` point indices by farthest-point sampling.
///
/// The first pick is the point farthest from the centroid (deterministic, so
/// training and inference agree); each subsequent pick maximizes the minimum
/// distance to the already-picked set. If `n >= cloud.len()`, all indices
/// are returned in order.
///
/// # Examples
///
/// ```
/// use crescent_pointcloud::{farthest_point_sample, Point3, PointCloud};
///
/// let cloud: PointCloud = (0..8).map(|i| Point3::new(i as f32, 0.0, 0.0)).collect();
/// let picks = farthest_point_sample(&cloud, 2);
/// // the two extreme points are the farthest-apart pair
/// assert!(picks.contains(&0) && picks.contains(&7));
/// ```
pub fn farthest_point_sample(cloud: &PointCloud, n: usize) -> Vec<usize> {
    let pts = cloud.points();
    if n >= pts.len() {
        return (0..pts.len()).collect();
    }
    if n == 0 || pts.is_empty() {
        return Vec::new();
    }

    let centroid = cloud.centroid();
    let first = last_max(pts.iter().map(|p| p.dist2(centroid)));
    let columns = Columns::new(pts);
    let mut min_d2 = vec![0.0; pts.len()];
    let mut picked = Vec::with_capacity(n);
    picked.push(first);
    while picked.len() < n {
        // one pass per pick: fold the newest pick into every point's
        // distance to the picked set and find the farthest point
        let newest = pts[*picked.last().expect("the first pick is made")];
        let farthest = if picked.len() == 1 {
            columns.update_and_argmax::<true>(&mut min_d2, newest)
        } else {
            columns.update_and_argmax::<false>(&mut min_d2, newest)
        };
        picked.push(farthest.unwrap_or_else(|| last_max(min_d2.iter().copied())));
    }
    picked
}

/// Index of the last maximum of `values` under `partial_cmp` with
/// incomparable pairs equal — `Iterator::max_by`'s rule ([`takes_lead`]):
/// a NaN takes the lead and the next value takes it back.
fn last_max(values: impl Iterator<Item = f32>) -> usize {
    let mut best = f32::NEG_INFINITY;
    let mut best_idx = 0;
    for (i, d) in values.enumerate() {
        if takes_lead(best, d) {
            best = d;
            best_idx = i;
        }
    }
    best_idx
}

/// Whether `d` takes the lead from `best` under `max_by`'s rule: unless
/// `best` is strictly greater, so a NaN on either side takes it.
#[inline(always)]
fn takes_lead(best: f32, d: f32) -> bool {
    best.partial_cmp(&d) != Some(std::cmp::Ordering::Greater)
}

/// Lanes of the fused FPS pass.
const LANES: usize = 8;

/// A cloud's coordinates as columns, for the fused FPS pass.
struct Columns {
    xs: Vec<f32>,
    ys: Vec<f32>,
    zs: Vec<f32>,
}

impl Columns {
    fn new(pts: &[Point3]) -> Self {
        Columns {
            xs: pts.iter().map(|p| p.x).collect(),
            ys: pts.iter().map(|p| p.y).collect(),
            zs: pts.iter().map(|p| p.z).collect(),
        }
    }

    /// Lowers each point's entry of `min_d2` to its distance to `pick`
    /// (sets it, when `INIT`) and returns the index of the last maximum
    /// of the updated entries, or `None` if one of them is NaN.
    ///
    /// Point `i` folds into lane `i % LANES`, each lane keeping its last
    /// maximum, and the lanes merge by (value, larger index). Without NaN
    /// that is the sequential [`last_max`]; with one the sequential rule
    /// depends on order, so the caller falls back to it.
    fn update_and_argmax<const INIT: bool>(
        &self,
        min_d2: &mut [f32],
        pick: Point3,
    ) -> Option<usize> {
        debug_assert!(min_d2.len() <= u32::MAX as usize, "lane indices are u32");
        let mut best = [f32::NEG_INFINITY; LANES];
        let mut best_idx = [0u32; LANES];
        let mut nan = [false; LANES];
        let full = min_d2.len() / LANES * LANES;
        let (body, tail) = min_d2.split_at_mut(full);
        for (c, (((d, x), y), z)) in body
            .chunks_exact_mut(LANES)
            .zip(self.xs.chunks_exact(LANES))
            .zip(self.ys.chunks_exact(LANES))
            .zip(self.zs.chunks_exact(LANES))
            .enumerate()
        {
            let d: &mut [f32; LANES] = d.try_into().expect("a full chunk");
            let (x, y, z): (&[f32; LANES], &[f32; LANES], &[f32; LANES]) = (
                x.try_into().expect("a full chunk"),
                y.try_into().expect("a full chunk"),
                z.try_into().expect("a full chunk"),
            );
            let base = (c * LANES) as u32;
            for lane in 0..LANES {
                // the float ops of `Point3::dist2`, in its order
                let (dx, dy, dz) = (x[lane] - pick.x, y[lane] - pick.y, z[lane] - pick.z);
                let nd = dx * dx + dy * dy + dz * dz;
                let v = if INIT || nd < d[lane] { nd } else { d[lane] };
                d[lane] = v;
                nan[lane] |= v.is_nan();
                let take = takes_lead(best[lane], v);
                best[lane] = if take { v } else { best[lane] };
                best_idx[lane] = if take { base + lane as u32 } else { best_idx[lane] };
            }
        }
        // the last, partial chunk: the same fold, lane by lane
        for (lane, d) in tail.iter_mut().enumerate() {
            let i = full + lane;
            let (dx, dy, dz) = (self.xs[i] - pick.x, self.ys[i] - pick.y, self.zs[i] - pick.z);
            let nd = dx * dx + dy * dy + dz * dz;
            if INIT || nd < *d {
                *d = nd;
            }
            nan[lane] |= d.is_nan();
            if takes_lead(best[lane], *d) {
                best[lane] = *d;
                best_idx[lane] = i as u32;
            }
        }
        if nan.contains(&true) {
            return None;
        }
        let mut lead = 0;
        for lane in 1..LANES {
            if best[lane] > best[lead]
                || (best[lane] == best[lead] && best_idx[lane] > best_idx[lead])
            {
                lead = lane;
            }
        }
        Some(best_idx[lead] as usize)
    }
}

/// Returns the sampled sub-cloud (points, not indices) of
/// [`farthest_point_sample`].
pub fn farthest_point_subcloud(cloud: &PointCloud, n: usize) -> PointCloud {
    farthest_point_sample(cloud, n).into_iter().map(|i| cloud.point(i)).collect()
}

/// Uniformly subsamples `n` point indices without replacement, seeded for
/// reproducibility.
///
/// If `n >= cloud.len()`, all indices are returned.
pub fn random_sample(cloud: &PointCloud, n: usize, seed: u64) -> Vec<usize> {
    let len = cloud.len();
    if n >= len {
        return (0..len).collect();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    // partial Fisher-Yates: shuffle the first n slots
    let mut idx: Vec<usize> = (0..len).collect();
    for i in 0..n {
        let j = rng.random_range(i..len);
        idx.swap(i, j);
    }
    idx.truncate(n);
    idx
}

/// Pads or truncates an index list to exactly `k` entries by repeating the
/// last valid entry, mirroring the neighbor-replication convention of point
/// cloud networks when a search returns fewer than `k` neighbors
/// (Sec 4.2, "this replication strategy is commonly done in point cloud
/// network design").
///
/// Returns an empty vector if `neighbors` is empty and `fallback` is `None`;
/// with a `fallback` index the result always has `k` entries.
pub fn replicate_to_k(neighbors: &[usize], k: usize, fallback: Option<usize>) -> Vec<usize> {
    let mut out = Vec::with_capacity(k);
    out.extend(neighbors.iter().copied().take(k));
    let filler = out.last().copied().or(fallback);
    if let Some(f) = filler {
        while out.len() < k {
            out.push(f);
        }
    }
    out
}

/// Jitters every point with zero-mean Gaussian noise of the given standard
/// deviation (standard point-cloud training augmentation).
pub fn jitter(cloud: &mut PointCloud, sigma: f32, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let pts: Vec<Point3> = cloud
        .iter()
        .map(|p| {
            *p + Point3::new(
                gaussian(&mut rng) * sigma,
                gaussian(&mut rng) * sigma,
                gaussian(&mut rng) * sigma,
            )
        })
        .collect();
    *cloud = PointCloud::from_points(pts);
}

/// Draws a standard-normal sample via Box–Muller.
///
/// (The sanctioned dependency set does not include `rand_distr`.)
pub fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f32 {
    let u1: f32 = rng.random::<f32>().max(1e-9);
    let u2: f32 = rng.random::<f32>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_cloud(n: usize) -> PointCloud {
        (0..n).map(|i| Point3::new(i as f32, 0.0, 0.0)).collect()
    }

    #[test]
    fn fps_picks_extremes_first() {
        let c = line_cloud(10);
        let picks = farthest_point_sample(&c, 3);
        assert_eq!(picks.len(), 3);
        assert!(picks.contains(&0));
        assert!(picks.contains(&9));
    }

    #[test]
    fn fps_returns_all_when_n_large() {
        let c = line_cloud(4);
        assert_eq!(farthest_point_sample(&c, 10), vec![0, 1, 2, 3]);
    }

    #[test]
    fn fps_zero_and_empty() {
        assert!(farthest_point_sample(&line_cloud(4), 0).is_empty());
        assert!(farthest_point_sample(&PointCloud::new(), 3).is_empty());
    }

    #[test]
    fn fps_indices_unique() {
        let c = line_cloud(50);
        let picks = farthest_point_sample(&c, 20);
        let mut sorted = picks.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), picks.len());
    }

    #[test]
    fn fps_spreads_better_than_prefix() {
        // FPS min-pairwise-distance should beat taking the first n points
        let c = line_cloud(100);
        let picks = farthest_point_sample(&c, 5);
        let min_gap = |ids: &[usize]| {
            let mut m = f32::INFINITY;
            for (i, &a) in ids.iter().enumerate() {
                for &b in &ids[i + 1..] {
                    m = m.min(c.point(a).dist(c.point(b)));
                }
            }
            m
        };
        assert!(min_gap(&picks) > min_gap(&[0, 1, 2, 3, 4]));
    }

    /// Today's two-pass FPS loop, kept as the reference: each pick scans
    /// for the last maximum with `max_by`, then lowers every distance.
    fn reference_fps(cloud: &PointCloud, n: usize) -> Vec<usize> {
        let pts = cloud.points();
        if n >= pts.len() {
            return (0..pts.len()).collect();
        }
        if n == 0 || pts.is_empty() {
            return Vec::new();
        }
        let centroid = cloud.centroid();
        let first = pts
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| {
                a.dist2(centroid)
                    .partial_cmp(&b.dist2(centroid))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|(i, _)| i)
            .expect("non-empty cloud");
        let mut picked = vec![first];
        let mut min_d2: Vec<f32> = pts.iter().map(|p| p.dist2(pts[first])).collect();
        while picked.len() < n {
            let (next, _) = min_d2
                .iter()
                .enumerate()
                .max_by(|(_, a), (_, b)| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
                .expect("non-empty distances");
            picked.push(next);
            let np = pts[next];
            for (d, p) in min_d2.iter_mut().zip(pts) {
                let nd = p.dist2(np);
                if nd < *d {
                    *d = nd;
                }
            }
        }
        picked
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// The fused single-pass FPS picks exactly what the two-pass loop
        /// picks: on coarse grids (duplicate points, exact distance ties),
        /// at sizes that are no multiple of the lane count, with and
        /// without a NaN point.
        #[test]
        fn fused_fps_matches_the_two_pass_loop(
            grid in proptest::prop::collection::vec((0u8..4, 0u8..4, 0u8..3), 1..40),
            n in 0usize..44,
            nan_at in 0usize..80,
        ) {
            let mut pts: Vec<Point3> =
                grid.iter().map(|&(x, y, z)| Point3::new(x as f32, y as f32, z as f32)).collect();
            if let Some(p) = pts.get_mut(nan_at) {
                p.y = f32::NAN;
            }
            let cloud = PointCloud::from_points(pts);
            proptest::prop_assert_eq!(farthest_point_sample(&cloud, n), reference_fps(&cloud, n));
        }
    }

    #[test]
    fn subcloud_matches_indices() {
        let c = line_cloud(10);
        let idx = farthest_point_sample(&c, 4);
        let sub = farthest_point_subcloud(&c, 4);
        for (pos, &i) in idx.iter().enumerate() {
            assert_eq!(sub.point(pos), c.point(i));
        }
    }

    #[test]
    fn random_sample_deterministic_and_unique() {
        let c = line_cloud(30);
        let a = random_sample(&c, 10, 7);
        let b = random_sample(&c, 10, 7);
        assert_eq!(a, b);
        let mut s = a.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 10);
        assert_ne!(a, random_sample(&c, 10, 8));
    }

    #[test]
    fn replicate_pads_and_truncates() {
        assert_eq!(replicate_to_k(&[3, 5], 4, None), vec![3, 5, 5, 5]);
        assert_eq!(replicate_to_k(&[1, 2, 3, 4, 5], 3, None), vec![1, 2, 3]);
        assert_eq!(replicate_to_k(&[], 3, Some(9)), vec![9, 9, 9]);
        assert!(replicate_to_k(&[], 3, None).is_empty());
    }

    #[test]
    fn jitter_moves_points_slightly() {
        let mut c = line_cloud(20);
        let orig = c.clone();
        jitter(&mut c, 0.01, 3);
        let max_move = c.iter().zip(orig.iter()).map(|(a, b)| a.dist(*b)).fold(0.0_f32, f32::max);
        assert!(max_move > 0.0 && max_move < 0.2);
    }

    #[test]
    fn gaussian_is_roughly_standard() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| gaussian(&mut rng)).collect();
        let mean = samples.iter().sum::<f32>() / n as f32;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }
}
