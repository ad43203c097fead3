//! Incremental brute-force oracle: a uniform-grid cell index that answers
//! radius queries with results **bit-identical** to
//! [`radius_search_bruteforce`](crate::radius_search_bruteforce), built
//! over one frame and *patched* across frames that are exact rigid
//! translations of it.
//!
//! The sweep explorer solves every scenario's exact neighbor sets up
//! front (the recall oracle). The naive `O(n · q)` scan per frame would
//! dominate that setup; the grid bins each point once, so a query only
//! scans the cells overlapping its search ball. The sweep builds one
//! index per frame, each in that frame's own job on its worker pool. A
//! rendered frame is in practice never an exact f32 translation of the
//! one before it, because the render rounds each `p − position` anew:
//! chained across the quick and full grids' streams, none of the 160
//! advances patches.
//!
//! [`OracleIndex::advance`] serves streams that really are rigid: a
//! frame that is an exact translation of the indexed one needs no new
//! grid at all — the query shifts into the index's base space instead.
//! Its property test in `tests/oracle_properties.rs` and perfbench's
//! chained oracle pass call it.
//!
//! # Honesty rules (mirroring refit's)
//!
//! The patch path mirrors the validation discipline of
//! `crescent_kdtree`'s refit: it is taken **only** when every point of
//! the new frame is *exactly* `base[i] + offset` (float equality,
//! per coordinate), so the candidate filter can reconstruct each current
//! position bit-exactly as `base[i] + offset` and squared distances come
//! out identical to the naive scan. Anything else — a size change, per
//! point noise, any non-rigid motion — falls back to a fresh
//! [`OracleIndex::build`] over the new cloud. Incoherence costs build
//! time, never correctness.
//!
//! # Exactness
//!
//! The grid is only a *candidate* filter and is deliberately
//! conservative (cells are clamped to at least the search radius, the
//! query window is widened by one cell plus an epsilon slack absorbing
//! the base-space transform's rounding); the exact `d² ≤ r²` test and
//! the `(d², index)` sort do the rest, reproducing the naive scan's
//! stable order — including [`Option<usize>`] truncation — bit for bit.
//! `tests/oracle_properties.rs` asserts the equality on every canonical
//! stream scenario and on streams fuzzed by the umbrella package's
//! `testgen::ScenarioGen`.

use crate::bruteforce::Neighbor;
use crate::cloud::PointCloud;
use crate::point::Point3;

/// How [`OracleIndex::advance`] absorbed a new frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OracleAdvance {
    /// The frame is an exact rigid translation of the indexed cloud; the
    /// grid was kept and only the query-space offset changed.
    Patched,
    /// The frame was not order-preserving (size change, noise, non-rigid
    /// motion); the index was rebuilt from scratch.
    Rebuilt,
}

/// A uniform-grid radius-query index over one point cloud, with answers
/// bit-identical to [`radius_search_bruteforce`](crate::radius_search_bruteforce)
/// at the radius fixed at build time.
///
/// # Examples
///
/// ```
/// use crescent_pointcloud::{radius_search_bruteforce, OracleIndex, Point3, PointCloud};
///
/// let cloud: PointCloud = (0..64).map(|i| Point3::new(i as f32 * 0.1, 0.0, 0.0)).collect();
/// let oracle = OracleIndex::build(&cloud, 0.25);
/// let q = Point3::new(1.0, 0.0, 0.0);
/// assert_eq!(
///     oracle.radius_search(q, Some(8)),
///     radius_search_bruteforce(&cloud, q, 0.25, Some(8)),
/// );
/// ```
#[derive(Clone, Debug)]
pub struct OracleIndex {
    /// The indexed cloud, in the grid's own coordinate space.
    base: Vec<Point3>,
    /// Rigid translation from base space to the current frame:
    /// `current[i] == base[i] + offset`, bit-exact (enforced by
    /// [`OracleIndex::advance`]).
    offset: Point3,
    /// Search radius the index serves (fixes the cell size).
    radius: f32,
    /// Minimum corner of the base cloud's bounding box.
    origin: Point3,
    /// Per-axis cell width (always positive).
    cell: Point3,
    /// Grid dimensions (each at least 1).
    dims: [usize; 3],
    /// CSR cell starts: cell `f` holds `items[starts[f]..starts[f + 1]]`.
    starts: Vec<u32>,
    /// Point indices, bucketed by cell.
    items: Vec<u32>,
    /// Largest absolute base coordinate, for the float-slack bound.
    scale: f32,
}

impl OracleIndex {
    /// Builds the grid index over `cloud` for queries at `radius`.
    ///
    /// Cost is `O(n)` plus the cell array (capped near `4 n` cells, so a
    /// degenerate radius cannot blow up memory).
    ///
    /// # Panics
    ///
    /// Panics if the cloud has more than `u32::MAX` points.
    pub fn build(cloud: &PointCloud, radius: f32) -> Self {
        let base: Vec<Point3> = cloud.points().to_vec();
        let n = base.len();
        assert!(n <= u32::MAX as usize, "oracle index caps at u32 point ids");
        let r = radius.abs();

        let mut origin = Point3::splat(f32::INFINITY);
        let mut top = Point3::splat(f32::NEG_INFINITY);
        let mut scale = 0.0f32;
        for p in &base {
            origin = origin.min(*p);
            top = top.max(*p);
            scale = scale.max(p.x.abs()).max(p.y.abs()).max(p.z.abs());
        }
        if n == 0 {
            origin = Point3::ZERO;
            top = Point3::ZERO;
        }
        let extent = top - origin;

        // Cap the cell count near 4 n: a tiny radius over a large scene
        // must widen the cells, not explode the array. Non-finite clouds
        // collapse to one cell (the scan degenerates to brute force).
        let max_axis = (((4 * n.max(1)) as f64).cbrt().ceil() as usize).max(1);
        let degenerate = !origin.is_finite() || !extent.is_finite();
        let mut dims = [1usize; 3];
        let mut cell = Point3::splat(1.0);
        for (a, dim) in dims.iter_mut().enumerate() {
            let e = extent.coord(a);
            let want = if r > 0.0 && !degenerate { (e / r).ceil() as usize } else { 1 };
            *dim = want.clamp(1, max_axis);
            let w = if e > 0.0 && !degenerate { e / *dim as f32 } else { 1.0 };
            cell = cell.with_coord(a, w.max(f32::MIN_POSITIVE));
        }

        let mut this = OracleIndex {
            base,
            offset: Point3::ZERO,
            radius,
            origin,
            cell,
            dims,
            starts: Vec::new(),
            items: Vec::new(),
            scale,
        };
        let num_cells = dims[0] * dims[1] * dims[2];
        let mut starts = vec![0u32; num_cells + 1];
        for p in &this.base {
            starts[this.flat(this.cell_of(*p)) + 1] += 1;
        }
        for f in 0..num_cells {
            starts[f + 1] += starts[f];
        }
        let mut cursor = starts.clone();
        let mut items = vec![0u32; n];
        for (i, p) in this.base.iter().enumerate() {
            let f = this.flat(this.cell_of(*p));
            items[cursor[f] as usize] = i as u32;
            cursor[f] += 1;
        }
        this.starts = starts;
        this.items = items;
        this
    }

    /// Absorbs the next frame of a stream.
    ///
    /// If `cloud` is an exact rigid translation of the indexed base cloud
    /// (every point satisfies `base[i] + off == cloud[i]` for one shared
    /// `off`, float-exact), the grid is kept and only the query offset
    /// changes — `O(n)` verification, no allocation. Otherwise the index
    /// is rebuilt over `cloud` (see the module docs' honesty rules).
    pub fn advance(&mut self, cloud: &PointCloud) -> OracleAdvance {
        let pts = cloud.points();
        if pts.len() != self.base.len() {
            *self = OracleIndex::build(cloud, self.radius);
            return OracleAdvance::Rebuilt;
        }
        if pts.is_empty() {
            self.offset = Point3::ZERO;
            return OracleAdvance::Patched;
        }
        let off = pts[0] - self.base[0];
        let rigid = pts.iter().zip(&self.base).all(|(p, b)| *b + off == *p);
        if rigid {
            self.offset = off;
            OracleAdvance::Patched
        } else {
            *self = OracleIndex::build(cloud, self.radius);
            OracleAdvance::Rebuilt
        }
    }

    /// The radius this index answers queries at.
    pub fn radius(&self) -> f32 {
        self.radius
    }

    /// Current base-to-frame translation (zero right after a build).
    pub fn offset(&self) -> Point3 {
        self.offset
    }

    /// Radius query against the current frame, bit-identical to
    /// [`radius_search_bruteforce`](crate::radius_search_bruteforce) on
    /// that frame at the build radius.
    pub fn radius_search(&self, query: Point3, max_neighbors: Option<usize>) -> Vec<Neighbor> {
        let mut out = Vec::new();
        self.radius_search_into(query, max_neighbors, &mut out);
        out
    }

    /// [`OracleIndex::radius_search`] writing into a caller-owned buffer
    /// (cleared and refilled), recycling its allocation across queries.
    pub fn radius_search_into(
        &self,
        query: Point3,
        max_neighbors: Option<usize>,
        out: &mut Vec<Neighbor>,
    ) {
        out.clear();
        if self.base.is_empty() {
            return;
        }
        let r = self.radius.abs();
        let r2 = self.radius * self.radius;
        // Query in base space: the grid never moved, the query does. The
        // transform rounds (`query − offset` is one f32 subtraction per
        // axis), so the window gets an epsilon slack proportional to the
        // coordinate magnitudes plus a whole-cell margin; over-coverage
        // is harmless — the exact d² filter below decides membership.
        let qb = query - self.offset;
        let q_scale = query.x.abs().max(query.y.abs()).max(query.z.abs());
        let off_scale = self.offset.x.abs().max(self.offset.y.abs()).max(self.offset.z.abs());
        let slack = (self.scale + q_scale + off_scale + r) * f32::EPSILON * 8.0;
        let mut lo = [0usize; 3];
        let mut hi = [0usize; 3];
        for a in 0..3 {
            let w = self.cell.coord(a);
            let lof = (qb.coord(a) - r - slack - self.origin.coord(a)) / w;
            let hif = (qb.coord(a) + r + slack - self.origin.coord(a)) / w;
            lo[a] = ((lof as isize) - 1).max(0) as usize;
            hi[a] = match (((hif as isize) + 1).max(0) as usize).min(self.dims[a] - 1) {
                h if h >= lo[a] => h,
                _ => return, // search ball entirely outside the grid
            };
        }
        for cx in lo[0]..=hi[0] {
            for cy in lo[1]..=hi[1] {
                for cz in lo[2]..=hi[2] {
                    let f = self.flat([cx, cy, cz]);
                    for &i in &self.items[self.starts[f] as usize..self.starts[f + 1] as usize] {
                        // bit-exact current position (advance() verified it)
                        let p = self.base[i as usize] + self.offset;
                        let d2 = p.dist2(query);
                        if d2 <= r2 {
                            out.push(Neighbor { index: i as usize, dist2: d2 });
                        }
                    }
                }
            }
        }
        // The naive scan visits points in index order and sorts stably by
        // d² alone; candidates here arrive in cell order, so sorting by
        // (d², index) restores the identical total order (NaN is already
        // excluded by the filter).
        out.sort_unstable_by(|a, b| {
            a.dist2
                .partial_cmp(&b.dist2)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.index.cmp(&b.index))
        });
        if let Some(k) = max_neighbors {
            out.truncate(k);
        }
    }

    fn cell_of(&self, p: Point3) -> [usize; 3] {
        let mut c = [0usize; 3];
        for (a, slot) in c.iter_mut().enumerate() {
            let f = (p.coord(a) - self.origin.coord(a)) / self.cell.coord(a);
            // saturating casts: negatives and NaN land in cell 0
            *slot = (f as usize).min(self.dims[a] - 1);
        }
        c
    }

    fn flat(&self, c: [usize; 3]) -> usize {
        (c[0] * self.dims[1] + c[1]) * self.dims[2] + c[2]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bruteforce::radius_search_bruteforce;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_cloud(n: usize, seed: u64, spread: f32) -> PointCloud {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                Point3::new(
                    rng.random::<f32>() * spread,
                    rng.random::<f32>() * spread,
                    rng.random::<f32>() * spread,
                )
            })
            .collect()
    }

    fn assert_matches_naive(cloud: &PointCloud, oracle: &OracleIndex, radius: f32, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        for k in [None, Some(1), Some(7)] {
            for _ in 0..40 {
                let q = Point3::new(
                    rng.random::<f32>() * 5.0 - 1.0,
                    rng.random::<f32>() * 5.0 - 1.0,
                    rng.random::<f32>() * 5.0 - 1.0,
                );
                assert_eq!(
                    oracle.radius_search(q, k),
                    radius_search_bruteforce(cloud, q, radius, k),
                    "query {q} cap {k:?}"
                );
            }
        }
    }

    #[test]
    fn fresh_index_matches_bruteforce_bit_for_bit() {
        for (n, radius) in [(1usize, 0.5f32), (64, 0.3), (700, 0.25), (700, 3.0)] {
            let cloud = random_cloud(n, n as u64, 3.0);
            let oracle = OracleIndex::build(&cloud, radius);
            assert_matches_naive(&cloud, &oracle, radius, 99 + n as u64);
        }
    }

    /// A cloud on the 1/64 grid: adding a dyadic drift of moderate
    /// magnitude is then float-exact, so the stream is *exactly* rigid —
    /// the regime the patch path serves.
    fn quantized_cloud(n: usize, seed: u64, spread: f32) -> PointCloud {
        random_cloud(n, seed, spread)
            .iter()
            .map(|p| {
                Point3::new(
                    (p.x * 64.0).round() / 64.0,
                    (p.y * 64.0).round() / 64.0,
                    (p.z * 64.0).round() / 64.0,
                )
            })
            .collect()
    }

    #[test]
    fn rigid_translation_patches_instead_of_rebuilding() {
        let base = quantized_cloud(500, 3, 3.0);
        let mut oracle = OracleIndex::build(&base, 0.4);
        let drift = Point3::new(0.125, -0.0625, 0.25);
        let mut cur = base.clone();
        for step in 0..4 {
            cur = cur.iter().map(|&p| p + drift).collect();
            assert_eq!(oracle.advance(&cur), OracleAdvance::Patched, "step {step}");
            assert_matches_naive(&cur, &oracle, 0.4, 40 + step);
        }
        assert_ne!(oracle.offset(), Point3::ZERO);
    }

    #[test]
    fn noise_and_size_changes_force_a_rebuild() {
        let base = random_cloud(300, 5, 3.0);
        let mut oracle = OracleIndex::build(&base, 0.4);

        let mut pts = base.points().to_vec();
        pts[137].y += 1e-3; // one point off the rigid motion
        let noisy: PointCloud = pts.into_iter().collect();
        assert_eq!(oracle.advance(&noisy), OracleAdvance::Rebuilt);
        assert_matches_naive(&noisy, &oracle, 0.4, 51);

        let shrunk = random_cloud(120, 6, 3.0);
        assert_eq!(oracle.advance(&shrunk), OracleAdvance::Rebuilt);
        assert_matches_naive(&shrunk, &oracle, 0.4, 52);
    }

    #[test]
    fn degenerate_clouds_and_radii() {
        let empty = PointCloud::new();
        let mut oracle = OracleIndex::build(&empty, 0.5);
        assert!(oracle.radius_search(Point3::ZERO, None).is_empty());
        assert_eq!(oracle.advance(&empty), OracleAdvance::Patched);

        // all points coincident: zero extent, one cell
        let pile: PointCloud = (0..32).map(|_| Point3::splat(1.5)).collect();
        let oracle = OracleIndex::build(&pile, 0.25);
        assert_eq!(oracle.radius_search(Point3::splat(1.5), None).len(), 32);
        assert_matches_naive(&pile, &oracle, 0.25, 60);

        // zero radius still matches exact coincidences (d² = 0 ≤ 0)
        let cloud = random_cloud(50, 7, 2.0);
        let oracle = OracleIndex::build(&cloud, 0.0);
        let q = cloud.point(17);
        assert_eq!(oracle.radius_search(q, None), radius_search_bruteforce(&cloud, q, 0.0, None));

        // tiny radius over a big scene: the per-axis cell cap must hold
        // memory near ceil(cbrt(4 n))^3 cells
        let wide = random_cloud(200, 8, 500.0);
        let oracle = OracleIndex::build(&wide, 1e-4);
        let cap = ((4.0 * 200.0f64).cbrt().ceil() as usize).pow(3);
        assert!(oracle.starts.len() <= cap + 1, "{} cells", oracle.starts.len());
        assert_matches_naive(&wide, &oracle, 1e-4, 61);
    }

    #[test]
    fn large_coordinate_offsets_stay_exact() {
        // a rigid shift far from the origin stresses the float slack:
        // base-space queries round hardest when coordinates are big
        let base = random_cloud(400, 9, 4.0);
        let mut oracle = OracleIndex::build(&base, 0.5);
        let shifted: PointCloud =
            base.iter().map(|&p| p + Point3::new(8192.0, -4096.0, 2048.0)).collect();
        assert_eq!(oracle.advance(&shifted), OracleAdvance::Patched);
        let mut rng = StdRng::seed_from_u64(70);
        for _ in 0..60 {
            let jitter = Point3::new(
                rng.random::<f32>() * 6.0 - 1.0,
                rng.random::<f32>() * 6.0 - 1.0,
                rng.random::<f32>() * 6.0 - 1.0,
            );
            let q = shifted.point(rng.random_range(0..shifted.len())) + jitter * 0.1;
            assert_eq!(
                oracle.radius_search(q, Some(9)),
                radius_search_bruteforce(&shifted, q, 0.5, Some(9)),
            );
        }
    }
}
