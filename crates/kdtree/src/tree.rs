//! Flat-array K-d tree.
//!
//! The tree is **left-balanced / complete**: node `i`'s children live at
//! heap slots `2i+1` and `2i+2`, and all `n` nodes occupy slots `0..n`
//! contiguously. This is exactly the layout the Crescent hardware assumes:
//! a tree (or sub-tree) is a dense array that can be DMA-ed on-chip as one
//! streaming transfer, and the Sec 3.3 capacity inequalities
//! `2^{h_t} − 1 ≤ S` / `2^{H−h_t+1} − 1 ≤ S` hold with equality-tight
//! bounds.
//!
//! In host memory the flat array is stored structure-of-arrays: a dense
//! `Vec<Point3>` coordinate column plus a parallel packed `Vec<u32>`
//! carrying (axis, original point index). The *modeled* DRAM image is
//! unchanged — [`NODE_BYTES`] and every address/byte count still describe
//! the 16-byte AoS node the hardware streams — but the simulator's
//! distance-compare inner loops now touch only the 12-byte coordinates
//! they need, which is most of the simulator's wall-clock. See
//! `docs/ARCHITECTURE.md` ("Modeled time vs wall-clock time").

use crescent_pointcloud::{Point3, PointCloud, POINT_BYTES};

/// Size of one tree node in the accelerator's DRAM layout: 12 B point +
/// 4 B packed (axis, original point index).
pub const NODE_BYTES: usize = 16;

/// Cost model of one [`KdTree::build`] — the phase every streaming frame
/// pays before a single query can run, and which a timing model must
/// charge for (nothing about tree construction is free: the cloud is
/// streamed in, every point participates in one partition pass per tree
/// level, and the finished node image is streamed back out).
///
/// The build unit is modeled as a single-lane partitioner: one
/// compare-and-move per cycle during median selection plus one node write
/// per cycle, with the DRAM side (cloud in, image out) fully streaming
/// and double-buffered against the datapath.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BuildStats {
    /// Tree nodes written to the flat image (= number of points).
    pub nodes_written: usize,
    /// Points moved through partition passes (`select_nth` touches every
    /// point once per recursion level, so this is ≈ `n · H`).
    pub points_moved: usize,
    /// DRAM bytes of the build's streaming schedule: the cloud read once
    /// plus the node image written once.
    pub dram_bytes: u64,
    /// Datapath cycles of the build unit (one compare-and-move or node
    /// write per cycle).
    pub cycles: u64,
}

impl BuildStats {
    pub(crate) fn for_cloud(n: usize, points_moved: usize) -> Self {
        BuildStats {
            nodes_written: n,
            points_moved,
            dram_bytes: (n * POINT_BYTES + n * NODE_BYTES) as u64,
            cycles: (points_moved + n) as u64,
        }
    }
}

/// One K-d tree node.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KdNode {
    /// The splitting point stored at this node.
    pub point: Point3,
    /// Split axis (0, 1, or 2); cycles with depth.
    pub axis: u8,
    /// Index of `point` in the original point cloud.
    pub point_index: u32,
}

/// A left-balanced K-d tree over a point cloud.
///
/// # Examples
///
/// ```
/// use crescent_kdtree::KdTree;
/// use crescent_pointcloud::{Point3, PointCloud};
///
/// let cloud: PointCloud = (0..100).map(|i| Point3::new(i as f32, 0.0, 0.0)).collect();
/// let tree = KdTree::build(&cloud);
/// assert_eq!(tree.len(), 100);
/// assert_eq!(tree.height(), 7); // ceil(log2(101))
/// ```
#[derive(Clone, Debug)]
pub struct KdTree {
    /// Splitting point of every node, in heap (level) order. Kept as a
    /// dense structure-of-arrays column so the distance-compare inner
    /// loops stream 12-byte coordinates instead of 16-byte nodes.
    pub(crate) points: Vec<Point3>,
    /// Packed per-node metadata, parallel to `points`: the split axis in
    /// the top two bits and the original point index in the low 30
    /// (see [`pack_meta`]).
    pub(crate) meta: Vec<u32>,
    height: usize,
    build_stats: BuildStats,
}

/// Bit position of the split axis inside a packed [`KdTree::meta`] word.
pub(crate) const META_AXIS_SHIFT: u32 = 30;
/// Mask of the original-point-index field inside a packed meta word.
pub(crate) const META_INDEX_MASK: u32 = (1 << META_AXIS_SHIFT) - 1;

/// Packs a split axis and original point index into one meta word.
#[inline]
pub(crate) fn pack_meta(axis: u8, point_index: u32) -> u32 {
    debug_assert!(axis < 3);
    debug_assert!(point_index <= META_INDEX_MASK);
    ((axis as u32) << META_AXIS_SHIFT) | point_index
}

/// Number of nodes in the left subtree of a complete (left-balanced) binary
/// tree of `n` nodes.
pub fn left_subtree_size(n: usize) -> usize {
    if n <= 1 {
        return 0;
    }
    // height of the tree: h = ceil(log2(n+1))
    let h = usize::BITS as usize - (n).leading_zeros() as usize;
    let full_above_last = (1usize << (h - 1)) - 1; // nodes in levels 0..h-1
    let last = n - full_above_last; // 1..=2^(h-1) nodes on the last level
    let half_cap = 1usize << (h - 2); // last-level capacity of the left subtree
    ((1usize << (h - 2)) - 1) + last.min(half_cap)
}

impl KdTree {
    /// Builds a K-d tree over `cloud`, cycling split axes with depth and
    /// splitting at the left-balanced median so the flat layout is
    /// complete.
    ///
    /// Building an empty cloud yields an empty tree.
    pub fn build(cloud: &PointCloud) -> Self {
        let n = cloud.len();
        assert!(
            n <= META_INDEX_MASK as usize,
            "cloud too large for the packed 30-bit point-index field"
        );
        let mut entries: Vec<(Point3, u32)> =
            cloud.iter().enumerate().map(|(i, p)| (*p, i as u32)).collect();
        let mut points = vec![Point3::ZERO; n];
        let mut meta = vec![u32::MAX; n];
        let mut points_moved = 0usize;
        if n > 0 {
            build_recursive(&mut entries, 0, 0, &mut points, &mut meta, &mut points_moved);
        }
        let height = height_for(n);
        KdTree { points, meta, height, build_stats: BuildStats::for_cloud(n, points_moved) }
    }

    /// The cost of the [`KdTree::build`] that produced this tree (the
    /// stats are *not* updated by [`KdTree::refit`](crate::refit), which
    /// reports its own [`RefitStats`](crate::RefitStats)).
    #[inline]
    pub fn build_stats(&self) -> &BuildStats {
        &self.build_stats
    }

    /// Whether `other` holds the same node in every heap slot — the same
    /// tree to every search, whatever produced it. Build statistics are
    /// ignored (a refit keeps those of the build it started from).
    pub fn same_nodes(&self, other: &KdTree) -> bool {
        self.height == other.height && self.meta == other.meta && self.points == other.points
    }

    /// Number of nodes (== number of points).
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the tree is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Tree height `H = ceil(log2(n+1))`; 0 for an empty tree.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// All nodes in heap (level) order, materialized from the SoA
    /// columns (a convenience for tests and inspection; hot loops use
    /// [`KdTree::point_of`] / [`KdTree::axis_of`] /
    /// [`KdTree::point_index_of`] to stay on the dense columns).
    pub fn nodes(&self) -> Vec<KdNode> {
        (0..self.len()).map(|i| self.node(i)).collect()
    }

    /// The node at heap slot `idx`, reassembled from the SoA columns.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.len()`.
    #[inline]
    pub fn node(&self, idx: usize) -> KdNode {
        KdNode {
            point: self.points[idx],
            axis: (self.meta[idx] >> META_AXIS_SHIFT) as u8,
            point_index: self.meta[idx] & META_INDEX_MASK,
        }
    }

    /// The splitting point stored at heap slot `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.len()`.
    #[inline]
    pub fn point_of(&self, idx: usize) -> Point3 {
        self.points[idx]
    }

    /// The split axis (0, 1, or 2) of heap slot `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.len()`.
    #[inline]
    pub fn axis_of(&self, idx: usize) -> usize {
        (self.meta[idx] >> META_AXIS_SHIFT) as usize
    }

    /// Index in the original point cloud of the point at heap slot `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.len()`.
    #[inline]
    pub fn point_index_of(&self, idx: usize) -> usize {
        (self.meta[idx] & META_INDEX_MASK) as usize
    }

    /// Heap slot of the left child, if present.
    #[inline]
    pub fn left(&self, idx: usize) -> Option<usize> {
        let c = 2 * idx + 1;
        (c < self.points.len()).then_some(c)
    }

    /// Heap slot of the right child, if present.
    #[inline]
    pub fn right(&self, idx: usize) -> Option<usize> {
        let c = 2 * idx + 2;
        (c < self.points.len()).then_some(c)
    }

    /// The depth (level) of heap slot `idx`; the root is level 0.
    #[inline]
    pub fn level_of(&self, idx: usize) -> usize {
        heap_level(idx)
    }

    /// Byte address of node `idx` in the accelerator's flat DRAM image.
    #[inline]
    pub fn node_addr(&self, idx: usize) -> u64 {
        (idx * NODE_BYTES) as u64
    }

    /// Total size of the tree image in bytes.
    #[inline]
    pub fn size_bytes(&self) -> usize {
        self.points.len() * NODE_BYTES
    }

    /// The top-tree height a split of this tree can grant for a request
    /// of `requested`: at most `height − 1`, so a sub-tree level remains,
    /// and 0 for an empty tree. [`SplitTree::new`](crate::SplitTree::new)
    /// accepts it for every request.
    pub fn clamp_top_height(&self, requested: usize) -> usize {
        requested.min(self.height.saturating_sub(1))
    }

    /// Half-open heap-slot range of the sub-tree roots when the tree is
    /// split below a top tree of height `top_height` (all existing slots
    /// at level `top_height`; empty if `top_height >= self.height()`).
    /// The single source of truth for [`KdTree::subtree_roots`] and the
    /// [`SplitTree::resplit`](crate::SplitTree::resplit) fast path.
    pub fn subtree_root_range(&self, top_height: usize) -> std::ops::Range<usize> {
        if top_height >= self.height {
            return 0..0;
        }
        let first = (1usize << top_height) - 1;
        let last = ((1usize << (top_height + 1)) - 1).min(self.points.len());
        first..last
    }

    /// Heap slots of the sub-tree roots when the tree is split below a top
    /// tree of height `top_height` (i.e. all slots at level `top_height`).
    ///
    /// Returns an empty vector if `top_height >= self.height()`.
    pub fn subtree_roots(&self, top_height: usize) -> Vec<usize> {
        self.subtree_root_range(top_height).collect()
    }

    /// Number of nodes in the sub-tree rooted at heap slot `root`.
    pub fn subtree_len(&self, root: usize) -> usize {
        heap_subtree_len(self.points.len(), root)
    }

    /// Verifies the K-d ordering invariant (debug aid / test hook): every
    /// node's left descendants are `<=` and right descendants `>=` on the
    /// node's split axis.
    pub fn check_invariants(&self) -> bool {
        fn check(tree: &KdTree, idx: usize) -> bool {
            let node = tree.node(idx);
            let axis = node.axis as usize;
            let split = node.point.coord(axis);
            let mut ok = true;
            if let Some(l) = tree.left(idx) {
                ok &= all_in_subtree(tree, l, &mut |p| p.coord(axis) <= split);
                ok &= check(tree, l);
            }
            if let Some(r) = tree.right(idx) {
                ok &= all_in_subtree(tree, r, &mut |p| p.coord(axis) >= split);
                ok &= check(tree, r);
            }
            ok
        }
        fn all_in_subtree(tree: &KdTree, idx: usize, pred: &mut dyn FnMut(Point3) -> bool) -> bool {
            let mut stack = vec![idx];
            while let Some(i) = stack.pop() {
                if !pred(tree.node(i).point) {
                    return false;
                }
                if let Some(l) = tree.left(i) {
                    stack.push(l);
                }
                if let Some(r) = tree.right(i) {
                    stack.push(r);
                }
            }
            true
        }
        self.is_empty() || check(self, 0)
    }
}

/// The level of heap slot `idx` (the root is level 0): heap arithmetic,
/// the same in every tree.
#[inline]
pub(crate) fn heap_level(idx: usize) -> usize {
    (usize::BITS as usize) - (idx + 1).leading_zeros() as usize - 1
}

/// Number of nodes beneath (and including) heap slot `root` of an
/// `n`-node heap: heap arithmetic, so a search replay can count the
/// nodes an elision skips without the tree.
pub(crate) fn heap_subtree_len(n: usize, root: usize) -> usize {
    let mut count = 0;
    let mut level_first = root;
    let mut level_width = 1usize;
    while level_first < n {
        count += (level_first + level_width).min(n) - level_first;
        level_first = 2 * level_first + 1;
        level_width *= 2;
    }
    count
}

/// Height of a complete tree with `n` nodes.
pub fn height_for(n: usize) -> usize {
    if n == 0 {
        0
    } else {
        usize::BITS as usize - n.leading_zeros() as usize
    }
}

pub(crate) fn build_recursive(
    entries: &mut [(Point3, u32)],
    heap_idx: usize,
    depth: usize,
    points_out: &mut [Point3],
    meta_out: &mut [u32],
    points_moved: &mut usize,
) {
    let n = entries.len();
    if n == 0 {
        return;
    }
    *points_moved += n;
    let axis = (depth % 3) as u8;
    let mid = left_subtree_size(n);
    entries.select_nth_unstable_by(mid, |a, b| {
        a.0.coord(axis as usize)
            .partial_cmp(&b.0.coord(axis as usize))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let (point, point_index) = entries[mid];
    points_out[heap_idx] = point;
    meta_out[heap_idx] = pack_meta(axis, point_index);
    let (lo, rest) = entries.split_at_mut(mid);
    let hi = &mut rest[1..];
    build_recursive(lo, 2 * heap_idx + 1, depth + 1, points_out, meta_out, points_moved);
    build_recursive(hi, 2 * heap_idx + 2, depth + 1, points_out, meta_out, points_moved);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_cloud(n: usize, seed: u64) -> PointCloud {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                Point3::new(
                    rng.random::<f32>() * 10.0,
                    rng.random::<f32>() * 10.0,
                    rng.random::<f32>() * 10.0,
                )
            })
            .collect()
    }

    #[test]
    fn left_subtree_sizes() {
        // n -> (left, right) must satisfy left + right + 1 == n and both
        // subtrees must be valid complete trees.
        assert_eq!(left_subtree_size(0), 0);
        assert_eq!(left_subtree_size(1), 0);
        assert_eq!(left_subtree_size(2), 1);
        assert_eq!(left_subtree_size(3), 1);
        assert_eq!(left_subtree_size(4), 2);
        assert_eq!(left_subtree_size(6), 3);
        assert_eq!(left_subtree_size(7), 3);
        assert_eq!(left_subtree_size(15), 7);
    }

    #[test]
    fn same_nodes_compares_layout_not_build_stats() {
        let base = random_cloud(500, 7);
        let moved: PointCloud = base.iter().map(|&p| p + Point3::new(0.01, 0.0, 0.0)).collect();
        // an in-place refit keeps the stats of the build it started from,
        // but holds the fresh build's nodes
        let mut refit = KdTree::build(&base);
        refit.refit(&moved, &crate::RefitConfig::default());
        let fresh = KdTree::build(&moved);
        assert!(refit.same_nodes(&fresh));
        assert!(fresh.same_nodes(&refit));
        // the same coordinates under other point indices are another tree
        let mut reversed: Vec<Point3> = moved.iter().copied().collect();
        reversed.reverse();
        let other = KdTree::build(&reversed.into_iter().collect());
        assert!(!fresh.same_nodes(&other));
        assert!(!fresh.same_nodes(&KdTree::build(&base)));
    }

    #[test]
    fn heights() {
        assert_eq!(height_for(0), 0);
        assert_eq!(height_for(1), 1);
        assert_eq!(height_for(2), 2);
        assert_eq!(height_for(3), 2);
        assert_eq!(height_for(4), 3);
        assert_eq!(height_for(7), 3);
        assert_eq!(height_for(8), 4);
    }

    #[test]
    fn build_full_layout() {
        for n in [1, 2, 3, 5, 8, 17, 64, 100, 257] {
            let tree = KdTree::build(&random_cloud(n, n as u64));
            assert_eq!(tree.len(), n);
            // every slot filled with a real point index
            let mut seen = vec![false; n];
            for node in tree.nodes() {
                let pi = node.point_index as usize;
                assert!(pi < n, "sentinel leaked into layout");
                assert!(!seen[pi], "duplicate point index");
                seen[pi] = true;
            }
        }
    }

    #[test]
    fn build_respects_kd_invariant() {
        for n in [3, 10, 33, 100] {
            let tree = KdTree::build(&random_cloud(n, 100 + n as u64));
            assert!(tree.check_invariants(), "n = {n}");
        }
    }

    #[test]
    fn axis_cycles_with_depth() {
        let tree = KdTree::build(&random_cloud(31, 3));
        for idx in 0..tree.len() {
            assert_eq!(tree.node(idx).axis as usize, tree.level_of(idx) % 3);
        }
    }

    #[test]
    fn levels_and_children() {
        let tree = KdTree::build(&random_cloud(7, 1));
        assert_eq!(tree.level_of(0), 0);
        assert_eq!(tree.level_of(1), 1);
        assert_eq!(tree.level_of(2), 1);
        assert_eq!(tree.level_of(3), 2);
        assert_eq!(tree.level_of(6), 2);
        assert_eq!(tree.left(0), Some(1));
        assert_eq!(tree.right(2), Some(6));
        assert_eq!(tree.left(3), None);
    }

    #[test]
    fn subtree_roots_and_sizes() {
        let tree = KdTree::build(&random_cloud(15, 2)); // perfect, height 4
        assert_eq!(tree.subtree_roots(0), vec![0]);
        assert_eq!(tree.subtree_roots(2), vec![3, 4, 5, 6]);
        assert_eq!(tree.subtree_len(0), 15);
        assert_eq!(tree.subtree_len(3), 3);
        assert!(tree.subtree_roots(4).is_empty());
        // non-perfect tree: sizes still partition the nodes
        let tree = KdTree::build(&random_cloud(100, 5));
        let roots = tree.subtree_roots(3);
        let total: usize = roots.iter().map(|&r| tree.subtree_len(r)).sum();
        assert_eq!(total + 7, 100); // 7 top-tree nodes at levels 0..3
    }

    #[test]
    fn empty_tree() {
        let tree = KdTree::build(&PointCloud::new());
        assert!(tree.is_empty());
        assert_eq!(tree.height(), 0);
        assert!(tree.check_invariants());
        assert!(tree.subtree_roots(0).is_empty());
    }

    #[test]
    fn build_stats_model_the_construction_cost() {
        let tree = KdTree::build(&random_cloud(1000, 8));
        let s = *tree.build_stats();
        assert_eq!(s.nodes_written, 1000);
        // every level's partition pass touches ~n points: between n (one
        // level) and n·H in total
        assert!(s.points_moved >= 1000);
        assert!(s.points_moved <= 1000 * tree.height());
        assert_eq!(s.dram_bytes, (1000 * (crescent_pointcloud::POINT_BYTES + NODE_BYTES)) as u64);
        assert_eq!(s.cycles, (s.points_moved + s.nodes_written) as u64);
        // empty build is free
        let empty = KdTree::build(&PointCloud::new());
        assert_eq!(*empty.build_stats(), BuildStats::default());
        // deterministic: same cloud, same bill
        let again = KdTree::build(&random_cloud(1000, 8));
        assert_eq!(*again.build_stats(), s);
    }

    #[test]
    fn node_addresses_are_contiguous() {
        let tree = KdTree::build(&random_cloud(10, 7));
        for i in 0..tree.len() {
            assert_eq!(tree.node_addr(i), (i * NODE_BYTES) as u64);
        }
        assert_eq!(tree.size_bytes(), 10 * NODE_BYTES);
    }
}
