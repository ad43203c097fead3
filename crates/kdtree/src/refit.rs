//! Incremental, frame-coherent tree maintenance: [`KdTree::refit`].
//!
//! A streaming LiDAR pipeline rebuilds its K-d tree every frame even
//! though consecutive frames share most of their geometry — the same
//! cross-frame locality the batched search already measures as
//! `assignment_reuses`. Refit exploits it: instead of re-partitioning the
//! whole cloud (`O(n · H)` compare-and-moves), it keeps the tree topology
//! and streams the new coordinates into the existing node image
//! (`O(n)`), then *validates* the retained structure and repairs only
//! what actually broke.
//!
//! The validation is what makes refit safe to search:
//!
//! * every node is checked against the split planes of **all** its
//!   ancestors (the planes themselves move with their refitted points);
//! * a violation against a plane **above** the check level (a point
//!   drifted across a top-level partition) cannot be repaired locally —
//!   it forces a full rebuild;
//! * violations **inside** a checked sub-tree mark that sub-tree dirty;
//!   dirty sub-trees are rebuilt in place from their own points (the
//!   flat layout makes every sub-tree a dense, complete heap range, so
//!   the normal build recursion can target it directly);
//! * a sub-tree whose bounding extent grew more than four-fold
//!   (`MAX_DILATION`) along any axis is treated as dirty too — heavy
//!   dilation means the local geometry changed shape, a cheap
//!   incoherence detector;
//! * if more than [`RefitConfig::rebuild_threshold`] of the sub-trees
//!   are dirty, the frame is incoherent and refit falls back to a full
//!   rebuild (charging both the wasted refit pass and the build —
//!   honesty the timing model depends on).
//!
//! **Equivalence guarantee.** Because a clean validation certifies that
//! no point crossed any retained split plane, the median selections of a
//! fresh [`KdTree::build`] over the new cloud are forced to pick exactly
//! the retained topology (up to exact coordinate ties): a refit that
//! returns [`RefitOutcome::InPlace`] yields the *same tree* a fresh
//! rebuild would have produced, so searches are bit-identical. The
//! streaming integration tests and `tests/streaming_properties.rs`
//! assert this neighbor-set equality across drifting streams.
//!
//! The flat layout is always left-balanced by construction, so the
//! classic "imbalance" rebuild trigger of pointer-based trees cannot
//! arise here; invariant violations and bound dilation are the only two
//! signals that matter.

use crescent_pointcloud::{Point3, PointCloud, POINT_BYTES};

use crate::tree::{build_recursive, KdTree, NODE_BYTES};

/// Knobs of [`KdTree::refit`].
#[derive(Clone, Copy, Debug)]
pub struct RefitConfig {
    /// Tree level at which validation and repair are granular: the
    /// sub-trees rooted at this level are individually validated and, if
    /// dirty, individually rebuilt. Matching the split tree's `h_t` makes
    /// the repair granularity coincide with the search granularity.
    /// Clamped to the tree height.
    pub check_height: usize,
    /// Fraction of checked sub-trees that may be dirty before the frame
    /// is declared incoherent and refit falls back to a full rebuild.
    pub rebuild_threshold: f64,
}

/// Per-axis bounding-extent growth factor beyond which a sub-tree is
/// treated as dirty even without an invariant violation.
const MAX_DILATION: f32 = 4.0;

impl Default for RefitConfig {
    fn default() -> Self {
        // check_height matches CrescentKnobs::default().top_height
        RefitConfig { check_height: 4, rebuild_threshold: 0.25 }
    }
}

/// How a [`KdTree::refit`] call resolved.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RefitOutcome {
    /// The tree was updated in place (possibly with some sub-trees
    /// rebuilt); the result is identical to a fresh build.
    #[default]
    InPlace,
    /// The frame was incoherent; the tree was rebuilt from scratch.
    FullRebuild(RebuildReason),
}

/// Why a refit fell back to a full rebuild.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RebuildReason {
    /// The new cloud has a different point count — point identity across
    /// frames is gone, so the retained topology is meaningless.
    SizeChanged,
    /// A point crossed a split plane above the check level; no local
    /// repair can restore the partition.
    CrossPlaneViolation,
    /// More than `rebuild_threshold` of the sub-trees were dirty.
    TooManyDirtySubtrees,
}

/// Cost and diagnostic report of one [`KdTree::refit`] call. Mirrors
/// [`BuildStats`](crate::BuildStats) so the two maintenance paths can be
/// charged through the same timing model.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RefitStats {
    /// Nodes whose coordinates were patched in place.
    pub nodes_refitted: usize,
    /// Sub-trees validated at the check level.
    pub subtrees_checked: usize,
    /// Sub-trees rebuilt in place.
    pub subtrees_rebuilt: usize,
    /// Nodes found on the wrong side of a retained split plane.
    pub invariant_violations: usize,
    /// Violations against planes above the check level (each one forces
    /// the full-rebuild fallback).
    pub cross_violations: usize,
    /// Sub-trees dirtied by bound dilation alone.
    pub dilated_subtrees: usize,
    /// Nodes written by in-place sub-tree rebuilds or the fallback build.
    pub nodes_written: usize,
    /// Partition compare-and-moves spent in rebuilds.
    pub points_moved: usize,
    /// DRAM bytes of the whole maintenance operation (refit pass +
    /// repairs, or refit pass + fallback build).
    pub dram_bytes: u64,
    /// Datapath cycles of the whole maintenance operation.
    pub cycles: u64,
    /// How the call resolved.
    pub outcome: RefitOutcome,
}

impl RefitStats {
    /// Whether the call ended in the full-rebuild fallback.
    pub fn is_full_rebuild(&self) -> bool {
        matches!(self.outcome, RefitOutcome::FullRebuild(_))
    }

    fn absorb_full_rebuild(&mut self, tree: &KdTree, reason: RebuildReason) {
        let b = tree.build_stats();
        self.nodes_written += b.nodes_written;
        self.points_moved += b.points_moved;
        self.dram_bytes += b.dram_bytes;
        self.cycles += b.cycles;
        self.outcome = RefitOutcome::FullRebuild(reason);
    }
}

/// Reusable working memory of [`KdTree::refit`]: the per-sub-tree bound
/// accumulators, the dirty list, and the entry buffer of in-place
/// sub-tree rebuilds. A stream that refits every frame passes one
/// instance to [`KdTree::refit_with_scratch`] so the steady state
/// allocates nothing; [`KdTree::refit`] makes a fresh one per call.
#[derive(Debug, Default)]
pub struct RefitScratch {
    scratch: Vec<SubtreeScratch>,
    dirty: Vec<usize>,
    entries: Vec<(Point3, u32)>,
}

/// Per-sub-tree scratch accumulated during the refit pass.
#[derive(Clone, Copy, Debug)]
struct SubtreeScratch {
    old_min: Point3,
    old_max: Point3,
    new_min: Point3,
    new_max: Point3,
    violations: usize,
}

impl SubtreeScratch {
    fn new() -> Self {
        let inf = f32::INFINITY;
        SubtreeScratch {
            old_min: Point3::new(inf, inf, inf),
            old_max: Point3::new(-inf, -inf, -inf),
            new_min: Point3::new(inf, inf, inf),
            new_max: Point3::new(-inf, -inf, -inf),
            violations: 0,
        }
    }

    fn dilated(&self) -> bool {
        for axis in 0..3 {
            let old = self.old_max.coord(axis) - self.old_min.coord(axis);
            let new = self.new_max.coord(axis) - self.new_min.coord(axis);
            if old > f32::EPSILON && new > old * MAX_DILATION {
                return true;
            }
        }
        false
    }
}

fn grow(min: &mut Point3, max: &mut Point3, p: Point3) {
    *min = Point3::new(min.x.min(p.x), min.y.min(p.y), min.z.min(p.z));
    *max = Point3::new(max.x.max(p.x), max.y.max(p.y), max.z.max(p.z));
}

impl KdTree {
    /// Updates this tree in place for a temporally coherent new frame
    /// `cloud`, rebuilding only the sub-trees that actually broke, and
    /// falling back to a full [`KdTree::build`] when the frame is
    /// incoherent (see the [module docs](crate::refit) for the exact
    /// dirty/fallback rules and the fresh-build equivalence guarantee).
    ///
    /// `cloud` must index the *same physical points* as the cloud the
    /// tree was built from (slot `i` is point `i`'s new position); a
    /// length mismatch is detected and handled as incoherence.
    pub fn refit(&mut self, cloud: &PointCloud, cfg: &RefitConfig) -> RefitStats {
        self.refit_with_scratch(cloud, cfg, &mut RefitScratch::default())
    }

    /// [`KdTree::refit`] with caller-owned working memory, for streams
    /// that refit every frame: `ws`'s buffers are recycled call to call,
    /// so the steady-state refit pass performs no allocation. Results and
    /// stats are identical to [`KdTree::refit`].
    pub fn refit_with_scratch(
        &mut self,
        cloud: &PointCloud,
        cfg: &RefitConfig,
        ws: &mut RefitScratch,
    ) -> RefitStats {
        let n = self.len();
        let mut stats = RefitStats::default();
        if cloud.len() != n {
            *self = KdTree::build(cloud);
            stats.absorb_full_rebuild(self, RebuildReason::SizeChanged);
            return stats;
        }
        if n == 0 {
            return stats;
        }

        // clamping to height − 1 guarantees at least one root exists
        // (2^level − 1 < n whenever level < height)
        let level = cfg.check_height.min(self.height() - 1);
        let root_range = self.subtree_root_range(level);
        let first_root = root_range.start;
        let num_roots = root_range.len();

        // ---- pass 1: patch every node's coordinates in place ----
        // One streaming sweep: cloud in, old image in (for the
        // point-index map), patched image out. Old/new sub-tree bounds
        // are folded into the same pass for the dilation check.
        let RefitScratch { scratch, dirty, entries } = ws;
        scratch.clear();
        scratch.resize(num_roots, SubtreeScratch::new());
        for idx in 0..n {
            let lv = self.level_of(idx);
            let new_point = cloud.point(self.point_index_of(idx));
            if lv >= level {
                // ancestor slot at the check level identifies the sub-tree
                let s = (((idx + 1) >> (lv - level)) - 1) - first_root;
                let sc = &mut scratch[s];
                grow(&mut sc.old_min, &mut sc.old_max, self.points[idx]);
                grow(&mut sc.new_min, &mut sc.new_max, new_point);
            }
            self.points[idx] = new_point;
        }
        stats.nodes_refitted = n;
        stats.subtrees_checked = num_roots;
        stats.dram_bytes += (n * POINT_BYTES + 2 * n * NODE_BYTES) as u64;
        stats.cycles += n as u64;

        // ---- pass 2: validate every node against its ancestor planes ----
        // The modeled hardware streams the image once more with one
        // comparator per ancestor level working in parallel, so the pass
        // costs n cycles regardless of depth; the host-side walk carries
        // an explicit constraint stack.
        let (cross, per_subtree) = validate(self, level, first_root, num_roots);
        for (s, v) in per_subtree.iter().enumerate() {
            scratch[s].violations = *v;
        }
        stats.invariant_violations = cross + per_subtree.iter().sum::<usize>();
        stats.cross_violations = cross;
        stats.cycles += n as u64;

        if cross > 0 {
            *self = KdTree::build(cloud);
            stats.absorb_full_rebuild(self, RebuildReason::CrossPlaneViolation);
            return stats;
        }

        // ---- decide: local repair or incoherence fallback ----
        dirty.clear();
        for (s, sc) in scratch.iter().enumerate() {
            let dilated = sc.violations == 0 && sc.dilated();
            if dilated {
                stats.dilated_subtrees += 1;
            }
            if sc.violations > 0 || dilated {
                dirty.push(s);
            }
        }
        if (dirty.len() as f64) > cfg.rebuild_threshold * num_roots as f64 {
            *self = KdTree::build(cloud);
            stats.absorb_full_rebuild(self, RebuildReason::TooManyDirtySubtrees);
            return stats;
        }

        // ---- pass 3: rebuild dirty sub-trees in place ----
        // Any sub-tree of the flat layout is itself a complete heap
        // (its last level is a left-filled prefix), so the ordinary
        // build recursion can re-partition it rooted at its global slot.
        for &s in dirty.iter() {
            let root = first_root + s;
            entries.clear();
            let mut slot = root;
            let mut width = 1usize;
            while slot < n {
                for idx in slot..(slot + width).min(n) {
                    let node = self.node(idx);
                    entries.push((node.point, node.point_index));
                }
                slot = 2 * slot + 1;
                width *= 2;
            }
            let m = entries.len();
            let depth = self.level_of(root);
            let mut moved = 0usize;
            build_recursive(entries, root, depth, &mut self.points, &mut self.meta, &mut moved);
            stats.subtrees_rebuilt += 1;
            stats.nodes_written += m;
            stats.points_moved += moved;
            stats.dram_bytes += (m * NODE_BYTES) as u64;
            stats.cycles += (moved + m) as u64;
        }

        debug_assert!(self.check_invariants(), "refit must leave a valid K-d tree");
        stats.outcome = RefitOutcome::InPlace;
        stats
    }
}

/// Walks the whole tree checking every node against all ancestor planes.
/// Returns the cross-level violation count and the per-sub-tree internal
/// violation counts at granularity `level`.
fn validate(
    tree: &KdTree,
    level: usize,
    first_root: usize,
    num_roots: usize,
) -> (usize, Vec<usize>) {
    let mut cross = 0usize;
    let mut per_subtree = vec![0usize; num_roots];
    let mut constraints: Vec<(usize, f32, bool)> = Vec::new();
    fn walk(
        tree: &KdTree,
        idx: usize,
        level: usize,
        first_root: usize,
        constraints: &mut Vec<(usize, f32, bool)>,
        cross: &mut usize,
        per_subtree: &mut [usize],
    ) {
        let point = tree.point_of(idx);
        let lv = tree.level_of(idx);
        for (ci, &(axis, split, left)) in constraints.iter().enumerate() {
            let c = point.coord(axis);
            let violated = if left { c > split } else { c < split };
            if violated {
                // constraint `ci` was imposed by the ancestor at level
                // `ci`; planes above the check level are not locally
                // repairable, and top-tree nodes only have such planes
                if ci < level {
                    *cross += 1;
                } else {
                    let s = (((idx + 1) >> (lv - level)) - 1) - first_root;
                    per_subtree[s] += 1;
                }
            }
        }
        let axis = tree.axis_of(idx);
        let split = point.coord(axis);
        if let Some(l) = tree.left(idx) {
            constraints.push((axis, split, true));
            walk(tree, l, level, first_root, constraints, cross, per_subtree);
            constraints.pop();
        }
        if let Some(r) = tree.right(idx) {
            constraints.push((axis, split, false));
            walk(tree, r, level, first_root, constraints, cross, per_subtree);
            constraints.pop();
        }
    }
    if !tree.is_empty() {
        walk(tree, 0, level, first_root, &mut constraints, &mut cross, &mut per_subtree);
    }
    (cross, per_subtree)
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
                    rng.random::<f32>() * 2.0,
                    rng.random::<f32>() * 2.0,
                    rng.random::<f32>() * 2.0,
                )
            })
            .collect()
    }

    fn translated(cloud: &PointCloud, delta: Point3) -> PointCloud {
        cloud.iter().map(|&p| p + delta).collect()
    }

    #[test]
    fn translation_refits_in_place_and_matches_fresh_build() {
        for n in [5usize, 64, 257, 1500] {
            let base = random_cloud(n, n as u64);
            let moved = translated(&base, Point3::new(0.11, -0.07, 0.03));
            let mut tree = KdTree::build(&base);
            let stats = tree.refit(&moved, &RefitConfig::default());
            assert_eq!(stats.outcome, RefitOutcome::InPlace, "n = {n}");
            assert_eq!(stats.subtrees_rebuilt, 0, "pure translation breaks nothing (n = {n})");
            assert_eq!(stats.invariant_violations, 0);
            let fresh = KdTree::build(&moved);
            assert_eq!(tree.nodes(), fresh.nodes(), "refit tree == fresh build (n = {n})");
        }
    }

    #[test]
    fn refit_is_cheaper_than_build_on_coherent_frames() {
        let base = random_cloud(4096, 9);
        let moved = translated(&base, Point3::new(0.02, 0.02, 0.0));
        let mut tree = KdTree::build(&base);
        let build_cycles = tree.build_stats().cycles;
        let stats = tree.refit(&moved, &RefitConfig::default());
        assert_eq!(stats.outcome, RefitOutcome::InPlace);
        assert!(
            stats.cycles * 4 < build_cycles,
            "refit {} vs build {build_cycles} cycles",
            stats.cycles
        );
        assert!(stats.dram_bytes > 0);
    }

    #[test]
    fn local_disturbance_rebuilds_only_some_subtrees() {
        let base = random_cloud(2048, 10);
        let mut disturbed = base.clone();
        // scramble a tight neighborhood: points 100..130 swap positions
        // within their local cluster, breaking deep-plane order without
        // crossing top-level planes
        let mut rng = StdRng::seed_from_u64(77);
        let mut moved: PointCloud = disturbed.points().to_vec().into_iter().collect();
        for i in 100..130 {
            let p = disturbed.point(i);
            let jitter = Point3::new(
                (rng.random::<f32>() - 0.5) * 0.06,
                (rng.random::<f32>() - 0.5) * 0.06,
                (rng.random::<f32>() - 0.5) * 0.06,
            );
            moved = {
                let mut pts = moved.into_points();
                pts[i] = p + jitter;
                pts.into_iter().collect()
            };
        }
        disturbed = moved;
        let mut tree = KdTree::build(&base);
        let cfg = RefitConfig { rebuild_threshold: 1.0, ..RefitConfig::default() };
        let stats = tree.refit(&disturbed, &cfg);
        if stats.outcome == RefitOutcome::InPlace {
            assert!(tree.check_invariants());
            if stats.invariant_violations > 0 {
                assert!(stats.subtrees_rebuilt > 0);
                assert!(
                    stats.subtrees_rebuilt < stats.subtrees_checked,
                    "a local disturbance must not dirty every sub-tree"
                );
            }
        }
    }

    #[test]
    fn size_change_falls_back_to_full_rebuild() {
        let base = random_cloud(512, 11);
        let smaller = random_cloud(300, 12);
        let mut tree = KdTree::build(&base);
        let stats = tree.refit(&smaller, &RefitConfig::default());
        assert_eq!(stats.outcome, RefitOutcome::FullRebuild(RebuildReason::SizeChanged));
        assert_eq!(tree.len(), 300);
        assert!(tree.check_invariants());
        let fresh = KdTree::build(&smaller);
        assert_eq!(tree.nodes(), fresh.nodes());
    }

    #[test]
    fn scrambled_frame_triggers_incoherence_fallback() {
        let base = random_cloud(1024, 13);
        // a completely different cloud of the same size: point identity
        // is nonsense, so validation must light up and fall back
        let scrambled = random_cloud(1024, 14);
        let mut tree = KdTree::build(&base);
        let stats = tree.refit(&scrambled, &RefitConfig::default());
        assert!(stats.is_full_rebuild(), "outcome: {:?}", stats.outcome);
        assert!(tree.check_invariants());
        let fresh = KdTree::build(&scrambled);
        assert_eq!(tree.nodes(), fresh.nodes(), "fallback must equal a fresh build");
    }

    #[test]
    fn fallback_charges_refit_pass_plus_build() {
        let base = random_cloud(1024, 15);
        let scrambled = random_cloud(1024, 16);
        let mut tree = KdTree::build(&base);
        let fresh_build_cycles = KdTree::build(&scrambled).build_stats().cycles;
        let stats = tree.refit(&scrambled, &RefitConfig::default());
        assert!(stats.is_full_rebuild());
        assert!(
            stats.cycles > fresh_build_cycles,
            "an incoherent refit must cost MORE than an honest rebuild ({} vs {})",
            stats.cycles,
            fresh_build_cycles
        );
    }

    #[test]
    fn empty_and_tiny_trees() {
        let mut tree = KdTree::build(&PointCloud::new());
        let stats = tree.refit(&PointCloud::new(), &RefitConfig::default());
        assert_eq!(stats.nodes_refitted, 0);
        assert_eq!(stats.outcome, RefitOutcome::InPlace);

        let one: PointCloud = [Point3::new(1.0, 2.0, 3.0)].into_iter().collect();
        let one_moved: PointCloud = [Point3::new(1.5, 2.0, 3.0)].into_iter().collect();
        let mut tree = KdTree::build(&one);
        let stats = tree.refit(&one_moved, &RefitConfig::default());
        assert_eq!(stats.outcome, RefitOutcome::InPlace);
        assert_eq!(tree.node(0).point, Point3::new(1.5, 2.0, 3.0));
    }

    #[test]
    fn refit_stats_are_deterministic() {
        let base = random_cloud(2048, 17);
        let moved = translated(&base, Point3::new(0.05, 0.0, -0.02));
        let run = || {
            let mut tree = KdTree::build(&base);
            tree.refit(&moved, &RefitConfig::default())
        };
        assert_eq!(run(), run());
    }
}
