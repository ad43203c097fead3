//! Batched two-stage search with amortized top-tree traversal,
//! frame-to-frame state reuse, and the **same banked-arbitration timing
//! model as the per-query engine** — the hot path of the streaming
//! multi-frame workload engine.
//!
//! [`SplitTree::search_batch`] routes a whole query batch down the top
//! tree as one **wavefront**: every top-tree node is fetched at most once
//! per batch and its payload is shared by all queries whose routing paths
//! pass through it, instead of once per query. Because each stage-1 step
//! issues exactly one shared fetch, the wavefront's top-tree descent is
//! conflict-free *by construction* — the amortization is also a
//! serialization-free schedule.
//!
//! Stage 2 is where the banked tree buffer bites, and it is modeled, not
//! assumed away: each sub-tree's query queue is drained in lock-step by
//! `num_pes` PEs through the same
//! [`crescent_memsim::BankedSram`]-backed arbiter the per-query engine
//! model ([`SplitTree::batch_search`]) uses — one shared implementation,
//! so the two paths cannot drift apart. A fetch that loses bank
//! arbitration **stalls** (re-issues next round) unless its node lies in
//! the `h_e` deepest levels of the tree, in which case it is **elided**:
//! dropped together with the subtree beneath it (Sec 4's selective
//! conflict elision, parameterized here by depth-from-leaves so the knob
//! is stable across frames of varying tree height; the engine path's
//! level threshold is `height − h_e`).
//!
//! At `h_e = 0` nothing is ever dropped, so the neighbor sets are
//! bit-identical to per-query [`SplitTree::search_one`]. At every elision
//! level `>= h_t` the stage-2 queues are identical to the engine path's,
//! so the whole stage-2 [`DrainCounters`] record equals
//! [`SplitTree::batch_search`]'s (tested in `tests/elision_unified.rs`).
//!
//! Across consecutive frames of a stream, a [`BatchState`] carries the
//! descent state forward: the wavefront and per-sub-tree queue allocations
//! are recycled, and the previous frame's sub-tree assignments are kept so
//! the engine can measure temporal locality (how many queries landed in the
//! same sub-tree as last frame — the signal future cross-frame caching
//! optimizations will exploit).

use crescent_pointcloud::{Neighbor, Point3, POINT_BYTES};

use crate::split::{
    drain_subtree_queue, finalize, DrainCounters, DrainScratch, SplitTree, TreeArbiter,
};
use crate::tree::NODE_BYTES;

/// Reusable state for [`SplitTree::search_batch`], designed to live across
/// the frames of a stream.
///
/// Holds the wavefront and per-sub-tree queue buffers (recycled every call
/// so steady-state frames allocate almost nothing) plus the previous
/// frame's sub-tree assignments, from which the cross-frame
/// [`BatchSearchStats::assignment_reuses`] locality metric is computed.
#[derive(Debug, Default)]
pub struct BatchState {
    /// Current wavefront: `(top-tree node, queries whose path reaches it)`.
    frontier: Vec<(usize, Vec<usize>)>,
    /// Next-level wavefront under construction.
    next: Vec<(usize, Vec<usize>)>,
    /// Recycled query-list allocations.
    spare: Vec<Vec<usize>>,
    /// Per-sub-tree query queues (arrival order).
    queues: Vec<Vec<usize>>,
    /// Sub-tree assignment of each query in the most recent batch.
    assignments: Vec<Option<usize>>,
    /// Assignments of the batch before that (previous frame).
    prev_assignments: Vec<Option<usize>>,
    /// Stage-2 drain scratch (per-PE traversal stacks), recycled across
    /// sub-tree queues and frames.
    drain: DrainScratch,
    /// Number of batches processed through this state.
    frames: usize,
}

impl BatchState {
    /// Creates an empty state.
    pub fn new() -> Self {
        BatchState::default()
    }

    /// Sub-tree assignment of each query in the most recent batch.
    pub fn assignments(&self) -> &[Option<usize>] {
        &self.assignments
    }

    /// Number of batches (frames) processed through this state.
    pub fn frames(&self) -> usize {
        self.frames
    }

    fn take_list(&mut self) -> Vec<usize> {
        self.spare.pop().unwrap_or_default()
    }

    fn recycle(&mut self, mut list: Vec<usize>) {
        list.clear();
        self.spare.push(list);
    }
}

/// Configuration of [`SplitTree::search_batch`]: the search itself plus
/// the banked tree-buffer model its stage 2 runs through.
#[derive(Clone, Copy, Debug)]
pub struct BatchSearchConfig {
    /// Search radius.
    pub radius: f32,
    /// Cap on returned neighbors per query (`None` = unbounded).
    pub max_neighbors: Option<usize>,
    /// PEs draining each sub-tree queue in lock-step (stage 2).
    pub num_pes: usize,
    /// Tree-buffer banks (low-order interleaved on node index).
    pub num_banks: usize,
    /// The streaming form of the paper's `h_e` knob, measured as a depth
    /// from the leaves: a conflicted fetch is dropped iff its node lies
    /// in the `elision_depth` deepest levels of the tree (level
    /// `>= height − elision_depth`). `0` disables elision entirely
    /// (conflicts only stall, results stay exact); values `>= height`
    /// elide every conflict. Depth-from-leaves is what a stream can hold
    /// constant while per-frame tree heights wobble; the engine path's
    /// level-based [`ElisionConfig::elision_height`](crate::ElisionConfig)
    /// is recovered as `height − elision_depth`.
    pub elision_depth: usize,
    /// Sec 4.2 descendant-reuse salvage on elided fetches.
    pub descendant_reuse: bool,
}

impl BatchSearchConfig {
    /// The unified banked model: `num_pes` lock-step PEs over `num_banks`
    /// tree-buffer banks, eliding conflicted fetches in the
    /// `elision_depth` deepest tree levels (`0` = stall-only, exact).
    pub fn banked(
        radius: f32,
        max_neighbors: Option<usize>,
        num_pes: usize,
        num_banks: usize,
        elision_depth: usize,
    ) -> Self {
        BatchSearchConfig {
            radius,
            max_neighbors,
            num_pes,
            num_banks,
            elision_depth,
            descendant_reuse: false,
        }
    }

    /// Sets [`Self::descendant_reuse`]. With `elision_depth == 0` the
    /// flag is inert — no fetch is elision-eligible, so reuse never
    /// fires and results stay bit-identical to the stall-only model.
    pub fn with_descendant_reuse(mut self, reuse: bool) -> Self {
        self.descendant_reuse = reuse;
        self
    }
}

/// Statistics of one [`SplitTree::search_batch`] call.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchSearchStats {
    /// Queries in the batch.
    pub queries: usize,
    /// Top-tree node fetches actually issued (each node once per batch).
    pub top_fetches: usize,
    /// Top-tree fetches per-query routing would have issued (the sum of all
    /// routing path lengths) — the traffic the wavefront amortizes away.
    pub top_fetches_unamortized: usize,
    /// Non-empty sub-trees touched by this batch (each is streamed from
    /// DRAM exactly once).
    pub subtrees_touched: usize,
    /// Queries assigned to the same sub-tree as in the previous batch run
    /// through the same [`BatchState`] (0 on the first frame).
    pub assignment_reuses: usize,
    /// DRAM bytes of the batched Crescent schedule: queries moved three
    /// times (read, staged, re-read), the top tree streamed once, and each
    /// touched sub-tree streamed once.
    pub dram_bytes: u64,
    /// 0-based index of this batch within the life of its [`BatchState`].
    pub frame_index: usize,
    /// Stage-2 arbitration counters of the banked sub-tree drains. Its
    /// `rounds` are the sub-tree stage's compute cycles: conflict stalls
    /// lengthen them, elision shortens them. At every elision level
    /// `>= h_t` the whole record equals the per-query engine's
    /// [`SplitSearchStats::subtree`](crate::SplitSearchStats) on the same
    /// queues.
    pub subtree: DrainCounters,
}

impl BatchSearchStats {
    /// Top-tree fetch amplification avoided by batching:
    /// `unamortized / issued` (1.0 when the batch has at most one query).
    pub fn amortization_factor(&self) -> f64 {
        if self.top_fetches == 0 {
            1.0
        } else {
            self.top_fetches_unamortized as f64 / self.top_fetches as f64
        }
    }

    /// Fraction of queries whose sub-tree assignment survived from the
    /// previous frame.
    pub fn reuse_fraction(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.assignment_reuses as f64 / self.queries as f64
        }
    }
}

impl SplitTree<'_> {
    /// Batched two-stage search: one amortized (conflict-free by
    /// construction) top-tree wavefront for the whole batch, then search
    /// confined to each assigned sub-tree through the unified banked
    /// arbitration model.
    ///
    /// * With `elision_depth = 0`, the per-query neighbor lists are
    ///   **bit-identical** to calling [`SplitTree::search_one`] on every
    ///   query — batching and stall-only arbitration change fetch
    ///   schedules and cycle counts, never results.
    /// * With `elision_depth > 0`, conflicted fetches in the deepest
    ///   `elision_depth` tree levels are dropped: results become a
    ///   subset of the exact ones (approximation is always subtractive)
    ///   and the stage-2 rounds ([`BatchSearchStats::subtree`]) shrink.
    ///
    /// Pass the same `state` across the frames of a stream to recycle its
    /// buffers and obtain the cross-frame
    /// [`BatchSearchStats::assignment_reuses`] metric.
    pub fn search_batch(
        &self,
        queries: &[Point3],
        config: &BatchSearchConfig,
        state: &mut BatchState,
    ) -> (Vec<Vec<Neighbor>>, BatchSearchStats) {
        let radius = config.radius;
        let max_neighbors = config.max_neighbors;
        let tree = self.tree();
        let mut results: Vec<Vec<Neighbor>> = vec![Vec::new(); queries.len()];
        let mut stats = BatchSearchStats {
            queries: queries.len(),
            frame_index: state.frames,
            ..BatchSearchStats::default()
        };

        // rotate assignment history: last batch becomes "previous frame"
        std::mem::swap(&mut state.prev_assignments, &mut state.assignments);
        state.assignments.clear();
        state.assignments.resize(queries.len(), None);

        if tree.is_empty() || queries.is_empty() {
            state.frames += 1;
            return (results, stats);
        }

        // ---- stage 1: wavefront descent of the top tree ----
        // Every query starts at the root; at each level the queries sitting
        // on a node are partitioned onto its children, so a node is fetched
        // once no matter how many queries route through it.
        let r2 = radius * radius;
        let first_subtree = self.subtree_roots()[0];
        debug_assert!(state.frontier.is_empty() && state.next.is_empty());
        let mut root_list = state.take_list();
        root_list.extend(0..queries.len());
        if self.top_height() == 0 {
            for a in state.assignments.iter_mut() {
                *a = Some(0);
            }
            state.recycle(root_list);
        } else {
            state.frontier.push((0, root_list));
            while !state.frontier.is_empty() {
                while let Some((idx, qlist)) = state.frontier.pop() {
                    stats.top_fetches += 1; // one shared fetch for the node
                    stats.top_fetches_unamortized += qlist.len();
                    let point = tree.point_of(idx);
                    let axis = tree.axis_of(idx);
                    let split_coord = point.coord(axis);
                    let (left, right) = (tree.left(idx), tree.right(idx));
                    let mut left_list = state.take_list();
                    let mut right_list = state.take_list();
                    for &qi in &qlist {
                        let q = queries[qi];
                        let d2 = point.dist2(q);
                        if d2 <= r2 {
                            results[qi]
                                .push(Neighbor { index: tree.point_index_of(idx), dist2: d2 });
                        }
                        let (next_slot, side) = if q.coord(axis) - split_coord <= 0.0 {
                            (left, &mut left_list)
                        } else {
                            (right, &mut right_list)
                        };
                        match next_slot {
                            Some(n) if tree.level_of(n) >= self.top_height() => {
                                state.assignments[qi] = Some(n - first_subtree);
                            }
                            Some(_) => side.push(qi),
                            // ragged bottom: clamp like route_query does
                            None => {
                                state.assignments[qi] = Some(self.nearest_subtree_for(idx));
                            }
                        }
                    }
                    for (child, list) in [(left, left_list), (right, right_list)] {
                        match child {
                            Some(c) if !list.is_empty() => state.next.push((c, list)),
                            _ => state.recycle(list),
                        }
                    }
                    state.recycle(qlist);
                }
                std::mem::swap(&mut state.frontier, &mut state.next);
            }
        }

        // ---- group queries per sub-tree, preserving arrival order ----
        for q in state.queues.iter_mut() {
            q.clear();
        }
        state.queues.resize_with(self.num_subtrees(), Vec::new);
        for (qi, a) in state.assignments.iter().enumerate() {
            if let Some(s) = *a {
                state.queues[s].push(qi);
            }
        }

        // ---- stage 2: search confined to each assigned sub-tree ----
        // Each queue drains through the SAME lock-step arbitration
        // implementation the per-query engine model uses
        // (`drain_subtree_queue`).
        // depth-from-leaves h_e -> the engine's level threshold
        let threshold = tree.height().saturating_sub(config.elision_depth);
        let mut arbiter = TreeArbiter::banked(config.num_banks, threshold, config.descendant_reuse);
        for (s, queue) in state.queues.iter().enumerate() {
            if queue.is_empty() {
                continue;
            }
            stats.subtrees_touched += 1;
            stats.dram_bytes += (self.subtree_len(s) * NODE_BYTES) as u64;
            stats.subtree += drain_subtree_queue(
                tree,
                self.subtree_roots()[s],
                queue,
                queries,
                radius,
                config.num_pes,
                &mut arbiter,
                &mut state.drain,
                &mut results,
            );
        }
        for hits in &mut results {
            finalize(hits, max_neighbors);
        }

        // Crescent's phased DRAM schedule (Sec 3.4): queries moved three
        // times, the top tree streamed once, touched sub-trees counted above.
        stats.dram_bytes += (3 * queries.len() * POINT_BYTES) as u64;
        stats.dram_bytes += (self.top_len() * NODE_BYTES) as u64;

        // ---- cross-frame locality ----
        for (a, p) in state.assignments.iter().zip(&state.prev_assignments) {
            if a.is_some() && a == p {
                stats.assignment_reuses += 1;
            }
        }
        state.frames += 1;
        (results, stats)
    }
}

/// A tenant-tagged view over one concatenated query wavefront.
///
/// A multi-tenant scheduler batches the ready queries of several tenants
/// into a single [`SplitTree::search_batch`] call so the top-tree
/// wavefront amortizes across tenants. The batch itself is tag-blind —
/// it sees one flat query slice — so the tags live beside the queries in
/// this view and [`TaggedBatch::split_results`] demultiplexes the flat
/// result vector back into per-segment slices afterwards. Because the
/// search never sees the tags, tagging cannot perturb results or timing:
/// at `h_e = 0` every tenant's neighbor lists are bit-identical to a
/// solo run of that tenant on the same tree, whatever the co-tenants.
#[derive(Clone, Debug, Default)]
pub struct TaggedBatch {
    queries: Vec<Point3>,
    /// `(tag, query count)` per pushed segment, in push order.
    segments: Vec<(u64, usize)>,
}

impl TaggedBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        TaggedBatch::default()
    }

    /// Clears the batch for reuse, keeping its allocations.
    pub fn clear(&mut self) {
        self.queries.clear();
        self.segments.clear();
    }

    /// Appends one tenant's ready queries as a tagged segment. Segments
    /// keep their push order; the same tag may appear more than once
    /// (e.g. two frames of one tenant riding the same wavefront).
    pub fn push_segment(&mut self, tag: u64, queries: &[Point3]) {
        self.queries.extend_from_slice(queries);
        self.segments.push((tag, queries.len()));
    }

    /// The flat concatenated query slice — what the search engine sees.
    pub fn queries(&self) -> &[Point3] {
        &self.queries
    }

    /// The `(tag, query count)` segments in push order.
    pub fn segments(&self) -> &[(u64, usize)] {
        &self.segments
    }

    /// Total query count across all segments.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Whether the batch holds no queries. Note a batch of empty
    /// segments is empty while still carrying segment tags.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Splits a flat per-query result vector (as returned by
    /// [`SplitTree::search_batch`] on [`Self::queries`]) back into
    /// `(tag, per-query results)` per segment, in push order.
    ///
    /// # Panics
    ///
    /// Panics if `flat.len()` differs from [`Self::len`].
    pub fn split_results<T>(&self, mut flat: Vec<T>) -> Vec<(u64, Vec<T>)> {
        assert_eq!(flat.len(), self.len(), "one result per tagged query");
        let mut out = Vec::with_capacity(self.segments.len());
        // split from the back so each segment is a cheap off-the-end split
        for &(tag, len) in self.segments.iter().rev() {
            let seg = flat.split_off(flat.len() - len);
            out.push((tag, seg));
        }
        out.reverse();
        out
    }
}

/// Per-segment results of a tagged wavefront, as
/// [`TaggedBatch::split_results`] returns them: one `(tag, per-query
/// neighbor lists)` entry per segment, in push order.
pub type TaggedResults = Vec<(u64, Vec<Vec<Neighbor>>)>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::KdTree;
    use crescent_pointcloud::PointCloud;
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

    fn random_queries(n: usize, seed: u64) -> Vec<Point3> {
        random_cloud(n, seed).into_points()
    }

    /// 8 PEs over 4 tree-buffer banks, stall-only (`h_e = 0`): exact.
    fn stall_only(radius: f32, max_neighbors: Option<usize>) -> BatchSearchConfig {
        BatchSearchConfig::banked(radius, max_neighbors, 8, 4, 0)
    }

    #[test]
    fn batch_identical_to_per_query() {
        for (ht, seed) in [(0usize, 60u64), (2, 61), (4, 62), (6, 63)] {
            let cloud = random_cloud(3000, seed);
            let tree = KdTree::build(&cloud);
            let split = SplitTree::new(&tree, ht).unwrap();
            let queries = random_queries(128, seed + 100);
            let mut state = BatchState::new();
            let (batch, _) = split.search_batch(&queries, &stall_only(0.3, Some(16)), &mut state);
            for (qi, &q) in queries.iter().enumerate() {
                let single = split.search_one(q, 0.3, Some(16));
                assert_eq!(batch[qi], single, "ht {ht} query {qi}");
            }
        }
    }

    #[test]
    fn top_fetches_are_amortized() {
        let cloud = random_cloud(4096, 64);
        let tree = KdTree::build(&cloud);
        let split = SplitTree::new(&tree, 5).unwrap();
        let queries = random_queries(512, 65);
        let mut state = BatchState::new();
        let (_, stats) = split.search_batch(&queries, &stall_only(0.2, None), &mut state);
        // the wavefront touches each top-tree node at most once
        assert!(stats.top_fetches <= split.top_len());
        // per-query routing would fetch one node per level per query
        assert!(stats.top_fetches_unamortized >= queries.len() * split.top_height());
        assert!(stats.amortization_factor() > 4.0, "factor {}", stats.amortization_factor());
    }

    #[test]
    fn repeat_batch_reuses_assignments() {
        let cloud = random_cloud(2048, 66);
        let tree = KdTree::build(&cloud);
        let split = SplitTree::new(&tree, 3).unwrap();
        let queries = random_queries(96, 67);
        let mut state = BatchState::new();
        let (_, first) = split.search_batch(&queries, &stall_only(0.25, Some(8)), &mut state);
        assert_eq!(first.assignment_reuses, 0, "no previous frame yet");
        assert_eq!(first.frame_index, 0);
        let (_, second) = split.search_batch(&queries, &stall_only(0.25, Some(8)), &mut state);
        assert_eq!(second.assignment_reuses, queries.len(), "identical frame reuses everything");
        assert_eq!(second.frame_index, 1);
        assert!((second.reuse_fraction() - 1.0).abs() < 1e-12);
        assert_eq!(state.frames(), 2);
    }

    #[test]
    fn shifted_batch_partially_reuses() {
        let cloud = random_cloud(4096, 68);
        let tree = KdTree::build(&cloud);
        let split = SplitTree::new(&tree, 4).unwrap();
        let queries = random_queries(256, 69);
        let shifted: Vec<Point3> =
            queries.iter().map(|q| *q + Point3::new(0.01, -0.01, 0.005)).collect();
        let mut state = BatchState::new();
        split.search_batch(&queries, &stall_only(0.25, None), &mut state);
        let (_, stats) = split.search_batch(&shifted, &stall_only(0.25, None), &mut state);
        // a small drift keeps most queries in their sub-tree
        assert!(
            stats.assignment_reuses > queries.len() / 2,
            "only {} of {} reused",
            stats.assignment_reuses,
            queries.len()
        );
        assert!(stats.assignment_reuses < queries.len(), "some queries must cross sub-trees");
    }

    #[test]
    fn dram_bytes_match_crescent_schedule() {
        let cloud = random_cloud(2048, 70);
        let tree = KdTree::build(&cloud);
        let split = SplitTree::new(&tree, 3).unwrap();
        let queries = random_queries(64, 71);
        let mut state = BatchState::new();
        let (_, stats) = split.search_batch(&queries, &stall_only(0.3, None), &mut state);
        let reference = crate::baselines::crescent_dram_bytes(&split, &queries, 0.3);
        assert_eq!(stats.dram_bytes, reference);
    }

    #[test]
    fn empty_inputs() {
        let tree = KdTree::build(&PointCloud::new());
        let split = SplitTree::new(&tree, 0).unwrap();
        let mut state = BatchState::new();
        let (res, stats) = split.search_batch(&[Point3::ZERO], &stall_only(1.0, None), &mut state);
        assert!(res[0].is_empty());
        assert_eq!(stats.top_fetches, 0);
        let cloud = random_cloud(100, 72);
        let tree = KdTree::build(&cloud);
        let split = SplitTree::new(&tree, 2).unwrap();
        let (res, stats) = split.search_batch(&[], &stall_only(1.0, None), &mut state);
        assert!(res.is_empty());
        assert_eq!(stats.queries, 0);
        assert_eq!(stats.dram_bytes, 0);
    }

    #[test]
    fn banked_stall_only_is_bit_identical_to_search_one() {
        // h_e = 0: conflicts serialize but never drop, so the wavefront
        // stays an exact oracle while the timing model runs
        let cloud = random_cloud(4096, 75);
        let tree = KdTree::build(&cloud);
        let split = SplitTree::new(&tree, 3).unwrap();
        let queries = random_queries(128, 76);
        let cfg = BatchSearchConfig::banked(0.3, Some(16), 8, 4, 0);
        let mut state = BatchState::new();
        let (batch, stats) = split.search_batch(&queries, &cfg, &mut state);
        for (qi, &q) in queries.iter().enumerate() {
            assert_eq!(batch[qi], split.search_one(q, 0.3, Some(16)), "query {qi}");
        }
        let c = stats.subtree;
        assert_eq!(c.elided, 0, "h_e = 0 never drops a fetch");
        assert_eq!(c.skipped, 0);
        assert!(c.rounds > 0, "the banked model counts rounds");
        assert!(c.conflicts > 0, "8 PEs on 4 banks must conflict");
        assert_eq!(c.conflicts, c.stalls, "every conflict stalls");
        assert_eq!(
            c.attempts,
            c.visits + c.conflicts,
            "every stage-2 attempt either visits or loses arbitration"
        );
        assert!(c.stall_rounds > 0 && c.stall_rounds <= c.rounds);
        // more rounds than the conflict-free lower bound, fewer than the
        // fully serialized upper bound
        assert!(c.rounds >= c.visits.div_ceil(8));
        assert!(c.rounds <= c.attempts);
    }

    #[test]
    fn banked_elision_subsets_results_and_saves_rounds() {
        let cloud = random_cloud(4096, 77);
        let tree = KdTree::build(&cloud);
        let split = SplitTree::new(&tree, 2).unwrap();
        let queries = random_queries(96, 78);
        let exact = BatchSearchConfig::banked(0.3, None, 8, 4, 0);
        let elide = BatchSearchConfig::banked(0.3, None, 8, 4, 6);
        let (full, s0) = split.search_batch(&queries, &exact, &mut BatchState::new());
        let (approx, s6) = split.search_batch(&queries, &elide, &mut BatchState::new());
        assert!(s6.subtree.elided > 0, "deep elision must fire");
        assert!(s6.subtree.skipped >= s6.subtree.elided);
        assert!(s6.subtree.rounds < s0.subtree.rounds, "elision must save rounds");
        for (a, f) in approx.iter().zip(&full) {
            let fset: Vec<usize> = f.iter().map(|n| n.index).collect();
            for n in a {
                assert!(fset.contains(&n.index), "elision may drop, never invent");
            }
        }
        let full_count: usize = full.iter().map(Vec::len).sum();
        let approx_count: usize = approx.iter().map(Vec::len).sum();
        assert!(approx_count <= full_count);
    }

    #[test]
    fn banked_rounds_monotone_in_elision_depth() {
        // the streaming h_e convention: deeper elision eligibility can
        // only remove work (stalls turn into drops, drops shed subtrees)
        let cloud = random_cloud(8192, 79);
        let tree = KdTree::build(&cloud);
        let split = SplitTree::new(&tree, 2).unwrap();
        let queries = random_queries(128, 80);
        let mut prev = usize::MAX;
        for depth in [0usize, 2, 4, 6, 8] {
            let cfg = BatchSearchConfig::banked(0.25, None, 8, 4, depth);
            let (_, stats) = split.search_batch(&queries, &cfg, &mut BatchState::new());
            let cycles = stats.top_fetches + stats.subtree.rounds;
            assert!(cycles <= prev, "h_e {depth}: {cycles} rounds > previous {prev}");
            prev = cycles;
        }
    }

    #[test]
    fn bank_axis_moves_the_conflict_rate() {
        let cloud = random_cloud(4096, 81);
        let tree = KdTree::build(&cloud);
        let split = SplitTree::new(&tree, 2).unwrap();
        let queries = random_queries(96, 82);
        let mut prev_rate = 1.1f64;
        let mut prev_rounds = usize::MAX;
        for banks in [2usize, 4, 16] {
            let cfg = BatchSearchConfig::banked(0.3, None, 8, banks, 0);
            let (_, stats) = split.search_batch(&queries, &cfg, &mut BatchState::new());
            assert!(stats.subtree.conflict_rate() <= prev_rate + 1e-9, "banks {banks}");
            assert!(stats.subtree.rounds <= prev_rounds, "banks {banks}");
            prev_rate = stats.subtree.conflict_rate();
            prev_rounds = stats.subtree.rounds;
        }
    }

    #[test]
    fn tagged_batch_demuxes_the_flat_results() {
        let cloud = random_cloud(3000, 90);
        let tree = KdTree::build(&cloud);
        let split = SplitTree::new(&tree, 3).unwrap();
        let a = random_queries(40, 91);
        let b = random_queries(17, 92);
        let c = random_queries(25, 93);
        let mut batch = TaggedBatch::new();
        batch.push_segment(7, &a);
        batch.push_segment(3, &b);
        batch.push_segment(7, &c); // same tag twice: two frames, one wave
        assert_eq!(batch.len(), 82);
        assert_eq!(batch.segments(), &[(7, 40), (3, 17), (7, 25)]);
        let cfg = BatchSearchConfig::banked(0.3, Some(16), 8, 4, 0);
        let (flat, _) = split.search_batch(batch.queries(), &cfg, &mut BatchState::new());
        let tagged = batch.split_results(flat.clone());
        assert_eq!(tagged.len(), 3);
        let mut cursor = 0;
        for ((tag, seg), &(want_tag, want_len)) in tagged.iter().zip(batch.segments()) {
            assert_eq!(*tag, want_tag);
            assert_eq!(seg.len(), want_len);
            assert_eq!(seg.as_slice(), &flat[cursor..cursor + want_len]);
            cursor += want_len;
        }
        batch.clear();
        assert!(batch.is_empty() && batch.segments().is_empty());
    }

    #[test]
    fn tagged_batch_solo_bit_identity_at_he_zero() {
        // the multi-tenant invariant: at h_e = 0 a segment's results do
        // not depend on its co-segments
        let cloud = random_cloud(4096, 94);
        let tree = KdTree::build(&cloud);
        let split = SplitTree::new(&tree, 4).unwrap();
        let a = random_queries(64, 95);
        let b = random_queries(48, 96);
        let cfg = BatchSearchConfig::banked(0.25, Some(8), 8, 4, 0);
        let mut shared = TaggedBatch::new();
        shared.push_segment(0, &a);
        shared.push_segment(1, &b);
        let (flat, _) = split.search_batch(shared.queries(), &cfg, &mut BatchState::new());
        let together = shared.split_results(flat);
        for (tag, queries) in [(0u64, &a), (1, &b)] {
            let (solo, _) = split.search_batch(queries, &cfg, &mut BatchState::new());
            let seg = &together.iter().find(|(t, _)| *t == tag).unwrap().1;
            assert_eq!(seg, &solo, "tenant {tag} must not see its co-tenant");
        }
    }

    #[test]
    #[should_panic(expected = "one result per tagged query")]
    fn tagged_batch_rejects_mismatched_results() {
        let mut batch = TaggedBatch::new();
        batch.push_segment(1, &[Point3::ZERO, Point3::ZERO]);
        batch.split_results(vec![0u32]);
    }

    #[test]
    fn state_buffers_are_recycled() {
        let cloud = random_cloud(1024, 73);
        let tree = KdTree::build(&cloud);
        let split = SplitTree::new(&tree, 3).unwrap();
        let queries = random_queries(64, 74);
        let mut state = BatchState::new();
        split.search_batch(&queries, &stall_only(0.3, None), &mut state);
        let spare_after_first = state.spare.len();
        assert!(spare_after_first > 0, "wavefront lists must return to the spare pool");
        split.search_batch(&queries, &stall_only(0.3, None), &mut state);
        assert_eq!(state.spare.len(), spare_after_first, "steady state allocates nothing new");
    }
}
