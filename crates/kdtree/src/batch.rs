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
//! serialization-free schedule. Each query's route comes from
//! `SplitTree::route`, the same descent the per-query engine's stage 1
//! runs on: a node is fetched iff some route reaches it, so the issued
//! fetches are the distinct route nodes. The batch's DRAM bytes are
//! [`SplitTree::schedule_dram_bytes`], the one statement of Sec 3.4's
//! schedule.
//!
//! Stage 2 is where the banked tree buffer bites, and it is modeled, not
//! assumed away: each sub-tree's query queue is drained in lock-step by
//! `num_pes` PEs through the same drain and
//! [`crescent_memsim::BankedSram`]-backed arbiter that run both stages
//! of the per-query engine model ([`SplitTree::batch_search`]) — one
//! shared implementation, so the two paths cannot drift apart. A fetch that loses bank
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
//! # Trace once, arbitrate many
//!
//! Stage 2 prunes on the radius alone, never on the neighbors found so
//! far, and arbitration only decides whether a losing fetch stalls or is
//! dropped together with its subtree. A query's stage-2 visit order is
//! therefore fixed by geometry: every (PEs, banks, `h_e`) config visits
//! a subsequence of one preorder walk, and an elision skips one
//! contiguous span of it. The one drain (in `split.rs`; the per-query
//! engine's stage 1 runs on it too, over top-tree routes) moves a cursor
//! per PE over such walks: an honored fetch moves to the next
//! step, a stalled one stays, and an elided one jumps to the end of the
//! node's span. Every walk is written in one step format, 8 bytes per
//! visited node: the heap slot, flagged when its point is in radius, and
//! the end of its span; the drain reads a hit's point index and
//! distance from the tree when it visits the step. It reads the walks
//! from one of two sources:
//!
//! * **The tree.** [`SplitTree::search_batch`] (like the per-query
//!   [`SplitTree::batch_search`]) has each PE walk its query when it
//!   picks the query up, so a drain holds `num_pes` walks. A descendant
//!   reuse splices the loser's walk to continue beneath the winner's
//!   node.
//! * **Segment traces.** A wavefront concatenates query segments (a
//!   service's tenant frames, or one whole frame of a stream), and each
//!   segment's routes and walks are fixed by geometry whatever rides
//!   beside it. [`SplitTree::trace_segment`] records one segment once —
//!   each query's sub-tree and top-tree hits, and its walk — and
//!   [`SplitTree::replay_segments`] replays any wavefront of traced
//!   segments on the same tree: stage 1 is the union of their routes,
//!   each sub-tree queue takes the segments' queued queries in batch
//!   order, and a PE picking a query up reads its walk in place from
//!   the trace. Only a descendant reuse copies the rest of the PE's walk
//!   into its own buffer and splices there, from the tree, so the replay
//!   equals [`SplitTree::search_batch`] with reuse on or off.
//!
//! Across consecutive frames of a stream, a [`BatchState`] carries the
//! descent state forward: the route buffer, the fetched-node flags and the
//! per-sub-tree queues are recycled, and the previous frame's sub-tree
//! assignments are kept so the engine can measure temporal locality (how
//! many queries landed in the same sub-tree as last frame — the signal
//! future cross-frame caching optimizations will exploit).

use crescent_pointcloud::{Neighbor, Point3};

use crate::split::{
    drain_queue, drain_subtree_queue, finalize, splice_walk, walk, Cursor, DrainCounters,
    DrainScratch, SplitTree, TraceStep, TreeArbiter, WalkSource,
};
use crate::tree::KdTree;

/// Reusable state for [`SplitTree::search_batch`] and
/// [`SplitTree::replay_segments`], designed to live across the frames of
/// a stream.
///
/// Holds the stage-1 route and fetched-node buffers and the per-sub-tree
/// queues (recycled every call so steady-state frames allocate almost
/// nothing) plus the previous frame's sub-tree assignments, from which
/// the cross-frame [`BatchSearchStats::assignment_reuses`] locality
/// metric is computed.
#[derive(Debug, Default)]
pub struct BatchState {
    /// The top-tree route of the query being routed.
    route: Vec<TraceStep>,
    /// Whether each top-tree node was fetched in the current batch.
    fetched: Vec<bool>,
    /// Per-sub-tree query queues (arrival order).
    queues: Vec<Vec<usize>>,
    /// Sub-tree assignment of each query in the most recent batch.
    assignments: Vec<Option<usize>>,
    /// Assignments of the batch before that (previous frame).
    prev_assignments: Vec<Option<usize>>,
    /// Stage-2 drain scratch (per-PE walk cursors and walk buffers),
    /// recycled across sub-tree queues and frames.
    replay: DrainScratch,
    /// Number of batches searched or replayed through this state.
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

    /// Number of batches (frames) searched or replayed through this
    /// state.
    pub fn frames(&self) -> usize {
        self.frames
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
    /// Stage 2 drains each sub-tree queue from the tree: a PE records its
    /// query's walk when it picks the query up, so the drain holds
    /// `num_pes` walks at a time, and a descendant reuse splices the walk
    /// beneath the winner's node into it.
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
        let tree = self.tree();
        let mut results: Vec<Vec<Neighbor>> = vec![Vec::new(); queries.len()];
        let mut stats =
            self.route_wavefront(queries, config.radius, state, |qi, n| results[qi].push(n));
        stats.frame_index = state.frames;
        state.frames += 1;

        // ---- stage 2: search confined to each assigned sub-tree ----
        // depth-from-leaves h_e -> the engine's level threshold
        let threshold = tree.height().saturating_sub(config.elision_depth);
        let mut arbiter = TreeArbiter::banked(config.num_banks, threshold, config.descendant_reuse);
        for (&root, queue) in self.subtree_roots().iter().zip(&state.queues) {
            stats.subtree += drain_subtree_queue(
                tree,
                root,
                queue,
                queries,
                config.radius,
                config.num_pes,
                &mut arbiter,
                &mut state.replay,
                &mut results,
            );
        }
        let mut keys = Vec::new();
        for hits in &mut results {
            finalize(hits, config.max_neighbors, &mut keys);
        }
        (results, stats)
    }

    /// Stage 1 of a batch and the counters it settles: rotates `state`'s
    /// assignment history, routes every query down the top tree with
    /// [`SplitTree::route`] (reporting each top-tree hit to `hit`, query
    /// by query, each query's in root-to-leaf order), groups the queries
    /// into `state`'s per-sub-tree queues, and returns every
    /// [`BatchSearchStats`] field but `frame_index` and `subtree`.
    ///
    /// A top-tree node costs one shared fetch per batch iff some query's
    /// route reaches it, so the issued fetches are the distinct route
    /// nodes and the unamortized ones the sum of the route lengths.
    fn route_wavefront(
        &self,
        queries: &[Point3],
        radius: f32,
        state: &mut BatchState,
        mut hit: impl FnMut(usize, Neighbor),
    ) -> BatchSearchStats {
        let mut stats = BatchSearchStats { queries: queries.len(), ..BatchSearchStats::default() };
        if !self.open_wavefront(queries.len(), state) {
            return stats;
        }

        // ---- stage 1: route every query, fetching each node once ----
        let r2 = radius * radius;
        for (qi, &q) in queries.iter().enumerate() {
            state.route.clear();
            let s = self.route(0, q, r2, &mut state.route);
            stats.top_fetches_unamortized += state.route.len();
            for step in &state.route {
                let fetched = &mut state.fetched[step.node()];
                stats.top_fetches += usize::from(!*fetched);
                *fetched = true;
                if let Some(n) = step.hit(self.tree(), q) {
                    hit(qi, n);
                }
            }
            state.assignments.push(Some(s));
            state.queues[s].push(qi);
        }
        self.settle_wavefront(&mut stats, state);
        stats
    }

    /// Opens the stage 1 of a batch of `queries` queries in `state`:
    /// rotates its assignment history (the last batch becomes the
    /// previous frame) and clears its queues. Returns whether there is
    /// anything to route; if not, every query is left unassigned.
    fn open_wavefront(&self, queries: usize, state: &mut BatchState) -> bool {
        std::mem::swap(&mut state.prev_assignments, &mut state.assignments);
        state.assignments.clear();
        for q in state.queues.iter_mut() {
            q.clear();
        }
        if self.tree().is_empty() || queries == 0 {
            state.assignments.resize(queries, None);
            return false;
        }
        state.fetched.clear();
        state.fetched.resize(self.top_len(), false);
        state.queues.resize_with(self.num_subtrees(), Vec::new);
        true
    }

    /// Settles the stage-1 counters that follow from a routed batch's
    /// queues and assignments in `state`: the touched sub-trees, the
    /// DRAM bytes of Sec 3.4's schedule and the cross-frame locality.
    fn settle_wavefront(&self, stats: &mut BatchSearchStats, state: &BatchState) {
        let touched = (0..).zip(&state.queues).filter(|(_, q)| !q.is_empty()).map(|(s, _)| s);
        stats.subtrees_touched = touched.clone().count();
        stats.dram_bytes = self.schedule_dram_bytes(stats.queries, touched);
        for (a, p) in state.assignments.iter().zip(&state.prev_assignments) {
            if a.is_some() && a == p {
                stats.assignment_reuses += 1;
            }
        }
    }

    /// Records one query segment's search geometry for
    /// [`SplitTree::replay_segments`]: each query's route outcome (its
    /// sub-tree, its top-tree hits, and the segment's distinct route
    /// nodes and summed route lengths) and its stage-2 walk beneath its
    /// sub-tree root, 8 bytes per visited node (the heap slot flagged
    /// in-radius or not, and the end of its span) — what the tree cannot
    /// give back; the replay reads each hit's distance and point index
    /// from the tree again.
    ///
    /// A segment is traced once and replayed inside any wavefront of any
    /// (PEs, banks, `h_e`, descendant reuse) on this split and radius.
    pub fn trace_segment(&self, queries: &[Point3], radius: f32) -> SegmentTrace {
        let tree = self.tree();
        let mut trace = SegmentTrace {
            radius,
            nodes: tree.len(),
            queries: queries.len(),
            ..SegmentTrace::default()
        };
        if tree.is_empty() {
            return trace;
        }
        let r2 = radius * radius;
        let mut fetched = vec![false; self.top_len()];
        let mut steps = Vec::new();
        for (qi, &q) in queries.iter().enumerate() {
            steps.clear();
            let s = self.route(0, q, r2, &mut steps);
            trace.route_steps += steps.len();
            for step in &steps {
                fetched[step.node()] = true;
                if let Some(n) = step.hit(tree, q) {
                    trace.top_hits.push((qi as u32, n));
                }
            }
            trace.subtrees.push(s as u32);
            // span ends are offsets in the segment's whole walk array
            walk(tree, self.subtree_roots()[s], q, r2, &mut trace.walk);
            trace.walk_ends.push(u32::try_from(trace.walk.len()).expect("a segment's walks fit"));
        }
        trace.route_nodes = (0..).zip(&fetched).filter(|(_, &f)| f).map(|(i, _)| i).collect();
        // a trace lives as long as its context: keep no growth slack
        trace.walk.shrink_to_fit();
        trace
    }

    /// Replays one wavefront from its riders' [`SegmentTrace`]s: each
    /// segment's queries, paired with its trace, in batch order. Results
    /// and [`BatchSearchStats`] are bit-identical to
    /// [`SplitTree::search_batch`] on the segments' queries concatenated,
    /// through the same `state`, descendant reuse on or off.
    ///
    /// Stage 1 is the union of the segments' routes: a top-tree node is
    /// fetched once iff some segment's route reaches it, and the queues,
    /// touched sub-trees and DRAM bytes follow from the queries'
    /// recorded sub-trees. Stage 2 drains each sub-tree queue (the
    /// riders' queued queries in batch order) through the one drain,
    /// whose PEs read their walks in place from the traces instead of
    /// walking the tree, read each hit from this split's tree, and splice
    /// a descendant reuse from it as [`SplitTree::search_batch`] does.
    ///
    /// # Panics
    ///
    /// Panics if a segment's query count differs from its trace's,
    /// `config.radius` from the one it was traced at, or this split's
    /// node count from the traced tree's (the hits are read from the
    /// tree, so a trace replays only on the tree it was recorded on).
    pub fn replay_segments(
        &self,
        segments: &[(&[Point3], &SegmentTrace)],
        config: &BatchSearchConfig,
        state: &mut BatchState,
    ) -> (Vec<Vec<Neighbor>>, BatchSearchStats) {
        let tree = self.tree();
        let mut offsets = Vec::with_capacity(segments.len());
        let mut total = 0;
        for (queries, trace) in segments {
            assert_eq!(queries.len(), trace.queries, "one trace per query segment");
            // the recorded hit flags hold at the traced radius only
            assert_eq!(trace.radius.to_bits(), config.radius.to_bits(), "one radius per trace");
            assert_eq!(trace.nodes, tree.len(), "a trace replays on the tree it was traced on");
            offsets.push(total);
            total += queries.len();
        }
        let mut results: Vec<Vec<Neighbor>> = vec![Vec::new(); total];
        let mut stats = BatchSearchStats { queries: total, ..BatchSearchStats::default() };
        stats.frame_index = state.frames;
        state.frames += 1;
        if !self.open_wavefront(total, state) {
            return (results, stats);
        }

        // ---- stage 1: the union of the segments' routes ----
        for (&offset, (_, trace)) in offsets.iter().zip(segments) {
            stats.top_fetches_unamortized += trace.route_steps;
            for &node in &trace.route_nodes {
                let fetched = &mut state.fetched[node as usize];
                stats.top_fetches += usize::from(!*fetched);
                *fetched = true;
            }
            for &(qi, n) in &trace.top_hits {
                results[offset + qi as usize].push(n);
            }
            for (qi, &s) in trace.subtrees.iter().enumerate() {
                state.assignments.push(Some(s as usize));
                state.queues[s as usize].push(offset + qi);
            }
        }
        self.settle_wavefront(&mut stats, state);

        // ---- stage 2: every sub-tree queue, walks read from the traces ----
        let threshold = tree.height().saturating_sub(config.elision_depth);
        let mut arbiter = TreeArbiter::banked(config.num_banks, threshold, config.descendant_reuse);
        let DrainScratch { pes, walks, tail } = &mut state.replay;
        let num_pes = config.num_pes.max(1);
        walks.resize_with(num_pes, Vec::new);
        let mut source = SegmentWalks {
            tree,
            segments,
            offsets: &offsets,
            queue: [].iter(),
            r2: config.radius * config.radius,
            views: vec![None; num_pes],
            walks,
            tail,
        };
        for queue in &state.queues {
            source.queue = queue.iter();
            stats.subtree +=
                drain_queue(&mut source, tree, config.num_pes, &mut arbiter, pes, &mut results);
        }
        let mut keys = Vec::new();
        for hits in &mut results {
            finalize(hits, config.max_neighbors, &mut keys);
        }
        (results, stats)
    }
}

/// One query segment's search geometry on a split tree, recorded once by
/// [`SplitTree::trace_segment`] and replayed by
/// [`SplitTree::replay_segments`] inside any wavefront it rides, under
/// any (PEs, banks, `h_e`, descendant reuse).
///
/// It holds each query's route outcome and stage-2 walk, 8 bytes per
/// walked node, and nothing of the tree but its node count: the replay
/// reads each hit's distance and point index from the tree it runs on.
#[derive(Clone, Debug, Default)]
pub struct SegmentTrace {
    /// The search radius the routes and walks were pruned with.
    radius: f32,
    /// Nodes of the traced tree.
    nodes: usize,
    /// Queries in the segment.
    queries: usize,
    /// Each query's sub-tree (empty on an empty tree).
    subtrees: Vec<u32>,
    /// The distinct top-tree nodes the segment's routes reach,
    /// ascending.
    route_nodes: Vec<u32>,
    /// The segment's route lengths summed (its unamortized fetches).
    route_steps: usize,
    /// Stage-1 hits `(query, neighbor)`, query by query, each query's in
    /// root-to-leaf order.
    pub(crate) top_hits: Vec<(u32, Neighbor)>,
    /// End offset in `walk` of each query's walk.
    walk_ends: Vec<u32>,
    /// The queries' stage-2 walks, one after another, each step's span
    /// end an offset in this array.
    walk: Vec<TraceStep>,
}

/// The queued queries of one sub-tree as a walk source over segment
/// traces: a PE picking a query up reads the query's walk in place from
/// its trace, and a descendant reuse copies the rest of the walk into the
/// PE's buffer and splices there, from the tree, like the tree source.
struct SegmentWalks<'a> {
    tree: &'a KdTree,
    segments: &'a [(&'a [Point3], &'a SegmentTrace)],
    /// Where each segment starts in the batch.
    offsets: &'a [usize],
    queue: std::slice::Iter<'a, usize>,
    r2: f32,
    /// The trace walk array each PE's cursor indexes, or `None` once a
    /// splice moved the PE's walk into its buffer in `walks`.
    views: Vec<Option<&'a [TraceStep]>>,
    walks: &'a mut [Vec<TraceStep>],
    tail: &'a mut Vec<TraceStep>,
}

impl WalkSource for SegmentWalks<'_> {
    fn pick_up(&mut self, pe: usize) -> Option<Cursor> {
        let &query = self.queue.next()?;
        // an empty segment starts where the next one does, so the last
        // segment starting at or before `query` holds it
        let seg = self.offsets.partition_point(|&o| o <= query) - 1;
        let (queries, trace) = self.segments[seg];
        let local = query - self.offsets[seg];
        let at = if local == 0 { 0 } else { trace.walk_ends[local - 1] as usize };
        self.views[pe] = Some(&trace.walk);
        Some(Cursor { query, q: queries[local], at, end: trace.walk_ends[local] as usize })
    }

    #[inline]
    fn steps(&self, pe: usize) -> &[TraceStep] {
        match self.views[pe] {
            Some(view) => view,
            None => &self.walks[pe],
        }
    }

    fn splice(&mut self, pe: usize, cursor: &mut Cursor, w: usize) {
        let steps = &mut self.walks[pe];
        if let Some(view) = self.views[pe].take() {
            // the rest of the walk moves to the start of the PE's buffer
            steps.clear();
            let by = -(cursor.at as isize);
            steps.extend(view[cursor.at..cursor.end].iter().map(|s| s.shifted(by)));
            (cursor.at, cursor.end) = (0, steps.len());
        }
        splice_walk(self.tree, w, self.r2, steps, self.tail, cursor);
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
        let reference = crate::baselines::crescent_dram_bytes(&split, &queries);
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

    /// One trace replayed under config after config, descendant reuse
    /// on and off, each matching a fresh `search_batch`: the replay only
    /// reads its trace, and a splice never writes into it.
    #[test]
    fn one_trace_replays_every_config() {
        let cloud = random_cloud(4096, 83);
        let tree = KdTree::build(&cloud);
        let split = SplitTree::new(&tree, 3).unwrap();
        let queries = random_queries(96, 84);
        let trace = split.trace_segment(&queries, 0.3);
        let configs = [
            (8, 4, 0, false),
            (2, 2, 6, true),
            (16, 1, 3, false),
            (1, 8, 9, true),
            (8, 4, 0, false),
        ];
        for (pes, banks, depth, reuse) in configs {
            let cfg = BatchSearchConfig::banked(0.3, Some(16), pes, banks, depth)
                .with_descendant_reuse(reuse);
            let segments: [(&[Point3], &SegmentTrace); 1] = [(&queries, &trace)];
            let replayed = split.replay_segments(&segments, &cfg, &mut BatchState::new());
            let fresh = split.search_batch(&queries, &cfg, &mut BatchState::new());
            assert_eq!(replayed, fresh, "{pes} PEs, {banks} banks, h_e {depth}, reuse {reuse}");
        }
    }

    /// A trace's hits are read from the tree it replays on, so a tree of
    /// another size is refused rather than read out of place.
    #[test]
    #[should_panic(expected = "a trace replays on the tree it was traced on")]
    fn replay_rejects_a_tree_of_another_size() {
        let queries = random_queries(16, 86);
        let traced = KdTree::build(&random_cloud(512, 85));
        let trace = SplitTree::new(&traced, 2).unwrap().trace_segment(&queries, 0.3);
        let other = KdTree::build(&random_cloud(511, 85));
        let cfg = BatchSearchConfig::banked(0.3, None, 4, 4, 0);
        SplitTree::new(&other, 2).unwrap().replay_segments(
            &[(&queries, &trace)],
            &cfg,
            &mut BatchState::new(),
        );
    }

    #[test]
    fn state_buffers_are_recycled() {
        let cloud = random_cloud(1024, 73);
        let tree = KdTree::build(&cloud);
        let split = SplitTree::new(&tree, 3).unwrap();
        let queries = random_queries(64, 74);
        let mut state = BatchState::new();
        split.search_batch(&queries, &stall_only(0.3, None), &mut state);
        let route = (state.route.as_ptr(), state.route.capacity());
        let fetched = (state.fetched.as_ptr(), state.fetched.capacity());
        assert!(route.1 >= split.top_height(), "the route buffer holds a whole route");
        assert!(fetched.1 >= split.top_len(), "one fetched flag per top-tree node");
        split.search_batch(&queries, &stall_only(0.3, None), &mut state);
        let again = (state.route.as_ptr(), state.route.capacity());
        assert_eq!(again, route, "the route buffer keeps its allocation");
        let again = (state.fetched.as_ptr(), state.fetched.capacity());
        assert_eq!(again, fetched, "the fetched flags keep their allocation");
    }
}
