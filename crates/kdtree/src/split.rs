//! Two-level split-tree and the Crescent approximate neighbor search
//! (Sec 3), including the selective bank-conflict elision model (Sec 4).
//!
//! The K-d tree is split into a *top tree* (levels `0..h_t`) and a set of
//! *sub-trees* (the subtrees rooted at level `h_t`). A query first descends
//! the top tree with no backtracking and is assigned to exactly one
//! sub-tree; in the second stage each sub-tree answers its queue of queries
//! with backtracking **confined to the sub-tree**. Both stages stream their
//! DRAM accesses (queries in arrival order, sub-trees as dense arrays).
//!
//! Approximation knobs (Sec 3.3, 4.4):
//!
//! * `h_t` (top-tree height): taller ⇒ smaller sub-trees ⇒ fewer nodes
//!   visited in backtracking ⇒ faster but less accurate;
//! * `h_e` (elision height): tree level at and below which a bank-conflicted
//!   tree-buffer fetch is *dropped* (the subtree beneath it is skipped)
//!   instead of stalling the PE. Smaller ⇒ more drops ⇒ faster but less
//!   accurate. The streaming wavefront exposes the same threshold in its
//!   depth-from-leaves form (`height − h_e`, see
//!   [`BatchSearchConfig::elision_depth`](crate::BatchSearchConfig)); both forms drive the one
//!   shared arbitration implementation (`TreeArbiter`, in this module).
//!
//! Both stages run on one lock-step simulator, `drain_queue`: a cursor
//! per PE over its query's walk, in one step format (`TraceStep`, 8
//! bytes: a heap slot flagged when its point is in radius, and the end
//! of its walked span). In stage 1 of [`SplitTree::batch_search`] the
//! walk is the query's top-tree route (`Routes`); in stage 2 it is the
//! query's radius-pruned preorder walk of its sub-tree, walked from the
//! tree as each PE picks a query up (`drain_subtree_queue`, both search
//! drivers) or read in place from a [`SegmentTrace`](crate::SegmentTrace).
//! The drain reads a hit's point index and distance from the tree when
//! it visits the step. A descendant reuse splices the loser's walk to
//! continue beneath the winner's node (`splice_walk`) in the PE's own
//! buffer.
//!
//! Both stage-1 descents of the search drivers — `Routes` and the
//! wavefront — and [`crescent_dram_bytes`](crate::crescent_dram_bytes)
//! route on one method, `SplitTree::route`; the wavefront and
//! `crescent_dram_bytes` charge DRAM by one,
//! [`SplitTree::schedule_dram_bytes`]. [`SplitTree::route_query`] is the
//! reference router that [`SplitTree::search_one`] runs on.

use crescent_memsim::{BankedSram, PortOutcome, SramConfig};
use crescent_pointcloud::{Neighbor, Point3, POINT_BYTES};

use crate::search::radius_search_from;
use crate::tree::{
    heap_level, heap_subtree_len, KdTree, META_AXIS_SHIFT, META_INDEX_MASK, NODE_BYTES,
};

/// Error building a [`SplitTree`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SplitTreeError {
    /// `top_height` must be `< tree.height()` (a sub-tree level must exist).
    TopHeightTooLarge {
        /// Requested top-tree height.
        requested: usize,
        /// Height of the underlying tree.
        tree_height: usize,
    },
}

impl std::fmt::Display for SplitTreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SplitTreeError::TopHeightTooLarge { requested, tree_height } => write!(
                f,
                "top-tree height {requested} leaves no sub-tree level in a tree of height {tree_height}"
            ),
        }
    }
}

impl std::error::Error for SplitTreeError {}

/// A K-d tree split into a top tree and sub-trees, per Sec 3.1.
///
/// # Examples
///
/// ```
/// use crescent_kdtree::{KdTree, SplitTree};
/// use crescent_pointcloud::{Point3, PointCloud};
///
/// let cloud: PointCloud = (0..255).map(|i| Point3::new(i as f32, 0.0, 0.0)).collect();
/// let tree = KdTree::build(&cloud);
/// let split = SplitTree::new(&tree, 3)?;
/// assert_eq!(split.num_subtrees(), 8);
/// # Ok::<(), crescent_kdtree::SplitTreeError>(())
/// ```
#[derive(Debug)]
pub struct SplitTree<'a> {
    tree: &'a KdTree,
    top_height: usize,
    subtree_roots: Vec<usize>,
}

impl<'a> SplitTree<'a> {
    /// Splits `tree` below a top tree of height `top_height`.
    ///
    /// `top_height == 0` yields a degenerate split with a single sub-tree
    /// (the whole tree) — i.e. exact search.
    ///
    /// # Errors
    ///
    /// Returns [`SplitTreeError::TopHeightTooLarge`] if no sub-tree level
    /// would remain.
    pub fn new(tree: &'a KdTree, top_height: usize) -> Result<Self, SplitTreeError> {
        if !tree.is_empty() && top_height >= tree.height() {
            return Err(SplitTreeError::TopHeightTooLarge {
                requested: top_height,
                tree_height: tree.height(),
            });
        }
        let subtree_roots = tree.subtree_roots(top_height);
        Ok(SplitTree { tree, top_height, subtree_roots })
    }

    /// Cheap re-validation path for a refitted tree: rebuilds the split
    /// view around `tree` while recycling a root table recovered from a
    /// previous split via [`SplitTree::into_subtree_roots`].
    ///
    /// [`KdTree::refit`](crate::KdTree::refit) mutates the tree in place
    /// without changing its heap layout, so when the node count and
    /// `top_height` are unchanged the old root table is *exactly* correct
    /// and is validated in O(1) (first slot + length check) instead of
    /// being recomputed; when anything changed (a size-changing rebuild
    /// fallback, a different `top_height`) the table is recomputed into
    /// the same allocation. Either way no per-frame allocation is made in
    /// the steady state.
    ///
    /// # Errors
    ///
    /// Returns [`SplitTreeError::TopHeightTooLarge`] under the same
    /// conditions as [`SplitTree::new`].
    pub fn resplit(
        tree: &'a KdTree,
        top_height: usize,
        mut roots: Vec<usize>,
    ) -> Result<Self, SplitTreeError> {
        if !tree.is_empty() && top_height >= tree.height() {
            return Err(SplitTreeError::TopHeightTooLarge {
                requested: top_height,
                tree_height: tree.height(),
            });
        }
        let range = tree.subtree_root_range(top_height);
        let reusable =
            roots.len() == range.len() && (range.is_empty() || roots.first() == Some(&range.start));
        if !reusable {
            roots.clear();
            roots.extend(range);
        }
        Ok(SplitTree { tree, top_height, subtree_roots: roots })
    }

    /// Consumes the split and returns its sub-tree root table so the
    /// allocation can be recycled by a later [`SplitTree::resplit`].
    pub fn into_subtree_roots(self) -> Vec<usize> {
        self.subtree_roots
    }

    /// The underlying tree.
    #[inline]
    pub fn tree(&self) -> &KdTree {
        self.tree
    }

    /// The top-tree height `h_t`.
    #[inline]
    pub fn top_height(&self) -> usize {
        self.top_height
    }

    /// Number of sub-trees (≤ `2^h_t`; fewer in non-perfect trees).
    #[inline]
    pub fn num_subtrees(&self) -> usize {
        self.subtree_roots.len()
    }

    /// Heap slots of the sub-tree roots.
    #[inline]
    pub fn subtree_roots(&self) -> &[usize] {
        &self.subtree_roots
    }

    /// Number of nodes in sub-tree `s`.
    pub fn subtree_len(&self, s: usize) -> usize {
        self.tree.subtree_len(self.subtree_roots[s])
    }

    /// Number of nodes in the top tree.
    pub fn top_len(&self) -> usize {
        ((1usize << self.top_height) - 1).min(self.tree.len())
    }

    /// DRAM bytes of Crescent's phased schedule (Sec 3.4) for a batch of
    /// `queries` queries whose routes land in the sub-trees `touched`
    /// (each named once): every query read in stage 1, written back to
    /// its sub-tree queue and read again in stage 2; the top tree and
    /// each touched sub-tree streamed once.
    pub fn schedule_dram_bytes(
        &self,
        queries: usize,
        touched: impl IntoIterator<Item = usize>,
    ) -> u64 {
        let nodes =
            self.top_len() + touched.into_iter().map(|s| self.subtree_len(s)).sum::<usize>();
        (3 * queries * POINT_BYTES + nodes * NODE_BYTES) as u64
    }

    /// The reference router: stage 1 for a single query, written out on
    /// its own. It descends the top tree (no backtracking) and returns the
    /// sub-tree index the query is assigned to, reporting candidate
    /// neighbors found among the top-tree nodes to `hits` and each node
    /// fetch to `on_fetch`. [`SplitTree::search_one`] runs on it, so the
    /// tests that hold both search drivers to `search_one` also hold
    /// their shared router, `SplitTree::route`, to this one.
    ///
    /// Returns `None` for an empty tree.
    pub fn route_query(
        &self,
        query: Point3,
        radius: f32,
        hits: &mut Vec<Neighbor>,
        on_fetch: &mut dyn FnMut(usize),
    ) -> Option<usize> {
        if self.tree.is_empty() {
            return None;
        }
        let r2 = radius * radius;
        let mut idx = 0usize;
        loop {
            let level = self.tree.level_of(idx);
            if level == self.top_height {
                // reached a sub-tree root
                let s = idx - self.subtree_roots[0];
                return Some(s);
            }
            on_fetch(idx);
            let point = self.tree.point_of(idx);
            let d2 = point.dist2(query);
            if d2 <= r2 {
                hits.push(Neighbor { index: self.tree.point_index_of(idx), dist2: d2 });
            }
            let axis = self.tree.axis_of(idx);
            let next = if query.coord(axis) - point.coord(axis) <= 0.0 {
                self.tree.left(idx)
            } else {
                self.tree.right(idx)
            };
            match next {
                Some(n) => idx = n,
                // ragged bottom of a non-perfect tree: clamp to the last
                // existing sub-tree (its queue absorbs the query)
                None => return Some(self.nearest_subtree_for(idx)),
            }
        }
    }

    fn nearest_subtree_for(&self, idx: usize) -> usize {
        // map a top-tree slot with a missing child onto the sub-tree whose
        // root shares the longest path prefix; clamp into range
        let first = self.subtree_roots[0];
        let mut i = idx;
        while i < first {
            i = 2 * i + 1;
        }
        (i - first).min(self.subtree_roots.len() - 1)
    }

    /// Full two-stage approximate search for one query (no bank-conflict
    /// modeling): top-tree descent, then exact search confined to the
    /// assigned sub-tree. Node fetches are reported to `on_fetch`.
    pub fn search_one_traced(
        &self,
        query: Point3,
        radius: f32,
        max_neighbors: Option<usize>,
        on_fetch: &mut dyn FnMut(usize),
    ) -> Vec<Neighbor> {
        let mut hits = Vec::new();
        let Some(s) = self.route_query(query, radius, &mut hits, on_fetch) else {
            return hits;
        };
        radius_search_from(self.tree, self.subtree_roots[s], query, radius, &mut hits, on_fetch);
        finalize(&mut hits, max_neighbors, &mut Vec::new());
        hits
    }

    /// [`SplitTree::search_one_traced`] without instrumentation.
    pub fn search_one(
        &self,
        query: Point3,
        radius: f32,
        max_neighbors: Option<usize>,
    ) -> Vec<Neighbor> {
        self.search_one_traced(query, radius, max_neighbors, &mut |_| {})
    }

    /// Batch two-stage search with the lock-step PE / banked-tree-buffer
    /// model, implementing selective bank-conflict elision (Sec 4).
    ///
    /// Queries are routed in stage 1, grouped per sub-tree, and each
    /// sub-tree's queue is processed `config.num_pes` queries at a time;
    /// both stages run through the one lock-step drain. Every simulated
    /// cycle, each active PE issues a fetch for the next node of its
    /// query's walk (its top-tree route in stage 1); fetches that lose
    /// bank arbitration
    /// either **stall** (node level < `h_e`) or are **elided** (level ≥
    /// `h_e`), skipping the node and the whole subtree beneath it.
    ///
    /// Returns one neighbor list per query plus the aggregate statistics.
    pub fn batch_search(
        &self,
        queries: &[Point3],
        config: &SplitSearchConfig,
    ) -> (Vec<Vec<Neighbor>>, SplitSearchStats) {
        let mut results: Vec<Vec<Neighbor>> = vec![Vec::new(); queries.len()];
        let mut stats = SplitSearchStats::default();
        if self.tree.is_empty() || queries.is_empty() {
            return (results, stats);
        }
        let mut arbiter = TreeArbiter::from_elision(&config.elision);
        let r2 = config.radius * config.radius;
        let mut scratch = DrainScratch::default();
        let DrainScratch { pes, walks, .. } = &mut scratch;
        walks.resize_with(config.num_pes.max(1), Vec::new);

        // ---- stage 1: top-tree descent, each PE walking its query's route ----
        let mut routes = Routes {
            split: self,
            queries,
            r2,
            pending: 0..queries.len(),
            walks,
            subtrees: vec![None; queries.len()],
        };
        stats.top =
            drain_queue(&mut routes, self.tree, config.num_pes, &mut arbiter, pes, &mut results);

        // ---- group queries per sub-tree, preserving arrival order ----
        // (a query whose routing fetch was elided has no sub-tree)
        let mut queues: Vec<Vec<usize>> = vec![Vec::new(); self.num_subtrees()];
        for (qi, s) in routes.subtrees.iter().enumerate() {
            if let Some(s) = s {
                queues[*s].push(qi);
            }
        }

        // ---- stage 2: per-sub-tree confined search ----
        for (s, queue) in queues.iter().enumerate() {
            let root = self.subtree_roots[s];
            stats.subtree += drain_subtree_queue(
                self.tree,
                root,
                queue,
                queries,
                config.radius,
                config.num_pes,
                &mut arbiter,
                &mut scratch,
                &mut results,
            );
        }

        let mut keys = Vec::new();
        for hits in &mut results {
            finalize(hits, config.max_neighbors, &mut keys);
        }
        (results, stats)
    }

    /// Appends `q`'s stage-1 route from heap slot `idx` to `steps`: each
    /// top-tree node it descends through, on the query's side of each
    /// split, with no backtracking, flagged a hit when its point lies
    /// within the squared radius `r2`. Every step ends where the route ends,
    /// so an elided routing fetch drops the rest of the route. Returns the
    /// sub-tree the route lands in (a ragged bottom goes through
    /// [`Self::nearest_subtree_for`]); at `h_t = 0` the route is empty.
    ///
    /// The one production top-tree descent: the per-query engine's stage
    /// 1 (`Routes`), the wavefront and [`crescent_dram_bytes`] route on
    /// it. The tree must not be empty.
    ///
    /// [`crescent_dram_bytes`]: crate::crescent_dram_bytes
    pub(crate) fn route(
        &self,
        mut idx: usize,
        q: Point3,
        r2: f32,
        steps: &mut Vec<TraceStep>,
    ) -> usize {
        let start = steps.len();
        let first = self.subtree_roots[0];
        let s = loop {
            if idx >= first {
                break idx - first;
            }
            let point = self.tree.point_of(idx);
            steps.push(TraceStep::new(idx, point.dist2(q) <= r2));
            let axis = self.tree.axis_of(idx);
            let next = if q.coord(axis) - point.coord(axis) <= 0.0 {
                self.tree.left(idx)
            } else {
                self.tree.right(idx)
            };
            match next {
                Some(n) => idx = n,
                None => break self.nearest_subtree_for(idx),
            }
        };
        let end = steps.len() as u32;
        for step in &mut steps[start..] {
            step.end = end;
        }
        s
    }
}

/// The lock-step tree-buffer arbiter of *every* timing path that fetches
/// tree nodes: both stages of the per-query engine model
/// ([`SplitTree::batch_search`]) and stage 2 of the wavefront run through
/// the one drain, whose walks come from a top-tree route, the tree or a
/// trace, and the drain routes every node fetch through this one
/// implementation, so "one unified timing model" is a structural
/// property, not a testing aspiration.
///
/// Bank mapping and winner selection are delegated to `crescent-memsim`'s
/// [`BankedSram`] (node index × [`NODE_BYTES`], word size = one node, so
/// nodes are low-order interleaved across banks exactly like the
/// engine's Fig 10 hardware); this type adds the tree-shaped policy on
/// top: the `h_e` level comparator that decides whether a losing fetch
/// stalls or is dropped, and the optional descendant-reuse salvage.
#[derive(Debug)]
pub(crate) struct TreeArbiter {
    /// `None` = ideal SRAM (no banking model): every request is honored.
    sram: Option<BankedSram>,
    /// Elide a losing fetch iff its node's level is `>= threshold`
    /// (levels are `0..height`); losers above the threshold stall.
    threshold: usize,
    /// The level comparator, folded to index space: `level_of(idx) >=
    /// threshold  ⟺  idx >= 2^threshold − 1` (heap levels start at
    /// `2^level − 1`), so the per-request, per-round eligibility test is
    /// one integer compare. `usize::MAX` when the threshold saturates.
    min_elide_idx: usize,
    /// Sec 4.2 descendant-reuse refinement on elided fetches.
    reuse: bool,
}

impl TreeArbiter {
    /// Arbiter for the engine path's [`ElisionConfig`] (`None` = the
    /// pure-ANS ideal SRAM).
    pub(crate) fn from_elision(elision: &Option<ElisionConfig>) -> Self {
        match elision {
            None => TreeArbiter {
                sram: None,
                threshold: usize::MAX,
                min_elide_idx: usize::MAX,
                reuse: false,
            },
            Some(e) => TreeArbiter::banked(e.num_banks, e.elision_height, e.descendant_reuse),
        }
    }

    /// Banked arbiter with an explicit level threshold: losing fetches at
    /// level `>= threshold` are elided, the rest stall. The streaming
    /// wavefront derives `threshold = height − h_e` from its
    /// depth-from-leaves knob; the engine path passes the paper's raw
    /// `elision_height`.
    pub(crate) fn banked(num_banks: usize, threshold: usize, reuse: bool) -> Self {
        let banks = num_banks.max(1);
        let config = SramConfig {
            num_banks: banks,
            word_bytes: NODE_BYTES,
            capacity_bytes: banks * NODE_BYTES,
        };
        TreeArbiter {
            sram: Some(BankedSram::new(config)),
            threshold,
            min_elide_idx: 1usize
                .checked_shl(threshold.min(usize::BITS as usize) as u32)
                .map_or(usize::MAX, |v| v - 1),
            reuse,
        }
    }

    /// The underlying [`BankedSram`] counter block (cumulative across
    /// every round this arbiter ran), if banked — the cross-check handle
    /// tests use to tie the kdtree-level statistics to the memsim model.
    #[cfg(test)]
    pub(crate) fn sram_counters(&self) -> Option<crescent_memsim::SramCounters> {
        self.sram.as_ref().map(|s| *s.counters())
    }

    /// Books `rounds` rounds of one lone request each, all granted: a lone
    /// requester wins every round, so the drain skips arbitrating them but
    /// the [`BankedSram`] counters still see them.
    pub(crate) fn grant_uncontended(&mut self, rounds: usize) {
        if let Some(sram) = &mut self.sram {
            sram.grant_uncontended(rounds as u64);
        }
    }

    /// Opens a lock-step round: every PE that fetches in it then calls
    /// [`Self::request`], in PE order.
    #[inline]
    pub(crate) fn begin_round(&mut self) {
        if let Some(sram) = &mut self.sram {
            sram.begin_round();
        }
    }

    /// PE `pe` fetches tree node `node` in the current round. Arbitration
    /// is first-come-per-bank, so the fetch is resolved on the spot: the
    /// memsim request returns its outcome and, for a loser, the bank's
    /// winner, and the tree-shaped policy (the `h_e` comparator folded to
    /// `min_elide_idx`, the descendant-reuse ancestor check) applies to
    /// it directly. The ideal SRAM honors every fetch.
    #[inline]
    pub(crate) fn request(&mut self, pe: usize, node: usize) -> Arbitration {
        let Some(sram) = &mut self.sram else { return Arbitration::Honored };
        debug_assert_eq!(node >= self.min_elide_idx, heap_level(node) >= self.threshold);
        let eligible = node >= self.min_elide_idx;
        match sram.request(pe, (node * NODE_BYTES) as u64, eligible) {
            (PortOutcome::Granted, _) => Arbitration::Honored,
            (PortOutcome::Conflict, _) => Arbitration::Stalled,
            // without descendant reuse an elided fetch is simply dropped —
            // no need to look at whose data the bank multicast
            (PortOutcome::Elided, _) if !self.reuse => Arbitration::Elided,
            (PortOutcome::Elided, winner) => {
                let winner = winner.expect("a lost bank has a winner");
                let winner_node = winner.addr as usize / NODE_BYTES;
                if is_ancestor(node, winner_node) {
                    // the winner's data lies beneath the lost node:
                    // continuing from it terminates and skips fewer
                    // nodes (Sec 4.2 refinement)
                    Arbitration::Reused(winner_node)
                } else {
                    Arbitration::Elided
                }
            }
        }
    }
}

/// The lock-step arbitration counters of one search stage — the one
/// record both drivers keep them in. The one drain returns one per queue
/// it drains (a batch's stage-1 routes, or a sub-tree queue), whichever
/// source its walks come from;
/// [`SplitTree::batch_search`] keeps a stage-1 and a stage-2 block
/// ([`SplitSearchStats`]), and the wavefront
/// [`SplitTree::search_batch`](crate::batch) keeps a stage-2 block
/// ([`BatchSearchStats::subtree`](crate::BatchSearchStats)). Fed the same
/// queues, the two drivers' stage-2 blocks are equal as whole records
/// (tested in `tests/elision_unified.rs`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DrainCounters {
    /// Lock-step arbitration rounds (the search cycle proxy).
    pub rounds: usize,
    /// Rounds in which at least one fetch lost arbitration and stalled —
    /// the cycles a conflict-free SRAM could win back.
    pub stall_rounds: usize,
    /// Fetch attempts issued (including re-issues after stalls).
    pub attempts: usize,
    /// Attempts that lost bank arbitration (stalled + elided + reused).
    pub conflicts: usize,
    /// Lost attempts that stalled and re-issued.
    pub stalls: usize,
    /// Lost attempts dropped by elision.
    pub elided: usize,
    /// Lost attempts salvaged by descendant reuse (the Sec 4.2
    /// future-work refinement; 0 unless reuse is on).
    pub reuses: usize,
    /// Nodes made unreachable by elision: each dropped fetch skips the
    /// node plus its whole subtree (the Fig 9 "# of nodes skipped"
    /// metric).
    pub skipped: usize,
    /// Node visits: honored fetches plus same-node reuses, each reading
    /// one node's data.
    pub visits: usize,
}

impl DrainCounters {
    /// Fraction of fetch attempts that bank-conflicted (the Fig 4
    /// metric).
    pub fn conflict_rate(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            self.conflicts as f64 / self.attempts as f64
        }
    }
}

impl std::ops::AddAssign for DrainCounters {
    fn add_assign(&mut self, o: DrainCounters) {
        self.rounds += o.rounds;
        self.stall_rounds += o.stall_rounds;
        self.attempts += o.attempts;
        self.conflicts += o.conflicts;
        self.stalls += o.stalls;
        self.elided += o.elided;
        self.reuses += o.reuses;
        self.skipped += o.skipped;
        self.visits += o.visits;
    }
}

/// Appends `q`'s stage-2 walk beneath heap slot `idx` to `steps` in the
/// order the drain visits it when no fetch is elided: the node, its near
/// subtree, then its far subtree if the split plane lies within the
/// radius. The drain prunes on the radius alone, so this order is fixed
/// by geometry and each node's walked subtree is the contiguous span up
/// to its `end`, an offset in `steps`.
pub(crate) fn walk(tree: &KdTree, idx: usize, q: Point3, r2: f32, steps: &mut Vec<TraceStep>) {
    Walker { points: &tree.points, meta: &tree.meta, q, r2 }.walk(idx, steps);
}

/// What [`walk`] reads on every step: the tree's point and meta columns
/// (children by heap arithmetic, the axis unpacked from the meta word),
/// the query and the squared radius.
struct Walker<'a> {
    points: &'a [Point3],
    meta: &'a [u32],
    q: Point3,
    r2: f32,
}

impl Walker<'_> {
    fn walk(&self, idx: usize, steps: &mut Vec<TraceStep>) {
        let at = steps.len();
        let point = self.points[idx];
        steps.push(TraceStep::new(idx, point.dist2(self.q) <= self.r2));
        let axis = (self.meta[idx] >> META_AXIS_SHIFT) as usize;
        let delta = self.q.coord(axis) - point.coord(axis);
        let (near, far) =
            if delta <= 0.0 { (2 * idx + 1, 2 * idx + 2) } else { (2 * idx + 2, 2 * idx + 1) };
        if near < self.points.len() {
            self.walk(near, steps);
        }
        if delta * delta <= self.r2 && far < self.points.len() {
            self.walk(far, steps);
        }
        steps[at].end = steps.len() as u32;
    }
}

/// Flags a walk step whose node's point lies within the radius (heap
/// slots stay below 2³⁰, the tree's meta limit).
const WALK_HIT: u32 = 1 << 31;

/// One node of a walk or route (8 bytes), the one step format every
/// walk source hands the drain.
#[derive(Clone, Copy, Debug)]
pub(crate) struct TraceStep {
    /// Heap slot of the node (the tree-buffer address the PE requests),
    /// with [`WALK_HIT`] set when its point lies within the radius.
    slot: u32,
    /// Offset just past this node's walked subtree in the walk's array:
    /// where the walk resumes when the fetch is elided.
    end: u32,
}

const _: () = assert!(std::mem::size_of::<TraceStep>() == 8);

impl TraceStep {
    /// A step on heap slot `node`, flagged a hit or not; its span end is
    /// set once the walk beneath it is written.
    #[inline]
    fn new(node: usize, hit: bool) -> Self {
        debug_assert!(node < (WALK_HIT >> 1) as usize, "heap slots fit in 30 bits");
        TraceStep { slot: node as u32 | if hit { WALK_HIT } else { 0 }, end: 0 }
    }

    /// Heap slot of the node.
    #[inline]
    pub(crate) fn node(self) -> usize {
        (self.slot & !WALK_HIT) as usize
    }

    /// Whether the node's point lies within the radius.
    #[inline]
    fn is_hit(self) -> bool {
        self.slot & WALK_HIT != 0
    }

    /// The node's point as a neighbor of query `q`, if it is a hit: its
    /// point index and squared distance are read from `tree`, exactly as
    /// [`walk`] computed the distance.
    #[inline]
    pub(crate) fn hit(self, tree: &KdTree, q: Point3) -> Option<Neighbor> {
        self.is_hit().then(|| {
            let slot = self.node();
            let index = (tree.meta[slot] & META_INDEX_MASK) as usize;
            Neighbor { index, dist2: tree.points[slot].dist2(q) }
        })
    }

    /// This step with its span end moved by `by` (a walk copied to
    /// another offset).
    #[inline]
    pub(crate) fn shifted(self, by: isize) -> Self {
        TraceStep { end: (self.end as isize + by) as u32, ..self }
    }
}

/// One PE's place in its query's walk.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Cursor {
    /// The query the PE serves.
    pub(crate) query: usize,
    /// The query's point, which the drain measures each hit against.
    pub(crate) q: Point3,
    /// The step the PE requests next.
    pub(crate) at: usize,
    /// One past the walk's last step.
    pub(crate) end: usize,
}

/// Where [`drain_queue`] reads each PE's walk. Stage 2 reads it from the
/// tree, walked when a PE picks its query up (`drain_subtree_queue`), or
/// in place from a [`SegmentTrace`](crate::SegmentTrace)
/// ([`SplitTree::replay_segments`]); stage 1 of
/// [`SplitTree::batch_search`] reads each query's top-tree route
/// (`Routes`). The drain is generic over it, so no source pays a
/// per-step dispatch.
pub(crate) trait WalkSource {
    /// Hands PE `pe` the next queued query: the query and the span of its
    /// walk in [`Self::steps`]`(pe)`, or `None` once the queue is drained.
    fn pick_up(&mut self, pe: usize) -> Option<Cursor>;
    /// The steps PE `pe`'s cursor indexes.
    fn steps(&self, pe: usize) -> &[TraceStep];
    /// Descendant reuse: replaces the span of the step at `cursor.at`
    /// with the query's walk beneath `w`, a node under it.
    fn splice(&mut self, pe: usize, cursor: &mut Cursor, w: usize);
    /// Elision: the fetch of `step`, the one at `cursor.at`, was dropped,
    /// so the walk resumes past its span.
    fn elide(&mut self, cursor: &mut Cursor, step: TraceStep) {
        cursor.at = step.end as usize;
    }
}

/// The tree as a walk source: each PE records its query's walk beneath
/// `root` into its own buffer when it picks the query up, so a drain
/// holds `num_pes` walks, never a whole queue's.
struct TreeWalks<'a> {
    tree: &'a KdTree,
    root: usize,
    queue: std::slice::Iter<'a, usize>,
    queries: &'a [Point3],
    r2: f32,
    walks: &'a mut [Vec<TraceStep>],
    tail: &'a mut Vec<TraceStep>,
}

impl WalkSource for TreeWalks<'_> {
    fn pick_up(&mut self, pe: usize) -> Option<Cursor> {
        let &query = self.queue.next()?;
        let steps = &mut self.walks[pe];
        steps.clear();
        let q = self.queries[query];
        walk(self.tree, self.root, q, self.r2, steps);
        Some(Cursor { query, q, at: 0, end: steps.len() })
    }

    fn steps(&self, pe: usize) -> &[TraceStep] {
        &self.walks[pe]
    }

    fn splice(&mut self, pe: usize, cursor: &mut Cursor, w: usize) {
        splice_walk(self.tree, w, self.r2, &mut self.walks[pe], self.tail, cursor);
    }
}

/// Descendant reuse on a walk held in a PE's buffer `steps`: replaces
/// the span of the step at `cursor.at` with the cursor's query's walk
/// beneath `w`, a node under it, read from the tree. `tail` is scratch.
///
/// Inlined into each source's `splice`, where its body used to live:
/// the sweep's parallel pass read about 12 % slower with it called.
#[inline]
pub(crate) fn splice_walk(
    tree: &KdTree,
    w: usize,
    r2: f32,
    steps: &mut Vec<TraceStep>,
    tail: &mut Vec<TraceStep>,
    cursor: &mut Cursor,
) {
    let span_end = steps[cursor.at].end as usize;
    tail.clear();
    tail.extend_from_slice(&steps[span_end..cursor.end]);
    steps.truncate(cursor.at);
    walk(tree, w, cursor.q, r2, steps);
    // the rest of the walk moves by the span's change in length
    let by = steps.len() as isize - span_end as isize;
    steps.extend(tail.iter().map(|s| s.shifted(by)));
    cursor.end = steps.len();
}

/// Stage 1 of [`SplitTree::batch_search`] as a walk source: a PE's walk
/// is its query's route from the root down to its sub-tree
/// ([`SplitTree::route`]), recorded with the sub-tree when the PE picks
/// the query up. A descendant reuse re-routes the query from the
/// winner's node, and an elided routing fetch leaves it no sub-tree. At
/// `h_t = 0` every route is empty, so no PE is handed a walk.
struct Routes<'a, 's> {
    split: &'a SplitTree<'s>,
    queries: &'a [Point3],
    r2: f32,
    pending: std::ops::Range<usize>,
    walks: &'a mut [Vec<TraceStep>],
    /// Each query's sub-tree (`None` until routed, or once elided).
    subtrees: Vec<Option<usize>>,
}

impl WalkSource for Routes<'_, '_> {
    fn pick_up(&mut self, pe: usize) -> Option<Cursor> {
        let steps = &mut self.walks[pe];
        loop {
            let query = self.pending.next()?;
            let q = self.queries[query];
            steps.clear();
            self.subtrees[query] = Some(self.split.route(0, q, self.r2, steps));
            if !steps.is_empty() {
                return Some(Cursor { query, q, at: 0, end: steps.len() });
            }
        }
    }

    fn steps(&self, pe: usize) -> &[TraceStep] {
        &self.walks[pe]
    }

    fn splice(&mut self, pe: usize, cursor: &mut Cursor, w: usize) {
        let steps = &mut self.walks[pe];
        steps.truncate(cursor.at);
        self.subtrees[cursor.query] = Some(self.split.route(w, cursor.q, self.r2, steps));
        cursor.end = steps.len();
    }

    fn elide(&mut self, cursor: &mut Cursor, step: TraceStep) {
        self.subtrees[cursor.query] = None;
        cursor.at = step.end as usize;
    }
}

/// Reusable scratch of the drain: each PE's cursor and, for the tree and
/// route sources, each PE's walk. Reused across sub-tree queues and, via
/// [`BatchState`](crate::BatchState), across the frames of a stream.
#[derive(Debug, Default)]
pub(crate) struct DrainScratch {
    pub(crate) pes: Vec<Option<Cursor>>,
    pub(crate) walks: Vec<Vec<TraceStep>>,
    /// The rest of a walk behind a spliced span.
    pub(crate) tail: Vec<TraceStep>,
}

/// Drains one sub-tree's query queue from the tree: the short entry to
/// [`drain_queue`] with the tree as the walk source, used by
/// [`SplitTree::batch_search`] and [`SplitTree::search_batch`](crate::batch).
#[allow(clippy::too_many_arguments)]
pub(crate) fn drain_subtree_queue(
    tree: &KdTree,
    root: usize,
    queue: &[usize],
    queries: &[Point3],
    radius: f32,
    num_pes: usize,
    arbiter: &mut TreeArbiter,
    scratch: &mut DrainScratch,
    results: &mut [Vec<Neighbor>],
) -> DrainCounters {
    let r2 = radius * radius;
    let DrainScratch { pes, walks, tail } = scratch;
    walks.resize_with(num_pes.max(1), Vec::new);
    let mut source = TreeWalks { tree, root, queue: queue.iter(), queries, r2, walks, tail };
    drain_queue(&mut source, tree, num_pes, arbiter, pes, results)
}

/// The lock-step simulator of both search stages, and the one place an
/// [`Arbitration`] is acted on: drains one queue of `tree` (a batch's
/// stage-1 routes or one sub-tree queue). Idle PEs pick up the next
/// queued query (reserving room in its hit list for every hit step of
/// its walk), and every round each active PE requests the node at its
/// cursor from `arbiter` and acts on the outcome in the same pass. An
/// honored fetch (or a same-node reuse) visits the node, reading a hit's
/// point index and distance from `tree`, and moves to the next step, a
/// stalled one stays, an elided one jumps past the node's walked span
/// ([`WalkSource::elide`]), and a reuse of a node beneath it splices the
/// walk to continue there. Stall rounds come from here alone, and
/// skipped node counts from heap arithmetic.
pub(crate) fn drain_queue(
    source: &mut impl WalkSource,
    tree: &KdTree,
    num_pes: usize,
    arbiter: &mut TreeArbiter,
    pes: &mut Vec<Option<Cursor>>,
    results: &mut [Vec<Neighbor>],
) -> DrainCounters {
    let nodes = tree.len();
    let mut out = DrainCounters::default();
    pes.clear();
    pes.resize(num_pes.max(1), None);
    let mut active = 0;
    loop {
        for (i, pe) in pes.iter_mut().enumerate().filter(|(_, pe)| pe.is_none()) {
            let Some(cursor) = source.pick_up(i) else { break };
            let walk = &source.steps(i)[cursor.at..cursor.end];
            results[cursor.query].reserve(walk.iter().filter(|step| step.is_hit()).count());
            *pe = Some(cursor);
            active += 1;
        }
        if active == 0 {
            return out;
        }
        if active == 1 {
            // a lone requester wins every round until its walk ends (no
            // PE can be refilled before then: either there is one PE or
            // the queue is empty), so its rounds need no arbitration
            let i = pes.iter().position(Option::is_some).expect("one PE is active");
            let cursor = pes[i].take().expect("one PE is active");
            let rest = &source.steps(i)[cursor.at..cursor.end];
            out.rounds += rest.len();
            out.attempts += rest.len();
            out.visits += rest.len();
            arbiter.grant_uncontended(rest.len());
            results[cursor.query].extend(rest.iter().filter_map(|step| step.hit(tree, cursor.q)));
            active = 0;
            continue;
        }
        out.rounds += 1;
        arbiter.begin_round();
        let mut round_stalled = false;
        for (i, pe) in pes.iter_mut().enumerate() {
            let Some(cursor) = pe else { continue };
            let step = source.steps(i)[cursor.at];
            let node = step.node();
            out.attempts += 1;
            let visit = match arbiter.request(i, node) {
                Arbitration::Honored => true,
                Arbitration::Stalled => {
                    out.conflicts += 1;
                    out.stalls += 1;
                    round_stalled = true;
                    false
                }
                Arbitration::Elided => {
                    // drop the node and its walked subtree
                    out.conflicts += 1;
                    out.elided += 1;
                    out.skipped += heap_subtree_len(nodes, node);
                    source.elide(cursor, step);
                    false
                }
                Arbitration::Reused(w) => {
                    out.conflicts += 1;
                    out.reuses += 1;
                    // same node: the multicast data is exactly what this
                    // PE asked for; otherwise continue beneath the winner
                    // and skip the bypassed part of the lost subtree
                    let same = w == node;
                    if !same {
                        out.skipped += heap_subtree_len(nodes, node) - heap_subtree_len(nodes, w);
                        source.splice(i, cursor, w);
                    }
                    same
                }
            };
            if visit {
                out.visits += 1;
                if let Some(n) = step.hit(tree, cursor.q) {
                    results[cursor.query].push(n);
                }
                cursor.at += 1;
            }
            if cursor.at == cursor.end {
                *pe = None;
                active -= 1;
            }
        }
        if round_stalled {
            out.stall_rounds += 1;
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Arbitration {
    Honored,
    Stalled,
    Elided,
    /// Conflict elided, but the winner's node is beneath the requested
    /// node: continue the traversal from the carried slot (Sec 4.2
    /// future-work refinement).
    Reused(usize),
}

/// Configuration of [`SplitTree::batch_search`].
#[derive(Clone, Copy, Debug)]
pub struct SplitSearchConfig {
    /// Search radius.
    pub radius: f32,
    /// Cap on returned neighbors per query (None = unbounded).
    pub max_neighbors: Option<usize>,
    /// Number of PEs searching in lock-step (paper: 4; Fig 4 uses 8).
    pub num_pes: usize,
    /// Bank-conflict model; `None` disables conflict modeling (pure ANS).
    pub elision: Option<ElisionConfig>,
}

impl Default for SplitSearchConfig {
    fn default() -> Self {
        SplitSearchConfig { radius: 0.2, max_neighbors: Some(32), num_pes: 4, elision: None }
    }
}

/// Bank-conflict elision parameters (Sec 4.4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ElisionConfig {
    /// Tree level at and below which conflicted fetches are dropped
    /// (`h_e`). Conflicts above this level stall instead.
    pub elision_height: usize,
    /// Number of tree-buffer banks (low-order interleaved).
    pub num_banks: usize,
    /// Descendant-reuse refinement — the optimization Sec 4.2 leaves as
    /// future work: when the winning request's node lies *beneath* the
    /// losing request's node in the tree, the loser continues its
    /// traversal from the winner's node instead of dropping its whole
    /// subtree. Fewer nodes are skipped (higher accuracy) at no extra
    /// hardware cost beyond an ancestor check on the two indices.
    pub descendant_reuse: bool,
}

impl ElisionConfig {
    /// The paper's elision scheme: conflicted fetches at level ≥ `h_e`
    /// are dropped outright.
    pub fn new(elision_height: usize, num_banks: usize) -> Self {
        ElisionConfig { elision_height, num_banks, descendant_reuse: false }
    }

    /// Elision with the Sec 4.2 future-work descendant-reuse refinement.
    pub fn with_descendant_reuse(elision_height: usize, num_banks: usize) -> Self {
        ElisionConfig { elision_height, num_banks, descendant_reuse: true }
    }
}

/// Whether heap slot `ancestor` is a (strict or equal) ancestor of `node`.
#[inline]
fn is_ancestor(ancestor: usize, node: usize) -> bool {
    let la = usize::BITS - (ancestor + 1).leading_zeros();
    let ln = usize::BITS - (node + 1).leading_zeros();
    ln >= la && ((node + 1) >> (ln - la)) == ancestor + 1
}

/// Statistics of a [`SplitTree::batch_search`] run: the arbitration
/// counters of each stage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SplitSearchStats {
    /// Stage 1: the lock-step top-tree descent.
    pub top: DrainCounters,
    /// Stage 2: the sub-tree queue drains.
    pub subtree: DrainCounters,
}

impl SplitSearchStats {
    /// Both stages together (the engine's rounds, visits and conflicts).
    pub fn total(&self) -> DrainCounters {
        let mut t = self.top;
        t += self.subtree;
        t
    }
}

impl std::ops::AddAssign for SplitSearchStats {
    /// Adds another run's counters (a pipeline sums its layers' searches).
    fn add_assign(&mut self, o: SplitSearchStats) {
        self.top += o.top;
        self.subtree += o.subtree;
    }
}

/// Orders one query's hits nearest first and keeps the `max_neighbors`
/// nearest (all of them for `None`); equal distances keep their arrival
/// order. `keys` is scratch the caller's loop recycles.
///
/// Every hit passed a `d2 <= r2` filter, so its distance is neither NaN
/// nor −0.0, and a non-negative float orders like its bit pattern: the
/// key `(d².to_bits() << 32) | arrival` sorts exactly as a stable sort by
/// distance. Hits carry distinct point indices (each tree node holds a
/// distinct point, and a query visits a node at most once), so there is
/// nothing to deduplicate. Only the `k` nearest keys are selected and
/// sorted, and each sorted key then swaps its arrival for its hit's point
/// index (below 2³⁰, the tree's meta limit) to rebuild the list in place.
pub(crate) fn finalize(
    hits: &mut Vec<Neighbor>,
    max_neighbors: Option<usize>,
    keys: &mut Vec<u64>,
) {
    debug_assert!(
        hits.iter().all(|n| n.dist2.to_bits() <= f32::INFINITY.to_bits()),
        "hits are in-radius: no NaN or negative distance"
    );
    debug_assert!(distinct_indices(hits), "a query's hits name distinct points");
    let k = max_neighbors.map_or(hits.len(), |k| k.min(hits.len()));
    if hits.len() <= 1 || k == 0 {
        hits.truncate(k);
        return;
    }
    const LOW: u64 = u32::MAX as u64;
    debug_assert!(hits.len() as u64 <= LOW);
    keys.clear();
    keys.extend(
        hits.iter()
            .enumerate()
            .map(|(arrival, n)| (u64::from(n.dist2.to_bits()) << 32) | arrival as u64),
    );
    if k < keys.len() {
        keys.select_nth_unstable(k - 1);
        keys.truncate(k);
    }
    keys.sort_unstable();
    for key in keys.iter_mut() {
        let index = hits[(*key & LOW) as usize].index;
        debug_assert!(index as u64 <= LOW);
        *key = (*key & !LOW) | index as u64;
    }
    hits.clear();
    hits.extend(keys.iter().map(|&key| Neighbor {
        index: (key & LOW) as usize,
        dist2: f32::from_bits((key >> 32) as u32),
    }));
}

/// Whether no two hits name the same point (the [`finalize`] premise).
fn distinct_indices(hits: &[Neighbor]) -> bool {
    let mut indices: Vec<usize> = hits.iter().map(|n| n.index).collect();
    indices.sort_unstable();
    indices.windows(2).all(|w| w[0] != w[1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::radius_search;
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

    #[test]
    fn new_rejects_oversized_top() {
        let cloud = random_cloud(100, 1); // height 7
        let tree = KdTree::build(&cloud);
        assert!(SplitTree::new(&tree, 6).is_ok());
        let err = SplitTree::new(&tree, 7).unwrap_err();
        assert!(matches!(err, SplitTreeError::TopHeightTooLarge { .. }));
        assert!(err.to_string().contains("height 7"));
        // the clamp grants the tallest valid split, and 0 on an empty tree
        assert_eq!(tree.clamp_top_height(7), 6);
        assert_eq!(tree.clamp_top_height(3), 3);
        assert_eq!(KdTree::build(&PointCloud::new()).clamp_top_height(5), 0);
    }

    #[test]
    fn zero_top_height_is_exact() {
        let cloud = random_cloud(200, 2);
        let tree = KdTree::build(&cloud);
        let split = SplitTree::new(&tree, 0).unwrap();
        assert_eq!(split.num_subtrees(), 1);
        for &q in &random_queries(20, 3) {
            let mut got: Vec<usize> =
                split.search_one(q, 0.4, None).iter().map(|n| n.index).collect();
            let mut want: Vec<usize> =
                radius_search(&tree, q, 0.4, None).iter().map(|n| n.index).collect();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn split_counts_partition_tree() {
        let cloud = random_cloud(1000, 4);
        let tree = KdTree::build(&cloud);
        for ht in 1..5 {
            let split = SplitTree::new(&tree, ht).unwrap();
            let total: usize =
                (0..split.num_subtrees()).map(|s| split.subtree_len(s)).sum::<usize>()
                    + split.top_len();
            assert_eq!(total, 1000, "ht = {ht}");
        }
    }

    #[test]
    fn approximate_results_subset_of_exact() {
        // approximate search may miss neighbors (cross-sub-tree) but must
        // never invent one
        let cloud = random_cloud(500, 5);
        let tree = KdTree::build(&cloud);
        let split = SplitTree::new(&tree, 3).unwrap();
        for &q in &random_queries(30, 6) {
            let approx: Vec<usize> =
                split.search_one(q, 0.3, None).iter().map(|n| n.index).collect();
            let exact: Vec<usize> =
                radius_search(&tree, q, 0.3, None).iter().map(|n| n.index).collect();
            for idx in &approx {
                assert!(exact.contains(idx), "approx returned non-neighbor {idx}");
            }
        }
    }

    #[test]
    fn higher_top_tree_visits_fewer_nodes() {
        // Fig 8: nodes visited per query decreases with h_t
        let cloud = random_cloud(4096, 7);
        let tree = KdTree::build(&cloud);
        let queries = random_queries(64, 8);
        let mut prev = usize::MAX;
        for ht in [0usize, 2, 4, 6, 8] {
            let split = SplitTree::new(&tree, ht).unwrap();
            let mut visits = 0usize;
            for &q in &queries {
                split.search_one_traced(q, 0.25, None, &mut |_| visits += 1);
            }
            assert!(visits <= prev, "ht {ht}: visits {visits} > prev {prev}");
            prev = visits;
        }
    }

    #[test]
    fn batch_matches_search_one_without_elision() {
        let cloud = random_cloud(300, 9);
        let tree = KdTree::build(&cloud);
        let split = SplitTree::new(&tree, 2).unwrap();
        let queries = random_queries(40, 10);
        let cfg =
            SplitSearchConfig { radius: 0.35, max_neighbors: Some(16), num_pes: 4, elision: None };
        let (batch, stats) = split.batch_search(&queries, &cfg);
        for (qi, &q) in queries.iter().enumerate() {
            let single = split.search_one(q, 0.35, Some(16));
            let a: Vec<usize> = batch[qi].iter().map(|n| n.index).collect();
            let b: Vec<usize> = single.iter().map(|n| n.index).collect();
            assert_eq!(a, b, "query {qi}");
        }
        assert_eq!(stats.total().elided, 0);
        assert_eq!(stats.total().conflicts, 0);
        assert!(stats.total().visits > 0);
    }

    #[test]
    fn elision_skips_nodes_and_subsets_results() {
        let cloud = random_cloud(2048, 11);
        let tree = KdTree::build(&cloud);
        let split = SplitTree::new(&tree, 2).unwrap();
        let queries = random_queries(64, 12);
        let exact_cfg =
            SplitSearchConfig { radius: 0.3, max_neighbors: None, num_pes: 8, elision: None };
        let elide_cfg = SplitSearchConfig {
            elision: Some(ElisionConfig {
                elision_height: 4,
                num_banks: 4,
                descendant_reuse: false,
            }),
            ..exact_cfg
        };
        let (full, _) = split.batch_search(&queries, &exact_cfg);
        let (approx, stats) = split.batch_search(&queries, &elide_cfg);
        let total = stats.total();
        assert!(total.elided > 0, "aggressive elision must drop nodes");
        assert!(total.conflicts >= total.elided);
        let full_count: usize = full.iter().map(Vec::len).sum();
        let approx_count: usize = approx.iter().map(Vec::len).sum();
        assert!(approx_count <= full_count);
        for (a, f) in approx.iter().zip(&full) {
            let fset: Vec<usize> = f.iter().map(|n| n.index).collect();
            for n in a {
                assert!(fset.contains(&n.index));
            }
        }
    }

    #[test]
    fn elision_monotone_in_height() {
        // Fig 9: raising h_e (eliding deeper only) skips fewer nodes
        let cloud = random_cloud(4096, 13);
        let tree = KdTree::build(&cloud);
        let split = SplitTree::new(&tree, 2).unwrap();
        let queries = random_queries(64, 14);
        let mut prev_skipped = usize::MAX;
        for he in [2usize, 5, 8, 11] {
            let cfg = SplitSearchConfig {
                radius: 0.3,
                max_neighbors: None,
                num_pes: 8,
                elision: Some(ElisionConfig {
                    elision_height: he,
                    num_banks: 4,
                    descendant_reuse: false,
                }),
            };
            let stats = split.batch_search(&queries, &cfg).1.total();
            // eliding only deeper in the tree makes each drop cheaper;
            // allow small slack for arbitration dynamics
            assert!(
                stats.skipped <= prev_skipped.saturating_add(prev_skipped / 10),
                "he {he}: skipped {} > prev {prev_skipped}",
                stats.skipped
            );
            assert!(stats.skipped >= stats.elided);
            prev_skipped = stats.skipped;
        }
    }

    #[test]
    fn more_banks_fewer_conflicts() {
        // Fig 4 trend
        let cloud = random_cloud(4096, 15);
        let tree = KdTree::build(&cloud);
        let split = SplitTree::new(&tree, 2).unwrap();
        let queries = random_queries(64, 16);
        let mut prev_rate = 1.1_f64;
        for banks in [2usize, 8, 32] {
            let cfg = SplitSearchConfig {
                radius: 0.3,
                max_neighbors: None,
                num_pes: 8,
                // h_e above tree height: all conflicts stall, none elided,
                // so results stay exact while conflicts are counted
                elision: Some(ElisionConfig {
                    elision_height: 64,
                    num_banks: banks,
                    descendant_reuse: false,
                }),
            };
            let (_, stats) = split.batch_search(&queries, &cfg);
            let rate = stats.total().conflict_rate();
            assert!(rate <= prev_rate + 1e-9, "banks {banks}: {rate} > {prev_rate}");
            prev_rate = rate;
        }
    }

    #[test]
    fn descendant_reuse_recovers_results() {
        // the Sec 4.2 future-work refinement: reusing the winner's data
        // when it lies beneath the lost node must (a) never invent
        // neighbors, and in aggregate (b) skip fewer nodes and (c)
        // recover more results than plain elision. (b) and (c) are
        // statistical, not per-workload, guarantees: salvaging a fetch
        // changes PE timing, so later rounds may elide *different* nodes
        // and a single workload can come out slightly behind — hence the
        // aggregate over several seeded workloads.
        let count = |rs: &[Vec<Neighbor>]| rs.iter().map(Vec::len).sum::<usize>();
        let mut total_plain = 0usize;
        let mut total_reuse = 0usize;
        let mut skipped_plain = 0usize;
        let mut skipped_reuse = 0usize;
        for seed in [31u64, 47, 61, 73, 89] {
            let cloud = random_cloud(4096, seed);
            let tree = KdTree::build(&cloud);
            let split = SplitTree::new(&tree, 2).unwrap();
            let queries = random_queries(96, seed + 1);
            let plain = SplitSearchConfig {
                radius: 0.3,
                max_neighbors: None,
                num_pes: 8,
                elision: Some(ElisionConfig::new(4, 4)),
            };
            let reuse = SplitSearchConfig {
                elision: Some(ElisionConfig::with_descendant_reuse(4, 4)),
                ..plain
            };
            let exact = SplitSearchConfig { elision: None, ..plain };
            let (full, _) = split.batch_search(&queries, &exact);
            let (r_plain, s_plain) = split.batch_search(&queries, &plain);
            let (r_reuse, s_reuse) = split.batch_search(&queries, &reuse);
            let (s_plain, s_reuse) = (s_plain.total(), s_reuse.total());
            assert!(s_plain.elided > 0, "workload must trigger elision");
            assert!(s_reuse.reuses > 0, "reuse opportunities must arise");
            assert_eq!(s_plain.reuses, 0);
            // (a) subset of exact — structural, holds per workload
            for (a, f) in r_reuse.iter().zip(&full) {
                let fidx: Vec<usize> = f.iter().map(|n| n.index).collect();
                for n in a {
                    assert!(fidx.contains(&n.index));
                }
            }
            total_plain += count(&r_plain);
            total_reuse += count(&r_reuse);
            skipped_plain += s_plain.skipped;
            skipped_reuse += s_reuse.skipped;
        }
        // (b) fewer nodes lost in aggregate
        assert!(
            skipped_reuse <= skipped_plain,
            "reuse skipped {skipped_reuse} vs plain {skipped_plain}"
        );
        // (c) more neighbors survive in aggregate
        assert!(total_reuse >= total_plain, "reuse found {total_reuse} vs plain {total_plain}");
    }

    #[test]
    fn queue_accounting_matches_the_memsim_counters() {
        // the kdtree-level statistics and the underlying BankedSram
        // counter block are two views of the same arbitration stream:
        // they must agree exactly
        let cloud = random_cloud(2048, 25);
        let tree = KdTree::build(&cloud);
        let split = SplitTree::new(&tree, 2).unwrap();
        let queries = random_queries(64, 26);
        let queue: Vec<usize> = (0..queries.len()).collect();
        let root = split.subtree_roots()[0];
        let mut results: Vec<Vec<Neighbor>> = vec![Vec::new(); queries.len()];
        let mut scratch = DrainScratch::default();
        for threshold in [usize::MAX, 8, 4] {
            let mut arbiter = TreeArbiter::banked(4, threshold, false);
            let q = drain_subtree_queue(
                &tree,
                root,
                &queue,
                &queries,
                0.3,
                8,
                &mut arbiter,
                &mut scratch,
                &mut results,
            );
            let c = arbiter.sram_counters().expect("banked arbiter carries counters");
            assert_eq!(c.rounds, q.rounds as u64, "threshold {threshold}");
            assert_eq!(c.requests, q.attempts as u64);
            assert_eq!(c.grants, q.visits as u64);
            assert_eq!(c.conflicts, q.conflicts as u64);
            assert_eq!(c.elided, (q.elided + q.reuses) as u64);
            assert_eq!(q.conflicts, q.stalls + q.elided + q.reuses);
            for r in &mut results {
                r.clear();
            }
        }
    }

    /// Today's finalizer, kept as the reference: a stable sort by
    /// distance, then `dedup_by_key` on the point index, then truncation.
    fn reference_finalize(hits: &mut Vec<Neighbor>, max_neighbors: Option<usize>) {
        hits.sort_by(|a, b| a.dist2.partial_cmp(&b.dist2).unwrap_or(std::cmp::Ordering::Equal));
        hits.dedup_by_key(|n| n.index);
        if let Some(k) = max_neighbors {
            hits.truncate(k);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// The top-k key finalizer equals the stable sort it replaced, bit
        /// for bit: quantized distances tie often, and the cap covers
        /// `None`, 0, 1 and one below and above the hit count.
        #[test]
        fn finalize_matches_the_stable_sort(
            steps in proptest::prop::collection::vec(0u8..6, 0..64),
            salt in 0usize..1009,
            cap in 0u8..5,
        ) {
            // distinct point indices, scrambled against arrival order
            let hits: Vec<Neighbor> = steps
                .iter()
                .enumerate()
                .map(|(i, &d)| Neighbor { index: (i * 37 + salt) % 1009, dist2: d as f32 * 0.25 })
                .collect();
            let max_neighbors = match cap {
                0 => None,
                1 => Some(0),
                2 => Some(1),
                3 => Some(hits.len().saturating_sub(1)),
                _ => Some(hits.len() + 1),
            };
            let mut want = hits.clone();
            reference_finalize(&mut want, max_neighbors);
            let mut got = hits;
            let mut keys = vec![7, 9];
            finalize(&mut got, max_neighbors, &mut keys);
            let bits = |v: &[Neighbor]| -> Vec<(usize, u32)> {
                v.iter().map(|n| (n.index, n.dist2.to_bits())).collect()
            };
            proptest::prop_assert_eq!(bits(&got), bits(&want));
        }
    }

    #[test]
    fn is_ancestor_heap_relation() {
        assert!(is_ancestor(0, 0));
        assert!(is_ancestor(0, 1));
        assert!(is_ancestor(0, 6));
        assert!(is_ancestor(1, 3));
        assert!(is_ancestor(1, 4));
        assert!(is_ancestor(1, 9));
        assert!(!is_ancestor(1, 2));
        assert!(!is_ancestor(1, 5));
        assert!(!is_ancestor(3, 1), "not symmetric");
        assert!(!is_ancestor(2, 3));
        assert!(is_ancestor(2, 5));
    }

    #[test]
    fn stall_only_elision_preserves_results() {
        let cloud = random_cloud(512, 17);
        let tree = KdTree::build(&cloud);
        let split = SplitTree::new(&tree, 2).unwrap();
        let queries = random_queries(32, 18);
        let base =
            SplitSearchConfig { radius: 0.4, max_neighbors: Some(8), num_pes: 8, elision: None };
        let stall_all = SplitSearchConfig {
            elision: Some(ElisionConfig {
                elision_height: usize::MAX,
                num_banks: 2,
                descendant_reuse: false,
            }),
            ..base
        };
        let (a, _) = split.batch_search(&queries, &base);
        let (b, stats) = split.batch_search(&queries, &stall_all);
        assert_eq!(stats.total().elided, 0);
        assert!(stats.total().stalls > 0);
        for (x, y) in a.iter().zip(&b) {
            let xi: Vec<usize> = x.iter().map(|n| n.index).collect();
            let yi: Vec<usize> = y.iter().map(|n| n.index).collect();
            assert_eq!(xi, yi);
        }
    }

    #[test]
    fn stats_accounting_consistent() {
        let cloud = random_cloud(1024, 19);
        let tree = KdTree::build(&cloud);
        let split = SplitTree::new(&tree, 3).unwrap();
        let queries = random_queries(48, 20);
        let cfg = SplitSearchConfig {
            radius: 0.3,
            max_neighbors: None,
            num_pes: 8,
            elision: Some(ElisionConfig {
                elision_height: 6,
                num_banks: 4,
                descendant_reuse: false,
            }),
        };
        let (_, s) = split.batch_search(&queries, &cfg);
        assert!(s.top.visits > 0 && s.subtree.visits > 0);
        for c in [s.top, s.subtree, s.total()] {
            assert_eq!(c.conflicts, c.stalls + c.elided);
            assert_eq!(
                c.attempts,
                c.visits + c.conflicts,
                "every attempt visits, stalls, or elides"
            );
            assert!(c.stall_rounds <= c.rounds);
        }
    }

    #[test]
    fn stage1_same_node_reuse_visits_and_advances() {
        // two PEs on one bank with every level elidable and reuse on: two
        // identical queries request the same top-tree node every round,
        // the loser reuses the winner's fetch of it, and both descend in
        // lock step — each visits every top-tree node on its path once
        let cloud = random_cloud(255, 27);
        let tree = KdTree::build(&cloud);
        let split = SplitTree::new(&tree, 3).unwrap();
        let q = cloud.point(17);
        let cfg = SplitSearchConfig {
            radius: 2.0,
            max_neighbors: None,
            num_pes: 2,
            elision: Some(ElisionConfig::with_descendant_reuse(0, 1)),
        };
        let (res, stats) = split.batch_search(&[q, q], &cfg);
        let top = stats.top;
        assert_eq!(top.rounds, 3, "one round per top-tree level");
        assert_eq!(top.attempts, 6);
        assert_eq!((top.conflicts, top.reuses), (3, 3), "the loser reuses every round");
        assert_eq!(top.visits, 6, "a same-node reuse visits the node");
        assert_eq!((top.stalls, top.elided, top.skipped), (0, 0, 0));
        assert_eq!(res[0], res[1], "both queries see the same nodes");
    }

    #[test]
    fn empty_inputs() {
        let tree = KdTree::build(&PointCloud::new());
        let split = SplitTree::new(&tree, 0).unwrap();
        let (res, stats) = split.batch_search(&[], &SplitSearchConfig::default());
        assert!(res.is_empty());
        assert_eq!(stats, SplitSearchStats::default());
        assert!(split.search_one(Point3::ZERO, 1.0, None).is_empty());
    }

    #[test]
    fn resplit_reuses_a_matching_root_table() {
        let cloud = random_cloud(500, 21);
        let tree = KdTree::build(&cloud);
        let split = SplitTree::new(&tree, 3).unwrap();
        let roots_before = split.subtree_roots().to_vec();
        let recovered = split.into_subtree_roots();
        let again = SplitTree::resplit(&tree, 3, recovered).unwrap();
        assert_eq!(again.subtree_roots(), roots_before.as_slice());
        // and the resplit view searches identically
        for &q in &random_queries(8, 22) {
            assert_eq!(
                again.search_one(q, 0.3, Some(8)),
                SplitTree::new(&tree, 3).unwrap().search_one(q, 0.3, Some(8))
            );
        }
    }

    #[test]
    fn resplit_recomputes_on_mismatch() {
        let big = KdTree::build(&random_cloud(500, 23));
        let small = KdTree::build(&random_cloud(40, 24));
        let stale = SplitTree::new(&big, 3).unwrap().into_subtree_roots();
        // same allocation, different tree and height: must recompute
        let split = SplitTree::resplit(&small, 2, stale).unwrap();
        assert_eq!(split.subtree_roots(), small.subtree_roots(2).as_slice());
        // an oversized top height errors exactly like `new`
        let err = SplitTree::resplit(&small, 40, Vec::new()).unwrap_err();
        assert!(matches!(err, SplitTreeError::TopHeightTooLarge { .. }));
        // empty tree: empty root table, no panic
        let empty = KdTree::build(&PointCloud::new());
        let split = SplitTree::resplit(&empty, 0, vec![99, 100]).unwrap();
        assert!(split.subtree_roots().is_empty());
    }
}
