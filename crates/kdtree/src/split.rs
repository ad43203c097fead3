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

use serde::{Deserialize, Serialize};

use crescent_memsim::{BankedSram, PortOutcome, SramConfig};
use crescent_pointcloud::{Neighbor, Point3};

use crate::tree::{KdTree, NODE_BYTES};

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

    /// Stage 1 for a single query: descends the top tree (no backtracking)
    /// and returns the sub-tree index the query is assigned to, reporting
    /// candidate neighbors found among the top-tree nodes to `hits` and
    /// each node fetch to `on_fetch`.
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

    pub(crate) fn nearest_subtree_for(&self, idx: usize) -> usize {
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
        let root = self.subtree_roots[s];
        subtree_radius_search(self.tree, root, query, radius, &mut hits, on_fetch);
        finalize(&mut hits, max_neighbors);
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

    /// Stage-1 routing for a whole batch: returns the sub-tree assignment
    /// of each query (usable for DRAM-traffic accounting) without running
    /// stage 2.
    pub fn assign_queries(&self, queries: &[Point3], radius: f32) -> Vec<Option<usize>> {
        queries
            .iter()
            .map(|&q| {
                let mut hits = Vec::new();
                self.route_query(q, radius, &mut hits, &mut |_| {})
            })
            .collect()
    }

    /// Batch two-stage search with the lock-step PE / banked-tree-buffer
    /// model, implementing selective bank-conflict elision (Sec 4).
    ///
    /// Queries are routed in stage 1, grouped per sub-tree, and each
    /// sub-tree's queue is processed `config.num_pes` queries at a time.
    /// Every simulated cycle, each active PE issues a fetch for its
    /// stack-top node; fetches that lose bank arbitration either **stall**
    /// (node level < `h_e`) or are **elided** (level ≥ `h_e`), skipping the
    /// node and the whole subtree beneath it.
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

        // ---- stage 1: top-tree descent (lock-step, conflicts modeled) ----
        let assignments =
            self.run_top_stage(queries, config, &mut arbiter, &mut results, &mut stats.top);

        // ---- group queries per sub-tree, preserving arrival order ----
        // (a query whose routing fetch was elided has no sub-tree)
        let mut queues: Vec<Vec<usize>> = vec![Vec::new(); self.num_subtrees()];
        for (qi, a) in assignments.iter().enumerate() {
            if let Some(s) = a {
                queues[*s].push(qi);
            }
        }

        // ---- stage 2: per-sub-tree confined search ----
        let mut scratch = DrainScratch::default();
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

        for hits in &mut results {
            finalize(hits, config.max_neighbors);
        }
        (results, stats)
    }

    /// Stage-1 simulation: PEs pull queries from the head of the batch as
    /// they go idle (each PE executes queries independently, Fig 7) and
    /// descend the top tree cycle by cycle. Returns each query's sub-tree.
    fn run_top_stage(
        &self,
        queries: &[Point3],
        config: &SplitSearchConfig,
        arbiter: &mut TreeArbiter,
        results: &mut [Vec<Neighbor>],
        stats: &mut DrainCounters,
    ) -> Vec<Option<usize>> {
        let r2 = config.radius * config.radius;
        let mut assignments: Vec<Option<usize>> = vec![None; queries.len()];
        if self.top_height == 0 {
            for a in assignments.iter_mut() {
                *a = Some(0);
            }
            return assignments;
        }
        let num_pes = config.num_pes.max(1);
        let mut next_query = 0usize;
        // per-PE (query index, cursor); None = idle
        let mut pe_state: Vec<Option<(usize, usize)>> = vec![None; num_pes];
        // per-round request scratch, reused across rounds
        let mut requests: Vec<Option<usize>> = Vec::with_capacity(num_pes);
        loop {
            // issue new queries to idle PEs
            for slot in pe_state.iter_mut() {
                if slot.is_none() && next_query < queries.len() {
                    *slot = Some((next_query, 0));
                    next_query += 1;
                }
            }
            if pe_state.iter().all(Option::is_none) {
                break;
            }
            stats.rounds += 1;
            let mut round_stalled = false;
            requests.clear();
            requests.extend(pe_state.iter().map(|s| s.map(|(_, idx)| idx)));
            let honored = arbiter.arbitrate(self.tree, &requests);
            for (pe, slot) in pe_state.iter_mut().enumerate() {
                let Some((qi, idx)) = *slot else { continue };
                stats.attempts += 1;
                if honored[pe] != Arbitration::Honored {
                    stats.conflicts += 1;
                }
                let visit = match honored[pe] {
                    Arbitration::Honored => true,
                    Arbitration::Reused(w) => {
                        stats.reuses += 1;
                        if w == idx {
                            // same node: the multicast data is exactly
                            // what this PE asked for
                            true
                        } else {
                            // continue routing from the winner's (top-tree)
                            // node — routing stays on a valid downward path
                            stats.skipped += self.tree.subtree_len(idx) - self.tree.subtree_len(w);
                            if self.tree.level_of(w) >= self.top_height {
                                assignments[qi] = Some(w - self.subtree_roots[0]);
                                *slot = None;
                            } else {
                                *slot = Some((qi, w));
                            }
                            false
                        }
                    }
                    Arbitration::Stalled => {
                        stats.stalls += 1; // retry next round
                        round_stalled = true;
                        false
                    }
                    Arbitration::Elided => {
                        // routing fetch lost and dropped: the query never
                        // reaches a sub-tree
                        stats.elided += 1;
                        stats.skipped += self.tree.subtree_len(idx);
                        *slot = None;
                        false
                    }
                };
                if visit {
                    stats.visits += 1;
                    let point = self.tree.point_of(idx);
                    let q = queries[qi];
                    let d2 = point.dist2(q);
                    if d2 <= r2 {
                        results[qi]
                            .push(Neighbor { index: self.tree.point_index_of(idx), dist2: d2 });
                    }
                    let axis = self.tree.axis_of(idx);
                    let next = if q.coord(axis) - point.coord(axis) <= 0.0 {
                        self.tree.left(idx)
                    } else {
                        self.tree.right(idx)
                    };
                    match next {
                        Some(n) if self.tree.level_of(n) >= self.top_height => {
                            assignments[qi] = Some(n - self.subtree_roots[0]);
                            *slot = None;
                        }
                        Some(n) => *slot = Some((qi, n)),
                        None => {
                            assignments[qi] = Some(self.nearest_subtree_for(idx));
                            *slot = None;
                        }
                    }
                }
            }
            if round_stalled {
                stats.stall_rounds += 1;
            }
        }
        assignments
    }
}

/// The lock-step tree-buffer arbiter shared by *every* timing path that
/// fetches tree nodes — the per-query engine model
/// ([`SplitTree::batch_search`]) and the streaming wavefront
/// ([`SplitTree::search_batch`](crate::batch)) route their node fetches
/// through this one implementation, so "one unified timing model" is a
/// structural property, not a testing aspiration.
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
    /// Per-round outcome scratch, reused so the innermost simulation
    /// loop does not allocate (one arbitration round per simulated
    /// cycle).
    outcomes: Vec<Arbitration>,
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
                outcomes: Vec::new(),
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
            outcomes: Vec::new(),
        }
    }

    /// The underlying [`BankedSram`] counter block (cumulative across
    /// every round this arbiter ran), if banked — the cross-check handle
    /// tests use to tie the kdtree-level statistics to the memsim model.
    #[cfg(test)]
    pub(crate) fn sram_counters(&self) -> Option<crescent_memsim::SramCounters> {
        self.sram.as_ref().map(|s| *s.counters())
    }

    /// Arbitrates one lock-step round. `requests[pe]` is the node each PE
    /// wants to fetch (`None` = idle port). The returned slice lives in a
    /// buffer the arbiter recycles round to round, so the per-cycle inner
    /// loop performs no allocation.
    pub(crate) fn arbitrate(
        &mut self,
        tree: &KdTree,
        requests: &[Option<usize>],
    ) -> &[Arbitration] {
        self.outcomes.clear();
        let Some(sram) = &mut self.sram else {
            // ideal SRAM: every request is honored (idle slots carry a
            // placeholder the callers never read)
            self.outcomes.extend(requests.iter().map(|r| {
                if r.is_some() {
                    Arbitration::Honored
                } else {
                    Arbitration::Stalled
                }
            }));
            return &self.outcomes;
        };
        debug_assert!(requests
            .iter()
            .flatten()
            .all(|&idx| { (idx >= self.min_elide_idx) == (tree.level_of(idx) >= self.threshold) }));
        // single pass: the memsim round delivers each port's outcome (and
        // its bank's winner, already final under first-come arbitration)
        // through a sink, and the tree-shaped policy resolves it in
        // place. Addresses and eligibility are computed per port instead
        // of materialized — this call runs once per simulated cycle.
        let min_elide_idx = self.min_elide_idx;
        let reuse = self.reuse;
        let outcomes = &mut self.outcomes;
        sram.arbitrate_fold(
            requests.len(),
            |pe| requests[pe].map(|idx| (idx * NODE_BYTES) as u64),
            |pe| requests[pe].is_some_and(|idx| idx >= min_elide_idx),
            |pe, outcome, winner| {
                let arb = match requests[pe] {
                    None => Arbitration::Stalled,
                    Some(idx) => match outcome {
                        PortOutcome::Granted => Arbitration::Honored,
                        PortOutcome::Conflict => Arbitration::Stalled,
                        // without descendant reuse an elided fetch is
                        // simply dropped — no need to look up whose data
                        // the bank multicast
                        PortOutcome::Elided if !reuse => Arbitration::Elided,
                        PortOutcome::Elided => {
                            let winner_port = winner.expect("a lost bank has a winner");
                            let winner_node =
                                requests[winner_port].expect("winners requested a node");
                            if is_ancestor(idx, winner_node) {
                                // the winner's data lies beneath the lost
                                // node: continuing from it terminates and
                                // skips fewer nodes (Sec 4.2 refinement)
                                Arbitration::Reused(winner_node)
                            } else {
                                Arbitration::Elided
                            }
                        }
                    },
                };
                outcomes.push(arb);
            },
        );
        &self.outcomes
    }
}

/// The lock-step arbitration counters of one search stage — the one
/// record both drivers keep them in. The shared stage-2 drain returns one
/// per sub-tree queue; [`SplitTree::batch_search`] keeps a stage-1 and a
/// stage-2 block ([`SplitSearchStats`]), and the wavefront
/// [`SplitTree::search_batch`](crate::batch) keeps a stage-2 block
/// ([`BatchSearchStats::subtree`](crate::BatchSearchStats)). Fed the same
/// queues, the two drivers' stage-2 blocks are equal as whole records
/// (tested in `tests/elision_unified.rs`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
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

/// Reusable scratch of [`drain_subtree_queue`]: the per-PE traversal
/// stacks and per-round request snapshot. Owned by the caller and reused
/// across sub-tree queues — and, via
/// [`BatchState`](crate::BatchState), across the frames of a stream — so
/// the stage-2 inner loop performs no steady-state allocation.
#[derive(Debug, Default)]
pub(crate) struct DrainScratch {
    pe_query: Vec<Option<usize>>,
    stacks: Vec<Vec<usize>>,
    tops: Vec<Option<usize>>,
}

impl DrainScratch {
    /// Empties the scratch for a new queue while keeping the per-PE stack
    /// allocations alive.
    fn reset(&mut self, num_pes: usize) {
        self.pe_query.clear();
        self.pe_query.resize(num_pes, None);
        for s in &mut self.stacks {
            s.clear();
        }
        self.stacks.resize_with(num_pes, Vec::new);
        self.tops.clear();
    }
}

/// Drains one sub-tree's query queue in lock-step: idle PEs pull the next
/// queued query and traverse independently (own stack), every simulated
/// cycle each active PE issues its stack-top node to `arbiter`, and
/// losing fetches stall, elide, or reuse per the arbiter's policy.
///
/// This is THE stage-2 simulation — [`SplitTree::batch_search`] and the
/// banked [`SplitTree::search_batch`](crate::batch) both call it, which
/// is what makes their conflict/round accounting identical whenever they
/// are handed identical queues (property-tested in
/// `tests/elision_unified.rs`).
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
    let mut out = DrainCounters::default();
    if queue.is_empty() {
        return out;
    }
    let r2 = radius * radius;
    let num_pes = num_pes.max(1);
    let mut next = 0usize;
    scratch.reset(num_pes);
    let DrainScratch { pe_query, stacks, tops } = scratch;
    loop {
        for (slot, stack) in pe_query.iter_mut().zip(stacks.iter_mut()) {
            if slot.is_none() && next < queue.len() {
                *slot = Some(queue[next]);
                next += 1;
                stack.push(root);
            }
        }
        if pe_query.iter().all(Option::is_none) {
            break;
        }
        out.rounds += 1;
        let mut round_stalled = false;
        tops.clear();
        tops.extend(stacks.iter().map(|s| s.last().copied()));
        let honored = arbiter.arbitrate(tree, tops);
        for pe in 0..num_pes {
            let Some(qi) = pe_query[pe] else { continue };
            let Some(idx) = tops[pe] else { continue };
            out.attempts += 1;
            if honored[pe] != Arbitration::Honored {
                out.conflicts += 1;
            }
            let mut visit: Option<usize> = None;
            match honored[pe] {
                Arbitration::Honored => {
                    stacks[pe].pop();
                    visit = Some(idx);
                }
                Arbitration::Reused(w) => {
                    stacks[pe].pop();
                    out.reuses += 1;
                    if w == idx {
                        // same node: the multicast data is exactly
                        // what this PE asked for
                        visit = Some(idx);
                    } else {
                        // continue beneath the winner; the bypassed
                        // part of this subtree is skipped
                        out.skipped += tree.subtree_len(idx) - tree.subtree_len(w);
                        stacks[pe].push(w);
                    }
                }
                Arbitration::Stalled => {
                    // keep stack top, retry next round
                    out.stalls += 1;
                    round_stalled = true;
                }
                Arbitration::Elided => {
                    // drop the node and everything beneath it
                    stacks[pe].pop();
                    out.elided += 1;
                    out.skipped += tree.subtree_len(idx);
                }
            }
            if let Some(idx) = visit {
                out.visits += 1;
                let point = tree.point_of(idx);
                let q = queries[qi];
                let d2 = point.dist2(q);
                if d2 <= r2 {
                    results[qi].push(Neighbor { index: tree.point_index_of(idx), dist2: d2 });
                }
                let axis = tree.axis_of(idx);
                let delta = q.coord(axis) - point.coord(axis);
                let (near, far) = if delta <= 0.0 {
                    (tree.left(idx), tree.right(idx))
                } else {
                    (tree.right(idx), tree.left(idx))
                };
                if delta * delta <= r2 {
                    if let Some(f) = far {
                        stacks[pe].push(f);
                    }
                }
                if let Some(n) = near {
                    stacks[pe].push(n);
                }
            }
            if stacks[pe].is_empty() {
                pe_query[pe] = None;
            }
        }
        if round_stalled {
            out.stall_rounds += 1;
        }
    }
    out
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
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
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
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
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
    #[serde(default)]
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
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
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

/// Exact radius search confined to the sub-tree rooted at `root`,
/// appending to `hits`.
pub fn subtree_radius_search(
    tree: &KdTree,
    root: usize,
    query: Point3,
    radius: f32,
    hits: &mut Vec<Neighbor>,
    on_fetch: &mut dyn FnMut(usize),
) {
    let r2 = radius * radius;
    let mut stack = vec![root];
    while let Some(idx) = stack.pop() {
        on_fetch(idx);
        let point = tree.point_of(idx);
        let d2 = point.dist2(query);
        if d2 <= r2 {
            hits.push(Neighbor { index: tree.point_index_of(idx), dist2: d2 });
        }
        let axis = tree.axis_of(idx);
        let delta = query.coord(axis) - point.coord(axis);
        let (near, far) = if delta <= 0.0 {
            (tree.left(idx), tree.right(idx))
        } else {
            (tree.right(idx), tree.left(idx))
        };
        if delta * delta <= r2 {
            if let Some(f) = far {
                stack.push(f);
            }
        }
        if let Some(n) = near {
            stack.push(n);
        }
    }
}

pub(crate) fn finalize(hits: &mut Vec<Neighbor>, max_neighbors: Option<usize>) {
    hits.sort_by(|a, b| a.dist2.partial_cmp(&b.dist2).unwrap_or(std::cmp::Ordering::Equal));
    hits.dedup_by_key(|n| n.index);
    if let Some(k) = max_neighbors {
        hits.truncate(k);
    }
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
