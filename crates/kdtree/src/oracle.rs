//! A reference model of the lock-step search engine, for tests only.
//!
//! [`reference_drain`] simulates one sub-tree queue in lock step the
//! plain way: each PE owns its query and its stack, each round builds a
//! bank → first-PE table ([`arbitrate`]), a loser's elision eligibility
//! is its node's level (walked up to the root) against the threshold,
//! and descendant reuse walks the winner's node up to the loser's.
//! [`reference_top_stage`] runs stage 1 of the per-query engine on the
//! same table with a per-PE routing cursor, and [`reference_engine`]
//! chains the two like `SplitTree::batch_search`. There is no
//! `BankedSram`, no recycled scratch, no recorded walks and no
//! `min_elide_idx` index shortcut, so the proptests below check the one
//! drain — over stage-1 routes (`batch_search`), from the tree
//! (`drain_subtree_queue`) and in place from a segment trace
//! (`SplitTree::replay_segments`), descendant reuse splicing walks in
//! each — against an independent statement of the arbitration rule.
//! Another proptest checks the wavefront's stage 1 (the config-free
//! [`BatchSearchStats`] fields and the top-tree hits), live and replayed
//! from a [`SegmentTrace`], against per-query routing with
//! `SplitTree::route_query`, and a last one holds a wavefront replayed
//! from several segments' traces to the live `SplitTree::search_batch`.
//!
//! Each proptest runs 384 cases, or `PROPTEST_CASES` when it is set (CI
//! runs them deeper that way).

use std::collections::BTreeSet;

use crescent_pointcloud::{Neighbor, Point3, PointCloud, POINT_BYTES};
use proptest::prelude::*;

use crate::batch::{BatchSearchConfig, BatchSearchStats, BatchState, SegmentTrace};
use crate::split::{
    drain_subtree_queue, finalize, DrainCounters, DrainScratch, ElisionConfig, SplitSearchConfig,
    SplitSearchStats, SplitTree, TreeArbiter,
};
use crate::tree::{KdTree, NODE_BYTES};

/// What happened to one PE's fetch in a round.
#[derive(Clone, Copy)]
enum Fetch {
    Granted,
    Stalled,
    Elided,
    /// Continue from the winner's node (the loser's node or beneath it).
    Reused(usize),
}

/// Heap level of `idx`, counted by walking parents up to the root.
fn level(mut idx: usize) -> usize {
    let mut l = 0;
    while idx > 0 {
        idx = (idx - 1) / 2;
        l += 1;
    }
    l
}

/// Whether `node` is `ancestor` or lies beneath it.
fn beneath(mut node: usize, ancestor: usize) -> bool {
    while node > ancestor {
        node = (node - 1) / 2;
    }
    node == ancestor
}

/// Nodes in the subtree rooted at `idx`, counted one by one.
fn count_nodes(tree: &KdTree, idx: usize) -> usize {
    1 + tree.left(idx).map_or(0, |l| count_nodes(tree, l))
        + tree.right(idx).map_or(0, |r| count_nodes(tree, r))
}

/// The reference's banked tree buffer; `None` stands for the ideal SRAM,
/// which grants every fetch.
#[derive(Clone, Copy, Debug)]
struct Banks {
    count: usize,
    /// Losers at level `>= threshold` are dropped, the rest stall.
    threshold: usize,
    reuse: bool,
}

/// One lock-step round: the node each PE wants (`None` = idle PE) →
/// what happens to its fetch. The lowest-numbered PE on a bank wins it.
fn arbitrate(wants: &[Option<usize>], banks: Option<Banks>) -> Vec<Fetch> {
    let Some(banks) = banks else { return vec![Fetch::Granted; wants.len()] };
    let mut owner: Vec<Option<usize>> = vec![None; banks.count.max(1)];
    let mut fetches = Vec::new();
    for want in wants {
        let Some(node) = *want else {
            fetches.push(Fetch::Stalled);
            continue;
        };
        let bank = node % banks.count.max(1);
        fetches.push(match owner[bank] {
            None => {
                owner[bank] = Some(node);
                Fetch::Granted
            }
            Some(_) if level(node) < banks.threshold => Fetch::Stalled,
            Some(w) if banks.reuse && beneath(w, node) => Fetch::Reused(w),
            Some(_) => Fetch::Elided,
        });
    }
    fetches
}

/// The stage-2 drain of `queue` under `root`, `num_pes` PEs over `banks`.
#[allow(clippy::too_many_arguments)]
fn reference_drain(
    tree: &KdTree,
    root: usize,
    queue: &[usize],
    queries: &[Point3],
    radius: f32,
    num_pes: usize,
    banks: Option<Banks>,
    results: &mut [Vec<Neighbor>],
) -> DrainCounters {
    let mut c = DrainCounters::default();
    let r2 = radius * radius;
    let mut pes: Vec<Option<(usize, Vec<usize>)>> = vec![None; num_pes.max(1)];
    let mut pending = queue.iter();
    loop {
        for pe in pes.iter_mut().filter(|pe| pe.is_none()) {
            *pe = pending.next().map(|&qi| (qi, vec![root]));
        }
        if pes.iter().all(Option::is_none) {
            return c;
        }
        c.rounds += 1;
        let wants: Vec<Option<usize>> =
            pes.iter().map(|pe| pe.as_ref().map(|(_, s)| *s.last().unwrap())).collect();
        let fetches = arbitrate(&wants, banks);
        let mut stalled = false;
        for (pe, fetch) in pes.iter_mut().zip(fetches) {
            let Some((qi, stack)) = pe else { continue };
            let node = stack.pop().unwrap();
            c.attempts += 1;
            let visit = match fetch {
                Fetch::Granted => true,
                Fetch::Stalled => {
                    c.conflicts += 1;
                    c.stalls += 1;
                    stalled = true;
                    stack.push(node);
                    false
                }
                Fetch::Elided => {
                    c.conflicts += 1;
                    c.elided += 1;
                    c.skipped += count_nodes(tree, node);
                    false
                }
                Fetch::Reused(w) => {
                    c.conflicts += 1;
                    c.reuses += 1;
                    if w != node {
                        c.skipped += count_nodes(tree, node) - count_nodes(tree, w);
                        stack.push(w);
                    }
                    w == node
                }
            };
            if visit {
                c.visits += 1;
                let q = queries[*qi];
                let p = tree.point_of(node);
                let d2 = p.dist2(q);
                if d2 <= r2 {
                    results[*qi].push(Neighbor { index: tree.point_index_of(node), dist2: d2 });
                }
                let axis = tree.axis_of(node);
                let delta = q.coord(axis) - p.coord(axis);
                let (near, far) = if delta <= 0.0 {
                    (tree.left(node), tree.right(node))
                } else {
                    (tree.right(node), tree.left(node))
                };
                if delta * delta <= r2 {
                    stack.extend(far);
                }
                stack.extend(near);
            }
            if stack.is_empty() {
                *pe = None;
            }
        }
        if stalled {
            c.stall_rounds += 1;
        }
    }
}

/// Stage 1 of the per-query engine: `num_pes` PEs take queries in
/// arrival order, and each descends the top tree one routing fetch per
/// round, with no backtracking, to the sub-tree it lands in. A lost
/// routing fetch at level `>= threshold` drops the query (it reaches no
/// sub-tree), or with descendant reuse continues the route from the
/// winner's node beneath it. Returns each query's sub-tree.
fn reference_top_stage(
    split: &SplitTree,
    queries: &[Point3],
    radius: f32,
    num_pes: usize,
    banks: Option<Banks>,
    results: &mut [Vec<Neighbor>],
    c: &mut DrainCounters,
) -> Vec<Option<usize>> {
    let tree = split.tree();
    let top = split.top_height();
    if top == 0 {
        // the whole tree is the one sub-tree: nothing to route
        return vec![Some(0); queries.len()];
    }
    let first = split.subtree_roots()[0];
    let r2 = radius * radius;
    let mut subtree = vec![None; queries.len()];
    // each PE: (query, the top-tree node it fetches next)
    let mut pes: Vec<Option<(usize, usize)>> = vec![None; num_pes.max(1)];
    let mut pending = 0..queries.len();
    loop {
        for pe in pes.iter_mut().filter(|pe| pe.is_none()) {
            *pe = pending.next().map(|qi| (qi, 0));
        }
        if pes.iter().all(Option::is_none) {
            return subtree;
        }
        c.rounds += 1;
        let wants: Vec<Option<usize>> = pes.iter().map(|pe| pe.map(|(_, node)| node)).collect();
        let fetches = arbitrate(&wants, banks);
        let mut stalled = false;
        for (pe, fetch) in pes.iter_mut().zip(fetches) {
            let Some((qi, node)) = *pe else { continue };
            c.attempts += 1;
            if !matches!(fetch, Fetch::Granted) {
                c.conflicts += 1;
            }
            // where the route goes on from
            let next = match fetch {
                Fetch::Stalled => {
                    c.stalls += 1;
                    stalled = true;
                    continue;
                }
                Fetch::Elided => {
                    c.elided += 1;
                    c.skipped += count_nodes(tree, node);
                    *pe = None;
                    continue;
                }
                Fetch::Reused(w) if w != node => {
                    c.reuses += 1;
                    c.skipped += count_nodes(tree, node) - count_nodes(tree, w);
                    w
                }
                Fetch::Granted | Fetch::Reused(_) => {
                    c.reuses += usize::from(!matches!(fetch, Fetch::Granted));
                    c.visits += 1;
                    let q = queries[qi];
                    let p = tree.point_of(node);
                    let d2 = p.dist2(q);
                    if d2 <= r2 {
                        results[qi].push(Neighbor { index: tree.point_index_of(node), dist2: d2 });
                    }
                    // the child on the query's side
                    let axis = tree.axis_of(node);
                    if q.coord(axis) - p.coord(axis) <= 0.0 {
                        2 * node + 1
                    } else {
                        2 * node + 2
                    }
                }
            };
            if next < tree.len() && level(next) < top {
                *pe = Some((qi, next));
                continue;
            }
            // landed: a slot past the tree's ragged bottom goes to the
            // sub-tree of its leftmost descendant at level `h_t`, clamped
            // to the last sub-tree
            let mut root = next;
            while level(root) < top {
                root = 2 * root + 1;
            }
            subtree[qi] = Some((root - first).min(split.num_subtrees() - 1));
            *pe = None;
        }
        if stalled {
            c.stall_rounds += 1;
        }
    }
}

/// The whole per-query engine: [`reference_top_stage`], then
/// [`reference_drain`] of every sub-tree queue in arrival order, then
/// each query's hits ordered and capped.
fn reference_engine(
    split: &SplitTree,
    queries: &[Point3],
    config: &SplitSearchConfig,
) -> (Vec<Vec<Neighbor>>, SplitSearchStats) {
    let banks = config.elision.map(|e| Banks {
        count: e.num_banks,
        threshold: e.elision_height,
        reuse: e.descendant_reuse,
    });
    let mut results = vec![Vec::new(); queries.len()];
    let mut stats = SplitSearchStats::default();
    let subtree = reference_top_stage(
        split,
        queries,
        config.radius,
        config.num_pes,
        banks,
        &mut results,
        &mut stats.top,
    );
    for (s, &root) in split.subtree_roots().iter().enumerate() {
        let queue: Vec<usize> = (0..queries.len()).filter(|&qi| subtree[qi] == Some(s)).collect();
        stats.subtree += reference_drain(
            split.tree(),
            root,
            &queue,
            queries,
            config.radius,
            config.num_pes,
            banks,
            &mut results,
        );
    }
    for hits in &mut results {
        finalize(hits, config.max_neighbors, &mut Vec::new());
    }
    (results, stats)
}

/// Neighbor lists as `(index, dist2 bits)`, so equality is bit for bit.
fn bits(lists: &[Vec<Neighbor>]) -> Vec<Vec<(usize, u32)>> {
    lists.iter().map(|l| l.iter().map(|n| (n.index, n.dist2.to_bits())).collect()).collect()
}

fn arb_points(max_n: usize) -> impl Strategy<Value = Vec<Point3>> {
    // a coarse grid, so split coordinates and distances tie often
    prop::collection::vec((0u32..12, 0u32..12, 0u32..12), 1..max_n).prop_map(|v| {
        v.into_iter().map(|(x, y, z)| Point3::new(x as f32, y as f32, z as f32) * 0.25).collect()
    })
}

/// A query segment of 0 to 7 points on the same coarse grid (empty and
/// one-query segments are frequent).
fn arb_segment() -> impl Strategy<Value = Vec<Point3>> {
    prop::collection::vec((0u32..12, 0u32..12, 0u32..12), 0..8).prop_map(|v| {
        v.into_iter().map(|(x, y, z)| Point3::new(x as f32, y as f32, z as f32) * 0.25).collect()
    })
}

/// Cases per proptest: `PROPTEST_CASES` when it is set, else 384.
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(384)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// `drain_subtree_queue` equals the reference drain: the whole
    /// counter record and every neighbor list, bit for bit.
    #[test]
    fn drain_matches_the_reference_model(
        points in arb_points(160),
        queries in arb_points(40),
        picks in prop::collection::vec(0usize..64, 0..48),
        radius in 0.1f32..1.5,
        top_pick in 0usize..8,
        num_pes in 1usize..17,
        num_banks in 1usize..17,
        depth in 0usize..9,
        reuse in 0u8..2,
    ) {
        let cloud: PointCloud = points.into_iter().collect();
        let tree = KdTree::build(&cloud);
        // a sub-tree root below a top tree of height `top_pick` (clamped)
        let top = top_pick.min(tree.height() - 1);
        let roots = tree.subtree_roots(top);
        let root = roots[picks.first().map_or(0, |&p| p % roots.len())];
        // distinct queries in a scrambled arrival order
        let mut queue: Vec<usize> = Vec::new();
        for &p in &picks {
            let qi = p % queries.len();
            if !queue.contains(&qi) {
                queue.push(qi);
            }
        }
        let threshold = tree.height().saturating_sub(depth);
        let reuse = reuse == 1;

        let mut want = vec![Vec::new(); queries.len()];
        let expected = reference_drain(
            &tree,
            root,
            &queue,
            &queries,
            radius,
            num_pes,
            Some(Banks { count: num_banks, threshold, reuse }),
            &mut want,
        );
        let mut got = vec![Vec::new(); queries.len()];
        let mut arbiter = TreeArbiter::banked(num_banks, threshold, reuse);
        let counters = drain_subtree_queue(
            &tree, root, &queue, &queries, radius, num_pes, &mut arbiter,
            &mut DrainScratch::default(), &mut got,
        );
        prop_assert_eq!(counters, expected);
        prop_assert_eq!(bits(&got), bits(&want));
    }

    /// A batch traced as one segment and replayed, descendant reuse on
    /// or off, equals the reference model: per-query stage-1 routing,
    /// then the reference drain of every sub-tree queue in arrival
    /// order. The whole stage-2 counter record and every neighbor list
    /// match bit for bit.
    #[test]
    fn replay_matches_the_reference_model(
        points in arb_points(160),
        queries in arb_points(40),
        radius in 0.1f32..1.5,
        top_pick in 0usize..8,
        num_pes in 1usize..17,
        num_banks in 1usize..17,
        depth in 0usize..9,
        reuse in 0u8..2,
    ) {
        let cloud: PointCloud = points.into_iter().collect();
        let tree = KdTree::build(&cloud);
        let split = SplitTree::new(&tree, top_pick.min(tree.height() - 1)).unwrap();
        let reuse = reuse == 1;
        let trace = split.trace_segment(&queries, radius);
        let config = BatchSearchConfig::banked(radius, None, num_pes, num_banks, depth)
            .with_descendant_reuse(reuse);
        let (got, stats) =
            split.replay_segments(&[(&queries, &trace)], &config, &mut BatchState::new());

        let mut want = vec![Vec::new(); queries.len()];
        let mut queues = vec![Vec::new(); split.num_subtrees()];
        for (qi, &q) in queries.iter().enumerate() {
            if let Some(s) = split.route_query(q, radius, &mut want[qi], &mut |_| {}) {
                queues[s].push(qi);
            }
        }
        let threshold = tree.height().saturating_sub(depth);
        let mut expected = DrainCounters::default();
        for (&root, queue) in split.subtree_roots().iter().zip(&queues) {
            let banks = Banks { count: num_banks, threshold, reuse };
            expected +=
                reference_drain(&tree, root, queue, &queries, radius, num_pes, Some(banks), &mut want);
        }
        for hits in &mut want {
            finalize(hits, None, &mut Vec::new());
        }
        prop_assert_eq!(stats.subtree, expected);
        prop_assert_eq!(bits(&got), bits(&want));
    }

    /// `batch_search` equals the reference per-query engine: the whole
    /// `SplitSearchStats` record (both stages) and every neighbor list,
    /// bit for bit, with `h_e` below, at and above `h_t`, descendant
    /// reuse on and off, and the ideal SRAM (`elision: None`).
    #[test]
    fn batch_search_matches_the_reference_engine(
        points in arb_points(160),
        queries in arb_points(40),
        radius in 0.1f32..1.5,
        top_pick in 0usize..8,
        num_pes in 1usize..17,
        num_banks in 1usize..17,
        he_offset in 0usize..7,
        bank_mode in 0u8..3,
        cap in 0usize..12,
    ) {
        let cloud: PointCloud = points.into_iter().collect();
        let tree = KdTree::build(&cloud);
        let top = top_pick.min(tree.height() - 1);
        let split = SplitTree::new(&tree, top).unwrap();
        // h_e from h_t − 3 to h_t + 3; mode 0 is the ideal SRAM, 2 reuses
        let elision_height = (top + he_offset).saturating_sub(3);
        let elision = (bank_mode > 0).then_some(ElisionConfig {
            elision_height,
            num_banks,
            descendant_reuse: bank_mode == 2,
        });
        let config = SplitSearchConfig {
            radius,
            max_neighbors: (cap > 0).then_some(cap),
            num_pes,
            elision,
        };
        let (got, stats) = split.batch_search(&queries, &config);
        let (want, expected) = reference_engine(&split, &queries, &config);
        prop_assert_eq!(stats, expected);
        prop_assert_eq!(bits(&got), bits(&want));
    }

    /// Stage 1 of the wavefront, two batches through one `BatchState`
    /// (the second repeats a prefix of the first), live and replayed from
    /// a segment trace, equals per-query routing: every config-free
    /// `BatchSearchStats` field, the sub-tree assignments and each
    /// query's top-tree hits (read from the trace) in root-to-leaf order.
    /// A node is fetched once per batch iff some query's route reaches
    /// it; the DRAM bytes are Sec 3.4's schedule (queries moved three
    /// times, the top tree and each touched sub-tree streamed once).
    #[test]
    fn wavefront_matches_per_query_routing(
        points in arb_points(160),
        first in arb_points(40),
        extra in arb_points(40),
        keep in 0usize..41,
        radius in 0.1f32..1.5,
        top_pick in 0usize..8,
    ) {
        let cloud: PointCloud = points.into_iter().collect();
        let tree = KdTree::build(&cloud);
        let top = top_pick.min(tree.height() - 1);
        let split = SplitTree::new(&tree, top).unwrap();
        let second: Vec<Point3> =
            first[..keep.min(first.len())].iter().chain(&extra).copied().collect();
        let config = BatchSearchConfig::banked(radius, None, 4, 4, 0);
        let (mut searched, mut traced) = (BatchState::new(), BatchState::new());
        let mut prev: Vec<Option<usize>> = Vec::new();
        for (frame, queries) in [first, second].iter().enumerate() {
            let mut hits = vec![Vec::new(); queries.len()];
            let mut fetched = BTreeSet::new();
            let mut unamortized = 0;
            let mut assignments = Vec::new();
            for (&q, h) in queries.iter().zip(&mut hits) {
                assignments.push(split.route_query(q, radius, h, &mut |idx| {
                    fetched.insert(idx);
                    unamortized += 1;
                }));
            }
            let touched: BTreeSet<usize> = assignments.iter().flatten().copied().collect();
            let top_nodes = (0..tree.len()).filter(|&i| level(i) < top).count();
            let subtree_nodes: usize =
                touched.iter().map(|&s| count_nodes(&tree, split.subtree_roots()[s])).sum();
            let want = BatchSearchStats {
                queries: queries.len(),
                top_fetches: fetched.len(),
                top_fetches_unamortized: unamortized,
                subtrees_touched: touched.len(),
                assignment_reuses: assignments
                    .iter()
                    .zip(&prev)
                    .filter(|(a, p)| a.is_some() && a == p)
                    .count(),
                dram_bytes: (3 * queries.len() * POINT_BYTES + (top_nodes + subtree_nodes) * NODE_BYTES)
                    as u64,
                frame_index: frame,
                subtree: DrainCounters::default(),
            };
            let config_free = |stats: BatchSearchStats| BatchSearchStats {
                subtree: DrainCounters::default(),
                ..stats
            };

            let (_, stats) = split.search_batch(queries, &config, &mut searched);
            prop_assert_eq!(config_free(stats), want.clone());
            prop_assert_eq!(searched.assignments(), assignments.as_slice());
            let trace = split.trace_segment(queries, radius);
            let (_, stats) = split.replay_segments(&[(queries, &trace)], &config, &mut traced);
            prop_assert_eq!(config_free(stats), want);
            let mut got = vec![Vec::new(); queries.len()];
            for &(qi, n) in &trace.top_hits {
                got[qi as usize].push(n);
            }
            prop_assert_eq!(bits(&got), bits(&hits));
            prev = assignments;
        }
    }

    /// A wavefront replayed from its segments' traces equals the live
    /// `search_batch` on the concatenated segments: every neighbor list
    /// bit for bit and the whole `BatchSearchStats` record (its
    /// `queries`, `top_fetches`, `top_fetches_unamortized`,
    /// `subtrees_touched`, `dram_bytes` and `subtree` counters, and the
    /// cross-frame locality of a second batch through the same state),
    /// over ragged and empty trees, empty and one-query segments, every
    /// `h_t` and `h_e`, PEs {1, 2, 4, 8}, banks {2, 4, 8}, and
    /// descendant reuse on and off.
    #[test]
    fn segment_replay_matches_the_live_wavefront(
        points in arb_points(160),
        segments in prop::collection::vec(arb_segment(), 1..7),
        radius in 0.1f32..1.5,
        (top_pick, depth_pick, empty) in (0usize..8, 0usize..16, 0u8..8),
        (pes_pick, banks_pick, reuse, cap) in (0usize..4, 0usize..3, 0u8..2, 0usize..12),
    ) {
        let cloud: PointCloud =
            if empty == 0 { PointCloud::new() } else { points.into_iter().collect() };
        let tree = KdTree::build(&cloud);
        let split = SplitTree::new(&tree, tree.clamp_top_height(top_pick)).unwrap();
        let mut config = BatchSearchConfig::banked(
            radius,
            (cap > 0).then_some(cap),
            [1, 2, 4, 8][pes_pick],
            [2, 4, 8][banks_pick],
            depth_pick % (tree.height() + 1),
        );
        config.descendant_reuse = reuse == 1;
        let traces: Vec<_> = segments.iter().map(|q| split.trace_segment(q, radius)).collect();
        let (mut replayed, mut searched) = (BatchState::new(), BatchState::new());
        // the segments in order, then reversed through the same states
        for reverse in [false, true] {
            let mut order: Vec<usize> = (0..segments.len()).collect();
            if reverse {
                order.reverse();
            }
            let riders: Vec<(&[Point3], &SegmentTrace)> =
                order.iter().map(|&i| (segments[i].as_slice(), &traces[i])).collect();
            let flat: Vec<Point3> = order.iter().flat_map(|&i| segments[i].clone()).collect();
            let (got, stats) = split.replay_segments(&riders, &config, &mut replayed);
            let (want, expected) = split.search_batch(&flat, &config, &mut searched);
            prop_assert_eq!(stats, expected);
            prop_assert_eq!(bits(&got), bits(&want));
            prop_assert_eq!(replayed.assignments(), searched.assignments());
        }
    }
}
