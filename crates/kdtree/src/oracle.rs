//! A reference model of the stage-2 drain, for tests only.
//!
//! [`reference_drain`] simulates one sub-tree queue in lock step the
//! plain way: each PE owns its query and its stack, each round builds a
//! bank → first-PE table, a loser's elision eligibility is its node's
//! level (walked up to the root) against the threshold, and descendant
//! reuse walks the winner's node up to the loser's. There is no
//! `BankedSram`, no recycled scratch, no recorded walks and no
//! `min_elide_idx` index shortcut, so the proptests below check the one
//! stage-2 drain, from the tree (`drain_subtree_queue`, where descendant
//! reuse splices walks) and from a trace ([`replay_batch`]), against an
//! independent statement of the arbitration rule.

use crescent_pointcloud::{Neighbor, Point3, PointCloud};
use proptest::prelude::*;

use crate::batch::{replay_batch, BatchSearchConfig, BatchState};
use crate::split::{
    drain_subtree_queue, finalize, DrainCounters, DrainScratch, SplitTree, TreeArbiter,
};
use crate::tree::KdTree;

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

/// The stage-2 drain of `queue` under `root`, `num_pes` PEs over
/// `num_banks` banks, eliding losers at level `>= threshold`.
#[allow(clippy::too_many_arguments)]
fn reference_drain(
    tree: &KdTree,
    root: usize,
    queue: &[usize],
    queries: &[Point3],
    radius: f32,
    num_pes: usize,
    num_banks: usize,
    threshold: usize,
    reuse: bool,
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
        // arbitration: the lowest-numbered PE on a bank wins it
        let wants: Vec<Option<usize>> =
            pes.iter().map(|pe| pe.as_ref().map(|(_, s)| *s.last().unwrap())).collect();
        let mut owner: Vec<Option<usize>> = vec![None; num_banks.max(1)];
        let mut fetches = Vec::new();
        for want in &wants {
            let Some(node) = *want else {
                fetches.push(Fetch::Stalled);
                continue;
            };
            let bank = node % num_banks.max(1);
            fetches.push(match owner[bank] {
                None => {
                    owner[bank] = Some(node);
                    Fetch::Granted
                }
                Some(_) if level(node) < threshold => Fetch::Stalled,
                Some(w) if reuse && beneath(w, node) => Fetch::Reused(w),
                Some(_) => Fetch::Elided,
            });
        }
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

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
            &tree, root, &queue, &queries, radius, num_pes, num_banks, threshold, reuse,
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

    /// A batch's trace replayed with descendant reuse off equals the
    /// reference model: per-query stage-1 routing, then the reference
    /// drain of every sub-tree queue in arrival order. The whole stage-2
    /// counter record and every neighbor list match bit for bit.
    #[test]
    fn replay_matches_the_reference_model(
        points in arb_points(160),
        queries in arb_points(40),
        radius in 0.1f32..1.5,
        top_pick in 0usize..8,
        num_pes in 1usize..17,
        num_banks in 1usize..17,
        depth in 0usize..9,
    ) {
        let cloud: PointCloud = points.into_iter().collect();
        let tree = KdTree::build(&cloud);
        let split = SplitTree::new(&tree, top_pick.min(tree.height() - 1)).unwrap();
        let mut state = BatchState::new();
        let trace = split.trace_batch(&queries, radius, &mut state);
        let config = BatchSearchConfig::banked(radius, None, num_pes, num_banks, depth);
        let (got, stats) = replay_batch(&trace, &config, &mut state);

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
            expected += reference_drain(
                &tree, root, queue, &queries, radius, num_pes, num_banks, threshold, false,
                &mut want,
            );
        }
        for hits in &mut want {
            finalize(hits, None, &mut Vec::new());
        }
        prop_assert_eq!(stats.subtree, expected);
        prop_assert_eq!(bits(&got), bits(&want));
    }
}
