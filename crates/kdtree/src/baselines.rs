//! Prior-work neighbor-search baselines: Tigris \[66\] and QuickNN \[44\].
//!
//! Both use a split-tree like Crescent but (per Sec 3.4) differ in two
//! ways that Crescent improves on:
//!
//! 1. **exhaustive sub-tree search** — every point of the assigned sub-tree
//!    is scanned, instead of K-d traversal (more search work; Fig 24a);
//! 2. **sub-tree reloading** — a sub-tree is streamed from DRAM every time
//!    its fixed-capacity query buffer fills, instead of staging all queries
//!    in DRAM and loading each sub-tree exactly once (more DRAM traffic;
//!    Fig 24b).
//!
//! The DRAM accounting here is shared with the Crescent-side model
//! ([`crescent_dram_bytes`]) so the Fig 24 comparison is apples-to-apples.

use crescent_pointcloud::{Neighbor, Point3, POINT_BYTES};

use crate::split::{finalize, SplitTree};
use crate::tree::{KdTree, NODE_BYTES};

/// Cost of a baseline batch search. It depends only on how the queries
/// route through the top tree, never on what the sub-tree scans find.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BaselineReport {
    /// Total tree nodes / points inspected ("search load").
    pub nodes_visited: usize,
    /// Total DRAM traffic in bytes (tree loads + query movement).
    pub dram_bytes: u64,
    /// Number of sub-tree loads from DRAM.
    pub subtree_loads: usize,
}

/// Tigris/QuickNN-style batch search: top-tree routing, then **exhaustive**
/// scan of the assigned sub-tree, reloading a sub-tree whenever its
/// `queue_capacity`-entry query buffer fills. Returns the per-query
/// neighbor lists (sorted ascending by distance) and the cost report.
///
/// `queue_capacity` is the number of queries buffered on-chip per sub-tree
/// between reloads (QuickNN's query-buffer size).
///
/// # Panics
///
/// Panics if `queue_capacity == 0`.
pub fn split_exhaustive_search(
    split: &SplitTree<'_>,
    queries: &[Point3],
    radius: f32,
    max_neighbors: Option<usize>,
    queue_capacity: usize,
) -> (Vec<Vec<Neighbor>>, BaselineReport) {
    let Routed { hits: mut results, queues, report } =
        route_and_account(split, queries, radius, queue_capacity);
    let tree = split.tree();
    let r2 = radius * radius;

    // stage 2: exhaustive scan of each queue's sub-tree, from coordinate
    // columns in scan order so the distance loop vectorizes; the hits are
    // compacted from the distances afterwards, in the same scan order
    let mut nodes: Vec<usize> = Vec::new();
    let mut columns = ScanColumns::default();
    let mut d2s: Vec<f32> = Vec::new();
    for (s, queue) in queues.iter().enumerate() {
        if queue.is_empty() {
            continue;
        }
        nodes.clear();
        collect_subtree(tree, split.subtree_roots()[s], &mut nodes);
        columns.fill(tree, &nodes);
        let ScanColumns { xs, ys, zs, indices } = &columns;
        for &qi in queue {
            let q = queries[qi];
            d2s.resize(xs.len(), 0.0);
            for (((d2, &x), &y), &z) in d2s.iter_mut().zip(xs).zip(ys).zip(zs) {
                // the float ops of `Point3::dist2`, in its order
                let (dx, dy, dz) = (x - q.x, y - q.y, z - q.z);
                *d2 = dx * dx + dy * dy + dz * dz;
            }
            results[qi].extend(
                d2s.iter()
                    .zip(indices)
                    .filter(|(&d2, _)| d2 <= r2)
                    .map(|(&dist2, &index)| Neighbor { index, dist2 }),
            );
        }
    }

    let mut keys = Vec::new();
    for hits in &mut results {
        finalize(hits, max_neighbors, &mut keys);
    }
    (results, report)
}

/// One sub-tree's points as coordinate columns plus their point indices,
/// in scan order.
#[derive(Default)]
struct ScanColumns {
    xs: Vec<f32>,
    ys: Vec<f32>,
    zs: Vec<f32>,
    indices: Vec<usize>,
}

impl ScanColumns {
    fn fill(&mut self, tree: &KdTree, nodes: &[usize]) {
        self.xs.clear();
        self.ys.clear();
        self.zs.clear();
        self.indices.clear();
        for &idx in nodes {
            let p = tree.point_of(idx);
            self.xs.push(p.x);
            self.ys.push(p.y);
            self.zs.push(p.z);
            self.indices.push(tree.point_index_of(idx));
        }
    }
}

/// The cost report of [`split_exhaustive_search`] without the sub-tree
/// scans that only produce its neighbor lists.
///
/// # Panics
///
/// Panics if `queue_capacity == 0`.
pub fn split_exhaustive_report(
    split: &SplitTree<'_>,
    queries: &[Point3],
    radius: f32,
    queue_capacity: usize,
) -> BaselineReport {
    route_and_account(split, queries, radius, queue_capacity).report
}

/// Stage 1 of the baseline, and the cost of both stages.
struct Routed {
    /// Candidate neighbors found among each query's top-tree nodes.
    hits: Vec<Vec<Neighbor>>,
    /// The queries routed to each sub-tree, in query order.
    queues: Vec<Vec<usize>>,
    report: BaselineReport,
}

/// Routes every query through the top tree (streaming read) and accounts
/// for both stages. Stage 2 scans every node of a queue's sub-tree once
/// per queued query, and loads the sub-tree once per `queue_capacity`
/// queries (the reload behavior Crescent eliminates).
fn route_and_account(
    split: &SplitTree<'_>,
    queries: &[Point3],
    radius: f32,
    queue_capacity: usize,
) -> Routed {
    assert!(queue_capacity > 0, "queue capacity must be positive");
    let mut report = BaselineReport::default();
    let mut hits = vec![Vec::new(); queries.len()];
    let mut queues: Vec<Vec<usize>> = vec![Vec::new(); split.num_subtrees()];
    if split.tree().is_empty() {
        return Routed { hits, queues, report };
    }

    for (qi, &q) in queries.iter().enumerate() {
        let mut fetches = 0usize;
        if let Some(s) = split.route_query(q, radius, &mut hits[qi], &mut |_| fetches += 1) {
            queues[s].push(qi);
        }
        report.nodes_visited += fetches;
    }

    for (s, queue) in queues.iter().enumerate() {
        if queue.is_empty() {
            continue;
        }
        let subtree_len = split.subtree_len(s);
        let loads = queue.len().div_ceil(queue_capacity);
        report.nodes_visited += queue.len() * subtree_len;
        report.subtree_loads += loads;
        report.dram_bytes += (loads * subtree_len * NODE_BYTES) as u64;
    }

    // query movement: each query read for stage 1 and again for stage 2
    report.dram_bytes += (2 * queries.len() * POINT_BYTES) as u64;
    // top tree loaded once
    report.dram_bytes += (split.top_len() * NODE_BYTES) as u64;
    Routed { hits, queues, report }
}

/// DRAM bytes of the Crescent schedule for the same workload
/// ([`SplitTree::schedule_dram_bytes`]): every query read in stage 1,
/// written back to its sub-tree queue, and read again in stage 2; the top
/// tree and **each non-empty sub-tree loaded exactly once** (Sec 3.4).
pub fn crescent_dram_bytes(split: &SplitTree<'_>, queries: &[Point3]) -> u64 {
    let mut touched = vec![false; split.num_subtrees()];
    if !split.tree().is_empty() {
        let mut route = Vec::new();
        for &q in queries {
            route.clear();
            // only the landing sub-tree is read, never a hit flag
            touched[split.route(0, q, 0.0, &mut route)] = true;
        }
    }
    let touched = (0..).zip(touched).filter(|&(_, t)| t).map(|(s, _)| s);
    split.schedule_dram_bytes(queries.len(), touched)
}

fn collect_subtree(tree: &KdTree, root: usize, out: &mut Vec<usize>) {
    let mut stack = vec![root];
    while let Some(i) = stack.pop() {
        out.push(i);
        if let Some(l) = tree.left(i) {
            stack.push(l);
        }
        if let Some(r) = tree.right(i) {
            stack.push(r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split::{SplitSearchConfig, SplitTree};
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

    #[test]
    fn exhaustive_split_matches_crescent_results() {
        // same split tree, same confinement: identical neighbor sets
        let cloud = random_cloud(600, 21);
        let tree = KdTree::build(&cloud);
        let split = SplitTree::new(&tree, 3).unwrap();
        let queries: Vec<Point3> = random_cloud(40, 22).into_points();
        let (base, _) = split_exhaustive_search(&split, &queries, 0.3, Some(16), 8);
        let cfg =
            SplitSearchConfig { radius: 0.3, max_neighbors: Some(16), num_pes: 4, elision: None };
        let (ours, _) = split.batch_search(&queries, &cfg);
        for (a, b) in base.iter().zip(&ours) {
            let ai: Vec<usize> = a.iter().map(|n| n.index).collect();
            let bi: Vec<usize> = b.iter().map(|n| n.index).collect();
            assert_eq!(ai, bi);
        }
    }

    #[test]
    fn kd_subtree_search_visits_fewer_nodes() {
        // Fig 24a: Crescent's in-sub-tree K-d traversal beats exhaustive
        let cloud = random_cloud(8192, 23);
        let tree = KdTree::build(&cloud);
        let split = SplitTree::new(&tree, 4).unwrap();
        let queries: Vec<Point3> = random_cloud(64, 24).into_points();
        let base = split_exhaustive_report(&split, &queries, 0.15, 16);
        let cfg =
            SplitSearchConfig { radius: 0.15, max_neighbors: None, num_pes: 4, elision: None };
        let visits = split.batch_search(&queries, &cfg).1.total().visits;
        assert!(
            (visits as f64) < 0.8 * base.nodes_visited as f64,
            "crescent {visits} vs exhaustive {}",
            base.nodes_visited
        );
    }

    #[test]
    fn reloads_inflate_dram_traffic() {
        // Fig 24b: small queue capacity -> many reloads -> more DRAM bytes
        let cloud = random_cloud(4096, 25);
        let tree = KdTree::build(&cloud);
        let split = SplitTree::new(&tree, 3).unwrap();
        let queries: Vec<Point3> = random_cloud(256, 26).into_points();
        let quicknn = split_exhaustive_report(&split, &queries, 0.2, 8);
        let ours = crescent_dram_bytes(&split, &queries);
        assert!(ours < quicknn.dram_bytes, "crescent {ours} vs quicknn {}", quicknn.dram_bytes);
        assert!(quicknn.subtree_loads > split.num_subtrees());
    }

    #[test]
    fn big_queue_capacity_converges_to_single_loads() {
        let cloud = random_cloud(1024, 27);
        let tree = KdTree::build(&cloud);
        let split = SplitTree::new(&tree, 2).unwrap();
        let queries: Vec<Point3> = random_cloud(64, 28).into_points();
        let r = split_exhaustive_report(&split, &queries, 0.2, usize::MAX >> 1);
        // one load per non-empty sub-tree
        assert!(r.subtree_loads <= split.num_subtrees());
    }

    #[test]
    #[should_panic(expected = "queue capacity")]
    fn zero_queue_capacity_panics() {
        let cloud = random_cloud(64, 29);
        let tree = KdTree::build(&cloud);
        let split = SplitTree::new(&tree, 1).unwrap();
        let _ = split_exhaustive_search(&split, &[], 0.2, None, 0);
    }

    #[test]
    fn report_without_results_matches_the_search_report() {
        // ragged (non-power-of-two) trees, every legal top height, queue
        // capacities below, between and above the query count, and an
        // empty query set
        for (n, seed) in [(1usize, 30u64), (100, 31), (600, 32), (1023, 33), (1500, 34)] {
            let cloud = random_cloud(n, seed);
            let tree = KdTree::build(&cloud);
            for top in 0..tree.height() {
                let split = SplitTree::new(&tree, top).unwrap();
                for nq in [0usize, 37] {
                    let queries: Vec<Point3> = random_cloud(nq, seed + 100).into_points();
                    for cap in [1usize, 7, 37, usize::MAX] {
                        let (_, full) =
                            split_exhaustive_search(&split, &queries, 0.3, Some(8), cap);
                        let lean = split_exhaustive_report(&split, &queries, 0.3, cap);
                        assert_eq!(lean, full, "n {n} top {top} queries {nq} capacity {cap}");
                    }
                }
            }
        }
    }

    #[test]
    fn empty_tree_report() {
        let tree = KdTree::build(&PointCloud::new());
        let split = SplitTree::new(&tree, 0).unwrap();
        let (results, r) = split_exhaustive_search(&split, &[Point3::ZERO], 1.0, None, 4);
        assert_eq!(r.nodes_visited, 0);
        assert!(results[0].is_empty());
        assert_eq!(split_exhaustive_report(&split, &[Point3::ZERO], 1.0, 4), r);
    }

    #[test]
    fn crescent_dram_bytes_on_an_empty_tree() {
        // no top tree and no sub-tree to stream: only the three query
        // passes are charged (the wavefront charges nothing here)
        let tree = KdTree::build(&PointCloud::new());
        let split = SplitTree::new(&tree, 0).unwrap();
        let queries = [Point3::ZERO, Point3::new(1.0, 2.0, 3.0)];
        assert_eq!(crescent_dram_bytes(&split, &queries), (3 * 2 * POINT_BYTES) as u64);
        assert_eq!(crescent_dram_bytes(&split, &[]), 0);
    }
}
