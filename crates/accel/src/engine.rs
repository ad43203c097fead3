//! Neighbor-search engine timing (the Fig 7 hardware).
//!
//! The engine couples the algorithmic lock-step simulation from
//! `crescent-kdtree` (which yields rounds, conflicts, elisions, and the
//! neighbor results) with the DRAM timing model: all Crescent transfers are
//! streaming and double-buffered, so engine latency is
//! `max(compute, DMA) + pipeline fill`.

use serde::{Deserialize, Serialize};

use crescent_kdtree::{
    crescent_dram_bytes, split_exhaustive_report, split_exhaustive_search, BaselineReport, KdTree,
    SplitSearchConfig, SplitSearchStats, SplitTree,
};
use crescent_pointcloud::{Neighbor, Point3, POINT_BYTES};

use crate::config::AcceleratorConfig;

/// Depth of the PE pipeline (RS → FN → CD → SR → US, Fig 7).
pub const PE_PIPELINE_DEPTH: u64 = 5;

/// Timing + statistics of a neighbor-search engine run.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct SearchEngineReport {
    /// Datapath cycles (lock-step rounds only; the pipeline fill is
    /// charged exactly once, in [`SearchEngineReport::cycles`]).
    pub compute_cycles: u64,
    /// DMA cycles for all DRAM transfers.
    pub dma_cycles: u64,
    /// Engine latency with double buffering: `max(compute, dma)` plus the
    /// pipeline fill.
    pub cycles: u64,
    /// Total DRAM bytes moved (all streaming for Crescent).
    pub dram_streaming_bytes: u64,
    /// DRAM bytes that are random accesses (0 for Crescent / Tigris).
    pub dram_random_bytes: u64,
    /// Tree-buffer reads (node visits) — the one visit count every
    /// engine reports.
    pub tree_buffer_reads: u64,
    /// Lock-step arbitration counters of the two-stage search. Empty for
    /// the Tigris baseline, whose sequential sub-tree scan arbitrates
    /// nothing.
    pub stats: SplitSearchStats,
}

/// Runs the Crescent two-stage search on the engine and returns the
/// neighbor results plus the timing report.
///
/// `top_height` is clamped into the feasible range for the tree and the
/// configured tree buffer.
pub fn run_crescent_search(
    tree: &KdTree,
    top_height: usize,
    queries: &[Point3],
    radius: f32,
    max_neighbors: Option<usize>,
    config: &AcceleratorConfig,
) -> (Vec<Vec<Neighbor>>, SearchEngineReport) {
    let ht = clamp_top_height(tree, top_height);
    let split = SplitTree::new(tree, ht).expect("clamped top height is valid");
    let search_cfg = SplitSearchConfig {
        radius,
        max_neighbors,
        num_pes: config.num_pes,
        elision: config.search_elision,
    };
    let (results, stats) = split.batch_search(queries, &search_cfg);

    let dram_bytes = crescent_dram_bytes(&split, queries, radius);
    let total = stats.total();
    let compute = total.rounds as u64;
    let dma = config.dram.stream_cycles(dram_bytes);
    let report = SearchEngineReport {
        compute_cycles: compute,
        dma_cycles: dma,
        cycles: compute.max(dma) + PE_PIPELINE_DEPTH,
        dram_streaming_bytes: dram_bytes,
        dram_random_bytes: 0,
        tree_buffer_reads: total.visits as u64,
        stats,
    };
    (results, report)
}

/// Runs the Tigris-style baseline search (split tree + exhaustive sub-tree
/// scan + sub-tree reloading) — the neighbor-search component of the
/// Mesorasi baseline, which aggregates the neighbor lists.
///
/// The on-chip query-buffer capacity (in queries) comes from the config's
/// query buffer, double-buffered.
pub fn run_tigris_search(
    tree: &KdTree,
    top_height: usize,
    queries: &[Point3],
    radius: f32,
    max_neighbors: Option<usize>,
    config: &AcceleratorConfig,
) -> (Vec<Vec<Neighbor>>, SearchEngineReport) {
    let split = SplitTree::new(tree, clamp_top_height(tree, top_height))
        .expect("clamped top height is valid");
    let (results, base) = split_exhaustive_search(
        &split,
        queries,
        radius,
        max_neighbors,
        tigris_queue_capacity(config),
    );
    (results, tigris_report(&base, queries.len(), config))
}

/// The timing report of [`run_tigris_search`] without its neighbor
/// lists: the Tigris+GPU baseline hands features to the GPU, which reads
/// only the search cost. The report depends on the routing and the queue
/// lengths alone, so it equals `run_tigris_search`'s report exactly.
pub fn run_tigris_report(
    tree: &KdTree,
    top_height: usize,
    queries: &[Point3],
    radius: f32,
    config: &AcceleratorConfig,
) -> SearchEngineReport {
    let split = SplitTree::new(tree, clamp_top_height(tree, top_height))
        .expect("clamped top height is valid");
    let base = split_exhaustive_report(&split, queries, radius, tigris_queue_capacity(config));
    tigris_report(&base, queries.len(), config)
}

fn tigris_queue_capacity(config: &AcceleratorConfig) -> usize {
    (config.query_buffer_bytes / POINT_BYTES / 2).max(1) // double-buffered
}

/// Engine timing of a Tigris baseline run of `num_queries` queries.
fn tigris_report(
    base: &BaselineReport,
    num_queries: usize,
    config: &AcceleratorConfig,
) -> SearchEngineReport {
    // The exhaustive scan reads the sub-tree as one sequential stream,
    // one node per PE per cycle with no backtracking. Sequential streams
    // cannot bank-conflict (consecutive nodes hit consecutive banks), so
    // unlike the pointer-chasing two-stage paths — whose conflicts both
    // the engine model and the streaming wavefront now arbitrate — the
    // Tigris datapath genuinely has no conflict term.
    let compute = (base.nodes_visited as u64).div_ceil(config.pe_divisor());
    // Tigris/QuickNN flush partial query queues to scattered per-sub-tree
    // regions whenever a buffer fills: those write-backs are random, unlike
    // Crescent's phased staging (Sec 3.4)
    let random_bytes = (num_queries * POINT_BYTES) as u64;
    let dma = config.dram.stream_cycles(base.dram_bytes)
        + config.dram.random_cycles(random_bytes.div_ceil(config.dram.burst_bytes), 4);
    SearchEngineReport {
        compute_cycles: compute,
        dma_cycles: dma,
        cycles: compute.max(dma) + PE_PIPELINE_DEPTH,
        dram_streaming_bytes: base.dram_bytes,
        dram_random_bytes: random_bytes,
        tree_buffer_reads: base.nodes_visited as u64,
        stats: SplitSearchStats::default(),
    }
}

fn clamp_top_height(tree: &KdTree, requested: usize) -> usize {
    if tree.is_empty() {
        0
    } else {
        requested.min(tree.height().saturating_sub(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crescent_pointcloud::{Point3, PointCloud};
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

    fn queries(n: usize, seed: u64) -> Vec<Point3> {
        random_cloud(n, seed).into_points()
    }

    #[test]
    fn crescent_vs_tigris_results_match_without_elision() {
        let cloud = random_cloud(2048, 40);
        let tree = KdTree::build(&cloud);
        let qs = queries(64, 41);
        let cfg = AcceleratorConfig::ans();
        let (a, _) = run_crescent_search(&tree, 4, &qs, 0.25, Some(16), &cfg);
        let (b, _) = run_tigris_search(&tree, 4, &qs, 0.25, Some(16), &cfg);
        for (x, y) in a.iter().zip(&b) {
            let xi: Vec<usize> = x.iter().map(|n| n.index).collect();
            let yi: Vec<usize> = y.iter().map(|n| n.index).collect();
            assert_eq!(xi, yi);
        }
    }

    #[test]
    fn crescent_visits_fewer_nodes_than_tigris() {
        let cloud = random_cloud(8192, 42);
        let tree = KdTree::build(&cloud);
        let qs = queries(2048, 43);
        // small on-chip query buffer => the Tigris baseline must reload
        // sub-trees many times (the Fig 24b effect)
        let mut cfg = AcceleratorConfig::ans();
        cfg.query_buffer_bytes = 8 * POINT_BYTES * 2;
        let (_, ours) = run_crescent_search(&tree, 5, &qs, 0.15, None, &cfg);
        let (_, tigris) = run_tigris_search(&tree, 5, &qs, 0.15, None, &cfg);
        assert!(
            ours.tree_buffer_reads < tigris.tree_buffer_reads,
            "{} vs {}",
            ours.tree_buffer_reads,
            tigris.tree_buffer_reads
        );
        assert!(
            ours.dram_streaming_bytes < tigris.dram_streaming_bytes,
            "{} vs {}",
            ours.dram_streaming_bytes,
            tigris.dram_streaming_bytes
        );
    }

    #[test]
    fn bce_speeds_up_search() {
        let cloud = random_cloud(8192, 44);
        let tree = KdTree::build(&cloud);
        let qs = queries(128, 45);
        let ans = AcceleratorConfig::ans();
        let bce = AcceleratorConfig::ans_bce(6);
        let (_, a) = run_crescent_search(&tree, 4, &qs, 0.2, None, &ans);
        let (_, b) = run_crescent_search(&tree, 4, &qs, 0.2, None, &bce);
        assert!(b.tree_buffer_reads <= a.tree_buffer_reads);
        assert!(b.compute_cycles <= a.compute_cycles);
        assert!(b.stats.total().elided > 0);
    }

    #[test]
    fn double_buffering_takes_max() {
        let cloud = random_cloud(4096, 48);
        let tree = KdTree::build(&cloud);
        let qs = queries(64, 49);
        let cfg = AcceleratorConfig::ans();
        let (_, rep) = run_crescent_search(&tree, 4, &qs, 0.2, None, &cfg);
        assert!(rep.cycles >= rep.compute_cycles.max(rep.dma_cycles));
        // exactly one pipeline fill on top of the overlapped slot — the
        // fill used to be double-counted (inside compute AND after max)
        assert_eq!(rep.cycles, rep.compute_cycles.max(rep.dma_cycles) + PE_PIPELINE_DEPTH);
    }

    #[test]
    fn top_height_clamped() {
        let cloud = random_cloud(100, 50); // height 7
        let tree = KdTree::build(&cloud);
        let qs = queries(4, 51);
        let cfg = AcceleratorConfig::ans();
        // requesting an absurd top height must not panic
        let (res, _) = run_crescent_search(&tree, 30, &qs, 0.5, Some(4), &cfg);
        assert_eq!(res.len(), 4);
    }

    #[test]
    fn zero_pe_config_degrades_to_one_pe_everywhere() {
        // regression: the Tigris path divided by the raw field and
        // panicked on num_pes == 0; all engine paths now share the
        // pe_divisor() guard and match the timing of an explicit 1-PE
        // config
        let cloud = random_cloud(2048, 52);
        let tree = KdTree::build(&cloud);
        let qs = queries(32, 53);
        let mut zero = AcceleratorConfig::ans();
        zero.num_pes = 0;
        let mut one = AcceleratorConfig::ans();
        one.num_pes = 1;
        assert!(zero.validate().is_err(), "builder-style validation rejects it");
        let (rc0, c0) = run_crescent_search(&tree, 4, &qs, 0.25, Some(16), &zero);
        let (rc1, c1) = run_crescent_search(&tree, 4, &qs, 0.25, Some(16), &one);
        assert_eq!(rc0, rc1);
        assert_eq!(c0.cycles, c1.cycles);
        let (rt0, t0) = run_tigris_search(&tree, 4, &qs, 0.25, Some(16), &zero);
        let (rt1, t1) = run_tigris_search(&tree, 4, &qs, 0.25, Some(16), &one);
        assert_eq!(rt0, rt1);
        assert_eq!(t0.cycles, t1.cycles);
        let l0 = run_tigris_report(&tree, 4, &qs, 0.25, &zero);
        let l1 = run_tigris_report(&tree, 4, &qs, 0.25, &one);
        assert_eq!(l0.cycles, l1.cycles);
        assert_eq!(l0.cycles, t1.cycles);
    }

    #[test]
    fn tigris_report_matches_the_search_report() {
        // ragged (non-power-of-two) trees, every legal top height, queue
        // capacities 1, 7 and at least the query count, and empty query
        // sets
        for (n, seed) in [(1usize, 54u64), (100, 55), (777, 56), (1500, 57)] {
            let cloud = random_cloud(n, seed);
            let tree = KdTree::build(&cloud);
            for top in 0..tree.height() {
                for nq in [0usize, 40] {
                    let qs = queries(nq, seed + 100);
                    for capacity in [1usize, 7, 40, 4096] {
                        let mut cfg = AcceleratorConfig::ans();
                        cfg.query_buffer_bytes = capacity * POINT_BYTES * 2;
                        let (_, full) = run_tigris_search(&tree, top, &qs, 0.3, Some(8), &cfg);
                        let lean = run_tigris_report(&tree, top, &qs, 0.3, &cfg);
                        assert_eq!(lean, full, "n {n} top {top} queries {nq} capacity {capacity}");
                    }
                }
            }
        }
        // an empty tree, whatever the requested top height
        let empty = KdTree::build(&PointCloud::new());
        let cfg = AcceleratorConfig::ans();
        let qs = queries(5, 58);
        for top in [0, 3] {
            let (res, full) = run_tigris_search(&empty, top, &qs, 0.3, None, &cfg);
            assert!(res.iter().all(Vec::is_empty));
            assert_eq!(run_tigris_report(&empty, top, &qs, 0.3, &cfg), full);
        }
    }

    #[test]
    fn empty_workload() {
        let tree = KdTree::build(&PointCloud::new());
        let cfg = AcceleratorConfig::ans();
        let (res, rep) = run_crescent_search(&tree, 3, &[], 0.2, None, &cfg);
        assert!(res.is_empty());
        assert_eq!(rep.tree_buffer_reads, 0);
    }
}
