//! Property-based cross-crate invariants (proptest).

use proptest::prelude::*;

use crescent::kdtree::{radius_search, ElisionConfig, KdTree, SplitSearchConfig, SplitTree};
use crescent::memsim::{DramTraceAnalyzer, FullyAssociativeCache};
use crescent::pointcloud::{
    radius_search_bruteforce, replicate_to_k, Neighbor, Point3, PointCloud,
};

fn arb_cloud(max_n: usize) -> impl Strategy<Value = PointCloud> {
    prop::collection::vec((-10.0f32..10.0, -10.0f32..10.0, -10.0f32..10.0), 1..max_n)
        .prop_map(|v| v.into_iter().map(|(x, y, z)| Point3::new(x, y, z)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Exact K-d search equals brute force on arbitrary clouds: the same
    /// index set uncapped, and the same ordered distance bits capped at
    /// `k` (which of several tied neighbors survives the cap may differ,
    /// their distances may not).
    #[test]
    fn kd_search_matches_bruteforce(
        cloud in arb_cloud(200),
        qx in -10.0f32..10.0,
        qy in -10.0f32..10.0,
        qz in -10.0f32..10.0,
        radius in 0.1f32..5.0,
        k in 1usize..16,
    ) {
        let tree = KdTree::build(&cloud);
        let q = Point3::new(qx, qy, qz);
        let mut got: Vec<usize> =
            radius_search(&tree, q, radius, None).iter().map(|n| n.index).collect();
        let mut want: Vec<usize> =
            radius_search_bruteforce(&cloud, q, radius, None).iter().map(|n| n.index).collect();
        got.sort_unstable();
        want.sort_unstable();
        prop_assert_eq!(got, want);

        let dist_bits = |hits: Vec<Neighbor>| -> Vec<u32> {
            hits.iter().map(|n| n.dist2.to_bits()).collect()
        };
        prop_assert_eq!(
            dist_bits(radius_search(&tree, q, radius, Some(k))),
            dist_bits(radius_search_bruteforce(&cloud, q, radius, Some(k)))
        );
    }

    /// The K-d tree layout is always complete and permutation-valid.
    #[test]
    fn kd_tree_layout_invariants(cloud in arb_cloud(300)) {
        let tree = KdTree::build(&cloud);
        prop_assert_eq!(tree.len(), cloud.len());
        prop_assert!(tree.check_invariants());
        let mut seen = vec![false; cloud.len()];
        for node in tree.nodes() {
            let pi = node.point_index as usize;
            prop_assert!(pi < cloud.len());
            prop_assert!(!seen[pi]);
            seen[pi] = true;
        }
    }

    /// Approximate (split-tree) search returns a subset of the exact
    /// result for any top height — it may miss, it must never invent.
    #[test]
    fn approximate_is_subset_of_exact(
        cloud in arb_cloud(200),
        top_height in 0usize..6,
        radius in 0.2f32..4.0,
    ) {
        let tree = KdTree::build(&cloud);
        let ht = top_height.min(tree.height().saturating_sub(1));
        let split = SplitTree::new(&tree, ht).unwrap();
        let q = cloud.point(0);
        let exact: Vec<usize> =
            radius_search(&tree, q, radius, None).iter().map(|n| n.index).collect();
        let approx = split.search_one(q, radius, None);
        for n in &approx {
            prop_assert!(exact.contains(&n.index));
        }
        // the query point itself is always found (distance 0, and the
        // query is routed to the sub-tree containing it)
        prop_assert!(approx.iter().any(|n| n.index == 0));
    }

    /// Elision only ever removes results, and the stats add up.
    #[test]
    fn elision_subsets_and_accounts(
        cloud in arb_cloud(300),
        banks in 1usize..8,
        he in 0usize..12,
    ) {
        let tree = KdTree::build(&cloud);
        let ht = 2usize.min(tree.height().saturating_sub(1));
        let split = SplitTree::new(&tree, ht).unwrap();
        let queries: Vec<Point3> = cloud.points().iter().copied().take(16).collect();
        let base_cfg = SplitSearchConfig {
            radius: 2.0, max_neighbors: None, num_pes: 4, elision: None,
        };
        let elide_cfg = SplitSearchConfig {
            elision: Some(ElisionConfig { elision_height: he, num_banks: banks, descendant_reuse: false }),
            ..base_cfg
        };
        let (full, _) = split.batch_search(&queries, &base_cfg);
        let (approx, stats) = split.batch_search(&queries, &elide_cfg);
        for (a, f) in approx.iter().zip(&full) {
            let fidx: Vec<usize> = f.iter().map(|n| n.index).collect();
            for n in a {
                prop_assert!(fidx.contains(&n.index));
            }
        }
        prop_assert_eq!(stats.bank_conflicts, stats.conflict_stalls + stats.nodes_elided);
        prop_assert_eq!(stats.fetch_attempts, stats.nodes_visited + stats.bank_conflicts);
        prop_assert!(stats.nodes_skipped >= stats.nodes_elided);
    }

    /// A DMA-style streamed range is classified as one random head plus
    /// streaming bursts, regardless of geometry.
    #[test]
    fn stream_classification(start in 0u64..1_000_000, len in 1u64..100_000, burst in 1u64..256) {
        let mut a = DramTraceAnalyzer::new();
        a.stream(start, len, burst);
        prop_assert_eq!(a.counters().random_accesses, 1);
        prop_assert_eq!(a.counters().total_bytes(), len);
    }

    /// Cache misses are bounded by accesses, and re-walking the same
    /// footprint that fits in cache is all hits.
    #[test]
    fn cache_bounds(lines in 1u64..64, walk in 1u64..64) {
        let mut c = FullyAssociativeCache::new(lines * 64, 64);
        for _ in 0..3 {
            for i in 0..walk {
                c.access(i * 64);
            }
        }
        let s = *c.stats();
        prop_assert_eq!(s.accesses(), 3 * walk);
        prop_assert!(s.misses >= walk.min(lines));
        if walk <= lines {
            // after the first sweep everything fits: exactly `walk` misses
            prop_assert_eq!(s.misses, walk);
        }
    }

    /// Neighbor replication always produces exactly k entries drawn from
    /// the input (or the fallback).
    #[test]
    fn replication_invariants(
        neighbors in prop::collection::vec(0usize..100, 0..20),
        k in 1usize..32,
        fallback in 0usize..100,
    ) {
        let out = replicate_to_k(&neighbors, k, Some(fallback));
        prop_assert_eq!(out.len(), k);
        for v in &out {
            prop_assert!(neighbors.contains(v) || *v == fallback);
        }
    }
}
