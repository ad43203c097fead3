//! Criterion benches of the sweep's wall-clock fast paths: one grid
//! point end-to-end (the unit the worker pool schedules), the SoA node
//! columns against a materialized AoS walk (the host-layout refactor's
//! win), and the incremental recall oracle against the per-frame naive
//! brute force it replaced.
//!
//! These measure the *simulator's* speed, not the modeled machine's —
//! the modeled metrics are byte-identical whichever side of each pair
//! runs (asserted below before timing starts).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use crescent::kdtree::{radius_search, KdNode, KdTree};
use crescent::pointcloud::datasets::{generate_scene, LidarSceneConfig};
use crescent::pointcloud::{
    radius_search_bruteforce_into, Neighbor, OracleIndex, Point3, PointCloud,
};
use crescent_explorer::{run_sweep, SweepSpec};

fn workload(n: usize) -> (PointCloud, Vec<Point3>) {
    let mut scene = generate_scene(&LidarSceneConfig {
        total_points: n,
        num_cars: 8,
        num_poles: 16,
        num_walls: 4,
        half_extent: 30.0,
        seed: 0xB1,
    });
    scene.cloud.normalize_unit_sphere();
    let queries: Vec<Point3> =
        (0..256).map(|i| scene.cloud.point(i * scene.cloud.len() / 256)).collect();
    (scene.cloud, queries)
}

/// The exact SoA `radius_search` re-implemented over a materialized
/// `Vec<KdNode>` — the pre-refactor array-of-structs layout, kept here
/// as the measurement baseline the SoA columns are compared against.
fn radius_search_aos(
    nodes: &[KdNode],
    query: Point3,
    radius: f32,
    max_neighbors: Option<usize>,
) -> Vec<Neighbor> {
    let mut hits = Vec::new();
    if nodes.is_empty() {
        return hits;
    }
    // mirrors the production loop's bookkeeping (visit counter, stack
    // high-water mark) so the only variable left is the memory layout
    let mut visited = 0usize;
    let mut max_depth = 0usize;
    let r2 = radius * radius;
    let mut stack: Vec<usize> = vec![0];
    while let Some(idx) = stack.pop() {
        visited += 1;
        let node = &nodes[idx];
        let d2 = node.point.dist2(query);
        if d2 <= r2 {
            hits.push(Neighbor { index: node.point_index as usize, dist2: d2 });
        }
        let delta = query.coord(node.axis as usize) - node.point.coord(node.axis as usize);
        let (near, far) =
            if delta <= 0.0 { (2 * idx + 1, 2 * idx + 2) } else { (2 * idx + 2, 2 * idx + 1) };
        if delta * delta <= r2 && far < nodes.len() {
            stack.push(far);
        }
        if near < nodes.len() {
            stack.push(near);
        }
        max_depth = max_depth.max(stack.len());
    }
    black_box((visited, max_depth));
    hits.sort_by(|a, b| a.dist2.partial_cmp(&b.dist2).unwrap_or(std::cmp::Ordering::Equal));
    if let Some(k) = max_neighbors {
        hits.truncate(k);
    }
    hits
}

/// One sweep grid point end-to-end — scenario rendering, the recall
/// oracle, and every stage of the cascade run for a single key.
fn bench_sweep_point(c: &mut Criterion) {
    let mut spec = SweepSpec::quick();
    spec.label = "bench-one-point".to_string();
    spec.scenarios.truncate(1);
    spec.maintenance.truncate(1);
    spec.num_pes.truncate(1);
    spec.tree_kb.truncate(1);
    spec.tree_banks.truncate(1);
    spec.dram_bytes_per_cycle.truncate(1);
    spec.aggregation_elision.truncate(1);
    spec.top_heights.truncate(1);
    spec.elision_depths.truncate(1);
    assert_eq!(spec.num_points(), 1, "exactly one grid point end-to-end");
    c.bench_function("sweep_point_end_to_end", |b| {
        b.iter(|| black_box(run_sweep(black_box(&spec), 1).expect("valid spec")))
    });
}

/// One scenario against the full quick-grid knob cross (16 points) —
/// the slice of the quick grid the stage cascade amortizes over (2
/// maintenance sequences, 8 search keys). A single point (above) pays
/// every setup cost itself; this is where the sweep's cross-point
/// sharing shows up in wall-clock.
fn bench_sweep_scenario(c: &mut Criterion) {
    let mut spec = SweepSpec::quick();
    spec.label = "bench-one-scenario".to_string();
    spec.scenarios.truncate(1);
    assert_eq!(spec.num_points(), 16, "one scenario, full knob cross");
    c.bench_function("sweep_scenario_16_points", |b| {
        b.iter(|| black_box(run_sweep(black_box(&spec), 1).expect("valid spec")))
    });
}

/// The entire quick grid (160 points), exactly what
/// `repro sweep --quick` times in the `--timings` sidecar's
/// `total_nanos` — the headline wall-clock number of the fast-path
/// work, with every scenario and all cross-point stage sharing in play.
fn bench_sweep_quick_grid(c: &mut Criterion) {
    let spec = SweepSpec::quick();
    c.bench_function("sweep_quick_grid_160_points", |b| {
        b.iter(|| black_box(run_sweep(black_box(&spec), 1).expect("valid spec")))
    });
}

/// The SoA hot columns against the same traversal over materialized
/// `KdNode` structs: same algorithm, same float-op order, same results
/// — only the host memory layout differs.
fn bench_soa_vs_aos(c: &mut Criterion) {
    let (cloud, queries) = workload(16384);
    let tree = KdTree::build(&cloud);
    let nodes = tree.nodes();
    for &q in &queries {
        assert_eq!(
            radius_search(&tree, q, 0.05, Some(32)),
            radius_search_aos(&nodes, q, 0.05, Some(32)),
            "the two layouts must answer identically before timing means anything"
        );
    }
    let mut g = c.benchmark_group("radius_search_layout_256q");
    g.bench_function("soa", |b| {
        b.iter(|| {
            for &q in &queries {
                black_box(radius_search(&tree, q, 0.05, Some(32)));
            }
        })
    });
    g.bench_function("aos", |b| {
        b.iter(|| {
            for &q in &queries {
                black_box(radius_search_aos(&nodes, q, 0.05, Some(32)));
            }
        })
    });
    g.finish();
}

/// The incremental grid oracle against the naive full scan it replaced
/// in the sweep's scenario setup (one amortized build, cell-local
/// queries, bit-identical answers).
fn bench_oracle_vs_bruteforce(c: &mut Criterion) {
    let (cloud, queries) = workload(16384);
    let oracle = OracleIndex::build(&cloud, 0.05);
    let mut hits = Vec::new();
    let mut naive = Vec::new();
    for &q in &queries {
        oracle.radius_search_into(q, Some(32), &mut hits);
        radius_search_bruteforce_into(&cloud, q, 0.05, Some(32), &mut naive);
        assert_eq!(hits, naive, "the oracle must be bit-identical to the brute force");
    }
    let mut g = c.benchmark_group("recall_oracle_256q");
    g.bench_function("bruteforce", |b| {
        b.iter(|| {
            for &q in &queries {
                radius_search_bruteforce_into(&cloud, q, 0.05, Some(32), &mut naive);
                black_box(&naive);
            }
        })
    });
    g.bench_function("grid_oracle", |b| {
        b.iter(|| {
            for &q in &queries {
                oracle.radius_search_into(q, Some(32), &mut hits);
                black_box(&hits);
            }
        })
    });
    g.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_sweep_point, bench_sweep_scenario, bench_sweep_quick_grid, bench_soa_vs_aos,
        bench_oracle_vs_bruteforce
);
criterion_main!(benches);
