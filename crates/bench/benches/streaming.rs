//! Criterion benches of the streaming multi-frame workload engine: frame
//! rendering, batched vs per-query two-stage search, tree maintenance
//! (full rebuild vs incremental refit), and the end-to-end frame-sequence
//! pipeline (`Crescent::run_stream`) under both maintenance policies.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use crescent::accel::TreeMaintenance;
use crescent::kdtree::{BatchSearchConfig, BatchState, KdTree, RefitConfig, SplitTree};
use crescent::pointcloud::Point3;
use crescent::workload::{EgoMotion, FrameStream, FrameStreamConfig, StreamScenario};
use crescent::Crescent;

fn stream_cfg(points: usize, frames: usize) -> FrameStreamConfig {
    let mut cfg = FrameStreamConfig::default();
    cfg.scene.total_points = points;
    cfg.scene.seed = 0xBEEF;
    cfg.num_frames = frames;
    cfg.queries_per_frame = 256;
    cfg.radius = 0.5;
    cfg.max_neighbors = Some(32);
    cfg
}

fn bench_frame_rendering(c: &mut Criterion) {
    let mut g = c.benchmark_group("frame_stream_render");
    for n in [8192usize, 24_000] {
        let cfg = stream_cfg(n, 4);
        g.bench_with_input(BenchmarkId::from_parameter(n), &cfg, |b, cfg| {
            b.iter(|| {
                let frames: Vec<_> = FrameStream::new(black_box(cfg)).collect();
                black_box(frames.len())
            })
        });
    }
    g.finish();
}

fn bench_batched_vs_per_query(c: &mut Criterion) {
    let cfg = stream_cfg(16_384, 1);
    let frame = FrameStream::new(&cfg).next().expect("one frame");
    let tree = KdTree::build(&frame.cloud);
    let split = SplitTree::new(&tree, 4).unwrap();
    let mut g = c.benchmark_group("two_stage_search_256q");
    g.bench_function("per_query", |b| {
        b.iter(|| {
            for &q in &frame.queries {
                black_box(split.search_one(q, cfg.radius, cfg.max_neighbors));
            }
        })
    });
    // the banked-arbitration wavefront: same results as per-query at
    // h_e = 0, plus the lock-step conflict simulation the stream timing
    // uses
    for (name, depth) in [("banked_he0", 0usize), ("banked_he4", 4)] {
        g.bench_function(name, |b| {
            let batch_cfg = BatchSearchConfig::banked(cfg.radius, cfg.max_neighbors, 4, 4, depth);
            let mut state = BatchState::new();
            b.iter(|| black_box(split.search_batch(&frame.queries, &batch_cfg, &mut state)))
        });
    }
    g.finish();
}

fn bench_run_stream(c: &mut Criterion) {
    let cfg = stream_cfg(8192, 8);
    let system = Crescent::new();
    c.bench_function("run_stream_8x8192", |b| {
        b.iter(|| black_box(system.run_stream(black_box(&cfg))))
    });
}

fn bench_tree_maintenance(c: &mut Criterion) {
    // host-side cost of the two maintenance paths on a drifted frame
    let cfg = stream_cfg(16_384, 1);
    let frame = FrameStream::new(&cfg).next().expect("one frame");
    let drifted: crescent::pointcloud::PointCloud =
        frame.cloud.iter().map(|&p| p + Point3::new(0.05, -0.02, 0.0)).collect();
    let mut g = c.benchmark_group("tree_maintenance_16k");
    g.bench_function("rebuild", |b| b.iter(|| black_box(KdTree::build(&drifted))));
    g.bench_function("refit", |b| {
        // build once outside the loop; steady-state refit against the
        // same drifted cloud is idempotent, so each iteration measures
        // exactly one O(n) patch + validation pass
        let mut tree = KdTree::build(&frame.cloud);
        b.iter(|| black_box(tree.refit(&drifted, &RefitConfig::default())))
    });
    g.finish();
}

fn bench_run_stream_policies(c: &mut Criterion) {
    // end-to-end coherent registered stream under both policies
    let mut cfg = stream_cfg(8192, 8);
    cfg.scenario = StreamScenario::Registered;
    cfg.noise_m = 0.0;
    cfg.ego = EgoMotion { speed_mps: 8.0, yaw_rate_rps: 0.0, frame_period_s: 0.1 };
    let system = Crescent::new();
    let mut g = c.benchmark_group("run_stream_maintenance_8x8192");
    for (name, maintenance) in
        [("rebuild", TreeMaintenance::RebuildEveryFrame), ("refit", TreeMaintenance::refit())]
    {
        let mut cfg = cfg;
        cfg.maintenance = maintenance;
        g.bench_with_input(BenchmarkId::from_parameter(name), &cfg, |b, cfg| {
            b.iter(|| black_box(system.run_stream(black_box(cfg))))
        });
    }
    g.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_frame_rendering, bench_batched_vs_per_query, bench_run_stream,
        bench_tree_maintenance, bench_run_stream_policies
);
criterion_main!(benches);
