//! `dse_slice`: a design-space slice of the full sweep.
//!
//! It keeps the paper-scale stream of `SweepSpec::full()` (12k-point
//! scenes, 10 frames, 256 queries per frame), three scenarios (one
//! refit-friendly, one rotation burst, one multi-sensor), and the axes
//! the search stage never reads (maintenance, DRAM bandwidth and
//! aggregation elision, two values each). That redundancy is where a
//! stage-keyed cascade or a faster kdtree/memsim wavefront shows.

use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use crescent::workload::{Frame, FrameStream, StreamScenario};
use crescent_accel::{
    maintain_tree_sequence, run_crescent_search, run_frame_stream_on_trees, CrescentKnobs,
    MaintainedTree, StreamSearchConfig, TreeMaintenance,
};
use crescent_explorer::{diff_reports, run_sweep_timed, SweepReport, SweepSpec};
use crescent_kdtree::KdTree;
use crescent_pointcloud::{Neighbor, OracleIndex, Point3, PointCloud};

use crate::trace::Tracer;
use crate::{derive_seed, Checks, Pass};

/// The slice for `seed`: the seed picks the LiDAR scene.
pub fn spec(seed: u64) -> SweepSpec {
    let mut spec = SweepSpec::full();
    spec.label = "dse_slice".to_string();
    spec.workload.scene.seed = derive_seed(seed, "dse.scene");
    spec.scenarios = StreamScenario::canonical_matrix()
        .into_iter()
        .filter(|s| matches!(s.label(), "registered" | "rotation_burst" | "multi_sensor"))
        .collect();
    spec.num_pes = vec![2, 8];
    spec.tree_kb = vec![6];
    spec.tree_banks = vec![2, 8];
    spec.top_heights = vec![2, 4];
    spec.elision_depths = vec![0, 4];
    spec
}

pub struct Output {
    pub report: SweepReport,
    pub json: String,
}

/// One sweep of the slice. The sweep renders each scenario and solves
/// its recall oracle before simulating any point; that prologue is the
/// set-up time, and the rest of the sweep is the work time.
pub fn pass(spec: &SweepSpec, workers: usize, tracer: &Tracer) -> Pass<Output> {
    let (report, _, timings) = tracer
        .span("explorer.sweep", || run_sweep_timed(spec, workers))
        .expect("the dse slice spec is valid");
    let json = report.to_json();
    let setup = timings.setup_nanos();
    Pass {
        setup_s: setup as f64 / 1e9,
        work_s: timings.total_nanos.saturating_sub(setup) as f64 / 1e9,
        output: Output { report, json },
    }
}

pub fn check(spec: &SweepSpec, out: &Output, checks: &mut Checks) {
    let rows = &out.report.rows;
    checks.check("dse: one row per grid point", rows.len() == spec.num_points());
    checks.check(
        "dse: rows are modeled and consistent",
        rows.iter().all(|r| {
            r.queries > 0
                && r.pipelined_cycles > 0
                && r.pipelined_cycles <= r.serial_cycles
                && r.recall > 0.0
                && r.recall <= 1.0
        }),
    );
}

/// The modeled end-to-end metrics of a slice report.
pub fn modeled(out: &Output) -> Vec<(&'static str, f64)> {
    let rows = &out.report.rows;
    let queries: f64 = rows.iter().map(|r| r.queries as f64).sum();
    let cycles: f64 = rows.iter().map(|r| r.pipelined_cycles as f64).sum();
    let energy: f64 = rows.iter().map(|r| r.energy.total()).sum();
    let recall = rows.iter().map(|r| r.recall).sum::<f64>() / rows.len() as f64;
    vec![
        ("modeled_cycles_per_query", cycles / queries),
        ("modeled_energy_per_query", energy / queries),
        ("recall_mean", recall),
    ]
}

/// The traced replay. A 1-worker sweep must reproduce the timed N-worker
/// report byte for byte; then the sweep's stages are called one by one
/// from here, each inside a span, so their host time is split by layer.
/// `explorer.other_s` is what the 1-worker sweep spends outside those
/// stages: the pool, the memos, recall and digest.
pub fn replay(
    spec: &SweepSpec,
    reference: &Output,
    tracer: &Tracer,
    checks: &mut Checks,
) -> Vec<(&'static str, f64)> {
    let start = Instant::now();
    let (one_worker, _, _) = run_sweep_timed(spec, 1).expect("the dse slice spec is valid");
    let sweep_1w_s = start.elapsed().as_secs_f64();
    let json = tracer.span("explorer.render", || one_worker.to_json());
    let drift = tracer.span("explorer.diff", || diff_reports(&reference.json, &json));
    checks.check("dse: 1-worker report equals the N-worker report", drift.is_none());

    let rows = &reference.report.rows;
    let points = spec.expand();
    let mut stream_queries = 0usize;
    let mut pipelined_match = true;
    let mut bound = [0usize; 3]; // compute, aggregation, dma
    let mut search_keys = HashSet::new();
    for (scenario_idx, &scenario) in spec.scenarios.iter().enumerate() {
        let mut wcfg = spec.workload;
        wcfg.scenario = scenario;
        let frames: Vec<Frame> = tracer.span("core.render", || FrameStream::new(&wcfg).collect());
        black_box(
            tracer.span("pointcloud.oracle", || {
                oracle_pass(&frames, wcfg.radius, wcfg.max_neighbors)
            }),
        );
        let tree0 = tracer.span("explorer.tree0", || KdTree::build(&frames[0].cloud));
        let clouds: Vec<&PointCloud> = frames.iter().map(|f| &f.cloud).collect();
        let inputs: Vec<(&PointCloud, &[Point3])> =
            frames.iter().map(|f| (&f.cloud, f.queries.as_slice())).collect();
        let mut trees: HashMap<(bool, u64, usize), Arc<Vec<MaintainedTree>>> = HashMap::new();
        let mut engine_keys = HashSet::new();
        for point in points.iter().filter(|p| p.scenario_idx == scenario_idx) {
            let mut config = point.config().expect("validated grid point");
            let engine_level = tree0.height().saturating_sub(point.elision_depth);
            if let Some(e) = config.search_elision.as_mut() {
                e.elision_height = engine_level;
            }
            let granted = match config.top_height_range(tree0.height()) {
                Some((lo, hi)) => point.top_height.clamp(lo, hi),
                None => point.top_height,
            };
            let tree_key = match point.maintenance {
                TreeMaintenance::RebuildEveryFrame => (false, 0, 0),
                TreeMaintenance::Refit { rebuild_threshold } => {
                    (true, rebuild_threshold.to_bits(), granted)
                }
            };
            let seq = trees.entry(tree_key).or_insert_with(|| {
                Arc::new(tracer.span("accel.maintain", || {
                    maintain_tree_sequence(&clouds, point.maintenance, granted)
                }))
            });
            let search = StreamSearchConfig {
                radius: spec.workload.radius,
                max_neighbors: spec.workload.max_neighbors,
                maintenance: point.maintenance,
                elision_depth: point.elision_depth,
                descendant_reuse: point.scenario.descendant_reuse(),
            };
            let knobs = CrescentKnobs { top_height: granted, elision_height: engine_level };
            let (_, report) = tracer.span("accel.stream", || {
                run_frame_stream_on_trees(&inputs, seq, &search, knobs, &config)
            });
            stream_queries += report.total_queries();
            pipelined_match &= rows[point.index].pipelined_cycles == report.pipelined_cycles;
            for f in report.frames.iter().filter(|f| f.slot_cycles > 0) {
                let term = if f.dma_cycles > f.compute_cycles + f.agg_cycles {
                    2
                } else if f.compute_cycles >= f.agg_cycles {
                    0
                } else {
                    1
                };
                bound[term] += 1;
            }
            search_keys.insert((
                scenario_idx,
                granted,
                point.num_pes,
                point.tree_banks,
                point.elision_depth,
            ));
            let engine_key = (
                point.num_pes,
                point.tree_kb,
                point.tree_banks,
                point.dram_bytes_per_cycle.to_bits(),
                granted,
                point.elision_depth,
            );
            if engine_keys.insert(engine_key) {
                black_box(tracer.span("accel.engine", || {
                    run_crescent_search(
                        &tree0,
                        granted,
                        &frames[0].queries,
                        spec.workload.radius,
                        spec.workload.max_neighbors,
                        &config,
                    )
                }));
            }
        }
    }
    checks.check("dse: replayed stream passes reproduce pipelined_cycles", pipelined_match);

    let staged: f64 = [
        "explorer.render",
        "core.render",
        "pointcloud.oracle",
        "explorer.tree0",
        "accel.maintain",
        "accel.stream",
        "accel.engine",
    ]
    .iter()
    .map(|name| tracer.seconds(name))
    .sum();
    let frames_bound = bound.iter().sum::<usize>().max(1) as f64;
    let refit_rows = rows.iter().filter(|r| r.maintenance == "refit");
    let (fallbacks, refit_frames) = refit_rows.fold((0usize, 0usize), |(fb, fr), r| {
        // frame 0 always builds; a fallback is a later frame that did
        (fb + r.full_rebuilds.saturating_sub(1), fr + r.frames.saturating_sub(1))
    });
    let conflicts: u64 = rows.iter().map(|r| r.bank_conflicts).sum();
    let elided: u64 = rows.iter().map(|r| r.elided_conflicts).sum();
    vec![
        ("core.render_s", tracer.seconds("core.render")),
        ("pointcloud.oracle_s", tracer.seconds("pointcloud.oracle")),
        ("accel.maintain_s", tracer.seconds("accel.maintain")),
        ("accel.maintain_calls", tracer.calls("accel.maintain") as f64),
        ("accel.stream_s", tracer.seconds("accel.stream")),
        ("accel.stream_calls", tracer.calls("accel.stream") as f64),
        ("accel.stream_ns_per_query", tracer.seconds("accel.stream") * 1e9 / stream_queries as f64),
        ("accel.engine_s", tracer.seconds("accel.engine")),
        ("accel.engine_calls", tracer.calls("accel.engine") as f64),
        ("explorer.render_s", tracer.seconds("explorer.render")),
        ("explorer.diff_s", tracer.seconds("explorer.diff")),
        ("explorer.other_s", sweep_1w_s - staged),
        ("explorer.search_key_ratio", search_keys.len() as f64 / points.len() as f64),
        ("memsim.elided_frac", elided as f64 / conflicts.max(1) as f64),
        ("kdtree.refit_fallback_frac", fallbacks as f64 / refit_frames.max(1) as f64),
        ("accel.compute_bound_frac", bound[0] as f64 / frames_bound),
        ("accel.agg_bound_frac", bound[1] as f64 / frames_bound),
        ("accel.dma_bound_frac", bound[2] as f64 / frames_bound),
    ]
}

/// The sweep's recall oracle for one scenario: an `OracleIndex` built on
/// frame 0, advanced frame to frame, and queried with every query.
fn oracle_pass(frames: &[Frame], radius: f32, max_neighbors: Option<usize>) -> usize {
    let mut oracle = OracleIndex::build(&frames[0].cloud, radius);
    let mut hits: Vec<Neighbor> = Vec::new();
    let mut found = 0;
    for (i, frame) in frames.iter().enumerate() {
        if i > 0 {
            oracle.advance(&frame.cloud);
        }
        for &q in &frame.queries {
            oracle.radius_search_into(q, max_neighbors, &mut hits);
            found += hits.len();
        }
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The slice's code path on a grid small enough for a debug build.
    fn small(seed: u64) -> SweepSpec {
        let mut s = spec(seed);
        s.workload.scene.total_points = 1_500;
        s.workload.num_frames = 3;
        s.workload.queries_per_frame = 16;
        s.scenarios.truncate(2);
        s.num_pes = vec![2];
        s.dram_bytes_per_cycle.truncate(1);
        s.top_heights = vec![2];
        s
    }

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let fp = |s: &SweepSpec| crescent_explorer::spec_fingerprint(s);
        assert_eq!(fp(&spec(4)), fp(&spec(4)));
        assert_ne!(fp(&spec(4)), fp(&spec(5)));
        assert_eq!(spec(4).num_points(), 384);
    }

    #[test]
    fn modeled_metrics_repeat_across_runs_and_worker_counts() {
        let s = small(2);
        let off = Tracer::off();
        let one = pass(&s, 1, &off).output;
        assert_eq!(modeled(&one), modeled(&pass(&s, 1, &off).output));
        assert_eq!(modeled(&one), modeled(&pass(&s, 2, &off).output));
        assert!(modeled(&one).iter().all(|&(_, v)| v > 0.0));
    }

    #[test]
    fn the_replay_reproduces_the_sweep() {
        let s = small(3);
        let reference = pass(&s, 2, &Tracer::off()).output;
        let mut checks = Checks::default();
        let tracer = Tracer::new(true);
        let metrics = replay(&s, &reference, &tracer, &mut checks);
        assert_eq!(checks.failed, 0);
        let get = |n: &str| metrics.iter().find(|(m, _)| *m == n).expect("reported").1;
        assert_eq!(get("accel.stream_calls"), s.num_points() as f64);
        let bound = ["accel.compute_bound_frac", "accel.agg_bound_frac", "accel.dma_bound_frac"];
        assert!((bound.iter().map(|n| get(n)).sum::<f64>() - 1.0).abs() < 1e-9);
    }
}
