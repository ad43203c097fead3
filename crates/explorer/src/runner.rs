//! The parallel sweep executor: an explicit stage cascade over a
//! [`SweepSpec`].
//!
//! The sweep handles **one scenario at a time**. It renders the
//! scenario's frame stream, solves its recall oracle and builds frame
//! 0's tree (the *setup*); enumerates the distinct stage keys of the
//! scenario's grid points; runs every stage once per key on a
//! `std::thread::scope` worker pool; composes each grid point's row
//! from the stage outputs; and drops the scenario's trees before the
//! next scenario starts. Each stage runs once for the axes it reads:
//!
//! | stage | runs once per (within a scenario) | reads |
//! |---|---|---|
//! | maintenance ([`maintain_tree_sequence`]) | policy × granted `h_t` (rebuild: policy only) | the clouds; the granted `h_t` as the refit `check_height` |
//! | search ([`search_stream`]) | distinct tree sequence × granted `h_t` × PEs × tree banks × `h_e` | the trees, the queries, radius and `k`, descendant reuse |
//! | aggregation ([`aggregate_stream`]) | search key × aggregation elision | the search key's neighbor sets, the Point Buffer |
//! | compose ([`compose_stream`]) | grid point | the counters above, the maintenance costs, DRAM bandwidth, the energy model |
//!
//! The tree-KiB axis reaches the stream only through the `h_t` grant
//! (the Sec 3.3 feasibility clamp against frame 0's tree). The search
//! stage reads the *trees* of a maintained sequence, not its policy:
//! refit ≡ rebuild makes every sequence of a scenario hold the same
//! trees in the common case, so one search serves them all and the
//! other sequences are kept only for their cost vectors. Duplicate
//! points can tie a median, though, and a refit then keeps a valid tree
//! laid out differently from a fresh build — so the runner compares the
//! sequences node for node ([`KdTree::same_nodes`]) and searches each
//! distinct one, instead of assuming they match. Each search job also
//! runs the aggregation for every aggregation-elision value of the spec
//! and derives recall, digest and neighbor count, then drops its
//! neighbor sets.
//!
//! # Determinism
//!
//! The report is a pure function of the spec, whatever the worker count:
//! stage keys are enumerated before the pool starts, so each runs
//! exactly once; every stage is single-threaded, seeded and entirely
//! modeled (no wall-clock anywhere); workers claim jobs by atomic index
//! but write each output into its own pre-allocated slot; and rows are
//! assembled in grid order. Two runs — or a 1-worker and an N-worker run
//! — therefore serialize to byte-identical JSON, which is what lets the
//! CI gate compare reports with an exact comparator.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crescent::workload::{Frame, FrameStream};
use crescent_accel::{
    aggregate_stream, compose_stream, maintain_tree_sequence, search_stream, AcceleratorConfig,
    AggregationReport, FrameSearch, MaintainedTree, MaintenanceCost, StreamSearchConfig,
    TreeMaintenance,
};
use crescent_kdtree::KdTree;
use crescent_pointcloud::{Neighbor, OracleIndex, Point3, PointCloud};

use crate::fnv::Fnv1a;
use crate::report::{SweepReport, SweepRow};
use crate::spec::{maintenance_label, SweepPoint, SweepSpec};
use crate::timings::RunTimings;

/// Exact neighbor-index sets (sorted) per frame per query — the recall
/// oracle, computed once per scenario by brute force.
type ExactSets = Vec<Vec<Vec<usize>>>;

/// Maintenance-stage key: the policy variant, its rebuild threshold's
/// bit pattern (only identity matters), and — for refit only — the
/// granted `h_t` (the refit validator's `check_height`). Rebuild
/// sequences are height-independent, so they key `h_t` as 0.
type MaintainKey = (bool, u64, usize);

fn maintain_key(maintenance: TreeMaintenance, granted_h_t: usize) -> MaintainKey {
    match maintenance {
        TreeMaintenance::RebuildEveryFrame => (false, 0, 0),
        TreeMaintenance::Refit { rebuild_threshold } => {
            (true, rebuild_threshold.to_bits(), granted_h_t)
        }
    }
}

/// Search-stage key: the distinct tree sequence, granted `h_t`, PE
/// count, tree banks, `h_e` (radius, neighbor cap and descendant reuse
/// are fixed within a scenario).
type SearchKey = (usize, usize, usize, usize, usize);

/// The distinct keys of one stage in first-seen order, each remembered
/// with the first plan that produced it (the plan the stage job reads
/// its inputs from).
struct Keys<K> {
    index: HashMap<K, usize>,
    first: Vec<usize>,
}

impl<K: Eq + Hash> Keys<K> {
    fn new() -> Self {
        Keys { index: HashMap::new(), first: Vec::new() }
    }

    /// The stage-output slot of `key`, assigning the next one on first
    /// sight.
    fn slot(&mut self, key: K, plan: usize) -> usize {
        *self.index.entry(key).or_insert_with(|| {
            self.first.push(plan);
            self.first.len() - 1
        })
    }
}

/// One grid point's place in the cascade: its validated configuration,
/// its granted `h_t`, and the slot of the maintenance output it is
/// composed from (its search slot is known only once the maintained
/// trees can be compared).
struct Plan<'a> {
    point: &'a SweepPoint,
    config: AcceleratorConfig,
    top_height_used: usize,
    maintain: usize,
}

/// The search stage's output for one search key. The neighbor sets are
/// already reduced to these columns and dropped.
struct SearchOut {
    frames: Vec<FrameSearch>,
    /// Per-frame aggregation reports, indexed by the aggregation-elision
    /// flag (`None` for a value the spec never uses).
    aggregated: [Option<Vec<AggregationReport>>; 2],
    neighbors: usize,
    recall: f64,
    digest: u64,
}

/// A reasonable worker count for the local machine, capped so the quick
/// sweep (and the serve grid, which re-exports this) does not
/// oversubscribe CI runners.
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(8)
}

/// Execution statistics of one sweep run — operational facts about the
/// run itself, deliberately kept OUT of the report bytes (the report is
/// a pure function of the spec; these are not).
#[derive(Clone, Copy, Debug)]
pub struct SweepRunStats {
    /// Grid points simulated (the whole grid).
    pub points: usize,
    /// The **effective** worker count: the requested pool clamped to
    /// the point count — what the CLI reports, so "8 workers" is never
    /// printed for a 4-point run.
    pub workers: usize,
    /// Search passes executed: exactly one per distinct search key of
    /// each scenario, whatever the worker count.
    pub search_passes: usize,
    /// Total **wall-clock** nanoseconds spent in the serial scenario
    /// prologue (frame rendering + recall oracle + frame 0's tree). A
    /// measured quantity — it lives here and in the `--timings` sidecar
    /// precisely because it can never live in the report bytes.
    pub setup_nanos: u64,
    /// Total **wall-clock** nanoseconds of the maintenance stage, summed
    /// across workers. Measured, never part of the report.
    pub maintain_nanos: u64,
    /// Total **wall-clock** nanoseconds of the search stage (search,
    /// aggregation, recall and digest), summed across workers.
    pub search_nanos: u64,
    /// Total **wall-clock** nanoseconds of the compose step — the
    /// per-point clocks of the `--timings` sidecar — summed across
    /// workers.
    pub point_nanos: u64,
}

/// Runs the full sweep on `workers` OS threads and returns the report.
///
/// Fails (with a message naming the offending axis or grid point) if the
/// spec does not validate; never panics on a validated spec.
pub fn run_sweep(spec: &SweepSpec, workers: usize) -> Result<SweepReport, String> {
    run_sweep_timed(spec, workers).map(|(report, ..)| report)
}

/// [`run_sweep`], also returning the run's execution statistics and its
/// wall-clock measurements ([`RunTimings`]) — the `repro sweep
/// --timings` sidecar's data source. The report bytes are identical to
/// [`run_sweep`]'s: timing is observed, never fed back.
pub fn run_sweep_timed(
    spec: &SweepSpec,
    workers: usize,
) -> Result<(SweepReport, SweepRunStats, RunTimings), String> {
    spec.validate()?;
    let (rows, stats, timings) = run_points(spec, workers);
    Ok((SweepReport { spec: spec.clone(), rows }, stats, timings))
}

/// Simulates every point of the expanded grid scenario by scenario and
/// returns their rows in grid order, plus the run's wall-clock
/// measurements. The clocks only *observe* the run (each measurement
/// brackets work that happens regardless), so the rows — and therefore
/// the report bytes — cannot depend on them.
fn run_points(spec: &SweepSpec, workers: usize) -> (Vec<SweepRow>, SweepRunStats, RunTimings) {
    let run_start = Instant::now();
    let points = spec.expand();
    let workers = workers.clamp(1, points.len().max(1));
    let mut stats = SweepRunStats {
        points: points.len(),
        workers,
        search_passes: 0,
        setup_nanos: 0,
        maintain_nanos: 0,
        search_nanos: 0,
        point_nanos: 0,
    };
    let mut timings = RunTimings::default();
    let mut rows = Vec::with_capacity(points.len());
    // the scenario is the outermost grid axis, so the grid holds each
    // scenario's points as one contiguous run
    for scenario_points in points.chunk_by(|a, b| a.scenario_idx == b.scenario_idx) {
        run_scenario(spec, scenario_points, workers, &mut rows, &mut stats, &mut timings);
    }
    timings.total_nanos = run_start.elapsed().as_nanos() as u64;
    stats.setup_nanos = timings.setup_nanos();
    stats.point_nanos = timings.point_nanos();
    (rows, stats, timings)
}

/// Runs the cascade for the points of one scenario, appending their rows
/// (in the given order) and accounting the stages in `stats` and
/// `timings`. Everything the scenario allocates — frames, oracle, trees,
/// stage outputs — is dropped on return.
fn run_scenario(
    spec: &SweepSpec,
    points: &[SweepPoint],
    workers: usize,
    rows: &mut Vec<SweepRow>,
    stats: &mut SweepRunStats,
    timings: &mut RunTimings,
) {
    // ---- setup: everything no architecture knob can change ----
    let setup_start = Instant::now();
    let scenario = points[0].scenario;
    let mut wcfg = spec.workload;
    wcfg.scenario = scenario;
    let frames: Vec<Frame> = FrameStream::new(&wcfg).collect();
    let exact = exact_baseline(&frames, wcfg.radius, wcfg.max_neighbors);
    let tree0 = KdTree::build(&frames[0].cloud);
    timings.setup.push((scenario.label().to_string(), setup_start.elapsed().as_nanos() as u64));

    // ---- plan: every point's maintenance key ----
    let mut maintain_keys: Keys<MaintainKey> = Keys::new();
    let plans: Vec<Plan> = points
        .iter()
        .enumerate()
        .map(|(i, point)| {
            let config = point.config().expect("spec validation checked every grid point");
            // the requested h_t, clamped into the Sec 3.3 feasibility
            // range of the point's tree buffer against frame 0's tree
            let top_height_used = match config.top_height_range(tree0.height()) {
                Some((lo, hi)) => point.top_height.clamp(lo, hi),
                None => point.top_height,
            };
            Plan {
                point,
                config,
                top_height_used,
                maintain: maintain_keys.slot(maintain_key(point.maintenance, top_height_used), i),
            }
        })
        .collect();

    // ---- maintenance: one sequence per key, kept once per distinct tree content ----
    let clouds: Vec<&PointCloud> = frames.iter().map(|f| &f.cloud).collect();
    let maintained = par_map(&maintain_keys.first, workers, |_, &p| {
        let plan = &plans[p];
        maintain_tree_sequence(&clouds, plan.point.maintenance, plan.top_height_used)
    });
    let mut costs: Vec<Vec<MaintenanceCost>> = Vec::with_capacity(maintained.len());
    let mut tree_sets: Vec<Vec<MaintainedTree>> = Vec::new();
    let mut tree_set_of: Vec<usize> = Vec::with_capacity(maintained.len());
    for (seq, nanos) in maintained {
        stats.maintain_nanos += nanos;
        costs.push(seq.iter().map(|m| m.cost).collect());
        let known = tree_sets.iter().position(|set| same_trees(set, &seq));
        tree_set_of.push(known.unwrap_or_else(|| {
            tree_sets.push(seq);
            tree_sets.len() - 1
        }));
    }

    // ---- search + aggregation: one pass per search key ----
    let mut search_keys: Keys<SearchKey> = Keys::new();
    let search_slots: Vec<usize> = plans
        .iter()
        .enumerate()
        .map(|(i, plan)| {
            let point = plan.point;
            let key = (
                tree_set_of[plan.maintain],
                plan.top_height_used,
                point.num_pes,
                point.tree_banks,
                point.elision_depth,
            );
            search_keys.slot(key, i)
        })
        .collect();
    stats.search_passes += search_keys.first.len();
    let inputs: Vec<(&PointCloud, &[Point3])> =
        frames.iter().map(|f| (&f.cloud, f.queries.as_slice())).collect();
    let searched = par_map(&search_keys.first, workers, |_, &p| {
        let plan = &plans[p];
        let trees = &tree_sets[tree_set_of[plan.maintain]];
        let search = StreamSearchConfig {
            radius: spec.workload.radius,
            max_neighbors: spec.workload.max_neighbors,
            maintenance: plan.point.maintenance,
            elision_depth: plan.point.elision_depth,
            // scenario-derived, like the stream facade: only the
            // descendant-reuse workload turns the salvage knob on, so
            // every other scenario's rows stay on the stall/elide-only
            // model
            descendant_reuse: scenario.descendant_reuse(),
        };
        let (sets, frames) =
            search_stream(&inputs, trees, &search, plan.top_height_used, &plan.config);
        let aggregate = |elide: bool| {
            spec.aggregation_elision
                .contains(&elide)
                .then(|| aggregate_stream(&sets, plan.config.point_buffer, elide))
        };
        SearchOut {
            aggregated: [aggregate(false), aggregate(true)],
            neighbors: frames.iter().map(|f| f.neighbors).sum(),
            recall: recall(&sets, &exact),
            digest: digest(&sets),
            frames,
        }
    });
    drop(tree_sets);
    let searched: Vec<SearchOut> = searched
        .into_iter()
        .map(|(out, nanos)| {
            stats.search_nanos += nanos;
            out
        })
        .collect();

    // ---- compose: one row per point, in the given order ----
    let composed = par_map(&plans, workers, |i, plan| {
        let search = &searched[search_slots[i]];
        compose_row(plan, frames.len(), &costs[plan.maintain], search)
    });
    for ((row, nanos), plan) in composed.into_iter().zip(&plans) {
        timings.points.push((plan.point.index, nanos));
        rows.push(row);
    }
}

/// The worker pool behind every sweep stage and every serve grid point:
/// maps `f` over `items` (with each item's position) on up to `workers`
/// scoped threads (clamped to `1..=items.len()`).
///
/// Workers claim items by atomic index and write each output into the
/// item's own slot, so the outputs come back in input order whatever the
/// worker count — each with the wall-clock nanoseconds `f` took on it.
/// A pure `f` therefore yields the same outputs at any worker count;
/// only the clocks vary.
///
/// ```
/// use crescent_explorer::runner::par_map;
///
/// let squares = par_map(&[1u64, 2, 3], 2, |i, &x| (i, x * x));
/// let outputs: Vec<(usize, u64)> = squares.into_iter().map(|(out, _nanos)| out).collect();
/// assert_eq!(outputs, vec![(0, 1), (1, 4), (2, 9)]);
/// ```
pub fn par_map<T: Sync, R: Send>(
    items: &[T],
    workers: usize,
    f: impl Fn(usize, &T) -> R + Sync,
) -> Vec<(R, u64)> {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<(R, u64)>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers.clamp(1, items.len().max(1)) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let start = Instant::now();
                let out = f(i, item);
                let nanos = start.elapsed().as_nanos() as u64;
                *slots[i].lock().expect("stage slot poisoned") = Some((out, nanos));
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("stage slot poisoned").expect("every job completed"))
        .collect()
}

/// Whether two maintained sequences hold the same tree in every frame.
fn same_trees(a: &[MaintainedTree], b: &[MaintainedTree]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.tree.same_nodes(&y.tree))
}

/// The compose step of one grid point: [`compose_stream`] over its
/// search key's counters, its aggregation-elision value's gather
/// reports and its maintenance key's costs, then the report row.
fn compose_row(
    plan: &Plan,
    frames: usize,
    costs: &[MaintenanceCost],
    search: &SearchOut,
) -> SweepRow {
    let point = plan.point;
    let aggregated = search.aggregated[usize::from(point.aggregation_elision)]
        .as_deref()
        .expect("the search stage aggregated every elision value of the spec");
    let report = compose_stream(&search.frames, aggregated, costs, &plan.config);
    SweepRow {
        index: point.index,
        scenario: point.scenario.label(),
        maintenance: maintenance_label(point.maintenance),
        num_pes: point.num_pes,
        tree_kb: point.tree_kb,
        tree_banks: point.tree_banks,
        dram_bytes_per_cycle: point.dram_bytes_per_cycle,
        aggregation_elision: point.aggregation_elision,
        top_height: point.top_height,
        elision_depth: point.elision_depth,
        descendant_reuse: point.scenario.descendant_reuse(),
        top_height_used: plan.top_height_used,
        frames,
        queries: report.total_queries(),
        neighbors: search.neighbors,
        pipelined_cycles: report.pipelined_cycles,
        serial_cycles: report.serial_cycles,
        build_cycles: report.total_build_cycles(),
        dram_bytes: report.total_dram_bytes(),
        mean_reuse: report.mean_reuse_fraction(),
        arb_rounds: report.total_arb_rounds(),
        bank_conflicts: report.total_bank_conflicts(),
        conflict_stall_cycles: report.total_conflict_stall_cycles(),
        elided_conflicts: report.total_elided_conflicts(),
        conflict_reuses: report.total_conflict_reuses(),
        agg_cycles: report.total_agg_cycles(),
        agg_elided: report.total_agg_elided(),
        full_rebuilds: report.frames.iter().filter(|f| f.maintenance.full_rebuild).count(),
        subtrees_rebuilt: report.frames.iter().map(|f| f.maintenance.subtrees_rebuilt).sum(),
        energy: report.energy(),
        recall: search.recall,
        digest: search.digest,
    }
}

/// Exact neighbor sets for every query of every frame, reduced to sorted
/// index sets (membership is what recall needs).
///
/// Solved through the incremental [`OracleIndex`] instead of a per-frame
/// naive scan: the grid is built on frame 0 and advanced frame to frame
/// (patched for exactly-rigid frames, rebuilt otherwise), and each query
/// scans only the cells overlapping its search ball — with answers
/// bit-identical to `radius_search_bruteforce`, so nothing about the
/// recall or digest columns can move. One hits buffer is recycled across
/// all queries of the scenario.
fn exact_baseline(frames: &[Frame], radius: f32, max_neighbors: Option<usize>) -> ExactSets {
    let mut oracle: Option<OracleIndex> = None;
    let mut hits: Vec<Neighbor> = Vec::new();
    frames
        .iter()
        .map(|frame| {
            match oracle.as_mut() {
                None => oracle = Some(OracleIndex::build(&frame.cloud, radius)),
                Some(o) => {
                    o.advance(&frame.cloud);
                }
            }
            let oracle = oracle.as_ref().expect("oracle built on first frame");
            frame
                .queries
                .iter()
                .map(|&q| {
                    oracle.radius_search_into(q, max_neighbors, &mut hits);
                    let mut idx: Vec<usize> = hits.iter().map(|n| n.index).collect();
                    idx.sort_unstable();
                    idx
                })
                .collect()
        })
        .collect()
}

/// Mean per-query recall of the approximate sets against the exact
/// baseline, over queries whose exact set is non-empty (1.0 for an
/// all-empty workload — there was nothing to miss).
fn recall(approx: &[Vec<Vec<Neighbor>>], exact: &[Vec<Vec<usize>>]) -> f64 {
    let mut sum = 0.0;
    let mut counted = 0usize;
    for (frame_approx, frame_exact) in approx.iter().zip(exact) {
        for (hits, truth) in frame_approx.iter().zip(frame_exact) {
            if truth.is_empty() {
                continue;
            }
            let found = hits.iter().filter(|n| truth.binary_search(&n.index).is_ok()).count();
            sum += found as f64 / truth.len() as f64;
            counted += 1;
        }
    }
    if counted == 0 {
        1.0
    } else {
        sum / counted as f64
    }
}

/// FNV-1a fingerprint of every neighbor set: frame/query structure,
/// per-query result counts, and each neighbor's index and exact distance
/// bits. Equal digests ⇔ bit-identical results (up to 64-bit collision).
fn digest(neighbor_sets: &[Vec<Vec<Neighbor>>]) -> u64 {
    let mut h = Fnv1a::new();
    h.u64(neighbor_sets.len() as u64);
    for frame in neighbor_sets {
        h.u64(frame.len() as u64);
        for hits in frame {
            h.u64(hits.len() as u64);
            for n in hits {
                h.u64(n.index as u64);
                h.u64(n.dist2.to_bits() as u64);
            }
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crescent::workload::FrameStreamConfig;
    use crescent::workload::StreamScenario;
    use crescent_accel::TreeMaintenance;
    use crescent_pointcloud::datasets::LidarSceneConfig;

    /// A 4-point spec small enough for unit tests (the full quick grid
    /// is exercised by `tests/explorer_matrix.rs` at the workspace root).
    fn tiny_spec() -> SweepSpec {
        SweepSpec {
            label: "tiny".to_string(),
            workload: FrameStreamConfig {
                scene: LidarSceneConfig {
                    total_points: 800,
                    num_cars: 2,
                    num_poles: 4,
                    num_walls: 1,
                    half_extent: 20.0,
                    seed: 11,
                },
                num_frames: 3,
                queries_per_frame: 16,
                radius: 0.5,
                max_neighbors: Some(8),
                ..FrameStreamConfig::default()
            },
            scenarios: vec![StreamScenario::Registered],
            maintenance: vec![TreeMaintenance::RebuildEveryFrame, TreeMaintenance::refit()],
            num_pes: vec![2, 4],
            tree_kb: vec![6],
            tree_banks: vec![4],
            dram_bytes_per_cycle: vec![20.48],
            aggregation_elision: vec![true],
            top_heights: vec![3],
            elision_depths: vec![2],
        }
    }

    #[test]
    fn report_is_byte_identical_across_runs_and_worker_counts() {
        let spec = tiny_spec();
        let a = run_sweep(&spec, 1).expect("sweep runs");
        let b = run_sweep(&spec, 1).expect("sweep runs");
        let c = run_sweep(&spec, 4).expect("sweep runs");
        assert_eq!(a.to_json(), b.to_json(), "two runs must match");
        assert_eq!(a.to_json(), c.to_json(), "worker count must not leak into the report");
    }

    #[test]
    fn rows_are_in_grid_order_with_real_metrics() {
        let report = run_sweep(&tiny_spec(), 2).expect("sweep runs");
        assert_eq!(report.rows.len(), 4);
        for (i, row) in report.rows.iter().enumerate() {
            assert_eq!(row.index, i);
            assert!(row.pipelined_cycles > 0);
            assert!(row.pipelined_cycles <= row.serial_cycles);
            assert!(row.dram_bytes > 0);
            assert!(row.energy.total() > 0.0);
            assert!(row.recall > 0.0 && row.recall <= 1.0, "recall {}", row.recall);
            assert!(row.neighbors > 0);
        }
        // more PEs never slow the modeled stream down
        let slow = &report.rows[0]; // 2 PEs, rebuild
        let fast = &report.rows[1]; // 4 PEs, rebuild
        assert_eq!(slow.num_pes, 2);
        assert_eq!(fast.num_pes, 4);
        assert!(fast.pipelined_cycles <= slow.pipelined_cycles);
    }

    #[test]
    fn maintenance_policy_changes_cycles_but_never_results() {
        let report = run_sweep(&tiny_spec(), 2).expect("sweep runs");
        // rows 0..2 are rebuild, rows 2..4 are refit (same PE order)
        for pe in 0..2 {
            let rebuild = &report.rows[pe];
            let refit = &report.rows[2 + pe];
            assert_eq!(rebuild.maintenance, "rebuild");
            assert_eq!(refit.maintenance, "refit");
            assert_eq!(rebuild.num_pes, refit.num_pes);
            assert_eq!(
                rebuild.digest, refit.digest,
                "maintenance must be results-invariant (PE count {})",
                rebuild.num_pes
            );
            assert_eq!(rebuild.recall, refit.recall);
        }
    }

    #[test]
    fn digest_distinguishes_different_results() {
        let a = vec![vec![vec![Neighbor { index: 1, dist2: 0.5 }]]];
        let mut b = a.clone();
        b[0][0][0].index = 2;
        let mut c = a.clone();
        c[0][0][0].dist2 = 0.25;
        assert_ne!(digest(&a), digest(&b));
        assert_ne!(digest(&a), digest(&c));
        assert_eq!(digest(&a), digest(&a.clone()));
        // structure matters: [[x],[]] != [[],[x]]
        let d = vec![vec![vec![Neighbor { index: 1, dist2: 0.5 }], vec![]]];
        let e = vec![vec![vec![], vec![Neighbor { index: 1, dist2: 0.5 }]]];
        assert_ne!(digest(&d), digest(&e));
    }

    #[test]
    fn recall_is_exact_on_matching_sets() {
        let truth: ExactSets = vec![vec![vec![1, 3, 5], vec![]]];
        let hit = |i: usize| Neighbor { index: i, dist2: 0.0 };
        let perfect = vec![vec![vec![hit(1), hit(3), hit(5)], vec![]]];
        assert_eq!(recall(&perfect, &truth), 1.0);
        let partial = vec![vec![vec![hit(1), hit(7)], vec![]]];
        assert!((recall(&partial, &truth) - 1.0 / 3.0).abs() < 1e-12);
        let empty: ExactSets = vec![vec![vec![], vec![]]];
        assert_eq!(recall(&[vec![vec![], vec![]]], &empty), 1.0);
    }

    #[test]
    fn invalid_spec_is_rejected_not_panicked() {
        let mut spec = tiny_spec();
        spec.num_pes = vec![0];
        assert!(run_sweep(&spec, 2).is_err());
    }

    #[test]
    fn clamped_heights_share_one_search_pass() {
        // 6 KiB tree buffer -> the feasibility range caps well below
        // either request, so h_t = 20 and h_t = 30 clamp to the SAME
        // granted height and must share one search pass.
        let mut spec = tiny_spec();
        spec.top_heights = vec![20, 30];
        let (report, stats, _) = run_sweep_timed(&spec, 1).expect("sweep runs");
        assert_eq!(report.rows.len(), 8, "2 policies x 2 PE counts x 2 requested heights");
        let grants: Vec<usize> = report.rows.iter().map(|r| r.top_height_used).collect();
        assert!(
            grants.windows(2).all(|w| w[0] == w[1]),
            "both requests must clamp to one grant: {grants:?}"
        );
        // unique passes = PE counts only: maintenance, aggregation, and
        // the two clamped h_t requests all collapse onto the same key
        assert_eq!(
            stats.search_passes, 2,
            "requested heights clamping to the same grant must not re-run the search"
        );
        // ... and the deduplication is observable in the rows: sibling
        // rows differing only in requested h_t carry identical results
        // (they ARE the same pass)
        for pe_rows in report.rows.chunks(2) {
            assert_eq!(pe_rows[0].digest, pe_rows[1].digest);
            assert_eq!(pe_rows[0].recall, pe_rows[1].recall);
        }
    }

    /// Stage keys are enumerated before the pool starts, so no two
    /// workers can race to run the same key: the pass counts are exact
    /// and equal at every worker count.
    #[test]
    fn every_stage_key_runs_exactly_once_at_any_worker_count() {
        let mut spec = tiny_spec();
        spec.dram_bytes_per_cycle = vec![10.24, 20.48];
        spec.aggregation_elision = vec![false, true];
        spec.elision_depths = vec![0, 2];
        assert_eq!(spec.num_points(), 32);
        let (one, one_stats, _) = run_sweep_timed(&spec, 1).expect("sweep runs");
        let (four, four_stats, _) = run_sweep_timed(&spec, 4).expect("sweep runs");
        assert_eq!(one.to_json(), four.to_json());
        for stats in [one_stats, four_stats] {
            // one grant x 2 PE counts x 1 bank count x 2 h_e
            assert_eq!(stats.search_passes, 4);
        }
    }

    /// The pass counts of the two grids the repository times: the quick
    /// grid and the benchmark's 384-point design-space slice (three
    /// scenarios of the full grid; 2 PE counts, 2 bank counts, 2 `h_t`
    /// requests that clamp to one grant, 2 `h_e`, and maintenance, DRAM
    /// bandwidth and aggregation elision twice each). On the quick grid
    /// every refit sequence holds the rebuild trees, so each scenario
    /// searches 2 × 2 × 2 keys once. On the slice's noise-free
    /// 12k-point scenes a few refit frames keep a tied median in another
    /// heap slot, so each scenario searches two tree sequences: 2 × 8
    /// search keys per scenario instead of 8.
    #[test]
    fn quick_grid_and_dse_slice_run_each_key_once() {
        let mut slice = SweepSpec::full();
        slice.scenarios = StreamScenario::canonical_matrix()
            .into_iter()
            .filter(|s| matches!(s.label(), "registered" | "rotation_burst" | "multi_sensor"))
            .collect();
        slice.num_pes = vec![2, 8];
        slice.tree_kb = vec![6];
        slice.tree_banks = vec![2, 8];
        slice.top_heights = vec![2, 4];
        slice.elision_depths = vec![0, 4];
        assert_eq!(slice.num_points(), 384);
        for (spec, search_passes) in [(SweepSpec::quick(), 80), (slice, 48)] {
            for workers in [1, 4] {
                let (_, stats, _) = run_sweep_timed(&spec, workers).expect("sweep runs");
                assert_eq!(stats.search_passes, search_passes, "{} at {workers}", spec.label);
            }
        }
    }

    #[test]
    fn timings_cover_every_point_without_touching_the_report() {
        let spec = tiny_spec();
        let (report, stats, timings) = run_sweep_timed(&spec, 2).expect("sweep runs");
        // one clock per row, keyed by the row's global grid index
        assert_eq!(timings.points.len(), report.rows.len());
        for ((index, _), row) in timings.points.iter().zip(&report.rows) {
            assert_eq!(*index, row.index);
        }
        // one setup entry per visited scenario, in scenario order
        let labels: Vec<&str> = timings.setup.iter().map(|(s, _)| s.as_str()).collect();
        assert_eq!(labels, vec!["registered"]);
        // the stats totals are the timings totals
        assert_eq!(stats.setup_nanos, timings.setup_nanos());
        assert_eq!(stats.point_nanos, timings.point_nanos());
        assert!(timings.total_nanos >= timings.setup_nanos());
        // observing the clock must not perturb the bytes
        let untimed = run_sweep(&spec, 2).expect("sweep runs");
        assert_eq!(report.to_json(), untimed.to_json());
    }

    #[test]
    fn stats_report_the_effective_worker_count() {
        let spec = tiny_spec();
        let (report, stats, _) = run_sweep_timed(&spec, 64).expect("sweep runs");
        assert_eq!(stats.points, report.rows.len());
        assert_eq!(stats.workers, report.rows.len(), "pool clamps to the point count");
        let (_, one, _) = run_sweep_timed(&spec, 1).expect("sweep runs");
        assert_eq!(one.workers, 1);
    }
}
