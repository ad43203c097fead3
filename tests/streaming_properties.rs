//! Property-based invariants of the streaming engine's corrected timing
//! model (proptest): the pipeline fill is charged exactly once per
//! stream, the serial-vs-pipelined gap decomposes exactly into hidden
//! fills plus overlapped build work, and the incremental refit policy is
//! bit-identical to rebuild-every-frame on drifting streams.
//!
//! One property pins the sweep explorer's stage cascade on
//! [`ScenarioGen`] streams: a search-and-aggregation output shared the
//! way the explorer shares it (per distinct tree sequence), composed
//! under random maintenance / DRAM-bandwidth / aggregation-elision
//! points, equals a direct `run_frame_stream` field for field.

use proptest::prelude::*;

use crescent::accel::{
    aggregate_stream, compose_stream, maintain_tree_sequence, run_frame_stream, search_stream,
    AcceleratorConfig, MaintainedTree, MaintenanceCost, StreamSearchConfig, TreeMaintenance,
    PE_PIPELINE_DEPTH,
};
use crescent::kdtree::{KdTree, RefitConfig, RefitOutcome};
use crescent::pointcloud::{Point3, PointCloud};
use crescent::testgen::ScenarioGen;
use crescent::workload::{Frame, FrameStream};
use crescent::CrescentKnobs;

/// Scenario streams small enough for a debug-profile property run.
fn small_streams() -> ScenarioGen {
    ScenarioGen { max_points: 1_200, max_frames: 5, max_queries: 48 }
}

fn policy(refit: bool) -> TreeMaintenance {
    if refit {
        TreeMaintenance::refit()
    } else {
        TreeMaintenance::RebuildEveryFrame
    }
}

/// A random base cloud of 32..150 points in a 4-unit box.
fn arb_cloud() -> impl Strategy<Value = PointCloud> {
    prop::collection::vec((-2.0f32..2.0, -2.0f32..2.0, -2.0f32..2.0), 32..150)
        .prop_map(|v| v.into_iter().map(|(x, y, z)| Point3::new(x, y, z)).collect())
}

/// Per-frame drift translations: each frame shifts the whole cloud by a
/// small random step (rigid translation — the order-preserving coherence
/// class refit guarantees bit-identity on).
fn arb_drifts() -> impl Strategy<Value = Vec<Point3>> {
    prop::collection::vec((-0.05f32..0.05, -0.05f32..0.05, -0.02f32..0.02), 1..6)
        .prop_map(|v| v.into_iter().map(|(x, y, z)| Point3::new(x, y, z)).collect())
}

/// Materializes the frame sequence: frame f is the base cloud translated
/// by the cumulative drift, querying every 4th point.
fn make_frames(base: &PointCloud, drifts: &[Point3]) -> Vec<(PointCloud, Vec<Point3>)> {
    let mut offset = Point3::ZERO;
    drifts
        .iter()
        .map(|&d| {
            offset += d;
            let cloud: PointCloud = base.iter().map(|&p| p + offset).collect();
            let queries: Vec<Point3> = cloud.iter().copied().step_by(4).collect();
            (cloud, queries)
        })
        .collect()
}

fn borrow(frames: &[(PointCloud, Vec<Point3>)]) -> Vec<(&PointCloud, &[Point3])> {
    frames.iter().map(|(c, q)| (c, q.as_slice())).collect()
}

fn run(
    frames: &[(PointCloud, Vec<Point3>)],
    maintenance: TreeMaintenance,
) -> (Vec<Vec<Vec<crescent::pointcloud::Neighbor>>>, crescent::accel::StreamReport) {
    let search = StreamSearchConfig {
        radius: 0.4,
        max_neighbors: Some(16),
        maintenance,
        ..StreamSearchConfig::default()
    };
    run_frame_stream(
        &borrow(frames),
        &search,
        CrescentKnobs::default(),
        &AcceleratorConfig::default(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A 1-frame stream has nothing to overlap: pipelined == serial.
    #[test]
    fn one_frame_stream_has_no_overlap_benefit(
        base in arb_cloud(),
        dx in -0.1f32..0.1,
    ) {
        let frames = make_frames(&base, &[Point3::new(dx, 0.0, 0.0)]);
        let (_, rep) = run(&frames, TreeMaintenance::RebuildEveryFrame);
        prop_assert_eq!(rep.pipelined_cycles, rep.serial_cycles);
        prop_assert_eq!(rep.overlapped_build_cycles, 0);
    }

    /// For every stream, the serial-vs-pipelined gap is EXACTLY
    /// (frames − 1) fills plus the build cycles hidden behind search:
    /// the fill is charged once per stream, once per standalone frame,
    /// and nowhere else.
    #[test]
    fn fill_is_charged_exactly_once_per_stream(
        base in arb_cloud(),
        drifts in arb_drifts(),
    ) {
        for maintenance in [TreeMaintenance::RebuildEveryFrame, TreeMaintenance::refit()] {
            let frames = make_frames(&base, &drifts);
            let (_, rep) = run(&frames, maintenance);
            let n = frames.len() as u64;
            prop_assert_eq!(
                rep.serial_cycles - rep.pipelined_cycles,
                (n - 1) * PE_PIPELINE_DEPTH + rep.overlapped_build_cycles
            );
            let build: u64 = rep.frames.iter().map(|f| f.build_slot_cycles).sum();
            let search: u64 = rep.frames.iter().map(|f| f.slot_cycles).sum();
            prop_assert!(rep.overlapped_build_cycles <= build);
            prop_assert_eq!(
                rep.serial_cycles,
                build + search + n * PE_PIPELINE_DEPTH
            );
            prop_assert!(rep.pipelined_cycles >= search + PE_PIPELINE_DEPTH);
        }
    }

    /// Refit-vs-rebuild neighbor-set equality across random drifting
    /// streams: the maintenance policy must never change a single result.
    #[test]
    fn refit_and_rebuild_agree_on_drifting_streams(
        base in arb_cloud(),
        drifts in arb_drifts(),
    ) {
        let frames = make_frames(&base, &drifts);
        let (r_rebuild, _) = run(&frames, TreeMaintenance::RebuildEveryFrame);
        let (r_refit, rep) = run(&frames, TreeMaintenance::refit());
        prop_assert_eq!(r_rebuild, r_refit);
        // rigid translations are order-preserving: no fallback after
        // frame 0, and maintenance gets strictly cheaper
        for f in &rep.frames[1..] {
            prop_assert!(!f.maintenance.full_rebuild);
            prop_assert!(f.maintenance.build_cycles > 0);
        }
    }

    /// The refit result is the SAME TREE a fresh build would produce on
    /// order-preserving frames (the guarantee the engine equality rests
    /// on), and an arbitrary same-size cloud never breaks the K-d
    /// invariant — it either refits validly or falls back.
    #[test]
    fn refit_always_leaves_a_valid_tree(
        base in arb_cloud(),
        dx in -0.2f32..0.2,
        dy in -0.2f32..0.2,
    ) {
        let moved: PointCloud = base.iter().map(|&p| p + Point3::new(dx, dy, 0.01)).collect();
        let mut tree = KdTree::build(&base);
        let stats = tree.refit(&moved, &RefitConfig::default());
        prop_assert_eq!(stats.outcome, RefitOutcome::InPlace);
        let fresh = KdTree::build(&moved);
        prop_assert_eq!(tree.nodes(), fresh.nodes());
        prop_assert!(tree.check_invariants());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The sweep explorer's cascade in miniature: ONE search pass per
    /// distinct tree sequence and one aggregation pass per elision value,
    /// composed under random maintenance / DRAM-bandwidth /
    /// aggregation-elision points, equals a direct `run_frame_stream` at
    /// each point — neighbors, every `FrameReport`, the three cycle
    /// totals and the ledger's energy bits.
    #[test]
    fn composed_stages_equal_the_one_shot_stream(
        cfg in small_streams(),
        (pes, log_banks, top_height) in (1usize..9, 0usize..4, 1usize..7),
        points in prop::collection::vec((0usize..2, 2.0f64..64.0, 0usize..2), 1..4),
    ) {
        let frames: Vec<Frame> = FrameStream::new(&cfg).collect();
        let clouds: Vec<&PointCloud> = frames.iter().map(|f| &f.cloud).collect();
        let inputs: Vec<(&PointCloud, &[Point3])> =
            frames.iter().map(|f| (&f.cloud, f.queries.as_slice())).collect();
        let config = |dram: f64, elide: bool| {
            AcceleratorConfig::builder()
                .num_pes(pes)
                .tree_banks(1 << log_banks)
                .dram_stream_bytes_per_cycle(dram)
                .aggregation_elision(elide)
                .build()
                .expect("valid accelerator config")
        };
        let search = StreamSearchConfig {
            radius: cfg.radius,
            max_neighbors: cfg.max_neighbors,
            maintenance: TreeMaintenance::RebuildEveryFrame,
            elision_depth: cfg.elision_depth,
            descendant_reuse: cfg.scenario.descendant_reuse(),
        };
        let knobs = CrescentKnobs { top_height, ..CrescentKnobs::default() };

        // the shared stages, run once per distinct tree sequence (the
        // refit sequence usually holds the rebuild trees node for node)
        let shared = config(20.48, false);
        let stages = |trees: &[MaintainedTree]| {
            let (sets, searched) = search_stream(&inputs, trees, &search, top_height, &shared);
            let aggregated =
                [false, true].map(|elide| aggregate_stream(&sets, shared.point_buffer, elide));
            (sets, searched, aggregated)
        };
        let sequences = [false, true]
            .map(|refit| maintain_tree_sequence(&clouds, policy(refit), top_height));
        let same = sequences[0]
            .iter()
            .zip(&sequences[1])
            .all(|(a, b)| a.tree.same_nodes(&b.tree));
        let rebuild_stages = stages(&sequences[0]);
        let refit_stages = if same { None } else { Some(stages(&sequences[1])) };

        for (refit, dram, elide) in points {
            let (sets, searched, aggregated) = match (&refit_stages, refit) {
                (Some(own), 1) => own,
                _ => &rebuild_stages,
            };
            let costs: Vec<MaintenanceCost> = sequences[refit].iter().map(|t| t.cost).collect();
            let point = config(dram, elide == 1);
            let composed = compose_stream(searched, &aggregated[elide], &costs, &point);
            let (direct_sets, direct) = run_frame_stream(
                &inputs,
                &StreamSearchConfig { maintenance: policy(refit == 1), ..search },
                knobs,
                &point,
            );
            prop_assert_eq!(sets, &direct_sets);
            prop_assert_eq!(&composed.frames, &direct.frames);
            prop_assert_eq!(composed.pipelined_cycles, direct.pipelined_cycles);
            prop_assert_eq!(composed.serial_cycles, direct.serial_cycles);
            prop_assert_eq!(composed.overlapped_build_cycles, direct.overlapped_build_cycles);
        }
    }
}
