//! The unified timing model's contract, end to end: the streaming
//! wavefront and the per-query lock-step engine are two schedules of the
//! SAME banked-arbitration hardware, so
//!
//! * at `h_e = 0` (stall-only) the wavefront's neighbor sets are
//!   bit-identical to per-query `search_one` and to the standalone
//!   engine ([`run_crescent_search`]) on every frame of every scenario —
//!   the agreement the design-space sweep relies on to rank the stream
//!   alone;
//! * at every elision level `≥ h_t` (depth `height − level`), with and
//!   without descendant reuse, the wavefront and the per-query search
//!   (`batch_search`) return the same neighbor sets and the same whole
//!   stage-2 `DrainCounters` record;
//! * the engine elides at the level form of the sweep's `h_e = 4`
//!   point (`height − 4`);
//! * raising `h_e` (eliding deeper) never costs stream cycles
//!   (monotonicity) and never invents a neighbor;
//! * the default operating point actually elides, and `h_e = 0`
//!   provably does not — the assertions `examples/streaming_lidar.rs`
//!   doubles as an executable doc for;
//! * training's aggregation-elision rule
//!   ([`apply_aggregation_elision`]) replicates exactly the neighbors a
//!   hand-written Point Buffer rule (bank `i % banks`, first index per
//!   bank wins) replaces, and the timed gather
//!   ([`simulate_aggregation`]) elides that many, so the accuracy and the
//!   timing of aggregation elision describe one hardware rule.

use crescent::accel::{
    run_crescent_search, run_frame_stream, simulate_aggregation, AcceleratorConfig,
    StreamSearchConfig,
};
use crescent::kdtree::{
    BatchSearchConfig, BatchState, ElisionConfig, KdTree, SplitSearchConfig, SplitTree,
};
use crescent::memsim::SramConfig;
use crescent::models::apply_aggregation_elision;
use crescent::workload::{FrameStream, FrameStreamConfig, StreamScenario};
use crescent::CrescentKnobs;
use crescent_pointcloud::{Point3, PointCloud};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn stream_cfg(scenario: StreamScenario) -> FrameStreamConfig {
    let mut cfg = FrameStreamConfig::default();
    cfg.scene.total_points = 4_000;
    cfg.scene.seed = 0xE11D;
    cfg.num_frames = 5;
    cfg.queries_per_frame = 96;
    cfg.radius = 0.5;
    cfg.max_neighbors = Some(16);
    cfg.scenario = scenario;
    cfg
}

fn borrowed(frames: &[(PointCloud, Vec<Point3>)]) -> Vec<(&PointCloud, &[Point3])> {
    frames.iter().map(|(c, q)| (c, q.as_slice())).collect()
}

#[test]
fn h_e_zero_matches_search_one_and_engine_rounds_on_every_scenario() {
    let accel = AcceleratorConfig::default();
    let (pes, banks) = (accel.num_pes, accel.tree_buffer.num_banks);
    // the engine at a level threshold: usize::MAX is stall-only
    let engine_at = |level: usize| AcceleratorConfig {
        search_elision: Some(ElisionConfig::new(level, banks)),
        ..accel
    };
    for scenario in StreamScenario::canonical_matrix() {
        let cfg = stream_cfg(scenario);
        let mut state = BatchState::new();
        let mut registered_elided = 0;
        for frame in FrameStream::new(&cfg) {
            let tree = KdTree::build(&frame.cloud);
            let ht = CrescentKnobs::default().top_height.min(tree.height().saturating_sub(1));
            let split = SplitTree::new(&tree, ht).unwrap();

            // the wavefront at h_e = 0: banked, stall-only
            let wave_cfg = BatchSearchConfig::banked(cfg.radius, cfg.max_neighbors, pes, banks, 0);
            let (wave, wstats) = split.search_batch(&frame.queries, &wave_cfg, &mut state);

            // (a) bit-identical to the per-query oracle
            for (qi, &q) in frame.queries.iter().enumerate() {
                let single = split.search_one(q, cfg.radius, cfg.max_neighbors);
                assert_eq!(
                    wave[qi],
                    single,
                    "{}: frame {} query {qi}",
                    scenario.label(),
                    frame.index
                );
            }
            assert_eq!(wstats.subtree.elided, 0, "{}", scenario.label());
            assert_eq!(wstats.subtree.skipped, 0, "{}", scenario.label());

            // (b) the two searches agree at every elision level at
            // or below the split (level >= h_t, depth = height - level;
            // usize::MAX is the stall-only level): stage 1 then only
            // stalls, so it routes exactly like the wavefront, and both
            // searches drain IDENTICAL queues through the shared lock-step
            // simulation — same neighbor sets and the same stage-2
            // counter record, with and without descendant reuse. Above
            // h_t the per-query search elides or reroutes top-tree
            // fetches and the two diverge (ROADMAP item 3).
            let levels = (ht..=tree.height()).chain([usize::MAX]);
            for (level, reuse) in levels.flat_map(|l| [(l, false), (l, true)]) {
                let depth = tree.height().saturating_sub(level);
                let wave_cfg =
                    BatchSearchConfig::banked(cfg.radius, cfg.max_neighbors, pes, banks, depth)
                        .with_descendant_reuse(reuse);
                let (wave_at, wstats_at) =
                    split.search_batch(&frame.queries, &wave_cfg, &mut BatchState::new());
                let elision = if reuse {
                    ElisionConfig::with_descendant_reuse(level, banks)
                } else {
                    ElisionConfig::new(level, banks)
                };
                let engine_cfg = SplitSearchConfig {
                    radius: cfg.radius,
                    max_neighbors: cfg.max_neighbors,
                    num_pes: pes,
                    elision: Some(elision),
                };
                let (engine, estats) = split.batch_search(&frame.queries, &engine_cfg);
                let at = format!(
                    "{}: frame {} level {level} (depth {depth}) reuse {reuse}",
                    scenario.label(),
                    frame.index
                );
                assert_eq!(engine, wave_at, "{at}");
                assert_eq!(
                    wstats_at.subtree, estats.subtree,
                    "{at} — the two models must count the same stage-2 arbitration"
                );
                if depth == 0 {
                    assert_eq!(wave_at, wave, "{at}");
                    assert_eq!(estats.total().elided, 0, "{at}");
                }
            }

            // (c) the standalone engine the figures run agrees with the
            // wavefront at h_e = 0
            let search = |level: usize| {
                let (sets, report) = run_crescent_search(
                    &tree,
                    ht,
                    &frame.queries,
                    cfg.radius,
                    cfg.max_neighbors,
                    &engine_at(level),
                );
                (sets, report.stats.total().elided)
            };
            let (stall_only, elided) = search(usize::MAX);
            assert_eq!(stall_only, wave, "{}: frame {}", scenario.label(), frame.index);
            assert_eq!(elided, 0, "{}", scenario.label());
            if scenario == StreamScenario::Registered {
                // the sweep's h_e = 4 in the engine's level form
                registered_elided += search(tree.height() - 4).1;
            }
        }
        if scenario == StreamScenario::Registered {
            assert!(registered_elided > 0, "the engine must elide at level height - 4");
        }
    }
}

#[test]
fn stream_cycles_are_non_increasing_in_h_e() {
    // elision monotonicity on the full streaming driver: deepening the
    // elision window converts stalls into drops and sheds subtree work,
    // so pipelined cycles can only go down (DMA is h_e-invariant: the
    // sub-trees still stream from DRAM once per batch either way)
    let accel = AcceleratorConfig::default();
    for scenario in StreamScenario::canonical_matrix() {
        let cfg = stream_cfg(scenario);
        let frames: Vec<(PointCloud, Vec<Point3>)> =
            FrameStream::new(&cfg).map(|f| (f.cloud, f.queries)).collect();
        let mut prev_cycles = u64::MAX;
        let mut prev_neighbors = usize::MAX;
        for depth in [0usize, 2, 4, 8, 32] {
            let search = StreamSearchConfig {
                radius: cfg.radius,
                max_neighbors: cfg.max_neighbors,
                elision_depth: depth,
                ..StreamSearchConfig::default()
            };
            let (results, rep) =
                run_frame_stream(&borrowed(&frames), &search, CrescentKnobs::default(), &accel);
            assert!(
                rep.pipelined_cycles <= prev_cycles,
                "{}: h_e {depth} costs {} cycles > previous {prev_cycles}",
                scenario.label(),
                rep.pipelined_cycles
            );
            let neighbors: usize = results.iter().flatten().map(Vec::len).sum();
            assert!(
                neighbors <= prev_neighbors,
                "{}: h_e {depth} found MORE neighbors ({neighbors} > {prev_neighbors})",
                scenario.label()
            );
            if depth == 0 {
                assert_eq!(rep.total_elided_conflicts(), 0, "{}", scenario.label());
            }
            prev_cycles = rep.pipelined_cycles;
            prev_neighbors = neighbors;
        }
    }
}

#[test]
fn default_depth_elides_and_zero_depth_does_not() {
    let accel = AcceleratorConfig::default();
    let cfg = stream_cfg(StreamScenario::Registered);
    let frames: Vec<(PointCloud, Vec<Point3>)> =
        FrameStream::new(&cfg).map(|f| (f.cloud, f.queries)).collect();
    let run = |depth: usize| {
        let search = StreamSearchConfig {
            radius: cfg.radius,
            max_neighbors: cfg.max_neighbors,
            elision_depth: depth,
            ..StreamSearchConfig::default()
        };
        run_frame_stream(&borrowed(&frames), &search, CrescentKnobs::default(), &accel).1
    };
    let default_depth = StreamSearchConfig::default().elision_depth;
    assert!(default_depth > 0, "the default operating point elides");
    let at_default = run(default_depth);
    let exact = run(0);
    assert!(at_default.total_elided_conflicts() > 0, "default h_e must elide on a real stream");
    assert_eq!(exact.total_elided_conflicts(), 0, "h_e = 0 must never elide");
    assert!(exact.total_bank_conflicts() > 0, "conflicts still happen — they just stall");
    assert!(at_default.pipelined_cycles <= exact.pipelined_cycles);
    // aggregation elision is its own knob: switching it off serializes
    // gathers and can only add cycles, without touching any result
    let mut no_agg = accel;
    no_agg.aggregation_elision = false;
    let search = StreamSearchConfig {
        radius: cfg.radius,
        max_neighbors: cfg.max_neighbors,
        ..StreamSearchConfig::default()
    };
    let mut agg_on = accel;
    agg_on.aggregation_elision = true;
    let (r_off, rep_off) =
        run_frame_stream(&borrowed(&frames), &search, CrescentKnobs::default(), &no_agg);
    let (r_on, rep_on) =
        run_frame_stream(&borrowed(&frames), &search, CrescentKnobs::default(), &agg_on);
    assert_eq!(r_off, r_on, "aggregation elision must never change neighbor sets");
    assert!(rep_on.total_agg_cycles() <= rep_off.total_agg_cycles());
    assert!(rep_on.total_agg_elided() > 0);
    assert_eq!(rep_off.total_agg_elided(), 0);
}

/// The Point Buffer's replication rule written out by hand, one issue
/// group at a time: neighbor index `i` sits in bank `i % banks`, the
/// group's first index in a bank wins it, and every later index in that
/// bank is replaced by the winner. Returns the replicated lists and the
/// number of replaced slots.
fn reference_replication(lists: &[Vec<usize>], banks: usize) -> (Vec<Vec<usize>>, u64) {
    let mut replaced = 0;
    let mut out = lists.to_vec();
    for chunk in out.iter_mut().flat_map(|list| list.chunks_mut(banks)) {
        let mut winner_of_bank: Vec<Option<usize>> = vec![None; banks];
        for slot in chunk {
            match winner_of_bank[*slot % banks] {
                None => winner_of_bank[*slot % banks] = Some(*slot),
                Some(winner) => {
                    *slot = winner;
                    replaced += 1;
                }
            }
        }
    }
    (out, replaced)
}

#[test]
fn aggregation_elision_replicates_exactly_what_the_point_buffer_elides() {
    // training rewrites neighbor lists with `apply_aggregation_elision`;
    // the accelerator times the same gathers on `BankedSram`. Both must
    // pick the same losers and hand each the same winner's neighbor, on
    // power-of-two bank counts (shift/mask bank decode) and others
    // (`SramConfig::bank_of`'s div/mod) alike.
    let mut rng = StdRng::seed_from_u64(0xA66);
    for banks in [1usize, 2, 4, 8, 16, 3, 6, 12] {
        let sram = SramConfig { num_banks: banks, word_bytes: 4, capacity_bytes: 64 << 10 };
        let lists: Vec<Vec<usize>> = (0..40)
            .map(|_| {
                let len = rng.random_range(0..3 * banks + 2);
                let span = rng.random_range(1..4 * banks + 1);
                (0..len).map(|_| rng.random_range(0..span)).collect()
            })
            .collect();

        let mut replicated = lists.clone();
        apply_aggregation_elision(&mut replicated, banks);
        let (want, replaced) = reference_replication(&lists, banks);
        for ((list, got), want) in lists.iter().zip(&replicated).zip(&want) {
            assert_eq!(got, want, "banks {banks}: list {list:?}");
        }
        let timed = simulate_aggregation(&lists, sram, banks, true);
        assert_eq!(timed.elided, replaced, "banks {banks}: replaced-slot count");
        if banks > 1 {
            assert!(replaced > 0, "banks {banks}: the random lists must conflict");
        }
    }
}
