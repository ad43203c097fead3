//! Integration tests of the streaming multi-frame workload engine: strict
//! determinism (same seed ⇒ bit-identical neighbor sets, cycle counts, and
//! energy totals), batched-equals-per-query search, and the cross-frame
//! accounting invariants.

use crescent::accel::{TreeMaintenance, PE_PIPELINE_DEPTH};
use crescent::kdtree::{BatchSearchConfig, BatchState, KdTree, SplitTree};
use crescent::workload::{EgoMotion, FrameStream, FrameStreamConfig, StreamScenario};
use crescent::Crescent;

fn test_cfg() -> FrameStreamConfig {
    let mut cfg = FrameStreamConfig::default();
    cfg.scene.total_points = 6_000;
    cfg.scene.seed = 0xCAFE;
    cfg.num_frames = 6;
    cfg.queries_per_frame = 96;
    cfg.radius = 0.6;
    cfg.max_neighbors = Some(16);
    cfg
}

#[test]
fn same_seed_is_bit_identical() {
    let cfg = test_cfg();
    let system = Crescent::new();
    let a = system.run_stream(&cfg);
    let b = system.run_stream(&cfg);

    // per-frame neighbor sets: same indices, same distances, same order
    assert_eq!(a.neighbor_sets, b.neighbor_sets);
    // per-frame cycle counts
    for (x, y) in a.report.frames.iter().zip(&b.report.frames) {
        assert_eq!(x.compute_cycles, y.compute_cycles, "frame {}", x.frame);
        assert_eq!(x.dma_cycles, y.dma_cycles, "frame {}", x.frame);
        assert_eq!(x.slot_cycles, y.slot_cycles, "frame {}", x.frame);
        assert_eq!(x.search.dram_bytes, y.search.dram_bytes, "frame {}", x.frame);
    }
    assert_eq!(a.report.pipelined_cycles, b.report.pipelined_cycles);
    assert_eq!(a.report.serial_cycles, b.report.serial_cycles);
    // energy totals, bitwise (all charges are deterministic f64 sums)
    for (x, y) in a.report.frames.iter().zip(&b.report.frames) {
        assert_eq!(x.energy, y.energy);
    }
    assert_eq!(a.report.energy(), b.report.energy());
}

#[test]
fn different_seed_changes_the_stream() {
    let cfg = test_cfg();
    let mut other = cfg;
    other.scene.seed ^= 1;
    let system = Crescent::new();
    let a = system.run_stream(&cfg);
    let b = system.run_stream(&other);
    assert_ne!(a.neighbor_sets, b.neighbor_sets, "a different world must change the results");
}

#[test]
fn batched_search_matches_per_query_on_stream_frames() {
    // the h_e = 0 exactness witness: the banked wavefront with elision
    // off (conflicts stall, never drop) must stay bit-identical to
    // per-query search_one on every stream frame
    let cfg = test_cfg();
    let system = Crescent::new();
    let knobs = system.knobs;
    let batch_cfg = BatchSearchConfig::banked(
        cfg.radius,
        cfg.max_neighbors,
        system.config.num_pes,
        system.config.tree_buffer.num_banks,
        0,
    );
    let mut state = BatchState::new();
    for frame in FrameStream::new(&cfg) {
        let tree = KdTree::build(&frame.cloud);
        let ht = knobs.top_height.min(tree.height().saturating_sub(1));
        let split = SplitTree::new(&tree, ht).unwrap();
        let (batch, stats) = split.search_batch(&frame.queries, &batch_cfg, &mut state);
        assert_eq!(stats.subtree.elided, 0, "h_e = 0 must never drop a fetch");
        for (qi, &q) in frame.queries.iter().enumerate() {
            let single = split.search_one(q, cfg.radius, cfg.max_neighbors);
            assert_eq!(batch[qi], single, "frame {} query {qi}", frame.index);
        }
    }
    assert_eq!(state.frames(), cfg.num_frames);
}

#[test]
fn facade_results_match_manual_batched_runs() {
    // run_stream is just frame generation + the accel driver: its neighbor
    // sets must equal a by-hand banked batched run over the same frames
    // at the same streaming h_e
    let cfg = test_cfg();
    let system = Crescent::new();
    let outcome = system.run_stream(&cfg);
    let batch_cfg = BatchSearchConfig::banked(
        cfg.radius,
        cfg.max_neighbors,
        system.config.num_pes,
        system.config.tree_buffer.num_banks,
        cfg.elision_depth,
    );
    let mut state = BatchState::new();
    for (fi, frame) in FrameStream::new(&cfg).enumerate() {
        let tree = KdTree::build(&frame.cloud);
        let ht = system.knobs.top_height.min(tree.height().saturating_sub(1));
        let split = SplitTree::new(&tree, ht).unwrap();
        let (batch, _) = split.search_batch(&frame.queries, &batch_cfg, &mut state);
        assert_eq!(outcome.neighbor_sets[fi], batch, "frame {fi}");
    }
}

#[test]
fn stream_accounting_invariants() {
    let cfg = test_cfg();
    let outcome = Crescent::new().run_stream(&cfg);
    let rep = &outcome.report;
    assert_eq!(rep.num_frames(), cfg.num_frames);
    // serial runs every frame standalone: build slot + search slot + one
    // fill per frame; the pipelined schedule charges the fill once per
    // stream and hides builds behind search — the exact identity:
    let search_slots: u64 = rep.frames.iter().map(|f| f.slot_cycles).sum();
    let build_slots: u64 = rep.frames.iter().map(|f| f.build_slot_cycles).sum();
    assert_eq!(
        rep.serial_cycles,
        search_slots + build_slots + cfg.num_frames as u64 * PE_PIPELINE_DEPTH,
        "serial = per-frame build + search + a fill per frame"
    );
    assert_eq!(
        rep.serial_cycles - rep.pipelined_cycles,
        (cfg.num_frames as u64 - 1) * PE_PIPELINE_DEPTH + rep.overlapped_build_cycles,
        "overlap hides (frames - 1) fills plus the overlapped build work, nothing else"
    );
    assert!(rep.overlapped_build_cycles <= build_slots);
    // the pipelined latency can never dip below the serialized search work
    // plus its single fill
    assert!(rep.pipelined_cycles >= search_slots + PE_PIPELINE_DEPTH);
    assert!(rep.pipelined_cycles < rep.serial_cycles);
    for f in &rep.frames {
        assert_eq!(f.slot_cycles, (f.compute_cycles + f.agg_cycles).max(f.dma_cycles));
        let m = f.maintenance;
        assert_eq!(f.build_slot_cycles, m.build_cycles.max(f.build_dma_cycles));
        assert!(m.build_cycles > 0, "tree maintenance is never free (frame {})", f.frame);
        assert!(m.build_dram_bytes > 0);
        assert!(f.energy.tree_build > 0.0);
        assert!(f.search.dram_bytes > 0);
        assert_eq!(f.energy.dram_random, 0.0, "the streaming schedule is fully streaming");
        assert!(f.search.top_fetches <= f.search.top_fetches_unamortized);
        assert!(f.search.queries == cfg.queries_per_frame);
    }
    // the stream's energy equals the sum of the per-frame entries, and the
    // build category is populated
    let sum: f64 = rep.frames.iter().map(|f| f.energy.total()).sum();
    assert!((rep.energy().total() - sum).abs() < 1e-9);
    assert!(rep.energy().tree_build > 0.0);
}

#[test]
fn zero_query_frames_cost_zero_search_compute() {
    // regression for the fill bug: a frame with no queries used to charge
    // leakage against a PE_PIPELINE_DEPTH-cycle slot
    let mut cfg = test_cfg();
    cfg.queries_per_frame = 0;
    let outcome = Crescent::new().run_stream(&cfg);
    for f in &outcome.report.frames {
        assert_eq!(f.compute_cycles, 0, "frame {}", f.frame);
        assert_eq!(f.slot_cycles, 0, "frame {}", f.frame);
        assert!(f.maintenance.build_cycles > 0, "the tree still gets built (frame {})", f.frame);
    }
    // the stream still pays exactly one fill — for the build pipeline,
    // not per empty frame
    let rep = &outcome.report;
    let build_slots: u64 = rep.frames.iter().map(|f| f.build_slot_cycles).sum();
    assert_eq!(rep.pipelined_cycles, build_slots + PE_PIPELINE_DEPTH);
}

#[test]
fn refit_meets_the_acceptance_bar_on_a_coherent_16_frame_stream() {
    // the ISSUE 3 acceptance criterion: default knobs, 16-frame coherent
    // drifting stream, Refit >= 25% fewer pipelined cycles than
    // RebuildEveryFrame with bit-identical neighbor sets
    let mut cfg = FrameStreamConfig::default();
    cfg.scene.total_points = 8_000;
    cfg.scene.seed = 0xC0FFEE;
    cfg.num_frames = 16;
    cfg.queries_per_frame = 128;
    cfg.scenario = StreamScenario::Registered;
    cfg.noise_m = 0.0; // registered = motion-compensated output
    cfg.ego = EgoMotion { speed_mps: 8.0, yaw_rate_rps: 0.0, frame_period_s: 0.1 };
    let system = Crescent::new();
    cfg.maintenance = TreeMaintenance::RebuildEveryFrame;
    let rebuild = system.run_stream(&cfg);
    cfg.maintenance = TreeMaintenance::refit();
    let refit = system.run_stream(&cfg);
    assert_eq!(rebuild.neighbor_sets, refit.neighbor_sets, "policies must agree bit-for-bit");
    let (r, p) = (rebuild.report.pipelined_cycles, refit.report.pipelined_cycles);
    assert!(p * 4 <= r * 3, "refit must save >= 25%: {p} vs {r}");
    for f in &refit.report.frames {
        let m = f.maintenance;
        assert!(m.build_cycles > 0 && m.build_dram_bytes > 0 && f.energy.tree_build > 0.0);
    }
    for f in &refit.report.frames[1..] {
        assert!(
            !f.maintenance.full_rebuild,
            "coherent frames must refit in place (frame {})",
            f.frame
        );
    }
}

#[test]
fn every_canonical_scenario_is_deterministic_end_to_end() {
    // scenario breadth must not cost determinism: every canonical
    // generator — including the occlusion/weather hashes and the
    // multi-sensor composite — is a pure function of the seed
    let system = Crescent::new();
    for &scenario in StreamScenario::canonical_matrix().iter() {
        let mut cfg = test_cfg();
        cfg.scene.total_points = 3_000;
        cfg.num_frames = 4;
        cfg.queries_per_frame = 64;
        cfg.scenario = scenario;
        let a = system.run_stream(&cfg);
        let b = system.run_stream(&cfg);
        assert_eq!(a.neighbor_sets, b.neighbor_sets, "{}", scenario.label());
        assert_eq!(a.report.pipelined_cycles, b.report.pipelined_cycles, "{}", scenario.label());
        assert_eq!(a.report.energy(), b.report.energy(), "{}", scenario.label());
        assert_eq!(
            a.report.total_conflict_reuses(),
            b.report.total_conflict_reuses(),
            "{}",
            scenario.label()
        );
    }
}

#[test]
fn refit_is_honest_on_every_canonical_scenario() {
    // the refit-honesty invariant, stream-level: under the refit policy
    // every frame either refits the standing tree cleanly or falls back
    // to a full rebuild — the neighbor sets never diverge from the
    // rebuild-every-frame policy, on any canonical scenario (the five
    // irregular newcomers included)
    let system = Crescent::new();
    for &scenario in StreamScenario::canonical_matrix().iter() {
        let mut cfg = test_cfg();
        cfg.scene.total_points = 3_000;
        cfg.num_frames = 4;
        cfg.queries_per_frame = 64;
        cfg.scenario = scenario;
        cfg.maintenance = TreeMaintenance::RebuildEveryFrame;
        let rebuild = system.run_stream(&cfg);
        cfg.maintenance = TreeMaintenance::refit();
        let refit = system.run_stream(&cfg);
        assert_eq!(
            rebuild.neighbor_sets,
            refit.neighbor_sets,
            "{}: refit diverged from rebuild",
            scenario.label()
        );
        // fallbacks are an allowed (honest) outcome, silence is not:
        // every frame past the first either refits or rebuilds in full
        for f in &refit.report.frames {
            assert!(
                f.maintenance.build_cycles > 0,
                "{}: tree maintenance is never free (frame {})",
                scenario.label(),
                f.frame
            );
        }
    }
}

#[test]
fn stationary_ego_reuses_every_assignment() {
    let mut cfg = test_cfg();
    cfg.ego = EgoMotion { speed_mps: 0.0, yaw_rate_rps: 0.0, frame_period_s: 0.1 };
    cfg.noise_m = 0.0;
    let outcome = Crescent::new().run_stream(&cfg);
    for f in &outcome.report.frames[1..] {
        assert_eq!(
            f.search.assignment_reuses, f.search.queries,
            "identical frames must reuse every sub-tree assignment (frame {})",
            f.frame
        );
    }
    assert!((outcome.report.mean_reuse_fraction() - 1.0).abs() < 1e-12);
}

#[test]
fn moving_ego_keeps_most_assignments() {
    let cfg = test_cfg();
    let outcome = Crescent::new().run_stream(&cfg);
    let reuse = outcome.report.mean_reuse_fraction();
    assert!(reuse > 0.3, "an urban-speed drift should keep most assignments, got {reuse}");
    assert!(reuse < 1.0, "motion must break some assignments, got {reuse}");
}
