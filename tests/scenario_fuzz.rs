//! Adversarial scenario fuzzer: random whole-workload streams driven end
//! to end through [`Crescent::run_stream`], hunting for violations of the
//! invariants the rest of the suite pins on hand-picked configs.
//!
//! Each property draws [`ScenarioGen`] configs — arbitrary ego
//! trajectories, arbitrary [`StreamScenario`] parameters, density ramps,
//! dropout patterns, zero-query frames, single-frame streams — and
//! checks one invariant:
//!
//! * bit-exact determinism of the whole outcome;
//! * refit honesty (the maintenance policy never changes a neighbor set);
//! * `h_e = 0` bit-identity against per-query [`SplitTree::search_one`];
//! * the pipeline-fill timing identity
//!   `serial − pipelined == (frames_with_work − 1)·fill + overlapped`;
//! * cycles non-increasing (and recall never gained) in `h_e`;
//! * soundness against the brute-force oracle (every reported neighbor
//!   is a true in-radius neighbor at its true distance).
//!
//! The case count is `PROPTEST_CASES` (default 12 — the bounded CI
//! budget; raise it for deeper local hunts). The vendored proptest stub
//! does not shrink, so a failing case is re-minimized here with
//! [`crescent_repro::testgen::shrink_failing`] and printed ready to check in
//! as a named regression test — `shrunk_single_frame_stream_pays_one_fill`
//! below is one such pinned counterexample.

use crescent::accel::PE_PIPELINE_DEPTH;
use crescent::kdtree::{KdTree, SplitTree};
use crescent::pointcloud::radius_search_bruteforce;
use crescent::workload::{FrameStream, FrameStreamConfig};
use crescent::Crescent;
use crescent_repro::testgen::{shrink_failing, ScenarioGen};
use proptest::strategy::Strategy;
use proptest::ProptestConfig;

/// CI runs a fixed bounded budget; local hunts override the env var.
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(12)
}

/// Runs `property` over `cases()` generated configs. On a violation the
/// case is greedily re-minimized (the stub does not shrink) and the
/// property re-raised on the minimal config, with the config printed so
/// it can be checked in as a named regression test.
fn fuzz(name: &str, property: fn(&FrameStreamConfig)) {
    let strat = ScenarioGen::default();
    proptest::run_cases(name, ProptestConfig::with_cases(cases()), |rng, case| {
        let cfg = strat.new_value(rng);
        let panics = |c: &FrameStreamConfig| {
            let probe = *c;
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| property(&probe))).is_err()
        };
        if panics(&cfg) {
            // quiet the probe panics while shrinking, then re-raise on
            // the minimal config with the default hook restored
            let hook = std::panic::take_hook();
            std::panic::set_hook(Box::new(|_| {}));
            let min = shrink_failing(cfg, panics);
            std::panic::set_hook(hook);
            eprintln!("fuzz case {case} violated `{name}`; minimal config:\n{min:#?}");
            property(&min);
            unreachable!("the shrunken config must still fail");
        }
    });
}

fn assert_deterministic(cfg: &FrameStreamConfig) {
    let system = Crescent::new();
    let a = system.run_stream(cfg);
    let b = system.run_stream(cfg);
    assert_eq!(a.neighbor_sets, b.neighbor_sets);
    assert_eq!(a.report.pipelined_cycles, b.report.pipelined_cycles);
    assert_eq!(a.report.serial_cycles, b.report.serial_cycles);
    assert_eq!(a.report.energy(), b.report.energy());
}

#[test]
fn fuzz_streams_are_deterministic() {
    fuzz("fuzz_streams_are_deterministic", assert_deterministic);
}

fn assert_refit_honest(cfg: &FrameStreamConfig) {
    use crescent::accel::TreeMaintenance;
    let system = Crescent::new();
    let mut rebuild_cfg = *cfg;
    rebuild_cfg.maintenance = TreeMaintenance::RebuildEveryFrame;
    let mut refit_cfg = *cfg;
    refit_cfg.maintenance = TreeMaintenance::refit();
    let rebuild = system.run_stream(&rebuild_cfg);
    let refit = system.run_stream(&refit_cfg);
    assert_eq!(
        rebuild.neighbor_sets, refit.neighbor_sets,
        "maintenance policy changed a neighbor set"
    );
}

#[test]
fn fuzz_refit_never_diverges_from_rebuild() {
    fuzz("fuzz_refit_never_diverges_from_rebuild", assert_refit_honest);
}

fn assert_exact_mode_bit_identical(cfg: &FrameStreamConfig) {
    let mut exact = *cfg;
    exact.elision_depth = 0;
    let system = Crescent::new();
    let outcome = system.run_stream(&exact);
    for (fi, frame) in FrameStream::new(&exact).enumerate() {
        let tree = KdTree::build(&frame.cloud);
        let ht = system.knobs.top_height.min(tree.height().saturating_sub(1));
        let split = SplitTree::new(&tree, ht).unwrap();
        for (qi, &q) in frame.queries.iter().enumerate() {
            let single = split.search_one(q, exact.radius, exact.max_neighbors);
            assert_eq!(
                outcome.neighbor_sets[fi][qi], single,
                "h_e = 0 diverged from search_one (frame {fi} query {qi})"
            );
        }
    }
}

#[test]
fn fuzz_h_e_zero_is_bit_identical_to_per_query_search() {
    fuzz("fuzz_h_e_zero_is_bit_identical_to_per_query_search", assert_exact_mode_bit_identical);
}

fn assert_fill_identity(cfg: &FrameStreamConfig) {
    let rep = Crescent::new().run_stream(cfg).report;
    let frames_with_work = rep.frames.iter().filter(|f| f.has_work()).count() as u64;
    let standalone: u64 = rep.frames.iter().map(|f| f.standalone_cycles()).sum();
    assert_eq!(rep.serial_cycles, standalone, "serial = sum of standalone frame costs");
    assert_eq!(
        rep.serial_cycles - rep.pipelined_cycles,
        frames_with_work.saturating_sub(1) * PE_PIPELINE_DEPTH + rep.overlapped_build_cycles,
        "overlap hides (frames_with_work - 1) fills plus the overlapped builds, nothing else"
    );
}

#[test]
fn fuzz_fill_identity_holds_on_arbitrary_streams() {
    fuzz("fuzz_fill_identity_holds_on_arbitrary_streams", assert_fill_identity);
}

fn assert_elision_monotone(cfg: &FrameStreamConfig) {
    let system = Crescent::new();
    let mut exact = *cfg;
    exact.elision_depth = 0;
    let a = system.run_stream(&exact).report;
    let b = system.run_stream(cfg).report;
    assert_eq!(a.total_elided_conflicts(), 0, "h_e = 0 must never drop a fetch");
    assert!(
        b.pipelined_cycles <= a.pipelined_cycles,
        "elision cost stream cycles: h_e = {} took {} vs {} at h_e = 0",
        cfg.elision_depth,
        b.pipelined_cycles,
        a.pipelined_cycles
    );
    let neighbors = |rep: &crescent::accel::StreamReport| -> u64 {
        rep.frames.iter().map(|f| f.neighbors as u64).sum()
    };
    assert!(neighbors(&b) <= neighbors(&a), "elision can only lose neighbors, never invent them");
}

#[test]
fn fuzz_elision_never_costs_cycles_or_gains_neighbors() {
    fuzz("fuzz_elision_never_costs_cycles_or_gains_neighbors", assert_elision_monotone);
}

fn assert_sound_vs_oracle(cfg: &FrameStreamConfig) {
    let outcome = Crescent::new().run_stream(cfg);
    let r2 = cfg.radius * cfg.radius;
    for (fi, frame) in outcome.frames.iter().enumerate() {
        for (qi, &q) in frame.queries.iter().enumerate() {
            let oracle = radius_search_bruteforce(&frame.cloud, q, cfg.radius, None);
            let truth: std::collections::HashMap<usize, f32> =
                oracle.iter().map(|n| (n.index, n.dist2)).collect();
            let got = &outcome.neighbor_sets[fi][qi];
            if let Some(cap) = cfg.max_neighbors {
                assert!(got.len() <= cap, "frame {fi} query {qi}: cap exceeded");
            }
            let mut seen = std::collections::HashSet::new();
            for n in got {
                assert!(seen.insert(n.index), "frame {fi} query {qi}: duplicate neighbor");
                assert!(n.dist2 <= r2, "frame {fi} query {qi}: out-of-radius neighbor");
                assert_eq!(
                    truth.get(&n.index),
                    Some(&n.dist2),
                    "frame {fi} query {qi}: neighbor {} not a true in-radius point",
                    n.index
                );
            }
        }
    }
}

#[test]
fn fuzz_every_reported_neighbor_is_a_true_neighbor() {
    fuzz("fuzz_every_reported_neighbor_is_a_true_neighbor", assert_sound_vs_oracle);
}

/// Pinned fuzzer counterexample (shrunken with
/// [`crescent_repro::testgen::shrink_failing`] from a
/// `fuzz_fill_identity_holds_on_arbitrary_streams` hunt): a single-frame
/// stream has no inter-frame overlap at all, so the naive identity
/// `serial − pipelined == (num_frames − 1)·fill + overlapped` written
/// against `num_frames` instead of `frames_with_work` only survives
/// because both sides collapse to zero — and the `saturating_sub` in the
/// checker is what keeps the `frames_with_work = 0` corner (a zero-query
/// stream over an idle engine) from underflowing. This pins the minimal
/// shape: one frame, one build, zero queries, exactly one fill charged.
#[test]
fn shrunk_single_frame_stream_pays_one_fill() {
    let mut cfg = FrameStreamConfig::default();
    cfg.scene.total_points = 64;
    cfg.num_frames = 1;
    cfg.queries_per_frame = 0;
    cfg.noise_m = 0.0;
    cfg.elision_depth = 0;
    let rep = Crescent::new().run_stream(&cfg).report;
    // one working frame: serial and pipelined coincide (nothing to
    // overlap), exactly one fill in both bounds
    assert_eq!(rep.serial_cycles, rep.pipelined_cycles);
    assert_eq!(rep.overlapped_build_cycles, 0);
    let build: u64 = rep.frames.iter().map(|f| f.build_slot_cycles).sum();
    assert_eq!(rep.pipelined_cycles, build + PE_PIPELINE_DEPTH);
    assert_fill_identity(&cfg);
}
