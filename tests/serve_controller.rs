//! The SLO-controller property harness: the closed loop is pinned by
//! the same determinism discipline as the rest of the serve layer.
//!
//! Fuzzed (over [`crescent_repro::testgen::ScenarioGen`] tenant mixes):
//!
//! * **off means off** — a controller whose band is `[0, 0]` runs
//!   bit-identically to the pinned static `h_e = 0` path: answers,
//!   digest, schedule, knob trajectory, maintenance bill, energy;
//! * **band** — whatever the mix and tuning, the chosen `h_e` never
//!   leaves `[0, h_e_max]`;
//! * **determinism** — the full knob trajectory (and the whole report)
//!   is byte-identical across reruns and worker counts 1 / 4;
//! * **monotone pressure** — an overloaded twin of a mix never settles
//!   its knob below the idle twin's steady state: pressure can only
//!   push `h_e` up, slack can only let it decay.
//!
//! Pinned: the
//! calibrated overload corner of `bench/serve-baseline.json` — the
//! 8-tenant / fleet-1 / `h_e`-start-0 SLO row — as exact constants.

use crescent_repro::testgen::ScenarioGen;
use crescent_serve::{
    run_service, run_service_controlled, ControllerConfig, ServeSpec, ServiceContext,
};
use proptest::strategy::Strategy;
use proptest::test_runner::TestRng;
use proptest::ProptestConfig;

/// CI runs a fixed bounded budget; local hunts override the env var.
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(6)
}

/// Draws a random service spec around a ScenarioGen tenant base and
/// map: random tempo, backlog, fleet, 2–6 tenants, static axes pinned
/// (the harness calls the scheduler directly).
fn random_spec(rng: &mut TestRng) -> ServeSpec {
    let strat = ScenarioGen { max_points: 1_200, max_frames: 4, max_queries: 24 };
    let mut tenant_base = strat.new_value(rng);
    tenant_base.queries_per_frame = tenant_base.queries_per_frame.max(1);
    let mut map = strat.new_value(rng);
    map.queries_per_frame = 0;
    let mut spec = ServeSpec::quick();
    spec.label = "ctl-fuzz".to_string();
    spec.map = map;
    spec.tenant_base = tenant_base;
    spec.frame_period = 300 + rng.below(3_000);
    spec.base_deadline = 500 + rng.below(5_000);
    spec.max_backlog = 4 + rng.below(28) as usize;
    spec.top_height = 1 + rng.below(6) as usize;
    spec.tenant_counts = vec![2 + rng.below(5) as usize];
    spec.fleet_sizes = vec![1 + rng.below(3) as usize];
    spec.elision_depths = vec![rng.below(6) as usize];
    spec
}

/// Draws a random (valid) controller tuning.
fn random_config(rng: &mut TestRng) -> ControllerConfig {
    ControllerConfig {
        h_e_max: rng.below(5) as usize,
        window: 1 + rng.below(8) as usize,
        miss_budget: rng.below(3) as usize,
        backlog_unit: 1 + rng.below(5) as usize,
    }
}

#[test]
fn fuzz_zero_band_controller_is_bit_identical_to_static() {
    proptest::run_cases(
        "fuzz_zero_band_controller_is_bit_identical_to_static",
        ProptestConfig::with_cases(cases()),
        |rng, case| {
            let spec = random_spec(rng);
            let cfg = ControllerConfig { h_e_max: 0, ..random_config(rng) };
            let ctx = ServiceContext::build(&spec);
            let (tenants, fleet) = (spec.tenant_counts[0], spec.fleet_sizes[0]);
            // any initial h_e: the empty band clamps it to zero up front
            let off = run_service_controlled(&ctx, tenants, fleet, spec.elision_depths[0], &cfg);
            let reference = run_service(&ctx, tenants, fleet, 0);
            assert_eq!(off.results, reference.results, "case {case}: answers drifted");
            assert_eq!(off.ledger.digest, reference.ledger.digest, "case {case}");
            assert_eq!(off.ledger.makespan, reference.ledger.makespan, "case {case}");
            assert_eq!(
                off.ledger.knob_trajectory, reference.ledger.knob_trajectory,
                "case {case}: a disabled controller must trace the static trajectory"
            );
            assert_eq!(off.ledger.fleet_latencies(), reference.ledger.fleet_latencies());
            assert_eq!(off.ledger.map_build_cycles, reference.ledger.map_build_cycles);
            assert_eq!(off.ledger.alt_maintenance_ticks, 0, "case {case}: spec policy only");
            assert_eq!(
                off.ledger.total_energy().total(),
                reference.ledger.total_energy().total(),
                "case {case}: bit-identical energy, not just close"
            );
        },
    );
}

#[test]
fn fuzz_controller_never_leaves_the_band() {
    proptest::run_cases(
        "fuzz_controller_never_leaves_the_band",
        ProptestConfig::with_cases(cases()),
        |rng, case| {
            let spec = random_spec(rng);
            let cfg = random_config(rng);
            let ctx = ServiceContext::build(&spec);
            // a deliberately out-of-band initial depth must be clamped in
            let out = run_service_controlled(
                &ctx,
                spec.tenant_counts[0],
                spec.fleet_sizes[0],
                spec.elision_depths[0] + cfg.h_e_max,
                &cfg,
            );
            for k in &out.ledger.knob_trajectory {
                assert!(
                    k.h_e <= cfg.h_e_max,
                    "case {case}: wavefront {} chose h_e {} above the band max {}",
                    k.wavefront,
                    k.h_e,
                    cfg.h_e_max
                );
            }
            for t in &out.ledger.tenants {
                assert!(t.max_h_e() <= cfg.h_e_max, "case {case}: per-frame mirror left the band");
            }
        },
    );
}

#[test]
fn fuzz_controlled_reports_are_deterministic_across_worker_counts() {
    proptest::run_cases(
        "fuzz_controlled_reports_are_deterministic_across_worker_counts",
        ProptestConfig::with_cases(cases()),
        |rng, case| {
            use crescent_serve::{run_serve, ControlMode};
            let mut spec = random_spec(rng);
            spec.controller_modes = vec![ControlMode::Static, ControlMode::Slo];
            spec.controller =
                ControllerConfig { h_e_max: 1 + random_config(rng).h_e_max, ..random_config(rng) };
            let one = run_serve(&spec, 1).expect("spec is valid");
            let four = run_serve(&spec, 4).expect("spec is valid");
            assert_eq!(
                one.to_json(),
                four.to_json(),
                "case {case}: the knob trajectory (h_e_cycles, h_e_final) and every other \
                 column must not see the worker count"
            );
        },
    );
}

#[test]
fn fuzz_overload_never_settles_below_the_idle_steady_state() {
    proptest::run_cases(
        "fuzz_overload_never_settles_below_the_idle_steady_state",
        ProptestConfig::with_cases(cases()),
        |rng, case| {
            let mut spec = random_spec(rng);
            spec.fleet_sizes = vec![1];
            let cfg = ControllerConfig {
                h_e_max: 1 + rng.below(4) as usize,
                miss_budget: 0,
                ..ControllerConfig::default()
            };
            // twins differ only in the deadline: one mix misses every
            // graded frame, the other can never miss
            spec.base_deadline = 1;
            let over_ctx = ServiceContext::build(&spec);
            spec.base_deadline = 1_000_000_000;
            let idle_ctx = ServiceContext::build(&spec);
            let tenants = spec.tenant_counts[0];
            let over = run_service_controlled(&over_ctx, tenants, 1, 0, &cfg);
            let idle = run_service_controlled(&idle_ctx, tenants, 1, 0, &cfg);
            assert!(over.ledger.deadline_misses() > 0, "case {case}: the twin must overload");
            assert_eq!(idle.ledger.deadline_misses(), 0, "case {case}: the twin must idle");

            let idle_steady = idle.ledger.final_h_e();
            let over_final = over.ledger.final_h_e();
            assert!(
                over_final >= idle_steady,
                "case {case}: overload settled at h_e {over_final}, below the idle steady \
                 state {idle_steady}"
            );
            // once the loop has had room to climb (one step per
            // wavefront plus a full observation window), sustained
            // misses must hold the knob strictly above zero
            if over.ledger.knob_trajectory.len() > cfg.h_e_max + cfg.window {
                assert!(over_final >= 1, "case {case}: sustained misses never lifted the knob");
            }
        },
    );
}

/// The calibrated overload corner, pinned as exact constants (satellite
/// of the closed-loop PR): the quick grid's 8-tenant / fleet-1 /
/// `h_e`-start-0 pair. Any retune of the controller, the service
/// operating point, or the scheduler shows up here as a diff — exactly
/// like the byte gate, but readable.
#[test]
fn overload_corner_constants_are_pinned() {
    use crescent_serve::run_serve;
    let report = run_serve(&ServeSpec::quick(), 4).expect("quick spec is valid");
    let corner = &report.rows[16];
    assert_eq!(
        (corner.tenants, corner.fleet, corner.elision_depth, corner.controller.as_str()),
        (8, 1, 0, "static")
    );
    assert_eq!(corner.deadline_misses, 11, "static corner misses");
    assert_eq!(corner.rejected, 4, "static corner rejections");
    assert_eq!(corner.h_e_final, 0, "a static row never moves its knob");

    let twin = &report.rows[17];
    assert_eq!(
        (twin.tenants, twin.fleet, twin.elision_depth, twin.controller.as_str()),
        (8, 1, 0, "slo")
    );
    assert_eq!(twin.deadline_misses, 2, "controller-on corner misses");
    assert_eq!(twin.rejected, 0, "the controller clears the backlog before admission trips");
    assert_eq!(twin.h_e_final, 1, "final controller h_e after the storm decays");
    assert!(twin.deadline_misses < corner.deadline_misses, "the acceptance inequality");
    assert!(twin.conflicts_elided > 0, "the recall trade is ledgered");
}
