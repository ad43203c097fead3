//! Multi-tenant service invariants, pinned and fuzzed.
//!
//! The pinned half drives the acceptance trace — an 8-tenant mix
//! covering 8 distinct canonical scenarios — and asserts the ledger is
//! bit-identical across reruns and worker counts, with tail percentiles
//! populated per tenant and fleet-wide.
//!
//! The fuzzed half draws random tenant workloads through
//! [`crescent_repro::testgen::ScenarioGen`] and random service knobs, then
//! checks the three scheduler invariants on every draw:
//!
//! * **conservation** — every admitted frame is served exactly once
//!   (one answer set per query), every rejected frame exactly zero
//!   times, and the schedule is causally sane (arrival ≤ start ≤
//!   completion, misses graded exactly against the tenant deadline);
//! * **determinism** — the same context yields byte-identical ledgers;
//! * **`h_e = 0` bit-identity** — each tenant's neighbor sets in the
//!   multi-tenant run equal a solo re-run of the same frame through the
//!   same wavefront machinery: co-tenants move cycles, never answers;
//! * **a memo hit is a fresh simulation** — a point run on a context
//!   whose wavefront memo earlier runs have warmed equals the same point
//!   on a fresh context, at every `h_e` and under both knob policies.

use std::collections::BTreeSet;
use std::sync::atomic::AtomicUsize;
use std::sync::atomic::Ordering::Relaxed;

use crescent_accel::{CrescentKnobs, ServiceInstance, StreamSearchConfig};
use crescent_kdtree::TaggedBatch;
use crescent_memsim::EnergyLedger;
use crescent_repro::testgen::ScenarioGen;
use crescent_serve::{
    run_serve, run_service, run_service_controlled, service_config, ControlMode, ServeSpec,
    ServiceContext, ServiceOutcome,
};
use proptest::strategy::Strategy;
use proptest::test_runner::TestRng;
use proptest::ProptestConfig;

/// CI runs a fixed bounded budget; local hunts override the env var.
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(6)
}

/// A debug-affordable 8-tenant acceptance spec: small clouds, the full
/// canonical scenario diversity of the mix, both fleet sizes.
fn eight_tenant_spec() -> ServeSpec {
    let mut spec = ServeSpec::quick();
    spec.label = "matrix".to_string();
    spec.map.scene.total_points = 1_500;
    spec.map.num_frames = 4;
    spec.tenant_base.scene.total_points = 600;
    spec.tenant_base.num_frames = 4;
    spec.tenant_base.queries_per_frame = 24;
    spec.tenant_counts = vec![8];
    spec.fleet_sizes = vec![1, 2];
    spec.elision_depths = vec![0];
    // static-only: these tests index rows by the fleet axis alone
    spec.controller_modes = vec![ControlMode::Static];
    // a tempo that queues on one instance but not on two (slots are a
    // few hundred cycles at this cloud size), with a backlog deep
    // enough that admission decisions stay fleet-invariant — the digest
    // comparison below covers rejections too
    spec.frame_period = 1_200;
    spec.base_deadline = 1_800;
    spec.max_backlog = 32;
    spec
}

#[test]
fn eight_tenant_mix_is_bit_identical_across_reruns_and_worker_counts() {
    let spec = eight_tenant_spec();
    let a = run_serve(&spec, 1).expect("spec is valid");
    let b = run_serve(&spec, 1).expect("spec is valid");
    let c = run_serve(&spec, 4).expect("spec is valid");
    assert_eq!(a.to_json(), b.to_json(), "rerun must be bit-identical");
    assert_eq!(a.to_json(), c.to_json(), "worker count must not leak into the ledger");

    // the mix really is mixed: 8 tenants, 8 distinct canonical scenarios
    let row = &a.rows[0];
    assert_eq!(row.per_tenant.len(), 8);
    let scenarios: BTreeSet<&str> = row
        .per_tenant
        .iter()
        .map(|t| t.name.split_once('-').expect("names are tNN-scenario").1)
        .collect();
    assert_eq!(scenarios.len(), 8, "8 distinct scenarios in the mix: {scenarios:?}");

    // tail percentiles are populated and ordered, per tenant and fleet-wide
    assert!(row.p50 > 0 && row.p50 <= row.p95 && row.p95 <= row.p99);
    for t in &row.per_tenant {
        if t.admitted > 0 {
            assert!(t.p50 > 0 && t.p50 <= t.p95 && t.p95 <= t.p99, "tenant {}", t.name);
        }
    }

    // h_e = 0: fleet size moves cycles, never answers
    assert_eq!(a.rows[0].digest, a.rows[1].digest, "fleet-size result invariance");
    assert_ne!(a.rows[0].p99, a.rows[1].p99, "fleet size should move the tail here");
}

/// Draws a random service spec: ScenarioGen tenant base and map, random
/// period/deadline/backlog/fleet, 2–6 tenants.
fn random_spec(rng: &mut TestRng) -> ServeSpec {
    let strat = ScenarioGen { max_points: 1_200, max_frames: 4, max_queries: 24 };
    let mut tenant_base = strat.new_value(rng);
    // zero-query tenants make a service trivially idle; keep load real
    tenant_base.queries_per_frame = tenant_base.queries_per_frame.max(1);
    let mut map = strat.new_value(rng);
    map.queries_per_frame = 0;
    let mut spec = ServeSpec::quick();
    spec.label = "fuzz".to_string();
    spec.map = map;
    spec.tenant_base = tenant_base;
    spec.frame_period = 1_000 + rng.below(9_000);
    spec.base_deadline = 2_000 + rng.below(18_000);
    spec.max_backlog = 1 + rng.below(12) as usize;
    spec.top_height = 1 + rng.below(6) as usize;
    spec.tenant_counts = vec![2 + rng.below(5) as usize];
    spec.fleet_sizes = vec![1 + rng.below(3) as usize];
    spec.elision_depths = vec![rng.below(6) as usize];
    spec
}

fn run_random(spec: &ServeSpec) -> (ServiceContext, ServiceOutcome) {
    let ctx = ServiceContext::build(spec);
    let out = run_service(&ctx, spec.tenant_counts[0], spec.fleet_sizes[0], spec.elision_depths[0]);
    (ctx, out)
}

#[test]
fn fuzz_scheduler_conserves_every_admitted_frame() {
    proptest::run_cases(
        "fuzz_scheduler_conserves_every_admitted_frame",
        ProptestConfig::with_cases(cases()),
        |rng, case| {
            let spec = random_spec(rng);
            let (ctx, out) = run_random(&spec);
            let ledger = &out.ledger;
            assert_eq!(ledger.tenants.len(), spec.tenant_counts[0], "case {case}");
            let mut served_queries = 0usize;
            for (ti, tenant) in ledger.tenants.iter().enumerate() {
                assert_eq!(tenant.frames.len(), ctx.queries[ti].len().min(ctx.ticks()));
                for (k, frame) in tenant.frames.iter().enumerate() {
                    let result = &out.results[ti][k];
                    assert_eq!(
                        frame.admitted,
                        result.is_some(),
                        "case {case}: tenant {ti} frame {k}"
                    );
                    match result {
                        Some(answers) => {
                            // exactly one answer set per query of the frame
                            assert_eq!(answers.len(), ctx.queries[ti][k].len(), "case {case}");
                            assert_eq!(frame.queries, answers.len());
                            assert!(frame.arrival <= frame.start, "case {case}: causality");
                            assert!(frame.start <= frame.completion, "case {case}: causality");
                            assert_eq!(frame.latency, frame.completion - frame.arrival);
                            assert_eq!(
                                frame.missed,
                                frame.latency > tenant.deadline_cycles,
                                "case {case}: miss grading"
                            );
                            assert!(frame.wavefront.is_some() && frame.instance.is_some());
                            served_queries += answers.len();
                        }
                        None => {
                            assert_eq!(
                                frame.queries, 0,
                                "case {case}: rejected frames serve nothing"
                            );
                            assert!(!frame.missed, "case {case}: rejections are not misses");
                            assert!(frame.wavefront.is_none() && frame.instance.is_none());
                        }
                    }
                }
            }
            let ledger_queries: usize = ledger.tenants.iter().map(|t| t.queries()).sum();
            assert_eq!(served_queries, ledger_queries, "case {case}: query conservation");
            let instance_waves: usize = ledger.instances.iter().map(|i| i.wavefronts).sum();
            assert_eq!(instance_waves, ledger.wavefronts, "case {case}: wavefront accounting");
            assert!(ledger.shared_wavefronts <= ledger.wavefronts);
        },
    );
}

#[test]
fn fuzz_service_ledgers_are_deterministic() {
    proptest::run_cases(
        "fuzz_service_ledgers_are_deterministic",
        ProptestConfig::with_cases(cases()),
        |rng, case| {
            let spec = random_spec(rng);
            let (_, a) = run_random(&spec);
            let (_, b) = run_random(&spec);
            assert_eq!(a.ledger.digest, b.ledger.digest, "case {case}");
            assert_eq!(a.results, b.results, "case {case}");
            assert_eq!(a.ledger.makespan, b.ledger.makespan, "case {case}");
            assert_eq!(a.ledger.admitted(), b.ledger.admitted(), "case {case}");
            assert_eq!(a.ledger.fleet_latencies(), b.ledger.fleet_latencies(), "case {case}");
            assert_eq!(
                a.ledger.total_energy().total(),
                b.ledger.total_energy().total(),
                "case {case}"
            );
        },
    );
}

#[test]
fn fuzz_he_zero_batching_never_changes_answers() {
    proptest::run_cases(
        "fuzz_he_zero_batching_never_changes_answers",
        ProptestConfig::with_cases(cases()),
        |rng, case| {
            let mut spec = random_spec(rng);
            spec.elision_depths = vec![0];
            let (ctx, out) = run_random(&spec);
            // the solo reference: each admitted frame re-run through the
            // same wavefront machinery with only its own tenant aboard
            let config = service_config();
            let knobs = CrescentKnobs { top_height: ctx.top_height, ..CrescentKnobs::default() };
            let search = StreamSearchConfig {
                radius: ctx.radius,
                max_neighbors: ctx.max_neighbors,
                elision_depth: 0,
                ..StreamSearchConfig::default()
            };
            let mut solo = ServiceInstance::new();
            let mut batch = TaggedBatch::new();
            for (ti, per_frame) in out.results.iter().enumerate() {
                for (frame, result) in per_frame.iter().enumerate() {
                    let Some(result) = result else { continue };
                    batch.clear();
                    batch.push_segment(ti as u64, &ctx.queries[ti][frame]);
                    let (tagged, _) =
                        solo.run_wavefront(&ctx.trees[frame].tree, &batch, &search, knobs, &config);
                    assert_eq!(
                        &tagged[0].1, result,
                        "case {case}: tenant {ti} frame {frame}: co-tenants changed answers"
                    );
                }
            }
        },
    );
}

/// The bits of every energy category of `ledger`.
fn energy_bits(ledger: &EnergyLedger) -> Vec<u64> {
    ledger.category_rows().iter().map(|(_, e)| e.to_bits()).collect()
}

/// Asserts two runs of one point produced the same outcome: answers,
/// digest, knob trajectory, instance reports, and energy to the bit.
fn assert_same_outcome(a: &ServiceOutcome, b: &ServiceOutcome, what: &str) {
    assert_eq!(a.results, b.results, "{what}: results");
    assert_eq!(a.ledger.digest, b.ledger.digest, "{what}: digest");
    assert_eq!(a.ledger.knob_trajectory, b.ledger.knob_trajectory, "{what}: knob trajectory");
    let instances = |o: &ServiceOutcome| -> Vec<(usize, u64, u64)> {
        o.ledger.instances.iter().map(|i| (i.wavefronts, i.busy_cycles, i.free_at)).collect()
    };
    assert_eq!(instances(a), instances(b), "{what}: instance reports");
    assert_eq!(
        energy_bits(&a.ledger.search_energy),
        energy_bits(&b.ledger.search_energy),
        "{what}: search energy"
    );
    assert_eq!(
        energy_bits(&a.ledger.map_energy),
        energy_bits(&b.ledger.map_energy),
        "{what}: map energy"
    );
    for (ta, tb) in a.ledger.tenants.iter().zip(&b.ledger.tenants) {
        assert_eq!(energy_bits(&ta.energy), energy_bits(&tb.energy), "{what}: {}", ta.name);
    }
    // and everything else the ledger holds
    assert_eq!(format!("{:?}", a.ledger), format!("{:?}", b.ledger), "{what}: ledger");
}

/// A warm wavefront memo is a fresh simulation. Every point of a small
/// random grid (one tenant and the whole mix, one instance and the
/// drawn fleet, `h_e` 0, 2 and 4, static and SLO control) runs on one
/// shared context — cold for the first point, warmed by the points
/// before it after that — then again on that now-warm context, and on a
/// fresh context of its own. All three outcomes must be identical. The
/// tenant and fleet axes matter: they change which riders share a wave,
/// so a memo key that missed a rider would hand one point another
/// point's wavefront. A tempo of under two slots per tenant keeps
/// frames queueing, so waves really are shared.
#[test]
fn fuzz_warm_memo_equals_fresh_simulation() {
    let shared_waves = AtomicUsize::new(0);
    proptest::run_cases(
        "fuzz_warm_memo_equals_fresh_simulation",
        ProptestConfig::with_cases(cases()),
        |rng, case| {
            let mut spec = random_spec(rng);
            spec.frame_period = 200 + rng.below(300);
            let shared = ServiceContext::build(&spec);
            for tenants in [1, spec.tenant_counts[0]] {
                for fleet in [1, spec.fleet_sizes[0]] {
                    for h_e in [0, 2, 4] {
                        for slo in [false, true] {
                            let run = |ctx: &ServiceContext| {
                                if slo {
                                    run_service_controlled(
                                        ctx,
                                        tenants,
                                        fleet,
                                        h_e,
                                        &spec.controller,
                                    )
                                } else {
                                    run_service(ctx, tenants, fleet, h_e)
                                }
                            };
                            let what = format!(
                                "case {case}: {tenants} tenants, fleet {fleet}, h_e {h_e}, slo {slo}"
                            );
                            let first = run(&shared);
                            let again = run(&shared);
                            let fresh = run(&ServiceContext::build(&spec));
                            assert_same_outcome(&first, &fresh, &what);
                            assert_same_outcome(&again, &fresh, &what);
                            shared_waves.fetch_add(fresh.ledger.shared_wavefronts, Relaxed);
                        }
                    }
                }
            }
        },
    );
    assert!(shared_waves.into_inner() > 0, "the grid must batch tenants into shared waves");
}

/// A pinned degenerate mix: a 1-deep backlog under an 8-tenant burst on
/// one instance — admission control must reject deterministically and
/// the ledger must still conserve every frame.
#[test]
fn overloaded_service_rejects_deterministically() {
    let mut spec = eight_tenant_spec();
    spec.max_backlog = 1;
    // arrivals of one tick land within a sliver of the period, so the
    // single queue slot is contested while the instance is busy
    spec.frame_period = 1_000;
    spec.base_deadline = 1_500;
    spec.fleet_sizes = vec![1];
    let a = run_serve(&spec, 2).expect("spec is valid");
    let b = run_serve(&spec, 2).expect("spec is valid");
    assert_eq!(a.to_json(), b.to_json());
    let row = &a.rows[0];
    assert!(row.rejected > 0, "a 1-deep backlog cannot admit an 8-tenant burst");
    assert_eq!(row.admitted + row.rejected, 8 * 4, "every frame accounted for");
}

/// The canonical mix construction itself: scenario diversity wraps at
/// ten, phases stay inside the period, deadline tiers cycle.
#[test]
fn mixed_tenants_cover_the_canonical_matrix() {
    let base = crescent::workload::FrameStreamConfig::default();
    let tenants = crescent::tenant::mixed_tenants(12, &base, 6_000, 9_000);
    assert_eq!(tenants.len(), 12);
    let scenarios: BTreeSet<&str> = tenants.iter().map(|t| t.workload.scenario.label()).collect();
    assert_eq!(scenarios.len(), 10, "12 tenants wrap the 10-scenario matrix");
    for t in &tenants {
        assert!(t.arrival_phase < 6_000, "phases stagger within one period");
        assert!(t.deadline_cycles % 9_000 == 0, "deadlines are tier multiples");
    }
}
