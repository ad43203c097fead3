//! The explorer's scenario × maintenance matrix, under the determinism
//! contract the CI `sweep-gate` depends on.
//!
//! Runs every [`StreamScenario`] × both [`TreeMaintenance`] policies
//! through the explorer's quick grid (pruned to one PE count / one
//! `h_e` so the debug-profile test stays fast — the full 160-point grid
//! runs in release in `examples/design_sweep.rs` and the CI gate) and
//! asserts:
//!
//! * (a) neighbor sets are bit-identical across maintenance policies on
//!   every scenario (the refit-correctness invariant, observed through
//!   the report digests);
//! * (b) the report is byte-identical across two runs and across
//!   worker counts (1 vs. N).

use crescent::workload::StreamScenario;
use crescent_accel::TreeMaintenance;
use crescent_explorer::{maintenance_label, run_sweep, SweepReport, SweepSpec};

/// The quick spec pruned to a single architecture point per
/// scenario × policy cell: 10 scenarios × 2 policies = 20 rows.
fn matrix_spec() -> SweepSpec {
    let mut spec = SweepSpec::quick();
    spec.label = "quick-matrix".to_string();
    spec.num_pes = vec![4];
    spec.tree_banks = vec![4];
    spec.elision_depths = vec![4];
    spec
}

fn run_matrix(workers: usize) -> SweepReport {
    run_sweep(&matrix_spec(), workers).expect("matrix spec is valid")
}

#[test]
fn matrix_covers_every_scenario_policy_cell() {
    let report = run_matrix(2);
    assert_eq!(report.rows.len(), 20);
    for &scenario in StreamScenario::canonical_matrix().iter() {
        for maintenance in [TreeMaintenance::RebuildEveryFrame, TreeMaintenance::refit()] {
            let hits = report
                .rows
                .iter()
                .filter(|r| {
                    r.scenario == scenario.label()
                        && r.maintenance == maintenance_label(maintenance)
                })
                .count();
            assert_eq!(
                hits,
                1,
                "cell {} x {} missing or duplicated",
                scenario.label(),
                maintenance_label(maintenance)
            );
        }
    }
}

#[test]
fn neighbor_sets_are_bit_identical_across_policies() {
    let report = run_matrix(2);
    for &scenario in StreamScenario::canonical_matrix().iter() {
        let cell = |policy: &str| {
            report
                .rows
                .iter()
                .find(|r| r.scenario == scenario.label() && r.maintenance == policy)
                .expect("cell exists")
        };
        let rebuild = cell("rebuild");
        let refit = cell("refit");
        assert_eq!(
            rebuild.digest,
            refit.digest,
            "{}: maintenance policy changed the stream's neighbor sets",
            scenario.label()
        );
        assert_eq!(rebuild.recall, refit.recall, "{}", scenario.label());
        assert_eq!(rebuild.neighbors, refit.neighbors, "{}", scenario.label());
    }
}

#[test]
fn report_is_deterministic_across_runs_and_worker_counts() {
    let a = run_matrix(1);
    let b = run_matrix(1);
    let c = run_matrix(3);
    let json = a.to_json();
    assert_eq!(json, b.to_json(), "same spec, same bytes");
    assert_eq!(json, c.to_json(), "worker count must not leak into the report");
    // and the digests really carry the result identity: every row is
    // reproduced exactly
    for (x, y) in a.rows.iter().zip(&c.rows) {
        assert_eq!(x.digest, y.digest);
        assert_eq!(x.pipelined_cycles, y.pipelined_cycles);
        assert_eq!(x.energy.total(), y.energy.total());
    }
}

#[test]
fn streaming_pass_is_h_e_and_bank_sensitive_on_its_own() {
    // the acceptance criterion of the unified model: the streaming
    // columns move when h_e or the bank count changes
    let mut spec = matrix_spec();
    spec.label = "sensitivity".to_string();
    spec.scenarios = vec![StreamScenario::Registered];
    spec.maintenance = vec![TreeMaintenance::refit()];
    spec.tree_banks = vec![2, 4];
    spec.elision_depths = vec![0, 4];
    let report = run_sweep(&spec, 2).expect("sensitivity spec is valid");
    assert_eq!(report.rows.len(), 4);
    let row = |banks: usize, depth: usize| {
        report
            .rows
            .iter()
            .find(|r| r.tree_banks == banks && r.elision_depth == depth)
            .expect("cell exists")
    };
    for banks in [2, 4] {
        let exact = row(banks, 0);
        let elided = row(banks, 4);
        assert_eq!(exact.elided_conflicts, 0, "banks {banks}: h_e = 0 never elides");
        assert!(elided.elided_conflicts > 0, "banks {banks}: h_e = 4 must elide");
        assert_ne!(exact.digest, elided.digest, "banks {banks}: h_e must move stream results");
        assert!(elided.recall < exact.recall, "banks {banks}: elision costs stream recall");
        assert!(elided.arb_rounds < exact.arb_rounds, "banks {banks}: elision saves rounds");
    }
    for depth in [0, 4] {
        let narrow = row(2, depth);
        let wide = row(4, depth);
        assert!(
            narrow.bank_conflicts > wide.bank_conflicts,
            "h_e {depth}: fewer banks must conflict more"
        );
        assert!(
            narrow.arb_rounds >= wide.arb_rounds,
            "h_e {depth}: fewer banks can only serialize more"
        );
    }
}

#[test]
fn refit_pays_off_exactly_where_the_scenarios_say_it_should() {
    let report = run_matrix(2);
    let cycles = |scenario: &str, policy: &str| {
        report
            .rows
            .iter()
            .find(|r| r.scenario == scenario && r.maintenance == policy)
            .expect("cell exists")
            .pipelined_cycles
    };
    let rebuilds = |scenario: &str, policy: &str| {
        report
            .rows
            .iter()
            .find(|r| r.scenario == scenario && r.maintenance == policy)
            .expect("cell exists")
            .full_rebuilds
    };
    // registered (coherent, order-preserving) streams: refit wins
    assert!(cycles("registered", "refit") < cycles("registered", "rebuild"));
    assert_eq!(rebuilds("registered", "refit"), 1, "only frame 0 builds");
    // raw sweeps re-sort every frame: refit honestly falls back each time
    assert_eq!(rebuilds("sweep", "refit"), report.rows[0].frames);
    // the rebuild policy always rebuilds, everywhere
    for &scenario in StreamScenario::canonical_matrix().iter() {
        assert_eq!(rebuilds(scenario.label(), "rebuild"), report.rows[0].frames);
    }
}
