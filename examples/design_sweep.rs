//! Domain scenario: the parallel design-space explorer end to end.
//!
//! Runs the CI-scale quick sweep — every canonical streaming scenario ×
//! both tree-maintenance policies × the PE / `h_e` grid — on a worker
//! pool, prints the per-scenario Pareto fronts, and asserts the
//! properties the CI `sweep-gate` relies on: the report is byte-stable
//! across runs and worker counts, and the maintenance policy never
//! changes a neighbor set (only its cost).
//!
//! ```text
//! cargo run --release --example design_sweep
//! ```

use crescent_bench::sweep::render_summary;
use crescent_explorer::{run_sweep, SweepSpec, SCHEMA};

fn main() {
    let spec = SweepSpec::quick();
    println!("# quick design-space sweep: {} points", spec.num_points());
    let report = run_sweep(&spec, 4).expect("quick spec is valid");
    print!("{}", render_summary(&report));

    // --- the properties the CI gate is built on ---
    assert_eq!(report.rows.len(), spec.num_points());
    let json = report.to_json();
    assert!(json.contains(SCHEMA), "report must carry its schema version");

    // bit-reproducible across reruns and worker counts
    let rerun = run_sweep(&spec, 1).expect("quick spec is valid");
    assert_eq!(json, rerun.to_json(), "report must be byte-identical across runs and workers");

    // the maintenance policy is results-invariant: rows that differ only
    // in the policy produced bit-identical neighbor sets
    for a in &report.rows {
        for b in &report.rows {
            if a.index < b.index
                && a.scenario == b.scenario
                && a.num_pes == b.num_pes
                && a.tree_banks == b.tree_banks
                && a.elision_depth == b.elision_depth
                && a.maintenance != b.maintenance
            {
                assert_eq!(
                    a.digest, b.digest,
                    "policy changed results: rows {} {}",
                    a.index, b.index
                );
                assert_eq!(a.recall, b.recall);
            }
        }
    }

    // the unified model: h_e moves the streaming pass's cycles, conflict
    // counters and recall
    for a in &report.rows {
        for b in &report.rows {
            if a.index < b.index
                && a.scenario == b.scenario
                && a.maintenance == b.maintenance
                && a.num_pes == b.num_pes
                && a.tree_banks == b.tree_banks
                && a.elision_depth == 0
                && b.elision_depth > 0
            {
                assert_eq!(a.elided_conflicts, 0, "row {}: h_e = 0 must not elide", a.index);
                assert!(b.elided_conflicts > 0, "row {}: h_e > 0 must elide", b.index);
                assert!(
                    b.pipelined_cycles <= a.pipelined_cycles,
                    "rows {} {}: elision must never cost stream cycles",
                    a.index,
                    b.index
                );
                assert!(b.recall <= a.recall, "elision can only lose stream recall");
            }
        }
    }

    // the headline the sweep exists to show: on the registered
    // (refit-friendly) scenario the incremental policy is strictly
    // cheaper in stream cycles at equal results
    let stream_cycles = |scenario: &str, maintenance: &str| -> u64 {
        report
            .rows
            .iter()
            .filter(|r| r.scenario == scenario && r.maintenance == maintenance)
            .map(|r| r.pipelined_cycles)
            .min()
            .expect("grid covers this cell")
    };
    let rebuild = stream_cycles("registered", "rebuild");
    let refit = stream_cycles("registered", "refit");
    assert!(refit < rebuild, "refit {refit} must beat rebuild {rebuild} on registered streams");

    // recall is a real measurement: approximate, but not garbage. The
    // stall-only h_e = 0 rows lose neighbors only across sub-tree
    // boundaries (the h_t approximation), so they stay high; elided
    // rows trade real accuracy for rounds and only need a sanity floor
    for r in &report.rows {
        let floor = if r.elision_depth == 0 { 0.5 } else { 0.2 };
        assert!(
            r.recall > floor && r.recall <= 1.0,
            "row {} (h_e {}): recall {}",
            r.index,
            r.elision_depth,
            r.recall
        );
    }
    // and elision actually fires somewhere in the grid, so the accuracy
    // axis of the Pareto fronts is live
    assert!(report.rows.iter().any(|r| r.elided_conflicts > 0), "no stream row elided anything");

    println!(
        "\nall sweep invariants hold ({} rows, refit {refit} vs rebuild {rebuild} stream cycles)",
        report.rows.len()
    );
}
