//! In-repo edition of the CI serve gates: run the quick and the full
//! service grid and assert each rendered report is **byte-identical**
//! to its checked-in baseline (`bench/serve-baseline.json`,
//! `bench/serve-full-baseline.json`) through [`check_baseline`] — the
//! same check `repro serve --check` runs, available to plain `cargo
//! test` with no subprocess and no network.
//!
//! Everything in the serve ledger is modeled — admission decisions,
//! EDF dispatch order, wavefront latencies, deadline grades, energy
//! attribution — so any byte of drift is a real behavioural change in
//! the scheduler or the engine underneath it. On intended drift,
//! refresh the baseline (`repro serve --quick --json
//! bench/serve-baseline.json`, or `repro serve --json
//! bench/serve-full-baseline.json`), commit it, and the schema-versioned
//! header documents the change.

use std::path::Path;

use crescent_explorer::check_baseline;
use crescent_serve::{default_workers, run_serve, ServeSpec};

/// Runs `spec` and fails with the drift and the refresh command unless
/// its report is byte-identical to the checked-in `baseline` (relative
/// to the workspace root); `quick` is the refresh command's flag.
fn assert_matches_baseline(spec: &ServeSpec, baseline: &str, quick: &str) {
    let report = run_serve(spec, default_workers()).expect("spec is valid");
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(baseline);
    if let Err(err) = check_baseline(&path, &report.to_json()) {
        panic!(
            "serve drifted from {baseline}:\n{err}\n\
             if intended, refresh with `cargo run --release -p crescent-bench --bin repro -- \
             serve{quick} --json {baseline}` and commit the diff"
        );
    }
}

#[test]
fn quick_serve_reproduces_the_checked_in_baseline_bytes() {
    assert_matches_baseline(&ServeSpec::quick(), "bench/serve-baseline.json", " --quick");
}

/// The full grid is the one `repro serve --check --baseline
/// bench/serve-full-baseline.json` gates in CI.
#[test]
fn full_serve_reproduces_the_checked_in_baseline_bytes() {
    assert_matches_baseline(&ServeSpec::full(), "bench/serve-full-baseline.json", "");
}

/// The timings sidecar must never be able to reach the gated bytes:
/// the report renderer has no timing fields, so the words cannot occur.
#[test]
fn serve_report_bytes_carry_no_wall_clock() {
    let mut spec = ServeSpec::quick();
    spec.label = "no-wall-clock".to_string();
    spec.map.scene.total_points = 1_200;
    spec.map.num_frames = 3;
    spec.tenant_base.scene.total_points = 500;
    spec.tenant_base.num_frames = 3;
    spec.tenant_base.queries_per_frame = 16;
    spec.tenant_counts = vec![2];
    spec.fleet_sizes = vec![1];
    spec.elision_depths = vec![0];
    let report = run_serve(&spec, 1).expect("valid spec");
    let json = report.to_json();
    assert!(!json.contains("timings"), "report bytes must not carry a timings section");
    assert!(!json.contains("nanos"), "report bytes must not carry wall-clock fields");
}

/// The quick grid must exercise every ledger regime the schema
/// promises: shared wavefronts (cross-tenant batching firing), deadline
/// misses, at least one rejection, and full admission somewhere — so
/// the gated baseline actually locks down admission control and
/// deadline grading, not just the happy path.
#[test]
fn quick_grid_covers_misses_rejections_and_sharing() {
    let report = run_serve(&ServeSpec::quick(), default_workers()).expect("quick spec is valid");
    assert!(report.rows.iter().any(|r| r.shared_wavefronts > 0), "no cross-tenant batching");
    assert!(report.rows.iter().any(|r| r.deadline_misses > 0), "no deadline pressure anywhere");
    assert!(report.rows.iter().any(|r| r.rejected > 0), "admission control never fired");
    assert!(report.rows.iter().any(|r| r.rejected == 0), "every point over capacity");
    // the controller axis is live in the gated bytes: some SLO row
    // moved its knob (a multi-entry h_e histogram), ledgered the recall
    // trade, and the mix's DescendantReuse tenant salvaged fetches
    let slo = |r: &&crescent_serve::ServeRow| r.controller == "slo";
    assert!(
        report.rows.iter().filter(slo).any(|r| r.h_e_cycles.len() > 1),
        "no SLO row ever moved its knob"
    );
    assert!(
        report.rows.iter().filter(slo).any(|r| r.conflicts_elided > 0),
        "controller pressure never ledgered a recall trade"
    );
    assert!(
        report.rows.iter().any(|r| r.conflict_reuses > 0),
        "the DescendantReuse tenant never salvaged an elided fetch fleet-wide"
    );
    for row in &report.rows {
        assert!(row.p50 <= row.p95 && row.p95 <= row.p99, "row {}: percentile order", row.index);
        assert!(row.amortization >= 1.0, "row {}: amortization below 1", row.index);
        // static rows pin their knob for the whole run
        if row.controller == "static" {
            assert_eq!(row.h_e_final, row.elision_depth, "row {}: static knob moved", row.index);
            assert_eq!(row.h_e_cycles.len(), 1, "row {}: static histogram", row.index);
        }
    }
}
