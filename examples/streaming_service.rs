//! Domain scenario: the multi-tenant streaming service end to end.
//!
//! Runs the CI-scale quick serve grid — tenant mixes of 2 / 4 / 8 over
//! a shared maintained map, fleets of 1 and 2, `h_e ∈ {0, 4}` — prints
//! the tail-latency ledger, and asserts the properties the CI
//! serve gate relies on: the report is byte-stable across runs and
//! worker counts, `h_e = 0` answers are bit-identical whatever the
//! fleet size (co-tenants move cycles, never answers), and admission
//! control plus deadline grading conserve every frame.
//!
//! ```text
//! cargo run --release --example streaming_service
//! ```

use crescent_bench::serve::render_summary;
use crescent_serve::{run_serve, ServeSpec, SCHEMA};

fn main() {
    let spec = ServeSpec::quick();
    println!(
        "# quick multi-tenant service: {} grid points, up to {} tenants",
        spec.num_points(),
        spec.max_tenants()
    );
    let report = run_serve(&spec, 4).expect("quick spec is valid");
    print!("{}", render_summary(&report));

    // --- the properties the CI gate is built on ---
    assert_eq!(report.rows.len(), spec.num_points());
    let json = report.to_json();
    assert!(json.contains(SCHEMA), "report must carry its schema version");

    // bit-reproducible across reruns and worker counts
    let rerun = run_serve(&spec, 1).expect("quick spec is valid");
    assert_eq!(json, rerun.to_json(), "report must be byte-identical across runs and workers");
    println!("ledger is byte-identical across reruns and worker counts");

    // h_e = 0 answers are fleet-invariant: rows that differ only in
    // fleet size carry the same result digest — batching and dispatch
    // order move latency, never neighbor sets. The digest also covers
    // admission outcomes (a rejected frame digests as a rejection), so
    // the comparison needs rows whose admission decisions agree: pairs
    // where neither side rejected anything. Static rows only: the SLO
    // controller raises h_e under pressure, deliberately trading
    // answers for deadlines.
    let mut compared = 0;
    for a in &report.rows {
        for b in &report.rows {
            if a.index < b.index
                && a.tenants == b.tenants
                && a.elision_depth == b.elision_depth
                && a.fleet != b.fleet
                && a.elision_depth == 0
                && a.controller == "static"
                && b.controller == "static"
                && a.rejected == 0
                && b.rejected == 0
            {
                assert_eq!(
                    a.digest, b.digest,
                    "rows {} and {}: fleet size changed exact answers",
                    a.index, b.index
                );
                compared += 1;
            }
        }
    }
    assert!(compared > 0, "the grid must pair rows differing only in fleet size");
    println!("h_e = 0 answers are fleet-invariant across {compared} row pairs");

    // every tenant frame is conserved: admitted + rejected == issued,
    // and the tail percentiles are ordered wherever frames were served
    for row in &report.rows {
        let issued: usize = row.per_tenant.iter().map(|t| t.admitted + t.rejected).sum();
        assert_eq!(row.admitted + row.rejected, issued, "row {}: frame conservation", row.index);
        assert!(
            row.p50 <= row.p95 && row.p95 <= row.p99,
            "row {}: fleet percentiles out of order",
            row.index
        );
        for t in &row.per_tenant {
            if t.admitted > 0 {
                assert!(
                    t.p50 <= t.p95 && t.p95 <= t.p99,
                    "row {} tenant {}: percentiles out of order",
                    row.index,
                    t.name
                );
            }
        }
    }
    println!("admission control conserves every frame; percentiles are ordered");

    // deadline pressure is visible at this scale: the 8-tenant mix on
    // one instance misses deadlines, the 2-tenant mix on two does not
    let strained = report.rows.iter().filter(|r| r.deadline_misses > 0).count();
    let clean = report.rows.iter().filter(|r| r.deadline_misses == 0).count();
    assert!(strained > 0 && clean > 0, "the grid must straddle the deadline boundary");
    println!("{strained} strained rows, {clean} clean rows — the ledger separates the regimes");

    // the closed loop earns its keep at the overload corner: the SLO
    // controller twin of the 8-tenant / fleet-1 / h_e-start-0 row must
    // beat its static counterpart on misses, paying in elided conflicts
    let corner = report
        .rows
        .iter()
        .find(|r| {
            r.tenants == 8 && r.fleet == 1 && r.elision_depth == 0 && r.controller == "static"
        })
        .expect("the overload corner is on the quick grid");
    let twin = report
        .rows
        .iter()
        .find(|r| r.tenants == 8 && r.fleet == 1 && r.elision_depth == 0 && r.controller == "slo")
        .expect("its controller-on twin is on the quick grid");
    assert!(
        twin.deadline_misses < corner.deadline_misses,
        "controller must strictly cut misses at the overload corner ({} vs {})",
        twin.deadline_misses,
        corner.deadline_misses
    );
    assert!(twin.conflicts_elided > 0, "the recall trade must be ledgered, not hidden");
    println!(
        "SLO controller cuts overload-corner misses {} -> {} (final h_e {}, {} conflicts elided)",
        corner.deadline_misses, twin.deadline_misses, twin.h_e_final, twin.conflicts_elided
    );
}
