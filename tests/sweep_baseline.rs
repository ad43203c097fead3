//! In-repo edition of the CI sweep gate: run the quick grid and assert
//! the rendered report is **byte-identical** to the checked-in
//! `bench/baseline.json` through [`check_baseline`] — the same check
//! `repro sweep --quick --check` runs, available to plain `cargo test`
//! with no subprocess and no network.
//!
//! This is the regression net under the wall-clock fast paths (SoA node
//! columns, recycled scratch arenas, the incremental recall oracle):
//! each of those refactors claims to change *no modeled byte*, and this
//! test is where that claim is pinned. On intended drift, refresh the
//! baseline (`repro sweep --quick --json bench/baseline.json`), commit
//! it, and the schema-versioned header documents the change.

use std::path::Path;
use std::sync::OnceLock;

use proptest::prelude::*;

use crescent_explorer::{check_baseline, default_workers, diff_reports, run_sweep, SweepSpec};

#[test]
fn quick_sweep_reproduces_the_checked_in_baseline_bytes() {
    let baseline = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/bench/baseline.json"));
    let report = run_sweep(&SweepSpec::quick(), default_workers()).expect("quick spec is valid");
    if let Err(err) = check_baseline(baseline, &report.to_json()) {
        panic!(
            "quick sweep drifted from bench/baseline.json:\n{err}\n\
             if intended, refresh with `cargo run --release -p crescent-bench --bin repro -- \
             sweep --quick --json bench/baseline.json` and commit the diff"
        );
    }
}

/// A real one-point report (every axis truncated to its first value),
/// rendered once for the whole file.
fn one_point_report() -> &'static str {
    static REPORT: OnceLock<String> = OnceLock::new();
    REPORT.get_or_init(|| {
        let mut spec = SweepSpec::quick();
        spec.label = "no-wall-clock".to_string();
        spec.scenarios.truncate(1);
        spec.maintenance.truncate(1);
        spec.num_pes.truncate(1);
        spec.tree_kb.truncate(1);
        spec.tree_banks.truncate(1);
        spec.dram_bytes_per_cycle.truncate(1);
        spec.aggregation_elision.truncate(1);
        spec.top_heights.truncate(1);
        spec.elision_depths.truncate(1);
        run_sweep(&spec, 1).expect("valid spec").to_json()
    })
}

/// The timings sidecar must never be able to reach the gated bytes:
/// the report renderer has no timing fields, so the word cannot occur.
#[test]
fn report_bytes_carry_no_wall_clock() {
    let json = one_point_report();
    assert!(!json.contains("timings"), "report bytes must not carry a timings section");
    assert!(!json.contains("nanos"), "report bytes must not carry wall-clock fields");
}

/// ... and if a writer ever inlined a `"timings"` section anyway, the
/// comparator behind `--check` rejects the report against its baseline.
#[test]
fn diff_reports_rejects_a_report_with_inlined_timings() {
    let baseline = one_point_report();
    let inlined = baseline.replacen(
        "  \"workload\":",
        "  \"timings\": {\"total_nanos\": 12345},\n  \"workload\":",
        1,
    );
    assert!(inlined.contains("\"timings\""), "injection must have landed");
    let drift = diff_reports(baseline, &inlined).expect("an inlined timings section is drift");
    assert!(drift.contains("timings"), "the drift names the injected line: {drift}");
}

/// Baselines written under an older schema read as a different spec,
/// never as metric drift: a `v4` one still carries the `"shard": null`
/// header line, and a `v5` one still carries the engine cross-check
/// columns on every row.
#[test]
fn diff_reports_names_stale_baselines_a_different_spec() {
    let current = one_point_report();
    let v4 = current.replacen("crescent-sweep/v6", "crescent-sweep/v4", 1).replacen(
        "  \"workload\":",
        "  \"shard\": null,\n  \"workload\":",
        1,
    );
    let v5 = current
        .replacen("crescent-sweep/v6", "crescent-sweep/v5", 1)
        .replace("\"}\n", "\",\"engine_digest\":\"00000000deadbeef\"}\n");
    assert!(v5.contains("engine_digest"), "the stale column must have landed");
    for (schema, stale) in [("crescent-sweep/v4", v4), ("crescent-sweep/v5", v5)] {
        let msg = diff_reports(&stale, current).expect("stale and current reports differ");
        assert!(msg.contains("different spec"), "{schema}: {msg}");
        assert!(msg.contains(schema), "{schema}: {msg}");
        assert!(!msg.contains("drifted from baseline"), "{schema}: {msg}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The comparator reads untrusted files: a truncated or byte-mutated
    /// copy of a real report, on either side, yields a named error and
    /// never a panic.
    #[test]
    fn diff_reports_never_panics_on_damaged_reports(
        mode in 0u8..3,
        cut in 0usize..usize::MAX,
        at in 0usize..usize::MAX,
        pick in 0usize..usize::MAX,
    ) {
        const ALPHABET: &[u8] = b"{}[]\":,\\\n 0x-";
        let real = one_point_report();
        let mut bytes = real.as_bytes().to_vec();
        if mode != 0 {
            bytes[at % real.len()] = ALPHABET[pick % ALPHABET.len()];
        }
        if mode != 1 {
            bytes.truncate(cut % real.len());
        }
        let damaged = String::from_utf8_lossy(&bytes);
        for result in [diff_reports(real, &damaged), diff_reports(&damaged, real)] {
            match result {
                None => prop_assert_eq!(damaged.as_ref(), real),
                Some(msg) => prop_assert!(
                    msg.starts_with("sweep report drifted from baseline")
                        || msg.starts_with("sweep baseline was produced by a different spec"),
                    "unnamed error: {msg}"
                ),
            }
        }
    }
}
