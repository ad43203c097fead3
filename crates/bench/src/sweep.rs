//! The `repro sweep` subcommand: run the design-space explorer, emit
//! the machine-readable report, and (in `--check` mode) gate against
//! the checked-in baseline with the exact comparator.
//!
//! ```text
//! repro sweep --quick --json target/sweep.json   # run + write report
//! repro sweep --quick --check                    # CI gate vs bench/baseline.json
//! repro sweep --quick --check --baseline other.json
//! repro sweep --workers 4                        # full grid, pinned pool
//! repro sweep --quick --timings target/timings.json  # wall-clock sidecar
//! ```
//!
//! The flags, the report and sidecar writes and the exact `--check`
//! are the front end both grid subcommands share ([`crate::grid`]). To
//! acknowledge intended drift, refresh the baseline with `repro sweep
//! --quick --json bench/baseline.json` and commit the diff.

use crescent::format_table;
use crescent_explorer::{
    run_sweep_timed, spec_fingerprint, RunTimings, SweepReport, SweepRunStats, SweepSpec,
    TIMINGS_SCHEMA,
};

use crate::common::secs;
use crate::grid::GridArgs;

/// Default location of the checked-in quick-sweep baseline, relative to
/// the workspace root (where CI and `cargo run` invoke the binary).
pub const DEFAULT_BASELINE: &str = "bench/baseline.json";

/// Parses the arguments that follow the `sweep` keyword: the shared
/// grid flags, nothing more.
pub fn parse_args(args: &[String]) -> Result<GridArgs, String> {
    GridArgs::parse("sweep", DEFAULT_BASELINE, args, |_, _| Ok(false))
}

/// Runs the sweep subcommand end to end; returns the process exit code
/// (0 = success / no drift, 1 = drift or error).
pub fn run_sweep_command(args: &GridArgs) -> i32 {
    let spec = if args.quick { SweepSpec::quick() } else { SweepSpec::full() };
    // announce the EFFECTIVE worker pool (requested count clamped to the
    // point count, exactly as run_sweep will clamp it) — the honest
    // number, not the requested one
    let points = spec.num_points();
    let workers = args.workers.clamp(1, points.max(1));
    println!("# design-space sweep: {} ({points} points, {workers} workers)", spec.label);
    let (report, stats, timings) = match run_sweep_timed(&spec, args.workers) {
        Ok(triple) => triple,
        Err(err) => {
            eprintln!("sweep failed: {err}");
            return 1;
        }
    };
    debug_assert_eq!(stats.workers, workers, "announced pool matches the executed pool");
    print!("{}", render_summary(&report));
    // the wall-clock accounting goes to STDERR in every mode: measured
    // time is operator feedback, never report data
    eprint_timings(&timings, &stats);
    args.finish(&report.to_json(), || {
        timings.to_json(TIMINGS_SCHEMA, &spec.label, spec_fingerprint(&spec))
    })
}

/// A short human-readable digest of the report: the per-scenario Pareto
/// fronts with each member's headline metrics.
pub fn render_summary(report: &SweepReport) -> String {
    let mut out = String::new();
    let mut rows = Vec::new();
    for (scenario, front) in report.pareto() {
        for &idx in &front {
            let r = &report.rows[idx];
            rows.push(vec![
                scenario.to_string(),
                format!("{idx}"),
                r.maintenance.to_string(),
                format!("{}", r.num_pes),
                format!("{}", r.tree_banks),
                if r.aggregation_elision { "on".to_string() } else { "off".to_string() },
                format!("<{},{}>", r.top_height_used, r.elision_depth),
                format!("{}", r.pipelined_cycles),
                format!("{:.0}", r.energy.total()),
                format!("{:.4}", r.recall),
            ]);
        }
    }
    out.push_str(&format!(
        "{} rows; Pareto fronts (cycles x energy x recall) per scenario:\n",
        report.rows.len()
    ));
    out.push_str(&format_table(
        &[
            "scenario",
            "row",
            "maint",
            "pes",
            "banks",
            "agg",
            "<h_t,h_e>",
            "cycles",
            "energy",
            "recall",
        ],
        &rows,
    ));
    out
}

/// Prints a run's wall-clock accounting to stderr (every mode gets it):
/// the run total, the elapsed scenario setups (frame renders and recall
/// oracles on the worker pool) — overall and per scenario — and each
/// stage of the cascade summed across the worker pool, the trace and
/// search stages with their pass counts and the search stage's replays
/// on their own (compose is the per-point clock of the sidecar).
fn eprint_timings(timings: &RunTimings, stats: &SweepRunStats) {
    eprintln!(
        "# wall-clock: total {:.3}s (scenario setup {:.3}s elapsed; summed over {} workers: \
         maintain {:.3}s, trace {:.3}s over {} passes, search {:.3}s (replay {:.3}s) over {} \
         passes, compose {:.3}s)",
        secs(timings.total_nanos),
        secs(timings.setup_nanos()),
        stats.workers,
        secs(stats.maintain_nanos),
        secs(stats.trace_nanos),
        stats.trace_passes,
        secs(stats.search_nanos),
        secs(stats.replay_nanos),
        stats.search_passes,
        secs(stats.point_nanos),
    );
    for (scenario, nanos) in &timings.setup {
        eprintln!("#   setup {scenario}: {:.3}s", secs(*nanos));
    }
}

#[cfg(test)]
mod tests {
    use std::path::Path;

    use super::*;

    fn parse(args: &[&str]) -> Result<GridArgs, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_ci_invocations() {
        let a = parse(&["--quick", "--json", "target/sweep.json"]).unwrap();
        assert!(a.quick);
        assert!(!a.check);
        assert_eq!(a.json.as_deref(), Some(Path::new("target/sweep.json")));
        assert_eq!(a.baseline, Path::new(DEFAULT_BASELINE));

        let b = parse(&["--quick", "--check"]).unwrap();
        assert!(b.check);
        assert!(b.json.is_none());

        let c = parse(&["--check", "--baseline", "x.json", "--workers", "3"]).unwrap();
        assert_eq!(c.baseline, Path::new("x.json"));
        assert_eq!(c.workers, 3);
        assert!(!c.quick);
        assert!(c.timings.is_none());
    }

    #[test]
    fn parses_the_timings_sidecar_path() {
        let a = parse(&["--quick", "--timings", "target/t.json"]).unwrap();
        assert_eq!(a.timings.as_deref(), Some(Path::new("target/t.json")));
        // the sidecar composes with every mode, including --check (the
        // sidecar is not an input to the comparator)
        let b = parse(&["--quick", "--json", "s.json", "--timings", "t.json"]).unwrap();
        assert_eq!(b.timings.as_deref(), Some(Path::new("t.json")));
        let c = parse(&["--quick", "--check", "--timings", "t.json"]).unwrap();
        assert!(c.check);
        assert!(parse(&["--timings"]).is_err(), "path is mandatory");
    }

    #[test]
    fn rejects_bad_flags() {
        assert!(parse(&["--jsn", "x"]).is_err());
        assert!(parse(&["--json"]).is_err());
        assert!(parse(&["--workers", "0"]).is_err());
        assert!(parse(&["--workers", "many"]).is_err());
        assert!(parse(&["--slo-ms", "1"]).is_err(), "--slo-ms is serve's alone");
    }

    #[test]
    fn rejects_the_retired_shard_flag() {
        // an unknown flag is an error, never silently ignored
        for args in [&["--shard", "1/2"][..], &["--quick", "--shard", "1/2", "--check"]] {
            assert_eq!(parse(args).unwrap_err(), "unknown sweep flag: --shard");
        }
    }
}
