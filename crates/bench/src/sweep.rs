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
//! Every metric in the report is modeled, so `--check` is exact: any
//! byte of drift is a real behavioural change. Wall-clock measurements
//! travel on a separate channel: every run prints its total, setup and
//! per-stage wall time to **stderr**, and `--timings <path>` additionally writes
//! the per-scenario and per-point breakdown as a sidecar JSON
//! ([`RunTimings::to_json`]) that is never digested and never
//! compared by `--check`. To acknowledge intended drift, refresh the
//! baseline with `repro sweep --quick --json bench/baseline.json` and
//! commit the diff.

use std::path::PathBuf;

use crescent::format_table;
use crescent_explorer::{
    default_workers, diff_reports, run_sweep_timed, spec_fingerprint, RunTimings, SweepReport,
    SweepRunStats, SweepSpec, TIMINGS_SCHEMA,
};

use crate::common::{secs, write_report};

/// Default location of the checked-in quick-sweep baseline, relative to
/// the workspace root (where CI and `cargo run` invoke the binary).
pub const DEFAULT_BASELINE: &str = "bench/baseline.json";

/// Parsed `repro sweep ...` arguments.
#[derive(Clone, Debug)]
pub struct SweepArgs {
    /// Run the quick (CI-scale) spec instead of the full grid.
    pub quick: bool,
    /// Write the JSON report here.
    pub json: Option<PathBuf>,
    /// Compare the report against `baseline` and fail on any drift.
    pub check: bool,
    /// Baseline path for `--check`.
    pub baseline: PathBuf,
    /// Worker-thread count (never affects the report bytes).
    pub workers: usize,
    /// Write the wall-clock timings sidecar here (`--timings <path>`).
    /// A *separate* file from the report: measured time is never part
    /// of the gated report bytes and never diffed by `--check`.
    pub timings: Option<PathBuf>,
}

impl SweepArgs {
    /// Parses the arguments that follow the `sweep` keyword. Unknown
    /// flags are errors so typos cannot silently weaken the CI gate.
    pub fn parse(args: &[String]) -> Result<SweepArgs, String> {
        let mut parsed = SweepArgs {
            quick: false,
            json: None,
            check: false,
            baseline: PathBuf::from(DEFAULT_BASELINE),
            workers: default_workers(),
            timings: None,
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--quick" => parsed.quick = true,
                "--check" => parsed.check = true,
                "--json" => {
                    let path = it.next().ok_or("--json needs a path")?;
                    parsed.json = Some(PathBuf::from(path));
                }
                "--timings" => {
                    let path = it.next().ok_or("--timings needs a path")?;
                    parsed.timings = Some(PathBuf::from(path));
                }
                "--baseline" => {
                    let path = it.next().ok_or("--baseline needs a path")?;
                    parsed.baseline = PathBuf::from(path);
                }
                "--workers" => {
                    let n = it.next().ok_or("--workers needs a count")?;
                    parsed.workers =
                        n.parse::<usize>().map_err(|_| format!("bad --workers value: {n}"))?;
                    if parsed.workers == 0 {
                        return Err("--workers must be >= 1".to_string());
                    }
                }
                other => return Err(format!("unknown sweep flag: {other}")),
            }
        }
        Ok(parsed)
    }
}

/// Runs the sweep subcommand end to end; returns the process exit code
/// (0 = success / no drift, 1 = drift or error).
pub fn run_sweep_command(args: &SweepArgs) -> i32 {
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

    let json = report.to_json();
    if let Some(path) = &args.json {
        if let Err(err) = write_report(path, &json) {
            eprintln!("cannot write {}: {err}", path.display());
            return 1;
        }
        println!("report written to {}", path.display());
    }
    if let Some(path) = &args.timings {
        let sidecar = timings.to_json(TIMINGS_SCHEMA, &spec.label, spec_fingerprint(&spec));
        if let Err(err) = write_report(path, &sidecar) {
            eprintln!("cannot write {}: {err}", path.display());
            return 1;
        }
        println!("timings sidecar written to {}", path.display());
    }

    if args.check {
        let baseline = match std::fs::read_to_string(&args.baseline) {
            Ok(text) => text,
            Err(err) => {
                eprintln!(
                    "cannot read baseline {}: {err}\n\
                     (generate one with `repro sweep{} --json {}` and commit it)",
                    args.baseline.display(),
                    if args.quick { " --quick" } else { "" },
                    args.baseline.display()
                );
                return 1;
            }
        };
        match diff_reports(&baseline, &json) {
            None => println!("sweep check OK: report matches {}", args.baseline.display()),
            Some(drift) => {
                eprintln!("{drift}");
                eprintln!(
                    "if this drift is intended, refresh the baseline:\n\
                     cargo run --release -p crescent-bench --bin repro -- sweep{} --json {}",
                    if args.quick { " --quick" } else { "" },
                    args.baseline.display()
                );
                return 1;
            }
        }
    }
    0
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
/// the run total, the serial scenario-setup prologue — overall and per
/// scenario — and each stage of the cascade summed across the worker
/// pool (compose is the per-point clock of the sidecar).
fn eprint_timings(timings: &RunTimings, stats: &SweepRunStats) {
    eprintln!(
        "# wall-clock: total {:.3}s (scenario setup {:.3}s serial; summed over {} workers: \
         maintain {:.3}s, search {:.3}s, compose {:.3}s)",
        secs(timings.total_nanos),
        secs(timings.setup_nanos()),
        stats.workers,
        secs(stats.maintain_nanos),
        secs(stats.search_nanos),
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

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_ci_invocations() {
        let a = SweepArgs::parse(&strings(&["--quick", "--json", "target/sweep.json"])).unwrap();
        assert!(a.quick);
        assert!(!a.check);
        assert_eq!(a.json.as_deref(), Some(Path::new("target/sweep.json")));
        assert_eq!(a.baseline, Path::new(DEFAULT_BASELINE));

        let b = SweepArgs::parse(&strings(&["--quick", "--check"])).unwrap();
        assert!(b.check);
        assert!(b.json.is_none());

        let c = SweepArgs::parse(&strings(&["--check", "--baseline", "x.json", "--workers", "3"]))
            .unwrap();
        assert_eq!(c.baseline, Path::new("x.json"));
        assert_eq!(c.workers, 3);
        assert!(!c.quick);
        assert!(c.timings.is_none());
    }

    #[test]
    fn parses_the_timings_sidecar_path() {
        let a = SweepArgs::parse(&strings(&["--quick", "--timings", "target/t.json"])).unwrap();
        assert_eq!(a.timings.as_deref(), Some(Path::new("target/t.json")));
        // the sidecar composes with every mode, including --check (the
        // sidecar is not an input to the comparator)
        let b = SweepArgs::parse(&strings(&["--quick", "--json", "s.json", "--timings", "t.json"]))
            .unwrap();
        assert_eq!(b.timings.as_deref(), Some(Path::new("t.json")));
        let c = SweepArgs::parse(&strings(&["--quick", "--check", "--timings", "t.json"])).unwrap();
        assert!(c.check);
        assert!(SweepArgs::parse(&strings(&["--timings"])).is_err(), "path is mandatory");
    }

    #[test]
    fn rejects_bad_flags() {
        assert!(SweepArgs::parse(&strings(&["--jsn", "x"])).is_err());
        assert!(SweepArgs::parse(&strings(&["--json"])).is_err());
        assert!(SweepArgs::parse(&strings(&["--workers", "0"])).is_err());
        assert!(SweepArgs::parse(&strings(&["--workers", "many"])).is_err());
    }

    #[test]
    fn rejects_the_retired_shard_flag() {
        // an unknown flag is an error, never silently ignored
        for args in [&["--shard", "1/2"][..], &["--quick", "--shard", "1/2", "--check"]] {
            let err = SweepArgs::parse(&strings(args)).unwrap_err();
            assert_eq!(err, "unknown sweep flag: --shard");
        }
    }
}
