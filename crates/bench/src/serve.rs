//! The `repro serve` subcommand: run the multi-tenant streaming
//! service grid, emit the machine-readable ledger report, and (in
//! `--check` mode) gate against the checked-in baseline with the exact
//! comparator.
//!
//! ```text
//! repro serve --quick --json target/serve.json   # run + write report
//! repro serve --quick --check                    # CI gate vs bench/serve-baseline.json
//! repro serve --quick --check --baseline other.json
//! repro serve --workers 4                        # full grid, pinned pool
//! repro serve --quick --timings target/serve-timings.json  # wall-clock sidecar
//! ```
//!
//! The flags, the report and sidecar writes and the exact `--check`
//! are the front end both grid subcommands share ([`crate::grid`]). To
//! acknowledge intended drift, refresh the baseline with `repro serve
//! --quick --json bench/serve-baseline.json` and commit the diff.

use crescent::format_table;
use crescent_serve::{
    run_serve_timed, serve_fingerprint, RunTimings, ServeReport, ServeRunStats, ServeSpec,
    TIMINGS_SCHEMA,
};

use crate::common::secs;
use crate::grid::GridArgs;

/// Default location of the checked-in quick-serve baseline, relative to
/// the workspace root (where CI and `cargo run` invoke the binary).
pub const DEFAULT_SERVE_BASELINE: &str = "bench/serve-baseline.json";

/// Parsed `repro serve ...` arguments: the shared grid flags plus the
/// SLO override.
#[derive(Clone, Debug)]
pub struct ServeArgs {
    /// The flags every grid subcommand takes.
    pub grid: GridArgs,
    /// Override the spec's base per-frame deadline, in milliseconds of
    /// the modeled 1 GHz clock (`--slo-ms 0.012` → 12 000 cycles).
    /// Changes the spec fingerprint, so `--check` against the default
    /// baseline correctly reports a *different spec*, not drift.
    pub slo_ms: Option<f64>,
}

impl ServeArgs {
    /// Parses the arguments that follow the `serve` keyword. Unknown
    /// flags are errors so typos cannot silently weaken the CI gate.
    pub fn parse(args: &[String]) -> Result<ServeArgs, String> {
        let mut slo_ms = None;
        let grid = GridArgs::parse("serve", DEFAULT_SERVE_BASELINE, args, |flag, rest| {
            if flag != "--slo-ms" {
                return Ok(false);
            }
            let ms = rest.next().ok_or("--slo-ms needs a budget in milliseconds")?;
            let ms = ms.parse::<f64>().map_err(|_| format!("bad --slo-ms value: {ms}"))?;
            if !ms.is_finite() || ms <= 0.0 {
                return Err("--slo-ms must be a positive number".to_string());
            }
            slo_ms = Some(ms);
            Ok(true)
        })?;
        Ok(ServeArgs { grid, slo_ms })
    }
}

/// Runs the serve subcommand end to end; returns the process exit code
/// (0 = success / no drift, 1 = drift or error).
pub fn run_serve_command(args: &ServeArgs) -> i32 {
    let grid = &args.grid;
    let mut spec = if grid.quick { ServeSpec::quick() } else { ServeSpec::full() };
    if let Some(ms) = args.slo_ms {
        // modeled clock is 1 GHz: 1 ms == 1e6 cycles
        spec.base_deadline = (ms * 1e6).round() as u64;
        println!("# SLO override: base deadline {ms} ms = {} cycles", spec.base_deadline);
    }
    let workers = grid.workers.clamp(1, spec.num_points().max(1));
    println!(
        "# streaming service: {} ({} points, {workers} workers)",
        spec.label,
        spec.num_points()
    );
    let (report, stats, timings) = match run_serve_timed(&spec, grid.workers) {
        Ok(triple) => triple,
        Err(err) => {
            eprintln!("serve failed: {err}");
            return 1;
        }
    };
    debug_assert_eq!(stats.workers, workers, "announced pool matches the executed pool");
    print!("{}", render_summary(&report));
    // the wall-clock accounting goes to STDERR in every mode: measured
    // time is operator feedback, never report data
    eprint_timings(&timings, &stats);
    grid.finish(&report.to_json(), || {
        timings.to_json(TIMINGS_SCHEMA, &spec.label, serve_fingerprint(&spec))
    })
}

/// A short human-readable digest of the report: one line per grid
/// point with its admission, tail-latency, and amortization headlines.
pub fn render_summary(report: &ServeReport) -> String {
    let mut out = String::new();
    let rows: Vec<Vec<String>> = report
        .rows
        .iter()
        .map(|r| {
            vec![
                format!("{}", r.index),
                format!("{}", r.tenants),
                format!("{}", r.fleet),
                format!("{}", r.elision_depth),
                r.controller.clone(),
                format!("{}", r.h_e_final),
                format!("{}/{}", r.admitted, r.admitted + r.rejected),
                format!("{}", r.deadline_misses),
                format!("{}", r.p50),
                format!("{}", r.p95),
                format!("{}", r.p99),
                format!("{}/{}", r.shared_wavefronts, r.wavefronts),
                format!("{:.2}", r.amortization),
                format!("{:.2}", r.utilization),
            ]
        })
        .collect();
    out.push_str(&format!(
        "{} service points; admission, tail latency (modeled cycles), batching:\n",
        report.rows.len()
    ));
    out.push_str(&format_table(
        &[
            "row",
            "tenants",
            "fleet",
            "h_e",
            "ctl",
            "h_e_fin",
            "admitted",
            "miss",
            "p50",
            "p95",
            "p99",
            "shared/wf",
            "amort",
            "util",
        ],
        &rows,
    ));
    out
}

/// Prints a run's wall-clock accounting to stderr (every mode gets it):
/// the run total, the elapsed context build (map renders, both
/// maintenance runs and tenant queries as jobs on the worker pool), the
/// per-point time summed across the worker pool, how many of the
/// dispatched wavefronts the context's memo actually simulated, and how
/// many tenant frames those simulations traced.
fn eprint_timings(timings: &RunTimings, stats: &ServeRunStats) {
    eprintln!(
        "# wall-clock: total {:.3}s (context build {:.3}s elapsed, points {:.3}s summed over \
         {} workers; {} of {} wavefronts simulated from {} traced tenant frames)",
        secs(timings.total_nanos),
        secs(timings.setup_nanos()),
        secs(timings.point_nanos()),
        stats.workers,
        stats.wavefronts_simulated,
        stats.wavefronts_dispatched,
        stats.frames_traced,
    );
}

#[cfg(test)]
mod tests {
    use std::path::Path;

    use super::*;

    fn parse(args: &[&str]) -> Result<ServeArgs, String> {
        ServeArgs::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_ci_invocations() {
        let a = parse(&["--quick", "--json", "target/serve.json"]).unwrap().grid;
        assert!(a.quick);
        assert!(!a.check);
        assert_eq!(a.json.as_deref(), Some(Path::new("target/serve.json")));
        assert_eq!(a.baseline, Path::new(DEFAULT_SERVE_BASELINE));

        let b = parse(&["--quick", "--check"]).unwrap().grid;
        assert!(b.check);
        assert!(b.json.is_none());

        let c = parse(&["--check", "--baseline", "x.json", "--workers", "3"]).unwrap().grid;
        assert_eq!(c.baseline, Path::new("x.json"));
        assert_eq!(c.workers, 3);
        assert!(!c.quick);
    }

    #[test]
    fn parses_the_timings_sidecar_path() {
        let a = parse(&["--quick", "--timings", "target/t.json"]).unwrap().grid;
        assert_eq!(a.timings.as_deref(), Some(Path::new("target/t.json")));
        // the sidecar composes with --check (it is not a comparator input)
        let b = parse(&["--quick", "--check", "--timings", "t.json"]).unwrap().grid;
        assert!(b.check);
        assert!(parse(&["--timings"]).is_err(), "path is mandatory");
    }

    #[test]
    fn parses_the_slo_override() {
        let a = parse(&["--quick", "--slo-ms", "0.012", "--check"]).unwrap();
        assert_eq!(a.slo_ms, Some(0.012));
        assert!(a.grid.check, "grid flags parse on either side of --slo-ms");
        assert_eq!(parse(&["--quick"]).unwrap().slo_ms, None);
        assert!(parse(&["--slo-ms"]).is_err(), "budget is mandatory");
        assert!(parse(&["--slo-ms", "0"]).is_err());
        assert!(parse(&["--slo-ms", "-1"]).is_err());
        assert!(parse(&["--slo-ms", "NaN"]).is_err());
        assert!(parse(&["--slo-ms", "soon"]).is_err());
    }

    #[test]
    fn an_slo_that_rounds_to_zero_cycles_fails_the_command() {
        // positive, so it parses, but 1e-7 ms is 0.1 cycle at 1 GHz: the
        // spec's validation rejects the zero-cycle deadline before any run
        let args = parse(&["--quick", "--slo-ms", "0.0000001"]).unwrap();
        assert_eq!(run_serve_command(&args), 1);
    }

    #[test]
    fn an_slo_whose_deadline_tiers_overflow_fails_the_command() {
        // 2^63 cycles parses and fits a u64, but the 4x deadline tier
        // would wrap (and read as an early deadline): validation names
        // the overflow before any run
        let args = parse(&["--quick", "--slo-ms", "9223372036854.775808"]).unwrap();
        assert_eq!(run_serve_command(&args), 1);
    }

    #[test]
    fn rejects_bad_flags() {
        assert!(parse(&["--jsn", "x"]).is_err());
        assert!(parse(&["--json"]).is_err());
        assert!(parse(&["--workers", "0"]).is_err());
        assert!(parse(&["--workers", "many"]).is_err());
        assert_eq!(parse(&["--shard", "1/2"]).unwrap_err(), "unknown serve flag: --shard");
    }
}
