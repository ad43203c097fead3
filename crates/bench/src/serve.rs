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
//! Every metric in the report is modeled, so `--check` is exact: any
//! byte of drift is a real behavioural change. Wall-clock measurements
//! travel on a separate channel: every run prints its total/context/
//! point wall time to **stderr**, and `--timings <path>` additionally
//! writes the per-point breakdown as a sidecar JSON
//! ([`RunTimings::to_json`]) that is never digested and never
//! compared by `--check`. To acknowledge intended drift, refresh the
//! baseline with `repro serve --quick --json bench/serve-baseline.json`
//! and commit the diff.

use std::path::{Path, PathBuf};

use crescent::format_table;
use crescent_explorer::diff_reports;
use crescent_serve::{
    default_workers, run_serve_timed, serve_fingerprint, RunTimings, ServeReport, ServeSpec,
    TIMINGS_SCHEMA,
};

/// Default location of the checked-in quick-serve baseline, relative to
/// the workspace root (where CI and `cargo run` invoke the binary).
pub const DEFAULT_SERVE_BASELINE: &str = "bench/serve-baseline.json";

/// Parsed `repro serve ...` arguments.
#[derive(Clone, Debug)]
pub struct ServeArgs {
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
        let mut parsed = ServeArgs {
            quick: false,
            json: None,
            check: false,
            baseline: PathBuf::from(DEFAULT_SERVE_BASELINE),
            workers: default_workers(),
            timings: None,
            slo_ms: None,
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
                "--slo-ms" => {
                    let ms = it.next().ok_or("--slo-ms needs a budget in milliseconds")?;
                    let ms = ms.parse::<f64>().map_err(|_| format!("bad --slo-ms value: {ms}"))?;
                    if !ms.is_finite() || ms <= 0.0 {
                        return Err("--slo-ms must be a positive number".to_string());
                    }
                    parsed.slo_ms = Some(ms);
                }
                other => return Err(format!("unknown serve flag: {other}")),
            }
        }
        Ok(parsed)
    }
}

/// Runs the serve subcommand end to end; returns the process exit code
/// (0 = success / no drift, 1 = drift or error).
pub fn run_serve_command(args: &ServeArgs) -> i32 {
    let mut spec = if args.quick { ServeSpec::quick() } else { ServeSpec::full() };
    if let Some(ms) = args.slo_ms {
        // modeled clock is 1 GHz: 1 ms == 1e6 cycles
        spec.base_deadline = (ms * 1e6).round() as u64;
        println!("# SLO override: base deadline {ms} ms = {} cycles", spec.base_deadline);
    }
    let workers = args.workers.clamp(1, spec.num_points().max(1));
    println!(
        "# streaming service: {} ({} points, {workers} workers)",
        spec.label,
        spec.num_points()
    );
    let (report, stats, timings) = match run_serve_timed(&spec, args.workers) {
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
    eprint_timings(&timings, stats.workers);

    let json = report.to_json();
    if let Some(path) = &args.json {
        if let Err(err) = write_report(path, &json) {
            eprintln!("cannot write {}: {err}", path.display());
            return 1;
        }
        println!("report written to {}", path.display());
    }
    if let Some(path) = &args.timings {
        let sidecar = timings.to_json(TIMINGS_SCHEMA, &spec.label, serve_fingerprint(&spec));
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
                     (generate one with `repro serve{} --json {}` and commit it)",
                    args.baseline.display(),
                    if args.quick { " --quick" } else { "" },
                    args.baseline.display()
                );
                return 1;
            }
        };
        match diff_reports(&baseline, &json) {
            None => println!("serve check OK: report matches {}", args.baseline.display()),
            Some(drift) => {
                eprintln!("{drift}");
                eprintln!(
                    "if this drift is intended, refresh the baseline:\n\
                     cargo run --release -p crescent-bench --bin repro -- serve{} --json {}",
                    if args.quick { " --quick" } else { "" },
                    args.baseline.display()
                );
                return 1;
            }
        }
    }
    0
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
/// the run total, the serial context build, and the per-point time
/// summed across the worker pool.
fn eprint_timings(timings: &RunTimings, workers: usize) {
    eprintln!(
        "# wall-clock: total {:.3}s (context build {:.3}s serial, points {:.3}s summed over \
         {workers} workers)",
        secs(timings.total_nanos),
        secs(timings.setup_nanos()),
        secs(timings.point_nanos()),
    );
}

fn secs(nanos: u64) -> f64 {
    nanos as f64 / 1e9
}

fn write_report(path: &Path, json: &str) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, json)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_ci_invocations() {
        let a = ServeArgs::parse(&strings(&["--quick", "--json", "target/serve.json"])).unwrap();
        assert!(a.quick);
        assert!(!a.check);
        assert_eq!(a.json.as_deref(), Some(Path::new("target/serve.json")));
        assert_eq!(a.baseline, Path::new(DEFAULT_SERVE_BASELINE));

        let b = ServeArgs::parse(&strings(&["--quick", "--check"])).unwrap();
        assert!(b.check);
        assert!(b.json.is_none());

        let c = ServeArgs::parse(&strings(&["--check", "--baseline", "x.json", "--workers", "3"]))
            .unwrap();
        assert_eq!(c.baseline, Path::new("x.json"));
        assert_eq!(c.workers, 3);
        assert!(!c.quick);
    }

    #[test]
    fn parses_the_timings_sidecar_path() {
        let a = ServeArgs::parse(&strings(&["--quick", "--timings", "target/t.json"])).unwrap();
        assert_eq!(a.timings.as_deref(), Some(Path::new("target/t.json")));
        // the sidecar composes with --check (it is not a comparator input)
        let b = ServeArgs::parse(&strings(&["--quick", "--check", "--timings", "t.json"])).unwrap();
        assert!(b.check);
        assert!(ServeArgs::parse(&strings(&["--timings"])).is_err(), "path is mandatory");
    }

    #[test]
    fn parses_the_slo_override() {
        let a = ServeArgs::parse(&strings(&["--quick", "--slo-ms", "0.012"])).unwrap();
        assert_eq!(a.slo_ms, Some(0.012));
        assert_eq!(ServeArgs::parse(&strings(&["--quick"])).unwrap().slo_ms, None);
        assert!(ServeArgs::parse(&strings(&["--slo-ms"])).is_err(), "budget is mandatory");
        assert!(ServeArgs::parse(&strings(&["--slo-ms", "0"])).is_err());
        assert!(ServeArgs::parse(&strings(&["--slo-ms", "-1"])).is_err());
        assert!(ServeArgs::parse(&strings(&["--slo-ms", "NaN"])).is_err());
        assert!(ServeArgs::parse(&strings(&["--slo-ms", "soon"])).is_err());
    }

    #[test]
    fn an_slo_that_rounds_to_zero_cycles_fails_the_command() {
        // positive, so it parses, but 1e-7 ms is 0.1 cycle at 1 GHz: the
        // spec's validation rejects the zero-cycle deadline before any run
        let args = ServeArgs::parse(&strings(&["--quick", "--slo-ms", "0.0000001"])).unwrap();
        assert_eq!(run_serve_command(&args), 1);
    }

    #[test]
    fn an_slo_whose_deadline_tiers_overflow_fails_the_command() {
        // 2^63 cycles parses and fits a u64, but the 4x deadline tier
        // would wrap (and read as an early deadline): validation names
        // the overflow before any run
        let args =
            ServeArgs::parse(&strings(&["--quick", "--slo-ms", "9223372036854.775808"])).unwrap();
        assert_eq!(run_serve_command(&args), 1);
    }

    #[test]
    fn rejects_bad_flags() {
        assert!(ServeArgs::parse(&strings(&["--jsn", "x"])).is_err());
        assert!(ServeArgs::parse(&strings(&["--json"])).is_err());
        assert!(ServeArgs::parse(&strings(&["--workers", "0"])).is_err());
        assert!(ServeArgs::parse(&strings(&["--workers", "many"])).is_err());
        assert!(ServeArgs::parse(&strings(&["--shard", "1/2"])).is_err(), "serve has no shards");
    }
}
