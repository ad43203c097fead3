//! The `repro sweep` / `repro sweep-merge` subcommands: run the
//! design-space explorer (whole grid or one shard of it), emit the
//! machine-readable report, reassemble shard reports byte-exactly, and
//! (in `--check` mode) gate against the checked-in baseline with the
//! exact comparator.
//!
//! ```text
//! repro sweep --quick --json target/sweep.json   # run + write report
//! repro sweep --quick --check                    # CI gate vs bench/baseline.json
//! repro sweep --quick --check --baseline other.json
//! repro sweep --workers 4                        # full grid, pinned pool
//! repro sweep --quick --shard 2/3 --json target/shard-2.json
//! repro sweep --quick --timings target/timings.json  # wall-clock sidecar
//! repro sweep-merge --check --json target/sweep.json target/shard-*.json
//! ```
//!
//! Every metric in the report is modeled, so `--check` is exact: any
//! byte of drift is a real behavioural change. Wall-clock measurements
//! travel on a separate channel: every run prints its total, setup and
//! per-stage wall time to **stderr**, and `--timings <path>` additionally writes
//! the per-scenario and per-point breakdown as a sidecar JSON
//! ([`SweepTimings::to_json`]) that is never digested, never compared
//! by `--check`, and rejected by `sweep-merge` if a shard inlines it. To acknowledge intended
//! drift, refresh the baseline with
//! `repro sweep --quick --json bench/baseline.json` and commit the diff.
//! A sharded run (`--shard i/N` for every `i`, then `sweep-merge`)
//! produces bytes identical to the single-process run, so the two
//! workflows gate interchangeably.

use std::path::{Path, PathBuf};
use std::time::Instant;

use crescent::format_table;
use crescent_explorer::{
    default_workers, diff_reports, merge_shards, run_sweep_shard_timed, run_sweep_timed, ShardFile,
    SweepReport, SweepRunStats, SweepSpec, SweepTimings,
};

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
    /// Run only shard `i` of `N` (`--shard i/N`, 1-based round-robin
    /// projection); `None` = the whole grid.
    pub shard: Option<(usize, usize)>,
    /// Write the wall-clock timings sidecar here (`--timings <path>`).
    /// A *separate* file from the report: measured time is never part
    /// of the gated report bytes, never diffed by `--check`, and
    /// `sweep-merge` rejects shards that inline it.
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
            shard: None,
            timings: None,
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--quick" => parsed.quick = true,
                "--check" => parsed.check = true,
                "--shard" => {
                    let value = it.next().ok_or("--shard needs i/N (e.g. --shard 2/3)")?;
                    let (i, n) = value
                        .split_once('/')
                        .and_then(|(i, n)| {
                            Some((i.parse::<usize>().ok()?, n.parse::<usize>().ok()?))
                        })
                        .ok_or_else(|| format!("bad --shard value: {value} (want i/N)"))?;
                    if n == 0 || i == 0 || i > n {
                        return Err(format!("--shard {value}: need 1 <= i <= N"));
                    }
                    parsed.shard = Some((i, n));
                }
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
        if parsed.shard.is_some() && parsed.check {
            return Err(
                "--shard runs a partial grid; gate the merged report with `sweep-merge --check` \
                 instead"
                    .to_string(),
            );
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
    let points = match args.shard {
        Some((index, count)) => match spec.shard_points(index, count) {
            Ok(points) => points.len(),
            Err(err) => {
                eprintln!("sweep failed: {err}");
                return 1;
            }
        },
        None => spec.num_points(),
    };
    let workers = args.workers.clamp(1, points.max(1));
    match args.shard {
        Some((index, count)) => println!(
            "# design-space sweep: {} shard {index}/{count} ({points} of {} points, {workers} \
             workers)",
            spec.label,
            spec.num_points()
        ),
        None => {
            println!("# design-space sweep: {} ({points} points, {workers} workers)", spec.label)
        }
    }
    let outcome = match args.shard {
        Some((index, count)) => run_sweep_shard_timed(&spec, index, count, args.workers),
        None => run_sweep_timed(&spec, args.workers),
    };
    let (report, stats, timings) = match outcome {
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
        if let Err(err) = write_report(path, &timings.to_json(&spec, report.shard)) {
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

/// Parsed `repro sweep-merge ...` arguments.
#[derive(Clone, Debug)]
pub struct MergeArgs {
    /// Shard report files to merge (positional, order-insensitive).
    pub inputs: Vec<PathBuf>,
    /// Write the merged report here.
    pub json: Option<PathBuf>,
    /// Compare the merged report against `baseline` and fail on drift.
    pub check: bool,
    /// Baseline path for `--check`.
    pub baseline: PathBuf,
}

impl MergeArgs {
    /// Parses the arguments that follow the `sweep-merge` keyword.
    /// Positional arguments are shard report paths.
    pub fn parse(args: &[String]) -> Result<MergeArgs, String> {
        let mut parsed = MergeArgs {
            inputs: Vec::new(),
            json: None,
            check: false,
            baseline: PathBuf::from(DEFAULT_BASELINE),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--check" => parsed.check = true,
                "--json" => {
                    let path = it.next().ok_or("--json needs a path")?;
                    parsed.json = Some(PathBuf::from(path));
                }
                "--baseline" => {
                    let path = it.next().ok_or("--baseline needs a path")?;
                    parsed.baseline = PathBuf::from(path);
                }
                flag if flag.starts_with('-') => {
                    return Err(format!("unknown sweep-merge flag: {flag}"));
                }
                path => parsed.inputs.push(PathBuf::from(path)),
            }
        }
        if parsed.inputs.is_empty() {
            return Err("sweep-merge needs at least one shard report file".to_string());
        }
        Ok(parsed)
    }
}

/// Runs the sweep-merge subcommand end to end; returns the process exit
/// code (0 = success / no drift, 1 = drift or error).
pub fn run_sweep_merge_command(args: &MergeArgs) -> i32 {
    let merge_start = Instant::now();
    let mut shards = Vec::with_capacity(args.inputs.len());
    for path in &args.inputs {
        match std::fs::read_to_string(path) {
            Ok(text) => shards.push(ShardFile { name: path.display().to_string(), text }),
            Err(err) => {
                eprintln!("cannot read shard report {}: {err}", path.display());
                return 1;
            }
        }
    }
    let json = match merge_shards(&shards) {
        Ok(json) => json,
        Err(err) => {
            eprintln!("sweep-merge failed: {err}");
            return 1;
        }
    };
    // name the resolved input order: the merge is order-insensitive by
    // construction, and printing the order is what lets the acceptance
    // test (and a suspicious operator) verify that claim end to end
    println!("# merged {} shard report(s):", shards.len());
    for shard in &shards {
        println!("#   {}", shard.name);
    }
    // a merge reassembles bytes — no setup/point phases — so the
    // wall-clock line covers reading + verifying + reassembling
    eprintln!("# wall-clock: merge {:.3}s", secs(merge_start.elapsed().as_nanos() as u64));

    if let Some(path) = &args.json {
        if let Err(err) = write_report(path, &json) {
            eprintln!("cannot write {}: {err}", path.display());
            return 1;
        }
        println!("report written to {}", path.display());
    }

    if args.check {
        let baseline = match std::fs::read_to_string(&args.baseline) {
            Ok(text) => text,
            Err(err) => {
                eprintln!(
                    "cannot read baseline {}: {err}\n\
                     (generate one with `repro sweep --quick --json {}` and commit it)",
                    args.baseline.display(),
                    args.baseline.display()
                );
                return 1;
            }
        };
        match diff_reports(&baseline, &json) {
            None => println!("sweep-merge check OK: report matches {}", args.baseline.display()),
            Some(drift) => {
                eprintln!("{drift}");
                eprintln!(
                    "if this drift is intended, refresh the baseline:\n\
                     cargo run --release -p crescent-bench --bin repro -- sweep --quick --json {}",
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
            // front members are GLOBAL grid indices; in a shard report
            // the rows are a subset, so look the row up by its index
            // instead of assuming index == position
            let r = report
                .rows
                .iter()
                .find(|r| r.index == idx)
                .expect("pareto front references a row of this report");
            rows.push(vec![
                scenario.to_string(),
                format!("{idx}"),
                r.maintenance.to_string(),
                format!("{}", r.num_pes),
                format!("{}", r.tree_banks),
                if r.aggregation_elision { "on".to_string() } else { "off".to_string() },
                format!("<{},{}>", r.top_height_used, r.elision_depth),
                format!("{}", r.total_cycles()),
                format!("{:.0}", r.energy.total()),
                format!("{:.4}", r.worst_recall()),
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
fn eprint_timings(timings: &SweepTimings, stats: &SweepRunStats) {
    eprintln!(
        "# wall-clock: total {:.3}s (scenario setup {:.3}s serial; summed over {} workers: \
         maintain {:.3}s, search {:.3}s, engine {:.3}s, compose {:.3}s)",
        secs(timings.total_nanos),
        secs(timings.setup_nanos()),
        stats.workers,
        secs(stats.maintain_nanos),
        secs(stats.search_nanos),
        secs(stats.engine_nanos),
        secs(stats.point_nanos),
    );
    for (scenario, nanos) in &timings.setup {
        eprintln!("#   setup {scenario}: {:.3}s", secs(*nanos));
    }
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
        // the sidecar composes with every mode, including shards (CI
        // uploads one sidecar per shard) and --check (the sidecar is
        // not an input to the comparator)
        let b = SweepArgs::parse(&strings(&[
            "--quick",
            "--shard",
            "1/3",
            "--json",
            "s.json",
            "--timings",
            "t.json",
        ]))
        .unwrap();
        assert_eq!(b.timings.as_deref(), Some(Path::new("t.json")));
        let c = SweepArgs::parse(&strings(&["--quick", "--check", "--timings", "t.json"])).unwrap();
        assert!(c.check);
        assert!(SweepArgs::parse(&strings(&["--timings"])).is_err(), "path is mandatory");
    }

    #[test]
    fn parses_the_shard_projection() {
        let a = SweepArgs::parse(&strings(&["--quick", "--shard", "2/3"])).unwrap();
        assert_eq!(a.shard, Some((2, 3)));
        let whole = SweepArgs::parse(&strings(&["--quick"])).unwrap();
        assert_eq!(whole.shard, None);
    }

    #[test]
    fn rejects_bad_flags() {
        assert!(SweepArgs::parse(&strings(&["--jsn", "x"])).is_err());
        assert!(SweepArgs::parse(&strings(&["--json"])).is_err());
        assert!(SweepArgs::parse(&strings(&["--workers", "0"])).is_err());
        assert!(SweepArgs::parse(&strings(&["--workers", "many"])).is_err());
    }

    #[test]
    fn rejects_bad_shard_values() {
        assert!(SweepArgs::parse(&strings(&["--shard"])).is_err());
        assert!(SweepArgs::parse(&strings(&["--shard", "2"])).is_err());
        assert!(SweepArgs::parse(&strings(&["--shard", "0/3"])).is_err());
        assert!(SweepArgs::parse(&strings(&["--shard", "4/3"])).is_err());
        assert!(SweepArgs::parse(&strings(&["--shard", "1/0"])).is_err());
        assert!(SweepArgs::parse(&strings(&["--shard", "a/b"])).is_err());
    }

    #[test]
    fn rejects_check_on_a_partial_grid() {
        let err =
            SweepArgs::parse(&strings(&["--quick", "--shard", "1/2", "--check"])).unwrap_err();
        assert!(err.contains("sweep-merge --check"), "points at the right gate: {err}");
    }

    #[test]
    fn parses_merge_invocations() {
        let a = MergeArgs::parse(&strings(&[
            "--check",
            "--json",
            "target/sweep.json",
            "a.json",
            "b.json",
        ]))
        .unwrap();
        assert!(a.check);
        assert_eq!(a.json.as_deref(), Some(Path::new("target/sweep.json")));
        assert_eq!(a.inputs, vec![PathBuf::from("a.json"), PathBuf::from("b.json")]);
        assert_eq!(a.baseline, Path::new(DEFAULT_BASELINE));

        assert!(MergeArgs::parse(&strings(&[])).is_err(), "no shard files");
        assert!(MergeArgs::parse(&strings(&["--frobnicate", "a.json"])).is_err());
        assert!(MergeArgs::parse(&strings(&["a.json", "--json"])).is_err());
    }
}
