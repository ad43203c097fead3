//! The front end `repro sweep` and `repro serve` share: one flag parser
//! ([`GridArgs`]), one dispatch ([`run_grid_command`]) and one tail
//! ([`GridArgs::finish`]) that writes the report and the timings
//! sidecar and runs `--check` against the baseline. Each grid keeps
//! only its own spec, summary table and stderr timing line.
//!
//! Every metric in a grid report is modeled, so `--check` is exact: any
//! byte of drift is a real behavioural change. Wall-clock time travels
//! on a separate channel: every run prints it to **stderr**, and
//! `--timings <path>` writes it as a sidecar
//! ([`RunTimings`](crescent_explorer::RunTimings)) that is never
//! compared. The tail reads the baseline before it writes any file, and
//! the parser rejects a written path that is the `--check` baseline, so
//! a check can never pass against a baseline the same run overwrote.

use std::path::{Path, PathBuf};

use crescent_explorer::{check_baseline, default_workers};

use crate::common::write_report;
use crate::serve::{run_serve_command, ServeArgs};
use crate::sweep::{parse_args as parse_sweep_args, run_sweep_command};

/// The flags every grid subcommand takes, as the usage line prints them.
const USAGE: &str =
    "[--quick] [--json <path>] [--check] [--baseline <path>] [--workers <n>] [--timings <path>]";

/// Parsed flags of a grid subcommand.
#[derive(Clone, Debug)]
pub struct GridArgs {
    /// The subcommand (`"sweep"` or `"serve"`), for messages and the
    /// refresh hint.
    pub command: &'static str,
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
    /// Write the wall-clock timings sidecar here: a separate file that
    /// `--check` never reads.
    pub timings: Option<PathBuf>,
}

impl GridArgs {
    /// Parses the arguments that follow `command`. A flag the grids do
    /// not share goes to `extra(flag, rest)`, which takes its value from
    /// `rest` and returns `Ok(true)`, or returns `Ok(false)` for a flag
    /// it does not know either. Unknown flags are errors so typos cannot
    /// silently weaken the CI gate.
    pub fn parse<'a>(
        command: &'static str,
        default_baseline: &str,
        args: &'a [String],
        mut extra: impl FnMut(&str, &mut dyn Iterator<Item = &'a String>) -> Result<bool, String>,
    ) -> Result<GridArgs, String> {
        let mut parsed = GridArgs {
            command,
            quick: false,
            json: None,
            check: false,
            baseline: PathBuf::from(default_baseline),
            workers: default_workers(),
            timings: None,
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--quick" => parsed.quick = true,
                "--check" => parsed.check = true,
                "--json" => parsed.json = Some(it.next().ok_or("--json needs a path")?.into()),
                "--timings" => {
                    parsed.timings = Some(it.next().ok_or("--timings needs a path")?.into());
                }
                "--baseline" => {
                    parsed.baseline = it.next().ok_or("--baseline needs a path")?.into();
                }
                "--workers" => {
                    let n = it.next().ok_or("--workers needs a count")?;
                    parsed.workers =
                        n.parse::<usize>().map_err(|_| format!("bad --workers value: {n}"))?;
                    if parsed.workers == 0 {
                        return Err("--workers must be >= 1".to_string());
                    }
                }
                other if !extra(other, &mut it)? => {
                    return Err(format!("unknown {command} flag: {other}"));
                }
                _ => {}
            }
        }
        if let (Some(json), Some(timings)) = (&parsed.json, &parsed.timings) {
            if same_file(json, timings) {
                return Err(format!("--json and --timings name the same file: {}", json.display()));
            }
        }
        for (flag, path) in [("--json", &parsed.json), ("--timings", &parsed.timings)] {
            match path {
                Some(path) if parsed.check && same_file(path, &parsed.baseline) => {
                    return Err(format!(
                        "{flag} {} is the --baseline file: --check would overwrite the \
                         baseline it compares against",
                        path.display()
                    ));
                }
                _ => {}
            }
        }
        Ok(parsed)
    }

    /// The shared tail of a grid run: checks `report` against the
    /// baseline (under `--check`) before writing the report (`--json`)
    /// and the `sidecar` (`--timings`), then prints the check's verdict.
    /// Returns the exit code: 0 on success, 1 on drift or an I/O error.
    pub fn finish(&self, report: &str, sidecar: impl FnOnce() -> String) -> i32 {
        let checked = self.check.then(|| check_baseline(&self.baseline, report));
        if let Some(path) = &self.json {
            if let Err(err) = write_report(path, report) {
                eprintln!("cannot write {}: {err}", path.display());
                return 1;
            }
            println!("report written to {}", path.display());
        }
        if let Some(path) = &self.timings {
            if let Err(err) = write_report(path, &sidecar()) {
                eprintln!("cannot write {}: {err}", path.display());
                return 1;
            }
            println!("timings sidecar written to {}", path.display());
        }
        match checked {
            None => 0,
            Some(Ok(())) => {
                println!("{} check OK: report matches {}", self.command, self.baseline.display());
                0
            }
            Some(Err(err)) => {
                eprintln!("{err}");
                eprintln!(
                    "to acknowledge intended drift (or create the baseline), write it and \
                     commit it:\ncargo run --release -p crescent-bench --bin repro -- {}{} \
                     --json {}",
                    self.command,
                    if self.quick { " --quick" } else { "" },
                    self.baseline.display()
                );
                1
            }
        }
    }
}

/// Runs a grid subcommand (`repro sweep …` or `repro serve …`).
/// Returns `None` when `args` names neither; otherwise the exit code,
/// which is 2 (after the error and the subcommand's usage) when a flag
/// does not parse, before anything runs.
pub fn run_grid_command(args: &[String]) -> Option<i32> {
    let (command, rest) = args.split_first()?;
    let (outcome, extra_usage) = match command.as_str() {
        "sweep" => (parse_sweep_args(rest).map(|args| run_sweep_command(&args)), ""),
        "serve" => {
            (ServeArgs::parse(rest).map(|args| run_serve_command(&args)), " [--slo-ms <ms>]")
        }
        _ => return None,
    };
    Some(outcome.unwrap_or_else(|err| {
        eprintln!("{err}");
        eprintln!("usage: repro {command} {USAGE}{extra_usage}");
        2
    }))
}

/// Whether `a` and `b` name the same file, through `.`, `..` and
/// symlinks. A file that does not exist yet resolves through its
/// directory.
fn same_file(a: &Path, b: &Path) -> bool {
    let resolve = |path: &Path| {
        path.canonicalize().ok().or_else(|| {
            let dir = path.parent().filter(|d| !d.as_os_str().is_empty()).unwrap_or(Path::new("."));
            Some(dir.canonicalize().ok()?.join(path.file_name()?))
        })
    };
    match (resolve(a), resolve(b)) {
        (Some(a), Some(b)) => a == b,
        _ => a == b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<GridArgs, String> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        GridArgs::parse("sweep", "b.json", &args, |_, _| Ok(false))
    }

    #[cfg(unix)]
    #[test]
    fn rejects_a_written_path_that_is_the_checked_baseline() {
        let dir = std::env::temp_dir().join(format!("crescent-grid-args-{}", std::process::id()));
        std::fs::create_dir_all(dir.join("sub")).expect("temp dir");
        let baseline = dir.join("baseline.json");
        std::fs::write(&baseline, "{}\n").expect("write");
        let link = dir.join("link.json");
        std::os::unix::fs::symlink(&baseline, &link).expect("symlink");
        let b = baseline.to_str().expect("utf-8");
        // the baseline named verbatim, through `..`, and through a symlink
        let aliases = [
            b.to_string(),
            format!("{}/sub/../baseline.json", dir.display()),
            link.display().to_string(),
        ];
        for alias in &aliases {
            for flag in ["--json", "--timings"] {
                let err = parse(&["--check", "--baseline", b, flag, alias]).unwrap_err();
                assert!(
                    err.starts_with(&format!("{flag} {alias} is the --baseline file")),
                    "{err}"
                );
            }
            // without --check the baseline is never read, so refreshing
            // it with --json is the documented workflow
            assert!(parse(&["--baseline", b, "--json", alias]).is_ok());
        }
        assert!(parse(&["--check", "--baseline", b, "--json", "other.json"]).is_ok());
        std::fs::remove_dir_all(&dir).expect("clean up");
    }

    #[test]
    fn rejects_one_file_for_both_the_report_and_the_sidecar() {
        let err = parse(&["--json", "out.json", "--timings", "./out.json"]).unwrap_err();
        assert_eq!(err, "--json and --timings name the same file: out.json");
        assert!(parse(&["--json", "out.json", "--timings", "t.json"]).is_ok());
    }
}
