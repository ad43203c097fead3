//! Regenerates the tables/figures of the Crescent (ISCA 2022) evaluation.
//!
//! Usage:
//!
//! ```text
//! repro [--quick] all            # every figure
//! repro [--quick] fig14 fig24    # specific figures
//! repro list                     # available ids
//! repro sweep --quick --json target/sweep.json   # design-space sweep
//! repro sweep --quick --check    # exact gate vs bench/baseline.json
//! repro serve --quick --check    # multi-tenant service gate vs bench/serve-baseline.json
//! ```
//!
//! `--quick` shrinks the workloads (seconds instead of minutes); the
//! trends are unchanged. Run with `--release` — the accuracy figures
//! train networks. See `crescent_bench::sweep` for the sweep flags. An
//! unknown id, flag or subcommand, or no figure id at all, prints the
//! usage and exits 2; `repro help` prints it and exits 0.

use std::time::Instant;

use crescent_bench::{run_figure, Scale, ServeArgs, SweepArgs, ALL_FIGURES};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    if args.first().map(String::as_str) == Some("sweep") {
        let parsed = match SweepArgs::parse(&args[1..]) {
            Ok(parsed) => parsed,
            Err(err) => {
                eprintln!("{err}");
                eprintln!(
                    "usage: repro sweep [--quick] [--json <path>] [--check] \
                     [--baseline <path>] [--workers <n>] [--timings <path>]"
                );
                std::process::exit(2);
            }
        };
        std::process::exit(crescent_bench::run_sweep_command(&parsed));
    }

    if args.first().map(String::as_str) == Some("serve") {
        let parsed = match ServeArgs::parse(&args[1..]) {
            Ok(parsed) => parsed,
            Err(err) => {
                eprintln!("{err}");
                eprintln!(
                    "usage: repro serve [--quick] [--json <path>] [--check] \
                     [--baseline <path>] [--workers <n>] [--timings <path>] [--slo-ms <ms>]"
                );
                std::process::exit(2);
            }
        };
        std::process::exit(crescent_bench::run_serve_command(&parsed));
    }

    let usage = || {
        eprintln!("usage: repro [--quick] <all|list|fig ids...|sweep ...|serve ...>");
        eprintln!("figures: {}", ALL_FIGURES.join(" "));
    };
    // `--quick` is the only figure-mode flag; anything else fails before
    // a figure runs, never silently at full scale
    if let Some(flag) = args.iter().find(|a| a.starts_with("--") && *a != "--quick") {
        eprintln!("unknown flag: {flag}");
        usage();
        std::process::exit(2);
    }
    let quick = args.iter().any(|a| a == "--quick");
    let scale = Scale::from_flag(quick);
    let ids: Vec<&str> = args.iter().filter(|a| !a.starts_with("--")).map(String::as_str).collect();

    if ids.contains(&"help") {
        usage();
        return;
    }
    // no figure id is not a success: an empty id list in a script must
    // not read as a green run
    if ids.is_empty() {
        eprintln!("no figure id given");
        usage();
        std::process::exit(2);
    }
    if ids.contains(&"list") {
        println!("{}", ALL_FIGURES.join("\n"));
        return;
    }
    let run_ids: Vec<&str> = if ids.contains(&"all") { ALL_FIGURES.to_vec() } else { ids };

    println!("# Crescent (ISCA 2022) figure reproduction — scale: {scale:?}");
    let mut unknown = false;
    for id in run_ids {
        let start = Instant::now();
        match run_figure(id, scale) {
            Some(figs) => {
                for fig in figs {
                    println!("\n{}", fig.render());
                }
                println!("[{id} took {:.1?}]", start.elapsed());
            }
            None => {
                eprintln!("unknown figure id: {id} (try `repro list`)");
                unknown = true;
            }
        }
    }
    if unknown {
        usage();
        std::process::exit(2);
    }
}
