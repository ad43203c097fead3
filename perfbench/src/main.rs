//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <dse_slice|serve_fleet|train_mixed|paper_figures>
//!           [--seed <n|heldout>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! Run it from the repository root (it reads `bench/baseline.json` and
//! `bench/serve-baseline.json`). The last line of stdout is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
//! per-layer ones from the traced replays. Provenance is echoed on a
//! `# provenance:` line before it. See `perfbench/README.md`.

mod dse;
mod figures;
mod metrics;
mod serve;
mod trace;
mod train;

use std::fmt::Write as _;
use std::process::{Command, ExitCode};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crescent_explorer::{diff_reports, run_sweep, SweepSpec};
use crescent_serve::{run_serve, ServeSpec};

use trace::Tracer;

/// The seed when none is given.
pub const DEFAULT_SEED: u64 = 1;
/// A seed kept out of tuning, for checking a claim once it is made
/// (`--seed heldout`).
pub const HELD_OUT_SEED: u64 = 0x00C0_FFEE_5EED;

/// Worker threads of the parallel layers: the machine's cores, at most 2,
/// so numbers from a wider machine are not silently compared with these.
fn workers() -> usize {
    nproc().min(2)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    DseSlice,
    ServeFleet,
    TrainMixed,
    PaperFigures,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::DseSlice, Workload::ServeFleet, Workload::TrainMixed, Workload::PaperFigures];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DseSlice => "dse_slice",
            Workload::ServeFleet => "serve_fleet",
            Workload::TrainMixed => "train_mixed",
            Workload::PaperFigures => "paper_figures",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut parsed =
        Args { workload: Workload::DseSlice, seed: DEFAULT_SEED, seconds: 10.0, trace: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => {
                parsed.seed = match value.as_str() {
                    "heldout" => HELD_OUT_SEED,
                    n => n.parse().map_err(|_| format!("bad --seed {n}"))?,
                }
            }
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    t => return Err(format!("bad --trace {t}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    parsed.workload = workload.ok_or("--workload is required")?;
    Ok(parsed)
}

/// A per-purpose seed: the same run seed gives every input the same
/// value, and different purposes get unrelated ones (splitmix64 of the
/// seed mixed with an FNV-1a hash of the purpose).
pub fn derive_seed(seed: u64, purpose: &str) -> u64 {
    let tag = purpose
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3));
    let mut z = (seed ^ tag).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One timed pass of a workload: set-up seconds, work seconds, output.
pub struct Pass<T> {
    pub setup_s: f64,
    pub work_s: f64,
    pub output: T,
}

/// Correctness checks, each counted as one attempted operation.
#[derive(Default)]
pub struct Checks {
    attempted: usize,
    failed: usize,
}

impl Checks {
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }
}

/// Maps `f` over `items` on `workers` scoped threads, keeping input order.
pub fn par_map<T: Sync, R: Send>(
    items: &[T],
    workers: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers.clamp(1, items.len().max(1)) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let out = f(item);
                *slots[i].lock().expect("a worker panicked") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("a worker panicked").expect("every item mapped"))
        .collect()
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Runs `pass` until `seconds` have gone by (at least `min_passes`
/// times), checking that every pass repeats the first one's output.
fn timed<T: PartialEq>(
    seconds: f64,
    min_passes: usize,
    checks: &mut Checks,
    mut pass: impl FnMut() -> Pass<T>,
) -> (Vec<f64>, Vec<f64>, T) {
    let start = Instant::now();
    let (mut setup, mut work) = (Vec::new(), Vec::new());
    let mut first: Option<T> = None;
    while setup.len() < min_passes || start.elapsed().as_secs_f64() < seconds {
        let p = pass();
        setup.push(p.setup_s);
        work.push(p.work_s);
        match &first {
            None => first = Some(p.output),
            Some(f) => checks.check("a repeated pass gives the same output", *f == p.output),
        }
    }
    (setup, work, first.expect("at least one pass"))
}

/// The inputs of every workload for one seed.
struct Inputs {
    seed: u64,
    dse: SweepSpec,
    serve: ServeSpec,
    train: train::Inputs,
}

impl Inputs {
    fn new(seed: u64) -> Self {
        Inputs { seed, dse: dse::spec(seed), serve: serve::spec(seed), train: train::inputs(seed) }
    }
}

/// The output of one pass of any workload.
enum Output {
    Dse(dse::Output),
    Serve(serve::Output),
    Train(train::Output),
    Figures(figures::Output),
}

impl PartialEq for Output {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Output::Dse(a), Output::Dse(b)) => a.json == b.json,
            (Output::Serve(a), Output::Serve(b)) => a.json == b.json && a.latencies == b.latencies,
            (Output::Train(a), Output::Train(b)) => a == b,
            (Output::Figures(a), Output::Figures(b)) => a == b,
            _ => false,
        }
    }
}

fn run_pass(w: Workload, inputs: &Inputs, tracer: &Tracer) -> Pass<Output> {
    fn wrap<T>(p: Pass<T>, f: impl FnOnce(T) -> Output) -> Pass<Output> {
        Pass { setup_s: p.setup_s, work_s: p.work_s, output: f(p.output) }
    }
    match w {
        Workload::DseSlice => wrap(dse::pass(&inputs.dse, workers(), tracer), Output::Dse),
        Workload::ServeFleet => wrap(serve::pass(&inputs.serve, workers(), tracer), Output::Serve),
        Workload::TrainMixed => wrap(train::pass(&inputs.train, workers(), tracer), Output::Train),
        Workload::PaperFigures => {
            wrap(figures::pass(inputs.seed, workers(), tracer), Output::Figures)
        }
    }
}

fn check_output(inputs: &Inputs, out: &Output, checks: &mut Checks) {
    match out {
        Output::Dse(o) => dse::check(&inputs.dse, o, checks),
        Output::Serve(o) => serve::check(&inputs.serve, o, checks),
        Output::Train(o) => train::check(o, checks),
        Output::Figures(o) => figures::check(o, checks),
    }
}

/// Every modeled end-to-end metric for the seed. The workload's own
/// output supplies the ones it models; the others come from one more
/// untimed pass of the workload that models them (for the figures, only
/// the fig14 matrix), so every run reports the full metric set.
fn modeled(own: &Output, inputs: &Inputs, checks: &mut Checks) -> Vec<(&'static str, f64)> {
    let mut out = match own {
        Output::Dse(o) => dse::modeled(o),
        _ => {
            let p = dse::pass(&inputs.dse, workers(), &Tracer::off()).output;
            dse::check(&inputs.dse, &p, checks);
            dse::modeled(&p)
        }
    };
    out.extend(match own {
        Output::Serve(o) => serve::modeled(o),
        _ => {
            let p = serve::pass(&inputs.serve, workers(), &Tracer::off()).output;
            serve::check(&inputs.serve, &p, checks);
            serve::modeled(&p)
        }
    });
    out.extend(match own {
        Output::Figures(o) => figures::modeled(&o.fig14),
        _ => figures::modeled(&figures::fig14(&figures::cloud(inputs.seed), &Tracer::off())),
    });
    out
}

/// The traced replay of workload `w`, against `reference` (an untraced
/// N-worker pass of the same inputs).
fn replay(
    w: Workload,
    inputs: &Inputs,
    reference: &Output,
    tracer: &Tracer,
    checks: &mut Checks,
) -> Vec<(&'static str, f64)> {
    match (w, reference) {
        (Workload::DseSlice, Output::Dse(r)) => dse::replay(&inputs.dse, r, tracer, checks),
        (Workload::ServeFleet, Output::Serve(r)) => serve::replay(&inputs.serve, r, tracer, checks),
        (Workload::TrainMixed, Output::Train(r)) => train::replay(&inputs.train, r, tracer, checks),
        (Workload::PaperFigures, Output::Figures(r)) => {
            figures::replay(inputs.seed, r, tracer, checks)
        }
        _ => unreachable!("reference output of another workload"),
    }
}

/// The repository's own definition of behaviour: the quick sweep and
/// quick serve reports must byte-match the checked-in baselines.
fn baseline_checks(checks: &mut Checks) {
    let sweep = run_sweep(&SweepSpec::quick(), workers()).expect("the quick spec is valid");
    let serve = run_serve(&ServeSpec::quick(), workers()).expect("the quick spec is valid");
    for (path, fresh) in
        [("bench/baseline.json", sweep.to_json()), ("bench/serve-baseline.json", serve.to_json())]
    {
        let same = match std::fs::read_to_string(path) {
            Ok(baseline) => diff_reports(&baseline, &fresh).map(|d| eprintln!("{d}")).is_none(),
            Err(err) => {
                eprintln!("cannot read {path}: {err}");
                false
            }
        };
        checks.check(&format!("quick report matches {path}"), same);
    }
}

/// Peak resident memory of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let cwd = std::env::current_dir().ok()?;
    let out = Command::new(program)
        .args(args)
        // never pick up a repository above the working directory
        .env("GIT_CEILING_DIRECTORIES", cwd.parent().unwrap_or(&cwd))
        .output()
        .ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn provenance(args: &Args) -> String {
    format!(
        "# provenance: nproc={} rustc=\"{}\" rev={} profile={} workers={} workload={} seed={} \
         seconds={} trace={}",
        nproc(),
        command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string()),
        command_line("git", &["rev-parse", "--short=12", "HEAD"])
            .unwrap_or_else(|| "none".to_string()),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        workers(),
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    )
}

fn result_json(checks: &Checks, metrics: &[(&str, f64, &str)]) -> String {
    let mut body = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(body, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            .expect("writing to a String");
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed
    )
}

/// Orders `values` by the declared metric list; a missing or non-finite
/// value is a failed check.
fn collect(
    declared: &[metrics::Metric],
    values: &[(&'static str, f64)],
    checks: &mut Checks,
) -> Vec<(&'static str, f64, &'static str)> {
    declared
        .iter()
        .map(|m| {
            let value = values.iter().find(|(n, _)| *n == m.name).map(|&(_, v)| v);
            checks.check(&format!("{} is measured", m.name), value.is_some_and(f64::is_finite));
            (m.name, value.filter(|v| v.is_finite()).unwrap_or(0.0), m.unit)
        })
        .collect()
}

fn run(args: &Args) -> String {
    let inputs = Inputs::new(args.seed);
    let mut checks = Checks::default();
    let off = Tracer::off();
    if !args.trace {
        let (setup, work, first) =
            timed(args.seconds, 3, &mut checks, || run_pass(args.workload, &inputs, &off));
        // read before anything else runs, so the peak is the workload's own
        let rss = peak_rss_mb();
        baseline_checks(&mut checks);
        check_output(&inputs, &first, &mut checks);
        let mut values = vec![("wall_s", median(&work)), ("setup_s", median(&setup))];
        values.extend(rss.map(|mb| ("peak_rss_mb", mb)));
        values.extend(modeled(&first, &inputs, &mut checks));
        let list = |v: &[f64]| v.iter().map(|s| format!("{s:.4}")).collect::<Vec<_>>().join(" ");
        eprintln!("# {} passes; work s: {}; setup s: {}", work.len(), list(&work), list(&setup));
        let metrics = collect(&metrics::END_TO_END, &values, &mut checks);
        return result_json(&checks, &metrics);
    }

    baseline_checks(&mut checks);
    // Tracing overhead: the same pass with spans off and on.
    let (_, untraced, own) =
        timed(args.seconds / 2.0, 2, &mut checks, || run_pass(args.workload, &inputs, &off));
    let traced = run_pass(args.workload, &inputs, &Tracer::new(true));
    checks.check("the traced pass repeats the untraced output", traced.output == own);
    let mut values = vec![("trace.overhead_s", traced.work_s - median(&untraced))];

    // Every workload's replay, so every per-layer metric is measured in
    // every traced run.
    let tracer = Tracer::new(true);
    let mut own = Some(own);
    for w in Workload::ALL {
        let reference = match own.take_if(|_| w == args.workload) {
            Some(o) => o,
            None => run_pass(w, &inputs, &off).output,
        };
        values
            .extend(tracer.span(w.name(), || replay(w, &inputs, &reference, &tracer, &mut checks)));
    }
    let path = format!("target/perfbench/spans-{}-{}.json", args.workload.name(), args.seed);
    let written = std::fs::create_dir_all("target/perfbench")
        .and_then(|()| std::fs::write(&path, tracer.to_json()));
    match written {
        Ok(()) => eprintln!("# spans written to {path}"),
        Err(err) => eprintln!("cannot write {path}: {err}"),
    }
    let metrics = collect(&metrics::PER_LAYER, &values, &mut checks);
    result_json(&checks, &metrics)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    println!("{}", provenance(&args));
    println!("{}", run(&args));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_derived_deterministically() {
        assert_eq!(derive_seed(7, "a"), derive_seed(7, "a"));
        assert_ne!(derive_seed(7, "a"), derive_seed(8, "a"));
        assert_ne!(derive_seed(7, "a"), derive_seed(7, "b"));
    }

    #[test]
    fn args_parse_and_reject() {
        let s = |v: &[&str]| v.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        let a = parse_args(&s(&["--workload", "serve_fleet", "--seed", "5", "--trace", "1"]))
            .expect("valid");
        assert_eq!((a.workload, a.seed, a.trace), (Workload::ServeFleet, 5, true));
        let h = parse_args(&s(&["--workload", "dse_slice", "--seed", "heldout"])).expect("valid");
        assert_eq!(h.seed, HELD_OUT_SEED);
        assert!(parse_args(&s(&["--workload", "nope"])).is_err());
        assert!(parse_args(&s(&["--seed", "1"])).is_err(), "workload is required");
        assert!(parse_args(&s(&["--workload", "dse_slice", "--trace", "2"])).is_err());
        assert!(parse_args(&s(&["--workload", "dse_slice", "--seconds", "0"])).is_err());
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
