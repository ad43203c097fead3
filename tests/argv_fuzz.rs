//! Argument fuzz of the grid subcommands' parsers: random argv mixing
//! known flags, missing or garbage values, repeated flags and junk
//! tokens must come back `Ok` with a usable value or `Err` with a
//! message naming the offending flag, and never panic. A parser panic
//! would turn a CI typo into a backtrace instead of the usage hint.

use std::panic::{catch_unwind, AssertUnwindSafe};

use crescent_bench::serve::ServeArgs;
use crescent_bench::sweep::parse_args;
use proptest::prelude::*;

/// The argv vocabulary: every grid flag, values good and bad, and junk.
const TOKENS: &[&str] = &[
    "--quick",
    "--check",
    "--json",
    "--timings",
    "--baseline",
    "--workers",
    "--slo-ms",
    "0",
    "1",
    "3",
    "-2",
    "0.002",
    "nan",
    "inf",
    "-inf",
    "1e400",
    "18446744073709551616",
    "abc",
    "",
    "-",
    "--",
    "--JSON",
    "--workers=2",
    "--bogus",
    "sweep",
    "ü",
    "target/fuzz-a.json",
    "target/fuzz-b.json",
    "bench/baseline.json",
    "bench/serve-baseline.json",
];

fn argv(picks: &[usize]) -> Vec<String> {
    picks.iter().map(|&p| TOKENS[p].to_string()).collect()
}

/// An error names what went wrong: a flag, or the unknown token itself.
fn assert_named(command: &str, err: &str, args: &[String]) {
    let unknown = format!("unknown {command} flag: ");
    assert!(
        err.contains("--") || err.starts_with(&unknown),
        "{command} {args:?}: unnamed error {err:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn sweep_parser_returns_ok_or_a_named_error(picks in prop::collection::vec(0..TOKENS.len(), 0..9)) {
        let args = argv(&picks);
        let parsed = catch_unwind(AssertUnwindSafe(|| parse_args(&args)));
        let parsed = parsed.unwrap_or_else(|_| panic!("sweep {args:?}: the parser panicked"));
        match parsed {
            Ok(grid) => prop_assert!(grid.workers >= 1, "sweep {args:?}: zero workers"),
            Err(err) => assert_named("sweep", &err, &args),
        }
    }

    #[test]
    fn serve_parser_returns_ok_or_a_named_error(picks in prop::collection::vec(0..TOKENS.len(), 0..9)) {
        let args = argv(&picks);
        let parsed = catch_unwind(AssertUnwindSafe(|| ServeArgs::parse(&args)));
        let parsed = parsed.unwrap_or_else(|_| panic!("serve {args:?}: the parser panicked"));
        match parsed {
            Ok(serve) => {
                prop_assert!(serve.grid.workers >= 1, "serve {args:?}: zero workers");
                if let Some(ms) = serve.slo_ms {
                    prop_assert!(ms.is_finite() && ms > 0.0, "serve {args:?}: --slo-ms {ms}");
                }
            }
            Err(err) => assert_named("serve", &err, &args),
        }
    }
}
