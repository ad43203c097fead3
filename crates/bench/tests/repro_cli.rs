//! CLI acceptance for `repro` argument errors: a retired subcommand, an
//! unknown flag or a missing figure id must fail loudly, never fall through to a silent
//! success (or a minutes-long full-scale run) that a CI step would read
//! as green.

use std::process::Command;

#[test]
fn sweep_merge_prints_usage_and_fails() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("sweep-merge")
        .output()
        .expect("repro binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "a retired subcommand must exit non-zero");
    assert!(stderr.contains("unknown figure id: sweep-merge"), "{stderr}");
    assert!(stderr.contains("usage: repro"), "{stderr}");
    assert!(!stderr.contains("sweep-merge ..."), "usage must not advertise it: {stderr}");
}

/// Runs `repro` with `args` and asserts it exits 2 naming `flag` as an
/// unknown flag, with the usage, before any figure runs.
fn assert_unknown_flag(args: &[&str], flag: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("repro runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains(&format!("unknown flag: {flag}")), "{stderr}");
    assert!(stderr.contains("usage: repro"), "{stderr}");
    assert!(out.stdout.is_empty(), "no figure may run: {}", String::from_utf8_lossy(&out.stdout));
}

#[test]
fn misspelled_quick_fails_instead_of_running_full_scale() {
    assert_unknown_flag(&["--quik", "all"], "--quik");
}

#[test]
fn figure_mode_rejects_the_seed_flag() {
    assert_unknown_flag(&["--seed", "3", "fig14"], "--seed");
}

/// Runs `repro` with `args` and returns its exit code, stderr and stdout.
fn run_repro(args: &[&str]) -> (Option<i32>, String, Vec<u8>) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("repro runs");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned(), out.stdout)
}

#[test]
fn no_figure_id_prints_usage_and_fails() {
    for args in [&[][..], &["--quick"][..]] {
        let (code, stderr, stdout) = run_repro(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("no figure id given"), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: repro"), "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?}: no figure may run");
    }
}

#[test]
fn help_prints_usage_and_succeeds() {
    for args in [&["help"][..], &["--quick", "help"][..]] {
        let (code, stderr, _) = run_repro(args);
        assert_eq!(code, Some(0), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: repro"), "{args:?}: {stderr}");
    }
}
