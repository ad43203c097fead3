//! CLI acceptance for `repro` argument errors: a retired subcommand or
//! an unknown flag must fail loudly, never fall through to a silent
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
