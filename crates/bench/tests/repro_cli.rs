//! CLI acceptance for retired `repro` surfaces: a subcommand that no
//! longer exists must fail loudly, never fall through to a silent
//! success that a CI step would read as green.

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
