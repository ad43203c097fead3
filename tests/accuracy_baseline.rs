//! Byte gate for the accuracy figures: train and render fig13, fig18–21
//! and fig23 at `Scale::Quick` and assert each figure's text is
//! **byte-identical** to its block of the checked-in
//! `bench/accuracy-baseline.txt`.
//!
//! At quick scale these numbers are noise as *accuracy* (30-sample test
//! sets), but training is seeded and deterministic, so any drift means
//! the network saw different bits: a changed sampler, neighbor search,
//! elision rule or nn kernel. A change that claims to keep training
//! bit-identical is pinned here. Each figure is its own `#[test]`, so the
//! six figures train in parallel.
//!
//! The file is the `repro` output of these ids without its header and
//! per-figure timing lines. On intended drift, refresh it with
//!
//! ```text
//! cargo run --release -p crescent-bench --bin repro -- --quick \
//!     fig13 fig18 fig19 fig20 fig21 fig23 \
//!   | grep -v -e '^# Crescent' -e '^\[[a-z0-9_]* took ' > bench/accuracy-baseline.txt
//! ```
//!
//! and commit the diff with the change that caused it.

use crescent_bench::{run_figure, Scale};

/// Renders `id` at quick scale and compares it with its block of the
/// baseline: the text from its first figure's header up to the next
/// figure id's header (or the end of the file).
fn assert_matches_baseline(id: &str) {
    let baseline_path = concat!(env!("CARGO_MANIFEST_DIR"), "/bench/accuracy-baseline.txt");
    let baseline = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| panic!("cannot read {baseline_path}: {e}"));
    let mut fresh = String::new();
    for fig in run_figure(id, Scale::Quick).expect("gated ids are known") {
        fresh.push('\n');
        fresh.push_str(&fig.render());
        fresh.push('\n');
    }
    let start = baseline
        .find(&format!("\n== {id} "))
        .unwrap_or_else(|| panic!("{id} has no block in bench/accuracy-baseline.txt"));
    let rest = &baseline[start..];
    let end = rest[1..].find("\n\n== ").map_or(rest.len(), |i| i + 2);
    let block = &rest[..end];
    if block != fresh {
        let (line, (want, got)) = block
            .lines()
            .zip(fresh.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .map(|(i, pair)| (i + 1, pair))
            .unwrap_or((block.lines().count().min(fresh.lines().count()) + 1, ("<end>", "<end>")));
        panic!(
            "{id} drifted from bench/accuracy-baseline.txt at line {line} of its block:\n\
             baseline: {want}\n   fresh: {got}\n\
             if intended, refresh it (see the header of tests/accuracy_baseline.rs) and commit the diff"
        );
    }
}

#[test]
fn fig13_reproduces_the_checked_in_baseline_bytes() {
    assert_matches_baseline("fig13");
}

#[test]
fn fig18_reproduces_the_checked_in_baseline_bytes() {
    assert_matches_baseline("fig18");
}

#[test]
fn fig19_reproduces_the_checked_in_baseline_bytes() {
    assert_matches_baseline("fig19");
}

#[test]
fn fig20_reproduces_the_checked_in_baseline_bytes() {
    assert_matches_baseline("fig20");
}

#[test]
fn fig21_reproduces_the_checked_in_baseline_bytes() {
    assert_matches_baseline("fig21");
}

#[test]
fn fig23_reproduces_the_checked_in_baseline_bytes() {
    assert_matches_baseline("fig23");
}
