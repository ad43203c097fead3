//! Byte gate for the deterministic modeled paper figures: render the
//! memory characterization (fig2–5, 8, 9), the fig14 suite (14a/b,
//! 15a/b, 16, 17), fig22, fig24 and the descendant-reuse ablation at
//! `Scale::Quick` and assert the text is **byte-identical** to the
//! checked-in `bench/figures-baseline.txt`.
//!
//! Every number in these figures is modeled (trace simulators, cycle
//! and energy models, seeded clouds), so any drift is a behavioural
//! change. Wall-clock speedups of the figure pipeline claim to change no
//! byte, and this test is where that claim is pinned. The accuracy
//! figures (fig13, 18–21, 23) train networks; their gate is
//! `tests/accuracy_baseline.rs`.
//!
//! The file is the `repro` output of these ids without its header and
//! per-figure timing lines. On intended drift, refresh it with
//!
//! ```text
//! cargo run --release -p crescent-bench --bin repro -- --quick \
//!     fig2 fig3 fig4 fig5 fig8 fig9 fig14 fig22 fig24 ablation_reuse \
//!   | grep -v -e '^# Crescent' -e '^\[[a-z0-9_]* took ' > bench/figures-baseline.txt
//! ```
//!
//! and commit the diff with the change that caused it. The test runs in
//! every profile: the simulator crates build optimized even in the dev
//! profile (root `Cargo.toml`), with debug assertions on.

use crescent_bench::{run_figure, Scale};

/// The gated figure ids, in the order the baseline lists them.
const GATED: [&str; 10] =
    ["fig2", "fig3", "fig4", "fig5", "fig8", "fig9", "fig14", "fig22", "fig24", "ablation_reuse"];

#[test]
fn quick_figures_reproduce_the_checked_in_baseline_bytes() {
    let baseline_path = concat!(env!("CARGO_MANIFEST_DIR"), "/bench/figures-baseline.txt");
    let baseline = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| panic!("cannot read {baseline_path}: {e}"));
    let mut fresh = String::new();
    for id in GATED {
        for fig in run_figure(id, Scale::Quick).expect("gated ids are known") {
            fresh.push('\n');
            fresh.push_str(&fig.render());
            fresh.push('\n');
        }
    }
    if baseline != fresh {
        let (line, (want, got)) = baseline
            .lines()
            .zip(fresh.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .map(|(i, pair)| (i + 1, pair))
            .unwrap_or((
                baseline.lines().count().min(fresh.lines().count()) + 1,
                ("<end>", "<end>"),
            ));
        panic!(
            "quick figures drifted from bench/figures-baseline.txt at line {line}:\n\
             baseline: {want}\n   fresh: {got}\n\
             if intended, refresh it (see the header of tests/figures_baseline.rs) and commit the diff"
        );
    }
}
