//! Streaming multi-frame LiDAR simulation: an ego vehicle drives through a
//! synthetic urban scene while the Crescent engine answers a batch of
//! neighbor queries on every 10 Hz frame, back to back.
//!
//! ```text
//! cargo run --release --example streaming_lidar
//! ```
//!
//! Demonstrates the pieces the streaming workload engine adds on top of
//! single-cloud search: temporally-coherent frame generation
//! (`FrameStream`), the batched two-stage search whose wavefront fetches
//! every top-tree node once per batch AND drains each sub-tree queue
//! through the banked-arbitration model (conflicts stall or are elided
//! per the streaming `h_e`), and inter-frame pipelining with per-frame
//! cycle/energy accounting. The whole run is a pure function of the
//! config — this example runs the stream twice and checks the reruns are
//! bit-identical — and it doubles as an executable doc of the unified
//! elision model: the default `h_e` provably elides conflicts on every
//! frame's accounting, while an `h_e = 0` rerun provably never does
//! (while still paying conflict stalls).

use crescent::workload::FrameStreamConfig;
use crescent::{format_table, Crescent};

fn main() {
    let mut cfg = FrameStreamConfig::default();
    cfg.scene.total_points = 24_000;
    cfg.num_frames = 16;
    cfg.queries_per_frame = 256;

    let system = Crescent::new();
    println!(
        "Streaming {} frames of ~{} points, {} queries/frame (h_t = {}, streaming h_e = {})\n",
        cfg.num_frames,
        cfg.scene.total_points,
        cfg.queries_per_frame,
        system.knobs.top_height,
        cfg.elision_depth
    );

    let outcome = system.run_stream(&cfg);

    let rows: Vec<Vec<String>> = outcome
        .frames
        .iter()
        .zip(&outcome.report.frames)
        .map(|(frame, rep)| {
            vec![
                format!("{}", frame.index),
                format!("{}", frame.cloud.len()),
                format!("{}", rep.neighbors),
                format!("{}", rep.build_slot_cycles),
                format!("{}", rep.slot_cycles),
                format!("{}", rep.search.subtree.stall_rounds),
                format!("{}", rep.search.subtree.elided),
                format!("{:.1}x", rep.search.amortization_factor()),
                format!("{:.0}%", rep.search.reuse_fraction() * 100.0),
                format!("{:.0}", rep.energy.total()),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(
            &[
                "frame",
                "points",
                "neighbors",
                "build",
                "search",
                "stalls",
                "elided",
                "top-amort",
                "reuse",
                "energy"
            ],
            &rows
        )
    );

    let rep = &outcome.report;
    println!("totals over {} frames:", rep.num_frames());
    println!("  queries            {}", rep.total_queries());
    println!("  neighbors found    {}", outcome.total_neighbors());
    println!("  DRAM streamed      {} KiB (0 random bytes)", rep.total_dram_bytes() / 1024);
    println!(
        "  cycles             {} pipelined vs {} standalone ({:.3}x from overlap)",
        rep.pipelined_cycles,
        rep.serial_cycles,
        rep.pipelining_speedup()
    );
    println!(
        "  tree maintenance   {} build cycles total, {} hidden behind search",
        rep.total_build_cycles(),
        rep.overlapped_build_cycles
    );
    let energy = rep.energy().total();
    // the earliest of the most expensive frames
    let peak = rep.frames.iter().rev().max_by(|a, b| a.energy.total().total_cmp(&b.energy.total()));
    println!(
        "  energy             {energy:.0} total, {:.0} mean/frame (peak at frame {})",
        energy / rep.num_frames() as f64,
        peak.map_or(0, |f| f.frame)
    );
    println!(
        "  cross-frame reuse  {:.0}% of queries kept their sub-tree frame-to-frame",
        rep.mean_reuse_fraction() * 100.0
    );
    println!(
        "  bank arbitration   {} stage-2 rounds, {} conflicts ({} stall rounds, {} elided)",
        rep.total_arb_rounds(),
        rep.total_bank_conflicts(),
        rep.total_conflict_stall_cycles(),
        rep.total_elided_conflicts()
    );
    println!(
        "  aggregation        {} gather rounds, {} conflicts replicated away",
        rep.total_agg_cycles(),
        rep.total_agg_elided()
    );

    // --- the unified elision model, asserted per frame ---
    // default h_e: every frame of this dense stream elides conflicts
    assert!(cfg.elision_depth > 0, "the default operating point elides");
    for f in &rep.frames {
        assert!(
            f.search.subtree.elided > 0,
            "frame {}: default h_e must elide conflicts on a dense stream",
            f.frame
        );
    }
    // h_e = 0: conflicts still happen, but every one of them stalls —
    // zero elisions, and the neighbor sets grow back to exact two-stage
    let mut exact_cfg = cfg;
    exact_cfg.elision_depth = 0;
    let exact = system.run_stream(&exact_cfg);
    for f in &exact.report.frames {
        assert_eq!(f.search.subtree.elided, 0, "frame {}: h_e = 0 must never elide", f.frame);
    }
    assert!(exact.report.total_bank_conflicts() > 0, "conflicts don't vanish, they stall");
    assert!(rep.pipelined_cycles <= exact.report.pipelined_cycles, "elision must not cost cycles");
    assert!(
        outcome.total_neighbors() <= exact.total_neighbors(),
        "elision may only drop neighbors"
    );
    println!(
        "\nh_e = 0 rerun: 0 elisions, {} conflicts all stalled, {} vs {} pipelined cycles",
        exact.report.total_bank_conflicts(),
        exact.report.pipelined_cycles,
        rep.pipelined_cycles
    );

    // the stream is a pure function of the config: rerun and compare
    let rerun = system.run_stream(&cfg);
    let identical = outcome.neighbor_sets == rerun.neighbor_sets
        && rep.pipelined_cycles == rerun.report.pipelined_cycles
        && rep.energy() == rerun.report.energy();
    println!("\ndeterministic rerun: {}", if identical { "bit-identical" } else { "MISMATCH" });
    assert!(identical, "streaming run must be deterministic");
}
