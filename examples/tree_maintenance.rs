//! Rebuild-vs-refit tree maintenance across coherent and incoherent
//! streams: what honest build accounting reveals, and what incremental
//! maintenance buys back.
//!
//! ```text
//! cargo run --release --example tree_maintenance
//! ```
//!
//! Two experiments on the same synthetic world:
//!
//! 1. a **coherent registered stream** (motion-compensated frames, pure
//!    forward ego translation): `Refit` updates the tree in place every
//!    frame and must report >= 25% fewer pipelined cycles than
//!    `RebuildEveryFrame` while returning bit-identical neighbor sets;
//! 2. an **incoherence burst** (sudden 0.9 rad ego rotation at frame 5):
//!    the refit validation detects the burst frame, falls back to a full
//!    rebuild exactly there, and the results still match the rebuild
//!    policy bit for bit — incoherence costs cycles, never accuracy.

use crescent::accel::TreeMaintenance;
use crescent::workload::{EgoMotion, FrameStreamConfig, StreamScenario};
use crescent::{format_table, Crescent};

fn coherent_cfg() -> FrameStreamConfig {
    let mut cfg = FrameStreamConfig::default();
    cfg.scene.total_points = 16_000;
    cfg.num_frames = 16;
    cfg.queries_per_frame = 192;
    cfg.scenario = StreamScenario::Registered;
    cfg.noise_m = 0.0; // registered streams are motion-compensated
    cfg.ego = EgoMotion { speed_mps: 8.0, yaw_rate_rps: 0.0, frame_period_s: 0.1 };
    cfg
}

fn main() {
    let system = Crescent::new();

    // ---- experiment 1: coherent stream, both policies ----
    let mut cfg = coherent_cfg();
    cfg.maintenance = TreeMaintenance::RebuildEveryFrame;
    let rebuild = system.run_stream(&cfg);
    cfg.maintenance = TreeMaintenance::refit();
    let refit = system.run_stream(&cfg);

    println!(
        "Coherent registered stream: {} frames, {} queries/frame\n",
        cfg.num_frames, cfg.queries_per_frame
    );
    let rows: Vec<Vec<String>> = rebuild
        .report
        .frames
        .iter()
        .zip(&refit.report.frames)
        .map(|(rb, rf)| {
            vec![
                format!("{}", rb.frame),
                format!("{}", rb.points),
                format!("{}", rb.build_slot_cycles),
                format!("{}", rf.build_slot_cycles),
                format!("{}", rf.maintenance.subtrees_rebuilt),
                if rf.maintenance.full_rebuild { "yes".into() } else { "-".into() },
                format!("{}", rb.slot_cycles),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(
            &["frame", "points", "rebuild-cyc", "refit-cyc", "repaired", "fallback", "search-cyc"],
            &rows
        )
    );

    let (rc, fc) = (rebuild.report.pipelined_cycles, refit.report.pipelined_cycles);
    let saving = 100.0 * (rc - fc) as f64 / rc as f64;
    println!("pipelined cycles   {rc} rebuild vs {fc} refit  ({saving:.1}% saved)");
    println!(
        "build energy       {:.0} rebuild vs {:.0} refit",
        rebuild.report.energy().tree_build,
        refit.report.energy().tree_build
    );
    println!(
        "overlap hid        {} of {} rebuild build-cycles behind search",
        rebuild.report.overlapped_build_cycles,
        rebuild.report.total_build_cycles()
    );

    let identical = rebuild.neighbor_sets == refit.neighbor_sets;
    println!("neighbor sets      {}", if identical { "bit-identical" } else { "MISMATCH" });
    assert!(identical, "maintenance policy must never change results");
    assert!(fc * 4 <= rc * 3, "refit must save at least 25% ({fc} vs {rc})");

    // ---- experiment 2: incoherence burst ----
    let mut cfg = coherent_cfg();
    cfg.num_frames = 10;
    cfg.scenario = StreamScenario::RotationBurst { at_frame: 5, yaw_rad: 0.9 };
    cfg.maintenance = TreeMaintenance::refit();
    let burst = system.run_stream(&cfg);
    cfg.maintenance = TreeMaintenance::RebuildEveryFrame;
    let burst_rebuild = system.run_stream(&cfg);

    println!("\nIncoherence burst (0.9 rad ego rotation at frame 5):");
    for f in &burst.report.frames {
        println!(
            "  frame {:>2}  build {:>8} cyc  {}",
            f.frame,
            f.build_slot_cycles,
            if f.maintenance.full_rebuild { "FULL REBUILD" } else { "refit in place" }
        );
    }
    assert!(burst.report.frames[5].maintenance.full_rebuild, "the burst frame must fall back");
    assert!(
        burst.report.frames[1..].iter().filter(|f| f.maintenance.full_rebuild).count() <= 2,
        "only the burst may fall back"
    );
    let burst_identical = burst.neighbor_sets == burst_rebuild.neighbor_sets;
    println!(
        "burst stream results vs rebuild policy: {}",
        if burst_identical { "bit-identical" } else { "MISMATCH" }
    );
    assert!(burst_identical, "incoherence must cost cycles, not accuracy");

    // determinism: the whole comparison is a pure function of the config
    let rerun = system.run_stream(&cfg);
    assert_eq!(rerun.neighbor_sets, burst_rebuild.neighbor_sets);
    println!("\ndeterministic rerun: bit-identical");
}
