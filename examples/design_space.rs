//! Domain scenario: design-space exploration over the approximation knobs.
//!
//! Sweeps `<h_t, h_e>` and the hardware configuration (PE count × bank
//! count) on the simulated accelerator, printing the Fig 22 / Fig 23-style
//! performance-energy trade-off surfaces an architect would use to pick an
//! operating point.
//!
//! ```text
//! cargo run --release --example design_space
//! ```

use crescent::accel::{run_network, AcceleratorConfig, CrescentKnobs, NetworkSpec, Variant};
use crescent::format_table;
use crescent::memsim::SramConfig;
use crescent::pointcloud::datasets::{generate_scene, LidarSceneConfig};

fn main() {
    let mut scene = generate_scene(&LidarSceneConfig {
        total_points: 8192,
        num_cars: 8,
        num_poles: 16,
        num_walls: 4,
        half_extent: 30.0,
        seed: 23,
    });
    scene.cloud.normalize_unit_sphere();
    let cloud = scene.cloud;
    let spec = NetworkSpec::pointnet2_classification();
    let base = AcceleratorConfig::default();

    // --- knob sweep: <h_t, h_e> ---
    let meso = run_network(&spec, &cloud, Variant::Mesorasi, CrescentKnobs::default(), &base);
    let mut rows = Vec::new();
    for (ht, he) in [(1usize, 11usize), (2, 10), (4, 9), (6, 8), (8, 7)] {
        let knobs = CrescentKnobs { top_height: ht, elision_height: he };
        let r = run_network(&spec, &cloud, Variant::AnsBce, knobs, &base);
        rows.push(vec![
            format!("<{ht},{he}>"),
            format!("{:.2}", meso.total_cycles() as f64 / r.total_cycles() as f64),
            format!("{:.3}", r.energy.total() / meso.energy.total()),
            format!("{}", r.search.tree_buffer_reads),
            format!("{}", r.search.stats.total().elided),
        ]);
    }
    println!("knob sweep on {} (vs Mesorasi):", spec.name);
    print!("{}", format_table(&["<h_t,h_e>", "speedup", "norm_energy", "visits", "elided"], &rows));

    // --- hardware sweep: PEs x banks ---
    let knobs = CrescentKnobs { top_height: 4, elision_height: 9 };
    let mut rows = Vec::new();
    for banks in [2usize, 4, 8, 16] {
        let mut cells = vec![format!("{banks} banks")];
        for pes in [2usize, 4, 8, 16] {
            let mut cfg = base;
            cfg.num_pes = pes;
            cfg.tree_buffer = SramConfig { num_banks: banks, ..cfg.tree_buffer };
            let m = run_network(&spec, &cloud, Variant::Mesorasi, knobs, &cfg);
            let c = run_network(&spec, &cloud, Variant::AnsBce, knobs, &cfg);
            cells.push(format!("{:.2}", m.total_cycles() as f64 / c.total_cycles() as f64));
        }
        rows.push(cells);
    }
    println!("\nspeedup across hardware configurations:");
    print!("{}", format_table(&["", "2 PEs", "4 PEs", "8 PEs", "16 PEs"], &rows));
    println!("\n(speedups shrink on beefier hardware — the Fig 22 trend)");
}
