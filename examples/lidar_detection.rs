//! Domain scenario: autonomous-driving LiDAR perception.
//!
//! Generates a KITTI-like street scene, characterizes the memory
//! irregularity of exact neighbor search on it (the paper's motivation),
//! then runs the F-PointNet pipeline on all five systems of Fig 14.
//!
//! ```text
//! cargo run --release --example lidar_detection
//! ```

use crescent::accel::{run_network, AcceleratorConfig, CrescentKnobs, NetworkSpec, Variant};
use crescent::format_table;
use crescent::kdtree::{radius_search_traced, KdTree, NODE_BYTES};
use crescent::memsim::DramTraceAnalyzer;
use crescent::pointcloud::datasets::{generate_scene, LidarSceneConfig};

fn main() {
    let mut scene = generate_scene(&LidarSceneConfig {
        total_points: 100_000,
        num_cars: 12,
        num_poles: 24,
        num_walls: 6,
        half_extent: 40.0,
        seed: 2022,
    });
    println!("scene: {} points, {} cars", scene.cloud.len(), scene.car_boxes.len());

    // --- motivation: exact search is almost entirely non-streaming ---
    let tree = KdTree::build(&scene.cloud);
    let mut dram = DramTraceAnalyzer::new();
    let queries: Vec<_> = (0..2000).map(|i| scene.cloud.point(i * 50)).collect();
    let mut visits = 0u64;
    for &q in &queries {
        radius_search_traced(&tree, q, 1.0, None, &mut |idx| {
            visits += 1;
            dram.access(tree.node_addr(idx), NODE_BYTES as u64);
        });
    }
    println!(
        "exact K-d search: {} node fetches, {:.2}% non-streaming DRAM accesses",
        visits,
        dram.counters().non_streaming_fraction() * 100.0
    );

    // --- the Crescent fix: run F-PointNet on every system ---
    scene.cloud.normalize_unit_sphere();
    let spec = NetworkSpec::f_pointnet();
    let cfg = AcceleratorConfig::default();
    let knobs = CrescentKnobs { top_height: 4, elision_height: 9 };
    let meso = run_network(&spec, &scene.cloud, Variant::Mesorasi, knobs, &cfg);
    let mut rows = Vec::new();
    for v in Variant::ALL {
        let r = run_network(&spec, &scene.cloud, v, knobs, &cfg);
        rows.push(vec![
            v.name().to_string(),
            format!("{:.2}", meso.total_cycles() as f64 / r.total_cycles() as f64),
            format!("{:.2}", r.energy.total() / meso.energy.total()),
            format!("{}", r.cycles.search),
            format!("{}", r.cycles.aggregation),
            format!("{}", r.cycles.mlp),
        ]);
    }
    println!("\nF-PointNet across systems (normalized to Mesorasi):");
    print!(
        "{}",
        format_table(
            &["system", "speedup", "norm_energy", "search_cyc", "aggr_cyc", "mlp_cyc"],
            &rows
        )
    );
}
