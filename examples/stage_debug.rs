//! Internal debugging aid: prints per-stage cycle breakdowns per variant.
use crescent::accel::{run_network, AcceleratorConfig, CrescentKnobs, NetworkSpec, Variant};
use crescent::pointcloud::datasets::{generate_scene, LidarSceneConfig};

fn main() {
    let mut scene = generate_scene(&LidarSceneConfig {
        total_points: 8192,
        num_cars: 8,
        num_poles: 16,
        num_walls: 4,
        half_extent: 30.0,
        seed: 0xF16,
    });
    scene.cloud.normalize_unit_sphere();
    let base = AcceleratorConfig::default();
    let knobs = CrescentKnobs { top_height: 4, elision_height: 9 };
    for spec in NetworkSpec::evaluation_suite() {
        println!("== {}", spec.name);
        for v in Variant::ALL {
            let r = run_network(&spec, &scene.cloud, v, knobs, &base);
            println!(
                "  {:<11} total {:>9}  search {:>9} (cmp {:>9} dma {:>9})  agg {:>8}  mlp {:>8}  E {:>12.0}  visits {:>9} stalls {:>8} elided {:>7}",
                v.name(), r.total_cycles(), r.cycles.search, r.search.compute_cycles, r.search.dma_cycles,
                r.cycles.aggregation, r.cycles.mlp, r.energy.total(),
                r.search.tree_buffer_reads, r.search.stats.total().stalls, r.search.stats.total().elided,
            );
        }
    }
}
