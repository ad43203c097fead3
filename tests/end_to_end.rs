//! Cross-crate integration tests: the headline claims of the paper must
//! hold end to end on the simulated system.

use crescent::accel::{run_network, AcceleratorConfig, CrescentKnobs, NetworkSpec, Variant};
use crescent::pointcloud::datasets::{generate_scene, LidarSceneConfig};
use crescent::{Crescent, Point3, PointCloud};

fn scene_cloud(n: usize, seed: u64) -> PointCloud {
    let mut scene = generate_scene(&LidarSceneConfig {
        total_points: n,
        num_cars: 6,
        num_poles: 12,
        num_walls: 3,
        half_extent: 25.0,
        seed,
    });
    scene.cloud.normalize_unit_sphere();
    scene.cloud
}

fn knobs() -> CrescentKnobs {
    CrescentKnobs { top_height: 4, elision_height: 9 }
}

/// Sec 7.2: ANS and ANS+BCE beat Mesorasi on every evaluation network,
/// and the GPU baselines trail far behind.
#[test]
fn speedup_ordering_holds_on_every_network() {
    let cloud = scene_cloud(8192, 1);
    let cfg = AcceleratorConfig::default();
    for spec in NetworkSpec::evaluation_suite() {
        let meso = run_network(&spec, &cloud, Variant::Mesorasi, knobs(), &cfg);
        let ans = run_network(&spec, &cloud, Variant::Ans, knobs(), &cfg);
        let bce = run_network(&spec, &cloud, Variant::AnsBce, knobs(), &cfg);
        let gpu = run_network(&spec, &cloud, Variant::Gpu, knobs(), &cfg);
        assert!(
            ans.total_cycles() < meso.total_cycles(),
            "{}: ANS {} !< Mesorasi {}",
            spec.name,
            ans.total_cycles(),
            meso.total_cycles()
        );
        assert!(bce.total_cycles() < ans.total_cycles(), "{}: BCE should outrun ANS", spec.name);
        assert!(gpu.total_cycles() > meso.total_cycles(), "{}: GPU must trail", spec.name);
    }
}

/// Sec 7.2: both Crescent variants save energy on every network; the GPU
/// burns at least an order of magnitude more.
#[test]
fn energy_ordering_holds_on_every_network() {
    let cloud = scene_cloud(8192, 2);
    let cfg = AcceleratorConfig::default();
    for spec in NetworkSpec::evaluation_suite() {
        let meso = run_network(&spec, &cloud, Variant::Mesorasi, knobs(), &cfg);
        let bce = run_network(&spec, &cloud, Variant::AnsBce, knobs(), &cfg);
        let gpu = run_network(&spec, &cloud, Variant::Gpu, knobs(), &cfg);
        let tgpu = run_network(&spec, &cloud, Variant::TigrisGpu, knobs(), &cfg);
        assert!(bce.energy.total() < meso.energy.total(), "{}", spec.name);
        assert!(gpu.energy.total() > 10.0 * meso.energy.total(), "{}", spec.name);
        assert!(tgpu.energy.total() > 3.0 * meso.energy.total(), "{}", spec.name);
        assert!(gpu.energy.total() > tgpu.energy.total(), "{}", spec.name);
    }
}

/// Sec 3.4: Crescent's DRAM traffic is fully streaming and the engine
/// never issues a random access.
#[test]
fn crescent_search_is_fully_streaming() {
    let cloud = scene_cloud(16384, 3);
    let queries: Vec<Point3> = (0..512).map(|i| cloud.point(i * 32)).collect();
    let system = Crescent::new();
    let (_, report) = system.search(&cloud, &queries, 0.1, Some(32));
    assert_eq!(report.dram_random_bytes, 0);
    assert!(report.dram_streaming_bytes > 0);
}

/// The facade's approximate setting matches its accelerator config, so
/// accuracy models and the performance simulator see the same `h`.
#[test]
fn facade_setting_is_consistent() {
    let system = Crescent::with_knobs(CrescentKnobs { top_height: 6, elision_height: 8 });
    let s = system.approx_setting();
    assert_eq!(s.top_height, 6);
    assert_eq!(s.elision_height, Some(8));
    assert_eq!(s.tree_banks, system.config.tree_buffer.num_banks);
    assert_eq!(s.num_pes, system.config.num_pes);
}

/// Fig 17: BCE cuts both the observed conflicts and the honored node
/// fetches relative to ANS.
#[test]
fn bce_reduces_conflicts_and_node_accesses() {
    let cloud = scene_cloud(8192, 4);
    let cfg = AcceleratorConfig::default();
    let spec = NetworkSpec::densepoint();
    let ans = run_network(&spec, &cloud, Variant::Ans, knobs(), &cfg);
    let bce = run_network(&spec, &cloud, Variant::AnsBce, knobs(), &cfg);
    let (ans, bce) = (ans.search.stats.total(), bce.search.stats.total());
    assert!(bce.elided > 0);
    assert!(bce.stalls < ans.stalls, "BCE {} stalls vs ANS {}", bce.stalls, ans.stalls);
    assert!(bce.visits < ans.visits);
}

/// The speedup trends are stable across workload scales (the argument
/// for reading trends off `Scale::Quick`).
#[test]
fn speedup_trend_is_scale_stable() {
    let cfg = AcceleratorConfig::default();
    let spec = NetworkSpec::pointnet2_classification();
    let mut speedups = Vec::new();
    for (n, seed) in [(4096usize, 10u64), (16384, 11)] {
        let cloud = scene_cloud(n, seed);
        let meso = run_network(&spec, &cloud, Variant::Mesorasi, knobs(), &cfg);
        let bce = run_network(&spec, &cloud, Variant::AnsBce, knobs(), &cfg);
        speedups.push(meso.total_cycles() as f64 / bce.total_cycles() as f64);
    }
    for s in &speedups {
        assert!(*s > 1.0, "speedup {s} at some scale");
    }
    // within a factor of two of each other
    assert!(speedups[0] / speedups[1] < 2.0 && speedups[1] / speedups[0] < 2.0, "{speedups:?}");
}
