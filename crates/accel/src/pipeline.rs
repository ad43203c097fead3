//! End-to-end pipeline simulation for the four evaluation networks
//! (Tbl 1) across the five systems of Fig 14: GPU, Tigris+GPU, Mesorasi,
//! ANS, and ANS+BCE.
//!
//! A network is a sequence of set-abstraction-style layers (search →
//! aggregate → shared MLP) plus a head MLP; the per-layer point/centroid
//! counts are drawn from an input point cloud, so the search statistics
//! come from real traversals rather than analytic formulas. The layer
//! shapes are scaled-down versions of the published architectures, chosen
//! so the neighbor-search time share matches the paper's characterization
//! (DensePoint search-dominated at ~80 %, the others near 50/50 on the
//! baseline accelerator).

use serde::{Deserialize, Serialize};

use crescent_kdtree::{KdTree, NODE_BYTES};
use crescent_memsim::EnergyLedger;
use crescent_pointcloud::{replicate_to_k, Point3, PointCloud, POINT_BYTES};

use crate::aggregation::{simulate_aggregation, AggregationReport};
use crate::config::AcceleratorConfig;
use crate::engine::{
    run_crescent_search, run_tigris_report, run_tigris_search, SearchEngineReport,
};
use crate::gpu::GpuModel;
use crate::systolic::{mlp_report, SystolicReport};

/// Which system executes the network (the Fig 14 legend).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Variant {
    /// Mobile Pascal GPU for everything.
    Gpu,
    /// Tigris neighbor-search accelerator + GPU feature computation.
    TigrisGpu,
    /// Mesorasi: Tigris search + systolic feature computation, no elision.
    Mesorasi,
    /// Crescent with approximate neighbor search only.
    Ans,
    /// Crescent with approximate search and bank-conflict elision.
    AnsBce,
}

impl Variant {
    /// All variants in the paper's plotting order.
    pub const ALL: [Variant; 5] =
        [Variant::Ans, Variant::AnsBce, Variant::Mesorasi, Variant::TigrisGpu, Variant::Gpu];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Variant::Gpu => "GPU",
            Variant::TigrisGpu => "Tigris+GPU",
            Variant::Mesorasi => "Mesorasi",
            Variant::Ans => "ANS",
            Variant::AnsBce => "ANS+BCE",
        }
    }
}

/// Crescent's approximation knobs `h = <h_t, h_e>` (Sec 5).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrescentKnobs {
    /// Top-tree height `h_t`.
    pub top_height: usize,
    /// Elision height `h_e`.
    pub elision_height: usize,
}

impl Default for CrescentKnobs {
    fn default() -> Self {
        // the Fig 13 operating point
        CrescentKnobs { top_height: 4, elision_height: 12 }
    }
}

/// One search→aggregate→MLP layer.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LayerSpec {
    /// Input points searched over.
    pub n_points: usize,
    /// Output centroids (queries).
    pub n_centroids: usize,
    /// Neighbors aggregated per centroid.
    pub k: usize,
    /// Search radius (on unit-sphere-normalized clouds).
    pub radius: f32,
    /// Shared-MLP widths starting at the input channel count.
    pub mlp_dims: Vec<usize>,
}

/// A full network: layers plus a head MLP applied to the final features.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct NetworkSpec {
    /// Network name (Tbl 1).
    pub name: String,
    /// Set-abstraction-style layers.
    pub layers: Vec<LayerSpec>,
    /// Head MLP widths (applied to the last layer's centroid features).
    pub head_dims: Vec<usize>,
}

impl NetworkSpec {
    /// PointNet++ classification (c): three SA layers + global head.
    pub fn pointnet2_classification() -> Self {
        NetworkSpec {
            name: "PointNet++ (c)".into(),
            layers: vec![
                LayerSpec {
                    n_points: 4096,
                    n_centroids: 2048,
                    k: 32,
                    radius: 0.05,
                    mlp_dims: vec![3, 32, 64],
                },
                LayerSpec {
                    n_points: 1024,
                    n_centroids: 512,
                    k: 32,
                    radius: 0.1,
                    mlp_dims: vec![67, 96],
                },
                LayerSpec {
                    n_points: 512,
                    n_centroids: 128,
                    k: 32,
                    radius: 0.2,
                    mlp_dims: vec![99, 128],
                },
            ],
            head_dims: vec![128, 128, 10],
        }
    }

    /// PointNet++ segmentation (s): SA encoder + per-point decoder MLPs.
    pub fn pointnet2_segmentation() -> Self {
        NetworkSpec {
            name: "PointNet++ (s)".into(),
            layers: vec![
                LayerSpec {
                    n_points: 4096,
                    n_centroids: 2048,
                    k: 32,
                    radius: 0.05,
                    mlp_dims: vec![3, 32, 64],
                },
                LayerSpec {
                    n_points: 1024,
                    n_centroids: 512,
                    k: 48,
                    radius: 0.1,
                    mlp_dims: vec![67, 96],
                },
                LayerSpec {
                    n_points: 512,
                    n_centroids: 128,
                    k: 32,
                    radius: 0.2,
                    mlp_dims: vec![99, 128],
                },
                // feature-propagation stage modeled as one more
                // gather+MLP layer over the dense points
                LayerSpec {
                    n_points: 2048,
                    n_centroids: 2048,
                    k: 3,
                    radius: 0.15,
                    mlp_dims: vec![128, 96],
                },
            ],
            head_dims: vec![96, 64, 50],
        }
    }

    /// DensePoint-like: many narrow, densely-connected layers; neighbor
    /// search dominates its runtime (81 % per Sec 7.2).
    pub fn densepoint() -> Self {
        let mut layers = Vec::new();
        // a stalk of dense blocks: every point queries its neighborhood
        // (n_centroids == n_points) with a narrow growth-rate MLP, so
        // neighbor search dominates the runtime
        for i in 0..6 {
            layers.push(LayerSpec {
                n_points: 4096,
                n_centroids: 4096,
                k: 16,
                radius: 0.05 + 0.01 * i as f32,
                mlp_dims: vec![3 + 24 * i, 32, 24],
            });
        }
        NetworkSpec { name: "DensePoint".into(), layers, head_dims: vec![147, 128, 10] }
    }

    /// F-PointNet-like: frustum segmentation + box-estimation nets.
    pub fn f_pointnet() -> Self {
        NetworkSpec {
            name: "F-PointNet".into(),
            layers: vec![
                LayerSpec {
                    n_points: 2048,
                    n_centroids: 1024,
                    k: 32,
                    radius: 0.06,
                    mlp_dims: vec![3, 32, 64],
                },
                LayerSpec {
                    n_points: 512,
                    n_centroids: 256,
                    k: 32,
                    radius: 0.12,
                    mlp_dims: vec![67, 96],
                },
                LayerSpec {
                    n_points: 128,
                    n_centroids: 64,
                    k: 32,
                    radius: 0.25,
                    mlp_dims: vec![99, 128],
                },
            ],
            head_dims: vec![128, 64, 7],
        }
    }

    /// All four evaluation networks in Tbl 1 order.
    pub fn evaluation_suite() -> Vec<NetworkSpec> {
        vec![
            NetworkSpec::pointnet2_classification(),
            NetworkSpec::pointnet2_segmentation(),
            NetworkSpec::densepoint(),
            NetworkSpec::f_pointnet(),
        ]
    }
}

/// Per-stage cycle breakdown.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageCycles {
    /// Neighbor-search cycles.
    pub search: u64,
    /// Aggregation cycles.
    pub aggregation: u64,
    /// MLP (systolic / GPU GEMM) cycles.
    pub mlp: u64,
}

impl StageCycles {
    /// Total cycles (stages serialized).
    pub fn total(&self) -> u64 {
        self.search + self.aggregation + self.mlp
    }
}

/// Result of simulating one network on one system.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PipelineReport {
    /// The simulated system.
    pub variant: Variant,
    /// Network name.
    pub network: String,
    /// Cycle breakdown.
    pub cycles: StageCycles,
    /// Energy breakdown.
    pub energy: EnergyLedger,
    /// Aggregated neighbor-search counters.
    pub search: SearchEngineReport,
    /// Aggregated gather counters.
    pub aggregation: AggregationReport,
    /// Aggregated systolic counters (zero for GPU variants).
    pub systolic: SystolicReport,
}

impl PipelineReport {
    /// Total latency in cycles.
    pub fn total_cycles(&self) -> u64 {
        self.cycles.total()
    }
}

/// Deterministic stride subsample of `n` points (cheap stand-in for FPS in
/// the performance pipeline; the accuracy pipeline in `crescent-models`
/// uses true FPS).
fn stride_sample(cloud: &PointCloud, n: usize) -> Vec<Point3> {
    let len = cloud.len();
    if n == 0 || len == 0 {
        return Vec::new();
    }
    if n >= len {
        return cloud.points().to_vec();
    }
    (0..n).map(|i| cloud.point(i * len / n)).collect()
}

/// Simulates `spec` over `cloud` on `variant`.
///
/// `knobs` applies to the Crescent variants ([`Variant::Ans`] ignores
/// `elision_height`); baselines use exact or Tigris-style search.
pub fn run_network(
    spec: &NetworkSpec,
    cloud: &PointCloud,
    variant: Variant,
    knobs: CrescentKnobs,
    base: &AcceleratorConfig,
) -> PipelineReport {
    let config = match variant {
        Variant::Ans => {
            // ANS hardware still has a banked tree buffer: conflicts stall
            // (elision height above any tree ⇒ no fetch is ever dropped)
            let mut c = *base;
            c.search_elision = Some(crescent_kdtree::ElisionConfig {
                elision_height: usize::MAX,
                num_banks: base.tree_buffer.num_banks,
                descendant_reuse: false,
            });
            c.aggregation_elision = false;
            c
        }
        Variant::AnsBce => {
            let mut c = *base;
            c.search_elision = Some(crescent_kdtree::ElisionConfig {
                elision_height: knobs.elision_height,
                num_banks: base.tree_buffer.num_banks,
                descendant_reuse: false,
            });
            c.aggregation_elision = true;
            c
        }
        _ => {
            let mut c = *base;
            c.search_elision = None;
            c.aggregation_elision = false;
            c
        }
    };
    let gpu = GpuModel::default();
    let em = &config.energy;

    let mut cycles = StageCycles::default();
    let mut energy = EnergyLedger::new();
    let mut search_total = SearchEngineReport::default();
    let mut agg_total = AggregationReport::default();
    let mut sys_total = SystolicReport::default();

    for layer in &spec.layers {
        let points: PointCloud = stride_sample(cloud, layer.n_points).into_iter().collect();
        let queries = stride_sample(&points, layer.n_centroids);
        let tree = || KdTree::build(&points);

        // ---- neighbor search: only the systolic variants gather
        // neighbor lists; the GPU variants are priced from counts ----
        let (results, ns) = match variant {
            Variant::Gpu => {
                // exact brute force, priced by the analytic GPU model
                let g = gpu.neighbor_search(points.len(), queries.len());
                cycles.search += g.ns_cycles;
                energy.compute += g.energy;
                (Vec::new(), SearchEngineReport::default())
            }
            Variant::TigrisGpu => (
                Vec::new(),
                run_tigris_report(&tree(), knobs.top_height, &queries, layer.radius, &config),
            ),
            Variant::Mesorasi => run_tigris_search(
                &tree(),
                knobs.top_height,
                &queries,
                layer.radius,
                Some(layer.k),
                &config,
            ),
            Variant::Ans | Variant::AnsBce => run_crescent_search(
                &tree(),
                knobs.top_height,
                &queries,
                layer.radius,
                Some(layer.k),
                &config,
            ),
        };
        cycles.search += ns.cycles;
        charge_search_energy(&mut energy, em, &ns);
        merge_search(&mut search_total, &ns);

        // ---- aggregation ----
        // delayed aggregation gathers post-MLP features: one fetch moves
        // an out_ch-wide feature vector
        let out_ch = *layer.mlp_dims.last().unwrap_or(&3);
        let fetch_bytes = (out_ch * 4) as u64;
        match variant {
            Variant::Gpu | Variant::TigrisGpu => {
                // all systems run the Mesorasi-optimized (delayed
                // aggregation) networks per Sec 6: the shared MLP is
                // applied once per input point, then features are gathered
                let gathers = (queries.len() * layer.k) as u64;
                let macs = feature_macs(layer.n_points, &layer.mlp_dims);
                let g = gpu.feature_computation(gathers, macs);
                cycles.aggregation += g.feature_cycles / 2;
                cycles.mlp += g.feature_cycles - g.feature_cycles / 2;
                energy.compute += g.energy;
            }
            _ => {
                // ---- shared MLP over the input points (delayed
                // aggregation, Mesorasi-style) on the systolic array ----
                let rep = mlp_report(
                    layer.n_points,
                    &layer.mlp_dims,
                    config.systolic_rows,
                    config.systolic_cols,
                );
                cycles.mlp += rep.cycles;
                energy.charge_macs(em, rep.macs);
                energy.charge_sram_global(em, rep.sram_read_bytes + rep.sram_write_bytes);
                // weights streamed from DRAM once per layer
                let weight_bytes: u64 =
                    layer.mlp_dims.windows(2).map(|w| (w[0] * w[1] * 4) as u64).sum();
                energy.charge_dram_streaming(em, weight_bytes);
                sys_total.merge(&rep);

                // ---- aggregation: gather each centroid's k neighbor
                // feature vectors from the banked Point Buffer ----
                let lists: Vec<Vec<usize>> = results
                    .iter()
                    .map(|hits| {
                        let idx: Vec<usize> = hits.iter().map(|n| n.index).collect();
                        replicate_to_k(&idx, layer.k, Some(0))
                    })
                    .collect();
                let agg = simulate_aggregation(
                    &lists,
                    config.point_buffer,
                    config.point_buffer.num_banks,
                    config.aggregation_elision,
                );
                cycles.aggregation += agg.rounds;
                energy.sram_aggregation += em.sram_per_byte
                    * ((agg.grants * fetch_bytes) as f64
                        // neighbor-index buffer reads: one index word per fetch
                        + (agg.requests * 4) as f64);
                agg_total.merge(&agg);
            }
        }
    }

    // ---- head MLP ----
    let last = spec.layers.last();
    let head_rows = last.map_or(1, |l| l.n_centroids);
    match variant {
        Variant::Gpu | Variant::TigrisGpu => {
            let macs = feature_macs(head_rows, &spec.head_dims);
            let g = gpu.feature_computation(0, macs);
            cycles.mlp += g.feature_cycles;
            energy.compute += g.energy;
        }
        _ => {
            let rep =
                mlp_report(head_rows, &spec.head_dims, config.systolic_rows, config.systolic_cols);
            cycles.mlp += rep.cycles;
            energy.charge_macs(em, rep.macs);
            energy.charge_sram_global(em, rep.sram_read_bytes + rep.sram_write_bytes);
            sys_total.merge(&rep);
        }
    }

    // input cloud streamed in once (all variants)
    energy.charge_dram_streaming(em, (cloud.len().min(4096) * POINT_BYTES) as u64);
    energy.charge_leakage(em, cycles.total());

    PipelineReport {
        variant,
        network: spec.name.clone(),
        cycles,
        energy,
        search: search_total,
        aggregation: agg_total,
        systolic: sys_total,
    }
}

fn feature_macs(rows: usize, dims: &[usize]) -> u64 {
    dims.windows(2).map(|w| (rows * w[0] * w[1]) as u64).sum()
}

fn charge_search_energy(
    energy: &mut EnergyLedger,
    em: &crescent_memsim::EnergyModel,
    rep: &SearchEngineReport,
) {
    energy.charge_dram_streaming(em, rep.dram_streaming_bytes);
    energy.charge_dram_random(em, rep.dram_random_bytes);
    energy.charge_sram_search(em, rep.tree_buffer_reads * NODE_BYTES as u64);
}

fn merge_search(total: &mut SearchEngineReport, rep: &SearchEngineReport) {
    total.compute_cycles += rep.compute_cycles;
    total.dma_cycles += rep.dma_cycles;
    total.cycles += rep.cycles;
    total.dram_streaming_bytes += rep.dram_streaming_bytes;
    total.dram_random_bytes += rep.dram_random_bytes;
    total.tree_buffer_reads += rep.tree_buffer_reads;
    total.stats += rep.stats;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crescent_pointcloud::datasets::{generate_scene, LidarSceneConfig};

    fn test_cloud() -> PointCloud {
        let cfg = LidarSceneConfig {
            total_points: 8192,
            num_cars: 4,
            num_poles: 8,
            num_walls: 2,
            half_extent: 20.0,
            seed: 77,
        };
        let mut scene = generate_scene(&cfg);
        scene.cloud.normalize_unit_sphere();
        scene.cloud
    }

    fn small_spec() -> NetworkSpec {
        NetworkSpec {
            name: "tiny".into(),
            layers: vec![
                LayerSpec {
                    n_points: 2048,
                    n_centroids: 512,
                    k: 16,
                    radius: 0.05,
                    mlp_dims: vec![3, 32, 64],
                },
                LayerSpec {
                    n_points: 512,
                    n_centroids: 128,
                    k: 16,
                    radius: 0.1,
                    mlp_dims: vec![67, 64, 128],
                },
            ],
            head_dims: vec![128, 64, 10],
        }
    }

    #[test]
    fn mesorasi_ignores_tree_buffer_banks() {
        // fig22 simulates Mesorasi once per PE count on this property
        let cloud = test_cloud();
        let knobs = CrescentKnobs { top_height: 4, elision_height: 9 };
        let run = |banks: usize| {
            let mut cfg = AcceleratorConfig::default();
            cfg.tree_buffer.num_banks = banks;
            format!("{:?}", run_network(&small_spec(), &cloud, Variant::Mesorasi, knobs, &cfg))
        };
        assert_eq!(run(2), run(32));
    }

    #[test]
    fn crescent_beats_mesorasi_end_to_end() {
        let cloud = test_cloud();
        let spec = small_spec();
        let base = AcceleratorConfig::default();
        let knobs = CrescentKnobs { top_height: 4, elision_height: 9 };
        let meso = run_network(&spec, &cloud, Variant::Mesorasi, knobs, &base);
        let ans = run_network(&spec, &cloud, Variant::Ans, knobs, &base);
        let bce = run_network(&spec, &cloud, Variant::AnsBce, knobs, &base);
        assert!(
            ans.total_cycles() < meso.total_cycles(),
            "ANS {} vs Mesorasi {}",
            ans.total_cycles(),
            meso.total_cycles()
        );
        assert!(bce.total_cycles() <= ans.total_cycles());
        assert!(ans.energy.total() < meso.energy.total());
    }

    #[test]
    fn gpu_baselines_are_slower_and_hungrier() {
        let cloud = test_cloud();
        let spec = small_spec();
        let base = AcceleratorConfig::default();
        let knobs = CrescentKnobs { top_height: 4, elision_height: 9 };
        let meso = run_network(&spec, &cloud, Variant::Mesorasi, knobs, &base);
        let tg = run_network(&spec, &cloud, Variant::TigrisGpu, knobs, &base);
        let gpu = run_network(&spec, &cloud, Variant::Gpu, knobs, &base);
        assert!(gpu.total_cycles() > meso.total_cycles());
        assert!(tg.total_cycles() > meso.total_cycles());
        assert!(gpu.total_cycles() >= tg.total_cycles());
        let e_meso = meso.energy.total();
        assert!(gpu.energy.total() / e_meso > 5.0, "GPU should be far hungrier");
        assert!(tg.energy.total() / e_meso > 2.0);
        assert!(gpu.energy.total() > tg.energy.total());
    }

    #[test]
    fn search_share_is_layer_shape_dependent() {
        // DensePoint must be search-dominated on the baseline accelerator
        let cloud = test_cloud();
        let base = AcceleratorConfig::default();
        let knobs = CrescentKnobs { top_height: 4, elision_height: 9 };
        let dp = run_network(&NetworkSpec::densepoint(), &cloud, Variant::Mesorasi, knobs, &base);
        let share = dp.cycles.search as f64 / dp.total_cycles() as f64;
        assert!(share > 0.6, "DensePoint search share {share}");
    }

    #[test]
    fn evaluation_suite_has_four_networks() {
        let suite = NetworkSpec::evaluation_suite();
        assert_eq!(suite.len(), 4);
        let names: Vec<&str> = suite.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"DensePoint"));
        assert!(names.contains(&"F-PointNet"));
    }

    #[test]
    fn stage_cycles_sum() {
        let c = StageCycles { search: 1, aggregation: 2, mlp: 3 };
        assert_eq!(c.total(), 6);
    }

    #[test]
    fn variant_names() {
        for v in Variant::ALL {
            assert!(!v.name().is_empty());
        }
    }
}
