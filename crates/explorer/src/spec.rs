//! Declarative sweep specifications: a cartesian grid over architecture
//! and workload knobs, expanded into an ordered list of sweep points.

use crescent::workload::{EgoMotion, FrameStreamConfig, StreamScenario};
use crescent_accel::{AcceleratorConfig, ConfigError, TreeMaintenance};
use crescent_pointcloud::datasets::LidarSceneConfig;

/// A cartesian design-space grid: the explorer runs every combination of
/// the axes below against the shared streaming `workload` base (whose
/// own `scenario` / `maintenance` fields are overridden per point).
///
/// Expansion order is fixed and documented ([`SweepSpec::expand`]), so a
/// report row index identifies the same configuration forever — the
/// property the checked-in CI baseline relies on.
#[derive(Clone, Debug)]
pub struct SweepSpec {
    /// Human-readable name of the spec (`"quick"`, `"full"`, ...);
    /// echoed into the report header.
    pub label: String,
    /// The streaming workload every point runs (frame count, scene,
    /// queries, radius). `scenario` and `maintenance` in here are
    /// ignored — the grid supplies them.
    pub workload: FrameStreamConfig,
    /// Workload shapes to cover (outermost axis).
    pub scenarios: Vec<StreamScenario>,
    /// Tree-maintenance policies to cover.
    pub maintenance: Vec<TreeMaintenance>,
    /// Neighbor-search PE counts.
    pub num_pes: Vec<usize>,
    /// Tree-buffer capacities in KiB (cache-geometry axis).
    pub tree_kb: Vec<usize>,
    /// Tree-buffer bank counts (the arbitration-width axis: fewer banks
    /// ⇒ more conflicts ⇒ more stall rounds or more elision).
    pub tree_banks: Vec<usize>,
    /// Streaming DRAM bandwidths in bytes per accelerator cycle.
    pub dram_bytes_per_cycle: Vec<f64>,
    /// Aggregation (Point-Buffer) elision on/off — moves the streaming
    /// pass's per-frame gather rounds.
    pub aggregation_elision: Vec<bool>,
    /// Top-tree heights `h_t`.
    pub top_heights: Vec<usize>,
    /// Streaming elision depths `h_e` (innermost axis): conflicted
    /// fetches in the `h_e` deepest tree levels are dropped; `0` = exact
    /// stall-only search.
    pub elision_depths: Vec<usize>,
}

/// One expanded grid point, in expansion order.
#[derive(Clone, Copy, Debug)]
pub struct SweepPoint {
    /// Position in the expanded grid (== report row index).
    pub index: usize,
    /// Position of the scenario in [`SweepSpec::scenarios`] (used to
    /// look up the per-scenario frame / exact-baseline caches).
    pub scenario_idx: usize,
    /// The workload shape.
    pub scenario: StreamScenario,
    /// The tree-maintenance policy.
    pub maintenance: TreeMaintenance,
    /// Neighbor-search PE count.
    pub num_pes: usize,
    /// Tree-buffer capacity in KiB.
    pub tree_kb: usize,
    /// Tree-buffer bank count.
    pub tree_banks: usize,
    /// Streaming DRAM bandwidth in bytes per cycle.
    pub dram_bytes_per_cycle: f64,
    /// Aggregation elision on/off.
    pub aggregation_elision: bool,
    /// Top-tree height `h_t`.
    pub top_height: usize,
    /// Streaming elision depth `h_e` (depth-from-leaves, 0 = off).
    pub elision_depth: usize,
}

impl SweepPoint {
    /// Builds the validated accelerator configuration for this point:
    /// banking, capacity, bandwidth and the aggregation-elision flag.
    /// The point's `h_e` travels to the stream as its depth form
    /// ([`elision_depth`](SweepPoint::elision_depth)), so the config
    /// carries no level-form search elision.
    pub fn config(&self) -> Result<AcceleratorConfig, ConfigError> {
        AcceleratorConfig::builder()
            .num_pes(self.num_pes)
            .tree_buffer_kb(self.tree_kb)
            .tree_banks(self.tree_banks)
            .dram_stream_bytes_per_cycle(self.dram_bytes_per_cycle)
            .aggregation_elision(self.aggregation_elision)
            .build()
    }
}

/// Stable machine-readable name of a maintenance policy (parameters
/// elided) — a baseline key, so it must never change for a variant.
pub fn maintenance_label(m: TreeMaintenance) -> &'static str {
    match m {
        TreeMaintenance::RebuildEveryFrame => "rebuild",
        TreeMaintenance::Refit { .. } => "refit",
    }
}

impl SweepSpec {
    /// The CI-scale spec: every canonical scenario × both maintenance
    /// policies × two PE counts × two bank counts × `h_e ∈ {0, 4}` on a
    /// small 8-frame stream. 160 points, seconds to run, and the source
    /// of the checked-in `bench/baseline.json` — `h_e = 0` rows double
    /// as the exact stall-only reference the elided rows are judged
    /// against.
    pub fn quick() -> Self {
        SweepSpec {
            label: "quick".to_string(),
            workload: quick_workload(),
            scenarios: StreamScenario::canonical_matrix().to_vec(),
            maintenance: vec![TreeMaintenance::RebuildEveryFrame, TreeMaintenance::refit()],
            num_pes: vec![2, 8],
            tree_kb: vec![6],
            tree_banks: vec![2, 4],
            dram_bytes_per_cycle: vec![20.48],
            aggregation_elision: vec![true],
            top_heights: vec![4],
            elision_depths: vec![0, 4],
        }
    }

    /// The paper-scale spec: wider PE / cache / bandwidth / `h` axes on
    /// a longer, denser stream. Hundreds of points — for offline
    /// architecture studies, not the CI gate.
    pub fn full() -> Self {
        SweepSpec {
            label: "full".to_string(),
            workload: FrameStreamConfig {
                scene: LidarSceneConfig {
                    total_points: 12_000,
                    num_cars: 8,
                    num_poles: 16,
                    num_walls: 4,
                    half_extent: 30.0,
                    seed: 0x5EED_C4E5,
                },
                num_frames: 10,
                // straight-line, noise-free ego (a registration
                // pipeline's output): the regime where the refit
                // policies actually diverge — see quick_workload()
                ego: EgoMotion { speed_mps: 6.0, yaw_rate_rps: 0.0, frame_period_s: 0.1 },
                max_range: 14.0,
                noise_m: 0.0,
                queries_per_frame: 256,
                radius: 0.5,
                max_neighbors: Some(32),
                ..FrameStreamConfig::default()
            },
            scenarios: StreamScenario::canonical_matrix().to_vec(),
            maintenance: vec![TreeMaintenance::RebuildEveryFrame, TreeMaintenance::refit()],
            num_pes: vec![1, 2, 4, 8, 16],
            tree_kb: vec![3, 6, 12],
            tree_banks: vec![2, 4, 8],
            dram_bytes_per_cycle: vec![10.24, 20.48],
            aggregation_elision: vec![false, true],
            top_heights: vec![2, 4, 6],
            elision_depths: vec![0, 2, 4, 8],
        }
    }

    /// Number of points the grid expands to.
    pub fn num_points(&self) -> usize {
        self.scenarios.len()
            * self.maintenance.len()
            * self.num_pes.len()
            * self.tree_kb.len()
            * self.tree_banks.len()
            * self.dram_bytes_per_cycle.len()
            * self.aggregation_elision.len()
            * self.top_heights.len()
            * self.elision_depths.len()
    }

    /// Expands the grid in its fixed axis order — scenario, maintenance,
    /// PE count, tree KiB, tree banks, DRAM bandwidth, aggregation
    /// elision, `h_t`, `h_e` (innermost).
    pub fn expand(&self) -> Vec<SweepPoint> {
        let mut points = Vec::with_capacity(self.num_points());
        for (scenario_idx, &scenario) in self.scenarios.iter().enumerate() {
            for &maintenance in &self.maintenance {
                for &num_pes in &self.num_pes {
                    for &tree_kb in &self.tree_kb {
                        for &tree_banks in &self.tree_banks {
                            for &dram_bytes_per_cycle in &self.dram_bytes_per_cycle {
                                for &aggregation_elision in &self.aggregation_elision {
                                    for &top_height in &self.top_heights {
                                        for &elision_depth in &self.elision_depths {
                                            points.push(SweepPoint {
                                                index: points.len(),
                                                scenario_idx,
                                                scenario,
                                                maintenance,
                                                num_pes,
                                                tree_kb,
                                                tree_banks,
                                                dram_bytes_per_cycle,
                                                aggregation_elision,
                                                top_height,
                                                elision_depth,
                                            });
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        points
    }

    /// Validates the spec: every axis non-empty, a sane workload (at
    /// least one frame, a usable search radius and neighbor cap), and
    /// every grid point's accelerator config constructible.
    pub fn validate(&self) -> Result<(), String> {
        if self.scenarios.is_empty()
            || self.maintenance.is_empty()
            || self.num_pes.is_empty()
            || self.tree_kb.is_empty()
            || self.tree_banks.is_empty()
            || self.dram_bytes_per_cycle.is_empty()
            || self.aggregation_elision.is_empty()
            || self.top_heights.is_empty()
            || self.elision_depths.is_empty()
        {
            return Err("every sweep axis needs at least one value".to_string());
        }
        if self.workload.num_frames == 0 {
            return Err("workload needs at least one frame".to_string());
        }
        self.workload.validate_search().map_err(|e| format!("workload: {e}"))?;
        for point in self.expand() {
            point.config().map_err(|e| format!("grid point {}: {e}", point.index))?;
        }
        Ok(())
    }
}

fn quick_workload() -> FrameStreamConfig {
    FrameStreamConfig {
        scene: LidarSceneConfig {
            total_points: 2_500,
            num_cars: 4,
            num_poles: 8,
            num_walls: 2,
            half_extent: 30.0,
            seed: 0x5EED_C4E5,
        },
        num_frames: 8,
        // Straight-line, noise-free ego motion — i.e. the output of a
        // registration/motion-compensation pipeline. Per-frame noise or
        // yaw makes every refit honestly fall back to a rebuild, which
        // would collapse the maintenance axis to a constant; a rigid
        // translation is the regime the Refit policy exists for, so the
        // sweep actually contrasts the two policies (Sweep re-sorts and
        // RotationBurst rotates, so those still exercise the fallback).
        ego: EgoMotion { speed_mps: 6.0, yaw_rate_rps: 0.0, frame_period_s: 0.1 },
        // 12 m sensor range: small enough that the DynamicObjects
        // movers (spawned at 1.4x range, closing at ~0.5-0.9 m/frame)
        // actually enter the scene within the 8 simulated frames.
        max_range: 12.0,
        noise_m: 0.0,
        queries_per_frame: 160,
        radius: 0.4,
        max_neighbors: Some(16),
        ..FrameStreamConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_grid_shape_meets_the_ci_contract() {
        let spec = SweepSpec::quick();
        spec.validate().expect("quick spec is valid");
        assert_eq!(spec.scenarios.len(), 10, "all scenarios");
        assert_eq!(spec.maintenance.len(), 2, "both policies");
        assert!(spec.num_pes.len() >= 2, ">= 2 PE counts");
        assert!(spec.tree_banks.len() >= 2, ">= 2 bank counts");
        assert!(spec.elision_depths.contains(&0), "the exact h_e = 0 reference is gated");
        assert!(spec.elision_depths.iter().any(|&d| d > 0), "a real elision point is gated");
        assert!(
            spec.scenarios.iter().any(StreamScenario::descendant_reuse),
            "the descendant-reuse workload is gated"
        );
        assert_eq!(spec.num_points(), 160);
        assert_eq!(spec.expand().len(), 160);
    }

    #[test]
    fn expansion_order_is_stable_and_indexed() {
        let spec = SweepSpec::quick();
        let points = spec.expand();
        for (i, p) in points.iter().enumerate() {
            assert_eq!(p.index, i);
        }
        // innermost axis is h_e: consecutive points differ only there
        assert_eq!(points[0].elision_depth, 0);
        assert_eq!(points[1].elision_depth, 4);
        assert_eq!(points[0].tree_banks, points[1].tree_banks);
        assert_eq!(points[0].num_pes, points[1].num_pes);
        assert_eq!(points[0].scenario.label(), points[1].scenario.label());
        // outermost axis is the scenario
        let per_scenario = spec.num_points() / spec.scenarios.len();
        assert_eq!(points[per_scenario].scenario_idx, 1);
        assert_eq!(points[per_scenario - 1].scenario_idx, 0);
    }

    #[test]
    fn empty_axis_and_bad_point_are_rejected() {
        let mut spec = SweepSpec::quick();
        spec.num_pes.clear();
        assert!(spec.validate().is_err());
        let mut spec = SweepSpec::quick();
        spec.num_pes = vec![0];
        let err = spec.validate().unwrap_err();
        assert!(err.contains("num_pes"), "{err}");
    }

    #[test]
    fn unusable_search_is_rejected() {
        for radius in [f32::NAN, f32::INFINITY, 0.0, -1.0] {
            let mut spec = SweepSpec::quick();
            spec.workload.radius = radius;
            let err = spec.validate().unwrap_err();
            assert!(err.starts_with("workload: search radius"), "radius {radius}: {err}");
        }
        let mut spec = SweepSpec::quick();
        spec.workload.max_neighbors = Some(0);
        let err = spec.validate().unwrap_err();
        assert!(err.starts_with("workload: max_neighbors"), "{err}");
        spec.workload.max_neighbors = None;
        spec.validate().expect("an unbounded cap is valid");
    }

    #[test]
    fn full_spec_is_valid_and_larger() {
        let spec = SweepSpec::full();
        spec.validate().expect("full spec is valid");
        assert!(spec.num_points() > SweepSpec::quick().num_points());
    }

    #[test]
    fn maintenance_labels_are_stable() {
        assert_eq!(maintenance_label(TreeMaintenance::RebuildEveryFrame), "rebuild");
        assert_eq!(maintenance_label(TreeMaintenance::refit()), "refit");
    }
}
