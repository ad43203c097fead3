//! High-level entry point tying the hardware simulator and the
//! approximation-aware networks together.

use crescent_accel::{
    run_crescent_search, run_network, AcceleratorConfig, CrescentKnobs, NetworkSpec,
    PipelineReport, SearchEngineReport, Variant,
};
use crescent_kdtree::KdTree;
use crescent_models::ApproxSetting;
use crescent_pointcloud::{Neighbor, Point3, PointCloud};

/// The Crescent system: an accelerator configuration plus the active
/// approximation knobs `h = <h_t, h_e>`.
///
/// # Examples
///
/// ```
/// use crescent::Crescent;
/// use crescent_pointcloud::{Point3, PointCloud};
///
/// let cloud: PointCloud = (0..2048)
///     .map(|i| Point3::new((i % 16) as f32, ((i / 16) % 16) as f32, (i / 256) as f32))
///     .collect();
/// let system = Crescent::new();
/// let queries = [Point3::new(8.0, 8.0, 4.0)];
/// let (results, report) = system.search(&cloud, &queries, 2.0, Some(16));
/// assert!(!results[0].is_empty());
/// assert_eq!(report.dram_random_bytes, 0, "Crescent DRAM is fully streaming");
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Crescent {
    /// Hardware configuration (Sec 6 defaults).
    pub config: AcceleratorConfig,
    /// Approximation knobs.
    pub knobs: CrescentKnobs,
}

impl Default for Crescent {
    fn default() -> Self {
        Crescent::new()
    }
}

impl Crescent {
    /// The paper's default operating point: the Sec 6 hardware with
    /// `h_t = 4`, `h_e = 12`, and both elisions on (ANS+BCE).
    pub fn new() -> Self {
        let knobs = CrescentKnobs::default();
        Crescent { config: AcceleratorConfig::ans_bce(knobs.elision_height), knobs }
    }

    /// Crescent with custom knobs (still ANS+BCE).
    pub fn with_knobs(knobs: CrescentKnobs) -> Self {
        Crescent { config: AcceleratorConfig::ans_bce(knobs.elision_height), knobs }
    }

    /// The ANS-only configuration (no bank-conflict elision).
    pub fn ans_only(top_height: usize) -> Self {
        Crescent {
            config: AcceleratorConfig::ans(),
            knobs: CrescentKnobs { top_height, elision_height: usize::MAX },
        }
    }

    /// The [`ApproxSetting`] equivalent of this system's knobs, for use
    /// with the `crescent-models` accuracy stack.
    pub fn approx_setting(&self) -> ApproxSetting {
        ApproxSetting {
            top_height: self.knobs.top_height,
            elision_height: self.config.search_elision.map(|e| e.elision_height),
            tree_banks: self.config.tree_buffer.num_banks,
            num_pes: self.config.num_pes,
            point_banks: self.config.point_buffer.num_banks,
            elide_aggregation: self.config.aggregation_elision,
        }
    }

    /// Runs the fully-streaming approximate neighbor search on the
    /// simulated engine.
    pub fn search(
        &self,
        cloud: &PointCloud,
        queries: &[Point3],
        radius: f32,
        max_neighbors: Option<usize>,
    ) -> (Vec<Vec<Neighbor>>, SearchEngineReport) {
        let tree = KdTree::build(cloud);
        run_crescent_search(
            &tree,
            self.knobs.top_height,
            queries,
            radius,
            max_neighbors,
            &self.config,
        )
    }

    /// Simulates one evaluation network end-to-end on this system
    /// (ANS+BCE by default).
    pub fn simulate(&self, spec: &NetworkSpec, cloud: &PointCloud) -> PipelineReport {
        run_network(spec, cloud, Variant::AnsBce, self.knobs, &self.config)
    }

    /// Simulates one network on an arbitrary system variant, sharing this
    /// system's hardware configuration and knobs.
    pub fn simulate_variant(
        &self,
        spec: &NetworkSpec,
        cloud: &PointCloud,
        variant: Variant,
    ) -> PipelineReport {
        run_network(spec, cloud, variant, self.knobs, &self.config)
    }
}

/// Formats a simple aligned text table (used by the repro harness and the
/// examples).
pub fn format_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: Vec<String>, widths: &[usize]| {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            let w = widths.get(i).copied().unwrap_or(cell.len());
            line.push_str(&format!("{cell:<w$}  "));
        }
        line.trim_end().to_string()
    };
    out.push_str(&fmt_row(headers.iter().map(|s| s.to_string()).collect(), &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row.clone(), &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_cloud(n: usize, seed: u64) -> PointCloud {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point3::new(rng.random::<f32>(), rng.random::<f32>(), rng.random::<f32>()))
            .collect()
    }

    #[test]
    fn default_is_paper_operating_point() {
        let c = Crescent::new();
        assert_eq!(c.knobs.top_height, 4);
        assert_eq!(c.knobs.elision_height, 12);
        assert!(c.config.aggregation_elision);
        let s = c.approx_setting();
        assert_eq!(s.top_height, 4);
        assert_eq!(s.elision_height, Some(12));
        assert!(s.elide_aggregation);
    }

    #[test]
    fn ans_only_disables_elision() {
        let c = Crescent::ans_only(3);
        let s = c.approx_setting();
        assert_eq!(s.top_height, 3);
        assert_eq!(s.elision_height, None);
        assert!(!s.elide_aggregation);
    }

    #[test]
    fn search_is_streaming() {
        let cloud = random_cloud(4096, 1);
        let c = Crescent::new();
        let queries: Vec<Point3> = random_cloud(32, 2).into_points();
        let (results, report) = c.search(&cloud, &queries, 0.2, Some(8));
        assert_eq!(results.len(), 32);
        assert_eq!(report.dram_random_bytes, 0);
        assert!(report.dram_streaming_bytes > 0);
    }

    #[test]
    fn simulate_beats_mesorasi() {
        let cloud = random_cloud(8192, 3);
        let c = Crescent::new();
        let spec = NetworkSpec::f_pointnet();
        let ours = c.simulate(&spec, &cloud);
        let meso = c.simulate_variant(&spec, &cloud, Variant::Mesorasi);
        assert!(ours.total_cycles() < meso.total_cycles());
    }

    #[test]
    fn table_formatting() {
        let t = format_table(
            &["net", "speedup"],
            &[vec!["DensePoint".into(), "3.1".into()], vec!["avg".into(), "1.9".into()]],
        );
        assert!(t.contains("DensePoint"));
        assert!(t.lines().count() == 4);
    }
}
