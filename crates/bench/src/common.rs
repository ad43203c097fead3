//! Shared workloads and scaling for the figure-reproduction experiments,
//! plus the report-file helpers of the `repro sweep` and `repro serve`
//! subcommands.

use std::path::Path;

use crescent_pointcloud::datasets::{generate_scene, LidarScene, LidarSceneConfig};
use crescent_pointcloud::PointCloud;

/// Experiment scale. `Quick` shrinks the workloads so the full suite runs
/// in minutes; `Full` uses the paper-scale workloads documented in
/// EXPERIMENTS.md. Trends are scale-stable (see `tests/scale.rs`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Shrunk workloads for smoke runs and CI.
    Quick,
    /// The defaults recorded in EXPERIMENTS.md.
    Full,
}

impl Scale {
    /// Parses from a CLI flag.
    pub fn from_flag(quick: bool) -> Self {
        if quick {
            Scale::Quick
        } else {
            Scale::Full
        }
    }

    /// Scene size for the trace experiments (Figs 2–4).
    pub fn scene_points(self) -> usize {
        match self {
            Scale::Quick => 60_000,
            Scale::Full => 400_000,
        }
    }

    /// Query count for the trace experiments.
    pub fn trace_queries(self) -> usize {
        match self {
            Scale::Quick => 4_000,
            Scale::Full => 40_000,
        }
    }

    /// Cloud size for the pipeline experiments (Figs 14–17, 22–24).
    pub fn pipeline_points(self) -> usize {
        match self {
            Scale::Quick => 8_192,
            Scale::Full => 16_384,
        }
    }

    /// Training epochs for the accuracy experiments (Figs 13, 18–21).
    pub fn epochs(self) -> usize {
        match self {
            Scale::Quick => 6,
            Scale::Full => 18,
        }
    }

    /// Classification train samples per class.
    pub fn train_per_class(self) -> usize {
        match self {
            Scale::Quick => 5,
            Scale::Full => 20,
        }
    }

    /// Classification test samples per class.
    pub fn test_per_class(self) -> usize {
        match self {
            Scale::Quick => 3,
            Scale::Full => 8,
        }
    }

    /// Points per accuracy-experiment cloud.
    pub fn points_per_cloud(self) -> usize {
        match self {
            Scale::Quick => 128,
            Scale::Full => 256,
        }
    }
}

/// The LiDAR scene used by the memory-characterization experiments.
pub fn trace_scene(scale: Scale, seed: u64) -> LidarScene {
    generate_scene(&LidarSceneConfig {
        total_points: scale.scene_points(),
        num_cars: 24,
        num_poles: 48,
        num_walls: 10,
        half_extent: 50.0,
        seed,
    })
}

/// The normalized cloud fed to the pipeline experiments.
pub fn pipeline_cloud(scale: Scale, seed: u64) -> PointCloud {
    let mut scene = generate_scene(&LidarSceneConfig {
        total_points: scale.pipeline_points(),
        num_cars: 8,
        num_poles: 16,
        num_walls: 4,
        half_extent: 30.0,
        seed,
    });
    scene.cloud.normalize_unit_sphere();
    scene.cloud
}

/// One row of a figure's data series.
#[derive(Clone, Debug)]
pub struct FigRow {
    /// Row label (x value or system name).
    pub label: String,
    /// Column values in figure order.
    pub values: Vec<f64>,
}

/// A reproduced figure: id, caption, column headers, and rows.
#[derive(Clone, Debug)]
pub struct Figure {
    /// Paper figure id, e.g. `"fig14a"`.
    pub id: &'static str,
    /// What the paper's figure shows.
    pub caption: &'static str,
    /// Column headers (not counting the row label).
    pub columns: Vec<&'static str>,
    /// Data rows.
    pub rows: Vec<FigRow>,
}

impl Figure {
    /// Renders the figure as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = format!("== {} — {}\n", self.id, self.caption);
        let mut headers = vec![""];
        headers.extend(&self.columns);
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                let mut cells = vec![r.label.clone()];
                cells.extend(r.values.iter().map(|v| format!("{v:.4}")));
                cells
            })
            .collect();
        out.push_str(&crescent::format_table(&headers, &rows));
        out
    }
}

/// Seconds from wall-clock nanoseconds, for the subcommands' stderr
/// timing lines.
pub(crate) fn secs(nanos: u64) -> f64 {
    nanos as f64 / 1e9
}

/// Writes a report (or sidecar) to `path`, creating its parent
/// directories first.
pub(crate) fn write_report(path: &Path, text: &str) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_report_creates_missing_parent_directories() {
        let dir =
            std::env::temp_dir().join(format!("crescent-write-report-{}", std::process::id()));
        let path = dir.join("nested").join("report.json");
        write_report(&path, "{}\n").expect("writes through missing parents");
        assert_eq!(std::fs::read_to_string(&path).expect("written"), "{}\n");
        std::fs::remove_dir_all(&dir).expect("clean up");
    }

    #[test]
    fn scales_are_ordered() {
        assert!(Scale::Quick.scene_points() < Scale::Full.scene_points());
        assert!(Scale::Quick.epochs() < Scale::Full.epochs());
        assert_eq!(Scale::from_flag(true), Scale::Quick);
        assert_eq!(Scale::from_flag(false), Scale::Full);
    }

    #[test]
    fn figure_renders() {
        let f = Figure {
            id: "figX",
            caption: "test",
            columns: vec!["a", "b"],
            rows: vec![FigRow { label: "r1".into(), values: vec![1.0, 2.0] }],
        };
        let s = f.render();
        assert!(s.contains("figX"));
        assert!(s.contains("1.0000"));
    }

    #[test]
    fn workloads_generate() {
        let scene = trace_scene(Scale::Quick, 1);
        assert!(scene.cloud.len() > 50_000);
        let cloud = pipeline_cloud(Scale::Quick, 2);
        assert!(cloud.len() > 7_000);
    }
}
