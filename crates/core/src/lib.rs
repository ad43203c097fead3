//! # Crescent — taming memory irregularities for deep point-cloud analytics
//!
//! A full-system Rust reproduction of *Crescent: Taming Memory
//! Irregularities for Accelerating Deep Point Cloud Analytics*
//! (Feng, Hammonds, Gan, Zhu — ISCA 2022).
//!
//! Crescent is an algorithm–hardware co-design with three parts, all
//! implemented here:
//!
//! 1. **Fully-streaming approximate neighbor search** (Sec 3) — a K-d tree
//!    split into a top tree and sub-trees; queries are routed in one pass
//!    and answered with backtracking confined to a sub-tree, so every DRAM
//!    transfer is a stream ([`crescent_kdtree`]).
//! 2. **Selective bank-conflict elision** (Sec 4) — conflicted SRAM reads
//!    below the elision height are dropped (search) or answered with the
//!    winner's data (aggregation) instead of stalling
//!    ([`crescent_memsim`], [`crescent_accel`]).
//! 3. **Approximation-aware training** (Sec 5) — the approximations and a
//!    bank-conflict model run inside the forward pass during training, so
//!    the network keeps its accuracy under approximation
//!    ([`crescent_models`]).
//!
//! The [`Crescent`] facade bundles an accelerator configuration with the
//! approximation knobs `h = <h_t, h_e>` and exposes one-call search,
//! end-to-end network simulation, and — via the [`workload`] module's
//! seeded [`FrameStream`] — streaming multi-frame simulation
//! ([`Crescent::run_stream`]); the individual crates remain fully usable
//! on their own.
//!
//! ```
//! use crescent::Crescent;
//! use crescent_pointcloud::{Point3, PointCloud};
//!
//! let cloud: PointCloud = (0..1000)
//!     .map(|i| Point3::new((i % 10) as f32, ((i / 10) % 10) as f32, (i / 100) as f32))
//!     .collect();
//! let (hits, report) = Crescent::new().search(&cloud, &[Point3::splat(5.0)], 1.5, Some(16));
//! assert!(!hits[0].is_empty());
//! assert_eq!(report.dram_random_bytes, 0); // fully streaming
//! ```

#![warn(missing_docs)]

pub mod facade;
pub mod tenant;
pub mod workload;

pub use facade::{format_table, Crescent};
pub use tenant::{mixed_tenants, TenantSpec};
pub use workload::{
    EgoMotion, Frame, FrameStream, FrameStreamConfig, StreamOutcome, StreamScenario,
};

// Re-export the component crates under one roof.
pub use crescent_accel as accel;
pub use crescent_kdtree as kdtree;
pub use crescent_memsim as memsim;
pub use crescent_models as models;
pub use crescent_nn as nn;
pub use crescent_pointcloud as pointcloud;

// The most commonly used items, flattened.
pub use crescent_accel::{AcceleratorConfig, CrescentKnobs, NetworkSpec, PipelineReport, Variant};
pub use crescent_kdtree::{KdTree, SplitSearchConfig, SplitTree};
pub use crescent_models::{ApproxSetting, SettingSampler};
pub use crescent_pointcloud::{Aabb, Point3, PointCloud};
