//! Cycle-level point-cloud accelerator simulator for the Crescent
//! (ISCA 2022) reproduction.
//!
//! The crate composes the Fig 12 architecture:
//!
//! * [`engine`] — the neighbor-search engine of Fig 7 (lock-step PEs,
//!   banked tree buffer, streaming/double-buffered DMA), plus the
//!   Tigris-style baseline;
//! * [`aggregation`] — the Mesorasi-style neighbor gather over the banked
//!   Point Buffer, with Crescent's conflict elision;
//! * [`systolic`] — the 16×16 TPU-style MAC array timing model;
//! * [`gpu`] — the analytic Jetson-TX2-class GPU baseline;
//! * [`pipeline`] — end-to-end network simulation across the five systems
//!   of Fig 14 (GPU, Tigris+GPU, Mesorasi, ANS, ANS+BCE);
//! * [`streaming`] — the back-to-back multi-frame pipeline driver (batched
//!   two-stage search per frame, per-frame tree maintenance under a
//!   [`TreeMaintenance`] policy with honest build/refit cost accounting,
//!   inter-frame double buffering that overlaps the next frame's build
//!   with the current frame's search, per-frame cycle and energy
//!   accounting);
//! * [`service`] — the multi-tenant fleet instance model: cross-tenant
//!   tagged wavefronts run as one-frame streams through the streaming
//!   driver's per-frame steps, dispatched by the `crescent-serve`
//!   scheduler;
//! * [`config`] — the Sec 6 hardware configuration (buffer sizes, banking,
//!   PE count) including the Sec 3.3 top-tree-height feasibility range.
//!
//! # Example
//!
//! ```
//! use crescent_accel::{run_network, AcceleratorConfig, CrescentKnobs, NetworkSpec, Variant};
//! use crescent_pointcloud::{Point3, PointCloud};
//!
//! let cloud: PointCloud = (0..4096)
//!     .map(|i| Point3::new((i % 16) as f32, ((i / 16) % 16) as f32, (i / 256) as f32))
//!     .collect();
//! let spec = NetworkSpec::pointnet2_classification();
//! let cfg = AcceleratorConfig::default();
//! let meso = run_network(&spec, &cloud, Variant::Mesorasi, CrescentKnobs::default(), &cfg);
//! let bce = run_network(&spec, &cloud, Variant::AnsBce, CrescentKnobs::default(), &cfg);
//! assert!(bce.total_cycles() < meso.total_cycles());
//! ```

#![warn(missing_docs)]

pub mod aggregation;
pub mod config;
pub mod engine;
pub mod gpu;
pub mod pipeline;
pub mod service;
pub mod streaming;
pub mod systolic;

pub use aggregation::{simulate_aggregation, AggregationReport};
pub use config::{AcceleratorConfig, ConfigBuilder, ConfigError};
pub use engine::{
    run_crescent_search, run_tigris_report, run_tigris_search, SearchEngineReport,
    PE_PIPELINE_DEPTH,
};
pub use gpu::{GpuModel, GpuReport};
pub use pipeline::{
    run_network, CrescentKnobs, LayerSpec, NetworkSpec, PipelineReport, StageCycles, Variant,
};
pub use service::{trace_segment, Fleet, ServiceInstance};
pub use streaming::{
    aggregate_stream, compose_stream, maintain_tree_sequence, replay_stream, run_frame_stream,
    run_frame_stream_on_trees, search_stream, trace_stream, FrameReport, FrameSearch,
    MaintainedTree, MaintenanceCost, StreamReport, StreamSearchConfig, TreeMaintenance,
    DEFAULT_STREAM_ELISION_DEPTH,
};
pub use systolic::{gemm_report, mlp_report, SystolicReport};
