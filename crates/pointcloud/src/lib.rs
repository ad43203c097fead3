//! Point-cloud geometry substrate for the Crescent (ISCA 2022) reproduction.
//!
//! This crate provides everything below the neighbor-search layer:
//!
//! * [`Point3`] / [`Aabb`] — 3D points and bounding boxes;
//! * [`PointCloud`] — the container every pipeline stage consumes;
//! * [`farthest_point_sample`] — the centroid sampler of PointNet++-style
//!   set-abstraction layers;
//! * [`radius_search_bruteforce`] / [`knn_bruteforce`] — exhaustive-search
//!   references used both for correctness checks and as the intra-sub-tree
//!   strategy of the Tigris/QuickNN baselines;
//! * [`OracleIndex`] — an incremental uniform-grid index with answers
//!   bit-identical to the brute force, patched (not rebuilt) across
//!   rigid-translation frames — the sweep explorer's fast recall oracle;
//! * [`datasets`] — deterministic synthetic stand-ins for ModelNet40,
//!   ShapeNet, and KITTI.
//!
//! # Example
//!
//! ```
//! use crescent_pointcloud::{
//!     datasets::{ClassificationConfig, ClassificationDataset},
//!     farthest_point_sample, radius_search_bruteforce,
//! };
//!
//! let ds = ClassificationDataset::generate(&ClassificationConfig {
//!     points_per_cloud: 128,
//!     train_per_class: 1,
//!     test_per_class: 1,
//!     ..ClassificationConfig::default()
//! });
//! let cloud = &ds.train[0].cloud;
//! let centroids = farthest_point_sample(cloud, 16);
//! let hits = radius_search_bruteforce(cloud, cloud.point(centroids[0]), 0.3, Some(32));
//! assert!(!hits.is_empty());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bruteforce;
pub mod cloud;
pub mod datasets;
pub mod oracle;
pub mod point;
pub mod sampling;

pub use bruteforce::{
    knn_bruteforce, knn_bruteforce_into, radius_search_bruteforce, radius_search_bruteforce_into,
    Neighbor,
};
pub use cloud::{PointCloud, POINT_BYTES};
pub use oracle::{OracleAdvance, OracleIndex};
pub use point::{Aabb, Point3, DIMS};
pub use sampling::{
    farthest_point_sample, farthest_point_subcloud, gaussian, jitter, random_sample, replicate_to_k,
};
