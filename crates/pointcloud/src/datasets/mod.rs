//! Synthetic dataset generators standing in for ModelNet40, ShapeNet, and
//! KITTI (see Tbl 1 of the paper).
//!
//! All generators are deterministic given a seed, so every experiment in
//! the workspace is reproducible bit-for-bit.

pub mod classification;
pub mod lidar;
pub mod segmentation;
pub mod shapes;

pub use classification::{
    generate_sample as generate_classification_sample, ClassificationConfig, ClassificationDataset,
    ClassificationSample, ShapeClass,
};
pub use lidar::{
    generate_frustum_sample, generate_scene, DetectionConfig, DetectionDataset, DetectionSample,
    LidarScene, LidarSceneConfig,
};
pub use segmentation::{
    generate_sample as generate_segmentation_sample, sample_iou, SegCategory, SegmentationConfig,
    SegmentationDataset, SegmentationSample, NUM_PARTS,
};
