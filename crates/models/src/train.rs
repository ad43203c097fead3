//! Approximation-aware training (Sec 5).
//!
//! The trainers extend conventional training with one change: for every
//! input they draw an approximate setting `h = <h_t, h_e>` from a
//! [`SettingSampler`] and run the **forward pass under that setting** —
//! approximate neighbor search plus the bank-conflict model — so the
//! weights learn to tolerate the approximations. A
//! [`SettingSampler::Fixed`] sampler trains a dedicated model (Figs 18/19);
//! [`SettingSampler::Mixed`] trains the Fig 20 "Mixed" model. Gradients
//! flow only through the MLPs (Fig 11).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crescent_nn::{huber_loss, softmax_cross_entropy, Adam};
use crescent_pointcloud::datasets::{ClassificationSample, DetectionSample, SegmentationSample};
use crescent_pointcloud::Aabb;

use crate::cls::Classifier;
use crate::det::{params_from_box, FPointNetDet};
use crate::search::{ApproxSetting, SettingSampler};
use crate::seg::PointNet2Seg;

/// Training hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct TrainConfig {
    /// Passes over the training set.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Per-input approximation sampler.
    pub sampler: SettingSampler,
    /// Shuffling seed.
    pub seed: u64,
}

impl TrainConfig {
    /// Conventional (exact-search) training — the baseline models.
    pub fn exact(epochs: usize) -> Self {
        TrainConfig {
            epochs,
            lr: 2e-3,
            sampler: SettingSampler::Fixed(ApproxSetting::exact()),
            seed: 0xBEEF,
        }
    }

    /// Dedicated-model training under one fixed approximate setting.
    pub fn dedicated(setting: ApproxSetting, epochs: usize) -> Self {
        TrainConfig { sampler: SettingSampler::Fixed(setting), ..TrainConfig::exact(epochs) }
    }

    /// Mixed training: sample `h_t` (and optionally `h_e`) per input.
    pub fn mixed(
        top_height: (usize, usize),
        elision_height: Option<(usize, usize)>,
        epochs: usize,
    ) -> Self {
        TrainConfig {
            sampler: SettingSampler::Mixed {
                top_height,
                elision_height,
                base: ApproxSetting::exact(),
            },
            ..TrainConfig::exact(epochs)
        }
    }
}

/// Loss trace of a training run.
#[derive(Clone, Debug, Default)]
pub struct TrainReport {
    /// Mean loss per epoch.
    pub epoch_losses: Vec<f32>,
}

fn shuffled_indices(n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.random_range(0..=i);
        idx.swap(i, j);
    }
    idx
}

/// Trains a classifier with approximation-aware sampling.
pub fn train_classifier<C: Classifier + ?Sized>(
    model: &mut C,
    train_set: &[ClassificationSample],
    cfg: &TrainConfig,
) -> TrainReport {
    let mut opt = Adam::new(cfg.lr);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut report = TrainReport::default();
    for _ in 0..cfg.epochs {
        let mut epoch_loss = 0.0;
        for &i in &shuffled_indices(train_set.len(), &mut rng) {
            let sample = &train_set[i];
            let setting = cfg.sampler.sample(&mut rng);
            let logits = model.forward(&sample.cloud, &setting, true);
            let (loss, grad) = softmax_cross_entropy(&logits, &[sample.label]);
            epoch_loss += loss;
            model.zero_grad();
            model.backward(&grad);
            opt.begin_step();
            model.visit_params(&mut |p| opt.update(p));
        }
        report.epoch_losses.push(epoch_loss / train_set.len().max(1) as f32);
    }
    report
}

/// Overall accuracy of a classifier on `samples` under `setting`.
pub fn eval_classifier<C: Classifier + ?Sized>(
    model: &mut C,
    samples: &[ClassificationSample],
    setting: &ApproxSetting,
) -> f32 {
    if samples.is_empty() {
        return 0.0;
    }
    let correct = samples.iter().filter(|s| model.predict(&s.cloud, setting) == s.label).count();
    correct as f32 / samples.len() as f32
}

/// Trains the segmentation network.
pub fn train_segmenter(
    model: &mut PointNet2Seg,
    train_set: &[SegmentationSample],
    cfg: &TrainConfig,
) -> TrainReport {
    let mut opt = Adam::new(cfg.lr);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut report = TrainReport::default();
    for _ in 0..cfg.epochs {
        let mut epoch_loss = 0.0;
        for &i in &shuffled_indices(train_set.len(), &mut rng) {
            let sample = &train_set[i];
            let setting = cfg.sampler.sample(&mut rng);
            let logits = model.forward(&sample.cloud, &setting, true);
            let (loss, grad) = softmax_cross_entropy(&logits, &sample.labels);
            epoch_loss += loss;
            model.zero_grad();
            model.backward(&grad);
            opt.begin_step();
            model.visit_params(&mut |p| opt.update(p));
        }
        report.epoch_losses.push(epoch_loss / train_set.len().max(1) as f32);
    }
    report
}

/// Instance-average mIoU of the segmentation network on `samples`.
pub fn eval_segmenter(
    model: &mut PointNet2Seg,
    samples: &[SegmentationSample],
    setting: &ApproxSetting,
) -> f32 {
    if samples.is_empty() {
        return 0.0;
    }
    let num_parts = model.num_parts();
    let mut total = 0.0;
    for s in samples {
        let pred = model.predict(&s.cloud, setting);
        total += crescent_pointcloud::datasets::sample_iou(&pred, &s.labels, num_parts);
    }
    total / samples.len() as f32
}

/// Trains the detection network (joint segmentation + box loss).
pub fn train_detector(
    model: &mut FPointNetDet,
    train_set: &[DetectionSample],
    cfg: &TrainConfig,
) -> TrainReport {
    let mut opt = Adam::new(cfg.lr);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut report = TrainReport::default();
    for _ in 0..cfg.epochs {
        let mut epoch_loss = 0.0;
        for &i in &shuffled_indices(train_set.len(), &mut rng) {
            let sample = &train_set[i];
            let setting = cfg.sampler.sample(&mut rng);
            let (mask_logits, box_params) = model.forward(&sample.cloud, &setting, true);
            let (seg_loss, seg_grad) = softmax_cross_entropy(&mask_logits, &sample.mask);
            let target = params_from_box(&sample.gt_box);
            let (box_loss, box_grad) = huber_loss(&box_params, &target, 1.0);
            epoch_loss += seg_loss + box_loss;
            model.zero_grad();
            model.backward(&seg_grad, &box_grad);
            opt.begin_step();
            model.visit_params(&mut |p| opt.update(p));
        }
        report.epoch_losses.push(epoch_loss / train_set.len().max(1) as f32);
    }
    report
}

/// Geometric-mean box IoU of the detector on `samples` (the Sec 6 metric).
pub fn eval_detector(
    model: &mut FPointNetDet,
    samples: &[DetectionSample],
    setting: &ApproxSetting,
) -> f32 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut log_sum = 0.0_f64;
    for s in samples {
        let pred: Aabb = model.predict_box(&s.cloud, setting);
        log_sum += (s.gt_box.iou(&pred).max(1e-4) as f64).ln();
    }
    (log_sum / samples.len() as f64).exp() as f32
}

/// Convenience check used by tests and the harness: does the mean of a
/// loss trace decrease from the first to the last epoch?
pub fn loss_decreased(report: &TrainReport) -> bool {
    match (report.epoch_losses.first(), report.epoch_losses.last()) {
        (Some(first), Some(last)) => last < first,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cls::PointNet2Cls;
    use crescent_pointcloud::datasets::{
        ClassificationConfig, ClassificationDataset, DetectionConfig, DetectionDataset,
        SegmentationConfig, SegmentationDataset,
    };

    fn tiny_cls() -> ClassificationDataset {
        ClassificationDataset::generate(&ClassificationConfig {
            points_per_cloud: 96,
            train_per_class: 3,
            test_per_class: 2,
            jitter_sigma: 0.01,
            seed: 21,
        })
    }

    #[test]
    fn classifier_learns_something() {
        let ds = tiny_cls();
        let mut net = PointNet2Cls::new(ds.num_classes, 31);
        let before = eval_classifier(&mut net, &ds.test, &ApproxSetting::exact());
        let report = train_classifier(&mut net, &ds.train, &TrainConfig::exact(6));
        let after = eval_classifier(&mut net, &ds.test, &ApproxSetting::exact());
        assert!(loss_decreased(&report), "losses {:?}", report.epoch_losses);
        assert!(after >= before, "accuracy should not degrade: {before} -> {after}");
        assert!(after > 0.15, "better than chance, got {after}");
    }

    #[test]
    fn dedicated_training_uses_setting() {
        let ds = tiny_cls();
        let setting = ApproxSetting::ans_bce(3, 5);
        let mut net = PointNet2Cls::new(ds.num_classes, 32);
        let report = train_classifier(&mut net, &ds.train, &TrainConfig::dedicated(setting, 2));
        assert_eq!(report.epoch_losses.len(), 2);
        let acc = eval_classifier(&mut net, &ds.test, &setting);
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn segmenter_trains_and_evaluates() {
        let ds = SegmentationDataset::generate(&SegmentationConfig {
            points_per_cloud: 96,
            train_per_category: 3,
            test_per_category: 1,
            seed: 33,
        });
        let mut net = PointNet2Seg::new(ds.num_parts, 34);
        let report = train_segmenter(&mut net, &ds.train, &TrainConfig::exact(3));
        assert!(loss_decreased(&report));
        let miou = eval_segmenter(&mut net, &ds.test, &ApproxSetting::exact());
        assert!(miou > 0.1, "mIoU {miou}");
    }

    #[test]
    fn detector_trains_and_evaluates() {
        let ds = DetectionDataset::generate(&DetectionConfig {
            points_per_sample: 96,
            train_samples: 10,
            test_samples: 4,
            car_fraction: 0.45,
            seed: 35,
        });
        let mut net = FPointNetDet::new(36);
        let report = train_detector(&mut net, &ds.train, &TrainConfig::exact(4));
        assert!(loss_decreased(&report));
        let iou = eval_detector(&mut net, &ds.test, &ApproxSetting::exact());
        assert!(iou > 0.02, "IoU {iou}");
    }

    #[test]
    fn mixed_config_samples_range() {
        let cfg = TrainConfig::mixed((1, 5), Some((4, 8)), 1);
        let mut rng = StdRng::seed_from_u64(1);
        let s = cfg.sampler.sample(&mut rng);
        assert!((1..=5).contains(&s.top_height));
    }

    #[test]
    fn empty_eval_is_zero() {
        let mut net = PointNet2Cls::new(10, 37);
        assert_eq!(eval_classifier(&mut net, &[], &ApproxSetting::exact()), 0.0);
    }
}
