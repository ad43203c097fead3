//! `train_mixed`: approximation-aware training (paper Sec 5).
//!
//! Two PointNet++(c) models train with `train_classifier` under
//! `TrainConfig::mixed` on the synthetic classification set, then are
//! evaluated under a few approximate settings. It is the only workload
//! where `nn` and `models` dominate, and it rebuilds a K-d tree per SA
//! layer, per sample, per epoch, so kdtree build cost shows here rather
//! than in the memoized sweep. Training is bit-deterministic.

use std::hint::black_box;
use std::time::Instant;

use crescent_kdtree::KdTree;
use crescent_models::{
    eval_classifier, neighbor_lists, train_classifier, ApproxSetting, Classifier, PointNet2Cls,
    TrainConfig,
};
use crescent_nn::{softmax_cross_entropy, Adam};
use crescent_pointcloud::datasets::{ClassificationConfig, ClassificationDataset};
use crescent_pointcloud::{farthest_point_sample, PointCloud};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::trace::Tracer;
use crate::{derive_seed, par_map, Checks, Pass};

const EPOCHS: usize = 4;

/// PointNet2Cls's two set-abstraction layers as (centroids, k, radius),
/// mirrored here so the search replay issues the same neighbor queries.
const SA_LAYERS: [(usize, usize, f32); 2] = [(64, 12, 0.25), (16, 8, 0.5)];

/// The settings the trained model is evaluated under.
fn eval_settings() -> [ApproxSetting; 3] {
    [ApproxSetting::exact(), ApproxSetting::ans(4), ApproxSetting::ans_bce(4, 7)]
}

/// One model of the workload: its initialisation seed and training config.
#[derive(Clone, Copy)]
pub struct Model {
    pub seed: u64,
    pub train: TrainConfig,
}

/// Everything the workload derives from the seed.
#[derive(Clone, Copy)]
pub struct Inputs {
    pub data: ClassificationConfig,
    /// Fig 20's two mixed models, trained side by side on the worker
    /// pool: `h_t` sampled alone, and `h_t` sampled with `h_e`.
    pub models: [Model; 2],
}

pub fn inputs(seed: u64) -> Inputs {
    let model = |name: &str, elision_height| Model {
        // the model offsets its seed per layer, so keep headroom
        seed: derive_seed(seed, &format!("train.{name}.model")) >> 8,
        train: TrainConfig {
            seed: derive_seed(seed, &format!("train.{name}.shuffle")),
            ..TrainConfig::mixed((1, 5), elision_height, EPOCHS)
        },
    };
    Inputs {
        data: ClassificationConfig {
            points_per_cloud: 128,
            train_per_class: 4,
            test_per_class: 2,
            jitter_sigma: 0.01,
            seed: derive_seed(seed, "train.data"),
        },
        models: [model("ans", None), model("ans_bce", Some((4, 8)))],
    }
}

/// The bits of every epoch loss and every evaluated accuracy of a model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trained {
    pub loss_bits: Vec<u32>,
    pub accuracy_bits: Vec<u32>,
}

pub type Output = Vec<Trained>;

fn train_and_eval(ds: &ClassificationDataset, m: &Model) -> Trained {
    let mut model = PointNet2Cls::new(ds.num_classes, m.seed);
    let report = train_classifier(&mut model, &ds.train, &m.train);
    Trained {
        loss_bits: report.epoch_losses.iter().map(|l| l.to_bits()).collect(),
        accuracy_bits: eval_settings()
            .iter()
            .map(|s| eval_classifier(&mut model, &ds.test, s).to_bits())
            .collect(),
    }
}

/// One pass: generate the dataset (set-up), then train and evaluate the
/// models on the worker pool.
pub fn pass(inputs: &Inputs, workers: usize, tracer: &Tracer) -> Pass<Output> {
    let start = Instant::now();
    let ds = tracer.span("pointcloud.dataset", || ClassificationDataset::generate(&inputs.data));
    let setup_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let output = par_map(&inputs.models, workers, |m| train_and_eval(&ds, m));
    Pass { setup_s, work_s: start.elapsed().as_secs_f64(), output }
}

pub fn check(out: &Output, checks: &mut Checks) {
    for trained in out {
        let losses: Vec<f32> = trained.loss_bits.iter().map(|&b| f32::from_bits(b)).collect();
        checks.check("train: one finite loss per epoch", {
            losses.len() == EPOCHS && losses.iter().all(|l| l.is_finite())
        });
        checks.check("train: loss decreases", losses.first() > losses.last());
        checks.check(
            "train: accuracies are fractions",
            trained.accuracy_bits.iter().all(|&b| (0.0..=1.0).contains(&f32::from_bits(b))),
        );
    }
}

/// The traced replay of `train_classifier`'s loop for every model, with a
/// span per call into `models` and `nn`; its loss bits must equal the
/// pass's. The neighbor search and the K-d tree builds the forward
/// passes made are then replayed on the same clouds and settings.
pub fn replay(
    inputs: &Inputs,
    reference: &Output,
    tracer: &Tracer,
    checks: &mut Checks,
) -> Vec<(&'static str, f64)> {
    let ds = tracer.span("pointcloud.dataset", || ClassificationDataset::generate(&inputs.data));
    let mut seen: Vec<(usize, ApproxSetting)> = Vec::new();
    for (m, trained) in inputs.models.iter().zip(reference) {
        let mut model = PointNet2Cls::new(ds.num_classes, m.seed);
        let cfg = &m.train;
        let mut opt = Adam::new(cfg.lr);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut loss_bits = Vec::new();
        for _ in 0..cfg.epochs {
            let mut epoch_loss = 0.0;
            for i in shuffled_indices(ds.train.len(), &mut rng) {
                let sample = &ds.train[i];
                let setting = cfg.sampler.sample(&mut rng);
                seen.push((i, setting));
                let logits =
                    tracer.span("models.forward", || model.forward(&sample.cloud, &setting, true));
                let (loss, grad) = softmax_cross_entropy(&logits, &[sample.label]);
                epoch_loss += loss;
                model.zero_grad();
                tracer.span("models.backward", || model.backward(&grad));
                tracer.span("nn.optim", || {
                    opt.begin_step();
                    model.visit_params(&mut |p| opt.update(p));
                });
            }
            loss_bits.push((epoch_loss / ds.train.len().max(1) as f32).to_bits());
        }
        checks
            .check("train: replayed loop reproduces the loss bits", loss_bits == trained.loss_bits);
    }

    for &(i, setting) in &seen {
        let cloud = &ds.train[i].cloud;
        let mut points: PointCloud = cloud.clone();
        for &(centroids, k, radius) in &SA_LAYERS {
            let idx = farthest_point_sample(&points, centroids);
            black_box(
                tracer.span("models.search", || neighbor_lists(&points, &idx, radius, k, &setting)),
            );
            black_box(tracer.span("kdtree.build", || KdTree::build(&points)));
            points = idx.iter().map(|&j| points.point(j)).collect();
        }
    }
    vec![
        ("pointcloud.dataset_s", tracer.seconds("pointcloud.dataset")),
        ("models.forward_s", tracer.seconds("models.forward")),
        ("models.backward_s", tracer.seconds("models.backward")),
        ("nn.optim_s", tracer.seconds("nn.optim")),
        ("models.search_s", tracer.seconds("models.search")),
        ("kdtree.build_s", tracer.seconds("kdtree.build")),
        ("kdtree.build_calls", tracer.calls("kdtree.build") as f64),
        ("models.samples", seen.len() as f64),
    ]
}

/// The shuffle `train_classifier` draws from its seeded RNG each epoch.
fn shuffled_indices(n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.random_range(0..=i);
        idx.swap(i, j);
    }
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64) -> Inputs {
        let mut i = inputs(seed);
        i.data.points_per_cloud = 96;
        i.data.train_per_class = 1;
        i.data.test_per_class = 1;
        i
    }

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let gen = |seed| ClassificationDataset::generate(&small(seed).data);
        let clouds = |ds: &ClassificationDataset| -> Vec<Vec<f32>> {
            ds.train
                .iter()
                .map(|s| (0..s.cloud.len()).flat_map(|i| s.cloud.point(i).to_array()).collect())
                .collect()
        };
        assert_eq!(clouds(&gen(4)), clouds(&gen(4)));
        assert_ne!(clouds(&gen(4)), clouds(&gen(5)));
        let shuffle = |seed| inputs(seed).models.map(|m| (m.seed, m.train.seed));
        assert_eq!(shuffle(4), shuffle(4));
        assert_ne!(shuffle(4), shuffle(5));
    }

    #[test]
    fn the_replayed_loop_reproduces_the_loss_bits() {
        let i = small(3);
        let reference = pass(&i, 2, &Tracer::off()).output;
        assert_eq!(reference, pass(&i, 1, &Tracer::off()).output, "training is bit-deterministic");
        let mut checks = Checks::default();
        let metrics = replay(&i, &reference, &Tracer::new(true), &mut checks);
        assert_eq!(checks.failed, 0);
        let get = |n: &str| metrics.iter().find(|(m, _)| *m == n).expect("reported").1;
        assert_eq!(get("models.samples"), (2 * EPOCHS * 10) as f64);
        assert_eq!(get("kdtree.build_calls"), (2 * EPOCHS * 10 * SA_LAYERS.len()) as f64);
    }
}
