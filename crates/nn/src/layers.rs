//! Neural-network layers with explicit forward/backward passes.
//!
//! The layers cache whatever the backward pass needs; call order must be
//! forward-then-backward, batch by batch. The [`Layer`] trait makes the
//! composition ([`Sequential`], [`Mlp`]) uniform, including parameter
//! traversal for the optimizer.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::optim::Param;
use crate::tensor::Tensor;

/// A differentiable layer.
pub trait Layer {
    /// Forward pass. `train` toggles training-time behaviour (batch-norm
    /// statistics, dropout).
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor;

    /// Backward pass: consumes dL/d(output), returns dL/d(input), and
    /// accumulates parameter gradients.
    fn backward(&mut self, grad: &Tensor) -> Tensor;

    /// Backward pass for a layer whose input gradient nobody reads: it
    /// accumulates the same parameter gradients as [`Layer::backward`],
    /// bit for bit, and may skip computing dL/d(input).
    fn backward_params(&mut self, grad: &Tensor) {
        let _ = self.backward(grad);
    }

    /// Visits every trainable parameter (for the optimizer).
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param));

    /// Zeroes all parameter gradients.
    fn zero_grad(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }
}

/// Fully-connected layer: `y = x W + b`.
#[derive(Clone, Debug)]
pub struct Linear {
    /// Weight `[in, out]`.
    pub w: Param,
    /// Bias `[1, out]`.
    pub b: Param,
    cache_x: Option<Tensor>,
}

impl Linear {
    /// He-initialized linear layer (deterministic per seed).
    pub fn new(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        Linear {
            w: Param::new(Tensor::he_init(in_dim, out_dim, seed)),
            b: Param::new(Tensor::zeros(1, out_dim)),
            cache_x: None,
        }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.w.value.rows()
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.w.value.cols()
    }
}

impl Layer for Linear {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        let mut y = x.matmul(&self.w.value);
        y.add_row_assign(self.b.value.row(0));
        self.cache_x = Some(x.clone());
        y
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        self.backward_params(grad);
        grad.matmul_t(&self.w.value)
    }

    /// Accumulates `dW = xᵀ·grad` and `db`, and skips `grad·Wᵀ`.
    fn backward_params(&mut self, grad: &Tensor) {
        let x = self.cache_x.as_ref().expect("backward before forward");
        self.w.grad.add_assign(&x.t_matmul(grad));
        // bias grad: column sums of grad
        let mut bg = Tensor::zeros(1, grad.cols());
        for r in 0..grad.rows() {
            for (acc, g) in bg.row_mut(0).iter_mut().zip(grad.row(r)) {
                *acc += g;
            }
        }
        self.b.grad.add_assign(&bg);
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.w);
        f(&mut self.b);
    }
}

/// Rectified linear unit.
#[derive(Clone, Debug, Default)]
pub struct Relu {
    mask: Vec<bool>,
    shape: (usize, usize),
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu::default()
    }
}

impl Layer for Relu {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        self.mask = x.data().iter().map(|&v| v > 0.0).collect();
        self.shape = x.shape();
        x.map(|v| v.max(0.0))
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        assert_eq!(grad.shape(), self.shape, "backward shape mismatch");
        let data =
            grad.data().iter().zip(&self.mask).map(|(&g, &m)| if m { g } else { 0.0 }).collect();
        Tensor::from_vec(grad.rows(), grad.cols(), data)
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}
}

/// Batch normalization over rows (per-column statistics), with running
/// statistics for inference — the BN of the paper's MLP blocks.
#[derive(Clone, Debug)]
pub struct BatchNorm1d {
    /// Scale `[1, dim]`.
    pub gamma: Param,
    /// Shift `[1, dim]`.
    pub beta: Param,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    momentum: f32,
    eps: f32,
    // caches
    x_hat: Option<Tensor>,
    batch_std: Vec<f32>,
}

impl BatchNorm1d {
    /// Creates a BN layer over `dim` channels.
    pub fn new(dim: usize) -> Self {
        BatchNorm1d {
            gamma: Param::new(Tensor::full(1, dim, 1.0)),
            beta: Param::new(Tensor::zeros(1, dim)),
            running_mean: vec![0.0; dim],
            running_var: vec![1.0; dim],
            momentum: 0.1,
            eps: 1e-5,
            x_hat: None,
            batch_std: vec![0.0; dim],
        }
    }
}

impl Layer for BatchNorm1d {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let (n, d) = x.shape();
        assert_eq!(d, self.running_mean.len(), "BN width mismatch");
        // Batch statistics are used whenever the batch has more than one
        // row — also at inference. Every forward pass here normalizes over
        // the points of one cloud (hundreds of rows), so batch statistics
        // are well-defined and transfer better than running stats across
        // the heterogeneous clouds of the small synthetic datasets
        // (instance-normalization style). Running stats remain as the
        // single-row fallback.
        //
        // Each column's sums run over the rows in order; walking whole
        // row slices keeps that order and lets the columns vectorize.
        let (mean, var) = if n > 1 {
            let mut mean = vec![0.0f32; d];
            let mut var = vec![0.0f32; d];
            for r in 0..n {
                for (m, v) in mean.iter_mut().zip(x.row(r)) {
                    *m += v;
                }
            }
            for m in &mut mean {
                *m /= n as f32;
            }
            for r in 0..n {
                for ((v, xv), m) in var.iter_mut().zip(x.row(r)).zip(&mean) {
                    let dlt = xv - m;
                    *v += dlt * dlt;
                }
            }
            for v in &mut var {
                *v /= n as f32;
            }
            if train {
                for c in 0..d {
                    self.running_mean[c] =
                        (1.0 - self.momentum) * self.running_mean[c] + self.momentum * mean[c];
                    self.running_var[c] =
                        (1.0 - self.momentum) * self.running_var[c] + self.momentum * var[c];
                }
            }
            (mean, var)
        } else {
            (self.running_mean.clone(), self.running_var.clone())
        };
        for (std, v) in self.batch_std.iter_mut().zip(&var).take(d) {
            *std = (v + self.eps).sqrt();
        }
        let gamma = self.gamma.value.row(0);
        let beta = self.beta.value.row(0);
        let mut x_hat = Tensor::zeros(n, d);
        let mut out = Tensor::zeros(n, d);
        for r in 0..n {
            let cols = x.row(r).iter().zip(&mean).zip(&self.batch_std).zip(gamma).zip(beta);
            for ((h_out, y), ((((xv, m), std), g), b)) in
                x_hat.row_mut(r).iter_mut().zip(out.row_mut(r)).zip(cols)
            {
                let h = (xv - m) / std;
                *h_out = h;
                *y = g * h + b;
            }
        }
        self.x_hat = Some(x_hat);
        out
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let x_hat = self.x_hat.as_ref().expect("backward before forward");
        assert_eq!(grad.shape(), x_hat.shape(), "backward shape mismatch");
        let (n, d) = grad.shape();
        let nf = n as f32;
        let mut dgamma = Tensor::zeros(1, d);
        let mut dbeta = Tensor::zeros(1, d);
        for r in 0..n {
            let sums = dgamma.row_mut(0).iter_mut().zip(dbeta.row_mut(0));
            for ((dg, db), (gv, h)) in sums.zip(grad.row(r).iter().zip(x_hat.row(r))) {
                *dg += gv * h;
                *db += gv;
            }
        }
        // standard BN input gradient,
        //   dx = g / std * (dy - sum_dy / nf - x_hat * sum_dy_xhat / nf),
        // with the per-column factors hoisted; `x_hat * sum_dy_xhat / nf`
        // stays per element, since `(x_hat * s) / nf` is not
        // `x_hat * (s / nf)`.
        let scale: Vec<f32> =
            self.gamma.value.row(0).iter().zip(&self.batch_std).map(|(g, std)| g / std).collect();
        let mean_dy: Vec<f32> = dbeta.row(0).iter().map(|s| s / nf).collect();
        let sum_dy_xhat = dgamma.row(0);
        let mut dx = Tensor::zeros(n, d);
        for r in 0..n {
            let cols = scale.iter().zip(&mean_dy).zip(sum_dy_xhat);
            let rows = dx.row_mut(r).iter_mut().zip(grad.row(r)).zip(x_hat.row(r));
            for (((dxv, gv), h), ((sc, mdy), s)) in rows.zip(cols) {
                *dxv = sc * (gv - mdy - h * s / nf);
            }
        }
        self.gamma.grad.add_assign(&dgamma);
        self.beta.grad.add_assign(&dbeta);
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }
}

/// Inverted dropout (identity at inference).
#[derive(Debug)]
pub struct Dropout {
    /// Drop probability.
    pub p: f32,
    rng: StdRng,
    mask: Vec<f32>,
    shape: (usize, usize),
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p` (deterministic per
    /// seed).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p < 1.0`.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&p), "dropout probability out of range");
        Dropout { p, rng: StdRng::seed_from_u64(seed), mask: Vec::new(), shape: (0, 0) }
    }
}

impl Layer for Dropout {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        self.shape = x.shape();
        if !train || self.p == 0.0 {
            self.mask = vec![1.0; x.len()];
            return x.clone();
        }
        let keep = 1.0 - self.p;
        self.mask = (0..x.len())
            .map(|_| if self.rng.random::<f32>() < keep { 1.0 / keep } else { 0.0 })
            .collect();
        let data = x.data().iter().zip(&self.mask).map(|(v, m)| v * m).collect();
        Tensor::from_vec(x.rows(), x.cols(), data)
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        assert_eq!(grad.shape(), self.shape, "backward shape mismatch");
        let data = grad.data().iter().zip(&self.mask).map(|(g, m)| g * m).collect();
        Tensor::from_vec(grad.rows(), grad.cols(), data)
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}
}

/// A stack of layers applied in order.
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Sequential({} layers)", self.layers.len())
    }
}

impl Sequential {
    /// Creates an empty stack.
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the stack is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

impl Layer for Sequential {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let mut cur = x.clone();
        for l in &mut self.layers {
            cur = l.forward(&cur, train);
        }
        cur
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let mut cur = grad.clone();
        for l in self.layers.iter_mut().rev() {
            cur = l.backward(&cur);
        }
        cur
    }

    /// Full backward through every layer but the first, whose input
    /// gradient would be the stack's own.
    fn backward_params(&mut self, grad: &Tensor) {
        let Some((first, rest)) = self.layers.split_first_mut() else { return };
        let mut cur = grad.clone();
        for l in rest.iter_mut().rev() {
            cur = l.backward(&cur);
        }
        first.backward_params(&cur);
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for l in &mut self.layers {
            l.visit_params(f);
        }
    }
}

/// A shared MLP block: `Linear → [BN] → ReLU` per hidden layer, with a final
/// `Linear` (no activation) — the transformation applied to every
/// aggregated neighborhood in point-cloud networks (Sec 2.1).
#[derive(Debug)]
pub struct Mlp {
    seq: Sequential,
    out_dim: usize,
}

impl Mlp {
    /// Builds an MLP with the given layer widths, e.g. `[64, 128, 128]`
    /// maps 64-dim inputs to 128-dim outputs through one hidden layer.
    ///
    /// `batch_norm` inserts a BN after every hidden linear layer.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two widths are given.
    pub fn new(dims: &[usize], batch_norm: bool, seed: u64) -> Self {
        assert!(dims.len() >= 2, "an MLP needs input and output widths");
        let mut seq = Sequential::new();
        for (i, pair) in dims.windows(2).enumerate() {
            let last = i == dims.len() - 2;
            seq.push(Box::new(Linear::new(pair[0], pair[1], seed.wrapping_add(i as u64 * 7919))));
            if !last {
                if batch_norm {
                    seq.push(Box::new(BatchNorm1d::new(pair[1])));
                }
                seq.push(Box::new(Relu::new()));
            }
        }
        Mlp { seq, out_dim: *dims.last().expect("non-empty dims") }
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }
}

impl Layer for Mlp {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        self.seq.forward(x, train)
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        self.seq.backward(grad)
    }

    fn backward_params(&mut self, grad: &Tensor) {
        self.seq.backward_params(grad);
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.seq.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::loss::softmax_cross_entropy;
    use crate::tensor::tests::{arb_entries, bits, from_pool};

    /// The original column-walking BatchNorm forward — the reference the
    /// row-major kernel must reproduce bit for bit.
    fn reference_bn_forward(bn: &mut BatchNorm1d, x: &Tensor, train: bool) -> Tensor {
        let (n, d) = x.shape();
        let (mean, var) = if n > 1 {
            let mut mean = vec![0.0f32; d];
            let mut var = vec![0.0f32; d];
            for r in 0..n {
                for (m, v) in mean.iter_mut().zip(x.row(r)) {
                    *m += v;
                }
            }
            for m in &mut mean {
                *m /= n as f32;
            }
            for r in 0..n {
                for c in 0..d {
                    let dlt = x[(r, c)] - mean[c];
                    var[c] += dlt * dlt;
                }
            }
            for v in &mut var {
                *v /= n as f32;
            }
            if train {
                for c in 0..d {
                    bn.running_mean[c] =
                        (1.0 - bn.momentum) * bn.running_mean[c] + bn.momentum * mean[c];
                    bn.running_var[c] =
                        (1.0 - bn.momentum) * bn.running_var[c] + bn.momentum * var[c];
                }
            }
            (mean, var)
        } else {
            (bn.running_mean.clone(), bn.running_var.clone())
        };
        let mut x_hat = Tensor::zeros(n, d);
        for (std, v) in bn.batch_std.iter_mut().zip(&var).take(d) {
            *std = (v + bn.eps).sqrt();
        }
        let mut out = Tensor::zeros(n, d);
        for r in 0..n {
            for c in 0..d {
                let h = (x[(r, c)] - mean[c]) / bn.batch_std[c];
                x_hat[(r, c)] = h;
                out[(r, c)] = bn.gamma.value[(0, c)] * h + bn.beta.value[(0, c)];
            }
        }
        bn.x_hat = Some(x_hat);
        out
    }

    /// The original column-walking BatchNorm backward.
    fn reference_bn_backward(bn: &mut BatchNorm1d, grad: &Tensor) -> Tensor {
        let x_hat = bn.x_hat.as_ref().expect("backward before forward");
        let (n, d) = grad.shape();
        let nf = n as f32;
        let mut dgamma = Tensor::zeros(1, d);
        let mut dbeta = Tensor::zeros(1, d);
        for r in 0..n {
            for c in 0..d {
                dgamma[(0, c)] += grad[(r, c)] * x_hat[(r, c)];
                dbeta[(0, c)] += grad[(r, c)];
            }
        }
        let mut dx = Tensor::zeros(n, d);
        for c in 0..d {
            let g = bn.gamma.value[(0, c)];
            let sum_dy = dbeta[(0, c)];
            let sum_dy_xhat = dgamma[(0, c)];
            for r in 0..n {
                dx[(r, c)] = g / bn.batch_std[c]
                    * (grad[(r, c)] - sum_dy / nf - x_hat[(r, c)] * sum_dy_xhat / nf);
            }
        }
        bn.gamma.grad.add_assign(&dgamma);
        bn.beta.grad.add_assign(&dbeta);
        dx
    }

    /// Every float a BatchNorm layer holds, as bits.
    fn bn_state_bits(bn: &BatchNorm1d) -> Vec<Vec<u32>> {
        vec![
            bits(&bn.running_mean),
            bits(&bn.running_var),
            bits(&bn.batch_std),
            bits(bn.x_hat.as_ref().map_or(&[][..], |t| t.data())),
            bits(bn.gamma.grad.data()),
            bits(bn.beta.grad.data()),
        ]
    }

    proptest! {
        /// BatchNorm forward and backward are bit-identical to the
        /// column-walking reference: a training step on a warm-up batch
        /// (which moves the running statistics), then a step on a batch
        /// of `n` rows — `n = 1` takes the running-stats path.
        #[test]
        fn batchnorm_matches_reference_bits(
            (n, d) in (1usize..9, 1usize..7),
            pool in arb_entries(),
            offset in 0usize..64,
            train in 0u8..2,
        ) {
            let mut bn = BatchNorm1d::new(d);
            bn.gamma.value = from_pool(1, d, &pool, offset + 5);
            bn.beta.value = from_pool(1, d, &pool, offset + 11);
            let mut reference = bn.clone();
            let warm = from_pool(3, d, &pool, offset + 23);
            let x = from_pool(n, d, &pool, offset);
            let grad = from_pool(n, d, &pool, offset + 31);

            let warm_out = bn.forward(&warm, true);
            let want = reference_bn_forward(&mut reference, &warm, true);
            prop_assert_eq!(bits(warm_out.data()), bits(want.data()));
            let out = bn.forward(&x, train == 1);
            let want = reference_bn_forward(&mut reference, &x, train == 1);
            prop_assert_eq!(bits(out.data()), bits(want.data()));
            let dx = bn.backward(&grad);
            let want = reference_bn_backward(&mut reference, &grad);
            prop_assert_eq!(bits(dx.data()), bits(want.data()));
            prop_assert_eq!(bn_state_bits(&bn), bn_state_bits(&reference));
        }
    }

    /// Every parameter gradient of `layer`, as bits.
    fn grad_bits(layer: &mut dyn Layer) -> Vec<Vec<u32>> {
        let mut out = Vec::new();
        layer.visit_params(&mut |p| out.push(bits(p.grad.data())));
        out
    }

    /// The params-only backward accumulates the same gradient bits as the
    /// full one, for an MLP with and without batch norm, over two steps
    /// (so accumulation onto non-zero gradients is covered too).
    #[test]
    fn backward_params_matches_full_backward() {
        for batch_norm in [false, true] {
            let mut full = Mlp::new(&[3, 8, 5], batch_norm, 21);
            let mut params_only = Mlp::new(&[3, 8, 5], batch_norm, 21);
            for step in 0..2 {
                let x = Tensor::he_init(12, 3, 22 + step);
                let grad = Tensor::he_init(12, 5, 24 + step).map(|v| v.max(0.0));
                let y = full.forward(&x, true);
                assert_eq!(bits(y.data()), bits(params_only.forward(&x, true).data()));
                assert_eq!(full.backward(&grad).shape(), (12, 3));
                params_only.backward_params(&grad);
                assert_eq!(grad_bits(&mut full), grad_bits(&mut params_only), "bn {batch_norm}");
            }
        }
    }

    #[test]
    fn linear_forward_shape_and_bias() {
        let mut l = Linear::new(3, 2, 1);
        l.b.value = Tensor::from_rows(&[&[1.0, -1.0]]);
        let x = Tensor::zeros(4, 3);
        let y = l.forward(&x, true);
        assert_eq!(y.shape(), (4, 2));
        assert_eq!(y.row(0), &[1.0, -1.0]); // zero input -> bias
        assert_eq!(l.in_dim(), 3);
        assert_eq!(l.out_dim(), 2);
    }

    #[test]
    fn relu_masks_gradient() {
        let mut r = Relu::new();
        let x = Tensor::from_rows(&[&[-1.0, 2.0]]);
        let y = r.forward(&x, true);
        assert_eq!(y.data(), &[0.0, 2.0]);
        let gx = r.backward(&Tensor::from_rows(&[&[5.0, 5.0]]));
        assert_eq!(gx.data(), &[0.0, 5.0]);
    }

    #[test]
    fn batchnorm_normalizes_in_train() {
        let mut bn = BatchNorm1d::new(2);
        let x = Tensor::from_rows(&[&[1.0, 10.0], &[3.0, 30.0], &[5.0, 50.0], &[7.0, 70.0]]);
        let y = bn.forward(&x, true);
        // per-column mean ~0, var ~1
        for c in 0..2 {
            let mean: f32 = (0..4).map(|r| y[(r, c)]).sum::<f32>() / 4.0;
            let var: f32 = (0..4).map(|r| (y[(r, c)] - mean).powi(2)).sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-5);
            assert!((var - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn batchnorm_eval_uses_running_stats() {
        let mut bn = BatchNorm1d::new(1);
        // feed several batches to accumulate running stats
        for _ in 0..50 {
            let x = Tensor::from_rows(&[&[4.0], &[6.0]]);
            bn.forward(&x, true);
        }
        // eval on the mean input should give ~0 output
        let y = bn.forward(&Tensor::from_rows(&[&[5.0]]), false);
        assert!(y[(0, 0)].abs() < 0.2, "got {}", y[(0, 0)]);
    }

    #[test]
    fn dropout_train_vs_eval() {
        let mut d = Dropout::new(0.5, 3);
        let x = Tensor::full(10, 10, 1.0);
        let y_eval = d.forward(&x, false);
        assert_eq!(y_eval, x);
        let y_train = d.forward(&x, true);
        let zeros = y_train.data().iter().filter(|&&v| v == 0.0).count();
        assert!(zeros > 20 && zeros < 80, "{zeros} zeroed");
        // kept values are scaled by 1/keep
        assert!(y_train.data().iter().all(|&v| v == 0.0 || (v - 2.0).abs() < 1e-6));
    }

    #[test]
    fn mlp_shapes() {
        let mut mlp = Mlp::new(&[8, 16, 4], true, 5);
        let x = Tensor::he_init(10, 8, 6);
        let y = mlp.forward(&x, true);
        assert_eq!(y.shape(), (10, 4));
        let gx = mlp.backward(&Tensor::full(10, 4, 1.0));
        assert_eq!(gx.shape(), (10, 8));
        let mut count = 0;
        mlp.visit_params(&mut |_| count += 1);
        // 2 linears (w+b each) + 1 BN (gamma+beta)
        assert_eq!(count, 6);
    }

    /// Finite-difference gradient check of a small MLP + cross-entropy.
    #[test]
    fn gradient_check_mlp() {
        let mut mlp = Mlp::new(&[4, 6, 3], false, 11);
        let x = Tensor::he_init(5, 4, 12);
        let labels = vec![0usize, 1, 2, 1, 0];

        // analytic gradients
        let logits = mlp.forward(&x, true);
        let (_, dlogits) = softmax_cross_entropy(&logits, &labels);
        mlp.zero_grad();
        mlp.backward(&dlogits);
        let mut analytic: Vec<f32> = Vec::new();
        mlp.visit_params(&mut |p| analytic.extend_from_slice(p.grad.data()));

        // numeric gradients
        let eps = 1e-2f32;
        let mut numeric: Vec<f32> = Vec::new();
        // parameter count
        let mut nparams = 0;
        mlp.visit_params(&mut |p| nparams += p.value.len());
        for flat in 0..nparams {
            let loss_at = |delta: f32, mlp: &mut Mlp| {
                // perturb the flat-th parameter
                let mut seen = 0;
                mlp.visit_params(&mut |p| {
                    let l = p.value.len();
                    if flat >= seen && flat < seen + l {
                        p.value.data_mut()[flat - seen] += delta;
                    }
                    seen += l;
                });
                let logits = mlp.forward(&x, true);
                let (loss, _) = softmax_cross_entropy(&logits, &labels);
                // undo
                let mut seen = 0;
                mlp.visit_params(&mut |p| {
                    let l = p.value.len();
                    if flat >= seen && flat < seen + l {
                        p.value.data_mut()[flat - seen] -= delta;
                    }
                    seen += l;
                });
                loss
            };
            let lp = loss_at(eps, &mut mlp);
            let lm = loss_at(-eps, &mut mlp);
            numeric.push((lp - lm) / (2.0 * eps));
        }

        assert_eq!(analytic.len(), numeric.len());
        for (i, (a, n)) in analytic.iter().zip(&numeric).enumerate() {
            let denom = a.abs().max(n.abs()).max(1e-2);
            assert!(((a - n) / denom).abs() < 0.1, "param {i}: analytic {a} vs numeric {n}");
        }
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn linear_backward_requires_forward() {
        let mut l = Linear::new(2, 2, 1);
        let _ = l.backward(&Tensor::zeros(1, 2));
    }

    #[test]
    fn sequential_empty_is_identity() {
        let mut s = Sequential::new();
        assert!(s.is_empty());
        let x = Tensor::he_init(2, 3, 9);
        assert_eq!(s.forward(&x, true), x);
        assert_eq!(s.backward(&x), x);
    }
}
