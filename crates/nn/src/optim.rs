//! Parameters and the Adam optimizer.

use crate::tensor::Tensor;

/// A trainable parameter: value, gradient accumulator, and Adam moments.
#[derive(Clone, Debug)]
pub struct Param {
    /// Current value.
    pub value: Tensor,
    /// Gradient accumulated by the backward pass.
    pub grad: Tensor,
    m: Tensor,
    v: Tensor,
}

impl Param {
    /// Wraps a tensor as a parameter with zeroed gradient and moments.
    pub fn new(value: Tensor) -> Self {
        let (r, c) = value.shape();
        Param { value, grad: Tensor::zeros(r, c), m: Tensor::zeros(r, c), v: Tensor::zeros(r, c) }
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&mut self) {
        self.grad.zero_();
    }
}

/// Adam hyper-parameters and step counter.
///
/// # Examples
///
/// ```
/// use crescent_nn::{Adam, Param, Tensor};
///
/// let mut p = Param::new(Tensor::full(1, 1, 1.0));
/// let mut opt = Adam::new(0.1);
/// for _ in 0..100 {
///     // gradient of f(x) = x^2 is 2x: drive x toward 0
///     p.grad = p.value.scale(2.0);
///     opt.begin_step();
///     opt.update(&mut p);
///     p.zero_grad();
/// }
/// assert!(p.value[(0, 0)].abs() < 0.05);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    /// Decoupled weight decay (AdamW style); 0 disables.
    pub weight_decay: f32,
    t: u64,
}

impl Adam {
    /// Creates an optimizer with standard betas.
    pub fn new(lr: f32) -> Self {
        Adam { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, weight_decay: 0.0, t: 0 }
    }

    /// Advances the step counter; call once per optimization step, before
    /// updating parameters.
    pub fn begin_step(&mut self) {
        self.t += 1;
    }

    /// The number of completed [`Adam::begin_step`] calls.
    pub fn step_count(&self) -> u64 {
        self.t
    }

    /// Applies one Adam update to `p` using its accumulated gradient.
    ///
    /// # Panics
    ///
    /// Panics if called before any [`Adam::begin_step`].
    pub fn update(&self, p: &mut Param) {
        assert!(self.t > 0, "call begin_step before update");
        let b1 = self.beta1;
        let b2 = self.beta2;
        let bc1 = 1.0 - b1.powi(self.t as i32);
        let bc2 = 1.0 - b2.powi(self.t as i32);
        for i in 0..p.value.len() {
            let g = p.grad.data()[i] + self.weight_decay * p.value.data()[i];
            let m = b1 * p.m.data()[i] + (1.0 - b1) * g;
            let v = b2 * p.v.data()[i] + (1.0 - b2) * g * g;
            p.m.data_mut()[i] = m;
            p.v.data_mut()[i] = v;
            let m_hat = m / bc1;
            let v_hat = v / bc2;
            p.value.data_mut()[i] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
        }
    }
}

/// Plain SGD with optional momentum, for the ablation comparisons.
#[derive(Clone, Copy, Debug)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
    /// Momentum factor (0 = vanilla SGD).
    pub momentum: f32,
}

impl Sgd {
    /// Creates a vanilla SGD optimizer.
    pub fn new(lr: f32) -> Self {
        Sgd { lr, momentum: 0.0 }
    }

    /// Applies one update (momentum is stored in the parameter's `m`
    /// buffer).
    pub fn update(&self, p: &mut Param) {
        for i in 0..p.value.len() {
            let g = p.grad.data()[i];
            let m = self.momentum * p.m.data()[i] + g;
            p.m.data_mut()[i] = m;
            p.value.data_mut()[i] -= self.lr * m;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_descent<F: Fn(&mut Param)>(step: F, iters: usize) -> f32 {
        let mut p = Param::new(Tensor::full(1, 1, 3.0));
        for _ in 0..iters {
            p.grad = p.value.scale(2.0);
            step(&mut p);
            p.zero_grad();
        }
        p.value[(0, 0)].abs()
    }

    #[test]
    fn adam_minimizes_quadratic() {
        let mut opt = Adam::new(0.2);
        let mut p = Param::new(Tensor::full(1, 1, 3.0));
        for _ in 0..200 {
            p.grad = p.value.scale(2.0);
            opt.begin_step();
            opt.update(&mut p);
            p.zero_grad();
        }
        assert!(p.value[(0, 0)].abs() < 0.05);
        assert_eq!(opt.step_count(), 200);
    }

    #[test]
    fn sgd_minimizes_quadratic() {
        let opt = Sgd::new(0.1);
        let end = quadratic_descent(|p| opt.update(p), 100);
        assert!(end < 0.01);
    }

    #[test]
    fn sgd_momentum_converges() {
        let opt = Sgd { lr: 0.05, momentum: 0.9 };
        let end = quadratic_descent(|p| opt.update(p), 200);
        assert!(end < 0.05);
    }

    #[test]
    fn weight_decay_shrinks_params() {
        let mut opt = Adam::new(0.01);
        opt.weight_decay = 1.0;
        let mut p = Param::new(Tensor::full(1, 1, 1.0));
        for _ in 0..50 {
            // zero task gradient: only decay acts
            opt.begin_step();
            opt.update(&mut p);
        }
        assert!(p.value[(0, 0)] < 1.0);
    }

    #[test]
    #[should_panic(expected = "begin_step")]
    fn update_before_step_panics() {
        let opt = Adam::new(0.1);
        let mut p = Param::new(Tensor::zeros(1, 1));
        opt.update(&mut p);
    }

    #[test]
    fn zero_grad_clears() {
        let mut p = Param::new(Tensor::zeros(2, 2));
        p.grad = Tensor::full(2, 2, 5.0);
        p.zero_grad();
        assert_eq!(p.grad.sq_norm(), 0.0);
    }
}
