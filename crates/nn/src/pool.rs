//! Set-aggregation pooling.
//!
//! Point-cloud networks aggregate each point's neighborhood with a
//! symmetric function — max-pooling in PointNet++ and all four evaluation
//! networks. The pool is what makes the networks tolerant to the neighbor
//! replication / omission that Crescent's approximations introduce
//! (Sec 4.2): a replicated neighbor changes nothing under max, and a
//! missing neighbor only matters if it held the per-channel max.

use crate::tensor::Tensor;

/// Max-pool over fixed-size groups of rows.
///
/// Input `[n_groups * group_size, C]` → output `[n_groups, C]`; the argmax
/// row of every `(group, channel)` is cached for the backward pass.
///
/// # Examples
///
/// ```
/// use crescent_nn::{GroupMaxPool, Tensor};
///
/// let x = Tensor::from_rows(&[&[1.0, 5.0], &[3.0, 2.0], &[0.0, 0.0], &[-1.0, 4.0]]);
/// let mut pool = GroupMaxPool::new(2);
/// let y = pool.forward(&x);
/// assert_eq!(y.row(0), &[3.0, 5.0]);
/// assert_eq!(y.row(1), &[0.0, 4.0]);
/// ```
#[derive(Clone, Debug)]
pub struct GroupMaxPool {
    group_size: usize,
    argmax: Vec<usize>, // flat [group, channel] -> input row
    in_shape: (usize, usize),
}

impl GroupMaxPool {
    /// Creates a pool over groups of `group_size` consecutive rows.
    ///
    /// # Panics
    ///
    /// Panics if `group_size == 0`.
    pub fn new(group_size: usize) -> Self {
        assert!(group_size > 0, "group size must be positive");
        GroupMaxPool { group_size, argmax: Vec::new(), in_shape: (0, 0) }
    }

    /// The configured group size.
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// Forward pass.
    ///
    /// # Panics
    ///
    /// Panics if the row count is not a multiple of the group size.
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        let (n, c) = x.shape();
        assert_eq!(n % self.group_size, 0, "rows not divisible by group size");
        let groups = n / self.group_size;
        self.in_shape = (n, c);
        self.argmax.clear();
        let mut out = Tensor::full(groups, c, f32::NEG_INFINITY);
        for g in 0..groups {
            // a channel no row beats (all -inf or NaN) routes its gradient
            // to the group's first row
            let first = g * self.group_size;
            self.argmax.resize((g + 1) * c, first);
            let arg_row = &mut self.argmax[g * c..];
            let out_row = out.row_mut(g);
            for r in first..first + self.group_size {
                // strict `>`: the first row holding the maximum wins ties
                for ((o, a), &v) in out_row.iter_mut().zip(arg_row.iter_mut()).zip(x.row(r)) {
                    if v > *o {
                        *o = v;
                        *a = r;
                    }
                }
            }
        }
        out
    }

    /// Backward pass: routes each output gradient to its argmax input row.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward` or with a mismatched shape.
    pub fn backward(&mut self, grad: &Tensor) -> Tensor {
        let (n, c) = self.in_shape;
        assert!(n > 0, "backward before forward");
        let groups = n / self.group_size;
        assert_eq!(grad.shape(), (groups, c), "backward shape mismatch");
        let mut dx = Tensor::zeros(n, c);
        for g in 0..groups {
            for ch in 0..c {
                let r = self.argmax[g * c + ch];
                dx[(r, ch)] += grad[(g, ch)];
            }
        }
        dx
    }
}

/// Max-pools **all** rows into a single row (global feature), returning the
/// pooled row and the argmax per channel.
pub fn global_max_pool(x: &Tensor) -> (Tensor, Vec<usize>) {
    let (n, c) = x.shape();
    let mut out = Tensor::full(1, c, f32::NEG_INFINITY);
    let mut arg = vec![0usize; c];
    for r in 0..n {
        let row = x.row(r);
        for ch in 0..c {
            if row[ch] > out[(0, ch)] {
                out[(0, ch)] = row[ch];
                arg[ch] = r;
            }
        }
    }
    if n == 0 {
        out.zero_();
    }
    (out, arg)
}

/// Scatters a global-pool gradient back to the input rows (`[0, C]` for
/// an empty input, whose pooled zeros came from no row).
pub fn global_max_pool_backward(grad: &Tensor, argmax: &[usize], in_rows: usize) -> Tensor {
    let c = grad.cols();
    let mut dx = Tensor::zeros(in_rows, c);
    if in_rows == 0 {
        return dx;
    }
    for ch in 0..c {
        dx[(argmax[ch], ch)] += grad[(0, ch)];
    }
    dx
}

/// Mean-pool over fixed-size groups of rows (used by interpolation-style
/// feature propagation).
pub fn group_mean_pool(x: &Tensor, group_size: usize) -> Tensor {
    assert!(group_size > 0, "group size must be positive");
    let (n, c) = x.shape();
    assert_eq!(n % group_size, 0, "rows not divisible by group size");
    let groups = n / group_size;
    let mut out = Tensor::zeros(groups, c);
    for g in 0..groups {
        for r in g * group_size..(g + 1) * group_size {
            for (o, v) in out.row_mut(g).iter_mut().zip(x.row(r)) {
                *o += v;
            }
        }
        for o in out.row_mut(g) {
            *o /= group_size as f32;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::tensor::tests::{arb_entries, bits, from_pool};

    /// The original indexed `GroupMaxPool::forward`: pooled rows and the
    /// argmax table, the first strict maximum winning ties.
    fn reference_group_max(x: &Tensor, group_size: usize) -> (Tensor, Vec<usize>) {
        let (n, c) = x.shape();
        let groups = n / group_size;
        let mut argmax = vec![0; groups * c];
        let mut out = Tensor::full(groups, c, f32::NEG_INFINITY);
        for g in 0..groups {
            for r in g * group_size..(g + 1) * group_size {
                let row = x.row(r);
                for ch in 0..c {
                    if row[ch] > out[(g, ch)] {
                        out[(g, ch)] = row[ch];
                        argmax[g * c + ch] = r;
                    }
                }
            }
        }
        (out, argmax)
    }

    proptest! {
        /// The row-slice forward pools the same bits and picks the same
        /// argmax rows as the reference; the signed zeros in the inputs
        /// make ties common.
        #[test]
        fn group_max_matches_reference(
            (groups, k, c) in (0usize..5, 1usize..6, 0usize..7),
            pool in arb_entries(),
            offset in 0usize..64,
        ) {
            let x = from_pool(groups * k, c, &pool, offset);
            let mut gmp = GroupMaxPool::new(k);
            let out = gmp.forward(&x);
            let (want, argmax) = reference_group_max(&x, k);
            prop_assert_eq!(bits(out.data()), bits(want.data()));
            prop_assert_eq!(&gmp.argmax, &argmax);
        }
    }

    #[test]
    fn group_max_forward_backward() {
        let x = Tensor::from_rows(&[&[1.0, 5.0], &[3.0, 2.0], &[0.0, 0.0], &[-1.0, 4.0]]);
        let mut pool = GroupMaxPool::new(2);
        let y = pool.forward(&x);
        assert_eq!(y.shape(), (2, 2));
        let dx = pool.backward(&Tensor::from_rows(&[&[10.0, 20.0], &[30.0, 40.0]]));
        // grads land on argmax rows only
        assert_eq!(dx.row(0), &[0.0, 20.0]); // max of ch1 group0 at row0
        assert_eq!(dx.row(1), &[10.0, 0.0]); // max of ch0 group0 at row1
        assert_eq!(dx.row(2), &[30.0, 0.0]);
        assert_eq!(dx.row(3), &[0.0, 40.0]);
    }

    #[test]
    fn unbeaten_channel_routes_to_its_own_group() {
        // group 1's channel 0 is all -inf and its channel 1 all NaN: no
        // row beats the -inf seed, and the gradient stays in group 1
        let x = Tensor::from_rows(&[
            &[1.0, 2.0],
            &[3.0, 0.5],
            &[f32::NEG_INFINITY, f32::NAN],
            &[f32::NEG_INFINITY, f32::NAN],
        ]);
        let mut pool = GroupMaxPool::new(2);
        let y = pool.forward(&x);
        assert_eq!(y.row(0), &[3.0, 2.0]);
        assert_eq!(y.row(1), &[f32::NEG_INFINITY, f32::NEG_INFINITY]);
        let dx = pool.backward(&Tensor::from_rows(&[&[1.0, 2.0], &[10.0, 20.0]]));
        assert_eq!(dx.row(0), &[0.0, 2.0]);
        assert_eq!(dx.row(1), &[1.0, 0.0]);
        assert_eq!(dx.row(2), &[10.0, 20.0], "group 1's first row takes its gradient");
        assert_eq!(dx.row(3), &[0.0, 0.0]);
    }

    #[test]
    fn global_pool_of_no_rows() {
        let (y, arg) = global_max_pool(&Tensor::zeros(0, 3));
        assert_eq!(y.data(), &[0.0, 0.0, 0.0]);
        let dx = global_max_pool_backward(&Tensor::full(1, 3, 1.0), &arg, 0);
        assert_eq!(dx.shape(), (0, 3));
    }

    #[test]
    fn replicated_rows_do_not_change_max() {
        // the elision-tolerance property: duplicating a neighbor leaves the
        // pooled feature unchanged
        let x = Tensor::from_rows(&[&[1.0], &[3.0], &[2.0], &[2.0]]);
        let x_dup = Tensor::from_rows(&[&[3.0], &[3.0], &[2.0], &[2.0]]);
        let mut p1 = GroupMaxPool::new(4);
        let mut p2 = GroupMaxPool::new(4);
        assert_eq!(p1.forward(&x), p2.forward(&x_dup));
    }

    #[test]
    fn gradient_is_subgradient_of_max() {
        // finite-difference check on one element
        let mut pool = GroupMaxPool::new(3);
        let mut x = Tensor::from_rows(&[&[1.0], &[5.0], &[2.0]]);
        let y = pool.forward(&x);
        assert_eq!(y[(0, 0)], 5.0);
        let dx = pool.backward(&Tensor::full(1, 1, 1.0));
        let eps = 1e-3;
        for r in 0..3 {
            x[(r, 0)] += eps;
            let yp = pool.forward(&x)[(0, 0)];
            x[(r, 0)] -= eps;
            let numeric = (yp - 5.0) / eps;
            assert!((dx[(r, 0)] - numeric).abs() < 1e-3, "row {r}");
        }
    }

    #[test]
    fn global_pool_and_backward() {
        let x = Tensor::from_rows(&[&[1.0, -2.0], &[0.5, 7.0]]);
        let (y, arg) = global_max_pool(&x);
        assert_eq!(y.row(0), &[1.0, 7.0]);
        assert_eq!(arg, vec![0, 1]);
        let dx = global_max_pool_backward(&Tensor::from_rows(&[&[2.0, 3.0]]), &arg, 2);
        assert_eq!(dx.row(0), &[2.0, 0.0]);
        assert_eq!(dx.row(1), &[0.0, 3.0]);
    }

    #[test]
    fn mean_pool_averages() {
        let x = Tensor::from_rows(&[&[1.0], &[3.0], &[10.0], &[20.0]]);
        let y = group_mean_pool(&x, 2);
        assert_eq!(y.data(), &[2.0, 15.0]);
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn indivisible_rows_panic() {
        let mut p = GroupMaxPool::new(3);
        let _ = p.forward(&Tensor::zeros(4, 1));
    }

    #[test]
    #[should_panic(expected = "group size")]
    fn zero_group_panics() {
        let _ = GroupMaxPool::new(0);
    }
}
