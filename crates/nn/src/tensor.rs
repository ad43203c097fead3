//! Dense 2D `f32` tensor.
//!
//! Everything the point-cloud networks need is expressible with row-major
//! 2D tensors: a batch of point features is `[n_points, channels]`, an MLP
//! weight is `[in, out]`, grouped neighbor features are
//! `[n_groups * k, channels]`. The type is deliberately small and explicit
//! — no broadcasting rules beyond row-vector bias addition — so the
//! backward passes are easy to audit.
//!
//! Kernel contract: each output element is accumulated in index order
//! from the same start value; kernels may vectorize across outputs,
//! never reassociate a sum. Every float result is therefore a fixed
//! function of the inputs, independent of how the loops are written
//! or how far the compiler optimizes them.

use std::fmt;
use std::ops::{Index, IndexMut};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A row-major 2D tensor of `f32`.
///
/// # Examples
///
/// ```
/// use crescent_nn::Tensor;
///
/// let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Tensor::eye(2);
/// assert_eq!(a.matmul(&b), a);
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a zero tensor of shape `[rows, cols]`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a tensor filled with `v`.
    pub fn full(rows: usize, cols: usize, v: f32) -> Self {
        Tensor { rows, cols, data: vec![v; rows * cols] }
    }

    /// Identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(n, n);
        for i in 0..n {
            t[(i, i)] = 1.0;
        }
        t
    }

    /// Creates a tensor from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Tensor { rows, cols, data }
    }

    /// Creates a tensor from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |x| x.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Tensor { rows: r, cols: c, data }
    }

    /// He-initialized tensor (for ReLU MLPs), deterministic per seed.
    pub fn he_init(rows: usize, cols: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let std = (2.0 / rows as f32).sqrt();
        let data = (0..rows * cols)
            .map(|_| {
                // Box-Muller
                let u1: f32 = rng.random::<f32>().max(1e-9);
                let u2: f32 = rng.random::<f32>();
                (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos() * std
            })
            .collect();
        Tensor { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Flat element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The underlying row-major data.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the underlying data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// One row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// One row as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self × rhs`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != rhs.rows`.
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.cols, rhs.rows, "matmul shape mismatch");
        let mut out = Tensor::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            let a_row = self.row(i);
            let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
            for (k, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let b_row = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `selfᵀ × rhs` without materializing the transpose.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows != rhs.rows`.
    pub fn t_matmul(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.rows, rhs.rows, "t_matmul shape mismatch");
        let mut out = Tensor::zeros(self.cols, rhs.cols);
        for r in 0..self.rows {
            let a_row = self.row(r);
            let b_row = rhs.row(r);
            for (i, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `self × rhsᵀ` without materializing the transpose.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != rhs.cols`.
    pub fn matmul_t(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.cols, rhs.cols, "matmul_t shape mismatch");
        // axpy form over `rhsᵀ`: each out[i][j] is summed from k = 0
        // upward, starting at -0.0 where `Iterator::<f32>::sum` starts, so
        // it equals the dot product `a_row · b_row` bit for bit. No zero
        // `a` is skipped: that would change signed zeros.
        let rhs_t = rhs.transpose();
        let n = rhs.rows;
        let mut out = Tensor::full(self.rows, n, -0.0);
        for i in 0..self.rows {
            let out_row = &mut out.data[i * n..(i + 1) * n];
            for (k, &a) in self.row(i).iter().enumerate() {
                for (o, &b) in out_row.iter_mut().zip(rhs_t.row(k)) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Element-wise sum with another tensor of the same shape.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape(), rhs.shape(), "add shape mismatch");
        let data = self.data.iter().zip(&rhs.data).map(|(a, b)| a + b).collect();
        Tensor { rows: self.rows, cols: self.cols, data }
    }

    /// In-place element-wise accumulate.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, rhs: &Tensor) {
        assert_eq!(self.shape(), rhs.shape(), "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }

    /// Adds `bias` (a `[1, cols]` row) to every row.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != cols`.
    pub fn add_row(&self, bias: &[f32]) -> Tensor {
        assert_eq!(bias.len(), self.cols, "bias width mismatch");
        let mut out = self.clone();
        for r in 0..out.rows {
            for (v, b) in out.row_mut(r).iter_mut().zip(bias) {
                *v += b;
            }
        }
        out
    }

    /// Scales every element.
    pub fn scale(&self, s: f32) -> Tensor {
        let data = self.data.iter().map(|v| v * s).collect();
        Tensor { rows: self.rows, cols: self.cols, data }
    }

    /// Element-wise map.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let data = self.data.iter().map(|&v| f(v)).collect();
        Tensor { rows: self.rows, cols: self.cols, data }
    }

    /// New tensor from the given rows (gather; rows may repeat).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn gather_rows(&self, indices: &[usize]) -> Tensor {
        let mut out = Tensor::zeros(indices.len(), self.cols);
        for (dst, &src) in indices.iter().enumerate() {
            out.row_mut(dst).copy_from_slice(self.row(src));
        }
        out
    }

    /// Scatter-add: `self.row(indices[i]) += src.row(i)` — the adjoint of
    /// [`Tensor::gather_rows`], used to backpropagate through gathers.
    ///
    /// # Panics
    ///
    /// Panics if widths differ, `src.rows() != indices.len()`, or an index
    /// is out of bounds.
    pub fn scatter_add_rows(&mut self, indices: &[usize], src: &Tensor) {
        assert_eq!(self.cols, src.cols, "scatter width mismatch");
        assert_eq!(src.rows, indices.len(), "scatter count mismatch");
        for (i, &dst) in indices.iter().enumerate() {
            let s = src.row(i);
            for (a, b) in self.row_mut(dst).iter_mut().zip(s) {
                *a += b;
            }
        }
    }

    /// Concatenates two tensors along columns.
    ///
    /// # Panics
    ///
    /// Panics if row counts differ.
    pub fn concat_cols(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.rows, rhs.rows, "concat row mismatch");
        let mut out = Tensor::zeros(self.rows, self.cols + rhs.cols);
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols..].copy_from_slice(rhs.row(r));
        }
        out
    }

    /// Splits column-wise at `mid` into `(left, right)`.
    ///
    /// # Panics
    ///
    /// Panics if `mid > cols`.
    pub fn split_cols(&self, mid: usize) -> (Tensor, Tensor) {
        assert!(mid <= self.cols, "split point out of range");
        let mut left = Tensor::zeros(self.rows, mid);
        let mut right = Tensor::zeros(self.rows, self.cols - mid);
        for r in 0..self.rows {
            left.row_mut(r).copy_from_slice(&self.row(r)[..mid]);
            right.row_mut(r).copy_from_slice(&self.row(r)[mid..]);
        }
        (left, right)
    }

    /// Concatenates tensors along rows.
    ///
    /// # Panics
    ///
    /// Panics if column counts differ or `parts` is empty.
    pub fn concat_rows(parts: &[&Tensor]) -> Tensor {
        let cols = parts.first().expect("concat_rows needs at least one part").cols;
        let rows: usize = parts.iter().map(|t| t.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for t in parts {
            assert_eq!(t.cols, cols, "concat_rows width mismatch");
            data.extend_from_slice(&t.data);
        }
        Tensor { rows, cols, data }
    }

    /// Index of the maximum element in each row.
    pub fn argmax_rows(&self) -> Vec<usize> {
        (0..self.rows)
            .map(|r| {
                self.row(r)
                    .iter()
                    .enumerate()
                    .max_by(|(_, a), (_, b)| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect()
    }

    /// Mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.data.iter().sum::<f32>() / self.data.len() as f32
        }
    }

    /// Sum of squared elements.
    pub fn sq_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum()
    }

    /// Fills the tensor with zeros in place.
    pub fn zero_(&mut self) {
        self.data.fill(0.0);
    }
}

impl Index<(usize, usize)> for Tensor {
    type Output = f32;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Tensor {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor[{}x{}]", self.rows, self.cols)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use proptest::prelude::*;

    use super::*;

    /// A pool of kernel inputs in which a quarter of the entries are
    /// `+0.0` and a quarter `-0.0`, so signed-zero handling is exercised.
    pub(crate) fn arb_entries() -> impl Strategy<Value = Vec<f32>> {
        prop::collection::vec((0u8..4, -4.0f32..4.0), 64..65).prop_map(|v| {
            v.into_iter()
                .map(|(z, x)| match z {
                    0 => 0.0,
                    1 => -0.0,
                    _ => x,
                })
                .collect()
        })
    }

    /// A `[rows, cols]` tensor filled from `pool`, cycling from `offset`.
    pub(crate) fn from_pool(rows: usize, cols: usize, pool: &[f32], offset: usize) -> Tensor {
        let data = (0..rows * cols).map(|i| pool[(offset + i) % pool.len()]).collect();
        Tensor::from_vec(rows, cols, data)
    }

    /// The bit patterns of `t`, so `-0.0` and `+0.0` compare unequal.
    pub(crate) fn bits(t: &[f32]) -> Vec<u32> {
        t.iter().map(|v| v.to_bits()).collect()
    }

    /// The original `matmul_t`: one iterator `.sum()` dot product per
    /// output element — the reference the axpy kernel must reproduce.
    fn reference_matmul_t(a: &Tensor, b: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(a.rows, b.rows);
        for i in 0..a.rows {
            for j in 0..b.rows {
                out[(i, j)] = a.row(i).iter().zip(b.row(j)).map(|(x, y)| x * y).sum();
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// `matmul_t` is bit-identical to the `.sum()` reference,
        /// including `K = 0`, single rows, an all `-0.0` operand and
        /// signed zeros mixed into the inputs.
        #[test]
        fn matmul_t_matches_reference_bits(
            (m, k, n) in (0usize..6, 0usize..10, 0usize..7),
            pool in arb_entries(),
            offset in 0usize..64,
            all_neg_zero in 0u8..8,
        ) {
            let a = if all_neg_zero == 0 {
                Tensor::full(m, k, -0.0)
            } else {
                from_pool(m, k, &pool, offset)
            };
            let b = from_pool(n, k, &pool, offset + 17);
            let got = a.matmul_t(&b);
            let want = reference_matmul_t(&a, &b);
            prop_assert_eq!(got.shape(), want.shape());
            prop_assert_eq!(bits(got.data()), bits(want.data()));
        }
    }

    #[test]
    fn matmul_t_signed_zero_corners() {
        // K = 0: every output is the empty sum, -0.0
        let empty = Tensor::zeros(2, 0).matmul_t(&Tensor::zeros(3, 0));
        assert_eq!(bits(empty.data()), vec![(-0.0f32).to_bits(); 6]);
        // an all -0.0 product stays -0.0; one +0.0 term makes it +0.0
        let neg = Tensor::full(1, 3, -0.0);
        assert_eq!(neg.matmul_t(&Tensor::full(1, 3, 1.0)).data()[0].to_bits(), (-0.0f32).to_bits());
        let mixed = Tensor::from_rows(&[&[-0.0, 0.0]]);
        assert_eq!(mixed.matmul_t(&Tensor::full(1, 2, 1.0)).data()[0].to_bits(), 0);
    }

    #[test]
    fn construction_and_access() {
        let t = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(t.shape(), (2, 3));
        assert_eq!(t[(1, 2)], 6.0);
        assert_eq!(t.row(0), &[1.0, 2.0, 3.0]);
        let z = Tensor::zeros(2, 2);
        assert!(z.data().iter().all(|&v| v == 0.0));
        assert_eq!(Tensor::full(1, 2, 7.0).data(), &[7.0, 7.0]);
    }

    #[test]
    #[should_panic(expected = "shape/data mismatch")]
    fn bad_shape_panics() {
        let _ = Tensor::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    fn matmul_small() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Tensor::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Tensor::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_identity_and_transpose_variants() {
        let a = Tensor::he_init(4, 3, 1);
        let i3 = Tensor::eye(3);
        assert_eq!(a.matmul(&i3), a);
        // a^T b == transpose(a).matmul(b)
        let b = Tensor::he_init(4, 5, 2);
        let want = a.transpose().matmul(&b);
        let got = a.t_matmul(&b);
        for (x, y) in got.data().iter().zip(want.data()) {
            assert!((x - y).abs() < 1e-5);
        }
        // a b^T == a.matmul(transpose(b))
        let c = Tensor::he_init(5, 3, 3);
        let want = a.matmul(&c.transpose());
        let got = a.matmul_t(&c);
        for (x, y) in got.data().iter().zip(want.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn add_and_bias() {
        let a = Tensor::from_rows(&[&[1.0, 1.0], &[2.0, 2.0]]);
        let b = a.add(&a);
        assert_eq!(b[(1, 1)], 4.0);
        let c = a.add_row(&[10.0, 20.0]);
        assert_eq!(c.row(0), &[11.0, 21.0]);
        let mut d = a.clone();
        d.add_assign(&a);
        assert_eq!(d, b);
    }

    #[test]
    fn gather_scatter_roundtrip() {
        let a = Tensor::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        let g = a.gather_rows(&[2, 0, 2]);
        assert_eq!(g.data(), &[3.0, 1.0, 3.0]);
        // adjoint test: <gather(x), y> == <x, scatter(y)>
        let y = Tensor::from_rows(&[&[0.5], &[1.5], &[2.5]]);
        let mut scat = Tensor::zeros(3, 1);
        scat.scatter_add_rows(&[2, 0, 2], &y);
        let lhs: f32 = g.data().iter().zip(y.data()).map(|(a, b)| a * b).sum();
        let rhs: f32 = a.data().iter().zip(scat.data()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-6);
    }

    #[test]
    fn concat_and_split() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Tensor::from_rows(&[&[5.0], &[6.0]]);
        let c = a.concat_cols(&b);
        assert_eq!(c.shape(), (2, 3));
        assert_eq!(c.row(1), &[3.0, 4.0, 6.0]);
        let (l, r) = c.split_cols(2);
        assert_eq!(l, a);
        assert_eq!(r, b);
        let stacked = Tensor::concat_rows(&[&a, &a]);
        assert_eq!(stacked.shape(), (4, 2));
    }

    #[test]
    fn argmax_and_stats() {
        let t = Tensor::from_rows(&[&[0.1, 0.9, 0.0], &[5.0, 1.0, 2.0]]);
        assert_eq!(t.argmax_rows(), vec![1, 0]);
        assert!((t.mean() - (0.1 + 0.9 + 0.0 + 5.0 + 1.0 + 2.0) / 6.0).abs() < 1e-6);
        assert!(t.sq_norm() > 0.0);
        let mut z = t.clone();
        z.zero_();
        assert_eq!(z.sq_norm(), 0.0);
    }

    #[test]
    fn he_init_statistics() {
        let t = Tensor::he_init(256, 64, 7);
        let mean = t.mean();
        let var = t.data().iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / t.len() as f32;
        assert!(mean.abs() < 0.02, "mean {mean}");
        let want = 2.0 / 256.0;
        assert!((var - want).abs() < want * 0.3, "var {var} want {want}");
        // deterministic
        assert_eq!(t, Tensor::he_init(256, 64, 7));
    }

    #[test]
    fn map_and_scale() {
        let t = Tensor::from_rows(&[&[-1.0, 2.0]]);
        assert_eq!(t.map(|v| v.max(0.0)).data(), &[0.0, 2.0]);
        assert_eq!(t.scale(2.0).data(), &[-2.0, 4.0]);
    }
}
