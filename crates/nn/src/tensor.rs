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
//!
//! The three products — [`Tensor::matmul`], [`Tensor::t_matmul`] (`aᵀ·b`)
//! and [`Tensor::matmul_t`] (`a·bᵀ`) — share one row kernel,
//! `out[i] = start + Σ_k lhs[i][k] · rhs[k]`, summed in ascending `k`:
//!
//! - `matmul` and `t_matmul` start every output at `+0.0` and skip each
//!   term whose lhs entry is zero, so a zero times an infinite `rhs`
//!   entry adds no NaN. `matmul_t` starts at `-0.0` and sums every term:
//!   the bits of `Iterator::<f32>::sum` over the dot product.
//! - Tile layout: one pass sums two output rows, so every `rhs` load
//!   feeds both, and keeps a `[2, W]` tile of accumulators in registers
//!   for the whole `k` loop, storing it once. `W` is 16, with 8-, 4- and
//!   1-wide tiles for the columns left over: a width of 24 is 16 + 8, of
//!   10 is 8 + 1 + 1, of 3 is 1 + 1 + 1. An odd last row takes a
//!   one-row pass.
//!
//! What the kernel leaves out changes no bit:
//!
//! - A skipping sum starts at `+0.0` and never becomes `-0.0`: under
//!   round-to-nearest, `x + y` is `-0.0` only when both are. Adding a
//!   signed zero to it is therefore exact. So when `rhs` is all finite,
//!   where `0 · b` is a signed zero, the kernel sums the zero-lhs terms
//!   without branching, and when `lhs` is finite too it drops every
//!   all-zero `rhs` row (a row no max-pool argmax reached). A non-finite
//!   `rhs` instead gets a list of each lhs row's non-zero entries.
//! - Consecutive lhs rows with equal bits have equal sums: the kernel
//!   sums the first row of such a run and copies it to the rest. A
//!   padded neighbor group repeats its last neighbor, so its rows repeat
//!   through a shared MLP, and their zero gradients repeat on the way
//!   back.

use std::borrow::Cow;
use std::fmt;
use std::ops::{Index, IndexMut, Range};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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
#[derive(Clone, Debug, PartialEq)]
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
        row_kernel(Lhs::Rows(self), rhs, Sum::SkipZeros)
    }

    /// `selfᵀ × rhs`.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows != rhs.rows`.
    pub fn t_matmul(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.rows, rhs.rows, "t_matmul shape mismatch");
        row_kernel(Lhs::Cols(self), rhs, Sum::SkipZeros)
    }

    /// `self × rhsᵀ`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != rhs.cols`.
    pub fn matmul_t(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.cols, rhs.cols, "matmul_t shape mismatch");
        row_kernel(Lhs::Rows(self), &rhs.transpose(), Sum::Dot)
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for (i, row) in self.data.chunks_exact(self.cols.max(1)).enumerate() {
            for (o, &v) in out.data[i..].iter_mut().step_by(self.rows).zip(row) {
                *o = v;
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

    /// Adds `bias` (a `[1, cols]` row) to every row, in place.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != cols`.
    pub fn add_row_assign(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols, "bias width mismatch");
        for row in self.data.chunks_exact_mut(self.cols.max(1)) {
            for (v, b) in row.iter_mut().zip(bias) {
                *v += b;
            }
        }
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

    /// New tensor from the given columns, in the given order.
    fn gather_cols(&self, indices: &[usize]) -> Tensor {
        let mut data = Vec::with_capacity(self.rows * indices.len());
        for r in 0..self.rows {
            let row = self.row(r);
            data.extend(indices.iter().map(|&c| row[c]));
        }
        Tensor { rows: self.rows, cols: indices.len(), data }
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

/// How [`row_kernel`] sums each output element.
#[derive(Clone, Copy, PartialEq)]
enum Sum {
    /// From `+0.0`, skipping every term whose lhs entry is zero.
    SkipZeros,
    /// From `-0.0` over every term: the bits of `Iterator::<f32>::sum`
    /// over the products, i.e. of the dot product.
    Dot,
}

/// The lhs of a kernel call: a tensor's rows, or its columns (`aᵀ`).
#[derive(Clone, Copy)]
enum Lhs<'a> {
    Rows(&'a Tensor),
    Cols(&'a Tensor),
}

impl<'a> Lhs<'a> {
    /// `(rows, depth)` of the lhs as the kernel reads it.
    fn shape(self) -> (usize, usize) {
        match self {
            Lhs::Rows(t) => (t.rows, t.cols),
            Lhs::Cols(t) => (t.cols, t.rows),
        }
    }

    /// The row-major lhs restricted to the `ks` columns of the kernel's
    /// view (`None`: all of them).
    fn rows(self, ks: Option<&[usize]>) -> Cow<'a, Tensor> {
        match (self, ks) {
            (Lhs::Rows(t), None) => Cow::Borrowed(t),
            (Lhs::Rows(t), Some(ks)) => Cow::Owned(t.gather_cols(ks)),
            (Lhs::Cols(t), None) => Cow::Owned(t.transpose()),
            (Lhs::Cols(t), Some(ks)) => Cow::Owned(t.gather_rows(ks).transpose()),
        }
    }

    /// Every lhs entry, in storage order.
    fn data(self) -> &'a [f32] {
        match self {
            Lhs::Rows(t) | Lhs::Cols(t) => &t.data,
        }
    }
}

/// `out[i] = start + Σ_k lhs[i][k] · rhs[k]`, each element summed in
/// ascending `k`; see the module header for the tile layout and for why
/// every term and row it leaves out is exact.
fn row_kernel(lhs: Lhs<'_>, rhs: &Tensor, sum: Sum) -> Tensor {
    let ((rows, depth), n) = (lhs.shape(), rhs.cols);
    debug_assert_eq!(depth, rhs.rows, "kernel depth mismatch");
    let start = if sum == Sum::Dot { -0.0 } else { 0.0 };
    let mut out = Tensor::full(rows, n, start);
    if n == 0 || depth == 0 {
        return out;
    }
    let live_k = match sum {
        Sum::Dot => (0..depth).collect(),
        Sum::SkipZeros => match skip_zeros_depth(lhs, rhs) {
            Some(live_k) => live_k,
            None => {
                let lhs = lhs.rows(None);
                let mut terms = Vec::with_capacity(depth);
                for (o, a) in out.data.chunks_exact_mut(n).zip(lhs.data.chunks_exact(depth)) {
                    terms.clear();
                    let nonzero = a.iter().enumerate().filter(|&(_, &x)| x != 0.0);
                    terms.extend(nonzero.map(|(k, &x)| (k, [x])));
                    row_pass(terms.iter().copied(), &rhs.data, [o]);
                }
                return out;
            }
        },
    };
    if live_k.is_empty() {
        return out;
    }
    let compacted;
    let (lhs, b) = if live_k.len() == depth {
        (lhs.rows(None), &rhs.data)
    } else {
        compacted = rhs.gather_rows(&live_k);
        (lhs.rows(Some(&live_k)), &compacted.data)
    };
    let mut runs: Vec<Range<usize>> = Vec::new();
    for (i, a) in lhs.data.chunks_exact(lhs.cols).enumerate() {
        match runs.last_mut() {
            Some(run) if same_bits(lhs.row(run.start), a) => run.end = i + 1,
            _ => runs.push(i..i + 1),
        }
    }
    let mut pairs = runs.chunks_exact(2);
    for pair in &mut pairs {
        let (i0, i1) = (pair[0].start, pair[1].start);
        let (head, tail) = out.data.split_at_mut(i1 * n);
        let (a0, a1) = (lhs.row(i0), lhs.row(i1));
        let terms = a0.iter().zip(a1).map(|(&x, &y)| [x, y]).enumerate();
        row_pass(terms, b, [&mut head[i0 * n..][..n], &mut tail[..n]]);
    }
    if let [run] = pairs.remainder() {
        let terms = lhs.row(run.start).iter().map(|&x| [x]).enumerate();
        row_pass(terms, b, [out.row_mut(run.start)]);
    }
    for run in &runs {
        for i in run.start + 1..run.end {
            out.data.copy_within(run.start * n..(run.start + 1) * n, i * n);
        }
    }
    out
}

/// The `rhs` rows a skipping sum must read: all of them, less the
/// all-zero ones when `lhs` is finite. `None` if an `rhs` entry is not
/// finite, where only a skip per zero lhs entry is exact.
fn skip_zeros_depth(lhs: Lhs<'_>, rhs: &Tensor) -> Option<Vec<usize>> {
    let mut finite = true;
    let mut live_k = Vec::with_capacity(rhs.rows);
    for (k, row) in rhs.data.chunks_exact(rhs.cols).enumerate() {
        let (f, nonzero) =
            row.iter().fold((true, false), |(f, nz), v| (f & v.is_finite(), nz | (*v != 0.0)));
        finite &= f;
        if nonzero {
            live_k.push(k);
        }
    }
    if !finite {
        return None;
    }
    if !all_finite(lhs.data()) {
        live_k = (0..rhs.rows).collect();
    }
    Some(live_k)
}

/// Whether every entry is finite, in branch-free chunks the compiler can
/// vectorize.
fn all_finite(v: &[f32]) -> bool {
    v.chunks(64).all(|c| c.iter().fold(true, |ok, x| ok & x.is_finite()))
}

/// Whether two rows hold the same bits (so `-0.0` differs from `+0.0`).
fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.iter().zip(b).fold(true, |ok, (x, y)| ok & (x.to_bits() == y.to_bits()))
}

/// Sums `terms` — `(k, [lhs[i][k] for each of the R rows])` in ascending
/// `k` — into the `R` output rows, one register tile of columns at a
/// time: widest tiles first, then narrower ones for the remainder.
fn row_pass<const R: usize>(
    terms: impl Iterator<Item = (usize, [f32; R])> + Clone,
    b: &[f32],
    mut out: [&mut [f32]; R],
) {
    let n = out[0].len();
    let mut j = 0;
    while j < n {
        j += match n - j {
            16.. => tile::<R, 16>(terms.clone(), b, j, &mut out),
            8.. => tile::<R, 8>(terms.clone(), b, j, &mut out),
            4.. => tile::<R, 4>(terms.clone(), b, j, &mut out),
            _ => tile::<R, 1>(terms.clone(), b, j, &mut out),
        };
    }
}

/// One `[R, W]` tile at column `j`: the accumulators start from `out`,
/// stay in registers over every term, and are stored once. Returns `W`.
#[inline(always)]
fn tile<const R: usize, const W: usize>(
    terms: impl Iterator<Item = (usize, [f32; R])>,
    b: &[f32],
    j: usize,
    out: &mut [&mut [f32]; R],
) -> usize {
    let n = out[0].len();
    let mut acc = [[0.0f32; W]; R];
    for (acc, o) in acc.iter_mut().zip(out.iter()) {
        acc.copy_from_slice(&o[j..j + W]);
    }
    for (k, x) in terms {
        let b: &[f32; W] = b[k * n + j..][..W].try_into().expect("tile in bounds");
        for (acc, x) in acc.iter_mut().zip(x) {
            for (a, &b) in acc.iter_mut().zip(b) {
                *a += x * b;
            }
        }
    }
    for (acc, o) in acc.iter().zip(out.iter_mut()) {
        o[j..j + W].copy_from_slice(acc);
    }
    W
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

    /// The bit patterns of `t` with every NaN as one canonical NaN: which
    /// NaN payload an addition propagates depends on its operand order,
    /// which the compiler may commute.
    fn canonical_bits(t: &[f32]) -> Vec<u32> {
        t.iter().map(|v| if v.is_nan() { f32::NAN.to_bits() } else { v.to_bits() }).collect()
    }

    /// Same shape and same bits, NaN payloads aside.
    fn assert_same_bits(got: &Tensor, want: &Tensor) {
        assert_eq!(got.shape(), want.shape());
        assert_eq!(canonical_bits(got.data()), canonical_bits(want.data()));
    }

    /// The `matmul` loop before the row kernel: an axpy per non-zero lhs
    /// entry, from `+0.0`.
    fn reference_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(a.rows, b.cols);
        for i in 0..a.rows {
            let a_row = a.row(i);
            let out_row = &mut out.data[i * b.cols..(i + 1) * b.cols];
            for (k, &x) in a_row.iter().enumerate() {
                if x == 0.0 {
                    continue;
                }
                let b_row = &b.data[k * b.cols..(k + 1) * b.cols];
                for (o, &y) in out_row.iter_mut().zip(b_row) {
                    *o += x * y;
                }
            }
        }
        out
    }

    /// The `t_matmul` loop before the row kernel: `aᵀ·b` as an axpy per
    /// non-zero entry of `a`, walking `a` in row order.
    fn reference_t_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(a.cols, b.cols);
        for r in 0..a.rows {
            let a_row = a.row(r);
            let b_row = b.row(r);
            for (i, &x) in a_row.iter().enumerate() {
                if x == 0.0 {
                    continue;
                }
                let out_row = &mut out.data[i * b.cols..(i + 1) * b.cols];
                for (o, &y) in out_row.iter_mut().zip(b_row) {
                    *o += x * y;
                }
            }
        }
        out
    }

    /// The `matmul_t` loop before the row kernel: an axpy over `bᵀ` for
    /// every lhs entry, from `-0.0`.
    fn reference_matmul_t_axpy(a: &Tensor, b: &Tensor) -> Tensor {
        let b_t = b.transpose();
        let n = b.rows;
        let mut out = Tensor::full(a.rows, n, -0.0);
        for i in 0..a.rows {
            let out_row = &mut out.data[i * n..(i + 1) * n];
            for (k, &x) in a.row(i).iter().enumerate() {
                for (o, &y) in out_row.iter_mut().zip(b_t.row(k)) {
                    *o += x * y;
                }
            }
        }
        out
    }

    /// A pool of kernel inputs: finite values with signed zeros, and
    /// `+inf`, `-inf` and NaN each about one entry in sixteen.
    fn arb_special_entries() -> impl Strategy<Value = Vec<f32>> {
        prop::collection::vec((0u8..16, -4.0f32..4.0), 64..65).prop_map(|v| {
            v.into_iter()
                .map(|(z, x)| match z {
                    0..=2 => 0.0,
                    3..=5 => -0.0,
                    6 => f32::INFINITY,
                    7 => f32::NEG_INFINITY,
                    8 => f32::NAN,
                    _ => x,
                })
                .collect()
        })
    }

    /// A `[rows, cols]` kernel operand from `pool` (special entries only
    /// if `special`). Bits of `shape` repeat a row (`1 << r`) or zero it
    /// (`1 << (r + 16)`, as `-0.0` if `1 << (r + 32)`), so runs of equal
    /// rows and all-zero rows of either sign occur.
    fn kernel_operand(
        (rows, cols): (usize, usize),
        pool: &[f32],
        offset: usize,
        special: bool,
        shape: u64,
    ) -> Tensor {
        let mut t = from_pool(rows, cols, pool, offset);
        if !special {
            t = t.map(|v| if v.is_finite() { v } else { 1.5 });
        }
        for r in 0..rows.min(16) {
            if shape >> (r + 16) & 1 == 1 {
                let zero = if shape >> (r + 32) & 1 == 1 { -0.0 } else { 0.0 };
                t.row_mut(r).fill(zero);
            } else if r > 0 && shape >> r & 1 == 1 {
                let prev = t.row(r - 1).to_vec();
                t.row_mut(r).copy_from_slice(&prev);
            }
        }
        t
    }

    /// The original `matmul_t`: one iterator `.sum()` dot product per
    /// output element — the reference the row kernel must reproduce.
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

    proptest! {
        /// All three products are bit-identical to the loops they
        /// replaced, on `[m, d]`-deep products `m × n` with `m` up to 9
        /// (an odd last row) and `n` up to 40 (every remainder tile).
        /// Either operand may hold `±inf` and NaN, besides signed zeros,
        /// repeated rows and all-zero rows.
        #[test]
        fn kernels_match_replaced_loops(
            (m, d, n) in (0usize..10, 0usize..12, 0usize..41),
            finite in arb_entries(),
            special in arb_special_entries(),
            (offset, specials) in (0usize..64, 0u8..4),
            (lhs_shape, rhs_shape) in (0u64..u64::MAX, 0u64..u64::MAX),
        ) {
            let pool = if specials == 0 { &finite } else { &special };
            let operand = |shape, offset, special, bits| {
                kernel_operand(shape, pool, offset, special, bits)
            };
            let (lhs_special, rhs_special) = (specials & 1 == 1, specials & 2 == 2);
            let a = operand((m, d), offset, lhs_special, lhs_shape);
            let b = operand((d, n), offset + 29, rhs_special, rhs_shape);
            assert_same_bits(&a.matmul(&b), &reference_matmul(&a, &b));
            // `t_matmul` reads the rows of `a` as the columns of `a_t`
            let a_t = a.transpose();
            assert_same_bits(&a_t.t_matmul(&b), &reference_t_matmul(&a_t, &b));
            let b_rows = operand((n, d), offset + 29, rhs_special, rhs_shape);
            assert_same_bits(&a.matmul_t(&b_rows), &reference_matmul_t_axpy(&a, &b_rows));
        }
    }

    #[test]
    fn zero_lhs_skips_an_infinite_rhs() {
        // 0 · inf is NaN; the skipped term must leave no trace of it
        let a = Tensor::from_rows(&[&[0.0, 2.0], &[-0.0, 1.0], &[0.0, 0.0]]);
        let b = Tensor::from_rows(&[&[f32::INFINITY, f32::NEG_INFINITY], &[1.0, -3.0]]);
        let got = a.matmul(&b);
        assert!(got.data().iter().all(|v| !v.is_nan()), "{:?}", got.data());
        assert_eq!(got.data(), &[2.0, -6.0, 1.0, -3.0, 0.0, 0.0]);
        let got = a.transpose().t_matmul(&b.transpose().transpose());
        let want = a.matmul(&b);
        assert_eq!(bits(got.data()), bits(want.data()));
        // the same rhs row seen through t_matmul's rows
        let x = Tensor::from_rows(&[&[0.0, 3.0], &[1.0, 0.0]]);
        let g = Tensor::from_rows(&[&[f32::INFINITY, 1.0], &[2.0, f32::NAN]]);
        let got = x.t_matmul(&g);
        assert_eq!(bits(got.data()), bits(reference_t_matmul(&x, &g).data()));
        assert!(!got.row(0)[0].is_nan() && got.row(1)[0].is_infinite(), "{:?}", got.data());
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
        let mut c = a.clone();
        c.add_row_assign(&[10.0, 20.0]);
        assert_eq!(c.row(0), &[11.0, 21.0]);
        assert_eq!(c.row(1), &[12.0, 22.0]);
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
