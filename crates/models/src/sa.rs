//! Set-abstraction building blocks (the PointNet++ layer of Fig 1):
//! neighbor search → grouping (relative coordinates + features) → shared
//! MLP → max-pool.
//!
//! Gradients flow only through the MLP and the feature gather — neighbor
//! search and grouping construct inputs and are non-differentiable, exactly
//! as in Fig 11.

use crescent_nn::{GroupMaxPool, Layer, Mlp, Param, Tensor};
use crescent_pointcloud::{farthest_point_sample, PointCloud};

use crate::search::{neighbor_lists, ApproxSetting};

/// A set-abstraction layer: samples `m` centroids by FPS, finds each
/// centroid's `k` neighbors within `radius` (under the active
/// [`ApproxSetting`]), and produces one feature row per centroid.
#[derive(Debug)]
pub struct SetAbstraction {
    /// Number of output centroids; `None` keeps every input point as a
    /// centroid (DensePoint-style dense blocks).
    pub m: Option<usize>,
    /// Neighbors per centroid.
    pub k: usize,
    /// Search radius.
    pub radius: f32,
    mlp: Mlp,
    pool: GroupMaxPool,
    // caches for backward
    neighbor_flat: Vec<usize>,
    in_rows: usize,
    in_channels: usize,
}

impl SetAbstraction {
    /// Creates a layer. `mlp_dims[0]` must be `3 + in_channels` (relative
    /// position concatenated with the gathered features).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `mlp_dims` has fewer than two entries.
    pub fn new(m: Option<usize>, k: usize, radius: f32, mlp_dims: &[usize], seed: u64) -> Self {
        assert!(k > 0, "k must be positive");
        SetAbstraction {
            m,
            k,
            radius,
            mlp: Mlp::new(mlp_dims, true, seed),
            pool: GroupMaxPool::new(k),
            neighbor_flat: Vec::new(),
            in_rows: 0,
            in_channels: mlp_dims[0] - 3,
        }
    }

    /// Output feature width.
    pub fn out_dim(&self) -> usize {
        self.mlp.out_dim()
    }

    /// Forward pass.
    ///
    /// `features` is `[n, C]` aligned with `points` (or `None` for the
    /// first layer, `C = 0`). Returns the centroid sub-cloud and its
    /// `[m, C']` features.
    ///
    /// # Panics
    ///
    /// Panics if `features` row count mismatches `points`, or the feature
    /// width mismatches the MLP input.
    pub fn forward(
        &mut self,
        points: &PointCloud,
        features: Option<&Tensor>,
        setting: &ApproxSetting,
        train: bool,
    ) -> (PointCloud, Tensor) {
        let n = points.len();
        let c = features.map_or(0, Tensor::cols);
        assert_eq!(c, self.in_channels, "feature width mismatch");
        if let Some(f) = features {
            assert_eq!(f.rows(), n, "feature/point count mismatch");
        }
        let centroid_idx = match self.m {
            Some(m) => farthest_point_sample(points, m),
            None => (0..n).collect(),
        };
        let lists = neighbor_lists(points, &centroid_idx, self.radius, self.k, setting);

        let m_actual = centroid_idx.len();
        self.neighbor_flat.clear();
        let mut rows = Tensor::zeros(m_actual * self.k, 3 + c);
        for (ci, (&cidx, list)) in centroid_idx.iter().zip(&lists).enumerate() {
            let cp = points.point(cidx);
            for (j, &nidx) in list.iter().enumerate() {
                let r = ci * self.k + j;
                let np = points.point(nidx);
                let rel = np - cp;
                let row = rows.row_mut(r);
                row[0] = rel.x;
                row[1] = rel.y;
                row[2] = rel.z;
                if let Some(f) = features {
                    row[3..].copy_from_slice(f.row(nidx));
                }
                self.neighbor_flat.push(nidx);
            }
        }
        self.in_rows = n;

        let y = self.mlp.forward(&rows, train);
        let pooled = self.pool.forward(&y);
        let centroids: PointCloud = centroid_idx.iter().map(|&i| points.point(i)).collect();
        (centroids, pooled)
    }

    /// Backward pass: gradient w.r.t. the **input features** `[n, C]`
    /// (zero-width if the layer had no input features). Position gradients
    /// are discarded (coordinates are inputs, not parameters).
    pub fn backward(&mut self, grad: &Tensor) -> Tensor {
        let g_rows = self.pool.backward(grad);
        let c = self.in_channels;
        let mut g_feat = Tensor::zeros(self.in_rows, c);
        if c == 0 {
            // the MLP input is relative positions only: no gradient to carry
            self.mlp.backward_params(&g_rows);
        } else {
            let g_in = self.mlp.backward(&g_rows);
            let (_, g_feature_cols) = g_in.split_cols(3);
            g_feat.scatter_add_rows(&self.neighbor_flat, &g_feature_cols);
        }
        g_feat
    }

    /// Visits the MLP parameters.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.mlp.visit_params(f);
    }
}

/// Global-feature layer: shared MLP over `[n, 3 + C]` (absolute position +
/// feature) followed by a global max-pool to a single `[1, C']` row — the
/// "group all" final stage of PointNet++-style classifiers.
#[derive(Debug)]
pub struct GlobalFeature {
    mlp: Mlp,
    argmax: Vec<usize>,
    in_rows: usize,
    in_channels: usize,
}

impl GlobalFeature {
    /// Creates the layer; `mlp_dims[0]` must be `3 + in_channels`.
    pub fn new(mlp_dims: &[usize], seed: u64) -> Self {
        GlobalFeature {
            mlp: Mlp::new(mlp_dims, true, seed),
            argmax: Vec::new(),
            in_rows: 0,
            in_channels: mlp_dims[0] - 3,
        }
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.mlp.out_dim()
    }

    /// Forward pass to a single global feature row.
    pub fn forward(
        &mut self,
        points: &PointCloud,
        features: Option<&Tensor>,
        train: bool,
    ) -> Tensor {
        let n = points.len();
        let c = features.map_or(0, Tensor::cols);
        assert_eq!(c, self.in_channels, "feature width mismatch");
        let mut rows = Tensor::zeros(n, 3 + c);
        for (i, p) in points.iter().enumerate() {
            let row = rows.row_mut(i);
            row[0] = p.x;
            row[1] = p.y;
            row[2] = p.z;
            if let Some(f) = features {
                row[3..].copy_from_slice(f.row(i));
            }
        }
        self.in_rows = n;
        let y = self.mlp.forward(&rows, train);
        let (pooled, argmax) = crescent_nn::global_max_pool(&y);
        self.argmax = argmax;
        pooled
    }

    /// Backward pass: gradient w.r.t. the input features `[n, C]`.
    pub fn backward(&mut self, grad: &Tensor) -> Tensor {
        let g_rows = crescent_nn::global_max_pool_backward(grad, &self.argmax, self.in_rows);
        if self.in_channels == 0 {
            self.mlp.backward_params(&g_rows);
            Tensor::zeros(self.in_rows, 0)
        } else {
            let (_, g_feat) = self.mlp.backward(&g_rows).split_cols(3);
            g_feat
        }
    }

    /// Visits the MLP parameters.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.mlp.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crescent_pointcloud::Point3;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_cloud(n: usize, seed: u64) -> PointCloud {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point3::new(rng.random::<f32>(), rng.random::<f32>(), rng.random::<f32>()))
            .collect()
    }

    #[test]
    fn sa_shapes() {
        let cloud = random_cloud(64, 1);
        let mut sa = SetAbstraction::new(Some(16), 8, 0.3, &[3, 16, 32], 2);
        let (cents, feats) = sa.forward(&cloud, None, &ApproxSetting::exact(), true);
        assert_eq!(cents.len(), 16);
        assert_eq!(feats.shape(), (16, 32));
        assert_eq!(sa.out_dim(), 32);
        let g = sa.backward(&Tensor::full(16, 32, 1.0));
        assert_eq!(g.shape(), (64, 0));
    }

    /// With no input features, `backward` skips the MLP's input gradient
    /// yet accumulates the parameter gradients of the full backward, bit
    /// for bit, and still returns the zero-width `[n, 0]` gradient.
    #[test]
    fn sa_without_features_skips_only_the_input_gradient() {
        let cloud = random_cloud(48, 16);
        let mut sa = SetAbstraction::new(Some(12), 6, 0.4, &[3, 16, 24], 17);
        let mut full = SetAbstraction::new(Some(12), 6, 0.4, &[3, 16, 24], 17);
        let grad = Tensor::he_init(12, 24, 18);
        let (_, y) = sa.forward(&cloud, None, &ApproxSetting::ans(2), true);
        let (_, y_full) = full.forward(&cloud, None, &ApproxSetting::ans(2), true);
        assert_eq!(y, y_full);
        let g = sa.backward(&grad);
        assert_eq!(g.shape(), (48, 0));
        let g_rows = full.pool.backward(&grad);
        assert_eq!(full.mlp.backward(&g_rows).shape(), (12 * 6, 3));
        let grad_bits = |sa: &mut SetAbstraction| {
            let mut out = Vec::new();
            sa.visit_params(&mut |p| out.extend(p.grad.data().iter().map(|v| v.to_bits())));
            out
        };
        assert_eq!(grad_bits(&mut sa), grad_bits(&mut full));
    }

    #[test]
    fn global_feature_on_an_empty_cloud() {
        let mut gf = GlobalFeature::new(&[3, 8, 16], 19);
        let out = gf.forward(&PointCloud::new(), None, true);
        assert_eq!(out.shape(), (1, 16));
        let g = gf.backward(&Tensor::full(1, 16, 1.0));
        assert_eq!(g.shape(), (0, 0));
    }

    #[test]
    fn sa_with_features_backprops_to_inputs() {
        let cloud = random_cloud(32, 3);
        let feats = Tensor::he_init(32, 4, 4);
        let mut sa = SetAbstraction::new(Some(8), 4, 0.5, &[7, 16], 5);
        let (_, out) = sa.forward(&cloud, Some(&feats), &ApproxSetting::exact(), true);
        assert_eq!(out.shape(), (8, 16));
        let g = sa.backward(&Tensor::full(8, 16, 1.0));
        assert_eq!(g.shape(), (32, 4));
        assert!(g.sq_norm() > 0.0, "some input features must receive gradient");
    }

    #[test]
    fn sa_dense_mode_keeps_all_points() {
        let cloud = random_cloud(24, 6);
        let mut sa = SetAbstraction::new(None, 4, 0.5, &[3, 8], 7);
        let (cents, feats) = sa.forward(&cloud, None, &ApproxSetting::exact(), true);
        assert_eq!(cents.len(), 24);
        assert_eq!(feats.rows(), 24);
        assert_eq!(cents, cloud);
    }

    #[test]
    fn sa_feature_gradient_check() {
        // finite differences through gather + MLP + pool
        let cloud = random_cloud(12, 8);
        let mut feats = Tensor::he_init(12, 2, 9);
        let mut sa = SetAbstraction::new(Some(4), 3, 0.8, &[5, 6], 10);
        let loss_of = |sa: &mut SetAbstraction, f: &Tensor| {
            let (_, out) = sa.forward(&cloud, Some(f), &ApproxSetting::exact(), false);
            out.data().iter().sum::<f32>()
        };
        let base = loss_of(&mut sa, &feats);
        let _ = base;
        // analytic grad of sum(out)
        let (_, out) = sa.forward(&cloud, Some(&feats), &ApproxSetting::exact(), false);
        let g = sa.backward(&Tensor::full(out.rows(), out.cols(), 1.0));
        let eps = 1e-2;
        for idx in [(0usize, 0usize), (5, 1), (11, 0)] {
            feats[idx] += eps;
            let lp = loss_of(&mut sa, &feats);
            feats[idx] -= 2.0 * eps;
            let lm = loss_of(&mut sa, &feats);
            feats[idx] += eps;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (g[idx] - numeric).abs() < 0.05 * numeric.abs().max(1.0),
                "at {idx:?}: analytic {} vs numeric {numeric}",
                g[idx]
            );
        }
    }

    #[test]
    fn approximate_setting_changes_features() {
        let cloud = random_cloud(256, 11);
        let mut sa = SetAbstraction::new(Some(64), 8, 0.25, &[3, 16], 12);
        let (_, exact) = sa.forward(&cloud, None, &ApproxSetting::exact(), false);
        let (_, approx) = sa.forward(&cloud, None, &ApproxSetting::ans_bce(3, 4), false);
        assert_eq!(exact.shape(), approx.shape());
        assert_ne!(exact, approx, "aggressive approximation must perturb features");
    }

    #[test]
    fn global_feature_shapes_and_backward() {
        let cloud = random_cloud(20, 13);
        let feats = Tensor::he_init(20, 6, 14);
        let mut gf = GlobalFeature::new(&[9, 16, 24], 15);
        let out = gf.forward(&cloud, Some(&feats), true);
        assert_eq!(out.shape(), (1, 24));
        let g = gf.backward(&Tensor::full(1, 24, 1.0));
        assert_eq!(g.shape(), (20, 6));
        let mut count = 0;
        gf.visit_params(&mut |_| count += 1);
        assert!(count >= 4);
    }
}
