//! Approximation-aware neighbor provider.
//!
//! This is the bridge between the networks and the Crescent hardware
//! model: every set-abstraction layer asks for its neighbor-index matrix
//! here, under an [`ApproxSetting`] `h = <h_t, h_e>` (Sec 5). The same
//! code path serves
//!
//! * exact training/inference (`ApproxSetting::exact()`),
//! * ANS (`top_height > 0`, conflicts stall),
//! * ANS+BCE (`elision_height` set — the bank-conflict model of Fig 11 is
//!   "called by both neighbor search and feature computation"), and
//! * the per-input sampling of `h` during approximation-aware training.
//!
//! Both halves of that bank-conflict model run on memsim's
//! [`BankedSram`], the arbiter the accelerator times: the neighbor search
//! through kdtree's lock-step simulation, and the feature computation's
//! neighbor replication ([`apply_aggregation_elision`]) as one eliding
//! round per Point Buffer issue group. So training sees exactly the
//! neighbors the hardware elides, and no bank mapping lives here.

use rand::rngs::StdRng;
use rand::Rng;

use crescent_kdtree::{ElisionConfig, KdTree, SplitSearchConfig, SplitTree};
use crescent_memsim::{BankedSram, SramConfig};
use crescent_pointcloud::{replicate_to_k, Point3, PointCloud};

/// One approximate setting `h`, plus the hardware parameters the
/// bank-conflict model needs (Sec 5: "the bank conflict simulator takes
/// `h_e` and the hardware banking configuration").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ApproxSetting {
    /// Top-tree height `h_t`; 0 disables the split (exact search).
    pub top_height: usize,
    /// Elision height `h_e`; `None` disables neighbor-search elision
    /// (conflicts stall instead).
    pub elision_height: Option<usize>,
    /// Tree-buffer banks for the neighbor-search conflict model.
    pub tree_banks: usize,
    /// Concurrent search PEs.
    pub num_pes: usize,
    /// Point-buffer banks for the aggregation conflict model.
    pub point_banks: usize,
    /// Elide bank conflicts in aggregation (neighbor replication).
    pub elide_aggregation: bool,
}

impl ApproxSetting {
    /// Exact search, no approximation — the baseline models.
    pub fn exact() -> Self {
        ApproxSetting {
            top_height: 0,
            elision_height: None,
            tree_banks: 4,
            num_pes: 4,
            point_banks: 16,
            elide_aggregation: false,
        }
    }

    /// Approximate neighbor search only (the ANS variant).
    pub fn ans(top_height: usize) -> Self {
        ApproxSetting { top_height, ..ApproxSetting::exact() }
    }

    /// Approximate search plus bank-conflict elision everywhere (the
    /// ANS+BCE variant).
    pub fn ans_bce(top_height: usize, elision_height: usize) -> Self {
        ApproxSetting {
            top_height,
            elision_height: Some(elision_height),
            elide_aggregation: true,
            ..ApproxSetting::exact()
        }
    }
}

/// A sampler over approximate settings for mixed training (Sec 5's
/// "training also randomly samples an `h` for each input").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SettingSampler {
    /// Always the same setting (dedicated-model training, Figs 18/19).
    Fixed(ApproxSetting),
    /// Uniformly sample `h_t` in the range and `h_e` in the range per
    /// input ("Mixed" in Fig 20); both ends inclusive.
    Mixed {
        /// Inclusive `h_t` range.
        top_height: (usize, usize),
        /// Inclusive `h_e` range; `None` keeps elision off.
        elision_height: Option<(usize, usize)>,
        /// Template for the hardware parameters.
        base: ApproxSetting,
    },
}

impl SettingSampler {
    /// Draws a setting for the next input.
    pub fn sample(&self, rng: &mut StdRng) -> ApproxSetting {
        match self {
            SettingSampler::Fixed(s) => *s,
            SettingSampler::Mixed { top_height, elision_height, base } => {
                let ht = rng.random_range(top_height.0..=top_height.1);
                let he = elision_height.map(|(lo, hi)| rng.random_range(lo..=hi));
                ApproxSetting {
                    top_height: ht,
                    elision_height: he,
                    elide_aggregation: base.elide_aggregation || he.is_some(),
                    ..*base
                }
            }
        }
    }
}

/// Computes the neighbor-index matrix: for each query index (into
/// `points`), exactly `k` neighbor indices within `radius`, replicated per
/// the network convention when fewer are found (Sec 4.2).
///
/// Under an approximate `setting` this runs the split-tree two-stage
/// search with the lock-step bank-conflict model; under
/// [`ApproxSetting::exact`] it degenerates to exact K-d search.
pub fn neighbor_lists(
    points: &PointCloud,
    query_indices: &[usize],
    radius: f32,
    k: usize,
    setting: &ApproxSetting,
) -> Vec<Vec<usize>> {
    if points.is_empty() || query_indices.is_empty() {
        return query_indices.iter().map(|_| Vec::new()).collect();
    }
    let tree = KdTree::build(points);
    let split = SplitTree::new(&tree, tree.clamp_top_height(setting.top_height))
        .expect("clamped top height");
    let queries: Vec<Point3> = query_indices.iter().map(|&i| points.point(i)).collect();
    let cfg = SplitSearchConfig {
        radius,
        max_neighbors: Some(k),
        num_pes: setting.num_pes,
        elision: setting.elision_height.map(|he| ElisionConfig {
            elision_height: he,
            num_banks: setting.tree_banks,
            descendant_reuse: false,
        }),
    };
    let (results, _) = split.batch_search(&queries, &cfg);
    let mut lists: Vec<Vec<usize>> = results
        .iter()
        .zip(query_indices)
        .map(|(hits, &qi)| {
            let idx: Vec<usize> = hits.iter().map(|n| n.index).collect();
            replicate_to_k(&idx, k, Some(qi))
        })
        .collect();
    if setting.elide_aggregation {
        apply_aggregation_elision(&mut lists, setting.point_banks);
    }
    lists
}

/// Applies the aggregation-stage bank-conflict elision to neighbor lists:
/// each `point_banks`-wide issue group is one eliding round on the Point
/// Buffer's [`BankedSram`], and an index that loses bank arbitration is
/// replaced by its bank's winning index — exactly the hardware's implicit
/// neighbor replication (Sec 4.2).
pub fn apply_aggregation_elision(lists: &mut [Vec<usize>], point_banks: usize) {
    let config = SramConfig { num_banks: point_banks.max(1), ..SramConfig::point_buffer() };
    let word = config.word_bytes as u64;
    let mut sram = BankedSram::new(config);
    for list in lists.iter_mut() {
        for chunk in list.chunks_mut(config.num_banks) {
            sram.begin_round();
            for (port, slot) in chunk.iter_mut().enumerate() {
                if let (_, Some(winner)) = sram.request(port, *slot as u64 * word, true) {
                    *slot = (winner.addr / word) as usize; // replicated neighbor
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crescent_pointcloud::radius_search_bruteforce;
    use rand::SeedableRng;

    fn grid_cloud(n_side: usize) -> PointCloud {
        let mut pts = Vec::new();
        for x in 0..n_side {
            for y in 0..n_side {
                for z in 0..n_side {
                    pts.push(Point3::new(x as f32, y as f32, z as f32));
                }
            }
        }
        PointCloud::from_points(pts)
    }

    #[test]
    fn exact_setting_matches_bruteforce() {
        let cloud = grid_cloud(6);
        let qs = vec![0usize, 100, 200];
        let lists = neighbor_lists(&cloud, &qs, 1.1, 8, &ApproxSetting::exact());
        for (list, &qi) in lists.iter().zip(&qs) {
            assert_eq!(list.len(), 8);
            let want: Vec<usize> = radius_search_bruteforce(&cloud, cloud.point(qi), 1.1, Some(8))
                .iter()
                .map(|n| n.index)
                .collect();
            // every returned neighbor is a true neighbor (replication may
            // repeat entries)
            for idx in list {
                assert!(want.contains(idx), "query {qi}: {idx} not a true neighbor");
            }
        }
    }

    #[test]
    fn lists_always_have_k_entries() {
        let cloud = grid_cloud(4);
        // isolated query region: tiny radius still yields k entries via
        // self-replication
        let lists = neighbor_lists(&cloud, &[7], 0.001, 5, &ApproxSetting::exact());
        assert_eq!(lists[0], vec![7, 7, 7, 7, 7]);
    }

    #[test]
    fn ans_loses_some_neighbors_but_invents_none() {
        let cloud = grid_cloud(8);
        let qs: Vec<usize> = (0..64).map(|i| i * 8).collect();
        let exact = neighbor_lists(&cloud, &qs, 1.5, 16, &ApproxSetting::exact());
        let approx = neighbor_lists(&cloud, &qs, 1.5, 16, &ApproxSetting::ans(3));
        let mut lost = 0;
        for ((e, a), &qi) in exact.iter().zip(&approx).zip(&qs) {
            for idx in a {
                // every approx neighbor is either a true neighbor or the
                // replicated fallback (the query itself)
                assert!(e.contains(idx) || *idx == qi);
            }
            if a.iter().collect::<std::collections::HashSet<_>>()
                != e.iter().collect::<std::collections::HashSet<_>>()
            {
                lost += 1;
            }
        }
        assert!(lost > 0, "h_t = 3 should perturb at least one neighborhood");
    }

    #[test]
    fn bce_perturbs_more_than_ans() {
        let cloud = grid_cloud(8);
        let qs: Vec<usize> = (0..128).map(|i| i * 4).collect();
        let exact = neighbor_lists(&cloud, &qs, 1.5, 16, &ApproxSetting::exact());
        let count_diffs = |lists: &[Vec<usize>]| {
            lists
                .iter()
                .zip(&exact)
                .map(|(a, e)| a.iter().zip(e).filter(|(x, y)| x != y).count())
                .sum::<usize>()
        };
        let ans = neighbor_lists(&cloud, &qs, 1.5, 16, &ApproxSetting::ans(2));
        let bce = neighbor_lists(&cloud, &qs, 1.5, 16, &ApproxSetting::ans_bce(2, 3));
        assert!(count_diffs(&bce) >= count_diffs(&ans));
    }

    #[test]
    fn aggregation_elision_replicates_within_chunks() {
        let mut lists = vec![vec![0, 16, 1, 17]];
        // 16 banks: 0 and 16 share bank 0; 1 and 17 share bank 1
        apply_aggregation_elision(&mut lists, 16);
        assert_eq!(lists[0], vec![0, 0, 1, 1]);
        // separate chunks don't interact
        let mut lists = vec![vec![0, 16]];
        apply_aggregation_elision(&mut lists, 2);
        assert_eq!(lists[0], vec![0, 0]);
    }

    #[test]
    fn sampler_fixed_and_mixed() {
        let mut rng = StdRng::seed_from_u64(1);
        let fixed = SettingSampler::Fixed(ApproxSetting::ans(4));
        assert_eq!(fixed.sample(&mut rng).top_height, 4);
        let mixed = SettingSampler::Mixed {
            top_height: (1, 6),
            elision_height: Some((4, 10)),
            base: ApproxSetting::exact(),
        };
        let mut seen = std::collections::HashSet::new();
        for _ in 0..50 {
            let s = mixed.sample(&mut rng);
            assert!((1..=6).contains(&s.top_height));
            let he = s.elision_height.expect("elision sampled");
            assert!((4..=10).contains(&he));
            assert!(s.elide_aggregation);
            seen.insert(s.top_height);
        }
        assert!(seen.len() >= 4, "sampler should cover the range");
    }

    #[test]
    fn empty_inputs() {
        let lists = neighbor_lists(&PointCloud::new(), &[], 1.0, 4, &ApproxSetting::exact());
        assert!(lists.is_empty());
    }
}
