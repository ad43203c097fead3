//! Exact K-d tree radius search with traversal instrumentation.
//!
//! The traversal is iterative with an explicit stack, mirroring the PE
//! micro-architecture of Fig 7 (RS → FN → CD → SR → US): each loop
//! iteration pops the stack (RS), fetches a node (FN — the instrumented
//! event), computes the query–node distance (CD), records a result (SR),
//! and pushes children (US).

use crescent_pointcloud::{Neighbor, Point3};

use crate::split::finalize;
use crate::tree::KdTree;

/// Exact radius search over the whole tree.
///
/// Returns up to `max_neighbors` hits sorted ascending by distance
/// (all hits if `None`).
///
/// # Examples
///
/// ```
/// use crescent_kdtree::{radius_search, KdTree};
/// use crescent_pointcloud::{Point3, PointCloud};
///
/// let cloud: PointCloud = (0..64).map(|i| Point3::new(i as f32, 0.0, 0.0)).collect();
/// let tree = KdTree::build(&cloud);
/// let hits = radius_search(&tree, Point3::ZERO, 2.5, None);
/// assert_eq!(hits.len(), 3); // x = 0, 1, 2
/// ```
pub fn radius_search(
    tree: &KdTree,
    query: Point3,
    radius: f32,
    max_neighbors: Option<usize>,
) -> Vec<Neighbor> {
    // monomorphized no-op trace: the untraced hot path must not pay an
    // indirect call per node fetch (`radius_search_traced` takes `&mut
    // dyn FnMut`, which the optimizer cannot elide)
    radius_search_impl(tree, query, radius, max_neighbors, &mut |_| {})
}

/// Exact radius search that reports every node fetch to `on_fetch` (heap
/// slot of the fetched node), for memory-trace experiments.
pub fn radius_search_traced(
    tree: &KdTree,
    query: Point3,
    radius: f32,
    max_neighbors: Option<usize>,
    on_fetch: &mut dyn FnMut(usize),
) -> Vec<Neighbor> {
    radius_search_impl(tree, query, radius, max_neighbors, on_fetch)
}

/// Both `radius_search` variants: the traversal from the root, then the
/// hits ordered and capped.
fn radius_search_impl<F: FnMut(usize) + ?Sized>(
    tree: &KdTree,
    query: Point3,
    radius: f32,
    max_neighbors: Option<usize>,
    on_fetch: &mut F,
) -> Vec<Neighbor> {
    let mut hits = Vec::new();
    if !tree.is_empty() {
        radius_search_from(tree, 0, query, radius, &mut hits, on_fetch);
    }
    finalize(&mut hits, max_neighbors, &mut Vec::new());
    hits
}

/// The one exact traversal, confined to the subtree beneath heap slot
/// `root` (the whole tree from slot 0, one sub-tree in stage 2 of
/// [`SplitTree::search_one_traced`](crate::SplitTree::search_one_traced)),
/// appending in-radius hits to `hits` unordered. Generic over the fetch
/// observer so an untraced caller monomorphizes it away while a traced
/// caller passes its `&mut dyn FnMut` through (a `&mut F` is itself
/// `FnMut`). Identical float-op order either way — the observer only
/// watches.
pub(crate) fn radius_search_from<F: FnMut(usize) + ?Sized>(
    tree: &KdTree,
    root: usize,
    query: Point3,
    radius: f32,
    hits: &mut Vec<Neighbor>,
    on_fetch: &mut F,
) {
    let r2 = radius * radius;
    // hot loop on the SoA columns directly: one `meta` load per node
    // (axis and point index unpacked from the same word) instead of one
    // per accessor call
    let points = tree.points.as_slice();
    let meta = tree.meta.as_slice();
    let len = points.len();
    let mut stack: Vec<usize> = vec![root];
    while let Some(idx) = stack.pop() {
        on_fetch(idx); // FN
        let point = points[idx];
        let m = meta[idx];
        let d2 = point.dist2(query); // CD
        if d2 <= r2 {
            hits.push(Neighbor { index: (m & crate::tree::META_INDEX_MASK) as usize, dist2: d2 });
            // SR
        }
        // US: descend toward the query side; push the far side only if the
        // splitting plane is within the search radius.
        let axis = (m >> crate::tree::META_AXIS_SHIFT) as usize;
        let delta = query.coord(axis) - point.coord(axis);
        let (near, far) =
            if delta <= 0.0 { (2 * idx + 1, 2 * idx + 2) } else { (2 * idx + 2, 2 * idx + 1) };
        if delta * delta <= r2 && far < len {
            stack.push(far);
        }
        if near < len {
            stack.push(near);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crescent_pointcloud::{radius_search_bruteforce, PointCloud};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_cloud(n: usize, seed: u64) -> PointCloud {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                Point3::new(
                    rng.random::<f32>() * 4.0,
                    rng.random::<f32>() * 4.0,
                    rng.random::<f32>() * 4.0,
                )
            })
            .collect()
    }

    #[test]
    fn radius_search_matches_bruteforce() {
        let cloud = random_cloud(300, 11);
        let tree = KdTree::build(&cloud);
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..50 {
            let q = Point3::new(
                rng.random::<f32>() * 4.0,
                rng.random::<f32>() * 4.0,
                rng.random::<f32>() * 4.0,
            );
            let r = 0.3 + rng.random::<f32>();
            let mut got: Vec<usize> =
                radius_search(&tree, q, r, None).iter().map(|n| n.index).collect();
            let mut want: Vec<usize> =
                radius_search_bruteforce(&cloud, q, r, None).iter().map(|n| n.index).collect();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "query {q} radius {r}");
        }
    }

    #[test]
    fn radius_search_cap_keeps_nearest() {
        let cloud = random_cloud(200, 13);
        let tree = KdTree::build(&cloud);
        let q = Point3::splat(2.0);
        let capped = radius_search(&tree, q, 2.0, Some(5));
        let full = radius_search(&tree, q, 2.0, None);
        assert_eq!(capped.len(), 5.min(full.len()));
        assert_eq!(&full[..capped.len()], &capped[..]);
    }

    #[test]
    fn traced_counts_fetches() {
        let cloud = random_cloud(127, 17);
        let tree = KdTree::build(&cloud);
        let mut fetched = Vec::new();
        radius_search_traced(&tree, Point3::splat(2.0), 0.5, None, &mut |i| fetched.push(i));
        assert!(fetched.len() >= tree.height()); // at least one root-to-leaf path
        assert!(fetched.len() <= tree.len());
        assert!(fetched.iter().all(|&i| i < tree.len()));
        assert_eq!(fetched[0], 0, "traversal starts at the root");
    }

    #[test]
    fn pruning_beats_exhaustive() {
        // with a small radius, the K-d tree should visit far fewer nodes
        // than the cloud size (the whole point of space subdivision)
        let cloud = random_cloud(4096, 23);
        let tree = KdTree::build(&cloud);
        let mut visited = 0;
        radius_search_traced(&tree, Point3::splat(2.0), 0.1, None, &mut |_| visited += 1);
        assert!(visited < cloud.len() / 4, "visited {visited} of {}", cloud.len());
    }

    #[test]
    fn empty_and_degenerate() {
        let tree = KdTree::build(&PointCloud::new());
        assert!(radius_search(&tree, Point3::ZERO, 1.0, None).is_empty());
        let one: PointCloud = [Point3::ZERO].into_iter().collect();
        let tree = KdTree::build(&one);
        assert_eq!(radius_search(&tree, Point3::ZERO, 1.0, None).len(), 1);
    }
}
