//! A KD-tree for exact k-nearest-neighbour queries under any Minkowski
//! order p ≥ 1 — the kNN detector's only search backend. The paper's
//! Appendix B passes scikit-learn `algorithm="auto", leaf_size=30`; an
//! exact search returns the brute-force neighbour set (up to ties at the
//! k-th distance), so the backend changes speed, not verdicts.
//!
//! Searches rank points by the *reduced* distance Σ|a−b|^p (max |a−b| for
//! p = ∞): a monotone function of the true distance, so no comparison
//! needs a root.

/// Leaf bucket size (the paper's, and scikit-learn's default).
const LEAF_SIZE: usize = 30;

/// The Minkowski order, resolved once at build time.
#[derive(Debug, Clone, Copy)]
enum Metric {
    /// p = 2.
    Euclidean,
    /// p = ∞.
    Chebyshev,
    /// Any other finite p ≥ 1.
    Minkowski(f64),
}

impl Metric {
    fn new(p: f64) -> Self {
        if (p - 2.0).abs() < f64::EPSILON {
            Metric::Euclidean
        } else if p.is_infinite() {
            Metric::Chebyshev
        } else {
            Metric::Minkowski(p)
        }
    }

    /// Reduced distance between a stored point and the query.
    fn rdist(self, point: &[f64], query: &[f64]) -> f64 {
        let pairs = point.iter().zip(query);
        match self {
            Metric::Euclidean => pairs.map(|(&a, &b)| (a - b) * (a - b)).sum(),
            Metric::Chebyshev => pairs.map(|(&a, &b)| (a - b).abs()).fold(0.0, f64::max),
            Metric::Minkowski(p) => pairs.map(|(&a, &b)| (a - b).abs().powf(p)).sum(),
        }
    }

    /// Reduced distance from the query to a splitting plane `diff` away
    /// along the split axis: a lower bound on the far side's points.
    fn plane(self, diff: f64) -> f64 {
        match self {
            Metric::Euclidean => diff * diff,
            Metric::Chebyshev => diff.abs(),
            Metric::Minkowski(p) => diff.abs().powf(p),
        }
    }
}

/// A balanced KD-tree over points of equal dimension.
#[derive(Debug, Clone)]
pub(crate) struct KdTree {
    points: Vec<Vec<f64>>,
    nodes: Vec<Node>,
    root: Option<usize>,
    metric: Metric,
}

#[derive(Debug, Clone)]
enum Node {
    /// Interior split: axis, threshold, children node ids.
    Split {
        axis: usize,
        value: f64,
        left: usize,
        right: usize,
    },
    /// Leaf bucket of point indices.
    Leaf(Vec<usize>),
}

impl KdTree {
    /// Builds a tree over `points` for Minkowski order `p` (validated by
    /// the caller: p ≥ 1, possibly infinite).
    ///
    /// # Panics
    ///
    /// Panics if points are ragged or any coordinate is NaN.
    pub(crate) fn build(points: Vec<Vec<f64>>, p: f64) -> Self {
        if let Some(first) = points.first() {
            let dim = first.len();
            for (i, pt) in points.iter().enumerate() {
                assert_eq!(pt.len(), dim, "KdTree: point {i} has wrong dimension");
                assert!(pt.iter().all(|v| !v.is_nan()), "KdTree: NaN in point {i}");
            }
        }
        let mut tree = Self {
            nodes: Vec::new(),
            root: None,
            metric: Metric::new(p),
            points,
        };
        if !tree.points.is_empty() {
            let mut idx: Vec<usize> = (0..tree.points.len()).collect();
            let root = tree.build_node(&mut idx, 0);
            tree.root = Some(root);
        }
        tree
    }

    fn build_node(&mut self, idx: &mut [usize], depth: usize) -> usize {
        if idx.len() <= LEAF_SIZE {
            self.nodes.push(Node::Leaf(idx.to_vec()));
            return self.nodes.len() - 1;
        }
        let dim = self.points[0].len();
        // Split on the axis with the largest spread among candidates (more
        // robust than round-robin on skewed data).
        let axis = (0..dim)
            .max_by(|&a, &b| {
                let spread = |ax: usize| {
                    let mut lo = f64::INFINITY;
                    let mut hi = f64::NEG_INFINITY;
                    for &i in idx.iter() {
                        lo = lo.min(self.points[i][ax]);
                        hi = hi.max(self.points[i][ax]);
                    }
                    hi - lo
                };
                spread(a).total_cmp(&spread(b))
            })
            .unwrap_or(depth % dim.max(1));
        let mid = idx.len() / 2;
        idx.select_nth_unstable_by(mid, |&a, &b| {
            self.points[a][axis].total_cmp(&self.points[b][axis])
        });
        let value = self.points[idx[mid]][axis];
        let (left_idx, right_idx) = idx.split_at_mut(mid);
        // Degenerate split (all equal on the axis): bucket everything.
        if left_idx.is_empty() || right_idx.is_empty() {
            self.nodes.push(Node::Leaf(idx.to_vec()));
            return self.nodes.len() - 1;
        }
        let mut left_own = left_idx.to_vec();
        let mut right_own = right_idx.to_vec();
        let left = self.build_node(&mut left_own, depth + 1);
        let right = self.build_node(&mut right_own, depth + 1);
        self.nodes.push(Node::Split {
            axis,
            value,
            left,
            right,
        });
        self.nodes.len() - 1
    }

    /// Number of indexed points.
    pub(crate) fn len(&self) -> usize {
        self.points.len()
    }

    /// Exact k nearest neighbours of `query`, returned as
    /// `(point index, reduced distance)` sorted ascending.
    ///
    /// # Panics
    ///
    /// Panics if the query dimension differs from the indexed points'.
    pub(crate) fn nearest(&self, query: &[f64], k: usize) -> Vec<(usize, f64)> {
        let Some(root) = self.root else {
            return Vec::new();
        };
        assert_eq!(
            query.len(),
            self.points[0].len(),
            "KdTree::nearest: query dimension mismatch"
        );
        let k = k.min(self.points.len());
        if k == 0 {
            return Vec::new();
        }
        // Max-heap by distance (keep the k best).
        let mut heap: Vec<(f64, usize)> = Vec::with_capacity(k + 1);
        self.search(root, query, k, &mut heap);
        heap.sort_by(|a, b| a.0.total_cmp(&b.0));
        heap.into_iter().map(|(d, i)| (i, d)).collect()
    }

    fn search(&self, node: usize, query: &[f64], k: usize, heap: &mut Vec<(f64, usize)>) {
        match &self.nodes[node] {
            Node::Leaf(bucket) => {
                for &i in bucket {
                    let d = self.metric.rdist(&self.points[i], query);
                    if heap.len() < k {
                        heap.push((d, i));
                        heap.sort_by(|a, b| b.0.total_cmp(&a.0));
                    } else if d < heap[0].0 {
                        heap[0] = (d, i);
                        heap.sort_by(|a, b| b.0.total_cmp(&a.0));
                    }
                }
            }
            Node::Split {
                axis,
                value,
                left,
                right,
            } => {
                let diff = query[*axis] - value;
                let (near, far) = if diff <= 0.0 {
                    (*left, *right)
                } else {
                    (*right, *left)
                };
                self.search(near, query, k, heap);
                // Visit the far side only if the splitting plane is closer
                // than the current k-th distance.
                if heap.len() < k || self.metric.plane(diff) < heap[0].0 {
                    self.search(far, query, k, heap);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, RngExt, SeedableRng};

    fn brute_force(points: &[Vec<f64>], query: &[f64], k: usize, p: f64) -> Vec<(usize, f64)> {
        let metric = Metric::new(p);
        let mut d: Vec<(usize, f64)> = points
            .iter()
            .enumerate()
            .map(|(i, pt)| (i, metric.rdist(pt, query)))
            .collect();
        d.sort_by(|a, b| a.1.total_cmp(&b.1));
        d.truncate(k);
        d
    }

    fn random_points(n: usize, dim: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..dim).map(|_| rng.random_range(-10.0..10.0)).collect())
            .collect()
    }

    #[test]
    fn matches_brute_force_exactly_for_every_order() {
        let points = random_points(500, 3, 1);
        for p in [1.0, 2.0, 3.0, f64::INFINITY] {
            let tree = KdTree::build(points.clone(), p);
            let mut rng = StdRng::seed_from_u64(2);
            for _ in 0..50 {
                let q: Vec<f64> = (0..3).map(|_| rng.random_range(-12.0..12.0)).collect();
                let got = tree.nearest(&q, 7);
                let want = brute_force(&points, &q, 7, p);
                // Distances must match exactly (ties may permute indices).
                let bits = |v: &[(usize, f64)]| v.iter().map(|x| x.1.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "p = {p}");
            }
        }
    }

    #[test]
    fn exact_across_leaf_boundaries() {
        // Up to one leaf, exactly one, one split, and several levels.
        for n in [1, LEAF_SIZE, LEAF_SIZE + 1, 200] {
            let points = random_points(n, 2, 3);
            let tree = KdTree::build(points.clone(), 2.0);
            let got = tree.nearest(&[0.0, 0.0], 5);
            let want = brute_force(&points, &[0.0, 0.0], 5, 2.0);
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.1.to_bits(), w.1.to_bits(), "n = {n}");
            }
        }
    }

    #[test]
    fn k_larger_than_points_clamps() {
        let tree = KdTree::build(random_points(3, 2, 4), 2.0);
        assert_eq!(tree.nearest(&[0.0, 0.0], 10).len(), 3);
        assert_eq!(tree.len(), 3);
    }

    #[test]
    fn empty_tree_returns_nothing() {
        let tree = KdTree::build(Vec::new(), 2.0);
        assert_eq!(tree.len(), 0);
        assert!(tree.nearest(&[0.0], 3).is_empty());
    }

    #[test]
    fn duplicate_points_handled() {
        let points = vec![vec![1.0, 1.0]; 50];
        let tree = KdTree::build(points, 2.0);
        let hits = tree.nearest(&[1.0, 1.0], 7);
        assert_eq!(hits.len(), 7);
        assert!(hits.iter().all(|&(_, d)| d == 0.0));
    }

    #[test]
    #[should_panic(expected = "NaN in point")]
    fn nan_points_rejected() {
        let _ = KdTree::build(vec![vec![f64::NAN]], 2.0);
    }
}
