use std::error::Error;
use std::fmt;

/// Error describing an invalid dendrogram construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// Fewer than two leaves — nothing to cluster. Profiling a cohort that
    /// degraded to a single usable patient lands here.
    TooFewLeaves {
        /// The offending leaf count.
        got: usize,
    },
    /// The merge list length is not `n_leaves - 1`.
    WrongMergeCount {
        /// Merges supplied.
        merges: usize,
        /// Leaves supplied.
        leaves: usize,
    },
    /// A merge references a node id that does not exist yet.
    FutureNode {
        /// Index of the offending merge.
        merge: usize,
    },
    /// A merge lists the same node as both children.
    SelfMerge {
        /// Index of the offending merge.
        merge: usize,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::TooFewLeaves { got } => {
                write!(f, "need at least two leaves to cluster, got {got}")
            }
            ClusterError::WrongMergeCount { merges, leaves } => {
                write!(f, "{merges} merges for {leaves} leaves")
            }
            ClusterError::FutureNode { merge } => {
                write!(f, "merge {merge} references a future node")
            }
            ClusterError::SelfMerge { merge } => write!(f, "self-merge at {merge}"),
        }
    }
}

impl Error for ClusterError {}

/// One agglomerative merge: nodes `left` and `right` join at `height` into a
/// cluster of `size` leaves.
///
/// Node ids use the scipy convention: ids below `n_leaves` are leaves, id
/// `n_leaves + i` is the cluster formed by merge `i`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Merge {
    /// First child node id.
    pub left: usize,
    /// Second child node id.
    pub right: usize,
    /// Linkage distance at which the children merge.
    pub height: f64,
    /// Number of leaves under the new cluster.
    pub size: usize,
}

/// The full merge tree produced by agglomerative clustering.
///
/// # Examples
///
/// ```
/// use lgo_cluster::{agglomerate_points, Linkage};
///
/// let dendro = agglomerate_points(&[vec![0.0], vec![0.5], vec![9.0]], Linkage::Average);
/// assert_eq!(dendro.n_leaves(), 3);
/// assert_eq!(dendro.cut_k(2), vec![0, 0, 1]);
/// assert!(dendro.render_ascii_with(None).contains("height"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dendrogram {
    n_leaves: usize,
    merges: Vec<Merge>,
}

impl Dendrogram {
    /// Assembles a dendrogram from its merge list.
    ///
    /// Unlike [`try_new`](Self::try_new), a degenerate single-leaf
    /// dendrogram is allowed (it carries no merges).
    ///
    /// # Panics
    ///
    /// Panics if the merge count is not `n_leaves - 1` (for `n_leaves > 0`)
    /// or any merge references an out-of-range node.
    pub fn new(n_leaves: usize, merges: Vec<Merge>) -> Self {
        assert!(n_leaves > 0, "Dendrogram: need at least one leaf");
        if n_leaves == 1 {
            assert!(
                merges.is_empty(),
                "Dendrogram: {} merges for 1 leaves",
                merges.len()
            );
            return Self { n_leaves, merges };
        }
        match Self::try_new(n_leaves, merges) {
            Ok(d) => d,
            // lint: allow(L1): documented panicking wrapper; try_new is the checked path
            Err(e) => panic!("Dendrogram: {e}"),
        }
    }

    /// Fallible [`new`](Self::new), stricter about degenerate input: a
    /// meaningful clustering needs at least two leaves, so `n_leaves < 2`
    /// is an error here rather than a panic or a silent trivial tree.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::TooFewLeaves`] for fewer than two leaves,
    /// [`ClusterError::WrongMergeCount`] when the merge list length is not
    /// `n_leaves - 1`, and [`ClusterError::FutureNode`] /
    /// [`ClusterError::SelfMerge`] for structurally invalid merges.
    pub fn try_new(n_leaves: usize, merges: Vec<Merge>) -> Result<Self, ClusterError> {
        if n_leaves < 2 {
            return Err(ClusterError::TooFewLeaves { got: n_leaves });
        }
        if merges.len() != n_leaves - 1 {
            return Err(ClusterError::WrongMergeCount {
                merges: merges.len(),
                leaves: n_leaves,
            });
        }
        for (i, m) in merges.iter().enumerate() {
            let max_node = n_leaves + i;
            if m.left >= max_node || m.right >= max_node {
                return Err(ClusterError::FutureNode { merge: i });
            }
            if m.left == m.right {
                return Err(ClusterError::SelfMerge { merge: i });
            }
        }
        Ok(Self { n_leaves, merges })
    }

    /// Number of leaves (original observations).
    pub fn n_leaves(&self) -> usize {
        self.n_leaves
    }

    /// The merges in execution order.
    pub fn merges(&self) -> &[Merge] {
        &self.merges
    }

    /// Cluster labels for exactly `k` clusters (cutting the `k-1` highest
    /// merges).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `k > n_leaves`.
    pub fn cut_k(&self, k: usize) -> Vec<usize> {
        assert!(k > 0, "cut_k: k must be positive");
        assert!(
            k <= self.n_leaves,
            "cut_k: k = {k} > {} leaves",
            self.n_leaves
        );
        // Apply merges in height order, stopping when k clusters remain.
        let mut order: Vec<usize> = (0..self.merges.len()).collect();
        order.sort_by(|&a, &b| {
            self.merges[a]
                .height
                .total_cmp(&self.merges[b].height)
                .then(a.cmp(&b))
        });
        let to_apply = self.n_leaves - k;
        let mut parent: Vec<usize> = (0..self.n_leaves + self.merges.len()).collect();
        fn find(parent: &mut Vec<usize>, x: usize) -> usize {
            if parent[x] != x {
                let root = find(parent, parent[x]);
                parent[x] = root;
            }
            parent[x]
        }
        for &mi in order.iter().take(to_apply) {
            let m = self.merges[mi];
            let node = self.n_leaves + mi;
            let rl = find(&mut parent, m.left);
            let rr = find(&mut parent, m.right);
            parent[rl] = node;
            parent[rr] = node;
        }
        self.relabel(&mut parent)
    }

    fn relabel(&self, parent: &mut Vec<usize>) -> Vec<usize> {
        fn find(parent: &mut Vec<usize>, x: usize) -> usize {
            if parent[x] != x {
                let root = find(parent, parent[x]);
                parent[x] = root;
            }
            parent[x]
        }
        let mut labels = Vec::with_capacity(self.n_leaves);
        let mut mapping: Vec<(usize, usize)> = Vec::new();
        for leaf in 0..self.n_leaves {
            let root = find(parent, leaf);
            let label = match mapping.iter().find(|&&(r, _)| r == root) {
                Some(&(_, l)) => l,
                None => {
                    let l = mapping.len();
                    mapping.push((root, l));
                    l
                }
            };
            labels.push(label);
        }
        labels
    }

    /// Leaves under a node id (leaf ids themselves or merge nodes).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn leaves_under(&self, node: usize) -> Vec<usize> {
        assert!(
            node < self.n_leaves + self.merges.len(),
            "leaves_under: node {node} out of range"
        );
        if node < self.n_leaves {
            return vec![node];
        }
        let m = self.merges[node - self.n_leaves];
        let mut out = self.leaves_under(m.left);
        out.extend(self.leaves_under(m.right));
        out.sort_unstable();
        out
    }

    /// Renders the dendrogram as indented ASCII text, one merge per line in
    /// execution order, with the member leaves of each side — a textual
    /// stand-in for the paper's Figure 3 dendrograms. `labels` supplies leaf
    /// names (falls back to indices when `None`).
    pub fn render_ascii_with(&self, labels: Option<&[String]>) -> String {
        let name = |leaf: usize| -> String {
            labels
                .and_then(|ls| ls.get(leaf))
                .cloned()
                .unwrap_or_else(|| leaf.to_string())
        };
        let mut out = String::new();
        for (i, m) in self.merges.iter().enumerate() {
            let left: Vec<String> = self.leaves_under(m.left).into_iter().map(name).collect();
            let right: Vec<String> = self.leaves_under(m.right).into_iter().map(name).collect();
            out.push_str(&format!(
                "merge {:>2} @ height {:>10.4}: [{}] + [{}]\n",
                i,
                m.height,
                left.join(", "),
                right.join(", ")
            ));
        }
        out
    }
}

impl fmt::Display for Dendrogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Dendrogram({} leaves, {} merges)",
            self.n_leaves,
            self.merges.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linkage::{agglomerate_points, Linkage};

    fn two_groups() -> Dendrogram {
        agglomerate_points(
            &[vec![0.0], vec![0.5], vec![10.0], vec![10.5], vec![11.0]],
            Linkage::Average,
        )
    }

    #[test]
    fn cut_k_extremes() {
        let d = two_groups();
        assert_eq!(d.cut_k(1), vec![0, 0, 0, 0, 0]);
        let all = d.cut_k(5);
        assert_eq!(all, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn cut_k_two_recovers_groups() {
        let labels = two_groups().cut_k(2);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[2], labels[3]);
        assert_eq!(labels[3], labels[4]);
        assert_ne!(labels[0], labels[2]);
    }

    #[test]
    fn leaves_under_nodes() {
        let d = two_groups();
        assert_eq!(d.leaves_under(2), vec![2]);
        let root = d.n_leaves() + d.merges().len() - 1;
        assert_eq!(d.leaves_under(root), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn ascii_render_mentions_all_leaves() {
        let d = two_groups();
        let names: Vec<String> = ["a", "b", "c", "d", "e"].iter().map(|s| s.to_string()).collect();
        let text = d.render_ascii_with(Some(&names));
        for n in &names {
            assert!(text.contains(n.as_str()), "missing {n} in:\n{text}");
        }
        assert!(!d.to_string().is_empty());
    }

    #[test]
    #[should_panic(expected = "merges for")]
    fn wrong_merge_count_rejected() {
        let _ = Dendrogram::new(3, vec![]);
    }

    #[test]
    fn try_new_rejects_degenerate_and_invalid_input() {
        assert_eq!(
            Dendrogram::try_new(0, vec![]),
            Err(ClusterError::TooFewLeaves { got: 0 })
        );
        assert_eq!(
            Dendrogram::try_new(1, vec![]),
            Err(ClusterError::TooFewLeaves { got: 1 })
        );
        assert_eq!(
            Dendrogram::try_new(3, vec![]),
            Err(ClusterError::WrongMergeCount { merges: 0, leaves: 3 })
        );
        let future = Merge { left: 0, right: 5, height: 1.0, size: 2 };
        assert_eq!(
            Dendrogram::try_new(2, vec![future]),
            Err(ClusterError::FutureNode { merge: 0 })
        );
        let selfm = Merge { left: 1, right: 1, height: 1.0, size: 2 };
        assert_eq!(
            Dendrogram::try_new(2, vec![selfm]),
            Err(ClusterError::SelfMerge { merge: 0 })
        );
        let ok = Merge { left: 0, right: 1, height: 1.0, size: 2 };
        let d = Dendrogram::try_new(2, vec![ok]).unwrap();
        assert_eq!(d.cut_k(2), vec![0, 1]);
    }

    #[test]
    fn new_still_permits_single_leaf() {
        let d = Dendrogram::new(1, vec![]);
        assert_eq!(d.cut_k(1), vec![0]);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn cut_k_zero_rejected() {
        let _ = two_groups().cut_k(0);
    }
}
