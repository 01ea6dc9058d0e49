//! # lgo-cluster
//!
//! Agglomerative hierarchical clustering — Step 4 of the paper's risk
//! profiling framework, which groups per-victim time-series risk profiles
//! into vulnerability clusters by cutting a dendrogram.
//!
//! The implementation follows the classic Lance–Williams recurrence, so all
//! four standard linkages (single, complete, average, Ward) share one
//! update rule. With the paper's twelve patients the O(n³) naive algorithm
//! is instantaneous; no priority-queue cleverness is warranted.
//!
//! # Examples
//!
//! ```
//! use lgo_cluster::{agglomerate_points, Linkage};
//!
//! // Two obvious groups on a line.
//! let points = vec![
//!     vec![0.0], vec![0.1], vec![0.2],
//!     vec![10.0], vec![10.1],
//! ];
//! let dendro = agglomerate_points(&points, Linkage::Average);
//! let labels = dendro.cut_k(2);
//! assert_eq!(labels[0], labels[1]);
//! assert_eq!(labels[3], labels[4]);
//! assert_ne!(labels[0], labels[3]);
//! ```

mod dendrogram;
mod linkage;

pub use dendrogram::{ClusterError, Dendrogram, Merge};
pub use linkage::{agglomerate, agglomerate_points, distance_matrix, Linkage};
