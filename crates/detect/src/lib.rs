//! # lgo-detect
//!
//! The three anomaly detectors the paper defends with selective training:
//!
//! - [`KnnDetector`] — a k-nearest-neighbour classifier with the paper's
//!   Appendix-B parameters (k = 7, uniform weights, Minkowski p = 2),
//! - [`OneClassSvm`] — a ν-one-class SVM trained by SMO with the paper's
//!   sigmoid kernel (γ = auto, coef0 = 10, ν = 0.5, tol = 1e-3),
//! - [`MadGan`] — multivariate anomaly detection GAN (Li et al., 2019) with
//!   LSTM generator/discriminator and the DR-Score (discrimination +
//!   reconstruction) anomaly score, at the paper's window parameters
//!   (4 signals, seq_len 12, step 1).
//!
//! All detectors consume fixed-length multivariate windows and expose the
//! common [`AnomalyDetector`] trait: a real-valued anomaly score (higher =
//! more anomalous) plus a boolean decision.
//!
//! # Examples
//!
//! ```
//! use lgo_detect::{AnomalyDetector, KnnDetector, KnnConfig};
//!
//! // Benign windows cluster near 0; the malicious one sits far away.
//! let benign: Vec<Vec<Vec<f64>>> = (0..20)
//!     .map(|i| vec![vec![i as f64 * 0.01]; 4])
//!     .collect();
//! let malicious: Vec<Vec<Vec<f64>>> = (0..20)
//!     .map(|i| vec![vec![5.0 + i as f64 * 0.01]; 4])
//!     .collect();
//! let knn = KnnDetector::fit(&benign, &malicious, &KnnConfig::default());
//! assert!(knn.is_anomalous(&vec![vec![5.1]; 4]));
//! assert!(!knn.is_anomalous(&vec![vec![0.05]; 4]));
//! ```

mod detector;
mod error;
mod kdtree;
mod kernel_cache;
mod knn;
mod madgan;
mod ocsvm;
mod subsample;
pub mod summary;

pub use detector::AnomalyDetector;
pub use error::DetectError;
pub use kernel_cache::{global as kernel_cache_global, KernelCache, KernelCacheStats};
pub use knn::{KnnConfig, KnnDetector};
pub use madgan::{MadGan, MadGanConfig};
pub use detector::{ScoreScratch, Window};
pub use ocsvm::{Kernel, KernelSpec, OcSvmConfig, OneClassSvm};
pub use subsample::{subsample_cap, subsample_indices};
pub use summary::{
    cgm_summary, cgm_summary_mode, cgm_summary_mode_into, summarize_all_mode, CgmSummaryDetector,
    SummaryMode,
};
