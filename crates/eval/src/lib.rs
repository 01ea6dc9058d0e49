//! # lgo-eval
//!
//! Evaluation toolkit for the anomaly-detection experiments: confusion
//! matrices and derived rates (the paper optimizes **recall** — i.e. the
//! false-negative rate — while monitoring precision and F1), plus ASCII
//! tables and bar/box charts so every harness binary can print the same
//! rows and series the paper's tables and figures report.
//!
//! # Examples
//!
//! ```
//! use lgo_eval::ConfusionMatrix;
//!
//! // One hit, one false alarm, one miss, one correct pass.
//! let cm = ConfusionMatrix { tp: 1, fp: 1, tn: 1, fn_: 1 };
//! assert_eq!(cm.total(), 4);
//! assert_eq!(cm.precision(), 0.5);
//! assert_eq!(cm.recall(), 0.5);
//! ```

mod confusion;
pub mod render;
mod roc;

pub use confusion::ConfusionMatrix;
pub use roc::{RocCurve, RocPoint};
