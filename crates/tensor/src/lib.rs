//! # lgo-tensor
//!
//! Small, dependency-light dense linear algebra used by every ML component in
//! the `lgo` workspace (the neural-network library, the anomaly detectors and
//! the clustering code).
//!
//! The central type is [`Matrix`], a row-major dense `f64` matrix. Vectors are
//! plain `&[f64]` slices operated on by the free functions in [`vector`].
//! Matrices are deliberately simple — the workloads in this project involve
//! hidden sizes of at most a few dozen, where cache-friendly row-major loops
//! beat the overhead of a full BLAS binding and keep every experiment
//! bit-for-bit reproducible.
//!
//! # Examples
//!
//! ```
//! use lgo_tensor::Matrix;
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Matrix::identity(2);
//! let c = a.matmul(&b);
//! assert_eq!(c, a);
//! ```

mod block;
mod error;
mod matrix;
pub mod sanitize;
pub mod vector;

pub use error::ShapeError;
pub use matrix::Matrix;
