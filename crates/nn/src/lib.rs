//! # lgo-nn
//!
//! A from-scratch neural-network library with full backpropagation, built on
//! [`lgo_tensor`]. It provides exactly the architectures the paper's systems
//! need:
//!
//! - [`Dense`] layers (the regressor and generator heads),
//! - [`LstmCell`] with complete backpropagation-through-time,
//! - [`BiLstmRegressor`] — the bidirectional-LSTM glucose forecaster of
//!   Rubin-Falcone et al. that the paper attacks,
//! - [`LstmSeq2Seq`] and [`LstmDiscriminator`] — the generator/discriminator
//!   pair used by the MAD-GAN anomaly detector,
//! - the [`Adam`] optimizer with global-norm gradient clipping.
//!
//! Everything is `f64` and deterministic given a seeded RNG, so every
//! experiment in the workspace reproduces bit-for-bit. Training itself
//! runs on the calling thread: parallelism lives one layer up, where
//! `lgo-runtime` fans out *independent* models (one forecaster or
//! detector per task, each with its own split seed) rather than sharing
//! one optimizer across threads, which would make float accumulation
//! order — and therefore results — scheduling-dependent.
//!
//! # Examples
//!
//! Fitting one [`Dense`] layer to `y = 2x − 1` with [`Adam`]:
//!
//! ```
//! use lgo_nn::{Activation, Adam, Dense, Loss, Trainable};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(42);
//! let mut layer = Dense::new(1, 1, Activation::Identity, &mut rng);
//! let xs = [-1.0, -0.5, 0.0, 0.5, 1.0];
//! let mut opt = Adam::new(0.05);
//! let (mut pre, mut y, mut dx) = ([0.0], [0.0], [0.0]);
//! for _ in 0..500 {
//!     layer.zero_grads();
//!     for &x in &xs {
//!         layer.forward_into(&[x], &mut pre, &mut y);
//!         let d = Loss::Mse.gradient(y[0], 2.0 * x - 1.0);
//!         layer.backward_into(&[x], &pre, &y, &[d], &mut dx);
//!     }
//!     opt.step(&mut layer);
//! }
//! assert!((layer.infer(&[0.25])[0] + 0.5).abs() < 1e-2);
//! ```

mod activation;
mod bilstm;
mod dense;
mod discriminator;
mod error;
pub mod init;
mod loss;
mod lstm;
mod optimizer;
mod seq2seq;

pub use activation::{sigmoid, tanh, Activation};
pub use bilstm::{BiLstmRegressor, SeqSample, DEFAULT_MAX_RECOVERIES};
pub use error::TrainError;
pub use dense::Dense;
pub use discriminator::LstmDiscriminator;
pub use loss::Loss;
pub use lstm::{LstmCell, LstmTrace};
pub use optimizer::{clip_global_norm, Adam, Trainable};
pub use seq2seq::{LstmSeq2Seq, Seq2SeqTrace};
