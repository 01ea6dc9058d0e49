//! # lgo-nn
//!
//! A from-scratch neural-network library with full backpropagation, built on
//! [`lgo_tensor`]. It provides exactly the architectures the paper's systems
//! need:
//!
//! - [`Dense`] layers and [`Mlp`] feed-forward networks,
//! - [`LstmCell`] with complete backpropagation-through-time,
//! - [`BiLstmRegressor`] — the bidirectional-LSTM glucose forecaster of
//!   Rubin-Falcone et al. that the paper attacks,
//! - [`LstmSeq2Seq`] and [`LstmDiscriminator`] — the generator/discriminator
//!   pair used by the MAD-GAN anomaly detector,
//! - [`Sgd`] and [`Adam`] optimizers with global-norm gradient clipping.
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
//! Training a tiny MLP on XOR:
//!
//! ```
//! use lgo_nn::{Activation, Adam, Loss, Mlp, Trainable};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(42);
//! let mut mlp = Mlp::new(&[2, 8, 1], Activation::Tanh, Activation::Sigmoid, &mut rng);
//! let xs = [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]];
//! let ys = [0.0, 1.0, 1.0, 0.0];
//! let mut opt = Adam::new(0.05);
//! for _ in 0..400 {
//!     mlp.zero_grads();
//!     for (x, &y) in xs.iter().zip(&ys) {
//!         let out = mlp.forward(x);
//!         let d = Loss::Mse.gradient(out[0], y);
//!         mlp.backward(&[d]);
//!     }
//!     opt.step(&mut mlp);
//! }
//! assert!(mlp.forward(&[1.0, 0.0])[0] > 0.5);
//! assert!(mlp.forward(&[1.0, 1.0])[0] < 0.5);
//! ```

mod activation;
mod bigru;
mod bilstm;
mod dense;
mod discriminator;
mod error;
mod gru;
pub mod init;
mod loss;
mod lstm;
mod mlp;
mod optimizer;
mod seq2seq;

pub use activation::{sigmoid, Activation};
pub use bigru::BiGruRegressor;
pub use bilstm::{BiLstmRegressor, SeqSample, DEFAULT_MAX_RECOVERIES};
pub use error::TrainError;
pub use dense::Dense;
pub use gru::{GruCell, GruState, GruTrace};
pub use discriminator::LstmDiscriminator;
pub use loss::Loss;
pub use lstm::{LstmCell, LstmTrace};
pub use mlp::Mlp;
pub use optimizer::{clip_global_norm, Adam, Sgd, Trainable};
pub use seq2seq::LstmSeq2Seq;
