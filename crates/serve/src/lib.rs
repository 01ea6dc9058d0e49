//! # lgo-serve
//!
//! A fault-tolerant online scoring service that turns the workspace's
//! batch defense pipeline into a long-running stream processor: CGM
//! samples arrive per patient, per-patient sliding-window state machines
//! cut them into detector windows, and micro-batches of windows are
//! scored through the paper's MAD-GAN → OC-SVM → kNN ladder.
//!
//! Robustness is the design center, engineered as four explicit layers
//! (DESIGN.md §14):
//!
//! 1. **Backpressure** — ingest goes through a *bounded* queue
//!    ([`lgo_runtime::BoundedQueue`]). A producer that outruns scoring is
//!    rejected (or blocked) with exact depth accounting; service memory
//!    never grows with offered load.
//! 2. **Graded load-shedding** — queue pressure degrades scoring down
//!    the detector ladder ([`DetectorBank`]) level by level before the
//!    service ever stops scoring, and a shed cycle still advances every
//!    patient state machine; only scoring work is skipped. Every shed
//!    and degrade decision is counted in `lgo-trace`.
//! 3. **Watchdog deadlines** — each micro-batch scoring call can run
//!    under a wall-clock deadline with bounded retry-with-backoff
//!    ([`Watchdog`]); a stalled detector becomes a counted deadline miss
//!    and a ladder fall-through, not a wedged service. Attempts run on
//!    long-lived worker threads that are reused from cycle to cycle;
//!    a worker abandoned on a miss is retired, accounted exactly and
//!    capped.
//! 4. **Patient quarantine** — a detector panic on one patient's window
//!    is captured per window, quarantines *that patient only*
//!    (bounded-memory state is dropped, later samples are rejected at
//!    the door), and the process keeps serving everyone else.
//!
//! Determinism boundary: with no deadline configured, scoring runs
//! inline and every [`ServeStats`] counter is a pure function of the
//! ingest/drain interleave — byte-identical across `LGO_THREADS`
//! settings (`tests/serve.rs` pins this). Watchdog counters are
//! timing-dependent by nature and reported separately.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use lgo_detect::{AnomalyDetector, Window};
//! use lgo_serve::{DetectorBank, Sample, ScoringService, ServeConfig};
//!
//! struct Mean;
//! impl AnomalyDetector for Mean {
//!     fn name(&self) -> &str { "mean" }
//!     fn score(&self, w: &Window) -> f64 {
//!         w.iter().map(|r| r[0]).sum::<f64>() / w.len() as f64 - 50.0
//!     }
//! }
//!
//! let cfg = ServeConfig { seq_len: 4, stride: 2, ..ServeConfig::default() };
//! let svc = ScoringService::new(cfg, DetectorBank::new(vec![Arc::new(Mean)]));
//! for t in 0..8 {
//!     svc.try_ingest(Sample { patient: 0, row: vec![100.0 + t as f64] });
//! }
//! svc.drain_cycle();
//! let report = svc.report();
//! assert_eq!(report.stats.windows_emitted, 3);
//! assert_eq!(report.stats.anomalies, 3); // all windows mean > 50
//! ```

mod config;
mod inject;
mod ladder;
mod patient;
mod report;
mod service;
mod watchdog;

pub use config::ServeConfig;
pub use inject::{PanickingDetector, StallingDetector, POISON};
pub use ladder::DetectorBank;
pub use patient::PatientState;
pub use report::{ServeReport, ServeStats};
pub use service::{CycleOutcome, Sample, ScoringService};
pub use watchdog::{Watchdog, WatchdogError, WatchdogStats};
