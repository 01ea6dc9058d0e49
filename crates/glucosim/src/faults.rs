//! Deterministic CGM fault injection.
//!
//! Real continuous glucose monitors fail in well-documented ways: readings
//! drop out, Bluetooth links go silent for whole windows, electrodes get
//! stuck and repeat a value, electronics glitch into spikes, and
//! calibration drifts between finger-stick recalibrations. A defense
//! pipeline evaluated only on clean simulator output overstates its field
//! robustness, so this module lets experiments corrupt any
//! [`PatientDataset`] with a seeded, reproducible mix of those fault
//! models before the pipeline ever sees it.
//!
//! Faults target the `cgm` channel only (the attacked and defended
//! signal); other channels pass through untouched. Missing data is encoded
//! as `NaN`, which downstream stages treat as a degraded patient — the
//! pipeline's `try_run` path skips patients whose data degrades beyond
//! use instead of aborting the cohort.
//!
//! # Examples
//!
//! ```
//! use lgo_glucosim::{FaultInjector, FaultKind, PatientDataset};
//! use lgo_glucosim::{profile, PatientId, Subset};
//!
//! let ds = PatientDataset::generate(profile(PatientId::new(Subset::A, 0)), 1, 1);
//! let injector = FaultInjector::new(7)
//!     .with_fault(FaultKind::Dropout { rate: 0.05 })
//!     .with_fault(FaultKind::SpikeNoise { rate: 0.01, magnitude: 80.0 });
//! let faulty = injector.apply_dataset(&ds);
//! assert_eq!(faulty.train.len(), ds.train.len());
//! // Same seed, same faults, same input => identical corruption.
//! let again = injector.apply_dataset(&ds);
//! let bits = |s: &lgo_series::MultiSeries| -> Vec<u64> {
//!     s.channel("cgm").unwrap().iter().map(|v| v.to_bits()).collect()
//! };
//! assert_eq!(bits(&faulty.train), bits(&again.train));
//! ```

use lgo_series::MultiSeries;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::dataset::PatientDataset;
use crate::sensor::{CGM_MAX, CGM_MIN};

/// Lower bound of the physiologically plausible CGM range faults respect
/// (mg/dL).
pub const FAULT_CGM_MIN: f64 = 40.0;
/// Upper bound of the physiologically plausible CGM range faults respect
/// (mg/dL). Spike faults may exceed this (they model electronics glitches
/// that rail toward the sensor's reporting ceiling).
pub const FAULT_CGM_MAX: f64 = 400.0;

/// One fault model applied to a CGM series.
///
/// All `rate` fields are per-sample probabilities in `[0, 1]`; value-level
/// faults keep readings inside the plausible physical range
/// [`FAULT_CGM_MIN`]..[`FAULT_CGM_MAX`] except [`FaultKind::SpikeNoise`],
/// which is clamped only to the sensor reporting range.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// Each sample independently becomes missing (`NaN`) with probability
    /// `rate` — intermittent radio loss.
    Dropout {
        /// Per-sample dropout probability in `[0, 1]`.
        rate: f64,
    },
    /// `count` contiguous windows of `len` samples become missing (`NaN`)
    /// at random positions — the receiver out of range for a stretch.
    TransmissionGap {
        /// Number of gaps to carve.
        count: usize,
        /// Samples per gap (must be positive).
        len: usize,
    },
    /// With probability `rate` per sample the sensor freezes, repeating
    /// the previous reading for `len` samples — a stuck electrode.
    StuckAt {
        /// Per-sample freeze probability in `[0, 1]`.
        rate: f64,
        /// Samples held at the frozen value (must be positive).
        len: usize,
    },
    /// With probability `rate` per sample the reading jumps by up to
    /// `±magnitude` mg/dL — transient electronics glitches. The only
    /// fault allowed to leave the plausible physical range.
    SpikeNoise {
        /// Per-sample spike probability in `[0, 1]`.
        rate: f64,
        /// Maximum absolute spike height in mg/dL (must be `>= 0`).
        magnitude: f64,
    },
    /// A bias ramp of `per_sample` mg/dL per reading (random sign),
    /// saturating at `±max_abs` — calibration drifting between
    /// finger-stick recalibrations.
    CalibrationDrift {
        /// Drift accumulated per sample in mg/dL (must be `>= 0`).
        per_sample: f64,
        /// Saturation bound on the accumulated bias (must be `>= 0`).
        max_abs: f64,
    },
}

impl FaultKind {
    /// Short stable name for reports and JSON output.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::Dropout { .. } => "dropout",
            FaultKind::TransmissionGap { .. } => "transmission_gap",
            FaultKind::StuckAt { .. } => "stuck_at",
            FaultKind::SpikeNoise { .. } => "spike_noise",
            FaultKind::CalibrationDrift { .. } => "calibration_drift",
        }
    }

    /// Panics with a descriptive message if the parameters are out of
    /// range (rates outside `[0, 1]`, non-finite or negative magnitudes,
    /// zero-length windows).
    fn validate(&self) {
        let rate_ok = |r: f64| (0.0..=1.0).contains(&r);
        match *self {
            FaultKind::Dropout { rate } => {
                assert!(rate_ok(rate), "Dropout: rate must be in [0, 1], got {rate}");
            }
            FaultKind::TransmissionGap { len, .. } => {
                assert!(len > 0, "TransmissionGap: len must be positive");
            }
            FaultKind::StuckAt { rate, len } => {
                assert!(rate_ok(rate), "StuckAt: rate must be in [0, 1], got {rate}");
                assert!(len > 0, "StuckAt: len must be positive");
            }
            FaultKind::SpikeNoise { rate, magnitude } => {
                assert!(
                    rate_ok(rate),
                    "SpikeNoise: rate must be in [0, 1], got {rate}"
                );
                assert!(
                    magnitude.is_finite() && magnitude >= 0.0,
                    "SpikeNoise: magnitude must be finite and >= 0"
                );
            }
            FaultKind::CalibrationDrift {
                per_sample,
                max_abs,
            } => {
                assert!(
                    per_sample.is_finite() && per_sample >= 0.0,
                    "CalibrationDrift: per_sample must be finite and >= 0"
                );
                assert!(
                    max_abs.is_finite() && max_abs >= 0.0,
                    "CalibrationDrift: max_abs must be finite and >= 0"
                );
            }
        }
    }
}

/// A seeded, composable corruptor of CGM series.
///
/// Faults are applied to the `cgm` channel in the order they were added;
/// series without a `cgm` channel pass through unchanged. All randomness
/// derives from the configured seed, so the same injector applied to the
/// same data always yields bit-identical output.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultInjector {
    seed: u64,
    faults: Vec<FaultKind>,
}

impl FaultInjector {
    /// Creates an injector with no faults; add them with
    /// [`with_fault`](Self::with_fault).
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            faults: Vec::new(),
        }
    }

    /// Adds one fault model (builder style).
    ///
    /// # Panics
    ///
    /// Panics if the fault's parameters are invalid (rate outside
    /// `[0, 1]`, zero window length, negative magnitude).
    pub fn with_fault(mut self, fault: FaultKind) -> Self {
        fault.validate();
        self.faults.push(fault);
        self
    }

    /// The configured fault models, in application order.
    pub fn faults(&self) -> &[FaultKind] {
        &self.faults
    }

    /// The configured seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Returns a corrupted copy of `series` (stream 0).
    pub fn apply_series(&self, series: &MultiSeries) -> MultiSeries {
        self.apply_stream(series, 0)
    }

    /// Returns a corrupted copy of `dataset`: train and test are corrupted
    /// on independent deterministic streams so their fault patterns do not
    /// repeat each other.
    pub fn apply_dataset(&self, dataset: &PatientDataset) -> PatientDataset {
        PatientDataset {
            profile: dataset.profile.clone(),
            train: self.apply_stream(&dataset.train, 0),
            test: self.apply_stream(&dataset.test, 1),
        }
    }

    fn apply_stream(&self, series: &MultiSeries, stream: u64) -> MultiSeries {
        let Some(mut cgm) = series.channel("cgm") else {
            return series.clone();
        };
        let mut rng = StdRng::seed_from_u64(mix(self.seed, stream));
        for fault in &self.faults {
            apply_fault(fault, &mut cgm, &mut rng);
        }
        let mut out = series.clone();
        out.set_channel("cgm", &cgm);
        out
    }
}

/// Mixes a stream id into the base seed (SplitMix64 finalizer) so distinct
/// streams draw independent sequences from one configured seed.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn apply_fault(fault: &FaultKind, cgm: &mut [f64], rng: &mut StdRng) {
    let n = cgm.len();
    if n == 0 {
        return;
    }
    match *fault {
        FaultKind::Dropout { rate } => {
            for v in cgm.iter_mut() {
                if rng.random_bool(rate) {
                    *v = f64::NAN;
                }
            }
        }
        FaultKind::TransmissionGap { count, len } => {
            for _ in 0..count {
                let start = rng.random_range(0..n);
                for v in cgm.iter_mut().skip(start).take(len) {
                    *v = f64::NAN;
                }
            }
        }
        FaultKind::StuckAt { rate, len } => {
            let mut i = 1;
            while i < n {
                if cgm[i - 1].is_finite() && rng.random_bool(rate) {
                    let held = cgm[i - 1];
                    let end = (i + len).min(n);
                    for v in cgm.iter_mut().take(end).skip(i) {
                        *v = held;
                    }
                    i = end;
                } else {
                    i += 1;
                }
            }
        }
        FaultKind::SpikeNoise { rate, magnitude } => {
            for v in cgm.iter_mut() {
                if v.is_finite() && rng.random_bool(rate) {
                    let height = magnitude * rng.random_range(0.5..1.0);
                    let spike = if rng.random_bool(0.5) { height } else { -height };
                    // Spikes model electronics glitches: clamp only to the
                    // sensor reporting range, not the plausible range.
                    *v = (*v + spike).clamp(CGM_MIN, CGM_MAX);
                }
            }
        }
        FaultKind::CalibrationDrift {
            per_sample,
            max_abs,
        } => {
            let sign = if rng.random_bool(0.5) { 1.0 } else { -1.0 };
            let mut bias = 0.0;
            for v in cgm.iter_mut() {
                bias = (bias + sign * per_sample).clamp(-max_abs, max_abs);
                if v.is_finite() {
                    *v = (*v + bias).clamp(FAULT_CGM_MIN, FAULT_CGM_MAX);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{profile, PatientId, Subset};

    fn flat_series(len: usize, value: f64) -> MultiSeries {
        MultiSeries::from_rows(&["cgm"], vec![vec![value]; len])
    }

    fn cgm_bits(s: &MultiSeries) -> Vec<u64> {
        s.channel("cgm")
            .unwrap()
            .iter()
            .map(|v| v.to_bits())
            .collect()
    }

    #[test]
    fn no_faults_is_identity() {
        let s = flat_series(100, 120.0);
        let out = FaultInjector::new(1).apply_series(&s);
        assert_eq!(out.rows(), s.rows());
    }

    #[test]
    fn dropout_writes_nan_at_roughly_the_rate() {
        let s = flat_series(10_000, 150.0);
        let out = FaultInjector::new(2)
            .with_fault(FaultKind::Dropout { rate: 0.1 })
            .apply_series(&s);
        let missing = out
            .channel("cgm")
            .unwrap()
            .iter()
            .filter(|v| v.is_nan())
            .count();
        assert!((700..1300).contains(&missing), "missing={missing}");
    }

    #[test]
    fn full_dropout_erases_everything() {
        let s = flat_series(500, 150.0);
        let out = FaultInjector::new(3)
            .with_fault(FaultKind::Dropout { rate: 1.0 })
            .apply_series(&s);
        assert!(out.channel("cgm").unwrap().iter().all(|v| v.is_nan()));
    }

    #[test]
    fn transmission_gaps_carve_contiguous_nan_runs() {
        let s = flat_series(1000, 150.0);
        let out = FaultInjector::new(4)
            .with_fault(FaultKind::TransmissionGap { count: 3, len: 12 })
            .apply_series(&s);
        let cgm = out.channel("cgm").unwrap();
        let missing = cgm.iter().filter(|v| v.is_nan()).count();
        // Up to 3 gaps x 12 samples; gaps may overlap or hit the tail.
        assert!(missing > 0 && missing <= 36, "missing={missing}");
        // Contiguity: count NaN-run starts, must be <= 3.
        let runs = cgm
            .windows(2)
            .filter(|w| !w[0].is_nan() && w[1].is_nan())
            .count()
            + usize::from(cgm[0].is_nan());
        assert!(runs <= 3, "runs={runs}");
    }

    #[test]
    fn stuck_at_repeats_previous_reading() {
        let rows: Vec<Vec<f64>> = (0..2000).map(|i| vec![100.0 + (i % 50) as f64]).collect();
        let s = MultiSeries::from_rows(&["cgm"], rows);
        let out = FaultInjector::new(5)
            .with_fault(FaultKind::StuckAt { rate: 0.02, len: 6 })
            .apply_series(&s);
        let cgm = out.channel("cgm").unwrap();
        // The input never repeats consecutively, so any repeat is a freeze.
        let frozen = cgm.windows(2).filter(|w| w[0] == w[1]).count();
        assert!(frozen > 0, "no freezes at 2% rate over 2000 samples");
    }

    #[test]
    fn spikes_can_leave_plausible_range_but_not_reporting_range() {
        let s = flat_series(5000, 390.0);
        let out = FaultInjector::new(6)
            .with_fault(FaultKind::SpikeNoise {
                rate: 0.2,
                magnitude: 150.0,
            })
            .apply_series(&s);
        let cgm = out.channel("cgm").unwrap();
        assert!(cgm.iter().any(|&v| v > FAULT_CGM_MAX));
        assert!(cgm.iter().all(|&v| (CGM_MIN..=CGM_MAX).contains(&v)));
    }

    #[test]
    fn drift_saturates_and_stays_in_plausible_range() {
        let s = flat_series(1000, 200.0);
        let out = FaultInjector::new(8)
            .with_fault(FaultKind::CalibrationDrift {
                per_sample: 0.5,
                max_abs: 30.0,
            })
            .apply_series(&s);
        let cgm = out.channel("cgm").unwrap();
        assert!(cgm
            .iter()
            .all(|&v| (FAULT_CGM_MIN..=FAULT_CGM_MAX).contains(&v)));
        // After 60+ samples the ramp has saturated at +-30.
        let settled = cgm[100];
        assert!((settled - 200.0).abs() > 25.0, "drift too small: {settled}");
    }

    #[test]
    fn same_seed_same_output_different_seed_differs() {
        let ds = PatientDataset::generate(profile(PatientId::new(Subset::A, 1)), 1, 1);
        let make = |seed| {
            FaultInjector::new(seed)
                .with_fault(FaultKind::Dropout { rate: 0.05 })
                .with_fault(FaultKind::SpikeNoise {
                    rate: 0.02,
                    magnitude: 60.0,
                })
                .apply_dataset(&ds)
        };
        let a = make(11);
        let b = make(11);
        let c = make(12);
        assert_eq!(cgm_bits(&a.train), cgm_bits(&b.train));
        assert_eq!(cgm_bits(&a.test), cgm_bits(&b.test));
        assert_ne!(cgm_bits(&a.train), cgm_bits(&c.train));
    }

    #[test]
    fn train_and_test_streams_are_independent() {
        // Same underlying series as train and test must corrupt differently.
        let ds = PatientDataset::generate(profile(PatientId::new(Subset::A, 2)), 1, 1);
        let same = PatientDataset {
            profile: ds.profile.clone(),
            train: ds.train.clone(),
            test: ds.train.clone(),
        };
        let out = FaultInjector::new(13)
            .with_fault(FaultKind::Dropout { rate: 0.2 })
            .apply_dataset(&same);
        assert_ne!(cgm_bits(&out.train), cgm_bits(&out.test));
    }

    #[test]
    fn other_channels_untouched() {
        let rows: Vec<Vec<f64>> = (0..200).map(|i| vec![150.0, i as f64]).collect();
        let s = MultiSeries::from_rows(&["cgm", "heart_rate"], rows);
        let out = FaultInjector::new(15)
            .with_fault(FaultKind::Dropout { rate: 0.5 })
            .apply_series(&s);
        assert_eq!(out.channel("heart_rate"), s.channel("heart_rate"));
    }

    #[test]
    fn series_without_cgm_passes_through() {
        let s = MultiSeries::from_rows(&["heart_rate"], vec![vec![70.0]; 10]);
        let out = FaultInjector::new(16)
            .with_fault(FaultKind::Dropout { rate: 1.0 })
            .apply_series(&s);
        assert_eq!(out.rows(), s.rows());
    }

    #[test]
    #[should_panic(expected = "rate must be in [0, 1]")]
    fn invalid_rate_rejected() {
        let _ = FaultInjector::new(0).with_fault(FaultKind::Dropout { rate: 1.5 });
    }

    #[test]
    #[should_panic(expected = "len must be positive")]
    fn zero_gap_len_rejected() {
        let _ =
            FaultInjector::new(0).with_fault(FaultKind::TransmissionGap { count: 1, len: 0 });
    }
}
