//! The workspace-level error type for fallible pipeline runs.
//!
//! Every lower-level crate exposes its own error enum
//! ([`ScalerError`](lgo_series::ScalerError),
//! [`ClusterError`](lgo_cluster::ClusterError),
//! [`TrainError`](lgo_nn::TrainError),
//! [`ForecastError`](lgo_forecast::ForecastError),
//! [`DetectError`](lgo_detect::DetectError)); [`LgoError`] unifies them via
//! `From` conversions and adds the pipeline-level failure modes (degenerate
//! cohorts, empty rosters, exhausted detector fallback chains).

use std::error::Error;
use std::fmt;

use lgo_cluster::ClusterError;
use lgo_detect::DetectError;
use lgo_forecast::ForecastError;
use lgo_nn::TrainError;
use lgo_runtime::RuntimeError;
use lgo_series::ScalerError;

/// Unified error for the fallible (`try_`) pipeline surface.
#[derive(Debug, Clone, PartialEq)]
pub enum LgoError {
    /// Fewer than two usable patients survived simulation / profiling —
    /// clustering needs at least two risk profiles.
    TooFewPatients {
        /// How many usable patients remained.
        got: usize,
    },
    /// Fewer than two risk profiles were supplied to clustering.
    TooFewProfiles {
        /// How many profiles were supplied.
        got: usize,
    },
    /// No risk profiles at all were supplied.
    NoProfiles,
    /// A profiling stride of zero was configured.
    InvalidStride,
    /// A patient's series yields no complete attack window.
    NoWindows,
    /// A patient's series lacks a required channel.
    MissingChannel {
        /// The missing channel's name.
        name: String,
    },
    /// A training strategy produced an empty patient roster.
    EmptyRoster {
        /// The strategy's display name.
        strategy: &'static str,
        /// Which run (only Random Samples has more than one).
        run: usize,
    },
    /// The supervised kNN detector was requested without any malicious
    /// training windows.
    KnnNeedsMalicious,
    /// Every detector in the fallback chain failed to train.
    DetectorChainExhausted {
        /// The error from the last detector tried.
        last: DetectError,
    },
    /// A configuration value lies outside its valid range.
    InvalidConfig {
        /// The offending field.
        field: &'static str,
        /// Its value.
        value: f64,
        /// The valid range.
        expected: &'static str,
    },
    /// Forecaster training failed.
    Forecast(ForecastError),
    /// Detector training failed.
    Detect(DetectError),
    /// Clustering failed.
    Cluster(ClusterError),
    /// Scaler fitting failed.
    Scaler(ScalerError),
    /// Neural-network training failed.
    Training(TrainError),
    /// A parallel runtime primitive failed (a worker task panicked).
    Runtime(RuntimeError),
}

impl fmt::Display for LgoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LgoError::TooFewPatients { got } => {
                write!(f, "need at least two patients, got {got}")
            }
            LgoError::TooFewProfiles { got } => {
                write!(f, "need at least two profiles, got {got}")
            }
            LgoError::NoProfiles => write!(f, "no profiles"),
            LgoError::InvalidStride => write!(f, "stride must be positive"),
            LgoError::NoWindows => write!(f, "series too short for any window"),
            LgoError::MissingChannel { name } => write!(f, "series lacks {name} channel"),
            LgoError::EmptyRoster { strategy, run } => {
                write!(f, "empty roster for {strategy} (run {run})")
            }
            LgoError::KnnNeedsMalicious => write!(f, "kNN needs malicious training windows"),
            LgoError::DetectorChainExhausted { last } => {
                write!(f, "every detector in the fallback chain failed: {last}")
            }
            LgoError::InvalidConfig {
                field,
                value,
                expected,
            } => write!(f, "{field} = {value} outside {expected}"),
            LgoError::Forecast(e) => write!(f, "forecast: {e}"),
            LgoError::Detect(e) => write!(f, "detect: {e}"),
            LgoError::Cluster(e) => write!(f, "cluster: {e}"),
            LgoError::Scaler(e) => write!(f, "scaler: {e}"),
            LgoError::Training(e) => write!(f, "training: {e}"),
            LgoError::Runtime(e) => write!(f, "runtime: {e}"),
        }
    }
}

impl Error for LgoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            LgoError::Forecast(e) => Some(e),
            LgoError::Detect(e) | LgoError::DetectorChainExhausted { last: e } => Some(e),
            LgoError::Cluster(e) => Some(e),
            LgoError::Scaler(e) => Some(e),
            LgoError::Training(e) => Some(e),
            LgoError::Runtime(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ForecastError> for LgoError {
    fn from(e: ForecastError) -> Self {
        LgoError::Forecast(e)
    }
}

impl From<DetectError> for LgoError {
    fn from(e: DetectError) -> Self {
        LgoError::Detect(e)
    }
}

impl From<ClusterError> for LgoError {
    fn from(e: ClusterError) -> Self {
        LgoError::Cluster(e)
    }
}

impl From<ScalerError> for LgoError {
    fn from(e: ScalerError) -> Self {
        LgoError::Scaler(e)
    }
}

impl From<TrainError> for LgoError {
    fn from(e: TrainError) -> Self {
        LgoError::Training(e)
    }
}

impl From<RuntimeError> for LgoError {
    fn from(e: RuntimeError) -> Self {
        LgoError::Runtime(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_strings_match_legacy_panic_messages() {
        // Thin panicking wrappers prefix these with their own context, so
        // the substrings the `should_panic` tests expect must survive here.
        assert_eq!(
            LgoError::TooFewPatients { got: 1 }.to_string(),
            "need at least two patients, got 1"
        );
        assert_eq!(
            LgoError::TooFewProfiles { got: 1 }.to_string(),
            "need at least two profiles, got 1"
        );
        assert!(LgoError::KnnNeedsMalicious
            .to_string()
            .contains("kNN needs malicious"));
        assert_eq!(LgoError::InvalidStride.to_string(), "stride must be positive");
    }

    #[test]
    fn from_conversions_wrap_sources() {
        let e: LgoError = ForecastError::NoSeries.into();
        assert!(matches!(e, LgoError::Forecast(_)));
        assert!(e.source().is_some());
        let e: LgoError = DetectError::NoTrainingWindows.into();
        assert_eq!(e.to_string(), "detect: no training windows");
        let e: LgoError = ClusterError::TooFewLeaves { got: 1 }.into();
        assert!(e.to_string().starts_with("cluster:"));
        let e: LgoError = ScalerError::EmptyFit.into();
        assert!(e.to_string().starts_with("scaler:"));
        let e: LgoError = TrainError::NoSamples.into();
        assert!(e.to_string().starts_with("training:"));
        let e: LgoError = RuntimeError::TaskPanicked {
            index: 3,
            message: "boom".into(),
        }
        .into();
        assert_eq!(e.to_string(), "runtime: parallel task 3 panicked: boom");
        assert!(e.source().is_some());
    }
}
