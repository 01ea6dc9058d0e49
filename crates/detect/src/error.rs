use std::error::Error;
use std::fmt;

use lgo_series::ScalerError;

/// Error returned by the detectors' fallible `try_fit` constructors.
#[derive(Debug, Clone, PartialEq)]
pub enum DetectError {
    /// No training windows were supplied.
    NoTrainingWindows,
    /// Every supplied training window contained a non-finite value — the
    /// data is too degraded to train any detector on.
    NoFiniteWindows,
    /// Flattened windows have differing widths.
    InconsistentShapes,
    /// A window's length differs from the configured sequence length.
    WindowLength {
        /// Index of the offending window.
        index: usize,
        /// Its actual length.
        got: usize,
        /// The configured sequence length.
        expected: usize,
    },
    /// A window has rows of differing widths.
    RaggedWindow {
        /// Index of the offending window.
        index: usize,
    },
    /// `k == 0` was configured for the kNN detector.
    InvalidK,
    /// The one-class SVM's `nu` lies outside `(0, 1]`.
    InvalidNu {
        /// The offending value.
        nu: f64,
    },
    /// A detector configuration field lies outside its valid range.
    InvalidConfig {
        /// The offending field.
        field: &'static str,
        /// Its value.
        value: f64,
        /// The valid range.
        expected: &'static str,
    },
    /// Scaler fitting failed on the training windows.
    Scaler(ScalerError),
}

impl fmt::Display for DetectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DetectError::NoTrainingWindows => write!(f, "no training windows"),
            DetectError::NoFiniteWindows => write!(f, "no finite training windows"),
            DetectError::InconsistentShapes => write!(f, "inconsistent window shapes"),
            DetectError::WindowLength {
                index,
                got,
                expected,
            } => write!(f, "window {index} has length {got} (expected {expected})"),
            DetectError::RaggedWindow { index } => write!(f, "window {index} is ragged"),
            DetectError::InvalidK => write!(f, "k must be positive"),
            DetectError::InvalidNu { nu } => write!(f, "nu = {nu} outside (0, 1]"),
            DetectError::InvalidConfig {
                field,
                value,
                expected,
            } => write!(f, "{field} = {value} outside {expected}"),
            DetectError::Scaler(e) => write!(f, "scaler: {e}"),
        }
    }
}

impl Error for DetectError {}

impl From<ScalerError> for DetectError {
    fn from(e: ScalerError) -> Self {
        DetectError::Scaler(e)
    }
}
