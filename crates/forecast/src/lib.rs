//! # lgo-forecast
//!
//! The **target DNN** of the paper: a bidirectional-LSTM blood-glucose
//! forecaster in the style of Rubin-Falcone et al. (KDH @ ECAI 2020), which
//! the paper uses both as the model under attack and as the source of
//! benign/adversarial predictions for risk quantification.
//!
//! Like the original, two deployment variants exist:
//!
//! - a **personalized** model trained on one patient's history
//!   ([`GlucoseForecaster::train_personalized`]), and
//! - an **aggregate** model trained on all patients' data pooled together
//!   ([`GlucoseForecaster::train_aggregate`]).
//!
//! The forecaster consumes one hour of history (12 samples at 5-minute
//! cadence) of four channels (`cgm`, `bolus`, `carbs`, `heart_rate`) and
//! predicts the CGM value 30 minutes ahead, all in mg/dL.
//!
//! # Examples
//!
//! ```no_run
//! use lgo_forecast::{ForecastConfig, GlucoseForecaster};
//! use lgo_glucosim::{profile, PatientId, Simulator, Subset};
//!
//! let series = Simulator::new(profile(PatientId::new(Subset::A, 0))).run_days(7);
//! let model = GlucoseForecaster::train_personalized(&series, &ForecastConfig::default());
//! let window = lgo_forecast::feature_window(&series, 100).unwrap();
//! let pred = model.predict(&window);
//! assert!(pred > 0.0);
//! ```

use std::error::Error;
use std::fmt;

use lgo_nn::{BiLstmEvaluation, BiLstmRegressor, LstmTrace, TrainError, Trainable};
use lgo_series::{window::ForecastSample, MinMaxScaler, MultiSeries, ScalerError};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Error returned by the fallible training entry points
/// ([`GlucoseForecaster::try_train_personalized`] /
/// [`GlucoseForecaster::try_train_aggregate`]).
#[derive(Debug, Clone, PartialEq)]
pub enum ForecastError {
    /// No series were supplied.
    NoSeries,
    /// A series yields no complete (window, target) pairs.
    SeriesTooShort {
        /// Length of the offending series.
        len: usize,
        /// Configured window length.
        seq_len: usize,
        /// Configured prediction horizon.
        horizon: usize,
    },
    /// A series lacks one of the required [`FEATURES`] channels.
    MissingChannel {
        /// The absent channel name.
        name: String,
    },
    /// A prediction window's length differs from the configured `seq_len`.
    WindowLength {
        /// Supplied window length.
        got: usize,
        /// Configured `seq_len`.
        expected: usize,
    },
    /// Every supervised sample contained a non-finite value — the data is
    /// too degraded (e.g. a fully dropped-out CGM trace) to train on.
    NoUsableSamples,
    /// Scaler fitting failed on the training data.
    Scaler(ScalerError),
    /// The underlying model training failed (e.g. unrecoverable
    /// divergence).
    Training(TrainError),
}

impl fmt::Display for ForecastError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ForecastError::NoSeries => write!(f, "no series given"),
            ForecastError::SeriesTooShort {
                len,
                seq_len,
                horizon,
            } => write!(
                f,
                "series too short ({len} samples) for seq_len {seq_len} + horizon {horizon}"
            ),
            ForecastError::MissingChannel { name } => {
                write!(f, "series lacks required channel `{name}`")
            }
            ForecastError::WindowLength { got, expected } => {
                write!(f, "window length {got} != seq_len {expected}")
            }
            ForecastError::NoUsableSamples => {
                write!(f, "no finite supervised samples — data too degraded")
            }
            ForecastError::Scaler(e) => write!(f, "scaler: {e}"),
            ForecastError::Training(e) => write!(f, "training: {e}"),
        }
    }
}

impl Error for ForecastError {}

impl From<ScalerError> for ForecastError {
    fn from(e: ScalerError) -> Self {
        ForecastError::Scaler(e)
    }
}

impl From<TrainError> for ForecastError {
    fn from(e: TrainError) -> Self {
        ForecastError::Training(e)
    }
}

/// The input channels the forecaster reads, in order.
pub const FEATURES: [&str; 4] = ["cgm", "bolus", "carbs", "heart_rate"];

/// Index of the CGM channel within [`FEATURES`] — the only feature the
/// paper's threat model allows the adversary to manipulate.
pub const CGM_FEATURE: usize = 0;

/// Hyper-parameters of the forecaster.
///
/// Defaults mirror the paper's setup: one hour of history, a 30-minute
/// prediction horizon, and a small bidirectional LSTM.
#[derive(Debug, Clone, PartialEq)]
pub struct ForecastConfig {
    /// History window length in samples (12 × 5 min = 1 h).
    pub seq_len: usize,
    /// Prediction horizon in samples (6 × 5 min = 30 min).
    pub horizon: usize,
    /// Hidden units per LSTM direction.
    pub hidden: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// RNG seed for weight initialization.
    pub seed: u64,
}

impl Default for ForecastConfig {
    fn default() -> Self {
        Self {
            seq_len: 12,
            horizon: 6,
            hidden: 16,
            epochs: 4,
            batch_size: 32,
            learning_rate: 0.005,
            seed: 0x5EED,
        }
    }
}

impl ForecastConfig {
    /// A reduced configuration for unit tests and examples.
    pub fn fast() -> Self {
        Self {
            hidden: 8,
            epochs: 2,
            ..Self::default()
        }
    }
}

/// A trained glucose forecaster: BiLSTM regressor plus the feature/target
/// scalers fit on its training data.
///
/// All public methods speak **raw units** (mg/dL, U, g, bpm); scaling is
/// internal.
#[derive(Debug, Clone)]
pub struct GlucoseForecaster {
    model: BiLstmRegressor,
    feature_scaler: MinMaxScaler,
    target_scaler: MinMaxScaler,
    config: ForecastConfig,
}

/// Extracts the raw (unscaled) feature window ending at sample `end`
/// (inclusive) from a simulated series, in [`FEATURES`] channel order.
///
/// Returns `None` when the series is too short for a full window.
pub fn feature_window(series: &MultiSeries, end: usize) -> Option<Vec<Vec<f64>>> {
    let cfg = ForecastConfig::default();
    feature_window_sized(series, end, cfg.seq_len)
}

/// [`feature_window`] with an explicit window length.
pub fn feature_window_sized(
    series: &MultiSeries,
    end: usize,
    seq_len: usize,
) -> Option<Vec<Vec<f64>>> {
    if end + 1 < seq_len || end >= series.len() {
        return None;
    }
    let sel = series.select(&FEATURES);
    Some(sel.rows()[end + 1 - seq_len..=end].to_vec())
}

/// Builds raw (unscaled) supervised samples from a series: feature windows
/// paired with the CGM value `horizon` steps past the window end.
///
/// # Panics
///
/// Panics if the series lacks one of the [`FEATURES`] channels. Use
/// [`try_supervised_samples`] to handle incomplete series gracefully.
pub fn supervised_samples(
    series: &MultiSeries,
    seq_len: usize,
    horizon: usize,
) -> Vec<ForecastSample> {
    match try_supervised_samples(series, seq_len, horizon) {
        Ok(samples) => samples,
        // lint: allow(L1): documented panicking wrapper; try_supervised_samples is the checked path
        Err(e) => panic!("supervised_samples: {e}"),
    }
}

/// Fallible [`supervised_samples`].
///
/// # Errors
///
/// Returns [`ForecastError::MissingChannel`] when the series lacks one of
/// the [`FEATURES`] channels.
pub fn try_supervised_samples(
    series: &MultiSeries,
    seq_len: usize,
    horizon: usize,
) -> Result<Vec<ForecastSample>, ForecastError> {
    for name in FEATURES {
        if series.channel_index(name).is_none() {
            return Err(ForecastError::MissingChannel {
                name: name.to_string(),
            });
        }
    }
    let features = series.select(&FEATURES);
    let target = series
        .channel("cgm")
        // lint: allow(L1): presence of every FEATURES channel (incl. cgm) was just checked
        .expect("cgm channel present");
    Ok(lgo_series::window::forecast_samples(
        features.rows(),
        &target,
        seq_len,
        horizon,
    ))
}

impl GlucoseForecaster {
    /// Trains a personalized model on one patient's series.
    ///
    /// # Panics
    ///
    /// Panics if the series is shorter than `seq_len + horizon` samples or
    /// lacks any of the [`FEATURES`] channels.
    pub fn train_personalized(series: &MultiSeries, config: &ForecastConfig) -> Self {
        Self::train_on(&[series], config)
    }

    /// Trains an aggregate model on the pooled data of several patients.
    ///
    /// # Panics
    ///
    /// Panics if `series_set` is empty or any series is too short.
    pub fn train_aggregate(series_set: &[&MultiSeries], config: &ForecastConfig) -> Self {
        Self::train_on(series_set, config)
    }

    /// Fallible [`train_personalized`](Self::train_personalized):
    /// supervised samples containing non-finite values (from degraded or
    /// fault-injected sensors) are dropped before training, and training
    /// divergence is recovered or reported rather than propagated as a
    /// panic.
    ///
    /// # Errors
    ///
    /// See [`ForecastError`].
    pub fn try_train_personalized(
        series: &MultiSeries,
        config: &ForecastConfig,
    ) -> Result<Self, ForecastError> {
        Self::try_train_on(&[series], config)
    }

    /// Fallible [`train_aggregate`](Self::train_aggregate).
    ///
    /// # Errors
    ///
    /// See [`ForecastError`].
    pub fn try_train_aggregate(
        series_set: &[&MultiSeries],
        config: &ForecastConfig,
    ) -> Result<Self, ForecastError> {
        Self::try_train_on(series_set, config)
    }

    fn train_on(series_set: &[&MultiSeries], config: &ForecastConfig) -> Self {
        match Self::try_train_on(series_set, config) {
            Ok(model) => model,
            // lint: allow(L1): documented panicking wrapper; the try_train_* entry points are the checked path
            Err(e) => panic!("train: {e}"),
        }
    }

    fn try_train_on(
        series_set: &[&MultiSeries],
        config: &ForecastConfig,
    ) -> Result<Self, ForecastError> {
        if series_set.is_empty() {
            return Err(ForecastError::NoSeries);
        }
        let mut raw_samples = Vec::new();
        for s in series_set {
            let samples = try_supervised_samples(s, config.seq_len, config.horizon)?;
            if samples.is_empty() {
                return Err(ForecastError::SeriesTooShort {
                    len: s.len(),
                    seq_len: config.seq_len,
                    horizon: config.horizon,
                });
            }
            raw_samples.extend(samples);
        }

        // Drop samples touched by missing/corrupt readings: a NaN anywhere
        // in the window or target would poison the loss. Training proceeds
        // on whatever clean windows remain.
        raw_samples.retain(|s| {
            s.target.is_finite() && s.history.iter().flatten().all(|v| v.is_finite())
        });
        if raw_samples.is_empty() {
            return Err(ForecastError::NoUsableSamples);
        }

        // Fit scalers on all training rows / targets.
        let all_rows: Vec<Vec<f64>> = raw_samples
            .iter()
            .flat_map(|s| s.history.iter().cloned())
            .collect();
        let mut feature_scaler = MinMaxScaler::new();
        feature_scaler.try_fit(&all_rows)?;
        let targets: Vec<Vec<f64>> = raw_samples.iter().map(|s| vec![s.target]).collect();
        let mut target_scaler = MinMaxScaler::new();
        target_scaler.try_fit(&targets)?;

        let scaled: Vec<(Vec<Vec<f64>>, f64)> = raw_samples
            .iter()
            .map(|s| {
                let hist = feature_scaler.transform(&s.history)?;
                Ok((hist, target_scaler.value(0, s.target)))
            })
            .collect::<Result<_, ScalerError>>()?;

        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut model = BiLstmRegressor::new(FEATURES.len(), config.hidden, &mut rng);
        model.try_fit(
            &scaled,
            config.epochs,
            config.batch_size,
            config.learning_rate,
        )?;
        Ok(Self {
            model,
            feature_scaler,
            target_scaler,
            config: config.clone(),
        })
    }

    /// The configuration the model was trained with.
    pub fn config(&self) -> &ForecastConfig {
        &self.config
    }

    /// Number of trainable parameters.
    pub fn param_count(&mut self) -> usize {
        self.model.param_count()
    }

    /// Predicts the CGM value (mg/dL) `horizon` steps after the end of a raw
    /// feature window (rows in [`FEATURES`] order, raw units).
    ///
    /// # Panics
    ///
    /// Panics if the window length differs from the configured `seq_len` or
    /// rows have the wrong width. Use [`try_predict`](Self::try_predict) to
    /// handle malformed windows gracefully.
    pub fn predict(&self, window: &[Vec<f64>]) -> f64 {
        match self.try_predict(window) {
            Ok(y) => y,
            // lint: allow(L1): documented panicking wrapper; try_predict is the checked path
            Err(e) => panic!("predict: {e}"),
        }
    }

    /// Fallible [`predict`](Self::predict).
    ///
    /// # Errors
    ///
    /// Returns [`ForecastError::WindowLength`] when the window length
    /// differs from the configured `seq_len`, and [`ForecastError::Scaler`]
    /// when rows have the wrong width.
    pub fn try_predict(&self, window: &[Vec<f64>]) -> Result<f64, ForecastError> {
        self.try_evaluate(window).map(|e| e.prediction())
    }

    /// One forward pass over a raw window that keeps what its input
    /// gradients need ([`BiLstmRegressor::evaluate`]).
    /// [`Evaluation::prediction`] has [`Self::predict`]'s bits and
    /// [`Evaluation::input_gradients`] has [`Self::input_gradients`]'s
    /// bits, read off the kept pass: a gradient attack that forecasts a
    /// candidate climbs from it without running the window forward again.
    ///
    /// # Panics
    ///
    /// As [`Self::predict`]. Use [`try_evaluate`](Self::try_evaluate) to
    /// handle malformed windows gracefully.
    pub fn evaluate(&self, window: &[Vec<f64>]) -> Evaluation<'_> {
        match self.try_evaluate(window) {
            Ok(e) => e,
            // lint: allow(L1): documented panicking wrapper; try_evaluate is the checked path
            Err(e) => panic!("evaluate: {e}"),
        }
    }

    /// Fallible [`evaluate`](Self::evaluate).
    ///
    /// # Errors
    ///
    /// Returns [`ForecastError::WindowLength`] when the window length
    /// differs from the configured `seq_len`, and [`ForecastError::Scaler`]
    /// when rows have the wrong width.
    pub fn try_evaluate(&self, window: &[Vec<f64>]) -> Result<Evaluation<'_>, ForecastError> {
        if window.len() != self.config.seq_len {
            return Err(ForecastError::WindowLength {
                got: window.len(),
                expected: self.config.seq_len,
            });
        }
        let scaled = self.feature_scaler.transform(window)?;
        Ok(Evaluation {
            forecaster: self,
            pass: self.model.evaluate(&scaled),
        })
    }

    /// A predictor for windows that share a leading run of rows with
    /// `base` — the greedy attack's candidates, which rewrite only the last
    /// one or two CGM cells of the window they extend. It keeps `base`'s
    /// scaled rows and the forward direction's trace over them; a query
    /// resumes the forward direction at the first row that differs from
    /// `base` and runs only the backward direction in full
    /// ([`BiLstmRegressor::predict_resumed`]).
    ///
    /// [`NearPredictor::predict`] returns [`Self::predict`]'s bits for every
    /// window, `base` itself and windows differing at row 0 included: rows
    /// are compared bit for bit, each row scales on its own, and the
    /// resumed steps read the same operands.
    pub fn near(&self, base: &[Vec<f64>]) -> NearPredictor<'_> {
        let anchor = Some(base)
            .filter(|b| b.len() == self.config.seq_len)
            .and_then(|b| self.feature_scaler.transform(b).ok())
            .map(|scaled| Anchor {
                raw: base.to_vec(),
                prefix: self.model.forward_trace(&scaled),
                scaled,
            });
        NearPredictor {
            model: self,
            anchor,
        }
    }

    /// Gradient of the raw-unit prediction with respect to every raw input
    /// cell: `out[t][j] = d predict(window) / d window[t][j]`, in
    /// (mg/dL predicted) per (raw unit of feature `j`).
    ///
    /// This is the white-box surface gradient attacks (FGSM/BIM/PGD/CW)
    /// climb: [`Self::evaluate`] then [`Evaluation::input_gradients`]. The
    /// pass is pure (`&self`), safe for models shared across parallel
    /// campaigns.
    ///
    /// # Panics
    ///
    /// Panics if the window length differs from the configured `seq_len`
    /// or rows have the wrong width. Use
    /// [`try_input_gradients`](Self::try_input_gradients) to handle
    /// malformed windows gracefully.
    pub fn input_gradients(&self, window: &[Vec<f64>]) -> Vec<Vec<f64>> {
        match self.try_input_gradients(window) {
            Ok(g) => g,
            // lint: allow(L1): documented panicking wrapper; try_input_gradients is the checked path
            Err(e) => panic!("input_gradients: {e}"),
        }
    }

    /// Fallible [`input_gradients`](Self::input_gradients).
    ///
    /// # Errors
    ///
    /// Returns [`ForecastError::WindowLength`] when the window length
    /// differs from the configured `seq_len`, and [`ForecastError::Scaler`]
    /// when rows have the wrong width.
    pub fn try_input_gradients(&self, window: &[Vec<f64>]) -> Result<Vec<Vec<f64>>, ForecastError> {
        self.try_evaluate(window).map(|e| e.input_gradients())
    }

    /// Predicts over every complete window of a series, returning
    /// `(window_end_index, prediction)` pairs. The prediction at index `t`
    /// refers to time `t + horizon`.
    pub fn predict_series(&self, series: &MultiSeries) -> Vec<(usize, f64)> {
        let sel = series.select(&FEATURES);
        let rows = sel.rows();
        let n = self.config.seq_len;
        if rows.len() < n {
            return Vec::new();
        }
        (n - 1..rows.len())
            .map(|end| (end, self.predict(&rows[end + 1 - n..=end])))
            .collect()
    }

    /// Root-mean-squared error (mg/dL) against the true CGM `horizon` steps
    /// ahead, over all complete windows of `series`.
    ///
    /// # Panics
    ///
    /// Panics if the series yields no complete (window, target) pairs.
    pub fn rmse(&self, series: &MultiSeries) -> f64 {
        let samples = supervised_samples(series, self.config.seq_len, self.config.horizon);
        assert!(!samples.is_empty(), "rmse: series too short");
        let se: f64 = samples
            .iter()
            .map(|s| {
                let p = self.predict(&s.history);
                (p - s.target) * (p - s.target)
            })
            .sum();
        (se / samples.len() as f64).sqrt()
    }
}

/// One kept forward pass of a [`GlucoseForecaster`] over a raw window: see
/// [`GlucoseForecaster::evaluate`].
#[derive(Debug, Clone)]
pub struct Evaluation<'a> {
    forecaster: &'a GlucoseForecaster,
    pass: BiLstmEvaluation<'a>,
}

impl Evaluation<'_> {
    /// The forecast in mg/dL: [`GlucoseForecaster::predict`]'s bits.
    pub fn prediction(&self) -> f64 {
        self.forecaster
            .target_scaler
            .inverse_value(0, self.pass.prediction())
    }

    /// Gradient of the raw-unit prediction with respect to every raw input
    /// cell, backpropagated through the kept pass:
    /// [`GlucoseForecaster::input_gradients`]'s bits.
    ///
    /// Both scalers are affine, so the chain rule through them is a
    /// per-column constant: `target_range / feature_range[j]` multiplies
    /// the model-space gradient from [`BiLstmEvaluation::input_gradients`].
    pub fn input_gradients(&self) -> Vec<Vec<f64>> {
        let f = self.forecaster;
        let mut grads = self.pass.input_gradients();
        // Affine scalers: d(scaled x_j)/d(raw x_j) = 1/feature_range_j and
        // d(raw y)/d(scaled y) = target_range, both recoverable from the
        // public transforms without new scaler API.
        let target_range =
            f.target_scaler.inverse_value(0, 1.0) - f.target_scaler.inverse_value(0, 0.0);
        let inv_feature_ranges: Vec<f64> = (0..FEATURES.len())
            .map(|j| f.feature_scaler.value(j, 1.0) - f.feature_scaler.value(j, 0.0))
            .collect();
        for row in &mut grads {
            for (g, &inv) in row.iter_mut().zip(&inv_feature_ranges) {
                *g *= target_range * inv;
            }
        }
        grads
    }
}

/// Predictions anchored at a base window: see [`GlucoseForecaster::near`].
#[derive(Debug, Clone)]
pub struct NearPredictor<'a> {
    model: &'a GlucoseForecaster,
    /// `None` when the base window is malformed; every query then takes
    /// the full [`GlucoseForecaster::predict`] path, errors included.
    anchor: Option<Anchor>,
}

/// The base window, raw and scaled, with the forward direction's trace.
#[derive(Debug, Clone)]
struct Anchor {
    raw: Vec<Vec<f64>>,
    scaled: Vec<Vec<f64>>,
    prefix: LstmTrace,
}

impl NearPredictor<'_> {
    /// [`GlucoseForecaster::predict`] on `window`, with the bits it
    /// returns.
    ///
    /// # Panics
    ///
    /// As [`GlucoseForecaster::predict`].
    pub fn predict(&self, window: &[Vec<f64>]) -> f64 {
        let Some(anchor) = &self.anchor else {
            return self.model.predict(window);
        };
        if window.len() != anchor.raw.len() {
            return self.model.predict(window);
        }
        let keep = anchor
            .raw
            .iter()
            .zip(window)
            .take_while(|(a, b)| same_bits(a, b))
            .count();
        let Ok(suffix) = self.model.feature_scaler.transform(&window[keep..]) else {
            return self.model.predict(window);
        };
        let rows: Vec<&[f64]> = anchor.scaled[..keep]
            .iter()
            .chain(&suffix)
            .map(Vec::as_slice)
            .collect();
        let y = self
            .model
            .model
            .predict_resumed(&anchor.prefix, keep, &rows);
        self.model.target_scaler.inverse_value(0, y)
    }
}

/// Whether two rows hold the same values bit for bit (NaN equal to
/// itself), so equal rows scale to equal bits.
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lgo_glucosim::{profile, PatientId, Simulator, Subset};

    fn series(days: usize) -> MultiSeries {
        Simulator::new(profile(PatientId::new(Subset::A, 0))).run_days(days)
    }

    fn fast_cfg() -> ForecastConfig {
        ForecastConfig {
            hidden: 8,
            epochs: 2,
            ..ForecastConfig::default()
        }
    }

    #[test]
    fn feature_window_extraction() {
        let s = series(1);
        assert!(feature_window(&s, 5).is_none()); // too early
        let w = feature_window(&s, 11).unwrap();
        assert_eq!(w.len(), 12);
        assert_eq!(w[0].len(), FEATURES.len());
        assert!(feature_window(&s, s.len()).is_none()); // out of range
        // CGM column matches the series.
        let cgm = s.channel("cgm").unwrap();
        assert_eq!(w[11][CGM_FEATURE], cgm[11]);
    }

    #[test]
    fn supervised_sample_alignment() {
        let s = series(1);
        let samples = supervised_samples(&s, 12, 6);
        let cgm = s.channel("cgm").unwrap();
        assert_eq!(samples[0].target, cgm[17]);
        assert_eq!(samples[0].target_index, 17);
        assert_eq!(samples.len(), s.len() - 17);
    }

    #[test]
    fn trained_model_beats_trivial_baseline() {
        // The forecaster must beat "predict the current value" (persistence)
        // is too strong for 2 epochs; instead require it to beat predicting
        // the global mean, which any learned model must.
        let train = series(8);
        let test = series(10).slice(8 * 288, 10 * 288);
        let model = GlucoseForecaster::train_personalized(&train, &fast_cfg());
        let rmse = model.rmse(&test);

        let samples = supervised_samples(&test, 12, 6);
        let mean: f64 =
            samples.iter().map(|s| s.target).sum::<f64>() / samples.len() as f64;
        let mean_rmse = (samples
            .iter()
            .map(|s| (s.target - mean) * (s.target - mean))
            .sum::<f64>()
            / samples.len() as f64)
            .sqrt();
        assert!(
            rmse < mean_rmse * 0.9,
            "model rmse {rmse:.1} not better than mean baseline {mean_rmse:.1}"
        );
    }

    #[test]
    fn prediction_in_physiological_range() {
        let train = series(4);
        let model = GlucoseForecaster::train_personalized(&train, &fast_cfg());
        for (_, p) in model.predict_series(&train.slice(0, 288)) {
            assert!((-100.0..700.0).contains(&p), "prediction {p} wild");
        }
    }

    #[test]
    fn raising_cgm_history_raises_prediction() {
        // The attack relies on the forecaster tracking recent CGM levels:
        // a window shifted +150 mg/dL must predict higher.
        let train = series(6);
        let model = GlucoseForecaster::train_personalized(&train, &fast_cfg());
        let w = feature_window(&train, 100).unwrap();
        let mut high = w.clone();
        for row in &mut high {
            row[CGM_FEATURE] += 150.0;
        }
        assert!(
            model.predict(&high) > model.predict(&w) + 20.0,
            "forecaster insensitive to CGM history: {} vs {}",
            model.predict(&high),
            model.predict(&w)
        );
    }

    #[test]
    fn aggregate_model_trains_on_multiple_patients() {
        let a = Simulator::new(profile(PatientId::new(Subset::A, 0))).run_days(2);
        let b = Simulator::new(profile(PatientId::new(Subset::A, 5))).run_days(2);
        let model = GlucoseForecaster::train_aggregate(&[&a, &b], &fast_cfg());
        assert!(model.rmse(&a).is_finite());
        assert!(model.rmse(&b).is_finite());
    }

    #[test]
    fn deterministic_training() {
        let train = series(2);
        let m1 = GlucoseForecaster::train_personalized(&train, &fast_cfg());
        let m2 = GlucoseForecaster::train_personalized(&train, &fast_cfg());
        let w = feature_window(&train, 50).unwrap();
        assert_eq!(m1.predict(&w), m2.predict(&w));
    }

    #[test]
    fn input_gradients_match_finite_differences() {
        // The raw-unit gradient must agree with central differences of
        // predict() — this pins the scaler chain rule, not just the BPTT
        // core (checked separately in lgo-nn).
        let train = series(2);
        let model = GlucoseForecaster::train_personalized(&train, &fast_cfg());
        let w = feature_window(&train, 50).unwrap();
        let grads = model.input_gradients(&w);
        assert_eq!(grads.len(), 12);
        assert_eq!(grads[0].len(), FEATURES.len());
        let eps = 1e-3; // raw units
        for &(t, j) in &[(0usize, 0usize), (5, 0), (11, 0), (6, 3), (3, 1)] {
            let mut wp = w.clone();
            wp[t][j] += eps;
            let mut wm = w.clone();
            wm[t][j] -= eps;
            let numeric = (model.predict(&wp) - model.predict(&wm)) / (2.0 * eps);
            assert!(
                (numeric - grads[t][j]).abs() < 1e-4,
                "d/dw[{t}][{j}]: numeric {numeric} vs analytic {}",
                grads[t][j]
            );
        }
    }

    #[test]
    fn near_predictor_returns_predict_bits() {
        use lgo_attack::cgm::{CgmAttackConfig, CgmSetSuffix, CgmShiftSuffix};
        use lgo_attack::Transformer;

        let train = series(2);
        let model = GlucoseForecaster::train_personalized(&train, &fast_cfg());
        let cfg = CgmAttackConfig::default();
        let set = CgmSetSuffix::from_config(&cfg, true);
        let shift = CgmShiftSuffix::from_config(&cfg, true);
        let check = |base: &Vec<Vec<f64>>, windows: &[Vec<Vec<f64>>]| {
            let near = model.near(base);
            for w in windows {
                assert_eq!(
                    near.predict(w).to_bits(),
                    model.predict(w).to_bits(),
                    "{w:?}"
                );
            }
        };

        let base = feature_window(&train, 50).unwrap();
        let mut row0 = base.clone();
        row0[0][CGM_FEATURE] += 1.0;
        let mut others = vec![base.clone(), row0];
        others.extend(set.candidates(&base));
        others.extend(shift.candidates(&base));
        check(&base, &others);

        // A NaN row inside the shared prefix, and a NaN the base lacks.
        let mut gap = base.clone();
        gap[4][CGM_FEATURE] = f64::NAN;
        let mut cands = vec![gap.clone(), base.clone()];
        cands.extend(set.candidates(&gap));
        cands.extend(shift.candidates(&gap));
        check(&gap, &cands);
        check(&base, &[gap]);
    }

    #[test]
    fn evaluation_returns_predict_and_gradient_bits() {
        let train = series(2);
        let model = GlucoseForecaster::train_personalized(&train, &fast_cfg());
        let base = feature_window(&train, 50).unwrap();
        let mut boosted = base.clone();
        for row in &mut boosted[8..] {
            row[CGM_FEATURE] += 40.0;
        }
        let bits = |g: &[Vec<f64>]| g.iter().flatten().map(|v| v.to_bits()).collect::<Vec<_>>();
        for w in [&base, &boosted] {
            let eval = model.try_evaluate(w).unwrap();
            let want = model.try_predict(w).unwrap();
            assert_eq!(eval.prediction().to_bits(), want.to_bits());
            // The resumed forward pass is a separate path to the same bits.
            assert_eq!(model.near(&base).predict(w).to_bits(), want.to_bits());
            assert_eq!(
                bits(&eval.input_gradients()),
                bits(&model.try_input_gradients(w).unwrap())
            );
            assert_eq!(
                bits(&model.evaluate(w).input_gradients()),
                bits(&model.input_gradients(w))
            );
        }
        // Malformed windows fail every path with the same error.
        let short = vec![vec![100.0, 0.0, 0.0, 70.0]; 5];
        let narrow = vec![vec![100.0, 0.0]; 12];
        for w in [&short, &narrow] {
            let err = model.try_evaluate(w).unwrap_err();
            assert_eq!(model.try_predict(w).unwrap_err(), err);
            assert_eq!(model.try_input_gradients(w).unwrap_err(), err);
        }
    }

    #[test]
    #[should_panic(expected = "evaluate: window length")]
    fn evaluate_rejects_wrong_window() {
        let train = series(2);
        let model = GlucoseForecaster::train_personalized(&train, &fast_cfg());
        let _ = model.evaluate(&vec![vec![100.0, 0.0, 0.0, 70.0]; 5]);
    }

    #[test]
    fn input_gradients_reject_wrong_window() {
        let train = series(2);
        let model = GlucoseForecaster::train_personalized(&train, &fast_cfg());
        let err = model
            .try_input_gradients(&vec![vec![100.0, 0.0, 0.0, 70.0]; 5])
            .unwrap_err();
        assert_eq!(
            err,
            ForecastError::WindowLength {
                got: 5,
                expected: 12
            }
        );
    }

    #[test]
    #[should_panic(expected = "window length")]
    fn predict_rejects_wrong_window() {
        let train = series(2);
        let model = GlucoseForecaster::train_personalized(&train, &fast_cfg());
        let _ = model.predict(&vec![vec![100.0, 0.0, 0.0, 70.0]; 5]);
    }

    #[test]
    fn fast_config_is_smaller_than_default() {
        let fast = ForecastConfig::fast();
        let full = ForecastConfig::default();
        assert!(fast.hidden < full.hidden);
        assert!(fast.epochs < full.epochs);
        assert_eq!(fast.seq_len, full.seq_len);
        assert_eq!(fast.horizon, full.horizon);
    }

    #[test]
    fn cgm_feature_is_first_column() {
        assert_eq!(FEATURES[CGM_FEATURE], "cgm");
    }

    #[test]
    fn predict_series_indices_are_window_ends() {
        let s = series(2);
        let model = GlucoseForecaster::train_personalized(&s, &fast_cfg());
        let preds = model.predict_series(&s.slice(0, 60));
        assert_eq!(preds.first().unwrap().0, 11);
        assert_eq!(preds.last().unwrap().0, 59);
        assert_eq!(preds.len(), 60 - 11);
        // Predictions against predict() on the same window agree.
        let w = feature_window(&s, 20).unwrap();
        let direct = model.predict(&w);
        let from_series = preds.iter().find(|(i, _)| *i == 20).unwrap().1;
        assert_eq!(direct, from_series);
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn train_rejects_short_series() {
        let s = series(1).slice(0, 10);
        let _ = GlucoseForecaster::train_personalized(&s, &fast_cfg());
    }

    #[test]
    fn try_train_reports_degraded_and_degenerate_input() {
        let cfg = fast_cfg();
        assert_eq!(
            GlucoseForecaster::try_train_aggregate(&[], &cfg).unwrap_err(),
            ForecastError::NoSeries
        );
        let short = series(1).slice(0, 10);
        assert_eq!(
            GlucoseForecaster::try_train_personalized(&short, &cfg).unwrap_err(),
            ForecastError::SeriesTooShort {
                len: 10,
                seq_len: 12,
                horizon: 6
            }
        );
        // A fully dropped-out CGM channel leaves no usable samples.
        let mut dead = series(1);
        let nan = vec![f64::NAN; dead.len()];
        assert!(dead.set_channel("cgm", &nan));
        assert_eq!(
            GlucoseForecaster::try_train_personalized(&dead, &cfg).unwrap_err(),
            ForecastError::NoUsableSamples
        );
        // A missing channel is reported by name.
        let partial = series(1).select(&["cgm", "bolus"]);
        assert_eq!(
            GlucoseForecaster::try_train_personalized(&partial, &cfg).unwrap_err(),
            ForecastError::MissingChannel {
                name: "carbs".to_string()
            }
        );
    }

    #[test]
    fn try_train_skips_corrupt_windows_and_still_learns() {
        // Scatter NaN readings across the CGM trace (sparser than the
        // window span, so clean windows survive): training must still
        // succeed on those windows and produce a finite model.
        let mut s = series(4);
        let mut cgm = s.channel("cgm").unwrap();
        for i in (0..cgm.len()).step_by(50) {
            cgm[i] = f64::NAN;
        }
        assert!(s.set_channel("cgm", &cgm));
        let model =
            GlucoseForecaster::try_train_personalized(&s, &fast_cfg()).expect("partial data");
        let clean = series(2);
        assert!(model.rmse(&clean).is_finite());
    }
}
