use lgo_nn::{Activation, Adam, Loss, LstmDiscriminator, LstmSeq2Seq, Seq2SeqTrace, Trainable};
use lgo_series::MinMaxScaler;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::detector::{AnomalyDetector, Window};
use crate::error::DetectError;

/// MAD-GAN hyper-parameters, defaulting to the paper's Appendix B
/// (epochs = 100, 4 signals, seq_len = 12, step = 1) with the original
/// paper's LSTM generator/discriminator and DR-Score.
#[derive(Debug, Clone, PartialEq)]
pub struct MadGanConfig {
    /// Training epochs over the benign windows (paper: 100).
    pub epochs: usize,
    /// Window length in samples (paper: 12).
    pub seq_len: usize,
    /// Latent dimension fed to the generator per timestep (paper: 4
    /// generated features).
    pub latent_dim: usize,
    /// LSTM hidden units for both generator and discriminator.
    pub hidden: usize,
    /// Adam learning rate for both networks.
    pub learning_rate: f64,
    /// Mini-batch size (windows per optimizer step).
    pub batch_size: usize,
    /// DR-Score weight λ on the reconstruction residual
    /// (score = λ·residual + (1−λ)·(1 − D(x))).
    pub lambda: f64,
    /// Gradient-descent steps of the latent-inversion search.
    pub inversion_steps: usize,
    /// Learning rate of the latent-inversion search.
    pub inversion_lr: f64,
    /// Quantile of training DR-Scores used as the anomaly threshold.
    pub threshold_quantile: f64,
    /// RNG seed (weights, latent draws, shuffling).
    pub seed: u64,
    /// Optional cap on training windows (uniform stride subsample); GAN
    /// epochs over tens of thousands of windows are otherwise the pipeline's
    /// dominant cost.
    pub max_windows: Option<usize>,
}

impl Default for MadGanConfig {
    fn default() -> Self {
        Self {
            epochs: 100,
            seq_len: 12,
            latent_dim: 4,
            hidden: 16,
            learning_rate: 0.003,
            batch_size: 16,
            lambda: 0.9,
            inversion_steps: 20,
            inversion_lr: 0.3,
            threshold_quantile: 0.95,
            seed: 0x3AD,
            max_windows: Some(2000),
        }
    }
}

/// Multivariate Anomaly Detection GAN (Li et al., ICANN 2019): an LSTM
/// generator/discriminator pair trained on benign windows; anomalies are
/// scored by the **DR-Score**, combining the *discrimination* score (how
/// fake the discriminator finds the window) and the *reconstruction*
/// residual (how poorly the generator can reproduce the window from its
/// best-matching latent sequence).
///
/// # Examples
///
/// ```
/// use lgo_detect::{AnomalyDetector, MadGan, MadGanConfig};
///
/// let benign: Vec<Vec<Vec<f64>>> = (0..32)
///     .map(|i| (0..12).map(|t| {
///         let v = ((t + i) as f64 * 0.5).sin() * 0.3 + 0.5;
///         vec![v, v * 0.8]
///     }).collect())
///     .collect();
/// let cfg = MadGanConfig { epochs: 3, hidden: 8, inversion_steps: 5, ..MadGanConfig::default() };
/// let gan = MadGan::fit(&benign, &cfg);
/// let score = gan.score(&benign[0]);
/// assert!(score.is_finite());
/// ```
#[derive(Debug, Clone)]
pub struct MadGan {
    generator: LstmSeq2Seq,
    /// The generator's pass over the all-zero latent, where every
    /// inversion starts: computed once per fit, not once per window.
    zero_latent_trace: Seq2SeqTrace,
    discriminator: LstmDiscriminator,
    scaler: MinMaxScaler,
    threshold: f64,
    config: MadGanConfig,
}

impl MadGan {
    /// Trains the GAN on benign windows and calibrates the anomaly
    /// threshold at the configured quantile of training DR-Scores.
    ///
    /// # Panics
    ///
    /// Panics if `windows` is empty, windows are ragged, any window's
    /// length differs from `config.seq_len`, any of `batch_size`,
    /// `seq_len`, `latent_dim`, `hidden` and `inversion_steps` is 0, or
    /// `threshold_quantile` is outside `[0, 1]`.
    pub fn fit(windows: &[Window], config: &MadGanConfig) -> Self {
        match Self::try_fit(windows, config) {
            Ok(gan) => gan,
            // lint: allow(L1): documented panicking wrapper; try_fit is the checked path
            Err(e) => panic!("MadGan: {e}"),
        }
    }

    /// Fallible [`fit`](Self::fit): windows containing non-finite values
    /// (degraded sensor data) are dropped before training. The empty-outlier
    /// case of [`try_fit_with_outliers`](Self::try_fit_with_outliers).
    ///
    /// # Errors
    ///
    /// Returns [`DetectError::NoTrainingWindows`] on empty input,
    /// [`DetectError::InvalidConfig`] when any of `batch_size`, `seq_len`,
    /// `latent_dim`, `hidden` and `inversion_steps` is 0 or
    /// `threshold_quantile` is outside `[0, 1]`,
    /// [`DetectError::NoFiniteWindows`] when every window is corrupt, and
    /// [`DetectError::WindowLength`] / [`DetectError::RaggedWindow`] on
    /// malformed windows.
    pub fn try_fit(windows: &[Window], config: &MadGanConfig) -> Result<Self, DetectError> {
        Self::try_fit_with_outliers(windows, &[], config)
    }

    /// ROAST-style outlier-exposure fit: each discriminator batch step
    /// additionally pushes one known-adversarial window (cycled
    /// deterministically from `outliers`) toward the *fake* label. The
    /// discriminator therefore learns to reject crafted manipulations
    /// explicitly instead of only implicitly through the generator's
    /// samples; the DR-Score and threshold calibration are unchanged and
    /// computed on the benign windows only.
    ///
    /// The outlier pass draws no randomness, so the generator/
    /// discriminator weight initialization, latent draws, and shuffling
    /// are identical to the plain fit for the same seed. With an empty
    /// (or fully malformed) outlier set this is the plain fit
    /// ([`try_fit`](Self::try_fit)).
    ///
    /// # Errors
    ///
    /// The same errors as [`try_fit`](Self::try_fit). Outlier windows
    /// that are non-finite or have the wrong shape are silently dropped —
    /// they are auxiliary training signal, not primary data.
    pub fn try_fit_with_outliers(
        windows: &[Window],
        outliers: &[Window],
        config: &MadGanConfig,
    ) -> Result<Self, DetectError> {
        let _span = lgo_trace::span("detect/madgan/fit");
        if windows.is_empty() {
            return Err(DetectError::NoTrainingWindows);
        }
        // Zero sizes would panic inside the networks (hidden, latent_dim)
        // or the shape checks (seq_len); zero inversion steps leave the
        // residual at +∞, so every score would be NaN and never flag.
        for (field, value) in [
            ("batch_size", config.batch_size),
            ("seq_len", config.seq_len),
            ("latent_dim", config.latent_dim),
            ("hidden", config.hidden),
            ("inversion_steps", config.inversion_steps),
        ] {
            if value == 0 {
                return Err(DetectError::InvalidConfig {
                    field,
                    value: 0.0,
                    expected: "[1, ∞)",
                });
            }
        }
        if !(0.0..=1.0).contains(&config.threshold_quantile) {
            return Err(DetectError::InvalidConfig {
                field: "threshold_quantile",
                value: config.threshold_quantile,
                expected: "[0, 1]",
            });
        }
        let finite: Vec<Window> = windows
            .iter()
            .filter(|w| w.iter().flatten().all(|v| v.is_finite()))
            .cloned()
            .collect();
        if finite.is_empty() {
            return Err(DetectError::NoFiniteWindows);
        }
        let windows: Vec<Window> =
            crate::subsample::subsample_cap(finite, config.max_windows.unwrap_or(0));
        lgo_trace::counter("detect/madgan/fits", 1);
        lgo_trace::counter("detect/madgan/fit_windows", windows.len() as u64);
        let n_signals = windows[0][0].len();
        for (i, w) in windows.iter().enumerate() {
            if w.len() != config.seq_len {
                return Err(DetectError::WindowLength {
                    index: i,
                    got: w.len(),
                    expected: config.seq_len,
                });
            }
            if !w.iter().all(|r| r.len() == n_signals) {
                return Err(DetectError::RaggedWindow { index: i });
            }
        }

        let mut scaler = MinMaxScaler::new();
        let all_rows: Vec<Vec<f64>> = windows.iter().flatten().cloned().collect();
        scaler.try_fit(&all_rows)?;
        let scaled: Vec<Window> = windows
            .iter()
            .map(|w| scaler.transform(w))
            .collect::<Result<_, _>>()?;
        // Well-formed outliers only, in the *benign* feature frame — they
        // must not stretch the scaler's range.
        let scaled_outliers: Vec<Window> = outliers
            .iter()
            .filter(|w| {
                w.len() == config.seq_len
                    && w.iter().all(|r| r.len() == n_signals && r.iter().all(|v| v.is_finite()))
            })
            .map(|w| scaler.transform(w))
            .collect::<Result<_, _>>()?;
        let _oe_span = (!scaled_outliers.is_empty()).then(|| {
            lgo_trace::counter(
                "detect/madgan/outlier_windows",
                scaled_outliers.len() as u64,
            );
            lgo_trace::span("detect/madgan/fit_oe")
        });

        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut generator = LstmSeq2Seq::new(
            config.latent_dim,
            config.hidden,
            n_signals,
            Activation::Sigmoid,
            &mut rng,
        );
        let mut discriminator = LstmDiscriminator::new(n_signals, config.hidden, &mut rng);
        let mut opt_g = Adam::new(config.learning_rate);
        let mut opt_d = Adam::new(config.learning_rate);

        let mut order: Vec<usize> = (0..scaled.len()).collect();
        let mut next_outlier = 0usize;
        let mut z = vec![0.0; config.seq_len * config.latent_dim];
        for _epoch in 0..config.epochs {
            use rand::seq::SliceRandom;
            order.shuffle(&mut rng);
            for batch in order.chunks(config.batch_size) {
                // --- Discriminator step: real -> 1, fake -> 0, outlier -> 0.
                discriminator.zero_grads();
                for &wi in batch {
                    let real = &scaled[wi];
                    let tr = discriminator.forward(real);
                    discriminator.backward(&tr, Loss::Bce.gradient(tr.probability(), 1.0));
                    Self::draw_latent(&mut rng, &mut z);
                    let fake = generator.forward_flat(&z);
                    let tr = discriminator.forward_flat(fake.outputs());
                    discriminator.backward(&tr, Loss::Bce.gradient(tr.probability(), 0.0));
                }
                if !scaled_outliers.is_empty() {
                    // One exposure per optimizer step, cycled in order; no
                    // RNG is consumed, so the weight trajectory differs
                    // from the plain fit's only through the exposures.
                    let o = &scaled_outliers[next_outlier % scaled_outliers.len()];
                    next_outlier += 1;
                    let tr = discriminator.forward(o);
                    discriminator.backward(&tr, Loss::Bce.gradient(tr.probability(), 0.0));
                }
                opt_d.step(&mut discriminator);

                // --- Generator step: make D(G(z)) -> 1. The gradient
                // reaches G's outputs through D's pure input-gradient path,
                // so D's parameter gradients are never touched.
                generator.zero_grads();
                for _ in 0..batch.len() {
                    Self::draw_latent(&mut rng, &mut z);
                    let g_trace = generator.forward_flat(&z);
                    let d_trace = discriminator.forward_flat(g_trace.outputs());
                    let dprob = Loss::Bce.gradient(d_trace.probability(), 1.0);
                    let dxs = discriminator.input_grad(&d_trace, dprob);
                    generator.backward(&g_trace, &dxs);
                }
                opt_g.step(&mut generator);
            }
        }

        z.fill(0.0);
        let zero_latent_trace = generator.forward_flat(&z);
        let mut gan = Self {
            generator,
            zero_latent_trace,
            discriminator,
            scaler,
            threshold: 0.0,
            config: config.clone(),
        };
        // Calibrate the threshold on (a subsample of) the training windows.
        let stride = (windows.len() / 200).max(1);
        let train_scores: Vec<f64> = windows
            .iter()
            .step_by(stride)
            .map(|w| gan.dr_score(w))
            .collect();
        gan.threshold = lgo_series::stats::quantile(&train_scores, config.threshold_quantile)
            // lint: allow(L1): windows is nonempty (checked at entry) and stride >= 1, so at least one score exists
            .expect("nonempty scores");
        Ok(gan)
    }

    /// Fills the flat `seq_len × latent_dim` latent buffer with uniform
    /// draws in `[-1, 1)`, row-major.
    fn draw_latent(rng: &mut StdRng, z: &mut [f64]) {
        for v in z {
            *v = rng.random_range(-1.0..1.0);
        }
    }

    /// The calibrated DR-Score anomaly threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The raw DR-Score of a window: `λ·residual + (1−λ)·(1 − D(x))`.
    ///
    /// The reconstruction residual is the mean squared error between the
    /// (scaled) window and its best generator reconstruction, found by
    /// gradient descent in latent space.
    ///
    /// # Panics
    ///
    /// Panics if the window length or width differs from the training
    /// windows'. Use [`try_dr_score`](Self::try_dr_score) to handle
    /// malformed windows gracefully.
    pub fn dr_score(&self, window: &Window) -> f64 {
        match self.try_dr_score(window) {
            Ok(score) => score,
            // lint: allow(L1): documented panicking wrapper; try_dr_score is the checked path
            Err(e) => panic!("dr_score: {e}"),
        }
    }

    /// Fallible [`dr_score`](Self::dr_score).
    ///
    /// # Errors
    ///
    /// Returns [`DetectError::WindowLength`] when the window length differs
    /// from the configured `seq_len`, and [`DetectError::Scaler`] when its
    /// width differs from the training windows'.
    pub fn try_dr_score(&self, window: &Window) -> Result<f64, DetectError> {
        if window.len() != self.config.seq_len {
            return Err(DetectError::WindowLength {
                index: 0,
                got: window.len(),
                expected: self.config.seq_len,
            });
        }
        let x = self.scaler.transform(window)?;
        let d = self.discriminator.probability(&x);
        let residual = self.reconstruction_residual(&x);
        Ok(self.config.lambda * residual + (1.0 - self.config.lambda) * (1.0 - d))
    }

    /// Best-effort reconstruction residual via latent-space gradient
    /// descent. The residual reported is the **maximum per-timestep squared
    /// error of the first (CGM) signal** over the best reconstruction found:
    /// a manipulation corrupts only a few samples of one channel and must
    /// not be averaged away by the benign remainder of the window.
    fn reconstruction_residual(&self, x_scaled: &Window) -> f64 {
        let signals = self.generator.output_size();
        let mut z = vec![0.0; self.config.seq_len * self.config.latent_dim];
        let mut dys = vec![0.0; self.config.seq_len * signals];
        let n = dys.len() as f64;
        let mut best = f64::INFINITY;
        for step in 0..self.config.inversion_steps {
            let stepped;
            let trace = if step == 0 {
                &self.zero_latent_trace
            } else {
                stepped = self.generator.forward_flat(&z);
                &stepped
            };
            let outs = trace.outputs();
            let worst = outs
                .chunks_exact(signals)
                .zip(x_scaled)
                .map(|(o, t)| (o[0] - t[0]) * (o[0] - t[0]))
                .fold(0.0, f64::max);
            best = best.min(worst);
            if step + 1 == self.config.inversion_steps {
                // The last step's latent update would never be evaluated.
                break;
            }
            for ((d, o), t) in dys
                .chunks_exact_mut(signals)
                .zip(outs.chunks_exact(signals))
                .zip(x_scaled)
            {
                for ((dv, &a), &b) in d.iter_mut().zip(o).zip(t) {
                    *dv = 2.0 * (a - b) / n;
                }
            }
            let dz = self.generator.input_grad(trace, &dys);
            for (zv, &dv) in z.iter_mut().zip(&dz) {
                *zv -= self.config.inversion_lr * dv;
            }
        }
        best
    }
}

impl AnomalyDetector for MadGan {
    fn name(&self) -> &str {
        "madgan"
    }

    /// Score = DR-Score − calibrated threshold.
    fn score(&self, window: &Window) -> f64 {
        lgo_trace::counter("detect/madgan/scores", 1);
        self.dr_score(window) - self.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smooth_window(phase: f64) -> Window {
        (0..12)
            .map(|t| {
                let v = ((t as f64) * 0.5 + phase).sin() * 0.25 + 0.5;
                vec![v, v * 0.7, 1.0 - v, 0.5]
            })
            .collect()
    }

    fn noise_window(seed: u64) -> Window {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..12)
            .map(|_| (0..4).map(|_| rng.random_range(0.0..1.0)).collect())
            .collect()
    }

    fn quick_cfg() -> MadGanConfig {
        MadGanConfig {
            epochs: 8,
            hidden: 10,
            inversion_steps: 10,
            batch_size: 8,
            ..MadGanConfig::default()
        }
    }

    fn training_set() -> Vec<Window> {
        (0..48).map(|i| smooth_window(i as f64 * 0.3)).collect()
    }

    #[test]
    fn fit_and_score_are_finite_and_deterministic() {
        let gan = MadGan::fit(&training_set(), &quick_cfg());
        let w = smooth_window(0.1);
        let s1 = gan.score(&w);
        let s2 = gan.score(&w);
        assert!(s1.is_finite());
        assert_eq!(s1, s2);
        assert_eq!(gan.name(), "madgan");
        assert!(gan.threshold().is_finite());
    }

    #[test]
    fn anomalies_score_higher_than_benign() {
        let gan = MadGan::fit(&training_set(), &quick_cfg());
        let benign_mean: f64 = (0..8)
            .map(|i| gan.dr_score(&smooth_window(i as f64 * 0.37 + 0.05)))
            .sum::<f64>()
            / 8.0;
        let anomalous_mean: f64 = (0..8)
            .map(|i| gan.dr_score(&noise_window(100 + i)))
            .sum::<f64>()
            / 8.0;
        assert!(
            anomalous_mean > benign_mean,
            "anomalous {anomalous_mean:.4} <= benign {benign_mean:.4}"
        );
    }

    #[test]
    fn threshold_quantile_bounds_training_flags() {
        let train = training_set();
        let gan = MadGan::fit(&train, &quick_cfg());
        let flagged = train.iter().filter(|w| gan.is_anomalous(w)).count();
        // At the 0.95 quantile, at most ~5% of training windows (plus
        // rounding slack) may be flagged.
        assert!(
            flagged <= train.len() / 10 + 1,
            "{flagged}/{} training windows flagged",
            train.len()
        );
    }

    #[test]
    fn reconstruction_improves_with_more_steps() {
        let train = training_set();
        let mut few = quick_cfg();
        few.inversion_steps = 1;
        let mut many = quick_cfg();
        many.inversion_steps = 25;
        let g_few = MadGan::fit(&train, &few);
        let g_many = MadGan::fit(&train, &many);
        // Same weights (same seed/epochs); more inversion steps can only
        // lower the best-found residual, hence the DR-Score.
        let w = smooth_window(0.9);
        assert!(g_many.dr_score(&w) <= g_few.dr_score(&w) + 1e-9);
    }

    /// Plain-fit outputs pinned bit for bit: calibrated threshold and
    /// DR-Scores on fixed benign and noise windows.
    #[test]
    fn plain_fit_golden_bits() {
        let gan = MadGan::fit(&training_set(), &quick_cfg());
        assert_eq!(gan.threshold().to_bits(), 0x3fe0880830204793);
        let windows = [
            smooth_window(0.1),
            smooth_window(0.9),
            smooth_window(2.3),
            noise_window(7),
            noise_window(8),
            noise_window(9),
        ];
        let golden: [u64; 6] = [
            0x3fd74b4dd9e92a17,
            0x3fd499c53edfd965,
            0x3fe10b57206bdb32,
            0x3ff4f3408c29d852,
            0x3ff214c5719d2471,
            0x3ff302fa50c9f9dd,
        ];
        for (w, bits) in windows.iter().zip(golden) {
            assert_eq!(gan.dr_score(w).to_bits(), bits);
        }
    }

    /// DR-Scores pinned bit for bit across inversion lengths, so the
    /// latent-descent loop (first step, last step, everything between)
    /// cannot drift: calibrated threshold, then four fixed windows.
    #[test]
    fn dr_score_golden_bits_across_inversion_steps() {
        let golden: [(usize, [u64; 5]); 4] = [
            (1, [
                0x3fe08b1680b1c00e,
                0x3fd5d641027e7c01,
                0x3fda01ae66d09bb1,
                0x3fe5d1fb749553cf,
                0x3fe87a20f392c39b,
            ]),
            (2, [
                0x3fe08ac04da266fb,
                0x3fd5d4138eb700a2,
                0x3fda012792e8436d,
                0x3fe5d177459e1e34,
                0x3fe87a20f392c39b,
            ]),
            (4, [
                0x3fe08a135d4d9193,
                0x3fd5cfbaf5878b35,
                0x3fda00193e570720,
                0x3fe5d06edcd000cc,
                0x3fe87a20f392c39b,
            ]),
            (20, [
                0x3fe084916a5b18ee,
                0x3fd5b33aea87f977,
                0x3fd9f78671e3da79,
                0x3fe5c82988db5ae1,
                0x3fe87a20f392c39b,
            ]),
        ];
        let windows = [smooth_window(0.4), smooth_window(1.7), noise_window(3), noise_window(11)];
        for (steps, bits) in golden {
            let cfg = MadGanConfig { inversion_steps: steps, ..quick_cfg() };
            let gan = MadGan::fit(&training_set(), &cfg);
            assert_eq!(gan.threshold().to_bits(), bits[0], "threshold, {steps} steps");
            for (i, w) in windows.iter().enumerate() {
                assert_eq!(gan.dr_score(w).to_bits(), bits[i + 1], "window {i}, {steps} steps");
            }
        }
    }

    #[test]
    fn malformed_outliers_reduce_bitwise_to_plain_fit() {
        let train = training_set();
        let cfg = quick_cfg();
        let plain = MadGan::try_fit(&train, &cfg).unwrap();
        // Wrong length, non-finite and wrong width: every outlier is
        // dropped, so the fit is the plain one.
        let malformed = vec![
            vec![vec![0.5; 4]; 5],
            vec![vec![f64::NAN; 4]; 12],
            vec![vec![0.5; 3]; 12],
        ];
        let dropped = MadGan::try_fit_with_outliers(&train, &malformed, &cfg).unwrap();
        assert_eq!(plain.threshold().to_bits(), dropped.threshold().to_bits());
        for w in train.iter().take(6) {
            assert_eq!(
                plain.dr_score(w).to_bits(),
                dropped.dr_score(w).to_bits(),
                "malformed-outlier reduction diverged"
            );
        }
    }

    #[test]
    fn invalid_config_is_an_error_not_a_panic() {
        let train = training_set();
        let cases = [
            ("batch_size", MadGanConfig { batch_size: 0, ..quick_cfg() }),
            ("threshold_quantile", MadGanConfig { threshold_quantile: 1.5, ..quick_cfg() }),
            ("threshold_quantile", MadGanConfig { threshold_quantile: -0.1, ..quick_cfg() }),
            ("threshold_quantile", MadGanConfig { threshold_quantile: f64::NAN, ..quick_cfg() }),
        ];
        for (field, cfg) in cases {
            let err = MadGan::try_fit(&train, &cfg).unwrap_err();
            assert!(
                matches!(err, DetectError::InvalidConfig { field: f, .. } if f == field),
                "{field}: {err:?}"
            );
        }
    }

    #[test]
    fn zero_inversion_steps_is_an_error_not_a_nan_detector() {
        let cfg = MadGanConfig { inversion_steps: 0, ..quick_cfg() };
        let err = MadGan::try_fit(&training_set(), &cfg).unwrap_err();
        assert!(
            matches!(err, DetectError::InvalidConfig { field: "inversion_steps", .. }),
            "{err:?}"
        );
    }

    #[test]
    fn zero_hidden_is_an_error_not_a_panic() {
        let cfg = MadGanConfig { hidden: 0, ..quick_cfg() };
        let err = MadGan::try_fit(&training_set(), &cfg).unwrap_err();
        assert!(matches!(err, DetectError::InvalidConfig { field: "hidden", .. }), "{err:?}");
    }

    #[test]
    fn zero_latent_dim_is_an_error_not_a_panic() {
        let cfg = MadGanConfig { latent_dim: 0, ..quick_cfg() };
        let err = MadGan::try_fit(&training_set(), &cfg).unwrap_err();
        assert!(
            matches!(err, DetectError::InvalidConfig { field: "latent_dim", .. }),
            "{err:?}"
        );
    }

    #[test]
    fn zero_seq_len_is_an_error_not_a_panic() {
        // Empty windows match a zero seq_len, which used to reach an
        // out-of-bounds index while reading the signal count.
        let cfg = MadGanConfig { seq_len: 0, ..quick_cfg() };
        let empty: Vec<Window> = vec![Vec::new(); 4];
        let err = MadGan::try_fit(&empty, &cfg).unwrap_err();
        assert!(matches!(err, DetectError::InvalidConfig { field: "seq_len", .. }), "{err:?}");
    }

    #[test]
    fn outlier_exposure_raises_discrimination_score_on_outliers() {
        let train = training_set();
        // Pure discrimination score (λ = 0) isolates the discriminator's
        // response, which is what outlier exposure trains.
        let cfg = MadGanConfig {
            lambda: 0.0,
            ..quick_cfg()
        };
        let outliers: Vec<Window> = (0..8).map(|i| noise_window(900 + i)).collect();
        let plain = MadGan::try_fit(&train, &cfg).unwrap();
        let oe = MadGan::try_fit_with_outliers(&train, &outliers, &cfg).unwrap();
        let mean = |gan: &MadGan| {
            outliers.iter().map(|w| gan.dr_score(w)).sum::<f64>() / outliers.len() as f64
        };
        assert!(
            mean(&oe) > mean(&plain),
            "exposure did not raise outlier discrimination: oe {} vs plain {}",
            mean(&oe),
            mean(&plain)
        );
    }

    #[test]
    #[should_panic(expected = "has length 5 (expected 12)")]
    fn wrong_window_length_rejected() {
        let gan = MadGan::fit(&training_set(), &quick_cfg());
        let _ = gan.dr_score(&vec![vec![0.5; 4]; 5]);
    }

    #[test]
    fn try_dr_score_reports_malformed_windows() {
        let gan = MadGan::fit(&training_set(), &quick_cfg());
        let err = gan.try_dr_score(&vec![vec![0.5; 4]; 5]).unwrap_err();
        assert!(matches!(
            err,
            DetectError::WindowLength {
                got: 5,
                expected: 12,
                ..
            }
        ));
        // A well-formed window agrees with the panicking path.
        let w = smooth_window(0.7);
        assert_eq!(gan.try_dr_score(&w).unwrap(), gan.dr_score(&w));
    }

    #[test]
    #[should_panic(expected = "no training windows")]
    fn empty_training_rejected() {
        let _ = MadGan::fit(&[], &quick_cfg());
    }
}
