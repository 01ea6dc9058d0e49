use std::sync::Arc;

use lgo_series::window::flatten;
use lgo_series::StandardScaler;
use lgo_tensor::vector::dot;
use lgo_tensor::Matrix;

use crate::detector::{AnomalyDetector, ScoreScratch, Window};
use crate::error::DetectError;

/// Kernel functions for the one-class SVM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kernel {
    /// `K(u, v) = u · v`
    Linear,
    /// `K(u, v) = exp(-γ ‖u − v‖²)`
    Rbf {
        /// Bandwidth γ.
        gamma: f64,
    },
    /// `K(u, v) = tanh(γ u · v + coef0)` — the paper's kernel
    /// (γ = auto = 1/n_features, coef0 = 10).
    Sigmoid {
        /// Slope γ.
        gamma: f64,
        /// Offset added inside the tanh.
        coef0: f64,
    },
    /// `K(u, v) = (γ u · v + coef0)^degree`
    Polynomial {
        /// Slope γ.
        gamma: f64,
        /// Offset.
        coef0: f64,
        /// Polynomial degree.
        degree: u32,
    },
}

impl Kernel {
    /// Evaluates the kernel.
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths.
    pub fn eval(&self, u: &[f64], v: &[f64]) -> f64 {
        match *self {
            Kernel::Linear => dot(u, v),
            Kernel::Rbf { gamma } => {
                let d2: f64 = u.iter().zip(v).map(|(&a, &b)| (a - b) * (a - b)).sum();
                (-gamma * d2).exp()
            }
            Kernel::Sigmoid { gamma, coef0 } => (gamma * dot(u, v) + coef0).tanh(),
            Kernel::Polynomial {
                gamma,
                coef0,
                degree,
            } => (gamma * dot(u, v) + coef0).powi(degree as i32),
        }
    }
}

/// Configuration of the ν-one-class SVM, defaulting to the paper's
/// Appendix-B parameters (`OneClassSVM(kernel="sigmoid", gamma="auto",
/// coef0=10, nu=0.5, tol=0.001)`). `gamma = None` means scikit-learn's
/// `auto`: `1 / n_features`, resolved at fit time.
#[derive(Debug, Clone, PartialEq)]
pub struct OcSvmConfig {
    /// ν ∈ (0, 1]: upper bound on the training outlier fraction and lower
    /// bound on the support-vector fraction.
    pub nu: f64,
    /// Kernel family; the auto variants of [`KernelSpec`] resolve
    /// `gamma = 1 / n_features` at fit time.
    pub kernel: KernelSpec,
    /// KKT-violation tolerance for SMO termination.
    pub tol: f64,
    /// Hard cap on SMO iterations (`None` = scikit's −1, i.e. unlimited, in
    /// practice bounded by a large safety value).
    pub max_iter: Option<usize>,
    /// Optional cap on training windows (uniform stride subsample); keeps
    /// the O(n²) kernel matrix affordable on big cohorts.
    pub max_samples: Option<usize>,
    /// Empirical decision-threshold calibration: the anomaly cutoff is set
    /// at this quantile of the *training* decision values instead of the
    /// raw `f(x) < 0` rule. This keeps the detector usable when the
    /// sigmoid kernel saturates (`tanh(γ·u·v + 10) ≈ 1` over most of the
    /// input range, which collapses `f` toward a constant — the ordering of
    /// decision values stays informative while the zero crossing does not).
    /// `None` uses the classical sign rule.
    pub calibration_quantile: Option<f64>,
}

/// A kernel whose γ may be deferred to fit time (`gamma = auto`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KernelSpec {
    /// Fully specified kernel.
    Fixed(Kernel),
    /// Sigmoid kernel with γ = 1/n_features resolved at fit time.
    SigmoidAuto {
        /// Offset added inside the tanh.
        coef0: f64,
    },
    /// RBF kernel with γ = 1/n_features resolved at fit time.
    RbfAuto,
}

impl Default for OcSvmConfig {
    fn default() -> Self {
        Self {
            nu: 0.5,
            kernel: KernelSpec::SigmoidAuto { coef0: 10.0 },
            tol: 1e-3,
            max_iter: None,
            max_samples: Some(1500),
            calibration_quantile: Some(0.10),
        }
    }
}

/// ν-one-class SVM (Schölkopf et al., 2001) trained with SMO — the paper's
/// second anomaly detector.
///
/// Trained on benign windows only; the decision function
/// `f(x) = Σ αᵢ K(xᵢ, x) − ρ` is negative for anomalies.
///
/// # Examples
///
/// ```
/// use lgo_detect::{AnomalyDetector, OcSvmConfig, OneClassSvm, KernelSpec, Kernel};
///
/// let benign: Vec<Vec<Vec<f64>>> = (0..40)
///     .map(|i| vec![vec![(i as f64 * 0.7).sin(), (i as f64 * 0.7).cos()]])
///     .collect();
/// let cfg = OcSvmConfig {
///     kernel: KernelSpec::Fixed(Kernel::Rbf { gamma: 1.0 }),
///     nu: 0.1,
///     ..OcSvmConfig::default()
/// };
/// let svm = OneClassSvm::fit(&benign, &cfg);
/// // A point far outside the unit circle is anomalous.
/// assert!(svm.is_anomalous(&vec![vec![5.0, 5.0]]));
/// ```
#[derive(Debug, Clone)]
pub struct OneClassSvm {
    /// Support vectors as rows of one flat matrix — contiguous storage for
    /// the batched scoring path ([`AnomalyDetector::score_batch`]).
    support: Matrix,
    alphas: Vec<f64>,
    rho: f64,
    kernel: Kernel,
    iterations: usize,
    /// Why SMO stopped and its final KKT gap: solver-test evidence only,
    /// since fits report stop reasons through the
    /// `detect/ocsvm/stop/*` trace counters.
    #[cfg(test)]
    stop: SmoStop,
    #[cfg(test)]
    gap: Option<f64>,
    scaler: StandardScaler,
    threshold: f64,
}

/// Why SMO stopped iterating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SmoStop {
    /// The maximal KKT violation `g[j] − g[i]` of the selected working
    /// pair fell below `tol`. At 0 iterations the starting point already
    /// satisfied it, so the solver never moved.
    Tolerance,
    /// No working pair exists: no coefficient can grow, none can shrink,
    /// or the same index was selected for both.
    NoWorkingPair,
    /// The pair's clipped step was not positive, so it cannot move.
    NoProgress,
    /// The iteration cap (`max_iter`) was reached.
    MaxIter,
}

impl SmoStop {
    /// The lgo-trace counter one fit stopping for this reason increments.
    pub fn counter(self) -> &'static str {
        match self {
            SmoStop::Tolerance => "detect/ocsvm/stop/tolerance",
            SmoStop::NoWorkingPair => "detect/ocsvm/stop/no_working_pair",
            SmoStop::NoProgress => "detect/ocsvm/stop/no_progress",
            SmoStop::MaxIter => "detect/ocsvm/stop/max_iter",
        }
    }
}

impl OneClassSvm {
    /// Trains on benign windows with SMO. Windows containing non-finite
    /// values are dropped (see [`try_fit`](Self::try_fit)).
    ///
    /// # Panics
    ///
    /// Panics if `windows` is empty, `nu` is outside `(0, 1]`,
    /// `calibration_quantile` is outside `[0, 1)`, or windows are ragged.
    pub fn fit(windows: &[Window], config: &OcSvmConfig) -> Self {
        match Self::try_fit(windows, config) {
            Ok(svm) => svm,
            // lint: allow(L1): documented panicking wrapper; try_fit is the checked path
            Err(e) => panic!("OneClassSvm: {e}"),
        }
    }

    /// Fallible [`fit`](Self::fit): windows containing non-finite values
    /// (degraded sensor data) are dropped before training. The empty-outlier
    /// case of [`try_fit_with_outliers`](Self::try_fit_with_outliers).
    ///
    /// # Errors
    ///
    /// Returns [`DetectError::NoTrainingWindows`] on empty input,
    /// [`DetectError::InvalidNu`] for `nu` outside `(0, 1]`,
    /// [`DetectError::InvalidConfig`] for a `calibration_quantile` outside
    /// `[0, 1)`, [`DetectError::NoFiniteWindows`] when every window is
    /// corrupt, and [`DetectError::InconsistentShapes`] on mismatched window
    /// shapes.
    pub fn try_fit(windows: &[Window], config: &OcSvmConfig) -> Result<Self, DetectError> {
        Self::try_fit_with_outliers(windows, &[], 0.0, config)
    }

    /// ROAST-style outlier-exposure fit: benign `windows` keep the usual
    /// ν-one-class objective while `outliers` (known-adversarial windows,
    /// e.g. crafted against the more-vulnerable cohort) enter the SMO dual
    /// as a *negative class* with total box mass `outlier_slack`, pushing
    /// the margin away from them.
    ///
    /// Formulation: with signed variables `u` (positives in
    /// `[0, 1/(ν·l⁺)]`, negatives in `[−s/l⁻, 0]` where
    /// `s = outlier_slack` clamped to the feasible `1/ν − 1`), SMO solves
    /// `min ½ uᵀKu` subject to `Σu = 1`. The decision function keeps the
    /// plain form `f(x) = Σ uᵢ K(xᵢ, x) − ρ`, so the signed support
    /// coefficients flow through every scoring path unchanged. The
    /// decision threshold is calibrated on the benign windows only.
    ///
    /// With no usable negatives — an empty or fully non-finite outlier
    /// set, or a non-positive or NaN slack — every box is `[0, 1/(ν·l)]`
    /// and this is the plain ν-one-class fit ([`try_fit`](Self::try_fit)).
    ///
    /// The benign×benign Gram block goes through the shared
    /// [`KernelCache`](crate::KernelCache): ROAST refits grow only the
    /// outlier set, so the (large) benign block is a cache hit on every
    /// round and only the bordered outlier blocks are recomputed. Without
    /// negatives the SMO reads the cached block directly.
    ///
    /// # Errors
    ///
    /// The same errors as [`try_fit`](Self::try_fit);
    /// [`DetectError::InconsistentShapes`] also covers outlier windows
    /// whose flattened width differs from the benign windows'.
    pub fn try_fit_with_outliers(
        windows: &[Window],
        outliers: &[Window],
        outlier_slack: f64,
        config: &OcSvmConfig,
    ) -> Result<Self, DetectError> {
        let _span = lgo_trace::span("detect/ocsvm/fit");
        if windows.is_empty() {
            return Err(DetectError::NoTrainingWindows);
        }
        if !(config.nu > 0.0 && config.nu <= 1.0) {
            return Err(DetectError::InvalidNu { nu: config.nu });
        }
        if let Some(q) = config.calibration_quantile {
            if !(0.0..1.0).contains(&q) {
                return Err(DetectError::InvalidConfig {
                    field: "calibration_quantile",
                    value: q,
                    expected: "[0, 1)",
                });
            }
        }
        // Finite flattened windows, stride-capped at `max_samples`.
        let finite_points = |ws: &[Window]| {
            let points: Vec<Vec<f64>> = ws
                .iter()
                .map(|w| flatten(w))
                .filter(|p| p.iter().all(|v| v.is_finite()))
                .collect();
            match config.max_samples {
                Some(cap) => crate::subsample::subsample_cap(points, cap),
                None => points,
            }
        };
        let pos = finite_points(windows);
        if pos.is_empty() {
            return Err(DetectError::NoFiniteWindows);
        }
        // Feasibility: positives can carry at most 1/ν total mass, so the
        // negative class gets at most 1/ν − 1 without breaking Σu = 1.
        let slack = if outlier_slack > 0.0 {
            outlier_slack.min((1.0 / config.nu - 1.0).max(0.0))
        } else {
            0.0
        };
        let neg = if slack > 0.0 { finite_points(outliers) } else { Vec::new() };
        lgo_trace::counter("detect/ocsvm/fits", 1);
        lgo_trace::counter("detect/ocsvm/fit_points", pos.len() as u64);
        let width = pos[0].len();
        if !pos.iter().chain(&neg).all(|p| p.len() == width) {
            return Err(DetectError::InconsistentShapes);
        }
        let _oe_span = (!neg.is_empty()).then(|| {
            lgo_trace::counter("detect/ocsvm/oe_fits", 1);
            lgo_trace::counter("detect/ocsvm/outlier_points", neg.len() as u64);
            lgo_trace::span("detect/ocsvm/fit_oe")
        });
        // Standardize features: dot-product kernels (sigmoid/polynomial) are
        // meaningless on raw mixed-unit channels. Benign statistics only:
        // the outlier class must not shift the frame the margin lives in.
        let mut scaler = StandardScaler::new();
        scaler.try_fit(&pos)?;
        let pos = scaler.transform(&pos)?;
        let neg = scaler.transform(&neg)?;
        let kernel = match config.kernel {
            KernelSpec::Fixed(k) => k,
            KernelSpec::SigmoidAuto { coef0 } => Kernel::Sigmoid {
                gamma: 1.0 / width as f64,
                coef0,
            },
            KernelSpec::RbfAuto => Kernel::Rbf {
                gamma: 1.0 / width as f64,
            },
        };

        let n_pos = pos.len();
        let n_neg = neg.len();
        let l = n_pos + n_neg;
        let upper = 1.0 / (config.nu * n_pos as f64);
        let c_neg = slack / n_neg as f64; // read only when n_neg > 0
        // Per-index box `[lo, hi]`: positives push the margin out, the
        // negative class pulls it in with bounded mass.
        let lo = |t: usize| if t < n_pos { 0.0 } else { -c_neg };
        let hi = |t: usize| if t < n_pos { upper } else { 0.0 };

        // Standardized benign points as one flat matrix: the Gram
        // computation and the support set want contiguous rows. Their Gram
        // block comes from the shared KernelCache — one tiled computation
        // per distinct (kernel, roster), reused across the strategy ×
        // detector grid and across ROAST rounds.
        let pts_pos = Matrix::from_rows(&pos.iter().map(Vec::as_slice).collect::<Vec<_>>());
        let q_pp = crate::kernel_cache::lock_global().gram(kernel, &pts_pos);
        let q: Arc<Matrix> = if n_neg == 0 {
            q_pp
        } else {
            Arc::new(bordered_gram(kernel, &q_pp, &pts_pos, &neg))
        };

        // libsvm's one-class initialization on the positive block (Σu = 1):
        // the first ⌊νl⁺⌋ points get the box maximum, the next the
        // fractional remainder; negatives start inactive at their upper
        // bound 0.
        let mut u = vec![0.0; l];
        let n_full = (config.nu * n_pos as f64).floor() as usize;
        for a in u.iter_mut().take(n_full.min(n_pos)) {
            *a = upper;
        }
        if n_full < n_pos {
            u[n_full] = config.nu * n_pos as f64 - n_full as f64;
            u[n_full] *= upper;
        }

        // Gradient g_i = (Qu)_i, over contiguous Gram rows.
        let mut g: Vec<f64> = (0..l)
            .map(|i| q.row(i).iter().zip(&u).map(|(&qv, &a)| qv * a).sum())
            .collect();

        let max_iter = config.max_iter.unwrap_or(100 * l.max(100));
        let mut iterations = 0;
        let (stop, _gap) = loop {
            // First-order working-set selection over the boxes: i can
            // still grow (u_i < hi_i) minimizing g_i, j can still shrink
            // (u_j > lo_j) maximizing g_j.
            let mut i_sel: Option<usize> = None;
            let mut j_sel: Option<usize> = None;
            for t in 0..l {
                if u[t] < hi(t) - 1e-12 && i_sel.is_none_or(|i| g[t] < g[i]) {
                    i_sel = Some(t);
                }
                if u[t] > lo(t) + 1e-12 && j_sel.is_none_or(|j| g[t] > g[j]) {
                    j_sel = Some(t);
                }
            }
            let (Some(i), Some(j)) = (i_sel, j_sel) else {
                break (SmoStop::NoWorkingPair, None);
            };
            let gap = g[j] - g[i];
            if gap < config.tol {
                break (SmoStop::Tolerance, Some(gap)); // KKT satisfied within tolerance
            }
            if i == j {
                break (SmoStop::NoWorkingPair, Some(gap));
            }
            if iterations == max_iter {
                break (SmoStop::MaxIter, Some(gap));
            }
            // Pairwise update preserving u_i + u_j (equality constraint).
            let (qi, qj) = (q.row(i), q.row(j));
            let quad = (qi[i] + qj[j] - 2.0 * qi[j]).max(1e-12);
            let mut delta = gap / quad;
            delta = delta.min(hi(i) - u[i]).min(u[j] - lo(j));
            if delta <= 0.0 {
                break (SmoStop::NoProgress, Some(gap));
            }
            u[i] += delta;
            u[j] -= delta;
            for (gt, (&qit, &qjt)) in g.iter_mut().zip(qi.iter().zip(qj)) {
                *gt += delta * (qit - qjt);
            }
            iterations += 1;
        };
        lgo_trace::record("detect/ocsvm/smo_iterations", iterations as u64);
        lgo_trace::counter(stop.counter(), 1);

        // ρ: average gradient over strictly-interior vectors, or the
        // midpoint of the boundary gradients when none are free.
        let free: Vec<usize> = (0..l)
            .filter(|&t| u[t] > lo(t) + 1e-12 && u[t] < hi(t) - 1e-12)
            .collect();
        let rho = if !free.is_empty() {
            free.iter().map(|&t| g[t]).sum::<f64>() / free.len() as f64
        } else {
            let ub = (0..l)
                .filter(|&t| u[t] <= lo(t) + 1e-12)
                .map(|t| g[t])
                .fold(f64::INFINITY, f64::min);
            let lb = (0..l)
                .filter(|&t| u[t] >= hi(t) - 1e-12)
                .map(|t| g[t])
                .fold(f64::NEG_INFINITY, f64::max);
            match (ub.is_finite(), lb.is_finite()) {
                (true, true) => (ub + lb) / 2.0,
                (true, false) => ub,
                (false, true) => lb,
                _ => 0.0,
            }
        };

        // Keep support vectors of either sign (Σu = 1 guarantees at least
        // one); signed coefficients flow through decide()/score_batch.
        let mut sv_rows: Vec<&[f64]> = Vec::new();
        let mut alphas = Vec::new();
        for (t, &a) in u.iter().enumerate() {
            if a.abs() > 1e-12 {
                sv_rows.push(if t < n_pos {
                    pts_pos.row(t)
                } else {
                    neg[t - n_pos].as_slice()
                });
                alphas.push(a);
            }
        }
        let support = Matrix::from_rows(&sv_rows);
        let mut svm = Self {
            support,
            alphas,
            rho,
            kernel,
            iterations,
            #[cfg(test)]
            stop,
            #[cfg(test)]
            gap: _gap,
            scaler,
            threshold: 0.0,
        };
        if let Some(q) = config.calibration_quantile {
            let decisions: Vec<f64> = windows
                .iter()
                .filter(|w| w.iter().flatten().all(|v| v.is_finite()))
                .map(|w| svm.try_decision_function(w))
                .collect::<Result<_, _>>()?;
            svm.threshold = lgo_series::stats::quantile(&decisions, q)
                // lint: allow(L1): at least one finite window exists (NoFiniteWindows otherwise), so decisions is nonempty
                .expect("nonempty training set");
        }
        Ok(svm)
    }

    /// Decision function `f(x) = Σ αᵢ K(xᵢ, x) − ρ` on the standardized
    /// input; lower values are more anomalous.
    ///
    /// # Panics
    ///
    /// Panics if the flattened window width differs from the training
    /// windows'. Use [`try_decision_function`](Self::try_decision_function)
    /// to handle malformed windows gracefully.
    pub fn decision_function(&self, window: &Window) -> f64 {
        match self.try_decision_function(window) {
            Ok(f) => f,
            // lint: allow(L1): documented panicking wrapper; try_decision_function is the checked path
            Err(e) => panic!("decision_function: {e}"),
        }
    }

    /// Fallible [`decision_function`](Self::decision_function).
    ///
    /// # Errors
    ///
    /// Returns [`DetectError::Scaler`] when the flattened window width
    /// differs from the training windows'.
    pub fn try_decision_function(&self, window: &Window) -> Result<f64, DetectError> {
        let x = self
            .scaler
            .transform(&[flatten(window)])?
            .pop()
            // lint: allow(L1): StandardScaler::transform returns exactly one row per input row
            .expect("one row in, one row out");
        Ok(self.decide(&x))
    }

    /// The decision sum over a standardized feature row — shared by every
    /// scoring path so they cannot drift apart.
    fn decide(&self, x: &[f64]) -> f64 {
        let s: f64 = self
            .support
            .iter_rows()
            .zip(&self.alphas)
            .map(|(sv, &a)| a * self.kernel.eval(sv, x))
            .sum();
        s - self.rho
    }

    /// [`decision_function`](Self::decision_function) against caller-owned
    /// buffers: zero allocations once the scratch is warm, identical bits.
    ///
    /// # Panics
    ///
    /// Panics if the flattened window width differs from the training
    /// windows' (the same contract as
    /// [`decision_function`](Self::decision_function)).
    pub fn decision_function_into(&self, window: &Window, scratch: &mut ScoreScratch) -> f64 {
        scratch.flat.clear();
        for row in window {
            scratch.flat.extend_from_slice(row);
        }
        if let Err(e) = self.scaler.transform_row_into(&scratch.flat, &mut scratch.row) {
            // lint: allow(L1): mirrors decision_function's documented panicking contract
            panic!("decision_function: {e}");
        }
        self.decide(&scratch.row)
    }

    /// The scalar kernel transform applied to a precomputed dot product —
    /// the per-entry step of the batched scoring path. Only meaningful for
    /// the dot-product kernel families.
    fn transform_dot(&self, d: f64) -> f64 {
        match self.kernel {
            Kernel::Linear => d,
            Kernel::Sigmoid { gamma, coef0 } => (gamma * d + coef0).tanh(),
            Kernel::Polynomial {
                gamma,
                coef0,
                degree,
            } => (gamma * d + coef0).powi(degree as i32),
            // lint: allow(L1): score_batch routes RBF to the per-window path before this
            Kernel::Rbf { .. } => unreachable!("rbf is not a dot-product kernel"),
        }
    }

    /// The calibrated anomaly cutoff on the decision function (0 when the
    /// classical sign rule is in use).
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Number of support vectors retained.
    pub fn support_vector_count(&self) -> usize {
        self.support.rows()
    }

    /// SMO iterations spent during training.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Why SMO stopped.
    #[cfg(test)]
    fn stop_reason(&self) -> SmoStop {
        self.stop
    }

    /// The final KKT gap `g[j] − g[i]` of the last working pair selected
    /// (`None` when no pair could be selected).
    #[cfg(test)]
    fn final_gap(&self) -> Option<f64> {
        self.gap
    }

    /// The resolved kernel (γ filled in for `auto` specs).
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }
}

/// The full Gram matrix over the benign rows followed by the outlier rows:
/// the (cached) benign block `q_pp` copied in, the small bordered outlier
/// blocks computed directly. Every entry is a pure function of its pair,
/// so the result equals the per-pair Gram of the stacked rows bit for bit.
fn bordered_gram(kernel: Kernel, q_pp: &Matrix, pos: &Matrix, neg: &[Vec<f64>]) -> Matrix {
    let n_pos = pos.rows();
    let n_neg = neg.len();
    let l = n_pos + n_neg;
    let mut q = Matrix::zeros(l, l);
    let s = q.as_mut_slice();
    for i in 0..n_pos {
        s[i * l..i * l + n_pos].copy_from_slice(q_pp.row(i));
        for (j, nj) in neg.iter().enumerate() {
            let v = kernel.eval(pos.row(i), nj);
            s[i * l + n_pos + j] = v;
            s[(n_pos + j) * l + i] = v;
        }
    }
    for i in 0..n_neg {
        for j in i..n_neg {
            let v = kernel.eval(&neg[i], &neg[j]);
            s[(n_pos + i) * l + n_pos + j] = v;
            s[(n_pos + j) * l + n_pos + i] = v;
        }
    }
    q
}

impl AnomalyDetector for OneClassSvm {
    fn name(&self) -> &str {
        "ocsvm"
    }

    /// Score = calibrated threshold − decision function, so anomalies are
    /// positive.
    fn score(&self, window: &Window) -> f64 {
        lgo_trace::counter("detect/ocsvm/scores", 1);
        self.threshold - self.decision_function(window)
    }

    fn score_into(&self, window: &Window, scratch: &mut ScoreScratch) -> f64 {
        lgo_trace::counter("detect/ocsvm/scores", 1);
        self.threshold - self.decision_function_into(window, scratch)
    }

    /// Batched scoring. Dot-product kernels compute every
    /// (window × support-vector) dot in one tiled `X · SVᵀ` product, then
    /// apply the scalar kernel transform and α-sum per window in support
    /// order — the identical operations, in the identical order, as
    /// scoring each window alone (products commute bit-exactly), so the
    /// results are bit-identical; RBF (not a dot-product form) falls back
    /// to the per-window loop.
    fn score_batch(&self, windows: &[Window]) -> Vec<f64> {
        if windows.is_empty() {
            return Vec::new();
        }
        lgo_trace::counter("detect/ocsvm/scores", windows.len() as u64);
        let mut scratch = ScoreScratch::new();
        if matches!(self.kernel, Kernel::Rbf { .. }) {
            return windows
                .iter()
                .map(|w| self.threshold - self.decision_function_into(w, &mut scratch))
                .collect();
        }
        let mut xrows: Vec<Vec<f64>> = Vec::with_capacity(windows.len());
        for w in windows {
            scratch.flat.clear();
            for row in w {
                scratch.flat.extend_from_slice(row);
            }
            let mut x = Vec::new();
            if let Err(e) = self.scaler.transform_row_into(&scratch.flat, &mut x) {
                // lint: allow(L1): mirrors decision_function's documented panicking contract
                panic!("decision_function: {e}");
            }
            xrows.push(x);
        }
        if xrows.iter().flatten().any(|v| !v.is_finite()) {
            // A corrupted window would trip matmul_nt's strict-numerics
            // guard; the per-window path propagates its NaN exactly like
            // single-window scoring.
            return windows
                .iter()
                .map(|w| self.threshold - self.decision_function_into(w, &mut scratch))
                .collect();
        }
        let x = Matrix::from_rows(&xrows.iter().map(Vec::as_slice).collect::<Vec<_>>());
        let dots = x.matmul_nt(&self.support);
        (0..dots.rows())
            .map(|i| {
                let s: f64 = dots
                    .row(i)
                    .iter()
                    .zip(&self.alphas)
                    .map(|(&d, &a)| a * self.transform_dot(d))
                    .sum();
                self.threshold - (s - self.rho)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: usize) -> Vec<Window> {
        (0..n)
            .map(|i| {
                let a = i as f64 / n as f64 * std::f64::consts::TAU;
                vec![vec![a.cos(), a.sin()]]
            })
            .collect()
    }

    fn rbf_cfg(nu: f64) -> OcSvmConfig {
        OcSvmConfig {
            nu,
            kernel: KernelSpec::Fixed(Kernel::Rbf { gamma: 1.0 }),
            ..OcSvmConfig::default()
        }
    }

    #[test]
    fn kernel_evaluations() {
        let u = [1.0, 0.0];
        let v = [0.0, 1.0];
        assert_eq!(Kernel::Linear.eval(&u, &v), 0.0);
        assert!((Kernel::Rbf { gamma: 0.5 }.eval(&u, &v) - (-1.0_f64).exp()).abs() < 1e-12);
        let sig = Kernel::Sigmoid {
            gamma: 1.0,
            coef0: 0.0,
        };
        assert_eq!(sig.eval(&u, &v), 0.0_f64.tanh());
        let poly = Kernel::Polynomial {
            gamma: 1.0,
            coef0: 1.0,
            degree: 2,
        };
        assert_eq!(poly.eval(&u, &u), 4.0);
    }

    #[test]
    fn detects_far_outliers_with_rbf() {
        let svm = OneClassSvm::fit(&ring(60), &rbf_cfg(0.1));
        assert!(svm.is_anomalous(&vec![vec![10.0, 10.0]]));
        assert!(svm.decision_function(&vec![vec![1.0, 0.0]]) > svm.decision_function(&vec![vec![10.0, 10.0]]));
        assert!(svm.support_vector_count() > 0);
        assert_eq!(svm.name(), "ocsvm");
    }

    #[test]
    fn nu_bounds_training_outlier_fraction() {
        // With nu = 0.5, at most ~half the training points may be flagged
        // anomalous (property of the nu parameterization).
        let data = ring(40);
        let svm = OneClassSvm::fit(&data, &rbf_cfg(0.5));
        let flagged = data
            .iter()
            .filter(|w| svm.decision_function(w) < 0.0)
            .count();
        assert!(
            flagged as f64 <= 0.5 * data.len() as f64 + 2.0,
            "{flagged}/{} training points flagged",
            data.len()
        );
    }

    #[test]
    fn sigmoid_auto_resolves_gamma() {
        let svm = OneClassSvm::fit(&ring(20), &OcSvmConfig::default());
        match svm.kernel() {
            Kernel::Sigmoid { gamma, coef0 } => {
                assert!((gamma - 0.5).abs() < 1e-12); // 2 features
                assert_eq!(coef0, 10.0);
            }
            other => panic!("unexpected kernel {other:?}"),
        }
    }

    #[test]
    fn max_samples_caps_training_set() {
        let cfg = OcSvmConfig {
            max_samples: Some(10),
            ..rbf_cfg(0.5)
        };
        let svm = OneClassSvm::fit(&ring(200), &cfg);
        assert!(svm.support_vector_count() <= 10);
    }

    #[test]
    fn training_terminates_within_iteration_cap() {
        let cfg = OcSvmConfig {
            max_iter: Some(50),
            ..rbf_cfg(0.3)
        };
        let svm = OneClassSvm::fit(&ring(50), &cfg);
        assert!(svm.iterations() <= 50);
    }

    #[test]
    fn deterministic_training() {
        let a = OneClassSvm::fit(&ring(30), &rbf_cfg(0.2));
        let b = OneClassSvm::fit(&ring(30), &rbf_cfg(0.2));
        let w = vec![vec![0.3, -0.4]];
        assert_eq!(a.decision_function(&w), b.decision_function(&w));
    }

    #[test]
    fn scratch_and_batch_scoring_match_score_bitwise() {
        // Both kernel families: sigmoid exercises the batched dot-product
        // path, RBF the per-window fallback.
        for cfg in [rbf_cfg(0.2), OcSvmConfig::default()] {
            let svm = OneClassSvm::fit(&ring(50), &cfg);
            let queries: Vec<Window> = (0..20)
                .map(|i| vec![vec![i as f64 * 0.17 - 1.5, (i as f64 * 0.29).cos()]])
                .collect();
            let mut scratch = ScoreScratch::new();
            let batch = svm.score_batch(&queries);
            assert_eq!(batch.len(), queries.len());
            for (w, &b) in queries.iter().zip(&batch) {
                let direct = svm.score(w);
                assert_eq!(
                    svm.score_into(w, &mut scratch).to_bits(),
                    direct.to_bits(),
                    "score_into diverged ({:?})",
                    svm.kernel()
                );
                assert_eq!(b.to_bits(), direct.to_bits(), "score_batch diverged ({:?})", svm.kernel());
            }
        }
    }

    /// Plain-fit outputs pinned bit for bit: iteration count, support
    /// size, calibrated threshold and decision values on fixed queries.
    #[test]
    fn plain_fit_golden_bits() {
        let queries: Vec<Window> = [[0.3, -0.4], [1.0, 0.0], [2.0, 2.0], [-0.7, 0.1], [0.0, 0.0]]
            .iter()
            .map(|p| vec![p.to_vec()])
            .collect();
        let golden: [(OcSvmConfig, usize, usize, u64, [u64; 5]); 2] = [
            (
                rbf_cfg(0.3),
                62,
                24,
                0xbf36bdc257a14566,
                [
                    0xbf9442ee95ea42b0,
                    0x3f36ceac80ad9600,
                    0xbfca7965b4f1c235,
                    0x3f7306774cf4edc0,
                    0xbfb25777493d088e,
                ],
            ),
            (
                OcSvmConfig::default(),
                0,
                20,
                0xbe40528134666666,
                [
                    0x3e208f9660000000,
                    0x3e09af8900000000,
                    0xbe126ef0e0000000,
                    0x3e2c07dda0000000,
                    0x3e36a7c0b0000000,
                ],
            ),
        ];
        for (cfg, iterations, svs, threshold, decisions) in golden {
            let svm = OneClassSvm::fit(&ring(40), &cfg);
            assert_eq!(svm.iterations(), iterations, "{:?}", svm.kernel());
            assert_eq!(svm.support_vector_count(), svs, "{:?}", svm.kernel());
            assert_eq!(svm.threshold().to_bits(), threshold, "{:?}", svm.kernel());
            for (w, bits) in queries.iter().zip(decisions) {
                assert_eq!(svm.decision_function(w).to_bits(), bits, "{:?} at {w:?}", svm.kernel());
            }
        }
    }

    /// The paper configuration's sigmoid kernel saturates on standardized
    /// features: the starting KKT gap is already below `tol`, so SMO stops
    /// before its first iteration and the model stays at libsvm's starting
    /// point. An RBF kernel on the same data has a usable gap and iterates.
    #[test]
    fn paper_config_stops_at_zero_iterations_by_the_tolerance_rule() {
        let data = ring(40);
        let paper = OcSvmConfig::default();
        let svm = OneClassSvm::fit(&data, &paper);
        assert_eq!(svm.iterations(), 0);
        assert_eq!(svm.stop_reason(), SmoStop::Tolerance);
        let gap = svm.final_gap().expect("a working pair was selected");
        assert!(gap < paper.tol, "gap {gap}");

        let rbf = OneClassSvm::fit(
            &data,
            &OcSvmConfig {
                kernel: KernelSpec::RbfAuto,
                ..paper.clone()
            },
        );
        assert!(rbf.iterations() > 0);
        assert_eq!(rbf.stop_reason(), SmoStop::Tolerance);
        assert!(rbf.final_gap().expect("pair selected") < paper.tol);

        let capped = OneClassSvm::fit(
            &data,
            &OcSvmConfig {
                kernel: KernelSpec::RbfAuto,
                max_iter: Some(3),
                ..paper
            },
        );
        assert_eq!(capped.iterations(), 3);
        assert_eq!(capped.stop_reason(), SmoStop::MaxIter);
        assert!(capped.final_gap().expect("pair selected") >= 1e-3);
    }

    #[test]
    fn repeated_fits_hit_the_global_kernel_cache() {
        let _g = crate::kernel_cache::test_guard()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // A roster shape no other test uses, so its key is ours alone.
        let data = ring(23);
        let cfg = rbf_cfg(0.45);
        let before = crate::kernel_cache::lock_global().stats();
        let a = OneClassSvm::fit(&data, &cfg);
        let mid = crate::kernel_cache::lock_global().stats();
        let b = OneClassSvm::fit(&data, &cfg);
        let after = crate::kernel_cache::lock_global().stats();
        assert!(mid.misses > before.misses, "first fit must miss");
        assert!(after.hits > mid.hits, "identical refit must hit");
        let w = vec![vec![0.2, 0.8]];
        assert_eq!(a.decision_function(&w).to_bits(), b.decision_function(&w).to_bits());
    }

    #[test]
    fn unusable_outliers_reduce_bitwise_to_plain_fit() {
        let data = ring(40);
        let nan_windows: Vec<Window> = vec![vec![vec![f64::NAN, 0.0]]; 3];
        for cfg in [rbf_cfg(0.3), OcSvmConfig::default()] {
            let plain = OneClassSvm::try_fit(&data, &cfg).unwrap();
            // Zero, negative and NaN slack leave no negative mass; all-NaN
            // outlier windows leave no negatives at all.
            let reduced = [
                OneClassSvm::try_fit_with_outliers(&data, &ring(4), 0.0, &cfg).unwrap(),
                OneClassSvm::try_fit_with_outliers(&data, &ring(4), -0.5, &cfg).unwrap(),
                OneClassSvm::try_fit_with_outliers(&data, &ring(4), f64::NAN, &cfg).unwrap(),
                OneClassSvm::try_fit_with_outliers(&data, &nan_windows, 0.5, &cfg).unwrap(),
            ];
            for svm in &reduced {
                assert_eq!(plain.iterations(), svm.iterations());
                assert_eq!(plain.support_vector_count(), svm.support_vector_count());
                assert_eq!(plain.threshold().to_bits(), svm.threshold().to_bits());
                for w in &data {
                    assert_eq!(
                        plain.decision_function(w).to_bits(),
                        svm.decision_function(w).to_bits(),
                        "unusable-outlier reduction diverged ({:?})",
                        svm.kernel()
                    );
                }
            }
        }
    }

    #[test]
    fn invalid_calibration_quantile_is_an_error() {
        for q in [1.0, -0.1, f64::NAN] {
            let cfg = OcSvmConfig {
                calibration_quantile: Some(q),
                ..rbf_cfg(0.3)
            };
            let err = OneClassSvm::try_fit(&ring(10), &cfg).unwrap_err();
            assert!(
                matches!(
                    err,
                    DetectError::InvalidConfig {
                        field: "calibration_quantile",
                        ..
                    }
                ),
                "q = {q}: {err:?}"
            );
        }
    }

    #[test]
    fn outlier_exposure_shapes_the_margin_against_outliers() {
        // A filled blob (spiral of shrinking radius): interior points carry
        // strictly positive decision values, unlike the pure ring where
        // every training point sits at the margin.
        let data: Vec<Window> = (0..60)
            .map(|i| {
                let a = i as f64 / 60.0 * std::f64::consts::TAU;
                let r = 0.15 + 0.85 * ((i * 7919) % 60) as f64 / 60.0;
                vec![vec![r * a.cos(), r * a.sin()]]
            })
            .collect();
        let cfg = rbf_cfg(0.2);
        let plain = OneClassSvm::try_fit(&data, &cfg).unwrap();
        // Expose an adversarial cluster exactly where the plain fit is most
        // confident — the worst case for the defender, and a guaranteed
        // KKT violation for the negative class (decision > 0 there).
        let anchor = data
            .iter()
            .max_by(|a, b| {
                plain
                    .decision_function(a)
                    .total_cmp(&plain.decision_function(b))
            })
            .unwrap()
            .clone();
        assert!(plain.decision_function(&anchor) > 1e-3);
        let outliers: Vec<Window> = vec![anchor; 6];
        let oe = OneClassSvm::try_fit_with_outliers(&data, &outliers, 0.5, &cfg).unwrap();
        // The negative class carries signed support coefficients.
        assert!(
            oe.alphas.iter().any(|&a| a < 0.0),
            "no negative support coefficients retained"
        );
        // The decision value at the exposed outliers drops relative to the
        // plain fit: the margin is pushed away from them.
        let mean_at = |svm: &OneClassSvm| {
            outliers.iter().map(|w| svm.decision_function(w)).sum::<f64>()
                / outliers.len() as f64
        };
        assert!(
            mean_at(&oe) < mean_at(&plain),
            "exposure did not lower the decision value at the outliers: \
             oe {} vs plain {}",
            mean_at(&oe),
            mean_at(&plain)
        );
        // Anomaly scores (threshold − decision) at the outliers rise.
        let mean_score = |svm: &OneClassSvm| {
            outliers.iter().map(|w| svm.score(w)).sum::<f64>() / outliers.len() as f64
        };
        assert!(mean_score(&oe) > mean_score(&plain));
    }

    #[test]
    fn outlier_refit_reuses_cached_benign_gram_block() {
        let _g = crate::kernel_cache::test_guard()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // A roster shape unique to this test so the cache key is ours.
        let data = ring(29);
        let cfg = rbf_cfg(0.35);
        let round1: Vec<Window> = vec![vec![vec![1.2, 0.1]]];
        let mut round2 = round1.clone();
        round2.push(vec![vec![1.3, -0.1]]);
        let before = crate::kernel_cache::lock_global().stats();
        let _a = OneClassSvm::try_fit_with_outliers(&data, &round1, 0.4, &cfg).unwrap();
        let mid = crate::kernel_cache::lock_global().stats();
        // ROAST round 2: grown outlier set, unchanged benign roster — the
        // big benign×benign Gram block must be a cache hit.
        let _b = OneClassSvm::try_fit_with_outliers(&data, &round2, 0.4, &cfg).unwrap();
        let after = crate::kernel_cache::lock_global().stats();
        assert!(mid.misses > before.misses, "first fit must miss");
        assert!(after.hits > mid.hits, "refit must hit the benign block");
    }

    #[test]
    #[should_panic(expected = "nu = 1.5")]
    fn invalid_nu_rejected() {
        let _ = OneClassSvm::fit(&ring(5), &rbf_cfg(1.5));
    }

    #[test]
    #[should_panic(expected = "no training windows")]
    fn empty_training_rejected() {
        let _ = OneClassSvm::fit(&[], &OcSvmConfig::default());
    }
}
