/// A window of multivariate time-series rows (time-major).
pub type Window = Vec<Vec<f64>>;

/// Reusable buffers for the allocation-free scoring path
/// ([`AnomalyDetector::score_into`]). One scratch serves any number of
/// sequential scoring calls against any detectors; after the first call
/// the buffers are warm and a score allocates nothing.
///
/// The fields are deliberately public and generic — adapters borrow what
/// they need (the summary wrapper its single-row window, the SVM its flat
/// and standardized feature buffers) and custom detectors outside this
/// crate can do the same.
#[derive(Debug, Default)]
pub struct ScoreScratch {
    /// Reusable single-row window for summary-style adapters.
    pub summary_win: Window,
    /// Reusable flattened-feature buffer.
    pub flat: Vec<f64>,
    /// Reusable transformed-feature buffer.
    pub row: Vec<f64>,
}

impl ScoreScratch {
    /// Fresh scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Common interface of all anomaly detectors.
///
/// Implementations are trained by their own `fit` constructors (supervised
/// for kNN, one-class for the SVM and MAD-GAN); this trait covers inference
/// only, which is what the risk-profiling framework composes over.
///
/// `Send + Sync` is required so trained detectors can score windows from
/// lgo-runtime worker threads; inference is read-only, so implementations
/// get this for free unless they smuggle in interior mutability.
pub trait AnomalyDetector: Send + Sync {
    /// Short detector name ("knn", "ocsvm", "madgan").
    fn name(&self) -> &str;

    /// Real-valued anomaly score; **higher means more anomalous**. The scale
    /// is detector-specific; only the ordering and the sign relative to the
    /// detector's internal threshold are meaningful.
    fn score(&self, window: &Window) -> f64;

    /// Binary decision: `true` when the window is flagged malicious.
    ///
    /// The default implementation flags positive scores.
    fn is_anomalous(&self, window: &Window) -> bool {
        self.score(window) > 0.0
    }

    /// [`score`](Self::score) with caller-owned buffers, for hot loops that
    /// score many windows (the serving ladder, the evaluation grid).
    ///
    /// Must return exactly the bits [`score`](Self::score) returns. The
    /// default delegates to `score` (correct for every detector); detectors
    /// with per-call allocations override it to reuse `scratch` instead.
    fn score_into(&self, window: &Window, scratch: &mut ScoreScratch) -> f64 {
        let _ = scratch;
        self.score(window)
    }

    /// Scores a batch of windows, in order. Must return exactly the bits
    /// of scoring each window individually — overrides may batch the
    /// linear algebra (shared matrix products, one scratch) but not change
    /// a single value. The default maps [`score`](Self::score).
    fn score_batch(&self, windows: &[Window]) -> Vec<f64> {
        windows.iter().map(|w| self.score(w)).collect()
    }
}

/// Boxed detectors delegate, so trait-object pipelines (the fallback
/// chain, the serving ladder's fault-injection wrappers) can compose
/// detectors without knowing their concrete types.
impl<D: AnomalyDetector + ?Sized> AnomalyDetector for Box<D> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn score(&self, window: &Window) -> f64 {
        (**self).score(window)
    }

    fn is_anomalous(&self, window: &Window) -> bool {
        (**self).is_anomalous(window)
    }

    fn score_into(&self, window: &Window, scratch: &mut ScoreScratch) -> f64 {
        (**self).score_into(window, scratch)
    }

    fn score_batch(&self, windows: &[Window]) -> Vec<f64> {
        (**self).score_batch(windows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fixed(f64);

    impl AnomalyDetector for Fixed {
        fn name(&self) -> &str {
            "fixed"
        }
        fn score(&self, _w: &Window) -> f64 {
            self.0
        }
    }

    #[test]
    fn default_decision_uses_sign() {
        let w: Window = vec![vec![0.0]];
        assert!(Fixed(1.0).is_anomalous(&w));
        assert!(!Fixed(-1.0).is_anomalous(&w));
        assert!(!Fixed(0.0).is_anomalous(&w));
    }

    #[test]
    fn scratch_and_batch_defaults_delegate_to_score() {
        let d: Box<dyn AnomalyDetector> = Box::new(Fixed(2.5));
        let w: Window = vec![vec![0.0]];
        let mut s = ScoreScratch::new();
        assert_eq!(d.score_into(&w, &mut s), 2.5);
        assert_eq!(d.score_batch(&[w.clone(), w]), vec![2.5, 2.5]);
    }
}
