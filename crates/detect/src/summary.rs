//! Sample-level feature extraction for the point detectors.
//!
//! The paper's kNN and One-Class SVM flag *individual glucose measurements*
//! (its Figure 5 marks per-sample true positives and false negatives), not
//! whole history windows. [`CgmSummaryDetector`] adapts a window-based
//! detector to that granularity: each window is collapsed to a compact
//! feature vector describing the newest sample in its recent context, so the
//! detectors judge "is this latest measurement malicious?" exactly as the
//! paper's do.
//!
//! Collapsing to value-centric features is also what activates the paper's
//! central failure mechanism: a manipulated sample and a genuine
//! hyperglycemic excursion overlap in this space, so a detector trained on
//! patients with many benign-abnormal samples learns to wave malicious
//! values through (false negatives) — the Figure 4 ratio story.

use crate::detector::{AnomalyDetector, Window};

/// Index of the CGM channel within detector windows (matches the
/// forecaster's feature layout).
pub const CGM_COLUMN: usize = 0;

/// Which per-sample feature set to extract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SummaryMode {
    /// `[last, max_recent]` — pure value densities; the right space for the
    /// kNN detector, whose behaviour the paper explains through the density
    /// of benign normal vs abnormal values (Figure 4).
    #[default]
    Value,
    /// `[last, mean, std, max_recent]` — values plus window context; the
    /// right space for the One-Class SVM, which learns a global boundary
    /// around benign behaviour.
    Context,
}

/// Collapses a window into per-sample features of its newest measurement:
///
/// `[last, max_recent]`
///
/// - `last` — the newest CGM value (the sample under judgement),
/// - `max_recent` — maximum over the last three samples (the zone a short
///   Bluetooth manipulation can reach).
///
/// The features are deliberately *value-centric*: no first differences or
/// slopes. A manipulated measurement and a genuine hyperglycemic excursion
/// then occupy the same region of feature space (the paper's Figure-6
/// malicious-abnormal vs benign-abnormal quadrants), which is exactly the
/// ambiguity the risk-profiling defense is about. Derivative features would
/// make short manipulations trivially separable and erase the phenomenon
/// under study.
///
/// # Panics
///
/// Panics if the window is empty or rows lack the CGM column.
pub fn cgm_summary(window: &Window) -> Vec<f64> {
    cgm_summary_mode(window, SummaryMode::Value)
}

/// [`cgm_summary`] with an explicit [`SummaryMode`].
///
/// # Panics
///
/// Panics if the window is empty or rows lack the CGM column.
pub fn cgm_summary_mode(window: &Window, mode: SummaryMode) -> Vec<f64> {
    let mut out = Vec::new();
    cgm_summary_mode_into(window, mode, &mut out);
    out
}

/// [`cgm_summary_mode`] into a caller-owned buffer — the allocation-free
/// variant for hot scoring loops. `out` is cleared and refilled with
/// identical values (same float operations in the same order) to the
/// allocating path.
///
/// # Panics
///
/// Panics if the window is empty or rows lack the CGM column.
pub fn cgm_summary_mode_into(window: &Window, mode: SummaryMode, out: &mut Vec<f64>) {
    assert!(!window.is_empty(), "cgm_summary: empty window");
    let n = window.len();
    let cgm = |i: usize| window[i][CGM_COLUMN];
    let last = cgm(n - 1);
    // IEEE `f64::max` ignores NaN operands, which would silently drop a
    // corrupted reading from the summary; total_cmp ranks NaN above every
    // real, so corruption surfaces in the feature instead of vanishing.
    let max_recent = (n.saturating_sub(3)..n)
        .map(cgm)
        .max_by(|a, b| a.total_cmp(b))
        // The range saturating_sub(3)..n is non-empty for any n >= 1
        // (guaranteed by the is_empty assert above); a future off-by-one
        // must panic here rather than leak f64::MIN into the feature vector.
        // lint: allow(L1): range is non-empty for n >= 1, see comment above
        .expect("cgm_summary: recent-max range is non-empty for n >= 1");
    out.clear();
    match mode {
        SummaryMode::Value => out.extend([last, max_recent]),
        SummaryMode::Context => {
            let mean = (0..n).map(cgm).sum::<f64>() / n as f64;
            let var = (0..n).map(|i| (cgm(i) - mean) * (cgm(i) - mean)).sum::<f64>() / n as f64;
            out.extend([last, mean, var.sqrt(), max_recent]);
        }
    }
}

/// Maps a set of windows through [`cgm_summary_mode`], producing
/// single-row windows suitable for the point detectors.
///
/// Each window is summarized independently on the lgo-runtime pool (in
/// batches, since a single summary is too cheap to be its own task);
/// output order matches input order.
pub fn summarize_all_mode(windows: &[Window], mode: SummaryMode) -> Vec<Window> {
    const BATCH: usize = 64;
    if windows.len() <= BATCH {
        return windows
            .iter()
            .map(|w| vec![cgm_summary_mode(w, mode)])
            .collect();
    }
    lgo_runtime::par_chunks(windows, BATCH, |chunk| {
        chunk
            .iter()
            .map(|w| vec![cgm_summary_mode(w, mode)])
            .collect::<Vec<Window>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Adapter giving a window-based detector per-sample semantics: queries are
/// summarized with [`cgm_summary`] before being scored by the inner
/// detector (which must have been trained on summarized windows, see
/// [`summarize_all_mode`]).
#[derive(Debug, Clone)]
pub struct CgmSummaryDetector<D> {
    inner: D,
    mode: SummaryMode,
}

impl<D: AnomalyDetector> CgmSummaryDetector<D> {
    /// Wraps a detector trained on [`SummaryMode::Value`] summaries.
    pub fn new(inner: D) -> Self {
        Self::with_mode(inner, SummaryMode::Value)
    }

    /// Wraps a detector trained on summaries of the given mode.
    pub fn with_mode(inner: D, mode: SummaryMode) -> Self {
        Self { inner, mode }
    }

    /// The wrapped detector.
    pub fn inner(&self) -> &D {
        &self.inner
    }
}

impl<D: AnomalyDetector> AnomalyDetector for CgmSummaryDetector<D> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn score(&self, window: &Window) -> f64 {
        self.inner.score(&vec![cgm_summary_mode(window, self.mode)])
    }

    fn score_into(&self, window: &Window, scratch: &mut crate::detector::ScoreScratch) -> f64 {
        // Reuse the scratch's single-row window for the summary. The row
        // is taken out of the scratch for the duration of the inner call
        // so the inner detector can borrow the remaining buffers freely.
        let mut win = std::mem::take(&mut scratch.summary_win);
        if win.is_empty() {
            win.push(Vec::new());
        }
        win.truncate(1);
        cgm_summary_mode_into(window, self.mode, &mut win[0]);
        let score = self.inner.score_into(&win, scratch);
        scratch.summary_win = win;
        score
    }

    fn score_batch(&self, windows: &[Window]) -> Vec<f64> {
        // Summarize once, then let the inner detector batch the algebra.
        let summaries: Vec<Window> = windows
            .iter()
            .map(|w| vec![cgm_summary_mode(w, self.mode)])
            .collect();
        self.inner.score_batch(&summaries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::{KnnConfig, KnnDetector};

    fn window(levels: &[f64]) -> Window {
        levels.iter().map(|&v| vec![v, 0.0, 0.0, 70.0]).collect()
    }

    #[test]
    fn summary_features_are_what_they_claim() {
        let w = window(&[100.0, 110.0, 120.0, 180.0]);
        let f = cgm_summary(&w);
        assert_eq!(f.len(), 2);
        assert_eq!(f[0], 180.0); // last
        assert_eq!(f[1], 180.0); // max of last 3
    }

    #[test]
    fn single_sample_window_is_safe() {
        let f = cgm_summary(&window(&[140.0]));
        assert_eq!(f, vec![140.0, 140.0]);
        let c = cgm_summary_mode(&window(&[140.0]), SummaryMode::Context);
        assert_eq!(c, vec![140.0, 140.0, 0.0, 140.0]);
    }

    #[test]
    fn context_mode_adds_window_statistics() {
        let w = window(&[100.0, 110.0, 120.0, 180.0]);
        let f = cgm_summary_mode(&w, SummaryMode::Context);
        assert_eq!(f.len(), 4);
        assert_eq!(f[0], 180.0);
        assert!((f[1] - 127.5).abs() < 1e-12);
        assert_eq!(f[3], 180.0);
    }

    #[test]
    fn adapter_scores_like_inner_on_summaries() {
        let benign: Vec<Window> = (0..20)
            .map(|i| window(&[100.0 + i as f64, 101.0, 102.0, 103.0]))
            .collect();
        let malicious: Vec<Window> = (0..20)
            .map(|i| window(&[100.0 + i as f64, 101.0, 102.0, 300.0]))
            .collect();
        let knn = KnnDetector::fit(
            &summarize_all_mode(&benign, SummaryMode::Value),
            &summarize_all_mode(&malicious, SummaryMode::Value),
            &KnnConfig::default(),
        );
        let det = CgmSummaryDetector::new(knn);
        assert!(det.is_anomalous(&window(&[105.0, 104.0, 103.0, 310.0])));
        assert!(!det.is_anomalous(&window(&[105.0, 104.0, 103.0, 104.0])));
        assert_eq!(det.name(), "knn");
        assert_eq!(det.inner().name(), "knn");
    }

    #[test]
    fn summary_into_matches_allocating_path_bitwise() {
        let w = window(&[100.0, 110.0, f64::NAN, 180.0]);
        let mut buf = vec![7.0; 9]; // stale content must not leak through
        for mode in [SummaryMode::Value, SummaryMode::Context] {
            cgm_summary_mode_into(&w, mode, &mut buf);
            let reference = cgm_summary_mode(&w, mode);
            assert_eq!(buf.len(), reference.len());
            for (a, b) in buf.iter().zip(&reference) {
                assert_eq!(a.to_bits(), b.to_bits(), "mode {mode:?}");
            }
        }
    }

    #[test]
    fn adapter_scratch_and_batch_match_score() {
        let benign: Vec<Window> = (0..20)
            .map(|i| window(&[100.0 + i as f64, 101.0, 102.0, 103.0]))
            .collect();
        let malicious: Vec<Window> = (0..20)
            .map(|i| window(&[100.0 + i as f64, 101.0, 102.0, 300.0]))
            .collect();
        let knn = KnnDetector::fit(
            &summarize_all_mode(&benign, SummaryMode::Value),
            &summarize_all_mode(&malicious, SummaryMode::Value),
            &KnnConfig::default(),
        );
        let det = CgmSummaryDetector::new(knn);
        let queries: Vec<Window> = (0..10)
            .map(|i| window(&[105.0, 104.0, 103.0, 100.0 + i as f64 * 25.0]))
            .collect();
        let mut scratch = crate::detector::ScoreScratch::new();
        let batch = det.score_batch(&queries);
        for (w, &b) in queries.iter().zip(&batch) {
            let direct = det.score(w);
            assert_eq!(det.score_into(w, &mut scratch).to_bits(), direct.to_bits());
            assert_eq!(b.to_bits(), direct.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "empty window")]
    fn empty_window_rejected() {
        let _ = cgm_summary(&vec![]);
    }
}
