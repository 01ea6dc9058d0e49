use lgo_series::window::flatten;
use lgo_series::MinMaxScaler;

use crate::detector::{AnomalyDetector, Window};
use crate::error::DetectError;
use crate::kdtree::KdTree;

/// Configuration mirroring scikit-learn's `KNeighborsClassifier` with the
/// paper's Appendix-B parameters. The search is always an exact KD-tree
/// with the paper's leaf size of 30.
#[derive(Debug, Clone, PartialEq)]
pub struct KnnConfig {
    /// Number of neighbours (paper: 7).
    pub k: usize,
    /// Minkowski order, `p ≥ 1` or `f64::INFINITY` (paper: p = 2, i.e.
    /// Euclidean).
    pub p: f64,
    /// Optional cap on stored training samples per class; when set, samples
    /// are kept by uniform stride. `None` stores everything.
    pub max_samples_per_class: Option<usize>,
}

impl Default for KnnConfig {
    fn default() -> Self {
        Self {
            k: 7,
            p: 2.0,
            max_samples_per_class: None,
        }
    }
}

/// Supervised k-nearest-neighbour anomaly detector.
///
/// Trained on labelled benign + malicious windows (the malicious ones come
/// from simulating the evasion attack); classifies by unweighted majority
/// vote among the `k` nearest training points under the Minkowski metric,
/// exactly like `KNeighborsClassifier(n_neighbors=7, weights="uniform",
/// metric="minkowski", p=2)`.
///
/// # Examples
///
/// See the crate-level example.
#[derive(Debug, Clone)]
pub struct KnnDetector {
    labels: Vec<bool>,
    scaler: MinMaxScaler,
    tree: KdTree,
    config: KnnConfig,
}

impl KnnDetector {
    /// Fits (memorizes) the training windows. Windows containing
    /// non-finite values are dropped (see [`try_fit`](Self::try_fit)).
    ///
    /// # Panics
    ///
    /// Panics if both classes are empty, windows are ragged, `k == 0`, or
    /// `p` is NaN or below 1.
    pub fn fit(benign: &[Window], malicious: &[Window], config: &KnnConfig) -> Self {
        match Self::try_fit(benign, malicious, config) {
            Ok(d) => d,
            // lint: allow(L1): documented panicking wrapper; try_fit is the checked path
            Err(e) => panic!("KnnDetector: {e}"),
        }
    }

    /// Fallible [`fit`](Self::fit): windows containing non-finite values
    /// (degraded sensor data) are dropped before training.
    ///
    /// # Errors
    ///
    /// Returns [`DetectError::InvalidK`] for `k == 0`,
    /// [`DetectError::InvalidConfig`] for a NaN `p` or `p < 1`,
    /// [`DetectError::NoTrainingWindows`] when both classes are empty,
    /// [`DetectError::NoFiniteWindows`] when every window is corrupt, and
    /// [`DetectError::InconsistentShapes`] on mismatched window shapes.
    pub fn try_fit(
        benign: &[Window],
        malicious: &[Window],
        config: &KnnConfig,
    ) -> Result<Self, DetectError> {
        let _span = lgo_trace::span("detect/knn/fit");
        if config.k == 0 {
            return Err(DetectError::InvalidK);
        }
        if config.p.is_nan() || config.p < 1.0 {
            return Err(DetectError::InvalidConfig {
                field: "p",
                value: config.p,
                expected: "[1, ∞]",
            });
        }
        if benign.is_empty() && malicious.is_empty() {
            return Err(DetectError::NoTrainingWindows);
        }
        let mut points = Vec::new();
        let mut labels = Vec::new();
        let mut dropped_all_finite = true;
        for (class, label) in [(benign, false), (malicious, true)] {
            let kept = Self::stride_cap(class, config.max_samples_per_class);
            for w in kept {
                let flat = flatten(&w);
                if flat.iter().any(|v| !v.is_finite()) {
                    dropped_all_finite = false;
                    continue;
                }
                points.push(flat);
                labels.push(label);
            }
        }
        if points.is_empty() {
            return Err(if dropped_all_finite {
                DetectError::NoTrainingWindows
            } else {
                DetectError::NoFiniteWindows
            });
        }
        let width = points[0].len();
        if !points.iter().all(|p| p.len() == width) {
            return Err(DetectError::InconsistentShapes);
        }
        // Per-feature min-max scaling keeps the Minkowski metric from being
        // dominated by the largest-unit channel (CGM in mg/dL vs boluses in
        // units); queries are scaled with the same training statistics.
        let mut scaler = MinMaxScaler::new();
        scaler.try_fit(&points)?;
        let points = scaler.transform(&points)?;
        lgo_trace::counter("detect/knn/fits", 1);
        lgo_trace::counter("detect/knn/fit_points", points.len() as u64);
        Ok(Self {
            labels,
            scaler,
            tree: KdTree::build(points, config.p),
            config: config.clone(),
        })
    }

    fn stride_cap(class: &[Window], cap: Option<usize>) -> Vec<Window> {
        crate::subsample::subsample_cap(class.to_vec(), cap.unwrap_or(0))
    }

    /// Number of stored training points.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// Whether the detector stores no points (never true after `fit`).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fraction of malicious votes among the `k` nearest neighbours of a
    /// flattened query.
    fn malicious_fraction(&self, query: &[f64]) -> f64 {
        let k = self.config.k.min(self.len());
        let hits = self.tree.nearest(query, k);
        let malicious = hits.iter().filter(|&&(i, _)| self.labels[i]).count();
        malicious as f64 / k as f64
    }
}

impl AnomalyDetector for KnnDetector {
    fn name(&self) -> &str {
        "knn"
    }

    /// Score = malicious-vote fraction − 0.5, so the sign matches the
    /// majority decision.
    fn score(&self, window: &Window) -> f64 {
        lgo_trace::counter("detect/knn/scores", 1);
        let query = self
            .scaler
            .transform_row(&flatten(window))
            // lint: allow(L1): AnomalyDetector::score is infallible by trait contract; a width mismatch is a caller bug, and the pipeline isolates detector panics per patient
            .expect("query width matches training width");
        self.malicious_fraction(&query) - 0.5
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(v: f64) -> Window {
        vec![vec![v, v * 0.5]; 3]
    }

    fn cluster(center: f64, n: usize) -> Vec<Window> {
        (0..n).map(|i| window(center + i as f64 * 0.01)).collect()
    }

    #[test]
    fn separates_two_clusters() {
        let d = KnnDetector::fit(&cluster(0.0, 20), &cluster(10.0, 20), &KnnConfig::default());
        assert!(d.is_anomalous(&window(9.9)));
        assert!(!d.is_anomalous(&window(0.1)));
        assert_eq!(d.name(), "knn");
        assert_eq!(d.len(), 40);
        assert!(!d.is_empty());
    }

    #[test]
    fn score_is_vote_fraction_centered() {
        let d = KnnDetector::fit(&cluster(0.0, 10), &cluster(10.0, 10), &KnnConfig::default());
        // Deep inside the benign cluster: all 7 neighbours benign.
        assert_eq!(d.score(&window(0.05)), -0.5);
        // Deep inside the malicious cluster: all 7 malicious.
        assert_eq!(d.score(&window(10.05)), 0.5);
    }

    #[test]
    fn k_larger_than_dataset_is_clamped() {
        let d = KnnDetector::fit(
            &cluster(0.0, 2),
            &cluster(5.0, 1),
            &KnnConfig {
                k: 50,
                ..KnnConfig::default()
            },
        );
        // Works without panicking; majority of all 3 points is benign.
        assert!(!d.is_anomalous(&window(2.0)));
    }

    #[test]
    fn manhattan_metric_changes_geometry() {
        let cfg = KnnConfig {
            p: 1.0,
            ..KnnConfig::default()
        };
        let d = KnnDetector::fit(&cluster(0.0, 10), &cluster(10.0, 10), &cfg);
        assert!(d.is_anomalous(&window(8.0)));
    }

    #[test]
    fn sample_cap_strides_uniformly() {
        let cfg = KnnConfig {
            max_samples_per_class: Some(5),
            ..KnnConfig::default()
        };
        let d = KnnDetector::fit(&cluster(0.0, 100), &cluster(10.0, 100), &cfg);
        assert_eq!(d.len(), 10);
        // Still classifies correctly.
        assert!(d.is_anomalous(&window(10.2)));
        assert!(!d.is_anomalous(&window(-0.2)));
    }

    #[test]
    fn ties_with_even_k_are_not_anomalous() {
        // k=2 with one neighbour from each class -> fraction 0.5 -> score 0.
        let cfg = KnnConfig {
            k: 2,
            ..KnnConfig::default()
        };
        let d = KnnDetector::fit(&cluster(0.0, 1), &cluster(1.0, 1), &cfg);
        assert!(!d.is_anomalous(&window(0.5)));
    }

    /// Test-local brute-force reference: min-max scale as the detector
    /// does, rank every training point by its true Minkowski distance and
    /// return the centred malicious-vote fraction.
    fn brute_force_score(
        benign: &[Window],
        malicious: &[Window],
        cfg: &KnnConfig,
        q: &Window,
    ) -> f64 {
        let train: Vec<Vec<f64>> = benign.iter().chain(malicious).map(|w| flatten(w)).collect();
        let mut scaler = MinMaxScaler::new();
        scaler.try_fit(&train).expect("finite training set");
        let train = scaler.transform(&train).expect("same width");
        let query = scaler.transform_row(&flatten(q)).expect("same width");
        let mut dists: Vec<(f64, bool)> = train
            .iter()
            .enumerate()
            .map(|(i, p)| {
                (
                    lgo_tensor::vector::minkowski(p, &query, cfg.p),
                    i >= benign.len(),
                )
            })
            .collect();
        dists.sort_by(|a, b| a.0.total_cmp(&b.0));
        let k = cfg.k.min(dists.len());
        dists[..k].iter().filter(|&&(_, m)| m).count() as f64 / k as f64 - 0.5
    }

    #[test]
    fn kdtree_matches_brute_force_reference() {
        // Two overlapping classes, so the votes near the boundary are mixed.
        let wave = |i: usize, shift: f64| -> Window {
            (0..3)
                .map(|t| {
                    let u = (i * 7 + t * 3) as f64;
                    vec![(u * 0.37).sin() + shift, (u * 0.23).cos() * 0.5]
                })
                .collect()
        };
        let benign: Vec<Window> = (0..80).map(|i| wave(i, 0.0)).collect();
        let malicious: Vec<Window> = (0..80).map(|i| wave(i + 500, 0.6)).collect();
        for p in [1.0, 2.0, 3.0, f64::INFINITY] {
            let cfg = KnnConfig {
                p,
                ..KnnConfig::default()
            };
            let d = KnnDetector::fit(&benign, &malicious, &cfg);
            let mut mixed = 0;
            for i in 0..40 {
                let q = wave(i + 1000, i as f64 * 0.02);
                let score = d.score(&q);
                assert_eq!(
                    score.to_bits(),
                    brute_force_score(&benign, &malicious, &cfg, &q).to_bits(),
                    "p = {p}, query {i}"
                );
                mixed += usize::from(score.abs() < 0.5);
            }
            assert!(mixed >= 10, "p = {p}: only {mixed} mixed votes");
        }
    }

    fn assert_p_rejected(p: f64) {
        let cfg = KnnConfig {
            p,
            ..KnnConfig::default()
        };
        let err = KnnDetector::try_fit(&cluster(0.0, 3), &cluster(5.0, 3), &cfg).unwrap_err();
        assert!(
            matches!(err, DetectError::InvalidConfig { field: "p", .. }),
            "p = {p}: {err:?}"
        );
    }

    #[test]
    fn p_below_one_rejected_at_fit() {
        assert_p_rejected(0.5);
    }

    #[test]
    fn p_zero_rejected_at_fit() {
        assert_p_rejected(0.0);
    }

    #[test]
    fn negative_p_rejected_at_fit() {
        assert_p_rejected(-1.0);
    }

    #[test]
    fn nan_p_rejected_at_fit() {
        assert_p_rejected(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "no training windows")]
    fn empty_training_rejected() {
        let _ = KnnDetector::fit(&[], &[], &KnnConfig::default());
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_rejected() {
        let _ = KnnDetector::fit(
            &cluster(0.0, 1),
            &[],
            &KnnConfig {
                k: 0,
                ..KnnConfig::default()
            },
        );
    }
}
