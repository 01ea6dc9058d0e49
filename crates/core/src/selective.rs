//! Step 5: selective training strategies and their evaluation.
//!
//! The framework's recommendation is to train the static detectors only on
//! the **less vulnerable** patients identified in step 4. The paper
//! evaluates four strategies: *Less Vulnerable*, *More Vulnerable*, *Random
//! Samples* (3 random patients × 10 runs, averaged) and *All Patients*
//! (indiscriminate training); the last two are the baselines.

use lgo_detect::{AnomalyDetector, KnnConfig, MadGanConfig, OcSvmConfig, Window};
use lgo_eval::ConfusionMatrix;
use lgo_glucosim::PatientId;
use lgo_series::split::sample_indices;
use lgo_series::stats::BoxStats;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::error::LgoError;

/// Which detector to train.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DetectorKind {
    /// Supervised k-nearest-neighbour classifier.
    Knn,
    /// ν-one-class SVM.
    OcSvm,
    /// MAD-GAN.
    MadGan,
}

impl DetectorKind {
    /// All three detectors in the paper's order.
    pub fn all() -> [DetectorKind; 3] {
        [DetectorKind::Knn, DetectorKind::OcSvm, DetectorKind::MadGan]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            DetectorKind::Knn => "kNN",
            DetectorKind::OcSvm => "OneClassSVM",
            DetectorKind::MadGan => "MAD-GAN",
        }
    }

    /// The graceful-degradation fallback chain MAD-GAN → OC-SVM → kNN,
    /// starting at `self`. When a detector cannot be trained (e.g. its
    /// training windows are too degraded), the next, less data-hungry
    /// detector in the chain is tried instead.
    pub fn fallback_chain(&self) -> &'static [DetectorKind] {
        match self {
            DetectorKind::MadGan => {
                &[DetectorKind::MadGan, DetectorKind::OcSvm, DetectorKind::Knn]
            }
            DetectorKind::OcSvm => &[DetectorKind::OcSvm, DetectorKind::Knn],
            DetectorKind::Knn => &[DetectorKind::Knn],
        }
    }
}

/// Hyper-parameters for all three detectors.
#[derive(Debug, Clone, Default)]
pub struct DetectorConfigs {
    /// kNN parameters (paper Appendix B).
    pub knn: KnnConfig,
    /// One-class SVM parameters (paper Appendix B).
    pub ocsvm: OcSvmConfig,
    /// MAD-GAN parameters (paper Appendix B).
    pub madgan: MadGanConfig,
}

/// A training-set selection strategy (paper §IV, step 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainingStrategy {
    /// Train only on the less-vulnerable cluster (the framework's
    /// recommendation).
    LessVulnerable,
    /// Train only on the more-vulnerable cluster (adversarial control).
    MoreVulnerable,
    /// Train on `k` random patients, repeated `runs` times and averaged
    /// (paper: k = 3, runs = 10).
    RandomSamples {
        /// Patients per run.
        k: usize,
        /// Number of runs averaged.
        runs: usize,
        /// RNG seed for patient draws.
        seed: u64,
    },
    /// Indiscriminate training on the whole cohort.
    AllPatients,
}

impl TrainingStrategy {
    /// The paper's four strategies with its Random-Samples parameters.
    pub fn paper_set() -> [TrainingStrategy; 4] {
        [
            TrainingStrategy::LessVulnerable,
            TrainingStrategy::MoreVulnerable,
            TrainingStrategy::RandomSamples {
                k: 3,
                runs: 10,
                seed: 0xABCD,
            },
            TrainingStrategy::AllPatients,
        ]
    }

    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            TrainingStrategy::LessVulnerable => "Less Vulnerable",
            TrainingStrategy::MoreVulnerable => "More Vulnerable",
            TrainingStrategy::RandomSamples { .. } => "Random Samples",
            TrainingStrategy::AllPatients => "All Patients",
        }
    }
}

/// One patient's detector-facing data: benign and malicious windows for
/// training and testing (malicious windows come from attack campaigns).
#[derive(Debug, Clone)]
pub struct PatientData {
    /// Who this is.
    pub patient: PatientId,
    /// Benign windows from the training period.
    pub train_benign: Vec<Window>,
    /// Adversarial windows from attacking the training period (used by the
    /// supervised kNN detector).
    pub train_malicious: Vec<Window>,
    /// Benign windows from the test period.
    pub test_benign: Vec<Window>,
    /// Adversarial windows from attacking the test period.
    pub test_malicious: Vec<Window>,
}

/// Averaged per-patient detection metrics (averaging matters only for the
/// multi-run Random-Samples strategy).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PatientMetrics {
    /// Mean recall across runs.
    pub recall: f64,
    /// Mean precision across runs.
    pub precision: f64,
    /// Mean F1 across runs.
    pub f1: f64,
    /// Mean false-negative rate across runs.
    pub fnr: f64,
    /// Mean false-positive rate across runs.
    pub fpr: f64,
}

/// The evaluation of one (strategy, detector) cell of the paper's Figures
/// 7, 8 and 11.
#[derive(Debug, Clone)]
pub struct StrategyEvaluation {
    /// The training strategy evaluated.
    pub strategy: TrainingStrategy,
    /// The detector trained.
    pub detector: DetectorKind,
    /// Per-patient metrics over the whole cohort's test data.
    pub per_patient: Vec<(PatientId, PatientMetrics)>,
    /// Mean number of benign training windows used per run (the MAD-GAN
    /// "75 % reduction in training set size" claim reads off this).
    pub mean_training_windows: f64,
    /// Number of training runs averaged (1 except for Random Samples).
    pub runs: usize,
    /// The detector that actually trained in each run. Differs from
    /// [`detector`](Self::detector) only when the fallback chain engaged
    /// (degraded training data).
    pub detectors_trained: Vec<DetectorKind>,
}

impl StrategyEvaluation {
    /// Box-plot statistics of per-patient recalls.
    ///
    /// # Panics
    ///
    /// Panics if no patients were evaluated.
    pub fn recall_stats(&self) -> BoxStats {
        self.stats(|m| m.recall)
    }

    /// Box-plot statistics of per-patient precisions.
    ///
    /// # Panics
    ///
    /// Panics if no patients were evaluated.
    pub fn precision_stats(&self) -> BoxStats {
        self.stats(|m| m.precision)
    }

    /// Box-plot statistics of per-patient F1 scores.
    ///
    /// # Panics
    ///
    /// Panics if no patients were evaluated.
    pub fn f1_stats(&self) -> BoxStats {
        self.stats(|m| m.f1)
    }

    fn stats(&self, f: impl Fn(&PatientMetrics) -> f64) -> BoxStats {
        let vals: Vec<f64> = self.per_patient.iter().map(|(_, m)| f(m)).collect();
        // lint: allow(L1): documented # Panics contract — the *_stats accessors require at least one evaluated patient
        BoxStats::from_values(&vals).expect("evaluated at least one patient")
    }

    /// Mean recall across patients.
    pub fn mean_recall(&self) -> f64 {
        self.recall_stats().mean
    }

    /// Mean precision across patients.
    pub fn mean_precision(&self) -> f64 {
        self.precision_stats().mean
    }

    /// Mean F1 across patients.
    pub fn mean_f1(&self) -> f64 {
        self.f1_stats().mean
    }
}

/// Selects the training patients for each run of a strategy.
///
/// # Panics
///
/// Panics if the strategy yields an empty selection (e.g. an empty
/// less-vulnerable cluster) or `RandomSamples.k` exceeds the cohort size.
pub fn training_rosters(
    strategy: TrainingStrategy,
    cohort: &[PatientId],
    less_vulnerable: &[PatientId],
    more_vulnerable: &[PatientId],
) -> Vec<Vec<PatientId>> {
    match try_training_rosters(strategy, cohort, less_vulnerable, more_vulnerable) {
        Ok(r) => r,
        // lint: allow(L1): documented panicking wrapper; try_training_rosters is the checked path
        Err(e) => panic!("training_rosters: {e}"),
    }
}

/// Fallible [`training_rosters`].
///
/// # Errors
///
/// Returns [`LgoError::EmptyRoster`] when the strategy yields an empty
/// selection for any run.
pub fn try_training_rosters(
    strategy: TrainingStrategy,
    cohort: &[PatientId],
    less_vulnerable: &[PatientId],
    more_vulnerable: &[PatientId],
) -> Result<Vec<Vec<PatientId>>, LgoError> {
    let rosters = match strategy {
        TrainingStrategy::LessVulnerable => vec![less_vulnerable.to_vec()],
        TrainingStrategy::MoreVulnerable => vec![more_vulnerable.to_vec()],
        TrainingStrategy::AllPatients => vec![cohort.to_vec()],
        TrainingStrategy::RandomSamples { k, runs, seed } => {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..runs)
                .map(|_| {
                    sample_indices(cohort.len(), k, &mut rng)
                        .into_iter()
                        .map(|i| cohort[i])
                        .collect()
                })
                .collect()
        }
    };
    for (i, r) in rosters.iter().enumerate() {
        if r.is_empty() {
            return Err(LgoError::EmptyRoster {
                strategy: strategy.name(),
                run: i,
            });
        }
    }
    Ok(rosters)
}

/// Trains one detector on pooled benign (+ malicious, for kNN) windows.
///
/// # Panics
///
/// Panics if the pooled training set is empty (or, for kNN, lacks malicious
/// windows entirely — a supervised detector cannot be trained on one
/// class).
pub fn train_detector(
    kind: DetectorKind,
    benign: &[Window],
    malicious: &[Window],
    configs: &DetectorConfigs,
) -> Box<dyn AnomalyDetector> {
    match try_train_detector(kind, benign, malicious, configs) {
        Ok(d) => d,
        // lint: allow(L1): documented panicking wrapper; try_train_detector is the checked path
        Err(e) => panic!("train_detector: {e}"),
    }
}

/// Fallible [`train_detector`]: the empty-outlier case of
/// [`crate::defense::try_train_detector_with_outliers`].
///
/// # Errors
///
/// Returns [`LgoError::KnnNeedsMalicious`] when the supervised kNN detector
/// is requested without malicious windows, or the underlying
/// [`lgo_detect::DetectError`] when a detector's `try_fit` rejects the
/// training data.
pub fn try_train_detector(
    kind: DetectorKind,
    benign: &[Window],
    malicious: &[Window],
    configs: &DetectorConfigs,
) -> Result<Box<dyn AnomalyDetector>, LgoError> {
    crate::defense::try_train_detector_with_outliers(kind, benign, malicious, &[], 0.0, configs)
}

/// Trains `kind`, falling back along [`DetectorKind::fallback_chain`]
/// (MAD-GAN → OC-SVM → kNN) when a detector cannot be trained on the
/// (possibly degraded) windows. Returns the trained detector together with
/// the kind that actually trained. The empty-outlier case of
/// [`crate::defense::train_with_outliers_fallback`].
///
/// # Errors
///
/// Returns [`LgoError::DetectorChainExhausted`] carrying the last
/// detector's error when every link in the chain fails; non-detector errors
/// (e.g. [`LgoError::KnnNeedsMalicious`]) also trigger fallback but are
/// reported verbatim when they end the chain.
pub fn train_detector_with_fallback(
    kind: DetectorKind,
    benign: &[Window],
    malicious: &[Window],
    configs: &DetectorConfigs,
) -> Result<(Box<dyn AnomalyDetector>, DetectorKind), LgoError> {
    crate::defense::train_with_outliers_fallback(kind, benign, malicious, &[], 0.0, configs)
}

/// Evaluates a trained detector on one patient's test windows.
///
/// Windows are scored in batches on the lgo-runtime pool; the confusion
/// counts are integers, so their accumulation is order-independent and the
/// matrix is identical at any thread count.
pub fn evaluate_on_patient(
    detector: &dyn AnomalyDetector,
    data: &PatientData,
) -> ConfusionMatrix {
    const BATCH: usize = 32;
    let _span = lgo_trace::span("selective/score");
    lgo_trace::counter(
        "selective/windows_scored",
        (data.test_benign.len() + data.test_malicious.len()) as u64,
    );
    let flagged =
        |windows: &[Window]| -> usize {
            lgo_runtime::par_chunks(windows, BATCH, |chunk| {
                // score_batch routes each chunk through the detector's
                // batched algebra (one Gram-row product per chunk for the
                // OC-SVM) and returns bit-identical scores to per-window
                // `score`, so the flag counts match the naive loop exactly.
                detector.score_batch(chunk).iter().filter(|&&s| s > 0.0).count()
            })
            .into_iter()
            .sum()
        };
    let mut cm = ConfusionMatrix::default();
    cm.fp = flagged(&data.test_benign);
    cm.tn = data.test_benign.len() - cm.fp;
    cm.tp = flagged(&data.test_malicious);
    cm.fn_ = data.test_malicious.len() - cm.tp;
    cm
}

/// Evaluates one (strategy, detector) pair over the cohort: trains per the
/// strategy (possibly multiple runs), tests on **every** patient's test
/// windows, and averages per-patient metrics across runs.
pub fn evaluate_strategy(
    strategy: TrainingStrategy,
    kind: DetectorKind,
    cohort: &[PatientData],
    less_vulnerable: &[PatientId],
    more_vulnerable: &[PatientId],
    configs: &DetectorConfigs,
) -> StrategyEvaluation {
    match try_evaluate_strategy(strategy, kind, cohort, less_vulnerable, more_vulnerable, configs)
    {
        Ok(e) => e,
        // lint: allow(L1): documented panicking wrapper; try_evaluate_strategy is the checked path
        Err(e) => panic!("evaluate_strategy: {e}"),
    }
}

/// Fallible [`evaluate_strategy`] with graceful degradation: when a run's
/// pooled training windows cannot train the requested detector, the
/// fallback chain (MAD-GAN → OC-SVM → kNN) is walked before giving up, and
/// the kind that actually trained is recorded in
/// [`StrategyEvaluation::detectors_trained`].
///
/// # Errors
///
/// Returns roster errors from [`try_training_rosters`] and
/// [`LgoError::DetectorChainExhausted`] (or [`LgoError::KnnNeedsMalicious`])
/// when no detector in the chain can be trained for some run.
pub fn try_evaluate_strategy(
    strategy: TrainingStrategy,
    kind: DetectorKind,
    cohort: &[PatientData],
    less_vulnerable: &[PatientId],
    more_vulnerable: &[PatientId],
    configs: &DetectorConfigs,
) -> Result<StrategyEvaluation, LgoError> {
    // The four paper strategies are one Defense implementation; this entry
    // point survives as a thin adapter so the grid/pipeline callers (and
    // their canonical exports) are untouched by the trait refactor. The
    // confusion counts, fold order and divisions are identical, so the
    // result is bit-identical to the pre-trait code.
    let ctx = crate::defense::DefenseContext {
        cohort,
        less_vulnerable,
        more_vulnerable,
        configs,
        seed: 0,
        crafter: None,
    };
    let eval = crate::defense::try_evaluate_defense(
        &crate::defense::LgoSelectiveDefense::new(strategy),
        kind,
        &ctx,
    )?;
    Ok(StrategyEvaluation {
        strategy,
        detector: kind,
        per_patient: eval.per_patient,
        mean_training_windows: eval.mean_training_windows,
        runs: eval.runs,
        detectors_trained: eval.detectors_trained,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a toy cohort where "clean" patients have tight benign windows
    /// and "messy" patients have diffuse ones; malicious windows sit at a
    /// fixed offset.
    fn toy_cohort() -> Vec<PatientData> {
        let mk_window = |center: f64, i: usize| -> Window {
            vec![vec![center + (i % 7) as f64 * 0.01]; 4]
        };
        PatientId::all()
            .into_iter()
            .take(4)
            .enumerate()
            .map(|(pi, patient)| {
                let spread = if pi < 2 { 0.0 } else { 2.0 };
                let benign: Vec<Window> =
                    (0..30).map(|i| mk_window(spread, i)).collect();
                let malicious: Vec<Window> = (0..10).map(|i| mk_window(6.0, i)).collect();
                PatientData {
                    patient,
                    train_benign: benign.clone(),
                    train_malicious: malicious.clone(),
                    test_benign: benign,
                    test_malicious: malicious,
                }
            })
            .collect()
    }

    fn toy_clusters() -> (Vec<PatientId>, Vec<PatientId>) {
        let ids = PatientId::all();
        (ids[..2].to_vec(), ids[2..4].to_vec())
    }

    fn quick_configs() -> DetectorConfigs {
        DetectorConfigs {
            madgan: MadGanConfig {
                epochs: 2,
                hidden: 6,
                inversion_steps: 3,
                seq_len: 4,
                latent_dim: 1,
                ..MadGanConfig::default()
            },
            ..DetectorConfigs::default()
        }
    }

    #[test]
    fn rosters_match_strategies() {
        let cohort: Vec<PatientId> = PatientId::all().into_iter().take(4).collect();
        let (less, more) = toy_clusters();
        assert_eq!(
            training_rosters(TrainingStrategy::LessVulnerable, &cohort, &less, &more),
            vec![less.clone()]
        );
        assert_eq!(
            training_rosters(TrainingStrategy::AllPatients, &cohort, &less, &more)[0].len(),
            4
        );
        let rs = training_rosters(
            TrainingStrategy::RandomSamples {
                k: 2,
                runs: 5,
                seed: 1,
            },
            &cohort,
            &less,
            &more,
        );
        assert_eq!(rs.len(), 5);
        assert!(rs.iter().all(|r| r.len() == 2));
    }

    #[test]
    fn knn_strategy_evaluation_runs() {
        let cohort = toy_cohort();
        let (less, more) = toy_clusters();
        let eval = evaluate_strategy(
            TrainingStrategy::LessVulnerable,
            DetectorKind::Knn,
            &cohort,
            &less,
            &more,
            &quick_configs(),
        );
        assert_eq!(eval.per_patient.len(), 4);
        assert_eq!(eval.runs, 1);
        // The toy malicious cluster is perfectly separable.
        assert!(eval.mean_recall() > 0.9, "recall {}", eval.mean_recall());
        assert!(eval.mean_training_windows > 0.0);
        let stats = eval.recall_stats();
        assert!(stats.min >= 0.0 && stats.max <= 1.0);
    }

    #[test]
    fn random_strategy_averages_over_runs() {
        let cohort = toy_cohort();
        let (less, more) = toy_clusters();
        let eval = evaluate_strategy(
            TrainingStrategy::RandomSamples {
                k: 2,
                runs: 3,
                seed: 42,
            },
            DetectorKind::Knn,
            &cohort,
            &less,
            &more,
            &quick_configs(),
        );
        assert_eq!(eval.runs, 3);
        assert!(eval.per_patient.iter().all(|(_, m)| m.recall <= 1.0));
    }

    #[test]
    fn ocsvm_and_madgan_train_without_malicious_data() {
        let cohort = toy_cohort();
        let (less, more) = toy_clusters();
        for kind in [DetectorKind::OcSvm, DetectorKind::MadGan] {
            let mut cohort2 = cohort.clone();
            if kind == DetectorKind::MadGan {
                // MAD-GAN config in this test uses seq_len 4.
                for d in &mut cohort2 {
                    for set in [
                        &mut d.train_benign,
                        &mut d.test_benign,
                        &mut d.train_malicious,
                        &mut d.test_malicious,
                    ] {
                        for w in set.iter_mut() {
                            w.truncate(4);
                        }
                    }
                }
            }
            let eval = evaluate_strategy(
                TrainingStrategy::AllPatients,
                kind,
                &cohort2,
                &less,
                &more,
                &quick_configs(),
            );
            assert_eq!(eval.per_patient.len(), 4, "{}", kind.name());
        }
    }

    #[test]
    fn strategy_and_detector_names() {
        assert_eq!(TrainingStrategy::paper_set().len(), 4);
        assert_eq!(TrainingStrategy::LessVulnerable.name(), "Less Vulnerable");
        assert_eq!(DetectorKind::all().len(), 3);
        assert_eq!(DetectorKind::MadGan.name(), "MAD-GAN");
    }

    #[test]
    #[should_panic(expected = "kNN needs malicious")]
    fn knn_requires_malicious_windows() {
        let _ = train_detector(
            DetectorKind::Knn,
            &[vec![vec![0.0]; 4]],
            &[],
            &quick_configs(),
        );
    }

    #[test]
    fn evaluate_on_patient_counts_quadrants() {
        let cohort = toy_cohort();
        let det = train_detector(
            DetectorKind::Knn,
            &cohort[0].train_benign,
            &cohort[0].train_malicious,
            &quick_configs(),
        );
        let cm = evaluate_on_patient(det.as_ref(), &cohort[0]);
        assert_eq!(cm.total(), 40);
        assert_eq!(cm.tp + cm.fn_, 10);
        assert_eq!(cm.fp + cm.tn, 30);
    }
}
