//! The end-to-end five-step pipeline: simulate the cohort, train the target
//! forecasters, attack them, quantify risk, cluster vulnerability, and
//! evaluate every (strategy × detector) combination.

use lgo_cluster::Linkage;
use lgo_detect::Window;
use lgo_forecast::{ForecastConfig, GlucoseForecaster, FEATURES};
use lgo_glucosim::{generate_cohort_sized, PatientDataset, PatientId};
use lgo_series::window::sliding;
use lgo_series::MultiSeries;

use crate::error::LgoError;
use crate::profile::{try_profile_patient, PatientAttackProfile, ProfilerConfig};
use crate::selective::{
    try_evaluate_strategy, DetectorConfigs, DetectorKind, PatientData, StrategyEvaluation,
    TrainingStrategy,
};
use crate::vuln::{try_cluster_cohort, CohortClusters};

/// Configuration of a full pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Which patients to include (`None` = the full 12-patient cohort).
    pub patients: Option<Vec<PatientId>>,
    /// Simulated training days per patient.
    pub train_days: usize,
    /// Simulated test days per patient.
    pub test_days: usize,
    /// Target-forecaster hyper-parameters.
    pub forecast: ForecastConfig,
    /// Attack/risk settings for the test-period campaign (risk profiles).
    pub profiler: ProfilerConfig,
    /// Window stride for the training-period campaign that generates the
    /// supervised detector's malicious training windows.
    pub train_attack_stride: usize,
    /// Stride between benign detector windows.
    pub detector_stride: usize,
    /// Detector hyper-parameters.
    pub detectors: DetectorConfigs,
    /// Dendrogram linkage for step 4.
    pub linkage: Linkage,
    /// The strategies to evaluate.
    pub strategies: Vec<TrainingStrategy>,
    /// The detectors to evaluate.
    pub detector_kinds: Vec<DetectorKind>,
}

impl PipelineConfig {
    /// Paper-scale configuration: the full cohort at the OhioT1DM footprint
    /// (~10 000 train / ~2 500 test samples per patient), all four
    /// strategies, all three detectors. Expect minutes of CPU time.
    pub fn paper_scale() -> Self {
        Self {
            patients: None,
            train_days: 35,
            test_days: 9,
            forecast: ForecastConfig::default(),
            profiler: ProfilerConfig::default(),
            train_attack_stride: 12,
            detector_stride: 3,
            detectors: DetectorConfigs::default(),
            linkage: Linkage::Average,
            strategies: TrainingStrategy::paper_set().to_vec(),
            detector_kinds: DetectorKind::all().to_vec(),
        }
    }

    /// A reduced configuration for tests and examples: four patients, three
    /// training days, large strides, tiny detector models.
    pub fn fast() -> Self {
        use lgo_detect::MadGanConfig;
        Self {
            patients: Some(vec![
                PatientId::new(lgo_glucosim::Subset::A, 2),
                PatientId::new(lgo_glucosim::Subset::A, 5),
                PatientId::new(lgo_glucosim::Subset::B, 2),
                PatientId::new(lgo_glucosim::Subset::B, 4),
            ]),
            train_days: 3,
            test_days: 1,
            forecast: ForecastConfig {
                hidden: 8,
                epochs: 2,
                ..ForecastConfig::default()
            },
            profiler: ProfilerConfig {
                stride: 24,
                explorer_steps: 3,
                ..ProfilerConfig::default()
            },
            train_attack_stride: 48,
            detector_stride: 24,
            detectors: DetectorConfigs {
                madgan: MadGanConfig {
                    epochs: 2,
                    hidden: 6,
                    inversion_steps: 3,
                    ..MadGanConfig::default()
                },
                ..DetectorConfigs::default()
            },
            linkage: Linkage::Average,
            strategies: vec![
                TrainingStrategy::LessVulnerable,
                TrainingStrategy::AllPatients,
            ],
            detector_kinds: vec![DetectorKind::Knn],
        }
    }
}

/// A patient the pipeline had to drop, with where and why.
#[derive(Debug, Clone, PartialEq)]
pub struct SkippedPatient {
    /// Who was dropped.
    pub patient: PatientId,
    /// The pipeline stage that failed (`"forecast"`, `"profile"`,
    /// `"windows"`).
    pub stage: &'static str,
    /// Human-readable failure reason (the underlying error's display).
    pub reason: String,
}

/// Everything a pipeline run produces.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Step 1–3 output per patient (test-period campaign + risk profile).
    pub profiles: Vec<PatientAttackProfile>,
    /// Step 4 output.
    pub clusters: CohortClusters,
    /// Detector-facing per-patient data.
    pub cohort: Vec<PatientData>,
    /// Step 5 output: one evaluation per (strategy × detector).
    pub evaluations: Vec<StrategyEvaluation>,
    /// The simulated datasets (kept for downstream analyses/figures).
    pub datasets: Vec<PatientDataset>,
    /// Patients dropped by per-patient stage isolation (empty on a clean
    /// run): their data was too degraded to profile, so the rest of the
    /// cohort was evaluated without them.
    pub skipped: Vec<SkippedPatient>,
}

impl PipelineReport {
    /// Looks up the evaluation of one (strategy, detector) cell.
    pub fn evaluation(
        &self,
        strategy: TrainingStrategy,
        detector: DetectorKind,
    ) -> Option<&StrategyEvaluation> {
        self.evaluations
            .iter()
            .find(|e| e.strategy == strategy && e.detector == detector)
    }
}

/// Steps 1–4 of a pipeline run: everything step 5 reads, and everything
/// the profiling figures read.
#[derive(Debug, Clone)]
pub struct CohortProfiles {
    /// Step 1–3 output per patient (test-period campaign + risk profile).
    pub profiles: Vec<PatientAttackProfile>,
    /// Step 4 output.
    pub clusters: CohortClusters,
    /// Detector-facing per-patient data.
    pub cohort: Vec<PatientData>,
    /// The simulated datasets.
    pub datasets: Vec<PatientDataset>,
    /// Patients dropped by per-patient stage isolation.
    pub skipped: Vec<SkippedPatient>,
}

/// Extracts benign detector windows (FEATURES channels) from a series.
pub fn benign_windows(series: &MultiSeries, seq_len: usize, stride: usize) -> Vec<Window> {
    let sel = series.select(&FEATURES);
    sliding(sel.rows(), seq_len, stride)
}

/// Runs the full five-step pipeline.
///
/// # Panics
///
/// Panics if the configuration selects fewer than two patients (clustering
/// needs at least two risk profiles) or produces empty training data.
pub fn run_pipeline(config: &PipelineConfig) -> PipelineReport {
    match try_run_pipeline(config) {
        Ok(r) => r,
        // lint: allow(L1): documented panicking wrapper; try_run_pipeline is the checked path
        Err(e) => panic!("run_pipeline: {e}"),
    }
}

/// Fallible [`run_pipeline`] with per-patient stage isolation: a patient
/// whose data is too degraded to train, profile or window is recorded in
/// [`PipelineReport::skipped`] instead of killing the whole cohort run.
///
/// # Errors
///
/// Returns [`LgoError::TooFewPatients`] when fewer than two patients are
/// selected or survive isolation, and propagates clustering / evaluation
/// errors that affect the whole cohort.
pub fn try_run_pipeline(config: &PipelineConfig) -> Result<PipelineReport, LgoError> {
    try_run_pipeline_on(config, simulate_cohort(config))
}

/// Simulates the configured cohort: every patient of `config.patients`
/// (all twelve when `None`), in cohort order.
pub fn simulate_cohort(config: &PipelineConfig) -> Vec<PatientDataset> {
    let all = {
        let _span = lgo_trace::span("pipeline/simulate");
        generate_cohort_sized(config.train_days, config.test_days)
    };
    match &config.patients {
        Some(ids) => all
            .into_iter()
            .filter(|d| ids.contains(&d.profile.id))
            .collect(),
        None => all,
    }
}

/// [`try_run_pipeline`] over caller-supplied datasets — the entry point for
/// fault-injection studies, where the datasets have been degraded with
/// [`lgo_glucosim::FaultInjector`] before the pipeline sees them. It is
/// [`try_profile_cohort`] followed by [`try_evaluate_grid`].
///
/// # Errors
///
/// See [`try_run_pipeline`].
pub fn try_run_pipeline_on(
    config: &PipelineConfig,
    datasets: Vec<PatientDataset>,
) -> Result<PipelineReport, LgoError> {
    let profiled = try_profile_cohort(config, datasets)?;
    let evaluations = try_evaluate_grid(config, &profiled)?;
    Ok(PipelineReport {
        profiles: profiled.profiles,
        clusters: profiled.clusters,
        cohort: profiled.cohort,
        evaluations,
        datasets: profiled.datasets,
        skipped: profiled.skipped,
    })
}

/// Steps 1–4 over caller-supplied datasets, with per-patient stage
/// isolation: a patient whose data is too degraded to train, profile or
/// window is recorded in [`CohortProfiles::skipped`]. Reads neither
/// `config.strategies` nor `config.detector_kinds` nor `config.detectors`.
///
/// # Errors
///
/// Returns [`LgoError::TooFewPatients`] when fewer than two patients are
/// given or survive isolation, and propagates clustering errors.
pub fn try_profile_cohort(
    config: &PipelineConfig,
    datasets: Vec<PatientDataset>,
) -> Result<CohortProfiles, LgoError> {
    if datasets.len() < 2 {
        return Err(LgoError::TooFewPatients {
            got: datasets.len(),
        });
    }

    // Steps 0–3 fan out per patient: training, campaigns and windowing are
    // seeded per patient, so the parallel run is bit-identical to the
    // serial loop it replaces. The fold below walks results in dataset
    // order, preserving the skip/keep bookkeeping exactly.
    let outcomes = lgo_runtime::try_par_map(&datasets, |d| profile_one_patient(config, d))?;
    let mut profiles = Vec::with_capacity(datasets.len());
    let mut cohort = Vec::with_capacity(datasets.len());
    let mut skipped = Vec::new();
    for (d, outcome) in datasets.iter().zip(outcomes) {
        match outcome {
            Ok((profile, data)) => {
                profiles.push(profile);
                cohort.push(data);
            }
            Err((stage, e)) => skipped.push(SkippedPatient {
                patient: d.profile.id,
                stage,
                reason: e.to_string(),
            }),
        }
    }
    if profiles.len() < 2 {
        return Err(LgoError::TooFewPatients {
            got: profiles.len(),
        });
    }

    lgo_trace::counter("pipeline/patients", profiles.len() as u64);
    lgo_trace::counter("pipeline/patients_skipped", skipped.len() as u64);

    // Step 4.
    let clusters = {
        let _stage = lgo_trace::span("stage/cluster");
        lgo_trace::counter("stage/cluster", 1);
        try_cluster_cohort(&profiles, config.linkage)?
    };

    Ok(CohortProfiles {
        profiles,
        clusters,
        cohort,
        datasets,
        skipped,
    })
}

/// Step 5: every (detector × strategy) cell of `config` over a profiled
/// cohort, in grid order (detectors outer, strategies inner).
///
/// # Errors
///
/// Propagates the first cell's evaluation error.
pub fn try_evaluate_grid(
    config: &PipelineConfig,
    profiled: &CohortProfiles,
) -> Result<Vec<StrategyEvaluation>, LgoError> {
    // The cells are independent, so they fan out too; cells keep grid
    // order in the result.
    let grid: Vec<(DetectorKind, TrainingStrategy)> = config
        .detector_kinds
        .iter()
        .flat_map(|&kind| config.strategies.iter().map(move |&s| (kind, s)))
        .collect();
    lgo_runtime::try_par_map(&grid, |&(kind, strategy)| {
        try_evaluate_strategy(
            strategy,
            kind,
            &profiled.cohort,
            &profiled.clusters.less_vulnerable,
            &profiled.clusters.more_vulnerable,
            &config.detectors,
        )
    })?
    .into_iter()
    .collect()
}

/// Steps 0–3 for one patient; any failure is tagged with the stage it hit
/// so [`try_run_pipeline_on`] can record a precise skip reason.
fn profile_one_patient(
    config: &PipelineConfig,
    d: &PatientDataset,
) -> Result<(PatientAttackProfile, PatientData), (&'static str, LgoError)> {
    // Stage 3 in the paper's numbering: everything that builds one
    // patient's profile (the campaign and risk spans nest inside on the
    // same thread).
    let _stage = lgo_trace::span("stage/profile");
    lgo_trace::counter("stage/profile", 1);
    let seq_len = config.forecast.seq_len;
    // Step 0: the deployed target model (personalized, like the paper's
    // per-patient attack study).
    let forecaster = GlucoseForecaster::try_train_personalized(&d.train, &config.forecast)
        .map_err(|e| ("forecast", LgoError::from(e)))?;

    // Steps 1-3 on the test period: a *maximizing* campaign so the risk
    // profile measures the worst-case harm per window.
    let test_profile = try_profile_patient(&forecaster, d.profile.id, &d.test, &config.profiler)
        .map_err(|e| ("profile", e))?;

    // Detector-facing adversarial data uses *minimal* (early-exit)
    // attacks — what a stealthy adversary would actually inject. On the
    // test period those are read off the walks above: an early-exit walk is
    // the maximizing walk stopped at its first goal-reaching vertex.
    let test_minimal = test_profile.campaign.early_exit();
    let train_minimal = try_profile_patient(
        &forecaster,
        d.profile.id,
        &d.train,
        &ProfilerConfig {
            stride: config.train_attack_stride,
            maximize: false,
            ..config.profiler.clone()
        },
    )
    .map_err(|e| ("profile", e))?;

    // Detector windows: windows with missing samples cannot be scored, so
    // only fully finite ones survive; a patient with none left is skipped.
    let train_benign = finite_windows(benign_windows(&d.train, seq_len, config.detector_stride));
    let test_benign = finite_windows(benign_windows(&d.test, seq_len, config.detector_stride));
    if train_benign.is_empty() || test_benign.is_empty() {
        return Err(("windows", LgoError::NoWindows));
    }

    Ok((
        test_profile,
        PatientData {
            patient: d.profile.id,
            train_benign,
            train_malicious: train_minimal.manipulated_windows(),
            test_benign,
            test_malicious: test_minimal.manipulated_windows(),
        },
    ))
}

/// Keeps only windows whose every sample is finite.
fn finite_windows(windows: Vec<Window>) -> Vec<Window> {
    windows
        .into_iter()
        .filter(|w| w.iter().flatten().all(|v| v.is_finite()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lgo_glucosim::Subset;

    #[test]
    fn fast_pipeline_end_to_end() {
        let config = PipelineConfig::fast();
        let report = run_pipeline(&config);
        assert_eq!(report.profiles.len(), 4);
        assert_eq!(report.cohort.len(), 4);
        // 1 detector × 2 strategies.
        assert_eq!(report.evaluations.len(), 2);
        // Clusters partition the cohort.
        let total = report.clusters.less_vulnerable.len() + report.clusters.more_vulnerable.len();
        assert_eq!(total, 4);
        assert!(!report.clusters.less_vulnerable.is_empty());
        // Lookup works.
        assert!(report
            .evaluation(TrainingStrategy::AllPatients, DetectorKind::Knn)
            .is_some());
        assert!(report
            .evaluation(TrainingStrategy::MoreVulnerable, DetectorKind::Knn)
            .is_none());
        // Every patient got detector data.
        for d in &report.cohort {
            assert!(!d.train_benign.is_empty(), "{}", d.patient);
            assert!(!d.test_benign.is_empty(), "{}", d.patient);
        }
    }

    #[test]
    fn benign_windows_shapes() {
        let config = PipelineConfig::fast();
        let report = run_pipeline(&config);
        for w in report.cohort[0].train_benign.iter().take(3) {
            assert_eq!(w.len(), 12);
            assert_eq!(w[0].len(), FEATURES.len());
        }
    }

    #[test]
    #[should_panic(expected = "at least two patients")]
    fn single_patient_rejected() {
        let mut config = PipelineConfig::fast();
        config.patients = Some(vec![PatientId::new(Subset::A, 0)]);
        let _ = run_pipeline(&config);
    }

    #[test]
    fn try_run_isolates_fully_degraded_patient() {
        use lgo_glucosim::{FaultInjector, FaultKind};
        let config = PipelineConfig::fast();
        let ids = config.patients.clone().expect("fast config names patients");
        let all = generate_cohort_sized(config.train_days, config.test_days);
        let mut datasets: Vec<PatientDataset> = all
            .into_iter()
            .filter(|d| ids.contains(&d.profile.id))
            .collect();
        // Kill one patient's CGM stream entirely: every sample dropped.
        let injector = FaultInjector::new(7).with_fault(FaultKind::Dropout { rate: 1.0 });
        datasets[0] = injector.apply_dataset(&datasets[0]);

        let report =
            try_run_pipeline_on(&config, datasets).expect("cohort must degrade gracefully");
        // The degraded patient is reported, not fatal.
        assert_eq!(report.skipped.len(), 1);
        assert_eq!(report.skipped[0].patient, ids[0]);
        assert_eq!(report.skipped[0].stage, "forecast");
        assert!(!report.skipped[0].reason.is_empty());
        // The rest of the cohort is still fully profiled and evaluated.
        assert_eq!(report.profiles.len(), 3);
        assert_eq!(report.cohort.len(), 3);
        assert_eq!(
            report.evaluations.len(),
            config.strategies.len() * config.detector_kinds.len()
        );
        for e in &report.evaluations {
            assert_eq!(e.per_patient.len(), 3);
            assert_eq!(e.detectors_trained.len(), e.runs);
        }
    }

    /// The linkage and severity ablations re-cluster and re-risk one shared
    /// run instead of rerunning the pipeline per variant. That is sound only
    /// while the campaigns read neither setting; a rerun per variant must
    /// give the same bits.
    #[test]
    fn ablations_can_reuse_one_run() {
        let shared = run_pipeline(&PipelineConfig::fast());

        let ward = run_pipeline(&PipelineConfig {
            linkage: Linkage::Ward,
            ..PipelineConfig::fast()
        })
        .clusters;
        let reclustered = try_cluster_cohort(&shared.profiles, Linkage::Ward).expect("clusters");
        assert_eq!(ward.less_vulnerable, reclustered.less_vulnerable);
        assert_eq!(ward.more_vulnerable, reclustered.more_vulnerable);
        assert_eq!(ward.per_subset.len(), reclustered.per_subset.len());
        for ((s1, a), (s2, b)) in ward.per_subset.iter().zip(&reclustered.per_subset) {
            assert_eq!(s1, s2);
            assert_eq!(a.less_vulnerable, b.less_vulnerable);
            assert_eq!(a.more_vulnerable, b.more_vulnerable);
            assert_eq!(a.labels, b.labels);
            assert_eq!(a.dendrogram.n_leaves(), b.dendrogram.n_leaves());
            assert_eq!(a.dendrogram.merges().len(), b.dendrogram.merges().len());
            for (m, n) in a.dendrogram.merges().iter().zip(b.dendrogram.merges()) {
                assert_eq!((m.left, m.right, m.size), (n.left, n.right, n.size));
                assert_eq!(m.height.to_bits(), n.height.to_bits());
            }
        }

        let mut linear = PipelineConfig::fast();
        linear.profiler.severity = crate::severity::SeverityTable::linear();
        let rerun = run_pipeline(&linear);
        assert_eq!(rerun.profiles.len(), shared.profiles.len());
        for (r, p) in rerun.profiles.iter().zip(&shared.profiles) {
            let rerisked =
                crate::profile::profile_campaign(p.patient, p.campaign.clone(), &linear.profiler);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let attacks = |c: &lgo_attack::cgm::CampaignReport| {
                c.outcomes
                    .iter()
                    .map(|o| (o.index, o.result.steps, o.result.best_output.to_bits()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(attacks(&r.campaign), attacks(&p.campaign), "{}", p.patient);
            assert_eq!(r.patient, rerisked.patient);
            assert_eq!(
                bits(&r.risk_profile.values),
                bits(&rerisked.risk_profile.values),
                "{}",
                p.patient
            );
        }
    }

    /// The pipeline reads its test-period early-exit campaign off the
    /// maximizing one; a separate early-exit run must agree outcome for
    /// outcome, and its manipulated windows must be the detector data.
    #[test]
    fn derived_early_exit_campaign_equals_a_separate_run() {
        let config = PipelineConfig {
            patients: Some(vec![
                PatientId::new(Subset::A, 2),
                PatientId::new(Subset::B, 4),
            ]),
            ..PipelineConfig::fast()
        };
        let profiled = try_profile_cohort(&config, simulate_cohort(&config)).expect("profiles");
        let minimal = ProfilerConfig {
            maximize: false,
            ..config.profiler.clone()
        };
        for ((d, profile), data) in profiled
            .datasets
            .iter()
            .zip(&profiled.profiles)
            .zip(&profiled.cohort)
        {
            let forecaster = GlucoseForecaster::train_personalized(&d.train, &config.forecast);
            let separate = try_profile_patient(&forecaster, d.profile.id, &d.test, &minimal)
                .expect("early-exit campaign");
            let derived = profile.campaign.early_exit();
            assert_eq!(derived.outcomes.len(), separate.campaign.outcomes.len());
            for (a, b) in derived.outcomes.iter().zip(&separate.campaign.outcomes) {
                assert_eq!(
                    (a.index, a.fasting, a.origin, a.benign_prediction.to_bits()),
                    (b.index, b.fasting, b.origin, b.benign_prediction.to_bits())
                );
                assert_eq!(a.result, b.result, "{} at {}", d.profile.id, a.index);
            }
            assert_eq!(data.test_malicious, separate.manipulated_windows());
            assert!(profile.campaign.total_queries() > derived.total_queries());
        }
    }

    #[test]
    fn clean_try_run_skips_nobody() {
        let config = PipelineConfig::fast();
        let report = try_run_pipeline(&config).expect("clean run succeeds");
        assert!(report.skipped.is_empty());
        assert_eq!(report.profiles.len(), 4);
    }
}
