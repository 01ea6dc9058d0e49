//! The benchmark's scale and the paper's steps 1–4 assembled from public
//! functions.
//!
//! `try_run_pipeline_on` keeps each patient's forecaster private, but the
//! defense grid's PGD crafter needs them, and the traced run must time
//! forecaster training, campaigns and clustering separately. [`profile`]
//! therefore rebuilds the pipeline's per-patient step from the same public
//! calls in the same order; `assembled_profiles_match_the_pipeline` pins
//! its output to the pipeline's byte for byte.

use lgo::attack::cgm::CgmCase;
use lgo::cluster::Linkage;
use lgo::core::error::LgoError;
use lgo::core::export::canonical_json;
use lgo::core::pipeline::{benign_windows, PipelineConfig, PipelineReport, SkippedPatient};
use lgo::core::profile::{
    try_attack_cases, try_profile_patient, PatientAttackProfile, ProfilerConfig,
};
use lgo::core::selective::{DetectorConfigs, PatientData};
use lgo::core::vuln::{try_cluster_cohort, CohortClusters};
use lgo::detect::{MadGanConfig, Window};
use lgo::forecast::{ForecastConfig, GlucoseForecaster};
use lgo::glucosim::{generate_cohort_sized, PatientDataset};

use crate::layers::Layers;
use crate::report::Fnv;

/// Simulated days per patient: training and test period.
pub const TRAIN_DAYS: usize = 3;
pub const TEST_DAYS: usize = 1;

/// Steps 1–4 over the full 12-patient cohort, at a scale where one pass
/// takes seconds: small BiLSTM forecasters, a coarse campaign stride, no
/// detectors (step 5 is the defense grid's business).
pub fn pipeline_config() -> PipelineConfig {
    PipelineConfig {
        patients: None,
        train_days: TRAIN_DAYS,
        test_days: TEST_DAYS,
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
        detector_stride: 12,
        detectors: detector_configs(),
        linkage: Linkage::Average,
        strategies: Vec::new(),
        detector_kinds: Vec::new(),
    }
}

/// Detector hyper-parameters of the defense grid and the serving ladder.
pub fn detector_configs() -> DetectorConfigs {
    DetectorConfigs {
        madgan: MadGanConfig {
            epochs: 3,
            hidden: 8,
            inversion_steps: 4,
            ..MadGanConfig::default()
        },
        ..DetectorConfigs::default()
    }
}

/// The paper's 12-patient cohort at the benchmark's scale.
pub fn simulate() -> Vec<PatientDataset> {
    generate_cohort_sized(TRAIN_DAYS, TEST_DAYS)
}

/// One patient after steps 1–3, with the artifacts the pipeline drops.
pub struct ProfiledPatient {
    pub forecaster: GlucoseForecaster,
    pub profile: PatientAttackProfile,
    pub data: PatientData,
    /// The training-period attack surface (the defense crafter's targets).
    pub train_cases: Vec<CgmCase>,
    /// Windows attacked and queries spent over the patient's three campaigns.
    pub attacked_windows: u64,
    pub queries: u64,
    pub successes: u64,
}

/// Steps 1–4 for a cohort, as the pipeline computes them.
pub struct ProfiledCohort {
    pub patients: Vec<ProfiledPatient>,
    pub clusters: CohortClusters,
    pub skipped: Vec<SkippedPatient>,
}

impl ProfiledCohort {
    /// The detector-facing cohort data (step-5 input).
    pub fn cohort_data(&self) -> Vec<PatientData> {
        self.patients.iter().map(|p| p.data.clone()).collect()
    }

    /// The pipeline's canonical export of these results.
    pub fn canonical_json(&self) -> String {
        canonical_json(&PipelineReport {
            profiles: self.patients.iter().map(|p| p.profile.clone()).collect(),
            clusters: self.clusters.clone(),
            cohort: self.cohort_data(),
            evaluations: Vec::new(),
            datasets: Vec::new(),
            skipped: self.skipped.clone(),
        })
    }
}

/// Digest of the pipeline's canonical export.
pub fn export_digest(report: &PipelineReport) -> u64 {
    Fnv::default()
        .bytes(canonical_json(report).as_bytes())
        .finish()
}

/// Steps 0–3 for one patient, in `pipeline::profile_one_patient`'s order;
/// with `layers`, each public call is timed.
fn profile_patient(
    config: &PipelineConfig,
    d: &PatientDataset,
    layers: Option<&Layers>,
) -> Result<ProfiledPatient, (&'static str, LgoError)> {
    let timed = |key: &'static str, f: &mut dyn FnMut()| match layers {
        Some(l) => l.time(key, f),
        None => f(),
    };
    let seq_len = config.forecast.seq_len;
    let mut forecaster = None;
    timed("forecast.train", &mut || {
        forecaster = Some(GlucoseForecaster::try_train_personalized(
            &d.train,
            &config.forecast,
        ));
    });
    let forecaster = forecaster
        .expect("closure ran")
        .map_err(|e| ("forecast", LgoError::from(e)))?;

    let minimal = ProfilerConfig {
        maximize: false,
        ..config.profiler.clone()
    };
    let train_minimal_config = ProfilerConfig {
        stride: config.train_attack_stride,
        ..minimal.clone()
    };
    let mut campaigns = Vec::with_capacity(3);
    timed("attack.campaign", &mut || {
        campaigns = vec![
            try_profile_patient(&forecaster, d.profile.id, &d.test, &config.profiler),
            try_profile_patient(&forecaster, d.profile.id, &d.test, &minimal),
            try_profile_patient(&forecaster, d.profile.id, &d.train, &train_minimal_config),
        ];
    });
    let mut campaigns = campaigns.into_iter();
    let mut next = || {
        campaigns
            .next()
            .expect("three campaigns")
            .map_err(|e| ("profile", e))
    };
    let (test_profile, test_minimal, train_minimal) = (next()?, next()?, next()?);

    let mut windows: Option<(Vec<Window>, Vec<Window>, Vec<CgmCase>)> = None;
    timed("windows", &mut || {
        windows = Some((
            finite(benign_windows(&d.train, seq_len, config.detector_stride)),
            finite(benign_windows(&d.test, seq_len, config.detector_stride)),
            try_attack_cases(&d.train, seq_len, config.train_attack_stride).unwrap_or_default(),
        ));
    });
    let (train_benign, test_benign, train_cases) = windows.expect("closure ran");
    if train_benign.is_empty() || test_benign.is_empty() {
        return Err(("windows", LgoError::NoWindows));
    }

    let all = [&test_profile, &test_minimal, &train_minimal];
    Ok(ProfiledPatient {
        attacked_windows: all.iter().map(|p| p.campaign.outcomes.len() as u64).sum(),
        queries: all.iter().map(|p| p.campaign.total_queries() as u64).sum(),
        successes: all
            .iter()
            .map(|p| {
                p.campaign
                    .outcomes
                    .iter()
                    .filter(|o| o.result.achieved)
                    .count() as u64
            })
            .sum(),
        data: PatientData {
            patient: d.profile.id,
            train_benign,
            train_malicious: train_minimal.manipulated_windows(),
            test_benign,
            test_malicious: test_minimal.manipulated_windows(),
        },
        profile: test_profile,
        forecaster,
        train_cases,
    })
}

fn finite(windows: Vec<Window>) -> Vec<Window> {
    windows
        .into_iter()
        .filter(|w| w.iter().flatten().all(|v| v.is_finite()))
        .collect()
}

/// Steps 1–4 over `datasets`: patients fan out over the lgo-runtime pool
/// like the pipeline's, then the cohort is clustered.
pub fn profile(
    config: &PipelineConfig,
    datasets: &[PatientDataset],
    layers: Option<&Layers>,
) -> Result<ProfiledCohort, LgoError> {
    let outcomes = lgo::runtime::try_par_map(datasets, |d| profile_patient(config, d, layers))?;
    let mut patients = Vec::with_capacity(datasets.len());
    let mut skipped = Vec::new();
    for (d, outcome) in datasets.iter().zip(outcomes) {
        match outcome {
            Ok(p) => patients.push(p),
            Err((stage, e)) => skipped.push(SkippedPatient {
                patient: d.profile.id,
                stage,
                reason: e.to_string(),
            }),
        }
    }
    if patients.len() < 2 {
        return Err(LgoError::TooFewPatients {
            got: patients.len(),
        });
    }
    let profiles: Vec<PatientAttackProfile> = patients.iter().map(|p| p.profile.clone()).collect();
    let cluster = || try_cluster_cohort(&profiles, config.linkage);
    let clusters = match layers {
        Some(l) => l.time("cluster", cluster),
        None => cluster(),
    }?;
    Ok(ProfiledCohort {
        patients,
        clusters,
        skipped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lgo::core::pipeline::try_run_pipeline_on;
    use lgo::glucosim::{PatientId, Subset};

    /// A four-patient slice keeps the comparison test-fast.
    fn small() -> (PipelineConfig, Vec<PatientDataset>) {
        let ids = [
            PatientId::new(Subset::A, 2),
            PatientId::new(Subset::A, 5),
            PatientId::new(Subset::B, 2),
            PatientId::new(Subset::B, 4),
        ];
        let datasets = simulate()
            .into_iter()
            .filter(|d| ids.contains(&d.profile.id))
            .collect();
        (pipeline_config(), datasets)
    }

    #[test]
    fn assembled_profiles_match_the_pipeline() {
        let (config, datasets) = small();
        let pipeline = try_run_pipeline_on(&config, datasets.clone()).expect("pipeline runs");
        let layers = Layers::default();
        let assembled = profile(&config, &datasets, Some(&layers)).expect("assembly runs");
        assert_eq!(assembled.canonical_json(), canonical_json(&pipeline));
        assert!(layers.secs("forecast.train") > 0.0);
        assert!(layers.secs("attack.campaign") > 0.0);
        for (a, b) in assembled.patients.iter().zip(&pipeline.cohort) {
            assert_eq!(a.data.train_malicious, b.train_malicious);
            assert_eq!(a.data.test_benign, b.test_benign);
        }
    }
}
