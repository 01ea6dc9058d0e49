//! The `exp_attack_zoo` study: every attacker in the zoo versus the
//! LGO-selective and no-defense detector configurations.
//!
//! For each patient the experiment trains the personalized forecaster,
//! builds the paper's risk profiles (URET campaigns), clusters the cohort
//! into less-/more-vulnerable groups and trains two kNN detectors: **lgo**
//! (selective training on the less-vulnerable cohort — the paper's defense)
//! and **all** (no defense: trained on everyone). Every attacker then runs
//! a test-period campaign per patient, and the report records attack
//! success plus each detector's recall over the manipulated windows. The
//! cluster-poisoning attacker closes the loop: it plants stealth windows in
//! the less-vulnerable cohort's *training* pool and the lgo detector is
//! retrained on the contaminated pool before being re-measured.
//!
//! All floats render with `{:?}` and keys in fixed order, so the report is
//! byte-identical at any `LGO_THREADS` (pinned by `tests/attack_zoo.rs`).

use std::fmt::Write as _;

use lgo_attack::cgm::{CgmCase, OriginState, Window};
use lgo_core::error::LgoError;
use lgo_core::pipeline::benign_windows;
use lgo_core::profile::{try_attack_cases, PatientAttackProfile, ProfilerConfig};
use lgo_core::selective::{train_detector_with_fallback, DetectorConfigs, DetectorKind};
use lgo_core::vuln::{try_cluster_cohort, CohortClusters};
use lgo_detect::AnomalyDetector;
use lgo_forecast::{ForecastConfig, GlucoseForecaster};
use lgo_glucosim::{generate_cohort_sized, PatientId, Subset};

use crate::campaign::{profile_cases, run_attack_campaign};
use crate::uret::UretAttack;
use crate::{standard_zoo, ZooConfig};

/// Configuration of one attack-zoo study.
#[derive(Debug, Clone)]
pub struct ZooExperimentConfig {
    /// The cohort under attack.
    pub patients: Vec<PatientId>,
    /// Simulated training days per patient.
    pub train_days: usize,
    /// Simulated test days per patient.
    pub test_days: usize,
    /// Target-forecaster hyper-parameters.
    pub forecast: ForecastConfig,
    /// Windowing stride plus risk severity/threshold tables. The URET
    /// baseline also takes its step budget from `explorer_steps`; the
    /// zoo attackers use [`ZooConfig::steps`].
    pub profiler: ProfilerConfig,
    /// Detector hyper-parameters (kNN is the primary kind here).
    pub detectors: DetectorConfigs,
    /// Shared attacker knobs (`eps`, `steps`, seeds).
    pub zoo: ZooConfig,
    /// Window stride for the training-period campaigns (detector training
    /// data and the poisoning attack surface).
    pub train_attack_stride: usize,
    /// Stride between benign detector windows.
    pub detector_stride: usize,
}

impl ZooExperimentConfig {
    /// A reduced configuration for tests and the fast bench tier: four
    /// patients, tiny forecasters, large strides.
    pub fn fast() -> Self {
        Self {
            patients: vec![
                PatientId::new(Subset::A, 2),
                PatientId::new(Subset::A, 5),
                PatientId::new(Subset::B, 2),
                PatientId::new(Subset::B, 4),
            ],
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
            detectors: DetectorConfigs::default(),
            zoo: ZooConfig::default(),
            train_attack_stride: 48,
            detector_stride: 24,
        }
    }
}

/// One attacker's line in the report.
#[derive(Debug, Clone)]
pub struct AttackerRow {
    /// [`Attack::name`].
    pub name: String,
    /// Threat-model display name (`white-box` / `black-box` /
    /// `defense-aware`).
    pub threat_model: &'static str,
    /// Per-patient attack success rate, roster order. `None` for patients
    /// the attacker does not target (the poisoner only attacks the
    /// less-vulnerable cohort) or with no evaluable windows.
    pub per_patient: Vec<(PatientId, Option<f64>)>,
    /// Pooled success rate over all attacked windows (benign-Hyper origins
    /// excluded, matching [`lgo_attack::cgm::CampaignReport::success_rate`]).
    /// For the poisoner this is the *placement* rate: the fraction of
    /// windows planted without being flagged.
    pub success_rate: Option<f64>,
    /// Total windows attacked across the cohort.
    pub windows_attacked: usize,
    /// Windows actually manipulated (`steps > 0`).
    pub windows_manipulated: usize,
    /// Total model queries spent.
    pub total_queries: usize,
    /// The LGO-selective detector's recall over this attacker's manipulated
    /// windows. On the poison row: the recall of the lgo detector *after*
    /// retraining on the contaminated pool, measured on the PGD reference
    /// windows.
    pub recall_lgo: Option<f64>,
    /// The no-defense (all-patients) detector's recall over the same
    /// windows.
    pub recall_all: Option<f64>,
}

/// Everything `exp_attack_zoo` produces.
#[derive(Debug, Clone)]
pub struct ZooReport {
    /// `ε` the campaigns ran with (mg/dL).
    pub eps: f64,
    /// Iteration budget the campaigns ran with.
    pub steps: usize,
    /// The less-vulnerable cohort (selective training set).
    pub less_vulnerable: Vec<PatientId>,
    /// The more-vulnerable cohort.
    pub more_vulnerable: Vec<PatientId>,
    /// Detector kind actually trained for the LGO configuration (fallback
    /// chain may substitute).
    pub lgo_detector: &'static str,
    /// Detector kind actually trained for the no-defense configuration.
    pub all_detector: &'static str,
    /// One row per attacker, registry order (URET, FGSM, BIM, PGD, CW,
    /// SPSA, drift, poison).
    pub rows: Vec<AttackerRow>,
}

impl ZooReport {
    /// Renders the report as canonical JSON: fixed key order, `{:?}`
    /// floats, `null` for missing rates, no timestamps — byte-identical
    /// across thread counts by the campaign determinism contract.
    pub fn canonical_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = write!(
            out,
            "  \"experiment\": \"attack_zoo\",\n  \"eps\": {:?},\n  \"steps\": {},\n",
            self.eps, self.steps
        );
        let _ = write!(
            out,
            "  \"less_vulnerable\": [{}],\n  \"more_vulnerable\": [{}],\n",
            join_ids(&self.less_vulnerable),
            join_ids(&self.more_vulnerable),
        );
        let _ = write!(
            out,
            "  \"lgo_detector\": \"{}\",\n  \"all_detector\": \"{}\",\n",
            self.lgo_detector, self.all_detector
        );
        out.push_str("  \"attackers\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            let per_patient: Vec<String> = row
                .per_patient
                .iter()
                .map(|(id, s)| format!("{{\"patient\": \"{id}\", \"success\": {}}}", fmt_opt(*s)))
                .collect();
            let _ = write!(
                out,
                "    {{\"name\": \"{}\", \"threat_model\": \"{}\", \"success_rate\": {}, \
                 \"windows_attacked\": {}, \"windows_manipulated\": {}, \"queries\": {}, \
                 \"recall_lgo\": {}, \"recall_all\": {}, \"per_patient\": [{}]}}",
                row.name,
                row.threat_model,
                fmt_opt(row.success_rate),
                row.windows_attacked,
                row.windows_manipulated,
                row.total_queries,
                fmt_opt(row.recall_lgo),
                fmt_opt(row.recall_all),
                per_patient.join(", "),
            );
            out.push_str(if i + 1 < self.rows.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Looks a row up by attacker name.
    pub fn row(&self, name: &str) -> Option<&AttackerRow> {
        self.rows.iter().find(|r| r.name == name)
    }
}

/// `{:?}` float or `null`.
pub(crate) fn fmt_opt(v: Option<f64>) -> String {
    v.map_or_else(|| "null".into(), |v| format!("{v:?}"))
}

/// Comma-joined quoted patient-id list.
pub(crate) fn join_ids(ids: &[PatientId]) -> String {
    ids.iter()
        .map(|id| format!("\"{id}\""))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Per-patient artifacts phase 1 produces before any zoo attacker runs
/// (shared with the [`crate::defense`] study).
pub(crate) struct PatientSetup {
    pub(crate) id: PatientId,
    pub(crate) forecaster: GlucoseForecaster,
    /// Test-period attack surface (risk-profile stride).
    pub(crate) test_cases: Vec<CgmCase>,
    /// Training-period attack surface (detector/poison stride).
    pub(crate) train_cases: Vec<CgmCase>,
    pub(crate) train_benign: Vec<Window>,
    /// Minimal URET manipulations of the training period — the supervised
    /// detector's malicious training windows, as in the paper pipeline.
    pub(crate) train_malicious: Vec<Window>,
    /// Benign test-period windows (false-positive-rate measurement).
    pub(crate) test_benign: Vec<Window>,
    pub(crate) profile: PatientAttackProfile,
}

/// Runs the attack-zoo study.
///
/// # Panics
///
/// Panics on any [`try_run_attack_zoo`] error.
pub fn run_attack_zoo(config: &ZooExperimentConfig) -> ZooReport {
    match try_run_attack_zoo(config) {
        Ok(r) => r,
        // Documented panicking wrapper; try_run_attack_zoo is the checked path.
        Err(e) => panic!("run_attack_zoo: {e}"),
    }
}

/// Fallible [`run_attack_zoo`].
///
/// # Errors
///
/// Returns [`LgoError::InvalidConfig`] for an unusable `zoo.eps` or a
/// zero `profiler.explorer_steps`,
/// [`LgoError::TooFewPatients`] for cohorts under two patients,
/// [`LgoError::NoWindows`] when a patient's series yields no attackable or
/// benign windows, and propagates forecaster-training, clustering and
/// detector-training errors.
pub fn try_run_attack_zoo(config: &ZooExperimentConfig) -> Result<ZooReport, LgoError> {
    let _span = lgo_trace::span("zoo/experiment");
    // Phases 1–2 — per-patient setup and vulnerability clustering.
    let (setups, clusters) = try_setup_cohort(config)?;

    // Phase 3 — the two detector configurations: LGO-selective (the
    // paper's defense, trained only on the less-vulnerable cohort) and
    // no-defense (trained on everyone).
    let pool = |ids: &[PatientId]| -> (Vec<Window>, Vec<Window>) {
        let mut benign = Vec::new();
        let mut malicious = Vec::new();
        for s in setups.iter().filter(|s| ids.contains(&s.id)) {
            benign.extend(s.train_benign.iter().cloned());
            malicious.extend(s.train_malicious.iter().cloned());
        }
        (benign, malicious)
    };
    let all_ids: Vec<PatientId> = setups.iter().map(|s| s.id).collect();
    let (lgo_benign, lgo_malicious) = pool(&clusters.less_vulnerable);
    let (all_benign, all_malicious) = pool(&all_ids);
    let (lgo_det, lgo_kind) = {
        let _stage = lgo_trace::span("zoo/train_detectors");
        train_detector_with_fallback(
            DetectorKind::Knn,
            &lgo_benign,
            &lgo_malicious,
            &config.detectors,
        )?
    };
    let (all_det, all_kind) =
        train_detector_with_fallback(DetectorKind::Knn, &all_benign, &all_malicious, &config.detectors)?;

    // Phase 4 — evasion rows: every attacker except the poisoner attacks
    // each patient's test period. The drift attacker is defense-aware, so
    // it gets oracle access to the deployed LGO detector.
    let zoo = standard_zoo();
    let mut rows = Vec::with_capacity(zoo.len());
    let mut pgd_reference: Vec<Window> = Vec::new();
    for (ai, attack) in zoo.iter().enumerate() {
        if attack.name() == "poison" {
            continue; // phase 5: the poisoner attacks the training pool
        }
        let row_seed = lgo_runtime::split_seed(config.zoo.seed, 0x100 + ai as u64);
        let detector: Option<&dyn AnomalyDetector> = if attack.name() == "drift" {
            Some(&*lgo_det)
        } else {
            None
        };
        let mut per_patient = Vec::with_capacity(setups.len());
        let mut manipulated: Vec<Window> = Vec::new();
        let (mut attacked, mut queries, mut num, mut den) = (0usize, 0usize, 0usize, 0usize);
        for (pi, s) in setups.iter().enumerate() {
            let report = run_attack_campaign(
                attack.as_ref(),
                &s.forecaster,
                &s.test_cases,
                &config.zoo,
                lgo_runtime::split_seed(row_seed, pi as u64),
                detector,
            );
            per_patient.push((s.id, report.success_rate()));
            attacked += report.outcomes.len();
            queries += report.total_queries();
            for o in &report.outcomes {
                if o.origin != OriginState::Hyper {
                    den += 1;
                    if o.result.achieved {
                        num += 1;
                    }
                }
                if o.result.steps > 0 {
                    manipulated.push(o.result.best_input.clone());
                }
            }
        }
        if attack.name() == "pgd" {
            pgd_reference = manipulated.clone();
        }
        rows.push(AttackerRow {
            name: attack.name().to_string(),
            threat_model: attack.threat_model().name(),
            per_patient,
            success_rate: rate(num, den),
            windows_attacked: attacked,
            windows_manipulated: manipulated.len(),
            total_queries: queries,
            recall_lgo: recall(&*lgo_det, &manipulated),
            recall_all: recall(&*all_det, &manipulated),
        });
    }

    // Phase 5 — cluster poisoning: the adversary plants stealth windows in
    // the *less-vulnerable* cohort's training pool (the windows the
    // selective defense trusts), sized to evade the deployed detector.
    // The LGO detector is then retrained on the contaminated pool and
    // re-measured on the PGD reference windows.
    if let Some(poison) = zoo.iter().find(|a| a.name() == "poison") {
        let _stage = lgo_trace::span("zoo/poison");
        let row_seed = lgo_runtime::split_seed(config.zoo.seed, 0x200);
        let mut per_patient = Vec::with_capacity(setups.len());
        let mut planted: Vec<Window> = Vec::new();
        let (mut attacked, mut queries) = (0usize, 0usize);
        for (pi, s) in setups.iter().enumerate() {
            if !clusters.is_less_vulnerable(s.id) {
                per_patient.push((s.id, None));
                continue;
            }
            let report = run_attack_campaign(
                poison.as_ref(),
                &s.forecaster,
                &s.train_cases,
                &config.zoo,
                lgo_runtime::split_seed(row_seed, pi as u64),
                Some(&*lgo_det),
            );
            let placed: Vec<Window> = report
                .outcomes
                .iter()
                .filter(|o| o.result.steps > 0)
                .map(|o| o.result.best_input.clone())
                .collect();
            per_patient.push((s.id, rate(placed.len(), report.outcomes.len())));
            attacked += report.outcomes.len();
            queries += report.total_queries();
            planted.extend(placed);
        }
        let poisoned_benign: Vec<Window> = lgo_benign
            .iter()
            .cloned()
            .chain(planted.iter().cloned())
            .collect();
        let (poisoned_det, _) = train_detector_with_fallback(
            DetectorKind::Knn,
            &poisoned_benign,
            &lgo_malicious,
            &config.detectors,
        )?;
        rows.push(AttackerRow {
            name: poison.name().to_string(),
            threat_model: poison.threat_model().name(),
            per_patient,
            success_rate: rate(planted.len(), attacked),
            windows_attacked: attacked,
            windows_manipulated: planted.len(),
            total_queries: queries,
            recall_lgo: recall(&*poisoned_det, &pgd_reference),
            recall_all: recall(&*all_det, &pgd_reference),
        });
    }

    lgo_trace::counter("zoo/attackers", rows.len() as u64);
    Ok(ZooReport {
        eps: config.zoo.eps,
        steps: config.zoo.steps,
        less_vulnerable: clusters.less_vulnerable,
        more_vulnerable: clusters.more_vulnerable,
        lgo_detector: lgo_kind.name(),
        all_detector: all_kind.name(),
        rows,
    })
}

/// Phases 1–2 of both zoo studies (run inside the caller's outer span):
/// simulates the configured cohort, builds every patient's setup in
/// parallel (per-patient seeds split off the zoo seed, so the fan-out is
/// bit-identical to a serial loop) and clusters the URET risk profiles
/// into less-/more-vulnerable groups.
///
/// # Errors
///
/// Returns [`LgoError::InvalidConfig`] for an unusable `zoo.eps` or a
/// zero `profiler.explorer_steps`,
/// [`LgoError::TooFewPatients`] for cohorts under two patients,
/// [`LgoError::NoWindows`] when a patient's series yields no attackable or
/// benign windows, and propagates forecaster-training and clustering
/// errors.
pub(crate) fn try_setup_cohort(
    config: &ZooExperimentConfig,
) -> Result<(Vec<PatientSetup>, CohortClusters), LgoError> {
    config.zoo.validate()?;
    config.profiler.validate()?;
    if config.patients.len() < 2 {
        return Err(LgoError::TooFewPatients {
            got: config.patients.len(),
        });
    }
    let datasets: Vec<_> = {
        let _sim = lgo_trace::span("zoo/simulate");
        generate_cohort_sized(config.train_days, config.test_days)
            .into_iter()
            .filter(|d| config.patients.contains(&d.profile.id))
            .collect()
    };
    if datasets.len() < 2 {
        return Err(LgoError::TooFewPatients {
            got: datasets.len(),
        });
    }
    let setups = lgo_runtime::par_map_indexed(datasets.len(), |i| {
        build_patient(config, &datasets[i], lgo_runtime::split_seed(config.zoo.seed, i as u64))
    });
    let setups: Vec<PatientSetup> = setups.into_iter().collect::<Result<_, _>>()?;
    let profiles: Vec<PatientAttackProfile> = setups.iter().map(|s| s.profile.clone()).collect();
    let clusters = {
        let _stage = lgo_trace::span("stage/cluster");
        try_cluster_cohort(&profiles, lgo_cluster::Linkage::Average)?
    };
    Ok((setups, clusters))
}

/// Phase 1 for one patient (runs inside the cohort fan-out).
fn build_patient(
    config: &ZooExperimentConfig,
    d: &lgo_glucosim::PatientDataset,
    seed: u64,
) -> Result<PatientSetup, LgoError> {
    let _span = lgo_trace::span("zoo/patient");
    let forecaster = GlucoseForecaster::try_train_personalized(&d.train, &config.forecast)
        .map_err(LgoError::from)?;
    let seq_len = config.forecast.seq_len;
    let test_cases = try_attack_cases(&d.test, seq_len, config.profiler.stride)?;
    let train_cases = try_attack_cases(&d.train, seq_len, config.train_attack_stride)?;
    if test_cases.is_empty() || train_cases.is_empty() {
        return Err(LgoError::NoWindows);
    }
    let train_benign: Vec<Window> =
        benign_windows(&d.train, seq_len, config.detector_stride)
            .into_iter()
            .filter(|w| w.iter().flatten().all(|v| v.is_finite()))
            .collect();
    if train_benign.is_empty() {
        return Err(LgoError::NoWindows);
    }
    // Benign test windows for FPR measurement; may be empty at extreme
    // strides (rates then report as null rather than erroring).
    let test_benign: Vec<Window> = benign_windows(&d.test, seq_len, config.detector_stride)
        .into_iter()
        .filter(|w| w.iter().flatten().all(|v| v.is_finite()))
        .collect();
    // The supervised detector's malicious training data: minimal (early
    // exit) URET manipulations, what a stealthy adversary would inject.
    let minimal = run_attack_campaign(
        &UretAttack::minimal(config.profiler.explorer_steps),
        &forecaster,
        &train_cases,
        &config.zoo,
        lgo_runtime::split_seed(seed, 0),
        None,
    );
    let train_malicious: Vec<Window> = minimal
        .outcomes
        .iter()
        .filter(|o| o.result.steps > 0)
        .map(|o| o.result.best_input.clone())
        .collect();
    // The risk profile the clustering step consumes: a maximizing URET
    // campaign over the test period, exactly like the paper pipeline.
    let profile = profile_cases(
        &UretAttack::maximizing(config.profiler.explorer_steps),
        &forecaster,
        d.profile.id,
        &test_cases,
        &config.profiler,
        &config.zoo,
        lgo_runtime::split_seed(seed, 1),
        None,
    );
    Ok(PatientSetup {
        id: d.profile.id,
        forecaster,
        test_cases,
        train_cases,
        train_benign,
        train_malicious,
        test_benign,
        profile,
    })
}

/// `num / den` as a rate, `None` for an empty denominator.
pub(crate) fn rate(num: usize, den: usize) -> Option<f64> {
    (den > 0).then(|| num as f64 / den as f64)
}

/// Fraction of windows a detector flags, `None` when there are none.
pub(crate) fn recall(detector: &dyn AnomalyDetector, windows: &[Window]) -> Option<f64> {
    let flagged = windows.iter().filter(|w| detector.is_anomalous(w)).count();
    rate(flagged, windows.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ZooExperimentConfig {
        let mut config = ZooExperimentConfig::fast();
        // Two patients and coarse strides keep the full study test-fast.
        config.patients = vec![PatientId::new(Subset::A, 2), PatientId::new(Subset::A, 5)];
        config.profiler.stride = 96;
        config.train_attack_stride = 96;
        config.detector_stride = 48;
        config.forecast.hidden = 6;
        config.forecast.epochs = 1;
        config.zoo.steps = 4;
        config.zoo.restarts = 2;
        config
    }

    #[test]
    fn attack_zoo_report_covers_every_attacker() {
        let report = try_run_attack_zoo(&tiny_config()).expect("tiny study should run");
        // All 8 registry attackers, poison last.
        assert_eq!(report.rows.len(), 8);
        assert_eq!(report.rows.last().map(|r| r.name.as_str()), Some("poison"));
        for name in ["uret", "fgsm", "bim", "pgd", "cw", "spsa", "drift", "poison"] {
            let row = report.row(name).unwrap_or_else(|| panic!("missing row {name}"));
            assert_eq!(row.per_patient.len(), 2, "{name}: roster mismatch");
            for r in [row.success_rate, row.recall_lgo, row.recall_all]
                .into_iter()
                .flatten()
            {
                assert!((0.0..=1.0).contains(&r), "{name}: rate {r} out of range");
            }
            assert!(row.windows_manipulated <= row.windows_attacked, "{name}");
        }
        // Clusters partition the cohort.
        assert_eq!(
            report.less_vulnerable.len() + report.more_vulnerable.len(),
            2
        );
        // The white-box attackers must manipulate at least some windows at
        // the default ε.
        let pgd = report.row("pgd").expect("pgd row");
        assert!(pgd.windows_manipulated > 0, "PGD never manipulated a window");
    }

    #[test]
    fn canonical_json_is_schema_stable() {
        let report = try_run_attack_zoo(&tiny_config()).expect("tiny study should run");
        let json = report.canonical_json();
        for key in [
            "\"experiment\": \"attack_zoo\"",
            "\"eps\": ",
            "\"steps\": ",
            "\"less_vulnerable\": ",
            "\"attackers\": ",
            "\"recall_lgo\": ",
            "\"per_patient\": ",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(!json.contains("NaN"), "canonical JSON must not contain NaN");
        // Rendering is a pure function of the report.
        assert_eq!(json, report.canonical_json());
    }

    #[test]
    fn cohorts_below_two_patients_are_rejected() {
        let mut config = tiny_config();
        config.patients.truncate(1);
        assert!(matches!(
            try_run_attack_zoo(&config),
            Err(LgoError::TooFewPatients { got: 1 })
        ));
    }
}
