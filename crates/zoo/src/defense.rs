//! The `exp_defense` study: the pluggable [`Defense`] strategies versus
//! the attack zoo, Table-2 style.
//!
//! The experiment reuses `exp_attack_zoo`'s phase-1 artifacts (personalized
//! forecasters, URET risk profiles, detector training pools) and
//! vulnerability clustering, then fits each requested defense's full
//! MAD-GAN → OC-SVM → kNN ladder via [`try_fit_bank`] and serves it through
//! `lgo-serve`'s [`DetectorBank`]. A fixed panel of test-period attackers
//! (URET, PGD, SPSA — one per threat model) is run **once**, and every
//! (defense × ladder level × attacker) cell reports the detector's recall
//! over that attacker's manipulated windows next to the benign
//! false-positive rate — the recall/FPR trade-off the paper's Table 2
//! tabulates per strategy.
//!
//! ROAST and iterative retraining craft adversarial windows against the
//! currently deployed detector through [`ZooCrafter`], which adapts the
//! zoo's PGD attacker to `lgo-core`'s [`AdversarialCrafter`] seam. The
//! shared kernel cache is cleared (entries, not statistics) before the
//! fitting phase, so each defense's hit/miss delta — the cache-reuse story
//! across ROAST refits — is reproducible run to run.
//!
//! All floats render with `{:?}` and keys in fixed order, so the report is
//! byte-identical at any `LGO_THREADS` (pinned by `tests/defense.rs`).

use std::fmt::Write as _;

use lgo_attack::cgm::{CgmCase, Window};
use lgo_core::defense::{
    try_fit_bank, AdversarialCrafter, Defense, DefenseContext, IterativeRetrainingConfig,
    IterativeRetrainingDefense, LgoSelectiveDefense, RoastConfig, RoastDefense,
};
use lgo_core::error::LgoError;
use lgo_core::selective::{PatientData, TrainingStrategy};
use lgo_detect::AnomalyDetector;
use lgo_forecast::GlucoseForecaster;
use lgo_glucosim::PatientId;
use lgo_serve::DetectorBank;

use crate::campaign::run_attack_campaign;
use crate::experiment::{fmt_opt, join_ids, recall, try_setup_cohort, ZooExperimentConfig};
use crate::{attack_by_name, Attack, ZooConfig};

/// The test-period attacker panel, one per threat model (white-box,
/// black-box, and the paper's baseline).
pub const TEST_ATTACKERS: [&str; 3] = ["uret", "pgd", "spsa"];

/// The canonical defense roster, report order. [`DefenseBenchConfig::
/// defenses`] filters this list; seeds are pinned to the *unfiltered*
/// position so a filtered run reproduces the full run's rows byte-for-byte.
pub const DEFENSE_NAMES: [&str; 4] = [
    "lgo-selective",
    "indiscriminate",
    "roast",
    "iterative-retraining",
];

/// Configuration of one defense study.
#[derive(Debug, Clone)]
pub struct DefenseBenchConfig {
    /// Cohort, fidelity and attacker knobs (shared with `exp_attack_zoo`).
    pub base: ZooExperimentConfig,
    /// ROAST hyper-parameters.
    pub roast: RoastConfig,
    /// Iterative-retraining hyper-parameters.
    pub retrain: IterativeRetrainingConfig,
    /// Defense names to run (subset of [`DEFENSE_NAMES`]); empty = all.
    pub defenses: Vec<String>,
}

impl DefenseBenchConfig {
    /// The reduced configuration for tests and the fast bench tier.
    pub fn fast() -> Self {
        Self {
            base: ZooExperimentConfig::fast(),
            roast: RoastConfig {
                rounds: 2,
                ..RoastConfig::default()
            },
            retrain: IterativeRetrainingConfig {
                rounds: 1,
                ..IterativeRetrainingConfig::default()
            },
            defenses: Vec::new(),
        }
    }
}

/// Crafts adversarial windows by running a zoo attack campaign against the
/// currently deployed detector — the live implementation of `lgo-core`'s
/// [`AdversarialCrafter`] seam used by ROAST and iterative retraining.
pub struct ZooCrafter<'a> {
    attack: &'a dyn Attack,
    /// (victim forecaster, attack surface) per targeted patient.
    targets: Vec<(&'a GlucoseForecaster, &'a [CgmCase])>,
    zoo: &'a ZooConfig,
}

impl<'a> ZooCrafter<'a> {
    /// A crafter running `attack` against each target's window set.
    pub fn new(
        attack: &'a dyn Attack,
        targets: Vec<(&'a GlucoseForecaster, &'a [CgmCase])>,
        zoo: &'a ZooConfig,
    ) -> Self {
        Self {
            attack,
            targets,
            zoo,
        }
    }
}

impl AdversarialCrafter for ZooCrafter<'_> {
    fn name(&self) -> &'static str {
        "zoo"
    }

    fn craft(&self, _round: usize, seed: u64, deployed: &dyn AnomalyDetector) -> Vec<Window> {
        let _span = lgo_trace::span("defense/craft");
        let mut out = Vec::new();
        for (ti, (forecaster, cases)) in self.targets.iter().enumerate() {
            let report = run_attack_campaign(
                self.attack,
                forecaster,
                cases,
                self.zoo,
                lgo_runtime::split_seed(seed, ti as u64),
                Some(deployed),
            );
            out.extend(
                report
                    .outcomes
                    .iter()
                    .filter(|o| o.result.steps > 0)
                    .map(|o| o.result.best_input.clone()),
            );
        }
        lgo_trace::counter("defense/crafted_windows", out.len() as u64);
        out
    }
}

/// One (ladder level × attacker) recall entry.
#[derive(Debug, Clone)]
pub struct AttackerRecall {
    /// Attacker name ([`TEST_ATTACKERS`] order).
    pub attacker: &'static str,
    /// Detector recall over that attacker's manipulated windows; `None`
    /// when the attacker manipulated nothing.
    pub recall: Option<f64>,
}

/// One trained ladder level of one defense.
#[derive(Debug, Clone)]
pub struct DefenseLevel {
    /// Ladder position (0 = primary MAD-GAN).
    pub level: usize,
    /// Detector kind requested for this level.
    pub requested: &'static str,
    /// Detector kind that actually trained (fallback chain).
    pub trained: &'static str,
    /// Benign training windows used.
    pub training_windows: usize,
    /// False-positive rate over the cohort's pooled benign test windows.
    pub fpr: Option<f64>,
    /// Recall per attacker, [`TEST_ATTACKERS`] order.
    pub recalls: Vec<AttackerRecall>,
}

/// One defense's line in the report.
#[derive(Debug, Clone)]
pub struct DefenseRow {
    /// [`Defense::name`].
    pub name: &'static str,
    /// Training roster description.
    pub roster: &'static str,
    /// Whether adversarial windows entered the fit as labeled outliers.
    pub outlier_exposure: bool,
    /// Adversarial refit rounds configured.
    pub rounds: usize,
    /// Kernel-cache hits during this defense's fitting phase — nonzero
    /// hits on the ROAST row are the benign-Gram reuse across refits.
    pub cache_hits: u64,
    /// Kernel-cache misses during this defense's fitting phase.
    pub cache_misses: u64,
    /// The trained MAD-GAN → OC-SVM → kNN ladder.
    pub levels: Vec<DefenseLevel>,
}

/// Everything `exp_defense` produces.
#[derive(Debug, Clone)]
pub struct DefenseReport {
    /// `ε` the campaigns ran with (mg/dL).
    pub eps: f64,
    /// Iteration budget the campaigns ran with.
    pub steps: usize,
    /// ROAST fit rounds configured.
    pub roast_rounds: usize,
    /// Iterative-retraining rounds configured.
    pub retrain_rounds: usize,
    /// The less-vulnerable cohort.
    pub less_vulnerable: Vec<PatientId>,
    /// The more-vulnerable cohort.
    pub more_vulnerable: Vec<PatientId>,
    /// Pooled benign test windows the FPR column is measured on.
    pub benign_test_windows: usize,
    /// Manipulated-window counts per attacker, [`TEST_ATTACKERS`] order.
    pub attackers: Vec<(&'static str, usize)>,
    /// One row per defense, [`DEFENSE_NAMES`] order (filtered).
    pub rows: Vec<DefenseRow>,
}

impl DefenseReport {
    /// Renders the report as canonical JSON: fixed key order, `{:?}`
    /// floats, `null` for missing rates, no timestamps — byte-identical
    /// across thread counts.
    pub fn canonical_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = write!(
            out,
            "  \"experiment\": \"defense\",\n  \"eps\": {:?},\n  \"steps\": {},\n",
            self.eps, self.steps
        );
        let _ = write!(
            out,
            "  \"roast_rounds\": {},\n  \"retrain_rounds\": {},\n",
            self.roast_rounds, self.retrain_rounds
        );
        let _ = write!(
            out,
            "  \"less_vulnerable\": [{}],\n  \"more_vulnerable\": [{}],\n",
            join_ids(&self.less_vulnerable),
            join_ids(&self.more_vulnerable),
        );
        let _ = writeln!(out, "  \"benign_test_windows\": {},", self.benign_test_windows);
        let attackers: Vec<String> = self
            .attackers
            .iter()
            .map(|(name, n)| format!("{{\"name\": \"{name}\", \"windows_manipulated\": {n}}}"))
            .collect();
        let _ = writeln!(out, "  \"attackers\": [{}],", attackers.join(", "));
        out.push_str("  \"defenses\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\"name\": \"{}\", \"roster\": \"{}\", \"outlier_exposure\": {}, \
                 \"rounds\": {}, \"cache_hits\": {}, \"cache_misses\": {}, \"levels\": [",
                row.name,
                row.roster,
                row.outlier_exposure,
                row.rounds,
                row.cache_hits,
                row.cache_misses,
            );
            for (j, level) in row.levels.iter().enumerate() {
                let recalls: Vec<String> = level
                    .recalls
                    .iter()
                    .map(|r| {
                        format!(
                            "{{\"attacker\": \"{}\", \"recall\": {}}}",
                            r.attacker,
                            fmt_opt(r.recall)
                        )
                    })
                    .collect();
                let _ = write!(
                    out,
                    "      {{\"level\": {}, \"requested\": \"{}\", \"trained\": \"{}\", \
                     \"training_windows\": {}, \"fpr\": {}, \"recalls\": [{}]}}",
                    level.level,
                    level.requested,
                    level.trained,
                    level.training_windows,
                    fmt_opt(level.fpr),
                    recalls.join(", "),
                );
                out.push_str(if j + 1 < row.levels.len() { ",\n" } else { "\n" });
            }
            out.push_str("    ]}");
            out.push_str(if i + 1 < self.rows.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Looks a row up by defense name.
    pub fn row(&self, name: &str) -> Option<&DefenseRow> {
        self.rows.iter().find(|r| r.name == name)
    }
}

/// Runs the defense study.
///
/// # Panics
///
/// Panics on any [`try_run_defense_bench`] error.
pub fn run_defense_bench(config: &DefenseBenchConfig) -> DefenseReport {
    match try_run_defense_bench(config) {
        Ok(r) => r,
        // Documented panicking wrapper; try_run_defense_bench is checked.
        Err(e) => panic!("run_defense_bench: {e}"),
    }
}

/// Fallible [`run_defense_bench`].
///
/// # Errors
///
/// Returns [`LgoError::InvalidConfig`] for an unusable `zoo.eps` or a
/// zero `profiler.explorer_steps`,
/// [`LgoError::TooFewPatients`] for cohorts under two patients,
/// [`LgoError::NoWindows`] when a patient's series yields no attackable or
/// benign windows, and propagates forecaster-training, clustering and
/// detector-training errors.
pub fn try_run_defense_bench(config: &DefenseBenchConfig) -> Result<DefenseReport, LgoError> {
    let base = &config.base;
    let _span = lgo_trace::span("defense/experiment");
    // Phases 1–2 exactly as in exp_attack_zoo (same seeds, so the two
    // studies see the same forecasters, pools and clusters).
    let (setups, clusters) = try_setup_cohort(base)?;

    // Phase 3 — the attacker panel runs ONCE (none of the panel attackers
    // is defense-aware, so their campaigns are defense-independent) and
    // every defense is scored against the same manipulated windows.
    let mut attacker_windows: Vec<(&'static str, Vec<Window>)> = Vec::new();
    for (ai, name) in TEST_ATTACKERS.iter().enumerate() {
        let _stage = lgo_trace::span("defense/test_campaigns");
        // TEST_ATTACKERS only lists registry attackers.
        let attack = attack_by_name(name).expect("panel attacker in registry");
        let row_seed = lgo_runtime::split_seed(base.zoo.seed, 0x300 + ai as u64);
        let mut manipulated = Vec::new();
        for (pi, s) in setups.iter().enumerate() {
            let report = run_attack_campaign(
                attack.as_ref(),
                &s.forecaster,
                &s.test_cases,
                &base.zoo,
                lgo_runtime::split_seed(row_seed, pi as u64),
                None,
            );
            manipulated.extend(
                report
                    .outcomes
                    .iter()
                    .filter(|o| o.result.steps > 0)
                    .map(|o| o.result.best_input.clone()),
            );
        }
        attacker_windows.push((name, manipulated));
    }
    let test_benign: Vec<Window> = setups
        .iter()
        .flat_map(|s| s.test_benign.iter().cloned())
        .collect();

    // Phase 4 — defense contexts. The cohort's test windows are not read
    // by Defense::fit (scoring happens through the serve bank below), so
    // they stay empty.
    let cohort: Vec<PatientData> = setups
        .iter()
        .map(|s| PatientData {
            patient: s.id,
            train_benign: s.train_benign.clone(),
            train_malicious: s.train_malicious.clone(),
            test_benign: Vec::new(),
            test_malicious: Vec::new(),
        })
        .collect();
    // "pgd" is a registry attacker.
    let pgd = attack_by_name("pgd").expect("pgd in registry");
    let target = |ids: &[PatientId]| -> Vec<(&GlucoseForecaster, &[CgmCase])> {
        setups
            .iter()
            .filter(|s| ids.contains(&s.id))
            .map(|s| (&s.forecaster, s.train_cases.as_slice()))
            .collect()
    };
    let all_ids: Vec<PatientId> = setups.iter().map(|s| s.id).collect();
    let roast_crafter = ZooCrafter::new(pgd.as_ref(), target(&clusters.more_vulnerable), &base.zoo);
    let retrain_crafter = ZooCrafter::new(pgd.as_ref(), target(&all_ids), &base.zoo);

    // Clear retained Gram blocks (statistics survive) so each defense's
    // hit/miss delta starts from a cold cache and is reproducible even when
    // other fits ran earlier in this process.
    lgo_detect::kernel_cache_global()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clear();

    // Phase 5 — fit each requested defense's ladder and score it through
    // the serve bank. Fitting is serial so cache deltas are deterministic.
    let wanted = |name: &str| config.defenses.is_empty() || config.defenses.iter().any(|d| d == name);
    let mut rows = Vec::new();
    for (di, name) in DEFENSE_NAMES.iter().enumerate() {
        if !wanted(name) {
            continue;
        }
        let selective;
        let indiscriminate;
        let roast;
        let retrain;
        let (defense, crafter): (&dyn Defense, Option<&dyn AdversarialCrafter>) = match *name {
            "lgo-selective" => {
                selective = LgoSelectiveDefense::new(TrainingStrategy::LessVulnerable);
                (&selective, None)
            }
            "indiscriminate" => {
                indiscriminate = LgoSelectiveDefense::new(TrainingStrategy::AllPatients);
                (&indiscriminate, None)
            }
            "roast" => {
                roast = RoastDefense::new(config.roast);
                (&roast, Some(&roast_crafter))
            }
            _ => {
                retrain = IterativeRetrainingDefense::new(config.retrain);
                (&retrain, Some(&retrain_crafter))
            }
        };
        let ctx = DefenseContext {
            cohort: &cohort,
            less_vulnerable: &clusters.less_vulnerable,
            more_vulnerable: &clusters.more_vulnerable,
            configs: &base.detectors,
            // Seeds pin to the unfiltered roster position so LGO_DEFENSE
            // subsets reproduce the full run's rows.
            seed: lgo_runtime::split_seed(base.zoo.seed, 0xDEF0 + di as u64),
            crafter,
        };
        let stats_before = cache_stats();
        let bank = {
            let _fit = lgo_trace::span("defense/fit_bank");
            try_fit_bank(defense, &ctx)?
        };
        let stats_after = cache_stats();
        let serve_bank = DetectorBank::new(bank.ladder());
        let levels = bank
            .levels
            .iter()
            .enumerate()
            .map(|(li, level)| {
                let det = serve_bank.at(li).as_ref();
                DefenseLevel {
                    level: li,
                    requested: level.requested.name(),
                    trained: level.trained.name(),
                    training_windows: level.training_windows,
                    fpr: recall(det, &test_benign),
                    recalls: attacker_windows
                        .iter()
                        .map(|(attacker, windows)| AttackerRecall {
                            attacker,
                            recall: recall(det, windows),
                        })
                        .collect(),
                }
            })
            .collect();
        let meta = defense.meta();
        rows.push(DefenseRow {
            name: defense.name(),
            roster: meta.roster,
            outlier_exposure: meta.outlier_exposure,
            rounds: meta.rounds,
            cache_hits: stats_after.0 - stats_before.0,
            cache_misses: stats_after.1 - stats_before.1,
            levels,
        });
    }

    lgo_trace::counter("defense/rows", rows.len() as u64);
    Ok(DefenseReport {
        eps: base.zoo.eps,
        steps: base.zoo.steps,
        roast_rounds: config.roast.rounds,
        retrain_rounds: config.retrain.rounds,
        less_vulnerable: clusters.less_vulnerable,
        more_vulnerable: clusters.more_vulnerable,
        benign_test_windows: test_benign.len(),
        attackers: attacker_windows
            .iter()
            .map(|(name, w)| (*name, w.len()))
            .collect(),
        rows,
    })
}

/// Cumulative (hits, misses) of the process-wide kernel cache.
fn cache_stats() -> (u64, u64) {
    let stats = lgo_detect::kernel_cache_global()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .stats();
    (stats.hits, stats.misses)
}

/// Pooled recall over every panel attacker's windows for one row's ladder
/// level — the scalar `tests/defense.rs` compares defenses by.
pub fn pooled_recall(report: &DefenseReport, defense: &str, level: usize) -> Option<f64> {
    let row = report.row(defense)?;
    let cell = row.levels.get(level)?;
    let mut num = 0.0;
    let mut den = 0usize;
    for (r, (_, n)) in cell.recalls.iter().zip(&report.attackers) {
        if let Some(rec) = r.recall {
            num += rec * *n as f64;
            den += *n;
        }
    }
    (den > 0).then(|| num / den as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lgo_detect::MadGanConfig;
    use lgo_glucosim::Subset;

    /// Unwraps a rate with a -1 default so bit-comparisons treat "not
    /// measured" as its own value.
    fn or_neg(v: Option<f64>) -> f64 {
        v.unwrap_or(-1.0)
    }

    pub(crate) fn tiny_config() -> DefenseBenchConfig {
        let mut config = DefenseBenchConfig::fast();
        // Two patients and coarse strides keep the full study test-fast.
        config.base.patients = vec![PatientId::new(Subset::A, 2), PatientId::new(Subset::A, 5)];
        config.base.profiler.stride = 96;
        config.base.train_attack_stride = 96;
        config.base.detector_stride = 48;
        config.base.forecast.hidden = 6;
        config.base.forecast.epochs = 1;
        config.base.zoo.steps = 4;
        config.base.zoo.restarts = 2;
        config.base.detectors.madgan = MadGanConfig {
            epochs: 2,
            hidden: 6,
            inversion_steps: 3,
            ..MadGanConfig::default()
        };
        config.roast.rounds = 1; // skip crafting refits in the tiny tier
        config.retrain.rounds = 1;
        config
    }

    #[test]
    fn defense_report_covers_every_defense_and_cell() {
        let report = try_run_defense_bench(&tiny_config()).expect("tiny study should run");
        assert_eq!(report.rows.len(), 4);
        for name in DEFENSE_NAMES {
            let row = report
                .row(name)
                .unwrap_or_else(|| panic!("missing row {name}"));
            assert_eq!(row.levels.len(), 3, "{name}: ladder length");
            for level in &row.levels {
                assert_eq!(level.recalls.len(), TEST_ATTACKERS.len());
                for r in level.recalls.iter().filter_map(|r| r.recall) {
                    assert!((0.0..=1.0).contains(&r), "{name}: recall {r}");
                }
                if let Some(fpr) = level.fpr {
                    assert!((0.0..=1.0).contains(&fpr), "{name}: fpr {fpr}");
                }
            }
        }
        // Outlier exposure is flagged on exactly the two new defenses.
        assert!(report.row("roast").unwrap().outlier_exposure);
        assert!(report.row("iterative-retraining").unwrap().outlier_exposure);
        assert!(!report.row("lgo-selective").unwrap().outlier_exposure);
        // Clusters partition the cohort.
        assert_eq!(
            report.less_vulnerable.len() + report.more_vulnerable.len(),
            2
        );
    }

    #[test]
    fn defense_filter_reproduces_full_run_rows() {
        let full = try_run_defense_bench(&tiny_config()).expect("full study");
        let mut filtered_config = tiny_config();
        filtered_config.defenses = vec!["roast".into()];
        let filtered = try_run_defense_bench(&filtered_config).expect("filtered study");
        assert_eq!(filtered.rows.len(), 1);
        let a = full.row("roast").unwrap();
        let b = filtered.row("roast").unwrap();
        for (la, lb) in a.levels.iter().zip(&b.levels) {
            assert_eq!(la.trained, lb.trained);
            assert_eq!(
                or_neg(la.fpr).to_bits(),
                or_neg(lb.fpr).to_bits(),
                "fpr drifts under LGO_DEFENSE filtering"
            );
            for (ra, rb) in la.recalls.iter().zip(&lb.recalls) {
                assert_eq!(or_neg(ra.recall).to_bits(), or_neg(rb.recall).to_bits());
            }
        }
    }

    #[test]
    fn canonical_json_is_schema_stable() {
        let mut config = tiny_config();
        config.defenses = vec!["lgo-selective".into(), "roast".into()];
        let report = try_run_defense_bench(&config).expect("tiny study should run");
        let json = report.canonical_json();
        for key in [
            "\"experiment\": \"defense\"",
            "\"roast_rounds\": ",
            "\"attackers\": ",
            "\"defenses\": ",
            "\"cache_hits\": ",
            "\"levels\": ",
            "\"recalls\": ",
            "\"fpr\": ",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(!json.contains("NaN"), "canonical JSON must not contain NaN");
        assert_eq!(json, report.canonical_json());
    }
}
