//! Pluggable defense strategies: LGO selective training, ROAST
//! outlier-exposure, and iterative adversarial retraining behind one
//! [`Defense`] trait.
//!
//! The paper's contribution (step 5, [`crate::selective`]) picks *which
//! patients* train the detectors; its ROAST follow-up (PAPERS.md, Elnawawy
//! et al.) additionally feeds the **more-vulnerable** cohort's adversarial
//! windows into the fit as labeled outliers, and Li & Vorobeychik's
//! iterative adversarial retraining is the classic craft → augment → refit
//! baseline both must be compared against. This module makes the three
//! interchangeable:
//!
//! - [`LgoSelectiveDefense`] wraps the four [`TrainingStrategy`] arms — the
//!   pre-existing evaluation path routes through it bit-identically.
//! - [`RoastDefense`] trains on the less-vulnerable cohort while exposing
//!   the more-vulnerable cohort's adversarial windows as negatives: into
//!   the kNN malicious class (score calibration), the OC-SVM dual as a
//!   bounded negative-slack class (margin shaping), and the MAD-GAN
//!   discriminator as explicit fakes.
//! - [`IterativeRetrainingDefense`] starts from indiscriminate training and
//!   repeats craft → keep evaders → refit for K rounds.
//!
//! Crafting is abstracted behind [`AdversarialCrafter`] so `lgo-core` stays
//! independent of `lgo-zoo`: the zoo implements the trait with real attack
//! campaigns against the currently deployed detector, while
//! [`ReplayCrafter`] replays recorded adversarial windows deterministically
//! for tests and offline fits.
//!
//! # Determinism contract
//!
//! `fit` is deterministic for a fixed [`DefenseContext`]: rosters and
//! refit rounds derive their seeds from `split_seed(ctx.seed, round)`,
//! outlier pools accumulate in cohort order, and caps use uniform-stride
//! subsampling — no wall-clock, no unseeded RNG, no map-order iteration.
//! The canonical exports built on top are byte-identical at any
//! `LGO_THREADS`.

use std::borrow::Cow;
use std::sync::Arc;

use lgo_detect::{
    subsample_cap, summarize_all_mode, AnomalyDetector, CgmSummaryDetector, KnnDetector, MadGan,
    OneClassSvm, SummaryMode, Window,
};
use lgo_eval::ConfusionMatrix;
use lgo_glucosim::PatientId;
use lgo_runtime::split_seed;

use crate::error::LgoError;
use crate::selective::{
    evaluate_on_patient, train_detector_with_fallback, try_training_rosters, DetectorConfigs,
    DetectorKind, PatientData, PatientMetrics, TrainingStrategy,
};

/// Crafts adversarial windows against the currently deployed detector —
/// the seam between a [`Defense`]'s refit loop and the attack zoo.
///
/// `lgo-core` cannot depend on `lgo-zoo`, so defenses that retrain on
/// crafted windows receive a crafter through [`DefenseContext::crafter`];
/// the zoo's implementation runs real attack campaigns, while
/// [`ReplayCrafter`] replays recorded windows.
pub trait AdversarialCrafter: Sync {
    /// Short crafter name for reports.
    fn name(&self) -> &'static str;

    /// Produces adversarial windows for `round`, optionally adapting to the
    /// `deployed` detector. Must be deterministic in `(round, seed)`.
    fn craft(&self, round: usize, seed: u64, deployed: &dyn AnomalyDetector) -> Vec<Window>;
}

/// Replays a recorded pool of adversarial windows, rotating through it
/// deterministically round by round — the offline stand-in for a live
/// attack campaign.
#[derive(Debug, Clone)]
pub struct ReplayCrafter {
    pool: Vec<Window>,
    per_round: usize,
}

impl ReplayCrafter {
    /// A crafter replaying `per_round` windows of `pool` per round.
    pub fn new(pool: Vec<Window>, per_round: usize) -> Self {
        Self { pool, per_round }
    }
}

impl AdversarialCrafter for ReplayCrafter {
    fn name(&self) -> &'static str {
        "replay"
    }

    fn craft(&self, round: usize, _seed: u64, _deployed: &dyn AnomalyDetector) -> Vec<Window> {
        if self.pool.is_empty() || self.per_round == 0 {
            return Vec::new();
        }
        let n = self.per_round.min(self.pool.len());
        let start = (round * self.per_round) % self.pool.len();
        (0..n)
            .map(|i| self.pool[(start + i) % self.pool.len()].clone())
            .collect()
    }
}

/// Everything a [`Defense`] may consult while fitting: the cohort's
/// detector-facing windows, the vulnerability split from step 4, detector
/// hyper-parameters, a base seed, and (optionally) a crafter for
/// adversarial refit rounds.
#[derive(Clone, Copy)]
pub struct DefenseContext<'a> {
    /// Per-patient training/test windows (step-5 input).
    pub cohort: &'a [PatientData],
    /// The less-vulnerable cluster from the dendrogram cut.
    pub less_vulnerable: &'a [PatientId],
    /// The more-vulnerable cluster from the dendrogram cut.
    pub more_vulnerable: &'a [PatientId],
    /// Detector hyper-parameters.
    pub configs: &'a DetectorConfigs,
    /// Base seed; refit rounds split from it via `split_seed`.
    pub seed: u64,
    /// Crafter for adversarial refit rounds (`None` disables them).
    pub crafter: Option<&'a dyn AdversarialCrafter>,
}

/// One fitted training run of a defense.
pub struct FittedRun {
    /// The trained detector.
    pub detector: Box<dyn AnomalyDetector>,
    /// The detector kind that actually trained (fallback chain may engage).
    pub trained: DetectorKind,
    /// Benign training windows used.
    pub training_windows: usize,
}

/// Strategy metadata a report can print without knowing the concrete type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DefenseMeta {
    /// Which cohort slice supplies the benign training windows.
    pub roster: &'static str,
    /// Whether adversarial windows enter the fit as labeled outliers.
    pub outlier_exposure: bool,
    /// Refit rounds after the initial fit (0 = single fit).
    pub rounds: usize,
}

/// A pluggable defense: how detectors are trained against evasion attacks.
///
/// Implementations must be deterministic for a fixed context (see the
/// module docs) and must return **at least one** fitted run from
/// [`fit`](Defense::fit); only multi-run strategies (Random Samples)
/// return more.
pub trait Defense: Sync {
    /// Short kebab-case name for reports ("lgo-selective", "roast", ...).
    fn name(&self) -> &'static str;

    /// Strategy metadata for reports.
    fn meta(&self) -> DefenseMeta;

    /// Trains one detector of `kind` per run under this defense.
    ///
    /// # Errors
    ///
    /// Roster errors ([`LgoError::EmptyRoster`]) and training errors
    /// ([`LgoError::DetectorChainExhausted`], [`LgoError::KnnNeedsMalicious`]).
    fn fit(&self, kind: DetectorKind, ctx: &DefenseContext) -> Result<Vec<FittedRun>, LgoError>;
}

/// Pools benign and malicious training windows of the roster's patients,
/// in cohort order — the exact accumulation order of the pre-trait
/// evaluation path, which byte-identity depends on.
pub fn pool_training_windows(
    cohort: &[PatientData],
    roster: &[PatientId],
) -> (Vec<Window>, Vec<Window>) {
    let mut benign = Vec::new();
    let mut malicious = Vec::new();
    for d in cohort.iter().filter(|d| roster.contains(&d.patient)) {
        benign.extend(d.train_benign.iter().cloned());
        malicious.extend(d.train_malicious.iter().cloned());
    }
    (benign, malicious)
}

/// The four paper strategies behind the [`Defense`] trait. The legacy
/// entry point [`crate::selective::try_evaluate_strategy`] is a thin
/// wrapper over this type, so the pre-trait and post-trait paths cannot
/// drift apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LgoSelectiveDefense {
    strategy: TrainingStrategy,
}

impl LgoSelectiveDefense {
    /// Wraps a [`TrainingStrategy`].
    pub fn new(strategy: TrainingStrategy) -> Self {
        Self { strategy }
    }

    /// The wrapped strategy.
    pub fn strategy(&self) -> TrainingStrategy {
        self.strategy
    }
}

impl Defense for LgoSelectiveDefense {
    fn name(&self) -> &'static str {
        match self.strategy {
            TrainingStrategy::LessVulnerable => "lgo-selective",
            TrainingStrategy::MoreVulnerable => "more-vulnerable",
            TrainingStrategy::RandomSamples { .. } => "random-samples",
            TrainingStrategy::AllPatients => "indiscriminate",
        }
    }

    fn meta(&self) -> DefenseMeta {
        DefenseMeta {
            roster: match self.strategy {
                TrainingStrategy::LessVulnerable => "less-vulnerable",
                TrainingStrategy::MoreVulnerable => "more-vulnerable",
                TrainingStrategy::RandomSamples { .. } => "random-samples",
                TrainingStrategy::AllPatients => "all-patients",
            },
            outlier_exposure: false,
            rounds: 0,
        }
    }

    fn fit(&self, kind: DetectorKind, ctx: &DefenseContext) -> Result<Vec<FittedRun>, LgoError> {
        let ids: Vec<PatientId> = ctx.cohort.iter().map(|d| d.patient).collect();
        let rosters =
            try_training_rosters(self.strategy, &ids, ctx.less_vulnerable, ctx.more_vulnerable)?;
        lgo_trace::counter("selective/runs", rosters.len() as u64);

        // Each run trains its own detector from a fixed roster, so runs fan
        // out across the lgo-runtime pool; only Random Samples has more
        // than one.
        let outcomes =
            lgo_runtime::try_par_map(&rosters, |roster| -> Result<FittedRun, LgoError> {
                let (benign, malicious) = pool_training_windows(ctx.cohort, roster);
                let (detector, trained) = {
                    let _fit = lgo_trace::span("selective/fit");
                    train_detector_with_fallback(kind, &benign, &malicious, ctx.configs)?
                };
                lgo_trace::counter("selective/fits", 1);
                lgo_trace::counter("selective/training_windows", benign.len() as u64);
                if trained != kind {
                    lgo_trace::counter("selective/fallbacks", 1);
                }
                Ok(FittedRun {
                    detector,
                    trained,
                    training_windows: benign.len(),
                })
            })?;
        outcomes.into_iter().collect()
    }
}

/// Hyper-parameters of [`RoastDefense`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoastConfig {
    /// Total fit rounds: round 0 exposes the more-vulnerable cohort's
    /// recorded adversarial windows; rounds 1.. craft fresh windows against
    /// the current detector (requires a [`DefenseContext::crafter`]).
    pub rounds: usize,
    /// Uniform-stride cap on the accumulated outlier pool.
    pub outlier_cap: usize,
    /// Total negative-class box mass in the OC-SVM dual
    /// (see [`OneClassSvm::try_fit_with_outliers`]).
    pub ocsvm_slack: f64,
}

impl Default for RoastConfig {
    fn default() -> Self {
        Self {
            rounds: 1,
            outlier_cap: 512,
            ocsvm_slack: 0.25,
        }
    }
}

/// Risk-aware outlier-exposure training (ROAST): benign windows come from
/// the **less-vulnerable** cohort (as in LGO selective training) and the
/// **more-vulnerable** cohort's adversarial windows enter each detector's
/// fit as labeled outliers.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoastDefense {
    /// Hyper-parameters.
    pub config: RoastConfig,
}

impl RoastDefense {
    /// A ROAST defense with the given hyper-parameters.
    pub fn new(config: RoastConfig) -> Self {
        Self { config }
    }
}

impl Defense for RoastDefense {
    fn name(&self) -> &'static str {
        "roast"
    }

    fn meta(&self) -> DefenseMeta {
        DefenseMeta {
            roster: "less-vulnerable",
            outlier_exposure: true,
            rounds: self.config.rounds.saturating_sub(1),
        }
    }

    fn fit(&self, kind: DetectorKind, ctx: &DefenseContext) -> Result<Vec<FittedRun>, LgoError> {
        if ctx.less_vulnerable.is_empty() {
            return Err(LgoError::EmptyRoster {
                strategy: "roast",
                run: 0,
            });
        }
        let (benign, malicious) = pool_training_windows(ctx.cohort, ctx.less_vulnerable);
        // Round-0 outliers: the more-vulnerable cohort's recorded
        // adversarial training windows, pooled in cohort order.
        let mut outliers = Vec::new();
        for d in ctx
            .cohort
            .iter()
            .filter(|d| ctx.more_vulnerable.contains(&d.patient))
        {
            outliers.extend(d.train_malicious.iter().cloned());
        }
        outliers = subsample_cap(outliers, self.config.outlier_cap);
        lgo_trace::counter("defense/roast/outliers", outliers.len() as u64);
        let (mut detector, mut trained) = train_with_outliers_fallback(
            kind,
            &benign,
            &malicious,
            &outliers,
            self.config.ocsvm_slack,
            ctx.configs,
        )?;
        for round in 1..self.config.rounds {
            let Some(crafter) = ctx.crafter else { break };
            let crafted = crafter.craft(round, split_seed(ctx.seed, round as u64), &*detector);
            // Only windows that *evade* the current detector add signal.
            let evading: Vec<Window> = crafted
                .into_iter()
                .filter(|w| w.iter().flatten().all(|v| v.is_finite()) && !detector.is_anomalous(w))
                .collect();
            lgo_trace::counter("defense/roast/evading", evading.len() as u64);
            if evading.is_empty() {
                break;
            }
            outliers.extend(evading);
            outliers = subsample_cap(outliers, self.config.outlier_cap);
            let (d, t) = train_with_outliers_fallback(
                kind,
                &benign,
                &malicious,
                &outliers,
                self.config.ocsvm_slack,
                ctx.configs,
            )?;
            detector = d;
            trained = t;
        }
        Ok(vec![FittedRun {
            detector,
            trained,
            training_windows: benign.len(),
        }])
    }
}

/// Hyper-parameters of [`IterativeRetrainingDefense`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterativeRetrainingConfig {
    /// Craft → augment → refit rounds after the initial indiscriminate fit.
    pub rounds: usize,
    /// Windows requested from the crafter per round (also the
    /// [`ReplayCrafter`] rotation width when no crafter is supplied).
    pub per_round: usize,
    /// Uniform-stride cap on the accumulated outlier pool.
    pub outlier_cap: usize,
    /// Total negative-class box mass in the OC-SVM dual.
    pub ocsvm_slack: f64,
}

impl Default for IterativeRetrainingConfig {
    fn default() -> Self {
        Self {
            rounds: 2,
            per_round: 64,
            outlier_cap: 512,
            ocsvm_slack: 0.25,
        }
    }
}

/// Iterative adversarial retraining (Li & Vorobeychik): train
/// indiscriminately on the whole cohort, then for K rounds craft
/// adversarial windows against the deployed detector, keep the ones that
/// evade it, and refit with them as outliers.
#[derive(Debug, Clone, Copy, Default)]
pub struct IterativeRetrainingDefense {
    /// Hyper-parameters.
    pub config: IterativeRetrainingConfig,
}

impl IterativeRetrainingDefense {
    /// An iterative-retraining defense with the given hyper-parameters.
    pub fn new(config: IterativeRetrainingConfig) -> Self {
        Self { config }
    }
}

impl Defense for IterativeRetrainingDefense {
    fn name(&self) -> &'static str {
        "iterative-retraining"
    }

    fn meta(&self) -> DefenseMeta {
        DefenseMeta {
            roster: "all-patients",
            outlier_exposure: true,
            rounds: self.config.rounds,
        }
    }

    fn fit(&self, kind: DetectorKind, ctx: &DefenseContext) -> Result<Vec<FittedRun>, LgoError> {
        let ids: Vec<PatientId> = ctx.cohort.iter().map(|d| d.patient).collect();
        let (benign, malicious) = pool_training_windows(ctx.cohort, &ids);
        // Round 0 is plain indiscriminate training — the baseline this
        // defense escalates from.
        let (mut detector, mut trained) =
            train_detector_with_fallback(kind, &benign, &malicious, ctx.configs)?;
        // Without a live crafter, replay the recorded adversarial pool.
        let replay;
        let crafter: &dyn AdversarialCrafter = match ctx.crafter {
            Some(c) => c,
            None => {
                replay = ReplayCrafter::new(malicious.clone(), self.config.per_round);
                &replay
            }
        };
        let mut outliers: Vec<Window> = Vec::new();
        for round in 0..self.config.rounds {
            let crafted = crafter.craft(round, split_seed(ctx.seed, 0x17E8 + round as u64), &*detector);
            let evading: Vec<Window> = crafted
                .into_iter()
                .filter(|w| w.iter().flatten().all(|v| v.is_finite()) && !detector.is_anomalous(w))
                .collect();
            lgo_trace::counter("defense/retrain/evading", evading.len() as u64);
            if evading.is_empty() {
                break; // the detector already rejects everything crafted
            }
            outliers.extend(evading);
            outliers = subsample_cap(outliers, self.config.outlier_cap);
            let (d, t) = train_with_outliers_fallback(
                kind,
                &benign,
                &malicious,
                &outliers,
                self.config.ocsvm_slack,
                ctx.configs,
            )?;
            detector = d;
            trained = t;
            lgo_trace::counter("defense/retrain/rounds", 1);
        }
        Ok(vec![FittedRun {
            detector,
            trained,
            training_windows: benign.len(),
        }])
    }
}

/// Trains one detector on pooled benign (+ malicious, for kNN) windows
/// with outlier exposure, per kind:
///
/// - **kNN** — outliers join the malicious training class, recalibrating
///   the vote-fraction score against them;
/// - **OC-SVM** — outliers enter the SMO dual as the bounded negative
///   class ([`OneClassSvm::try_fit_with_outliers`], margin shaping);
/// - **MAD-GAN** — outliers are extra discriminator fakes
///   ([`MadGan::try_fit_with_outliers`]).
///
/// The point detectors judge individual measurements (the paper's
/// Figure 5 flags per-sample TPs/FNs), so they train and score on
/// per-sample CGM summaries rather than whole windows. With an empty
/// outlier pool this is [`crate::selective::try_train_detector`].
///
/// # Errors
///
/// Returns [`LgoError::KnnNeedsMalicious`] when kNN is requested with
/// neither malicious windows nor outliers, or the underlying
/// [`lgo_detect::DetectError`] when a detector's fit rejects the data.
pub fn try_train_detector_with_outliers(
    kind: DetectorKind,
    benign: &[Window],
    malicious: &[Window],
    outliers: &[Window],
    ocsvm_slack: f64,
    configs: &DetectorConfigs,
) -> Result<Box<dyn AnomalyDetector>, LgoError> {
    Ok(match kind {
        DetectorKind::Knn => {
            if malicious.is_empty() && outliers.is_empty() {
                return Err(LgoError::KnnNeedsMalicious);
            }
            let mal: Cow<'_, [Window]> = if outliers.is_empty() {
                Cow::Borrowed(malicious)
            } else {
                Cow::Owned([malicious, outliers].concat())
            };
            Box::new(CgmSummaryDetector::with_mode(
                KnnDetector::try_fit(
                    &summarize_all_mode(benign, SummaryMode::Value),
                    &summarize_all_mode(&mal, SummaryMode::Value),
                    &configs.knn,
                )?,
                SummaryMode::Value,
            ))
        }
        DetectorKind::OcSvm => Box::new(CgmSummaryDetector::with_mode(
            OneClassSvm::try_fit_with_outliers(
                &summarize_all_mode(benign, SummaryMode::Context),
                &summarize_all_mode(outliers, SummaryMode::Context),
                ocsvm_slack,
                &configs.ocsvm,
            )?,
            SummaryMode::Context,
        )),
        DetectorKind::MadGan => Box::new(MadGan::try_fit_with_outliers(
            benign,
            outliers,
            &configs.madgan,
        )?),
    })
}

/// [`try_train_detector_with_outliers`] walking the
/// [`DetectorKind::fallback_chain`] (MAD-GAN → OC-SVM → kNN); with no
/// outliers this is [`train_detector_with_fallback`].
///
/// # Errors
///
/// [`LgoError::DetectorChainExhausted`] (or the last non-detector error)
/// when every link in the chain fails.
pub fn train_with_outliers_fallback(
    kind: DetectorKind,
    benign: &[Window],
    malicious: &[Window],
    outliers: &[Window],
    ocsvm_slack: f64,
    configs: &DetectorConfigs,
) -> Result<(Box<dyn AnomalyDetector>, DetectorKind), LgoError> {
    let chain = kind.fallback_chain();
    let mut last: Option<LgoError> = None;
    for &candidate in chain {
        match try_train_detector_with_outliers(
            candidate,
            benign,
            malicious,
            outliers,
            ocsvm_slack,
            configs,
        ) {
            Ok(d) => return Ok((d, candidate)),
            Err(e) => last = Some(e),
        }
    }
    // lint: allow(L1): fallback_chain() always returns at least one candidate, so `last` was set
    Err(match last.expect("fallback chain is never empty") {
        LgoError::Detect(e) => LgoError::DetectorChainExhausted { last: e },
        other => other,
    })
}

/// The evaluation of one (defense, detector) cell — the trait-level
/// sibling of [`crate::selective::StrategyEvaluation`].
#[derive(Debug, Clone)]
pub struct DefenseEvaluation {
    /// The defense's report name.
    pub defense: &'static str,
    /// The detector requested.
    pub detector: DetectorKind,
    /// Per-patient metrics over the whole cohort's test data.
    pub per_patient: Vec<(PatientId, PatientMetrics)>,
    /// Mean benign training windows per run.
    pub mean_training_windows: f64,
    /// Training runs averaged.
    pub runs: usize,
    /// The kind that actually trained per run (fallback chain).
    pub detectors_trained: Vec<DetectorKind>,
}

/// Evaluates one (defense, detector) pair over the cohort: fits per the
/// defense (possibly multiple runs), scores **every** patient's test
/// windows, and averages per-patient metrics across runs — the
/// accumulation order is exactly the pre-trait evaluation path's, so for
/// [`LgoSelectiveDefense`] the result is bit-identical to the legacy
/// `TrainingStrategy` code.
///
/// # Errors
///
/// Whatever [`Defense::fit`] returns.
pub fn try_evaluate_defense(
    defense: &dyn Defense,
    kind: DetectorKind,
    ctx: &DefenseContext,
) -> Result<DefenseEvaluation, LgoError> {
    // Stage 5 of the paper's pipeline: training + evaluation of one
    // (defense × detector) grid cell.
    let _stage = lgo_trace::span("stage/train");
    lgo_trace::counter("stage/train", 1);
    let fitted = defense.fit(kind, ctx)?;
    // Score every run over the whole cohort; runs fan out across the pool.
    // Confusion counts are integers, so the matrices are identical at any
    // thread count.
    let confusions: Vec<Vec<ConfusionMatrix>> = lgo_runtime::par_map(&fitted, |run| {
        ctx.cohort
            .iter()
            .map(|d| evaluate_on_patient(run.detector.as_ref(), d))
            .collect()
    });

    // Fold in run order: the metric sums accumulate in exactly the order
    // the serial loop used, keeping the averages bit-identical.
    let mut sums: Vec<PatientMetrics> = vec![PatientMetrics::default(); ctx.cohort.len()];
    let mut total_windows = 0usize;
    let mut detectors_trained = Vec::with_capacity(fitted.len());
    for (run, confusion) in fitted.iter().zip(&confusions) {
        total_windows += run.training_windows;
        detectors_trained.push(run.trained);
        for (s, cm) in sums.iter_mut().zip(confusion) {
            s.recall += cm.recall();
            s.precision += cm.precision();
            s.f1 += cm.f1();
            s.fnr += cm.false_negative_rate();
            s.fpr += cm.false_positive_rate();
        }
    }
    let runs = fitted.len();
    let per_patient = ctx
        .cohort
        .iter()
        .zip(sums)
        .map(|(d, s)| {
            (
                d.patient,
                PatientMetrics {
                    recall: s.recall / runs as f64,
                    precision: s.precision / runs as f64,
                    f1: s.f1 / runs as f64,
                    fnr: s.fnr / runs as f64,
                    fpr: s.fpr / runs as f64,
                },
            )
        })
        .collect();
    Ok(DefenseEvaluation {
        defense: defense.name(),
        detector: kind,
        per_patient,
        mean_training_windows: total_windows as f64 / runs as f64,
        runs,
        detectors_trained,
    })
}

/// One trained level of a defense's detector ladder.
pub struct BankLevel {
    /// The kind requested for this level.
    pub requested: DetectorKind,
    /// The kind that actually trained (fallback chain).
    pub trained: DetectorKind,
    /// The trained detector, shareable with `lgo-serve`'s `DetectorBank`.
    pub detector: Arc<dyn AnomalyDetector>,
    /// Benign training windows used.
    pub training_windows: usize,
}

/// A defense's full detector ladder, ordered like `lgo-serve`'s
/// `DetectorBank`: level 0 is the primary (most faithful, most expensive)
/// MAD-GAN, descending to the cheapest kNN.
pub struct DefenseBank {
    /// The defense's report name.
    pub defense: &'static str,
    /// Ladder levels, primary first.
    pub levels: Vec<BankLevel>,
}

impl DefenseBank {
    /// The shareable detectors in ladder order — feed directly to
    /// `lgo_serve::DetectorBank::new`.
    pub fn ladder(&self) -> Vec<Arc<dyn AnomalyDetector>> {
        self.levels.iter().map(|l| l.detector.clone()).collect()
    }
}

/// Fits a defense's full MAD-GAN → OC-SVM → kNN ladder (first run per
/// kind). Levels fit sequentially so shared-cache statistics stay
/// deterministic run to run.
///
/// # Errors
///
/// Whatever [`Defense::fit`] returns for any level.
pub fn try_fit_bank(defense: &dyn Defense, ctx: &DefenseContext) -> Result<DefenseBank, LgoError> {
    let mut levels = Vec::new();
    for kind in [DetectorKind::MadGan, DetectorKind::OcSvm, DetectorKind::Knn] {
        let mut runs = defense.fit(kind, ctx)?;
        // Defense::fit's documented contract returns at least one run.
        assert!(!runs.is_empty(), "Defense::fit returned no runs");
        let run = runs.swap_remove(0);
        levels.push(BankLevel {
            requested: kind,
            trained: run.trained,
            detector: Arc::from(run.detector),
            training_windows: run.training_windows,
        });
    }
    Ok(DefenseBank {
        defense: defense.name(),
        levels,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selective::try_evaluate_strategy;
    use lgo_detect::MadGanConfig;

    /// The selective-module toy cohort: two tight ("less vulnerable") and
    /// two diffuse patients, malicious windows at a fixed offset.
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
                let benign: Vec<Window> = (0..30).map(|i| mk_window(spread, i)).collect();
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

    fn ctx_over<'a>(
        cohort: &'a [PatientData],
        less: &'a [PatientId],
        more: &'a [PatientId],
        configs: &'a DetectorConfigs,
    ) -> DefenseContext<'a> {
        DefenseContext {
            cohort,
            less_vulnerable: less,
            more_vulnerable: more,
            configs,
            seed: 0xD5ED,
            crafter: None,
        }
    }

    #[test]
    fn selective_defense_matches_legacy_strategy_path_bitwise() {
        let cohort = toy_cohort();
        let ids = PatientId::all();
        let (less, more) = (ids[..2].to_vec(), ids[2..4].to_vec());
        let configs = quick_configs();
        for strategy in [
            TrainingStrategy::LessVulnerable,
            TrainingStrategy::AllPatients,
            TrainingStrategy::RandomSamples {
                k: 2,
                runs: 3,
                seed: 7,
            },
        ] {
            let legacy = try_evaluate_strategy(
                strategy,
                DetectorKind::Knn,
                &cohort,
                &less,
                &more,
                &configs,
            )
            .unwrap();
            let ctx = ctx_over(&cohort, &less, &more, &configs);
            let traited =
                try_evaluate_defense(&LgoSelectiveDefense::new(strategy), DetectorKind::Knn, &ctx)
                    .unwrap();
            assert_eq!(legacy.runs, traited.runs);
            assert_eq!(legacy.detectors_trained, traited.detectors_trained);
            assert_eq!(
                legacy.mean_training_windows.to_bits(),
                traited.mean_training_windows.to_bits()
            );
            for ((pa, ma), (pb, mb)) in legacy.per_patient.iter().zip(&traited.per_patient) {
                assert_eq!(pa, pb);
                assert_eq!(ma.recall.to_bits(), mb.recall.to_bits());
                assert_eq!(ma.precision.to_bits(), mb.precision.to_bits());
                assert_eq!(ma.f1.to_bits(), mb.f1.to_bits());
                assert_eq!(ma.fnr.to_bits(), mb.fnr.to_bits());
                assert_eq!(ma.fpr.to_bits(), mb.fpr.to_bits());
            }
        }
    }

    #[test]
    fn defense_names_and_meta() {
        assert_eq!(
            LgoSelectiveDefense::new(TrainingStrategy::LessVulnerable).name(),
            "lgo-selective"
        );
        assert_eq!(
            LgoSelectiveDefense::new(TrainingStrategy::AllPatients).name(),
            "indiscriminate"
        );
        let roast = RoastDefense::default();
        assert_eq!(roast.name(), "roast");
        assert!(roast.meta().outlier_exposure);
        assert_eq!(roast.meta().roster, "less-vulnerable");
        let retrain = IterativeRetrainingDefense::default();
        assert_eq!(retrain.name(), "iterative-retraining");
        assert_eq!(retrain.meta().roster, "all-patients");
    }

    #[test]
    fn replay_crafter_rotates_deterministically() {
        let pool: Vec<Window> = (0..5).map(|i| vec![vec![i as f64]; 1]).collect();
        let crafter = ReplayCrafter::new(pool.clone(), 2);
        let dummy = |_: &Window| ();
        let _ = dummy;
        // Any detector works; craft ignores it.
        let det = crate::selective::train_detector(
            DetectorKind::Knn,
            &toy_cohort()[0].train_benign,
            &toy_cohort()[0].train_malicious,
            &quick_configs(),
        );
        let r0 = crafter.craft(0, 1, det.as_ref());
        let r1 = crafter.craft(1, 99, det.as_ref());
        let r0_again = crafter.craft(0, 2, det.as_ref());
        assert_eq!(r0, vec![pool[0].clone(), pool[1].clone()]);
        assert_eq!(r1, vec![pool[2].clone(), pool[3].clone()]);
        assert_eq!(r0, r0_again, "replay must ignore the seed");
        assert!(ReplayCrafter::new(Vec::new(), 4)
            .craft(0, 0, det.as_ref())
            .is_empty());
    }

    #[test]
    fn roast_exposure_raises_knn_recall_on_crafted_windows() {
        let cohort = toy_cohort();
        let ids = PatientId::all();
        let (less, more) = (ids[..2].to_vec(), ids[2..4].to_vec());
        let configs = quick_configs();
        let ctx = ctx_over(&cohort, &less, &more, &configs);
        // Adversarial windows that only the more-vulnerable cohort has
        // seen sit closer to the benign cluster than to the recorded
        // malicious one, so the plain kNN votes them benign; exposure must
        // pull the decision boundary toward them.
        let crafted: Vec<Window> = (0..10)
            .map(|i| vec![vec![2.5 + (i % 3) as f64 * 0.01]; 4])
            .collect();
        let mut cohort_oe = cohort.clone();
        for d in cohort_oe.iter_mut().filter(|d| more.contains(&d.patient)) {
            d.train_malicious = crafted.clone();
        }
        let ctx_oe = DefenseContext {
            cohort: &cohort_oe,
            ..ctx
        };
        let selective = LgoSelectiveDefense::new(TrainingStrategy::LessVulnerable);
        let plain = selective.fit(DetectorKind::Knn, &ctx_oe).unwrap().remove(0);
        let roast = RoastDefense::default()
            .fit(DetectorKind::Knn, &ctx_oe)
            .unwrap()
            .remove(0);
        let recall = |det: &dyn AnomalyDetector| {
            crafted.iter().filter(|w| det.is_anomalous(w)).count() as f64 / crafted.len() as f64
        };
        assert!(
            recall(roast.detector.as_ref()) > recall(plain.detector.as_ref()),
            "roast {} <= selective {}",
            recall(roast.detector.as_ref()),
            recall(plain.detector.as_ref())
        );
    }

    #[test]
    fn iterative_retraining_refits_on_evading_replays() {
        let cohort = toy_cohort();
        let ids = PatientId::all();
        let (less, more) = (ids[..2].to_vec(), ids[2..4].to_vec());
        let configs = quick_configs();
        let ctx = ctx_over(&cohort, &less, &more, &configs);
        // Near-benign adversarial windows the indiscriminate kNN misses.
        let sneaky: Vec<Window> = (0..8)
            .map(|i| vec![vec![2.6 + (i % 2) as f64 * 0.01]; 4])
            .collect();
        let replay = ReplayCrafter::new(sneaky.clone(), 8);
        let ctx_crafted = DefenseContext {
            crafter: Some(&replay),
            ..ctx
        };
        let defense = IterativeRetrainingDefense::default();
        let run = defense.fit(DetectorKind::Knn, &ctx_crafted).unwrap().remove(0);
        let caught = sneaky
            .iter()
            .filter(|w| run.detector.is_anomalous(w))
            .count();
        assert_eq!(
            caught,
            sneaky.len(),
            "retraining must catch the exposed evaders"
        );
        assert_eq!(run.trained, DetectorKind::Knn);
    }

    #[test]
    fn outlier_cap_keeps_the_newest_evading_window() {
        let cohort = toy_cohort();
        let ids = PatientId::all();
        let (less, more) = (ids[..2].to_vec(), ids[2..4].to_vec());
        // 1-NN: a window is flagged exactly when its nearest training
        // window is malicious, so a query equal to a refit outlier is
        // flagged iff that outlier reached the refit.
        let configs = DetectorConfigs {
            knn: lgo_detect::KnnConfig {
                k: 1,
                ..lgo_detect::KnnConfig::default()
            },
            ..quick_configs()
        };
        let ctx = ctx_over(&cohort, &less, &more, &configs);
        // Six evaders in one round against a cap of four. The newest one
        // sits between the benign clusters, far from the other evaders.
        let newest = vec![vec![1.0]; 4];
        let mut evaders: Vec<Window> = (0..5)
            .map(|i| vec![vec![3.0 + i as f64 * 0.1]; 4])
            .collect();
        evaders.push(newest.clone());
        let replay = ReplayCrafter::new(evaders, 6);
        let ctx_crafted = DefenseContext {
            crafter: Some(&replay),
            ..ctx
        };
        let defense = IterativeRetrainingDefense::new(IterativeRetrainingConfig {
            rounds: 1,
            per_round: 6,
            outlier_cap: 4,
            ..IterativeRetrainingConfig::default()
        });
        let (benign, malicious) = pool_training_windows(&cohort, &ids[..4]);
        let (round0, _) =
            train_detector_with_fallback(DetectorKind::Knn, &benign, &malicious, &configs).unwrap();
        assert!(
            !round0.is_anomalous(&newest),
            "the newest window must evade round 0"
        );
        let run = defense
            .fit(DetectorKind::Knn, &ctx_crafted)
            .unwrap()
            .remove(0);
        assert!(
            run.detector.is_anomalous(&newest),
            "the cap dropped the newest evading window"
        );
    }

    #[test]
    fn bank_fits_full_ladder_in_serve_order() {
        let cohort = toy_cohort();
        let ids = PatientId::all();
        let (less, more) = (ids[..2].to_vec(), ids[2..4].to_vec());
        let configs = quick_configs();
        let ctx = ctx_over(&cohort, &less, &more, &configs);
        let bank = try_fit_bank(
            &LgoSelectiveDefense::new(TrainingStrategy::AllPatients),
            &ctx,
        )
        .unwrap();
        assert_eq!(bank.defense, "indiscriminate");
        assert_eq!(bank.levels.len(), 3);
        assert_eq!(
            bank.levels.iter().map(|l| l.requested).collect::<Vec<_>>(),
            vec![DetectorKind::MadGan, DetectorKind::OcSvm, DetectorKind::Knn]
        );
        assert_eq!(bank.ladder().len(), 3);
        // The ladder is directly consumable by scoring paths.
        let w = &cohort[0].test_benign[0];
        for level in bank.ladder() {
            let _ = level.score(w);
        }
    }
}
