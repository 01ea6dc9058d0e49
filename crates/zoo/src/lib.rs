//! # lgo-zoo
//!
//! The **attack zoo**: a pluggable subsystem of evasion attackers against
//! the blood-glucose forecaster, all behind one [`Attack`] trait. Where
//! `lgo-attack` reproduces the paper's single URET-style transformation-
//! graph attacker, this crate stress-tests the defense against the wider
//! adversary space the evasion literature presumes (Biggio & Roli's
//! test-time evasion framing; Li & Vorobeychik's adaptive retraining
//! adversaries):
//!
//! - **White-box gradient attacks** ([`gradient`]) — one signed-gradient
//!   attacker, [`gradient::Pgd`], registered as its FGSM (one step), BIM
//!   (no random restarts) and PGD (random restarts) presets, plus a
//!   CW-style margin attack, all climbing the exact input gradients
//!   exposed by `lgo_forecast::GlucoseForecaster::input_gradients` (BPTT
//!   through the BiLSTM, chain-ruled back to raw mg/dL units).
//! - **Black-box attack** ([`blackbox`]) — SPSA two-point gradient
//!   estimation; queries only, no gradients.
//! - **Defense-aware adaptive attacks** ([`adaptive`]) — a slow
//!   calibration-drift stealth attacker that stays under a deployed
//!   detector's threshold, and a cluster-poisoning attacker that targets
//!   the *less-vulnerable* cohort to corrupt the selective training set (a
//!   direct attack on the paper's core assumption).
//! - **The paper's baseline** ([`uret`]) — the greedy URET explorer from
//!   `lgo-attack`, adapted to the trait so every attacker is comparable in
//!   one report.
//!
//! All attackers operate under the paper's threat model: only the CGM
//! channel may be manipulated and every modified cell must lie inside the
//! physiological hyperglycemic range (see `lgo_attack::cgm`). Gradient and
//! random perturbations are parameterized as a per-cell boost `δ ∈ [0, ε]`
//! applied as `clamp(x + δ, lo, hi)`, so every crafted window satisfies
//! [`CgmManipulationConstraint`](lgo_attack::cgm::CgmManipulationConstraint)
//! by construction.
//!
//! [`campaign`] fans attackers over window sets with `lgo_runtime::par_map`
//! (per-case seeds via [`lgo_runtime::split_seed`], so campaigns are
//! byte-identical at any `LGO_THREADS`), and [`experiment`] packages the
//! `exp_attack_zoo` study: every attacker versus the LGO-selective and
//! no-defense detector configurations, with a canonical-JSON report.
//!
//! # Examples
//!
//! ```
//! use lgo_zoo::{Attack, AttackContext, ZooConfig};
//! use lgo_zoo::gradient::Pgd;
//! use lgo_forecast::{ForecastConfig, GlucoseForecaster};
//! use lgo_glucosim::{profile, PatientId, Simulator, Subset};
//!
//! let id = PatientId::new(Subset::A, 2);
//! let series = Simulator::new(profile(id)).run_days(2);
//! let fc = ForecastConfig { hidden: 6, epochs: 1, ..ForecastConfig::default() };
//! let forecaster = GlucoseForecaster::train_personalized(&series, &fc);
//! let zoo = ZooConfig::default();
//! let cases = lgo_core::profile::attack_cases(&series, 12, 48);
//! let ctx = AttackContext { forecaster: &forecaster, zoo: &zoo, seed: 1, detector: None };
//! let outcome = Pgd::fgsm().run(&ctx, &cases[0]);
//! assert!(outcome.result.queries >= 1);
//! ```

use lgo_attack::cgm::{CgmAttackConfig, CgmCase, Window, WindowOutcome};
use lgo_attack::{AttackResult, Goal};
use lgo_core::error::LgoError;
use lgo_detect::AnomalyDetector;
use lgo_forecast::{Evaluation, GlucoseForecaster};

pub mod adaptive;
pub mod blackbox;
pub mod campaign;
pub mod defense;
pub mod experiment;
pub mod gradient;
pub mod uret;

pub use campaign::{run_attack_campaign, try_profile_patient_with};
pub use defense::{
    run_defense_bench, try_run_defense_bench, DefenseBenchConfig, DefenseReport, ZooCrafter,
};
pub use experiment::{run_attack_zoo, try_run_attack_zoo, ZooExperimentConfig, ZooReport};

/// The adversary's knowledge/access class, for the threat-model table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ThreatModel {
    /// Full access to model parameters and gradients.
    WhiteBox,
    /// Query access to predictions only.
    BlackBox,
    /// Query access plus knowledge of the deployed defense (detector
    /// decisions, cohort clustering).
    DefenseAware,
}

impl ThreatModel {
    /// Display name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            ThreatModel::WhiteBox => "white-box",
            ThreatModel::BlackBox => "black-box",
            ThreatModel::DefenseAware => "defense-aware",
        }
    }
}

/// Shared attacker knobs. `eps` and `steps` are the two externally tunable
/// parameters (`LGO_ZOO_EPS` / `LGO_ZOO_STEPS` in the bench harness); the
/// rest pin the per-attacker details.
#[derive(Debug, Clone)]
pub struct ZooConfig {
    /// Domain constraints and goal thresholds (shared with `lgo-attack`).
    pub attack: CgmAttackConfig,
    /// ℓ∞ perturbation budget per CGM cell, in mg/dL: the boost `δ` every
    /// gradient/random attacker may add before the feasibility clamp.
    pub eps: f64,
    /// Iteration budget for the iterative attackers (BIM/PGD/CW/SPSA) and
    /// the escalation-stage count of the calibration-drift attacker.
    pub steps: usize,
    /// Number of PGD random restarts.
    pub restarts: usize,
    /// SPSA probe magnitude `c` in mg/dL.
    pub spsa_probe: f64,
    /// CW confidence margin `κ` in mg/dL: the attack aims for
    /// `threshold + κ`, then shrinks the perturbation while success holds.
    pub kappa: f64,
    /// Campaign base seed; every per-window RNG derives from it via
    /// [`lgo_runtime::split_seed`].
    pub seed: u64,
}

impl Default for ZooConfig {
    fn default() -> Self {
        Self {
            attack: CgmAttackConfig::default(),
            eps: 75.0,
            steps: 8,
            restarts: 3,
            spsa_probe: 10.0,
            kappa: 5.0,
            seed: 0x5EED,
        }
    }
}

impl ZooConfig {
    /// Checks the perturbation budget at every fallible zoo entry point:
    /// a negative or NaN `eps` would panic inside `f64::clamp` on a worker
    /// thread, and an infinite one turns zero-gradient steps into NaN
    /// boosts that never reach a fixed point.
    ///
    /// # Errors
    ///
    /// Returns [`LgoError::InvalidConfig`] unless `eps` is finite and ≥ 0.
    pub(crate) fn validate(&self) -> Result<(), LgoError> {
        if self.eps.is_finite() && self.eps >= 0.0 {
            Ok(())
        } else {
            Err(LgoError::InvalidConfig {
                field: "eps",
                value: self.eps,
                expected: "finite and >= 0",
            })
        }
    }
}

/// Everything an attacker sees when it attacks one window.
pub struct AttackContext<'a> {
    /// The victim model (white-box attackers also read its gradients).
    pub forecaster: &'a GlucoseForecaster,
    /// Shared attacker knobs.
    pub zoo: &'a ZooConfig,
    /// Campaign-level seed; per-window randomness must derive from it and
    /// the case index via [`case_seed`] so parallel campaigns stay
    /// deterministic.
    pub seed: u64,
    /// The deployed anomaly detector, when the threat model grants the
    /// adversary oracle access to defense decisions (defense-aware
    /// attackers only; `None` for the rest).
    pub detector: Option<&'a dyn AnomalyDetector>,
}

impl AttackContext<'_> {
    /// The goal for a window: push the prediction above the applicable
    /// hyperglycemia threshold.
    pub fn goal(&self, fasting: bool) -> Goal {
        Goal::PushAbove(self.zoo.attack.threshold(fasting))
    }
}

/// One evasion attacker. Implementations must be deterministic given the
/// context seed (all randomness via [`case_seed`]-derived RNGs) and `Sync`
/// so campaigns can fan windows out across the lgo-runtime pool.
pub trait Attack: Sync {
    /// Stable attacker identifier used in reports and registries.
    fn name(&self) -> &'static str;

    /// The adversary class this attacker models.
    fn threat_model(&self) -> ThreatModel;

    /// Attacks one window, returning the same per-window record the
    /// URET campaign runner produces so all attackers share reporting.
    fn run(&self, ctx: &AttackContext<'_>, case: &CgmCase) -> WindowOutcome;
}

/// The deterministic per-window seed: campaign seed split by case index.
pub fn case_seed(ctx: &AttackContext<'_>, case: &CgmCase) -> u64 {
    lgo_runtime::split_seed(ctx.seed, case.index as u64)
}

/// Applies a CGM-channel boost vector: cells with `delta > 0` become
/// `clamp(x + delta, lo, hi)`, cells with `delta <= 0` stay untouched.
/// Every result satisfies the paper's manipulation constraint by
/// construction (modified cells inside `[lo, hi]`, other channels intact).
pub fn apply_boost(window: &Window, delta: &[f64], column: usize, lo: f64, hi: f64) -> Window {
    let mut out = window.clone();
    for (row, &d) in out.iter_mut().zip(delta) {
        if d > 0.0 {
            row[column] = (row[column] + d).clamp(lo, hi);
        }
    }
    out
}

/// The CGM-column slice of an evaluated window's raw-unit input gradient:
/// one value per window row, `∂prediction/∂cgm[t]` in (mg/dL out)/(mg/dL
/// in), backpropagated through the forward pass `eval` already ran.
pub fn cgm_gradient(eval: &Evaluation<'_>, column: usize) -> Vec<f64> {
    eval.input_gradients()
        .iter()
        .map(|row| row[column])
        .collect()
}

/// Packages an attack trajectory into the campaign's per-window record:
/// classifies the benign origin and keeps whichever of benign/adversarial
/// scored better under the goal.
pub fn finish_outcome(
    ctx: &AttackContext<'_>,
    case: &CgmCase,
    benign: f64,
    best: Option<(Window, f64, usize)>,
    queries: usize,
) -> WindowOutcome {
    let cfg = &ctx.zoo.attack;
    let goal = ctx.goal(case.fasting);
    let origin = cfg.origin(benign, case.fasting);
    let result = match best {
        Some((input, output, steps)) if goal.score(output) > goal.score(benign) => AttackResult {
            achieved: goal.achieved(output),
            best_input: input,
            best_output: output,
            queries,
            steps,
            first_hit: None,
        },
        _ => AttackResult {
            achieved: goal.achieved(benign),
            best_input: case.window.clone(),
            best_output: benign,
            queries,
            steps: 0,
            first_hit: None,
        },
    };
    WindowOutcome {
        index: case.index,
        fasting: case.fasting,
        benign_prediction: benign,
        origin,
        result,
    }
}

/// Keeps `found = (window, output, step)` as the search's best when nothing
/// is kept yet or it scores strictly higher under `goal`.
pub(crate) fn keep_better(
    best: &mut Option<(Window, f64, usize)>,
    goal: Goal,
    found: (Window, f64, usize),
) {
    if best
        .as_ref()
        .is_none_or(|&(_, b, _)| goal.score(found.1) > goal.score(b))
    {
        *best = Some(found);
    }
}

/// Every attacker in the zoo, in report order: the URET baseline, the four
/// white-box gradient attacks (the FGSM, BIM and PGD presets of
/// [`gradient::Pgd`], then CW), the black-box SPSA attack and the two
/// defense-aware adaptive attacks.
pub fn standard_zoo() -> Vec<Box<dyn Attack>> {
    vec![
        Box::new(uret::UretAttack::minimal(6)),
        Box::new(gradient::Pgd::fgsm()),
        Box::new(gradient::Pgd::bim()),
        Box::new(gradient::Pgd::standard()),
        Box::new(gradient::CwMargin),
        Box::new(blackbox::Spsa),
        Box::new(adaptive::CalibrationDrift),
        Box::new(adaptive::ClusterPoison),
    ]
}

/// Looks an attacker up by its [`Attack::name`] (e.g. `"pgd"` for the
/// defense panels' crafter). Returns `None` for unknown names.
pub fn attack_by_name(name: &str) -> Option<Box<dyn Attack>> {
    standard_zoo().into_iter().find(|a| a.name() == name)
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared fixtures for the per-module test suites: one tiny personalized
    //! forecaster plus a handful of attack cases, kept deliberately small so
    //! every attacker's tests stay fast.
    use lgo_attack::cgm::CgmCase;
    use lgo_forecast::{ForecastConfig, GlucoseForecaster};
    use lgo_glucosim::{profile, PatientId, Simulator, Subset};
    use lgo_series::MultiSeries;

    pub fn quick_forecaster() -> (GlucoseForecaster, MultiSeries) {
        let series = Simulator::new(profile(PatientId::new(Subset::A, 2))).run_days(2);
        let cfg = ForecastConfig {
            hidden: 6,
            epochs: 1,
            ..ForecastConfig::default()
        };
        let forecaster = GlucoseForecaster::train_personalized(&series, &cfg);
        (forecaster, series)
    }

    pub fn quick_cases(series: &MultiSeries) -> Vec<CgmCase> {
        let cases = lgo_core::profile::attack_cases(series, 12, 96);
        assert!(!cases.is_empty(), "fixture produced no attack cases");
        cases
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_boost_respects_clamp_and_leaves_untouched_cells() {
        let w: Window = vec![vec![100.0, 1.0], vec![200.0, 2.0]];
        let out = apply_boost(&w, &[50.0, 0.0], 0, 125.0, 499.0);
        // 100 + 50 = 150, inside [125, 499].
        assert_eq!(out[0][0], 150.0);
        // delta == 0 leaves the cell (and its below-floor value) untouched.
        assert_eq!(out[1][0], 200.0);
        // Other channels never change.
        assert_eq!(out[0][1], 1.0);
        assert_eq!(out[1][1], 2.0);
        // Clamp floor engages for small boosts from below the range.
        let low = apply_boost(&w, &[1.0, 0.0], 0, 125.0, 499.0);
        assert_eq!(low[0][0], 125.0);
        // Clamp ceiling engages near the sensor maximum.
        let high = apply_boost(&w, &[1000.0, 0.0], 0, 125.0, 499.0);
        assert_eq!(high[0][0], 499.0);
    }

    #[test]
    fn registry_covers_all_threat_models_with_unique_names() {
        let zoo = standard_zoo();
        assert!(zoo.len() >= 6, "paper comparison needs at least 6 attackers");
        let names: std::collections::BTreeSet<&str> =
            zoo.iter().map(|a| a.name()).collect();
        assert_eq!(names.len(), zoo.len(), "attacker names must be unique");
        for tm in [
            ThreatModel::WhiteBox,
            ThreatModel::BlackBox,
            ThreatModel::DefenseAware,
        ] {
            assert!(
                zoo.iter().any(|a| a.threat_model() == tm),
                "no attacker for {}",
                tm.name()
            );
        }
        assert!(attack_by_name("pgd").is_some());
        assert!(attack_by_name("no-such-attack").is_none());
    }
}
