//! Defense-aware adaptive attackers.
//!
//! Both attackers in this module know the deployed defense: they receive
//! oracle access to the trained anomaly detector through
//! [`AttackContext::detector`] and shape their perturbations to stay under
//! its threshold (Tramèr et al.'s adaptive-attack methodology). They probe
//! the two assumptions the paper's defense rests on:
//!
//! - [`CalibrationDrift`] attacks the *detector threshold*: a slow upward
//!   sensor-calibration drift, escalated stage by stage and rolled back the
//!   moment the detector would flag the window.
//! - [`ClusterPoison`] attacks the *risk-profiling selection*: minimal
//!   boosts designed to slip adversarial windows into the less-vulnerable
//!   cohort's training pool, corrupting the selective training set itself.

use lgo_attack::cgm::{CgmCase, Window, WindowOutcome};
use lgo_attack::AttackResult;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::{case_seed, finish_outcome, keep_better, Attack, AttackContext, ThreatModel};

/// Returns true when the deployed detector (if any) would flag the window.
/// No detector means the adversary operates unopposed.
fn flagged(ctx: &AttackContext<'_>, window: &Window) -> bool {
    ctx.detector.is_some_and(|d| d.is_anomalous(window))
}

/// Slow calibration-drift stealth attacker. Simulates a compromised sensor
/// whose readings ramp up over the most recent half of the window: stage
/// `s` raises the drift ceiling toward the hyperglycemic range, each suffix
/// cell rising proportionally to its recency (oldest suffix cell barely
/// moves, newest reaches the ceiling). Escalation stops the moment the
/// deployed detector would flag the candidate — the attacker keeps the last
/// *unflagged* window, trading attack strength for stealth.
#[derive(Debug, Clone, Copy, Default)]
pub struct CalibrationDrift;

impl Attack for CalibrationDrift {
    fn name(&self) -> &'static str {
        "drift"
    }

    fn threat_model(&self) -> ThreatModel {
        ThreatModel::DefenseAware
    }

    fn run(&self, ctx: &AttackContext<'_>, case: &CgmCase) -> WindowOutcome {
        let cfg = &ctx.zoo.attack;
        let (lo, hi) = cfg.manipulation_range(case.fasting);
        let col = cfg.cgm_column;
        let goal = ctx.goal(case.fasting);
        let benign = ctx.forecaster.predict(&case.window);
        let mut queries = 1;
        if goal.achieved(benign) {
            return finish_outcome(ctx, case, benign, None, queries);
        }
        let len = case.window.len();
        let k = (len / 2).max(1); // drift affects the most recent half
        let steps = ctx.zoo.steps.max(1);
        let mut best: Option<(Window, f64, usize)> = None;
        for s in 1..=steps {
            let ceiling = lo + (hi - lo) * s as f64 / steps as f64;
            let mut cand = case.window.clone();
            for j in 0..k {
                let t = len - k + j;
                // Recency-proportional ramp: the newest cell reaches the
                // stage ceiling, older suffix cells drift less. Cells
                // already above their ramp value stay untouched, so every
                // modified cell lands inside [lo, hi] by construction.
                let ramp = lo + (ceiling - lo) * (j + 1) as f64 / k as f64;
                if cand[t][col] < ramp {
                    cand[t][col] = ramp;
                }
            }
            if flagged(ctx, &cand) {
                break; // the defense would notice: back off, keep last stage
            }
            let out = ctx.forecaster.predict(&cand);
            queries += 1;
            keep_better(&mut best, goal, (cand, out, s));
            if goal.achieved(out) {
                break;
            }
        }
        finish_outcome(ctx, case, benign, best, queries)
    }
}

/// Cluster-poisoning attacker against the selective-training pipeline. It
/// does not try to push predictions over the hyperglycemia threshold at
/// all: it plants a *minimal* boost — the final CGM cell nudged just inside
/// the manipulation range — sized (and halved, using the detector oracle)
/// until the deployed detector accepts the window as benign. Windows that
/// slip through contaminate the less-vulnerable cohort's training pool, so
/// a detector retrained on that pool learns the attacker's signature as
/// normal. Success for this attacker is *placement* (an unflagged
/// manipulated window), not evasion.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClusterPoison;

impl Attack for ClusterPoison {
    fn name(&self) -> &'static str {
        "poison"
    }

    fn threat_model(&self) -> ThreatModel {
        ThreatModel::DefenseAware
    }

    fn run(&self, ctx: &AttackContext<'_>, case: &CgmCase) -> WindowOutcome {
        let cfg = &ctx.zoo.attack;
        let (lo, hi) = cfg.manipulation_range(case.fasting);
        let col = cfg.cgm_column;
        let goal = ctx.goal(case.fasting);
        let benign = ctx.forecaster.predict(&case.window);
        let mut queries = 1;
        let mut rng = StdRng::seed_from_u64(case_seed(ctx, case));
        // Subtle by design: the boost lands just above the range floor,
        // far below what an evasion attacker would use.
        let cap = ctx.zoo.eps.min(20.0);
        let mut u = if cap > 0.0 {
            rng.random_range(0.0..cap)
        } else {
            0.0
        };
        for _ in 0..=4 {
            let mut cand = case.window.clone();
            cand[case.window.len() - 1][col] = (lo + u).clamp(lo, hi);
            if !flagged(ctx, &cand) {
                let out = ctx.forecaster.predict(&cand);
                queries += 1;
                // Keep the poisoned window even when it scores worse than
                // benign under the evasion goal — placement is the point.
                return WindowOutcome {
                    index: case.index,
                    fasting: case.fasting,
                    benign_prediction: benign,
                    origin: cfg.origin(benign, case.fasting),
                    result: AttackResult {
                        achieved: goal.achieved(out),
                        best_input: cand,
                        best_output: out,
                        queries,
                        steps: 1,
                        first_hit: None,
                    },
                };
            }
            u *= 0.5; // detector noticed: halve the boost and retry
        }
        finish_outcome(ctx, case, benign, None, queries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{quick_cases, quick_forecaster};
    use crate::ZooConfig;
    use lgo_attack::cgm::CgmManipulationConstraint;
    use lgo_attack::Constraint;
    use lgo_detect::AnomalyDetector;

    /// Flags every window whose CGM channel exceeds a fixed ceiling.
    struct CeilingDetector(f64);

    impl AnomalyDetector for CeilingDetector {
        fn name(&self) -> &'static str {
            "ceiling"
        }

        fn score(&self, window: &Window) -> f64 {
            let max = window
                .iter()
                .map(|r| r[0])
                .fold(f64::NEG_INFINITY, f64::max);
            max - self.0
        }
    }

    #[test]
    fn drift_backs_off_under_a_strict_detector() {
        let (forecaster, series) = quick_forecaster();
        let cases = quick_cases(&series);
        let zoo = ZooConfig::default();
        // A detector that flags every candidate: the drift attacker must
        // leave every window benign.
        let strict = CeilingDetector(0.0);
        let ctx = AttackContext {
            forecaster: &forecaster,
            zoo: &zoo,
            seed: 1,
            detector: Some(&strict),
        };
        for case in &cases {
            let o = CalibrationDrift.run(&ctx, case);
            assert_eq!(o.result.steps, 0, "drift escalated past a strict detector");
            // Non-Hyper origins: the very first escalation stage is flagged,
            // so the attacker backs off before evaluating any candidate —
            // only the benign query is spent.
            if o.origin != lgo_attack::cgm::OriginState::Hyper {
                assert_eq!(o.result.queries, 1, "drift probed past a flagged stage");
            }
        }
        // Without a detector the same attacker escalates freely: every
        // non-Hyper case evaluates its drift stages.
        let open = AttackContext {
            forecaster: &forecaster,
            zoo: &zoo,
            seed: 1,
            detector: None,
        };
        let explored = cases
            .iter()
            .filter(|c| CalibrationDrift.run(&open, c).result.queries > 1)
            .count();
        assert!(explored > 0, "unopposed drift never evaluated a candidate");
    }

    #[test]
    fn poison_windows_are_constraint_safe_and_survive_lenient_detectors() {
        let (forecaster, series) = quick_forecaster();
        let cases = quick_cases(&series);
        let zoo = ZooConfig::default();
        let lenient = CeilingDetector(1000.0); // flags nothing
        let ctx = AttackContext {
            forecaster: &forecaster,
            zoo: &zoo,
            seed: 9,
            detector: Some(&lenient),
        };
        for case in &cases {
            let o = ClusterPoison.run(&ctx, case);
            assert_eq!(o.result.steps, 1, "lenient detector should accept poison");
            let constraint = CgmManipulationConstraint::from_config(&zoo.attack, case.fasting);
            assert!(constraint.is_satisfied(&case.window, &o.result.best_input));
            // The planted boost is deliberately small: the final CGM cell
            // sits just above the manipulation-range floor.
            let (lo, _) = zoo.attack.manipulation_range(case.fasting);
            let last = o.result.best_input.last().unwrap()[zoo.attack.cgm_column];
            assert!((lo..=lo + 20.0).contains(&last));
        }
        // A detector that flags the whole manipulation range starves the
        // halving loop (lo + u stays >= lo) and the attacker gives up.
        let strict = CeilingDetector(0.0);
        let blocked = AttackContext {
            forecaster: &forecaster,
            zoo: &zoo,
            seed: 9,
            detector: Some(&strict),
        };
        for case in &cases {
            let o = ClusterPoison.run(&blocked, case);
            assert_eq!(o.result.steps, 0, "strict detector should block poison");
        }
    }
}
