//! Black-box attacker: SPSA (simultaneous perturbation stochastic
//! approximation, Spall 1992; Uesato et al. 2018 in the adversarial
//! setting).
//!
//! The adversary only queries predictions — no gradients. Each iteration
//! probes the model at `δ ± c·Δ` for one Rademacher direction `Δ ∈ {-1,+1}ⁿ`
//! and ascends the two-point gradient estimate. All randomness derives from
//! [`case_seed`](crate::case_seed), so campaigns stay deterministic at any
//! thread count.

use lgo_attack::cgm::{CgmCase, Window, WindowOutcome};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::{
    apply_boost, case_seed, finish_outcome, keep_better, Attack, AttackContext, ThreatModel,
};

/// SPSA two-point gradient-estimation attacker (query access only).
#[derive(Debug, Clone, Copy, Default)]
pub struct Spsa;

impl Attack for Spsa {
    fn name(&self) -> &'static str {
        "spsa"
    }

    fn threat_model(&self) -> ThreatModel {
        ThreatModel::BlackBox
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
        let eps = ctx.zoo.eps;
        let c = ctx.zoo.spsa_probe;
        let alpha = eps / ctx.zoo.steps.max(1) as f64;
        let mut rng = StdRng::seed_from_u64(case_seed(ctx, case));
        let mut delta = vec![0.0; case.window.len()];
        let mut best: Option<(Window, f64, usize)> = None;
        for step in 1..=ctx.zoo.steps {
            // One Rademacher direction per iteration: all coordinates probed
            // simultaneously, two queries regardless of dimension.
            let dir: Vec<f64> = (0..delta.len())
                .map(|_| if rng.random_range(0.0..1.0) < 0.5 { -1.0 } else { 1.0 })
                .collect();
            let plus: Vec<f64> = delta
                .iter()
                .zip(&dir)
                .map(|(&d, &s)| (d + c * s).clamp(0.0, eps))
                .collect();
            let minus: Vec<f64> = delta
                .iter()
                .zip(&dir)
                .map(|(&d, &s)| (d - c * s).clamp(0.0, eps))
                .collect();
            let yp = ctx
                .forecaster
                .predict(&apply_boost(&case.window, &plus, col, lo, hi));
            let ym = ctx
                .forecaster
                .predict(&apply_boost(&case.window, &minus, col, lo, hi));
            queries += 2;
            let ghat = (yp - ym) / (2.0 * c);
            // lint: allow(L4): an exactly-zero two-point estimate carries no direction; any nonzero magnitude drives a signed step
            if ghat != 0.0 {
                for (d, &s) in delta.iter_mut().zip(&dir) {
                    // Per-coordinate estimate is ghat * s (s = ±1 inverts).
                    let dir_t = if ghat * s > 0.0 { 1.0 } else { -1.0 };
                    *d = (*d + alpha * dir_t).clamp(0.0, eps);
                }
            }
            let cand = apply_boost(&case.window, &delta, col, lo, hi);
            let out = ctx.forecaster.predict(&cand);
            queries += 1;
            keep_better(&mut best, goal, (cand, out, step));
            if goal.achieved(out) {
                break;
            }
        }
        finish_outcome(ctx, case, benign, best, queries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{quick_cases, quick_forecaster};
    use crate::ZooConfig;
    use lgo_attack::cgm::CgmManipulationConstraint;
    use lgo_attack::Constraint;

    #[test]
    fn spsa_is_constraint_safe_and_seed_deterministic() {
        let (forecaster, series) = quick_forecaster();
        let cases = quick_cases(&series);
        let zoo = ZooConfig::default();
        let run = |seed: u64| -> Vec<(f64, usize)> {
            let ctx = AttackContext {
                forecaster: &forecaster,
                zoo: &zoo,
                seed,
                detector: None,
            };
            cases
                .iter()
                .map(|c| {
                    let o = Spsa.run(&ctx, c);
                    let constraint = CgmManipulationConstraint::from_config(&zoo.attack, c.fasting);
                    assert!(constraint.is_satisfied(&c.window, &o.result.best_input));
                    assert!(o.result.best_output >= o.benign_prediction || o.result.steps == 0);
                    (o.result.best_output, o.result.queries)
                })
                .collect()
        };
        assert_eq!(run(3), run(3), "same seed must reproduce exactly");
    }
}
