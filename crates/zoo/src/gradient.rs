//! White-box gradient attackers: signed-gradient ascent ([`Pgd`], whose
//! one-step and single-start presets are FGSM and BIM) and a CW-style
//! margin attack.
//!
//! Both climb the forecaster's exact input gradients
//! ([`GlucoseForecaster::input_gradients`](lgo_forecast::GlucoseForecaster::input_gradients)
//! — BPTT through the BiLSTM, chain-ruled back to raw mg/dL units) in the
//! boost parameterization `δ ∈ [0, ε]`, `v = clamp(x + δ, lo, hi)`: every
//! candidate window satisfies the paper's CGM manipulation constraint by
//! construction. Negative gradient components are ignored — pulling a CGM
//! cell *down* can never enter the hyperglycemic manipulation range.
//!
//! Each evaluated window runs the forecaster forward once: a candidate is
//! forecast with
//! [`GlucoseForecaster::evaluate`](lgo_forecast::GlucoseForecaster::evaluate),
//! and the next step's gradient is backpropagated through that kept pass
//! ([`cgm_gradient`]). The first step climbs from the benign window's
//! evaluation, or from a random restart's start. `queries` still counts
//! the gradient as one attacker-visible model evaluation.

use lgo_attack::cgm::{CgmCase, Window, WindowOutcome};
use lgo_forecast::Evaluation;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::{
    apply_boost, case_seed, cgm_gradient, finish_outcome, keep_better, Attack, AttackContext,
    ThreatModel,
};

/// The ±1/0 step direction of a gradient component (unlike `f64::signum`,
/// a zero gradient moves nothing).
fn direction(g: f64) -> f64 {
    if g > 0.0 {
        1.0
    } else if g < 0.0 {
        -1.0
    } else {
        0.0
    }
}

/// Iterative signed-gradient ascent from a starting boost vector — one
/// restart of [`Pgd`]. Each iteration takes the gradient at the current
/// adversarial window, takes an `ε/steps` signed step per cell (projected
/// back into `[0, ε]`) and evaluates the new window, whose pass the next
/// iteration's gradient reuses; stops at the goal, a fixed point or the
/// `steps` budget. `benign` is the evaluation of the unboosted window,
/// which an all-zero start climbs from. Returns the best `(window, output,
/// steps)` seen, `None` when nothing improved on the benign window.
fn signed_ascent(
    ctx: &AttackContext<'_>,
    case: &CgmCase,
    benign: &Evaluation<'_>,
    mut delta: Vec<f64>,
    steps: usize,
    queries: &mut usize,
) -> Option<(Window, f64, usize)> {
    let cfg = &ctx.zoo.attack;
    let (lo, hi) = cfg.manipulation_range(case.fasting);
    let col = cfg.cgm_column;
    let goal = ctx.goal(case.fasting);
    let alpha = ctx.zoo.eps / steps.max(1) as f64;
    let mut best: Option<(Window, f64, usize)> = None;
    // The evaluation of the window the next step climbs from; `None`
    // while that is the benign window (`apply_boost` with a zero boost
    // returns it unchanged).
    let mut current: Option<Evaluation<'_>> = None;

    // Evaluate a non-trivial starting point (PGD's random init).
    if delta.iter().any(|&d| d > 0.0) {
        let cand = apply_boost(&case.window, &delta, col, lo, hi);
        let eval = ctx.forecaster.evaluate(&cand);
        let out = eval.prediction();
        *queries += 1;
        best = Some((cand, out, 1));
        if goal.achieved(out) {
            return best;
        }
        current = Some(eval);
    }

    for step in 1..=steps {
        let g = cgm_gradient(current.as_ref().unwrap_or(benign), col);
        *queries += 1; // the gradient counts as one model evaluation
        let mut moved = false;
        for (d, &gt) in delta.iter_mut().zip(&g) {
            let nd = (*d + alpha * direction(gt)).clamp(0.0, ctx.zoo.eps);
            if nd != *d {
                *d = nd;
                moved = true;
            }
        }
        if !moved {
            break; // fixed point: zero gradient or saturated budget
        }
        let cand = apply_boost(&case.window, &delta, col, lo, hi);
        let eval = ctx.forecaster.evaluate(&cand);
        let out = eval.prediction();
        *queries += 1;
        keep_better(&mut best, goal, (cand, out, step));
        if goal.achieved(out) {
            break;
        }
        current = Some(eval);
    }
    best
}

/// Projected Gradient Descent (Madry et al.): signed-gradient ascent from
/// the benign window, then from random starting points inside the budget;
/// the restart RNGs derive from [`lgo_runtime::split_seed`] so campaigns
/// stay deterministic at any thread count.
///
/// FGSM and BIM are presets of the same loop, not separate attackers:
/// restart 0 starts from `δ = 0` and draws nothing from its RNG, so a
/// single-start run is BIM, and one BIM step of size `ε` lands exactly on
/// FGSM's `δ = ε · 1[∂f/∂x > 0]`.
#[derive(Debug, Clone, Copy)]
pub struct Pgd {
    name: &'static str,
    /// Ascent steps per restart; `None` takes [`ZooConfig::steps`](crate::ZooConfig::steps).
    steps: Option<usize>,
    /// Starting points; `None` takes [`ZooConfig::restarts`](crate::ZooConfig::restarts).
    restarts: Option<usize>,
}

impl Pgd {
    /// Fast Gradient Sign Method (Goodfellow et al.): one full-budget step
    /// from the benign window.
    pub fn fgsm() -> Self {
        Self {
            name: "fgsm",
            steps: Some(1),
            restarts: Some(1),
        }
    }

    /// Basic Iterative Method (Kurakin et al.): `steps` steps of size
    /// `ε/steps` from the benign window, no random restarts.
    pub fn bim() -> Self {
        Self {
            name: "bim",
            steps: None,
            restarts: Some(1),
        }
    }

    /// PGD proper: BIM plus `restarts - 1` random starts.
    pub fn standard() -> Self {
        Self {
            name: "pgd",
            steps: None,
            restarts: None,
        }
    }
}

impl Attack for Pgd {
    fn name(&self) -> &'static str {
        self.name
    }

    fn threat_model(&self) -> ThreatModel {
        ThreatModel::WhiteBox
    }

    fn run(&self, ctx: &AttackContext<'_>, case: &CgmCase) -> WindowOutcome {
        let benign_eval = ctx.forecaster.evaluate(&case.window);
        let benign = benign_eval.prediction();
        let mut queries = 1;
        let goal = ctx.goal(case.fasting);
        if goal.achieved(benign) {
            return finish_outcome(ctx, case, benign, None, queries);
        }
        let n = case.window.len();
        let base = case_seed(ctx, case);
        let steps = self.steps.unwrap_or(ctx.zoo.steps);
        let restarts = self.restarts.unwrap_or(ctx.zoo.restarts);
        let mut best: Option<(Window, f64, usize)> = None;
        for restart in 0..restarts.max(1) {
            let mut rng = StdRng::seed_from_u64(lgo_runtime::split_seed(base, restart as u64));
            let init: Vec<f64> = (0..n)
                .map(|_| {
                    if restart == 0 || ctx.zoo.eps <= 0.0 {
                        0.0 // restart 0 starts from the benign window
                    } else {
                        rng.random_range(0.0..ctx.zoo.eps)
                    }
                })
                .collect();
            if let Some(found) = signed_ascent(ctx, case, &benign_eval, init, steps, &mut queries) {
                keep_better(&mut best, goal, found);
                if best.as_ref().is_some_and(|&(_, b, _)| goal.achieved(b)) {
                    break; // early exit: a successful restart ends the search
                }
            }
        }
        finish_outcome(ctx, case, benign, best, queries)
    }
}

/// Carlini–Wagner-style margin attack: continuous (magnitude-weighted, not
/// sign) gradient ascent toward `threshold + κ`, followed by a shrink phase
/// that halves the boost while the attack keeps succeeding — the returned
/// adversarial window is a *low-distortion* success, not a saturated one.
#[derive(Debug, Clone, Copy, Default)]
pub struct CwMargin;

impl Attack for CwMargin {
    fn name(&self) -> &'static str {
        "cw"
    }

    fn threat_model(&self) -> ThreatModel {
        ThreatModel::WhiteBox
    }

    fn run(&self, ctx: &AttackContext<'_>, case: &CgmCase) -> WindowOutcome {
        let cfg = &ctx.zoo.attack;
        let (lo, hi) = cfg.manipulation_range(case.fasting);
        let col = cfg.cgm_column;
        let goal = ctx.goal(case.fasting);
        let threshold = cfg.threshold(case.fasting);
        let benign_eval = ctx.forecaster.evaluate(&case.window);
        let benign = benign_eval.prediction();
        let mut queries = 1;
        if goal.achieved(benign) {
            return finish_outcome(ctx, case, benign, None, queries);
        }
        let lr = ctx.zoo.eps / ctx.zoo.steps.max(1) as f64;
        let mut delta = vec![0.0; case.window.len()];
        let mut best: Option<(Window, f64, usize)> = None;
        // As in `signed_ascent`: the last evaluated candidate, `None` while
        // the step climbs from the benign window.
        let mut current: Option<Evaluation<'_>> = None;
        for step in 1..=ctx.zoo.steps {
            let g = cgm_gradient(current.as_ref().unwrap_or(&benign_eval), col);
            queries += 1;
            let m = g.iter().fold(0.0_f64, |a, &v| a.max(v.abs()));
            // lint: allow(L4): exactly-zero gradient norm means a flat model; normalizing by it would divide by zero
            if m == 0.0 {
                break;
            }
            for (d, &gt) in delta.iter_mut().zip(&g) {
                *d = (*d + lr * gt / m).clamp(0.0, ctx.zoo.eps);
            }
            let cand = apply_boost(&case.window, &delta, col, lo, hi);
            let eval = ctx.forecaster.evaluate(&cand);
            let out = eval.prediction();
            queries += 1;
            keep_better(&mut best, goal, (cand, out, step));
            if out > threshold + ctx.zoo.kappa {
                // Margin reached with confidence κ: shrink the boost while
                // the attack still clears the bare threshold.
                for _ in 0..4 {
                    let half: Vec<f64> = delta.iter().map(|d| d * 0.5).collect();
                    let cand = apply_boost(&case.window, &half, col, lo, hi);
                    let out = ctx.forecaster.predict(&cand);
                    queries += 1;
                    if out > threshold {
                        delta = half;
                        best = Some((cand, out, step));
                    } else {
                        break;
                    }
                }
                break;
            }
            current = Some(eval);
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

    fn all_constrained(outcomes: &[(CgmCase, WindowOutcome)], cfg: &ZooConfig) {
        for (case, o) in outcomes {
            let c = CgmManipulationConstraint::from_config(&cfg.attack, case.fasting);
            assert!(
                c.is_satisfied(&case.window, &o.result.best_input),
                "adversarial window violates the manipulation constraint"
            );
        }
    }

    #[test]
    fn gradient_attackers_respect_constraints_and_sometimes_succeed() {
        let (forecaster, series) = quick_forecaster();
        let cases = quick_cases(&series);
        let zoo = ZooConfig::default();
        let ctx = AttackContext {
            forecaster: &forecaster,
            zoo: &zoo,
            seed: 7,
            detector: None,
        };
        let attackers: [&dyn Attack; 4] = [&Pgd::fgsm(), &Pgd::bim(), &Pgd::standard(), &CwMargin];
        for a in attackers {
            let outcomes: Vec<(CgmCase, WindowOutcome)> = cases
                .iter()
                .map(|c| (c.clone(), a.run(&ctx, c)))
                .collect();
            all_constrained(&outcomes, &zoo);
            for (_, o) in &outcomes {
                assert!(o.result.queries >= 1, "{}: no queries counted", a.name());
                assert!(
                    o.result.best_output.is_finite(),
                    "{}: non-finite output",
                    a.name()
                );
                // The best output can never be worse than benign.
                assert!(
                    o.result.best_output >= o.benign_prediction
                        || o.result.steps == 0,
                    "{}: kept a worse-than-benign window",
                    a.name()
                );
            }
        }
    }

    #[test]
    fn pgd_is_deterministic_per_seed_and_sensitive_to_it() {
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
                    let o = Pgd::standard().run(&ctx, c);
                    (o.result.best_output, o.result.queries)
                })
                .collect()
        };
        assert_eq!(run(7), run(7), "same seed must reproduce exactly");
    }

    /// The two-pass attackers the fused ones replaced: every candidate is
    /// forecast with `predict`, and each step's gradient comes from
    /// `try_input_gradients`, which runs the window forward again.
    mod two_pass {
        use super::*;

        fn gradient(ctx: &AttackContext<'_>, w: &Window) -> Option<Vec<f64>> {
            let col = ctx.zoo.attack.cgm_column;
            let g = ctx.forecaster.try_input_gradients(w).ok()?;
            Some(g.iter().map(|row| row[col]).collect())
        }

        fn ascent(
            ctx: &AttackContext<'_>,
            case: &CgmCase,
            mut delta: Vec<f64>,
            steps: usize,
            queries: &mut usize,
        ) -> Option<(Window, f64, usize)> {
            let (lo, hi) = ctx.zoo.attack.manipulation_range(case.fasting);
            let col = ctx.zoo.attack.cgm_column;
            let goal = ctx.goal(case.fasting);
            let alpha = ctx.zoo.eps / steps.max(1) as f64;
            let mut best = None;
            if delta.iter().any(|&d| d > 0.0) {
                let cand = apply_boost(&case.window, &delta, col, lo, hi);
                let out = ctx.forecaster.predict(&cand);
                *queries += 1;
                best = Some((cand, out, 1));
                if goal.achieved(out) {
                    return best;
                }
            }
            for step in 1..=steps {
                let at = apply_boost(&case.window, &delta, col, lo, hi);
                let Some(g) = gradient(ctx, &at) else { break };
                *queries += 1;
                let mut moved = false;
                for (d, &gt) in delta.iter_mut().zip(&g) {
                    let nd = (*d + alpha * direction(gt)).clamp(0.0, ctx.zoo.eps);
                    moved |= nd != *d;
                    *d = nd;
                }
                if !moved {
                    break;
                }
                let cand = apply_boost(&case.window, &delta, col, lo, hi);
                let out = ctx.forecaster.predict(&cand);
                *queries += 1;
                keep_better(&mut best, goal, (cand, out, step));
                if goal.achieved(out) {
                    break;
                }
            }
            best
        }

        pub fn pgd(ctx: &AttackContext<'_>, case: &CgmCase, steps: usize, restarts: usize) -> WindowOutcome {
            let benign = ctx.forecaster.predict(&case.window);
            let mut queries = 1;
            let goal = ctx.goal(case.fasting);
            if goal.achieved(benign) {
                return finish_outcome(ctx, case, benign, None, queries);
            }
            let base = case_seed(ctx, case);
            let mut best = None;
            for restart in 0..restarts.max(1) {
                let mut rng = StdRng::seed_from_u64(lgo_runtime::split_seed(base, restart as u64));
                let init: Vec<f64> = (0..case.window.len())
                    .map(|_| {
                        if restart == 0 || ctx.zoo.eps <= 0.0 {
                            0.0
                        } else {
                            rng.random_range(0.0..ctx.zoo.eps)
                        }
                    })
                    .collect();
                if let Some(found) = ascent(ctx, case, init, steps, &mut queries) {
                    keep_better(&mut best, goal, found);
                    if best.as_ref().is_some_and(|&(_, b, _)| goal.achieved(b)) {
                        break;
                    }
                }
            }
            finish_outcome(ctx, case, benign, best, queries)
        }

        pub fn cw(ctx: &AttackContext<'_>, case: &CgmCase) -> WindowOutcome {
            let (lo, hi) = ctx.zoo.attack.manipulation_range(case.fasting);
            let col = ctx.zoo.attack.cgm_column;
            let goal = ctx.goal(case.fasting);
            let threshold = ctx.zoo.attack.threshold(case.fasting);
            let benign = ctx.forecaster.predict(&case.window);
            let mut queries = 1;
            if goal.achieved(benign) {
                return finish_outcome(ctx, case, benign, None, queries);
            }
            let lr = ctx.zoo.eps / ctx.zoo.steps.max(1) as f64;
            let mut delta = vec![0.0; case.window.len()];
            let mut best = None;
            for step in 1..=ctx.zoo.steps {
                let at = apply_boost(&case.window, &delta, col, lo, hi);
                let Some(g) = gradient(ctx, &at) else { break };
                queries += 1;
                let m = g.iter().fold(0.0_f64, |a, &v| a.max(v.abs()));
                if m == 0.0 {
                    break;
                }
                for (d, &gt) in delta.iter_mut().zip(&g) {
                    *d = (*d + lr * gt / m).clamp(0.0, ctx.zoo.eps);
                }
                let cand = apply_boost(&case.window, &delta, col, lo, hi);
                let out = ctx.forecaster.predict(&cand);
                queries += 1;
                keep_better(&mut best, goal, (cand, out, step));
                if out > threshold + ctx.zoo.kappa {
                    for _ in 0..4 {
                        let half: Vec<f64> = delta.iter().map(|d| d * 0.5).collect();
                        let cand = apply_boost(&case.window, &half, col, lo, hi);
                        let out = ctx.forecaster.predict(&cand);
                        queries += 1;
                        if out > threshold {
                            delta = half;
                            best = Some((cand, out, step));
                        } else {
                            break;
                        }
                    }
                    break;
                }
            }
            finish_outcome(ctx, case, benign, best, queries)
        }
    }

    /// Every field of an outcome, floats by their bits.
    fn outcome_bits(o: &WindowOutcome) -> Vec<u64> {
        let r = &o.result;
        let mut bits = vec![o.index as u64, o.fasting as u64, o.origin as u64];
        bits.extend([o.benign_prediction.to_bits(), r.best_output.to_bits()]);
        bits.extend([r.achieved as u64, r.queries as u64, r.steps as u64]);
        bits.push(r.first_hit.is_some() as u64);
        bits.extend(r.best_input.iter().flatten().map(|v| v.to_bits()));
        bits
    }

    #[test]
    fn fused_attackers_match_the_two_pass_reference_bitwise() {
        let (forecaster, series) = quick_forecaster();
        let cases = quick_cases(&series);
        // The default budget (PGD runs its random restarts on two cases),
        // and a wider one with no margin, which drives CW into its shrink
        // phase on case 11.
        let wide = ZooConfig {
            eps: 3.0 * ZooConfig::default().eps,
            kappa: 0.0,
            ..ZooConfig::default()
        };
        for zoo in [ZooConfig::default(), wide] {
            let ctx = AttackContext {
                forecaster: &forecaster,
                zoo: &zoo,
                seed: 7,
                detector: None,
            };
            for case in &cases {
                let pairs = [
                    ("fgsm", Pgd::fgsm().run(&ctx, case), two_pass::pgd(&ctx, case, 1, 1)),
                    ("bim", Pgd::bim().run(&ctx, case), two_pass::pgd(&ctx, case, zoo.steps, 1)),
                    (
                        "pgd",
                        Pgd::standard().run(&ctx, case),
                        two_pass::pgd(&ctx, case, zoo.steps, zoo.restarts),
                    ),
                    ("cw", CwMargin.run(&ctx, case), two_pass::cw(&ctx, case)),
                ];
                for (name, fused, reference) in pairs {
                    assert_eq!(
                        outcome_bits(&fused),
                        outcome_bits(&reference),
                        "{name} on case {} (eps {})",
                        case.index,
                        zoo.eps
                    );
                }
            }
        }
    }

    #[test]
    fn fgsm_zero_gradient_leaves_window_benign() {
        // direction() must not treat a zero gradient as +1 (f64::signum does).
        assert_eq!(direction(0.0), 0.0);
        assert_eq!(direction(-3.0), -1.0);
        assert_eq!(direction(2.0), 1.0);
    }

    /// Golden bits for the signed-gradient attackers on the shared fixture:
    /// per case `(attacker, case index, best_output bits, queries, steps,
    /// achieved, origin)`. FGSM, BIM and PGD are looked up by registry name,
    /// so the pin holds whatever type implements each of them.
    #[test]
    fn signed_gradient_attackers_match_golden_bits() {
        use crate::attack_by_name;
        use lgo_attack::cgm::OriginState;
        #[rustfmt::skip]
        const GOLDEN: [(&str, usize, u64, usize, usize, bool, OriginState); 18] = [
            ("fgsm", 11, 0x405fbd65403edcb4, 3, 1, true, OriginState::Normal),
            ("fgsm", 107, 0x4061fed1bdd5d87c, 3, 1, false, OriginState::Normal),
            ("fgsm", 203, 0x4061466725c21945, 3, 1, false, OriginState::Normal),
            ("fgsm", 299, 0x405f6facff2cb3c8, 3, 1, true, OriginState::Normal),
            ("fgsm", 395, 0x4061ed7b4f4c7161, 1, 0, true, OriginState::Hyper),
            ("fgsm", 491, 0x4062187807dfebee, 1, 0, true, OriginState::Hyper),
            ("bim", 11, 0x405f51c6e80c1d84, 11, 5, true, OriginState::Normal),
            ("bim", 107, 0x4061fed1bdd5d87c, 17, 8, false, OriginState::Normal),
            ("bim", 203, 0x4061466725c21945, 17, 8, false, OriginState::Normal),
            ("bim", 299, 0x405f4d19c3a75f48, 15, 7, true, OriginState::Normal),
            ("bim", 395, 0x4061ed7b4f4c7161, 1, 0, true, OriginState::Hyper),
            ("bim", 491, 0x4062187807dfebee, 1, 0, true, OriginState::Hyper),
            ("pgd", 11, 0x405f51c6e80c1d84, 11, 5, true, OriginState::Normal),
            ("pgd", 107, 0x4061fed1bdd5d87c, 50, 8, false, OriginState::Normal),
            ("pgd", 203, 0x4061466725c21945, 50, 8, false, OriginState::Normal),
            ("pgd", 299, 0x405f4d19c3a75f48, 15, 7, true, OriginState::Normal),
            ("pgd", 395, 0x4061ed7b4f4c7161, 1, 0, true, OriginState::Hyper),
            ("pgd", 491, 0x4062187807dfebee, 1, 0, true, OriginState::Hyper),
        ];
        let (forecaster, series) = quick_forecaster();
        let cases = quick_cases(&series);
        let zoo = ZooConfig::default();
        let ctx = AttackContext {
            forecaster: &forecaster,
            zoo: &zoo,
            seed: 7,
            detector: None,
        };
        let mut got = Vec::new();
        for name in ["fgsm", "bim", "pgd"] {
            let attack = attack_by_name(name).expect("registry attacker");
            for case in &cases {
                let o = attack.run(&ctx, case);
                got.push((
                    name,
                    case.index,
                    o.result.best_output.to_bits(),
                    o.result.queries,
                    o.result.steps,
                    o.result.achieved,
                    o.origin,
                ));
            }
        }
        assert_eq!(got, GOLDEN);
    }
}
