//! Property-based tests for the attack framework: feasibility of every
//! transformer candidate, goal semantics, and explorer guarantees.

use lgo_attack::cgm::{
    CgmAttackConfig, CgmManipulationConstraint, CgmSetSuffix, CgmShiftSuffix, Window,
};
use lgo_attack::{Constraint, FnModel, Goal, GreedyExplorer, Transformer};
use proptest::prelude::*;

fn window_strategy() -> impl Strategy<Value = Window> {
    proptest::collection::vec(
        (40.0..400.0f64).prop_map(|cgm| vec![cgm, 0.5, 2.0, 70.0]),
        12,
    )
}

proptest! {
    #[test]
    fn set_suffix_candidates_always_feasible(w in window_strategy(), fasting in any::<bool>()) {
        let cfg = CgmAttackConfig::default();
        let t = CgmSetSuffix::from_config(&cfg, fasting);
        let c = CgmManipulationConstraint::from_config(&cfg, fasting);
        for cand in t.candidates(&w) {
            prop_assert!(c.is_satisfied(&w, &cand));
        }
    }

    #[test]
    fn shift_suffix_candidates_always_feasible(w in window_strategy(), fasting in any::<bool>()) {
        let cfg = CgmAttackConfig::default();
        let t = CgmShiftSuffix::from_config(&cfg, fasting);
        let c = CgmManipulationConstraint::from_config(&cfg, fasting);
        for cand in t.candidates(&w) {
            prop_assert!(c.is_satisfied(&w, &cand));
        }
    }

    #[test]
    fn candidates_only_touch_the_suffix(w in window_strategy(), fasting in any::<bool>()) {
        let cfg = CgmAttackConfig::default();
        let max_suffix = *cfg.suffix_lengths.iter().max().unwrap();
        let t = CgmSetSuffix::from_config(&cfg, fasting);
        for cand in t.candidates(&w) {
            for (i, (orig, new)) in w.iter().zip(&cand).enumerate() {
                if i + max_suffix < w.len() {
                    prop_assert_eq!(orig, new, "prefix row {} modified", i);
                }
                // Non-CGM features never change anywhere.
                prop_assert_eq!(&orig[1..], &new[1..]);
            }
        }
    }

    #[test]
    fn goal_score_is_consistent_with_achievement(threshold in -100.0..100.0f64, out in -200.0..200.0f64) {
        for goal in [Goal::PushAbove(threshold), Goal::PushBelow(threshold)] {
            if goal.achieved(out) {
                prop_assert!(goal.score(out) > 0.0);
            } else {
                prop_assert!(goal.score(out) <= 0.0);
            }
        }
    }

    #[test]
    fn explorers_never_return_worse_than_benign(
        w in window_strategy(),
        threshold in 100.0..300.0f64,
    ) {
        // Model: mean of the CGM channel.
        let model = FnModel::new(|win: &Window| {
            win.iter().map(|r| r[0]).sum::<f64>() / win.len() as f64
        });
        let goal = Goal::PushAbove(threshold);
        let cfg = CgmAttackConfig::default();
        let set = CgmSetSuffix::from_config(&cfg, true);
        let constraint = CgmManipulationConstraint::from_config(&cfg, true);
        let benign = w.iter().map(|r| r[0]).sum::<f64>() / w.len() as f64;

        let transformers: [&dyn Transformer<Window>; 1] = [&set];
        let constraints: [&dyn Constraint<Window>; 1] = [&constraint];
        let results = [
            GreedyExplorer::new(3).explore(&w, &model, &transformers, &constraints, &goal),
            GreedyExplorer::maximizing(3).explore(&w, &model, &transformers, &constraints, &goal),
        ];
        for r in results {
            prop_assert!(goal.score(r.best_output) >= goal.score(benign) - 1e-9);
            prop_assert!(constraint.is_satisfied(&w, &r.best_input));
            prop_assert!(r.queries >= 1);
            if r.achieved {
                prop_assert!(goal.achieved(r.best_output));
            }
        }
    }
}
