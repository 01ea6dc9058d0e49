//! Property-based tests for the attack framework: feasibility of every
//! transformer candidate, goal semantics, and explorer guarantees,
//! including the early-exit result a maximizing walk reports.

use lgo_attack::cgm::{
    CgmAttackConfig, CgmManipulationConstraint, CgmSetSuffix, CgmShiftSuffix, Window,
};
use lgo_attack::{Constraint, FnModel, Goal, GreedyExplorer, TargetModel, Transformer};
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
            GreedyExplorer::new(3).explore(&w, benign, &model, &transformers, &constraints, &goal),
            GreedyExplorer::maximizing(3)
                .explore(&w, benign, &model, &transformers, &constraints, &goal),
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

    #[test]
    fn early_exit_read_off_a_maximizing_walk_equals_an_early_exit_walk(
        w in window_strategy(),
        threshold in 60.0..400.0f64,
        fasting in any::<bool>(),
        steps in 1usize..6,
    ) {
        // Recency-weighted CGM plus a ripple: not monotone in any one
        // edit, so walks turn, stall and reach the goal at varied steps.
        let model = FnModel::new(|win: &Window| {
            let n = win.len() as f64;
            let weighted: f64 = win.iter().enumerate().map(|(t, r)| r[0] * (t + 1) as f64).sum();
            weighted * 2.0 / (n * (n + 1.0)) + 15.0 * (win[win.len() - 1][0] / 37.0).sin()
        });
        let goal = Goal::PushAbove(threshold);
        let cfg = CgmAttackConfig::default();
        let set = CgmSetSuffix::from_config(&cfg, fasting);
        let shift = CgmShiftSuffix::from_config(&cfg, fasting);
        let constraint = CgmManipulationConstraint::from_config(&cfg, fasting);
        let transformers: [&dyn Transformer<Window>; 2] = [&set, &shift];
        let constraints: [&dyn Constraint<Window>; 1] = [&constraint];
        let benign = model.predict(&w);

        let early = GreedyExplorer::new(steps)
            .explore(&w, benign, &model, &transformers, &constraints, &goal);
        let maxed = GreedyExplorer::maximizing(steps)
            .explore(&w, benign, &model, &transformers, &constraints, &goal);
        // Every field, the query count and the step included.
        prop_assert_eq!(maxed.early_exit(), early);
    }
}
