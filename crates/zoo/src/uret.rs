//! The paper's URET-style transformation-graph attacker, adapted to the
//! zoo's [`Attack`] trait so the baseline is directly comparable with the
//! gradient, black-box and adaptive attackers in one report.

use lgo_attack::cgm::{attack_window, CgmCase, WindowOutcome};
use lgo_attack::GreedyExplorer;
use lgo_core::profile::ForecastModel;

use crate::{Attack, AttackContext, ThreatModel};

/// The greedy URET explorer from `lgo-attack` behind the zoo trait.
/// Transformation-graph search over set/shift suffix edits — gradient-free,
/// so it sits in the black-box class.
#[derive(Debug, Clone, Copy)]
pub struct UretAttack(GreedyExplorer);

impl UretAttack {
    /// Minimal-perturbation variant: stops at the first goal-achieving
    /// transformation (the paper's evasion attacker).
    ///
    /// # Panics
    ///
    /// Panics if `steps == 0`.
    pub fn minimal(steps: usize) -> Self {
        Self(GreedyExplorer::new(steps))
    }

    /// Maximizing variant: spends the full step budget pushing the
    /// prediction as high as possible (the risk-profiling attacker).
    ///
    /// # Panics
    ///
    /// Panics if `steps == 0`.
    pub fn maximizing(steps: usize) -> Self {
        Self(GreedyExplorer::maximizing(steps))
    }
}

impl Attack for UretAttack {
    fn name(&self) -> &'static str {
        "uret"
    }

    fn threat_model(&self) -> ThreatModel {
        ThreatModel::BlackBox
    }

    fn run(&self, ctx: &AttackContext<'_>, case: &CgmCase) -> WindowOutcome {
        attack_window(&ForecastModel(ctx.forecaster), case, &self.0, &ctx.zoo.attack)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{quick_cases, quick_forecaster};
    use crate::ZooConfig;

    #[test]
    fn uret_trait_run_matches_direct_campaign_call() {
        let (forecaster, series) = quick_forecaster();
        let cases = quick_cases(&series);
        let zoo = ZooConfig::default();
        let ctx = AttackContext {
            forecaster: &forecaster,
            zoo: &zoo,
            seed: 0,
            detector: None,
        };
        let attack = UretAttack::minimal(4);
        for case in &cases {
            let via_trait = attack.run(&ctx, case);
            let direct = attack_window(
                &ForecastModel(&forecaster),
                case,
                &GreedyExplorer::new(4),
                &zoo.attack,
            );
            assert_eq!(via_trait.result.best_output, direct.result.best_output);
            assert_eq!(via_trait.result.queries, direct.result.queries);
            assert_eq!(via_trait.origin, direct.origin);
        }
    }
}
