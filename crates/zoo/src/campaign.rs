//! The unified campaign harness: fans any [`Attack`] over a set of windows
//! with `lgo_runtime::par_map` and packages the outcomes in the same
//! [`CampaignReport`] / [`PatientAttackProfile`] shapes the rest of the
//! pipeline consumes. Per-window randomness derives from
//! [`case_seed`](crate::case_seed), so reports are byte-identical at any
//! `LGO_THREADS`.

use lgo_attack::cgm::{CampaignReport, CgmCase};
use lgo_core::error::LgoError;
use lgo_core::profile::{profile_campaign, try_attack_cases, PatientAttackProfile, ProfilerConfig};
use lgo_detect::AnomalyDetector;
use lgo_forecast::GlucoseForecaster;
use lgo_glucosim::PatientId;
use lgo_series::MultiSeries;

use crate::{Attack, AttackContext, ZooConfig};

/// Runs one attacker over every case in parallel, preserving input order.
/// `detector` grants defense-aware attackers oracle access to the deployed
/// defense; pass `None` for the undefended configuration (white-box and
/// black-box attackers ignore it either way).
pub fn run_attack_campaign(
    attack: &dyn Attack,
    forecaster: &GlucoseForecaster,
    cases: &[CgmCase],
    zoo: &ZooConfig,
    seed: u64,
    detector: Option<&dyn AnomalyDetector>,
) -> CampaignReport {
    let _span = lgo_trace::span("zoo/campaign");
    let ctx = AttackContext {
        forecaster,
        zoo,
        seed,
        detector,
    };
    let outcomes = lgo_runtime::par_map(cases, |case| attack.run(&ctx, case));
    // Post-hoc instrumentation keeps the parallel closure free of shared
    // state; counter emission order is serial and deterministic.
    if lgo_trace::enabled() {
        lgo_trace::counter("zoo/campaigns", 1);
        lgo_trace::counter("zoo/windows", outcomes.len() as u64);
        let successes = outcomes.iter().filter(|o| o.result.achieved).count();
        lgo_trace::counter("zoo/successes", successes as u64);
        for o in &outcomes {
            lgo_trace::record("zoo/queries_per_window", o.result.queries as u64);
        }
    }
    CampaignReport { outcomes }
}

/// [`lgo_core::profile::try_profile_patient`] with a pluggable attacker:
/// attacks every window of the patient's series and converts the outcomes
/// to a risk profile via the paper's Equation 1. The zoo config governs
/// the attack (the profiler's own `attack`/`explorer_steps` knobs are
/// ignored); the profiler config supplies the windowing stride and the
/// risk severity/threshold tables.
///
/// # Errors
///
/// Returns [`LgoError::InvalidConfig`] unless `zoo.eps` is finite and
/// ≥ 0, [`LgoError::NoWindows`] when no complete finite window exists,
/// plus everything [`try_attack_cases`] reports.
#[allow(clippy::too_many_arguments)] // mirrors the core profiler signature plus the zoo/detector context
pub fn try_profile_patient_with(
    attack: &dyn Attack,
    forecaster: &GlucoseForecaster,
    patient: PatientId,
    series: &MultiSeries,
    profiler: &ProfilerConfig,
    zoo: &ZooConfig,
    seed: u64,
    detector: Option<&dyn AnomalyDetector>,
) -> Result<PatientAttackProfile, LgoError> {
    zoo.validate()?;
    let cases = try_attack_cases(series, forecaster.config().seq_len, profiler.stride)?;
    if cases.is_empty() {
        return Err(LgoError::NoWindows);
    }
    Ok(profile_cases(
        attack, forecaster, patient, &cases, profiler, zoo, seed, detector,
    ))
}

/// [`try_profile_patient_with`] on windows the caller already built: the
/// `stage/attack` campaign, then [`profile_campaign`]'s Equation-1 step.
#[allow(clippy::too_many_arguments)] // try_profile_patient_with's context with cases in place of the series
pub(crate) fn profile_cases(
    attack: &dyn Attack,
    forecaster: &GlucoseForecaster,
    patient: PatientId,
    cases: &[CgmCase],
    profiler: &ProfilerConfig,
    zoo: &ZooConfig,
    seed: u64,
    detector: Option<&dyn AnomalyDetector>,
) -> PatientAttackProfile {
    let campaign = {
        let _stage = lgo_trace::span("stage/attack");
        lgo_trace::counter("stage/attack", 1);
        run_attack_campaign(attack, forecaster, cases, zoo, seed, detector)
    };
    profile_campaign(patient, campaign, profiler)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradient::Pgd;
    use crate::testutil::{quick_cases, quick_forecaster};
    use crate::uret::UretAttack;
    use lgo_glucosim::{PatientId, Subset};

    /// Serializes tests that flip the global thread override.
    fn thread_guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::OnceLock<std::sync::Mutex<()>> = std::sync::OnceLock::new();
        LOCK.get_or_init(|| std::sync::Mutex::new(()))
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn campaign_is_thread_count_invariant() {
        let _guard = thread_guard();
        let (forecaster, series) = quick_forecaster();
        let cases = quick_cases(&series);
        let zoo = crate::ZooConfig::default();
        let run = |threads: usize| {
            lgo_runtime::set_threads(Some(threads));
            let report = run_attack_campaign(&Pgd::standard(), &forecaster, &cases, &zoo, 11, None);
            report
                .outcomes
                .iter()
                .map(|o| (o.index, o.result.best_output, o.result.queries))
                .collect::<Vec<_>>()
        };
        let serial = run(1);
        let parallel = run(4);
        lgo_runtime::set_threads(None);
        assert_eq!(serial, parallel, "campaign must not depend on LGO_THREADS");
    }

    #[test]
    fn profile_with_uret_matches_core_profiler_shape() {
        let _guard = thread_guard();
        let (forecaster, series) = quick_forecaster();
        let zoo = crate::ZooConfig::default();
        let profiler = ProfilerConfig {
            stride: 96,
            ..ProfilerConfig::default()
        };
        let id = PatientId::new(Subset::A, 2);
        let profile = try_profile_patient_with(
            &UretAttack::maximizing(4),
            &forecaster,
            id,
            &series,
            &profiler,
            &zoo,
            0,
            None,
        )
        .expect("profiling fixture series should yield windows");
        assert_eq!(profile.patient, id);
        assert_eq!(
            profile.risk_profile.values.len(),
            profile.campaign.outcomes.len(),
            "one risk value per attacked window"
        );
        assert!(profile
            .risk_profile
            .values
            .iter()
            .all(|v| v.is_finite() && *v >= 0.0));
    }

    #[test]
    fn unusable_eps_is_an_error_not_a_worker_panic() {
        let (forecaster, series) = quick_forecaster();
        let profiler = ProfilerConfig {
            stride: 96,
            ..ProfilerConfig::default()
        };
        for eps in [-1.0, f64::NAN, f64::INFINITY] {
            let zoo = crate::ZooConfig {
                eps,
                ..crate::ZooConfig::default()
            };
            let result = try_profile_patient_with(
                &Pgd::standard(),
                &forecaster,
                PatientId::new(Subset::A, 2),
                &series,
                &profiler,
                &zoo,
                0,
                None,
            );
            assert!(
                matches!(result, Err(LgoError::InvalidConfig { field: "eps", .. })),
                "eps = {eps} must be rejected at entry"
            );
        }
    }

    #[test]
    fn zero_explorer_steps_is_an_error_not_an_explorer_assert() {
        let zero = |r: Result<(), LgoError>| {
            matches!(
                r,
                Err(LgoError::InvalidConfig {
                    field: "explorer_steps",
                    ..
                })
            )
        };
        let (forecaster, series) = quick_forecaster();
        let profiler = ProfilerConfig {
            stride: 96,
            explorer_steps: 0,
            ..ProfilerConfig::default()
        };
        let profile = lgo_core::profile::try_profile_patient(
            &forecaster,
            PatientId::new(Subset::A, 2),
            &series,
            &profiler,
        );
        assert!(
            zero(profile.map(|_| ())),
            "try_profile_patient must reject zero steps"
        );

        let mut zoo = crate::ZooExperimentConfig::fast();
        zoo.profiler.explorer_steps = 0;
        assert!(zero(crate::try_run_attack_zoo(&zoo).map(|_| ())));
        let mut defense = crate::DefenseBenchConfig::fast();
        defense.base.profiler.explorer_steps = 0;
        assert!(zero(crate::try_run_defense_bench(&defense).map(|_| ())));
    }
}
