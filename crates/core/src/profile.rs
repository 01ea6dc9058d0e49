//! Step 1 (attack simulation) and step 3 (profile construction) wiring:
//! runs the URET-style campaign against a patient's forecaster and turns
//! the outcomes into a time-series risk profile.

use lgo_attack::cgm::{run_campaign, CampaignReport, CgmAttackConfig, CgmCase, Window};
use lgo_attack::{GreedyExplorer, TargetModel};
use lgo_forecast::{feature_window_sized, GlucoseForecaster};
use lgo_glucosim::PatientId;
use lgo_series::MultiSeries;

use crate::error::LgoError;
use crate::risk::{instantaneous_risk, RiskProfile};
use crate::severity::SeverityTable;
use crate::state::StateThresholds;

/// Adapter exposing a [`GlucoseForecaster`] to the attack framework as a
/// black-box [`TargetModel`] over feature windows.
///
/// Its [`TargetModel::near`] is [`GlucoseForecaster::near`]: the greedy
/// explorer's candidates share all but their last rows with the window
/// they extend, so each query resumes that window's forward pass.
pub struct ForecastModel<'a>(pub &'a GlucoseForecaster);

impl TargetModel<Window> for ForecastModel<'_> {
    fn predict(&self, input: &Window) -> f64 {
        self.0.predict(input)
    }

    fn near(&self, base: &Window) -> Box<dyn Fn(&Window) -> f64 + '_> {
        let near = self.0.near(base);
        Box::new(move |input| near.predict(input))
    }
}

/// Configuration of the per-patient attack/risk profiling run.
#[derive(Debug, Clone)]
pub struct ProfilerConfig {
    /// Stride (in samples) between attacked windows; 1 attacks every
    /// window, larger values trade resolution for speed.
    pub stride: usize,
    /// Greedy-explorer step budget per window.
    pub explorer_steps: usize,
    /// When `true` the explorer keeps climbing for the full budget and
    /// `Z_t` measures the worst-case prediction deviation (the right mode
    /// for risk quantification). When `false` the explorer stops at the
    /// first goal-achieving manipulation (the right mode for generating
    /// realistic, minimal adversarial samples for the detectors).
    pub maximize: bool,
    /// Attack constraints/goals (thresholds, manipulation ranges).
    pub attack: CgmAttackConfig,
    /// Severity coefficients for risk quantification.
    pub severity: SeverityTable,
    /// Glucose state thresholds.
    pub thresholds: StateThresholds,
}

impl ProfilerConfig {
    /// Checks the knobs every profiling entry point relies on: a zero
    /// explorer budget would trip the explorer's constructor assert
    /// (on a worker thread, inside a campaign) instead of being reported.
    ///
    /// # Errors
    ///
    /// Returns [`LgoError::InvalidConfig`] when `explorer_steps == 0`.
    pub fn validate(&self) -> Result<(), LgoError> {
        if self.explorer_steps == 0 {
            return Err(LgoError::InvalidConfig {
                field: "explorer_steps",
                value: 0.0,
                expected: "[1, ∞)",
            });
        }
        Ok(())
    }
}

impl Default for ProfilerConfig {
    fn default() -> Self {
        Self {
            stride: 6,
            explorer_steps: 6,
            maximize: true,
            attack: CgmAttackConfig::default(),
            severity: SeverityTable::paper_default(),
            thresholds: StateThresholds::default(),
        }
    }
}

/// The result of profiling one patient: the raw campaign plus the derived
/// risk profile.
#[derive(Debug, Clone)]
pub struct PatientAttackProfile {
    /// Which patient.
    pub patient: PatientId,
    /// Step-3 output: the time-series risk profile.
    pub risk_profile: RiskProfile,
    /// Step-1 output: every attacked window with its outcome.
    pub campaign: CampaignReport,
}

impl PatientAttackProfile {
    /// The adversarial feature windows of *successful* attacks (the goal
    /// prediction flip was achieved), in raw units.
    pub fn malicious_windows(&self) -> Vec<Window> {
        self.campaign
            .outcomes
            .iter()
            .filter(|o| o.result.achieved && o.result.steps > 0)
            .map(|o| o.result.best_input.clone())
            .collect()
    }

    /// Every window the attacker actually altered (at least one accepted
    /// transformation step), successful or not. These are the *malicious
    /// samples* in the paper's Figure-6 taxonomy — manipulation, not attack
    /// success, is what makes a sample malicious — and what the detectors
    /// are trained and evaluated on.
    pub fn manipulated_windows(&self) -> Vec<Window> {
        self.campaign.manipulated_windows()
    }

    /// Overall attack success rate (see
    /// [`CampaignReport::success_rate`]).
    pub fn success_rate(&self) -> Option<f64> {
        self.campaign.success_rate()
    }

    /// The attack-outcome time series aligned with the risk profile: 1.0
    /// where the campaign achieved the misdiagnosis goal at that window,
    /// 0.0 where the victim's model resisted. Together with the risk values
    /// this is the full per-window record of step 1.
    pub fn success_series(&self) -> Vec<f64> {
        self.campaign
            .outcomes
            .iter()
            .map(|o| if o.result.achieved { 1.0 } else { 0.0 })
            .collect()
    }
}

/// Builds the attack cases for a series: one case per `stride`-th complete
/// feature window, with the fasting flag read from the series at the window
/// end.
///
/// # Panics
///
/// Panics if the series lacks the forecaster features or `fasting` channel,
/// or `stride == 0`.
pub fn attack_cases(series: &MultiSeries, seq_len: usize, stride: usize) -> Vec<CgmCase> {
    match try_attack_cases(series, seq_len, stride) {
        Ok(cases) => cases,
        // lint: allow(L1): documented panicking wrapper; try_attack_cases is the checked path
        Err(e) => panic!("attack_cases: {e}"),
    }
}

/// Fallible [`attack_cases`]. Unlike the panicking wrapper this also skips
/// windows containing non-finite samples — a window with a sensor gap in it
/// cannot be attacked (or meaningfully risk-scored).
///
/// # Errors
///
/// Returns [`LgoError::InvalidStride`] for `stride == 0` and
/// [`LgoError::MissingChannel`] when the `fasting` channel is absent.
pub fn try_attack_cases(
    series: &MultiSeries,
    seq_len: usize,
    stride: usize,
) -> Result<Vec<CgmCase>, LgoError> {
    if stride == 0 {
        return Err(LgoError::InvalidStride);
    }
    let fasting = series
        .channel("fasting")
        .ok_or_else(|| LgoError::MissingChannel {
            name: "fasting".into(),
        })?;
    let mut cases = Vec::new();
    let mut end = seq_len.saturating_sub(1);
    while end < series.len() {
        if let Some(window) = feature_window_sized(series, end, seq_len) {
            if window.iter().flatten().all(|v| v.is_finite()) {
                cases.push(CgmCase {
                    index: end,
                    window,
                    fasting: fasting[end] == 1.0, // lint: allow(L4): fasting is a 0/1 flag channel stored exactly
                });
            }
        }
        end += stride;
    }
    Ok(cases)
}

/// Profiles one patient: attacks every `stride`-th window of `series` with
/// the greedy explorer and quantifies the induced risk per window.
///
/// The adversarial prediction used in `Z_t` is the *best* prediction the
/// attack reached, whether or not the goal was achieved — an unsuccessful
/// manipulation that still shifts the prediction contributes its (possibly
/// zero-severity) risk, exactly as Equation 1 prescribes.
///
/// # Panics
///
/// Panics if the series yields no complete windows.
pub fn profile_patient(
    forecaster: &GlucoseForecaster,
    patient: PatientId,
    series: &MultiSeries,
    config: &ProfilerConfig,
) -> PatientAttackProfile {
    match try_profile_patient(forecaster, patient, series, config) {
        Ok(p) => p,
        // lint: allow(L1): documented panicking wrapper; try_profile_patient is the checked path
        Err(e) => panic!("profile_patient: {e}"),
    }
}

/// Fallible [`profile_patient`]: windows with missing (non-finite) samples
/// are skipped, and a series so degraded that no attackable window remains
/// is reported as an error rather than a panic.
///
/// # Errors
///
/// Returns [`LgoError::InvalidConfig`] for `explorer_steps == 0`
/// ([`ProfilerConfig::validate`]), [`LgoError::NoWindows`] when no complete
/// finite window exists, plus everything [`try_attack_cases`] reports.
pub fn try_profile_patient(
    forecaster: &GlucoseForecaster,
    patient: PatientId,
    series: &MultiSeries,
    config: &ProfilerConfig,
) -> Result<PatientAttackProfile, LgoError> {
    config.validate()?;
    let seq_len = forecaster.config().seq_len;
    let cases = try_attack_cases(series, seq_len, config.stride)?;
    if cases.is_empty() {
        return Err(LgoError::NoWindows);
    }
    let model = ForecastModel(forecaster);
    let explorer = if config.maximize {
        GreedyExplorer::maximizing(config.explorer_steps)
    } else {
        GreedyExplorer::new(config.explorer_steps)
    };
    let campaign = {
        // Stage 1 of the paper's pipeline: attack simulation.
        let _stage = lgo_trace::span("stage/attack");
        lgo_trace::counter("stage/attack", 1);
        run_campaign(&model, &cases, &explorer, &config.attack)
    };
    Ok(profile_campaign(patient, campaign, config))
}

/// Step 3 for one attacked patient: turns each window of `campaign` into
/// its instantaneous risk (the paper's Equation 1) under `config`'s
/// severity and threshold tables. Every profiler — the greedy one above
/// and the attack zoo's pluggable ones — ends in this call.
pub fn profile_campaign(
    patient: PatientId,
    campaign: CampaignReport,
    config: &ProfilerConfig,
) -> PatientAttackProfile {
    let _stage = lgo_trace::span("stage/risk");
    lgo_trace::counter("stage/risk", 1);
    lgo_trace::counter("risk/windows", campaign.outcomes.len() as u64);
    let values: Vec<f64> = campaign
        .outcomes
        .iter()
        .map(|o| {
            instantaneous_risk(
                o.benign_prediction,
                o.result.best_output,
                o.fasting,
                &config.severity,
                &config.thresholds,
            )
        })
        .collect();
    PatientAttackProfile {
        patient,
        risk_profile: RiskProfile::new(patient.to_string(), values),
        campaign,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lgo_forecast::ForecastConfig;
    use lgo_glucosim::{profile as patient_profile, Simulator, Subset};

    fn quick_forecaster(series: &MultiSeries) -> GlucoseForecaster {
        let cfg = ForecastConfig {
            hidden: 6,
            epochs: 1,
            ..ForecastConfig::default()
        };
        GlucoseForecaster::train_personalized(series, &cfg)
    }

    fn quick_config() -> ProfilerConfig {
        ProfilerConfig {
            stride: 24,
            explorer_steps: 3,
            ..ProfilerConfig::default()
        }
    }

    #[test]
    fn attack_cases_cover_series_with_stride() {
        let id = PatientId::new(Subset::A, 0);
        let series = Simulator::new(patient_profile(id)).run_days(1);
        let cases = attack_cases(&series, 12, 24);
        assert!(!cases.is_empty());
        // Indices advance by the stride and start at seq_len-1.
        assert_eq!(cases[0].index, 11);
        assert_eq!(cases[1].index, 35);
        // All windows are complete.
        assert!(cases.iter().all(|c| c.window.len() == 12));
    }

    #[test]
    fn profile_has_one_risk_per_case() {
        let id = PatientId::new(Subset::A, 2);
        let sim = Simulator::new(patient_profile(id));
        let train = sim.run_days(2);
        let test = sim.run_days(3).slice(2 * 288, 3 * 288);
        let forecaster = quick_forecaster(&train);
        let prof = profile_patient(&forecaster, id, &test, &quick_config());
        assert_eq!(
            prof.risk_profile.values.len(),
            prof.campaign.outcomes.len()
        );
        assert_eq!(prof.patient, id);
        assert!(prof.risk_profile.values.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn successful_attacks_yield_malicious_windows_in_range() {
        let id = PatientId::new(Subset::A, 2);
        let sim = Simulator::new(patient_profile(id));
        let train = sim.run_days(2);
        let test = sim.run_days(3).slice(2 * 288, 3 * 288);
        let forecaster = quick_forecaster(&train);
        let prof = profile_patient(&forecaster, id, &test, &quick_config());
        for w in prof.malicious_windows() {
            // Feature layout intact and CGM within the sensor range.
            assert_eq!(w.len(), 12);
            assert!(w.iter().all(|r| r.len() == 4));
            assert!(w.iter().all(|r| (40.0..=499.0).contains(&r[0])));
        }
    }

    #[test]
    #[should_panic(expected = "stride must be positive")]
    fn zero_stride_rejected() {
        let id = PatientId::new(Subset::A, 0);
        let series = Simulator::new(patient_profile(id)).run_days(1);
        let _ = attack_cases(&series, 12, 0);
    }
}
