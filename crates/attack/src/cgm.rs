//! The paper's case study instantiation: evasion attacks that manipulate
//! only the CGM channel of a glucose-forecaster feature window, constrained
//! to physiologically plausible hyperglycemic ranges.
//!
//! The threat model (paper §III): the adversary intercepts Bluetooth CGM
//! transmissions and may rewrite glucose measurements, but cannot touch
//! insulin, carbohydrate or heart-rate features. Manipulated values must
//! stay within 125–499 mg/dL while the victim fasts, or 180–499 mg/dL
//! postprandially (499 mg/dL is the highest value in OhioT1DM).

use crate::{AttackResult, Constraint, Goal, GreedyExplorer, TargetModel, Transformer};

/// A forecaster input window: rows of feature vectors, time-major.
pub type Window = Vec<Vec<f64>>;

/// Configuration of the CGM manipulation attack.
#[derive(Debug, Clone, PartialEq)]
pub struct CgmAttackConfig {
    /// Column index of the CGM feature within each row.
    pub cgm_column: usize,
    /// Hyperglycemia threshold while fasting (mg/dL).
    pub fasting_threshold: f64,
    /// Hyperglycemia threshold postprandially (mg/dL).
    pub postprandial_threshold: f64,
    /// Maximum physiological glucose (mg/dL).
    pub max_glucose: f64,
    /// Hypoglycemia threshold (mg/dL), used to classify origin states.
    pub hypo_threshold: f64,
    /// Number of discrete levels each set-transformer enumerates.
    pub levels: usize,
    /// Suffix lengths (in samples) the transformers may overwrite.
    pub suffix_lengths: Vec<usize>,
}

impl Default for CgmAttackConfig {
    fn default() -> Self {
        Self {
            cgm_column: 0,
            fasting_threshold: 125.0,
            postprandial_threshold: 180.0,
            max_glucose: 499.0,
            hypo_threshold: 70.0,
            levels: 6,
            suffix_lengths: vec![1, 2],
        }
    }
}

impl CgmAttackConfig {
    /// The hyperglycemia threshold applying to a window (by fasting state).
    pub fn threshold(&self, fasting: bool) -> f64 {
        if fasting {
            self.fasting_threshold
        } else {
            self.postprandial_threshold
        }
    }

    /// The allowed manipulation range for a window (paper: threshold to
    /// 499 mg/dL).
    pub fn manipulation_range(&self, fasting: bool) -> (f64, f64) {
        (self.threshold(fasting), self.max_glucose)
    }

    /// The glucose state a benign prediction starts from, for the campaign
    /// reports' per-origin success rates.
    pub fn origin(&self, benign: f64, fasting: bool) -> OriginState {
        if benign < self.hypo_threshold {
            OriginState::Hypo
        } else if benign > self.threshold(fasting) {
            OriginState::Hyper
        } else {
            OriginState::Normal
        }
    }
}

/// Transformer that overwrites the last `k` CGM cells with a constant level,
/// for each combination of `k` and a grid of levels inside the allowed
/// manipulation range.
#[derive(Debug, Clone)]
pub struct CgmSetSuffix {
    column: usize,
    levels: Vec<f64>,
    suffix_lengths: Vec<usize>,
}

impl CgmSetSuffix {
    /// Builds the transformer from an attack configuration and the window's
    /// fasting state.
    pub fn from_config(cfg: &CgmAttackConfig, fasting: bool) -> Self {
        let (lo, hi) = cfg.manipulation_range(fasting);
        let n = cfg.levels.max(2);
        let levels = (0..n)
            .map(|i| lo + (hi - lo) * i as f64 / (n - 1) as f64)
            .collect();
        Self {
            column: cfg.cgm_column,
            levels,
            suffix_lengths: cfg.suffix_lengths.clone(),
        }
    }
}

impl Transformer<Window> for CgmSetSuffix {
    fn name(&self) -> &str {
        "cgm-set-suffix"
    }

    fn candidates(&self, input: &Window) -> Vec<Window> {
        // Deterministic, window-dependent jitter spreads the level grid so
        // adversarial samples don't share exact values across windows — a
        // real attacker's replacements are not quantized, and a detector
        // must not be allowed to key on grid artifacts.
        let lo = *self.levels.first().expect("at least two levels");
        let hi = *self.levels.last().expect("at least two levels");
        let spacing = if self.levels.len() > 1 {
            (hi - lo) / (self.levels.len() - 1) as f64
        } else {
            0.0
        };
        let sum: f64 = input.iter().map(|r| r[self.column]).sum();
        let jitter = (sum * 0.618_033_988_749).fract().abs() * spacing;

        let mut out = Vec::new();
        for &k in &self.suffix_lengths {
            let k = k.min(input.len());
            if k == 0 {
                continue;
            }
            for &level in &self.levels {
                let level = (level + jitter).clamp(lo, hi);
                let mut cand = input.clone();
                for row in cand.iter_mut().rev().take(k) {
                    row[self.column] = level;
                }
                out.push(cand);
            }
        }
        out
    }
}

/// Transformer that adds a constant offset to the last `k` CGM cells,
/// clamping into the manipulation range — a subtler edit than overwriting.
#[derive(Debug, Clone)]
pub struct CgmShiftSuffix {
    column: usize,
    deltas: Vec<f64>,
    suffix_lengths: Vec<usize>,
    lo: f64,
    hi: f64,
}

impl CgmShiftSuffix {
    /// Builds the transformer from an attack configuration and fasting state.
    pub fn from_config(cfg: &CgmAttackConfig, fasting: bool) -> Self {
        let (lo, hi) = cfg.manipulation_range(fasting);
        Self {
            column: cfg.cgm_column,
            deltas: vec![20.0, 50.0, 100.0, 200.0],
            suffix_lengths: cfg.suffix_lengths.clone(),
            lo,
            hi,
        }
    }
}

impl Transformer<Window> for CgmShiftSuffix {
    fn name(&self) -> &str {
        "cgm-shift-suffix"
    }

    fn candidates(&self, input: &Window) -> Vec<Window> {
        let mut out = Vec::new();
        for &k in &self.suffix_lengths {
            let k = k.min(input.len());
            if k == 0 {
                continue;
            }
            for &d in &self.deltas {
                let mut cand = input.clone();
                for row in cand.iter_mut().rev().take(k) {
                    row[self.column] = (row[self.column] + d).clamp(self.lo, self.hi);
                }
                out.push(cand);
            }
        }
        out
    }
}

/// Constraint enforcing the paper's manipulation rule: every **modified**
/// CGM cell must lie in the allowed range, and no feature other than CGM may
/// change at all.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CgmManipulationConstraint {
    column: usize,
    lo: f64,
    hi: f64,
}

impl CgmManipulationConstraint {
    /// Builds the constraint from an attack configuration and fasting state.
    pub fn from_config(cfg: &CgmAttackConfig, fasting: bool) -> Self {
        let (lo, hi) = cfg.manipulation_range(fasting);
        Self {
            column: cfg.cgm_column,
            lo,
            hi,
        }
    }
}

impl Constraint<Window> for CgmManipulationConstraint {
    fn is_satisfied(&self, original: &Window, candidate: &Window) -> bool {
        if original.len() != candidate.len() {
            return false;
        }
        for (orig, cand) in original.iter().zip(candidate) {
            if orig.len() != cand.len() {
                return false;
            }
            for (j, (&o, &c)) in orig.iter().zip(cand).enumerate() {
                if j == self.column {
                    if c != o && !(self.lo..=self.hi).contains(&c) {
                        return false;
                    }
                } else if c != o {
                    // Only the CGM channel is attacker-controlled.
                    return false;
                }
            }
        }
        true
    }
}

/// The glucose state a prediction falls into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OriginState {
    /// Below the hypoglycemia threshold.
    Hypo,
    /// Between hypo and the applicable hyper threshold.
    Normal,
    /// Above the applicable hyper threshold.
    Hyper,
}

/// One attacked window plus its context.
#[derive(Debug, Clone)]
pub struct WindowOutcome {
    /// Caller-supplied identifier (e.g. window end index in the series).
    pub index: usize,
    /// Whether the victim was fasting.
    pub fasting: bool,
    /// The benign model prediction (mg/dL).
    pub benign_prediction: f64,
    /// State of the benign prediction.
    pub origin: OriginState,
    /// The attack search result.
    pub result: AttackResult<Window>,
}

/// Aggregate statistics over a set of attacked windows — the numbers behind
/// the paper's Appendix-A Figures 9 and 10.
#[derive(Debug, Clone, Default)]
pub struct CampaignReport {
    /// Per-window outcomes.
    pub outcomes: Vec<WindowOutcome>,
}

impl CampaignReport {
    /// Overall attack success rate across attacked (non-hyper-origin)
    /// windows.
    pub fn success_rate(&self) -> Option<f64> {
        let attacked: Vec<&WindowOutcome> = self
            .outcomes
            .iter()
            .filter(|o| o.origin != OriginState::Hyper)
            .collect();
        if attacked.is_empty() {
            return None;
        }
        Some(
            attacked.iter().filter(|o| o.result.achieved).count() as f64
                / attacked.len() as f64,
        )
    }

    /// Total model queries spent by the campaign.
    pub fn total_queries(&self) -> usize {
        self.outcomes.iter().map(|o| o.result.queries).sum()
    }

    /// The campaign an early-exit explorer runs on the same cases: every
    /// outcome's result replaced by its [`AttackResult::early_exit`]. On a
    /// maximizing campaign this reads the minimal manipulations off the
    /// walks already taken; on an early-exit campaign it is the identity.
    pub fn early_exit(&self) -> Self {
        Self {
            outcomes: self
                .outcomes
                .iter()
                .map(|o| WindowOutcome {
                    result: o.result.early_exit(),
                    ..o.clone()
                })
                .collect(),
        }
    }

    /// Every window the attacker actually altered (at least one accepted
    /// transformation step), successful or not, in case order.
    pub fn manipulated_windows(&self) -> Vec<Window> {
        self.outcomes
            .iter()
            .filter(|o| o.result.steps > 0)
            .map(|o| o.result.best_input.clone())
            .collect()
    }
}

/// A window to attack: the benign input plus its fasting state and an
/// identifier for reporting.
#[derive(Debug, Clone)]
pub struct CgmCase {
    /// Caller-supplied identifier (e.g. window end index).
    pub index: usize,
    /// The benign feature window.
    pub window: Window,
    /// Whether the victim is fasting at prediction time.
    pub fasting: bool,
}

/// Attacks one window: builds the paper's transformers/constraint/goal for
/// the window's fasting state and runs the explorer.
pub fn attack_window(
    model: &dyn TargetModel<Window>,
    case: &CgmCase,
    explorer: &GreedyExplorer,
    cfg: &CgmAttackConfig,
) -> WindowOutcome {
    let goal = Goal::PushAbove(cfg.threshold(case.fasting));
    let set = CgmSetSuffix::from_config(cfg, case.fasting);
    let shift = CgmShiftSuffix::from_config(cfg, case.fasting);
    let constraint = CgmManipulationConstraint::from_config(cfg, case.fasting);
    let benign = model.predict(&case.window);
    let result = explorer.explore(
        &case.window,
        benign,
        model,
        &[&set, &shift],
        &[&constraint],
        &goal,
    );
    WindowOutcome {
        index: case.index,
        fasting: case.fasting,
        benign_prediction: benign,
        origin: cfg.origin(benign, case.fasting),
        result,
    }
}

/// Runs a full campaign over many windows, skipping nothing: windows whose
/// benign prediction is already hyperglycemic are recorded (with their
/// trivially-achieved result) but excluded from the success rates.
pub fn run_campaign(
    model: &dyn TargetModel<Window>,
    cases: &[CgmCase],
    explorer: &GreedyExplorer,
    cfg: &CgmAttackConfig,
) -> CampaignReport {
    let _span = lgo_trace::span("attack/campaign");
    // Each case's search is independent and internally seeded, so the
    // per-window fan-out over the lgo-runtime pool returns outcomes in
    // case order, bit-identical to the serial loop it replaces.
    let report = CampaignReport {
        outcomes: lgo_runtime::par_map(cases, |c| {
            attack_window(model, c, explorer, cfg)
        }),
    };
    if lgo_trace::enabled() {
        // Aggregated after the fan-out (serially, in case order) so the
        // counters are pure functions of the outcomes, not the schedule.
        lgo_trace::counter("attack/campaigns", 1);
        lgo_trace::counter("attack/windows", report.outcomes.len() as u64);
        for o in &report.outcomes {
            if o.result.achieved {
                lgo_trace::counter("attack/successes", 1);
            }
            lgo_trace::record("attack/queries_per_window", o.result.queries as u64);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FnModel;

    /// A model that predicts the mean of the CGM column — monotone in the
    /// manipulation, like the real forecaster.
    fn mean_cgm_model() -> FnModel<impl Fn(&Window) -> f64> {
        FnModel::new(|w: &Window| w.iter().map(|r| r[0]).sum::<f64>() / w.len() as f64)
    }

    fn window(level: f64) -> Window {
        (0..12).map(|_| vec![level, 0.0, 0.0, 70.0]).collect()
    }

    #[test]
    fn set_suffix_candidates_only_touch_cgm() {
        let cfg = CgmAttackConfig::default();
        let t = CgmSetSuffix::from_config(&cfg, true);
        let w = window(100.0);
        let cands = t.candidates(&w);
        assert_eq!(cands.len(), 2 * 6); // suffixes × levels
        for c in &cands {
            for (orig, cand) in w.iter().zip(c) {
                assert_eq!(orig[1..], cand[1..], "non-CGM feature touched");
            }
        }
    }

    #[test]
    fn constraint_blocks_out_of_range_and_foreign_edits() {
        let cfg = CgmAttackConfig::default();
        let c = CgmManipulationConstraint::from_config(&cfg, true);
        let w = window(100.0);
        // In-range CGM edit passes.
        let mut ok = w.clone();
        ok[11][0] = 300.0;
        assert!(c.is_satisfied(&w, &ok));
        // Below 125 (fasting floor) fails.
        let mut low = w.clone();
        low[11][0] = 110.0;
        assert!(!c.is_satisfied(&w, &low));
        // Above 499 fails.
        let mut high = w.clone();
        high[11][0] = 600.0;
        assert!(!c.is_satisfied(&w, &high));
        // Touching another feature fails.
        let mut foreign = w.clone();
        foreign[3][2] = 50.0;
        assert!(!c.is_satisfied(&w, &foreign));
        // Unmodified window passes.
        assert!(c.is_satisfied(&w, &w.clone()));
    }

    #[test]
    fn postprandial_range_is_tighter() {
        let cfg = CgmAttackConfig::default();
        assert_eq!(cfg.manipulation_range(true), (125.0, 499.0));
        assert_eq!(cfg.manipulation_range(false), (180.0, 499.0));
        let c = CgmManipulationConstraint::from_config(&cfg, false);
        let w = window(100.0);
        let mut cand = w.clone();
        cand[11][0] = 150.0; // legal while fasting, illegal postprandial
        assert!(!c.is_satisfied(&w, &cand));
    }

    #[test]
    fn attack_succeeds_on_monotone_model() {
        let model = mean_cgm_model();
        let cfg = CgmAttackConfig::default();
        let case = CgmCase {
            index: 0,
            window: window(100.0),
            fasting: true,
        };
        let out = attack_window(&model, &case, &GreedyExplorer::new(8), &cfg);
        assert_eq!(out.origin, OriginState::Normal);
        assert!(out.result.achieved, "mean model should be attackable");
        assert!(out.result.best_output > 125.0);
        // The adversarial window respects the constraint.
        let c = CgmManipulationConstraint::from_config(&cfg, true);
        assert!(c.is_satisfied(&case.window, &out.result.best_input));
    }

    #[test]
    fn origin_classification() {
        let model = mean_cgm_model();
        let cfg = CgmAttackConfig::default();
        let explorer = GreedyExplorer::new(4);
        let hypo = attack_window(
            &model,
            &CgmCase {
                index: 0,
                window: window(60.0),
                fasting: true,
            },
            &explorer,
            &cfg,
        );
        assert_eq!(hypo.origin, OriginState::Hypo);
        let hyper = attack_window(
            &model,
            &CgmCase {
                index: 1,
                window: window(200.0),
                fasting: true,
            },
            &explorer,
            &cfg,
        );
        assert_eq!(hyper.origin, OriginState::Hyper);
        assert_eq!(hyper.result.steps, 0, "already adversarial");
    }

    #[test]
    fn campaign_rates() {
        let model = mean_cgm_model();
        let cfg = CgmAttackConfig::default();
        let cases: Vec<CgmCase> = [60.0, 100.0, 110.0, 200.0]
            .iter()
            .enumerate()
            .map(|(i, &lvl)| CgmCase {
                index: i,
                window: window(lvl),
                fasting: true,
            })
            .collect();
        let report = run_campaign(&model, &cases, &GreedyExplorer::new(8), &cfg);
        assert_eq!(report.outcomes.len(), 4);
        // Mean model is fully attackable: all non-hyper origins succeed.
        assert_eq!(report.success_rate(), Some(1.0));
        assert!(report.total_queries() >= 4);
    }

    #[test]
    fn campaign_with_unattackable_model() {
        // A model that ignores its input cannot be attacked.
        let model = FnModel::new(|_: &Window| 100.0);
        let cfg = CgmAttackConfig::default();
        let cases = vec![CgmCase {
            index: 0,
            window: window(100.0),
            fasting: true,
        }];
        let report = run_campaign(&model, &cases, &GreedyExplorer::new(4), &cfg);
        assert_eq!(report.success_rate(), Some(0.0));
    }

    #[test]
    fn origin_classification_matches_campaign_rule() {
        let cfg = CgmAttackConfig::default();
        assert_eq!(cfg.origin(60.0, true), OriginState::Hypo);
        assert_eq!(cfg.origin(100.0, true), OriginState::Normal);
        assert_eq!(cfg.origin(150.0, true), OriginState::Hyper);
        // Postprandially 150 is still normal (threshold 180).
        assert_eq!(cfg.origin(150.0, false), OriginState::Normal);
    }
}
