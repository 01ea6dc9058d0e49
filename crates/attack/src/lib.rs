//! # lgo-attack
//!
//! A from-scratch implementation of the algorithmic core of **URET** — the
//! Universal Robustness Evaluation Toolkit for evasion attacks (Eykholt et
//! al., USENIX Security 2023) — which the paper uses to attack the blood
//! glucose forecaster.
//!
//! URET frames evasion as **graph exploration**: vertices are candidate
//! inputs, edges are *input transformations*, and the attacker searches for a
//! path from the benign input to any input that (a) satisfies the domain's
//! feasibility *constraints* and (b) achieves the adversarial *goal* on the
//! target model. This crate provides that frame generically:
//!
//! - [`TargetModel`] — anything mapping an input to a scalar output,
//! - [`Transformer`] — enumerates feasible single-edit neighbours,
//! - [`Constraint`] — domain feasibility (e.g. physiological CGM ranges),
//! - [`Goal`] — what the adversary wants of the model output,
//! - [`GreedyExplorer`] — URET's default best-first graph search, in an
//!   early-exit (minimal manipulation) and a maximizing (worst-case) mode.
//!
//! The [`cgm`] module instantiates the frame for the paper's BGMS case
//! study: transformers that manipulate only the CGM channel of a feature
//! window, constrained to the paper's hyperglycemic ranges
//! (125–499 mg/dL fasting, 180–499 mg/dL postprandial).
//!
//! # Examples
//!
//! Attacking a toy model that averages its input:
//!
//! ```
//! use lgo_attack::{FnModel, GreedyExplorer, Goal};
//! use lgo_attack::{Transformer, Constraint};
//!
//! struct Bump;
//! impl Transformer<Vec<f64>> for Bump {
//!     fn name(&self) -> &str { "bump" }
//!     fn candidates(&self, x: &Vec<f64>) -> Vec<Vec<f64>> {
//!         (0..x.len()).map(|i| {
//!             let mut y = x.clone();
//!             y[i] += 1.0;
//!             y
//!         }).collect()
//!     }
//! }
//!
//! let model = FnModel::new(|x: &Vec<f64>| x.iter().sum::<f64>() / x.len() as f64);
//! let goal = Goal::PushAbove(2.0);
//! let explorer = GreedyExplorer::new(16);
//! let result = explorer.explore(
//!     &vec![0.0, 0.0],
//!     &model,
//!     &[&Bump],
//!     &[],
//!     &goal,
//! );
//! assert!(result.achieved);
//! ```

use std::fmt;

/// A model under attack: maps an input to the scalar the adversary cares
/// about (here: the predicted blood glucose in mg/dL).
///
/// `Sync` is required so campaigns can query one trained model from many
/// lgo-runtime worker threads; inference is read-only, so implementations
/// get this for free unless they smuggle in interior mutability.
pub trait TargetModel<I>: Sync {
    /// Queries the model once.
    fn predict(&self, input: &I) -> f64;
}

/// Adapter turning any closure into a [`TargetModel`].
///
/// # Examples
///
/// ```
/// use lgo_attack::{FnModel, TargetModel};
///
/// let m = FnModel::new(|x: &f64| x * 2.0);
/// assert_eq!(m.predict(&3.0), 6.0);
/// ```
pub struct FnModel<F>(F);

impl<F> FnModel<F> {
    /// Wraps a closure.
    pub fn new(f: F) -> Self {
        Self(f)
    }
}

impl<I, F: Fn(&I) -> f64 + Sync> TargetModel<I> for FnModel<F> {
    fn predict(&self, input: &I) -> f64 {
        (self.0)(input)
    }
}

/// An edge generator of the transformation graph: given a vertex, enumerate
/// feasible single-edit neighbours.
///
/// Implementations should keep each candidate *small* (one conceptual edit);
/// the explorer composes edits into multi-step paths.
pub trait Transformer<I> {
    /// Human-readable transformer name (for reports).
    fn name(&self) -> &str;

    /// The neighbours of `input` under this transformation family.
    fn candidates(&self, input: &I) -> Vec<I>;
}

/// A feasibility predicate comparing a candidate against the original input
/// (so it can constrain *modifications* rather than absolute values).
pub trait Constraint<I> {
    /// Whether `candidate`, derived from `original`, is feasible.
    fn is_satisfied(&self, original: &I, candidate: &I) -> bool;
}

/// The adversarial objective on the model's scalar output.
///
/// # Examples
///
/// ```
/// use lgo_attack::Goal;
///
/// let g = Goal::PushAbove(180.0);
/// assert!(g.achieved(200.0));
/// assert!(g.score(150.0) < g.score(170.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Goal {
    /// Drive the output strictly above a threshold (the paper's goal:
    /// force a hyperglycemia prediction).
    PushAbove(f64),
    /// Drive the output strictly below a threshold (e.g. mask a real
    /// hyperglycemia).
    PushBelow(f64),
}

impl Goal {
    /// Whether `output` satisfies the goal.
    pub fn achieved(&self, output: f64) -> bool {
        match *self {
            Goal::PushAbove(t) => output > t,
            Goal::PushBelow(t) => output < t,
        }
    }

    /// Monotone progress score: higher is closer to (or further past) the
    /// goal. Used by the explorer to rank candidates.
    pub fn score(&self, output: f64) -> f64 {
        match *self {
            Goal::PushAbove(t) => output - t,
            Goal::PushBelow(t) => t - output,
        }
    }
}

/// Outcome of one attack exploration.
#[derive(Debug, Clone)]
pub struct AttackResult<I> {
    /// The best adversarial input found.
    pub best_input: I,
    /// Model output on [`Self::best_input`].
    pub best_output: f64,
    /// Whether the goal was achieved.
    pub achieved: bool,
    /// Number of model queries spent.
    pub queries: usize,
    /// Number of transformation steps on the accepted path.
    pub steps: usize,
}

impl<I> AttackResult<I> {
    fn benign(input: I, output: f64, goal: &Goal) -> Self {
        Self {
            achieved: goal.achieved(output),
            best_input: input,
            best_output: output,
            queries: 1,
            steps: 0,
        }
    }
}

impl<I> fmt::Display for AttackResult<I> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "AttackResult {{ achieved: {}, output: {:.2}, queries: {}, steps: {} }}",
            self.achieved, self.best_output, self.queries, self.steps
        )
    }
}

/// Greedy best-first exploration — URET's default strategy: at each step,
/// evaluate every feasible neighbour and move to the best-scoring one;
/// stop at the goal, a dead end, or the step budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GreedyExplorer {
    max_steps: usize,
    maximizing: bool,
}

impl GreedyExplorer {
    /// Creates a greedy explorer with a maximum path length. It stops as
    /// soon as the goal is achieved (URET's evasion behaviour) — the
    /// adversarial example it returns is a *minimal* manipulation.
    ///
    /// # Panics
    ///
    /// Panics if `max_steps == 0`.
    pub fn new(max_steps: usize) -> Self {
        assert!(max_steps > 0, "GreedyExplorer: max_steps must be positive");
        Self {
            max_steps,
            maximizing: false,
        }
    }

    /// Creates a greedy explorer that keeps climbing for the full budget
    /// even after the goal is achieved, returning the *worst-case*
    /// adversarial example it can find. This is the right mode for risk
    /// quantification, where `Z_t` should measure the maximum prediction
    /// deviation the attack can induce, not the first sufficient one.
    ///
    /// # Panics
    ///
    /// Panics if `max_steps == 0`.
    pub fn maximizing(max_steps: usize) -> Self {
        assert!(max_steps > 0, "GreedyExplorer: max_steps must be positive");
        Self {
            max_steps,
            maximizing: true,
        }
    }

    /// Searches from `input` for an adversarial example. Every candidate
    /// consumes one model query; a non-maximizing explorer stops as soon as
    /// the goal is achieved (URET's early-exit behaviour).
    pub fn explore<I: Clone>(
        &self,
        input: &I,
        model: &dyn TargetModel<I>,
        transformers: &[&dyn Transformer<I>],
        constraints: &[&dyn Constraint<I>],
        goal: &Goal,
    ) -> AttackResult<I> {
        let mut result = AttackResult::benign(input.clone(), model.predict(input), goal);
        if result.achieved && !self.maximizing {
            return result;
        }
        let mut current = input.clone();
        let mut current_score = goal.score(result.best_output);
        for step in 1..=self.max_steps {
            let mut best: Option<(I, f64)> = None;
            for t in transformers {
                for cand in t.candidates(&current) {
                    if !constraints.iter().all(|c| c.is_satisfied(input, &cand)) {
                        continue;
                    }
                    let out = model.predict(&cand);
                    result.queries += 1;
                    let score = goal.score(out);
                    if goal.achieved(out) && !self.maximizing {
                        result.best_input = cand;
                        result.best_output = out;
                        result.achieved = true;
                        result.steps = step;
                        return result;
                    }
                    if best.as_ref().is_none_or(|&(_, s)| score > goal.score(s)) {
                        best = Some((cand, out));
                    }
                }
            }
            match best {
                Some((cand, out)) if goal.score(out) > current_score => {
                    current = cand;
                    current_score = goal.score(out);
                    result.best_input = current.clone();
                    result.best_output = out;
                    result.steps = step;
                    if goal.achieved(out) {
                        result.achieved = true;
                    }
                }
                // Dead end or no improvement: greedy terminates.
                _ => break,
            }
        }
        result
    }
}

pub mod cgm;

#[cfg(test)]
mod tests {
    use super::*;

    /// Transformer on `Vec<f64>`: add ±delta to each coordinate.
    struct Nudge(f64);

    impl Transformer<Vec<f64>> for Nudge {
        fn name(&self) -> &str {
            "nudge"
        }
        fn candidates(&self, x: &Vec<f64>) -> Vec<Vec<f64>> {
            let mut out = Vec::new();
            for i in 0..x.len() {
                for sign in [1.0, -1.0] {
                    let mut y = x.clone();
                    y[i] += sign * self.0;
                    out.push(y);
                }
            }
            out
        }
    }

    /// Constraint: stay inside a box.
    struct Box1 {
        lo: f64,
        hi: f64,
    }

    impl Constraint<Vec<f64>> for Box1 {
        fn is_satisfied(&self, _orig: &Vec<f64>, cand: &Vec<f64>) -> bool {
            cand.iter().all(|&v| (self.lo..=self.hi).contains(&v))
        }
    }

    fn sum_model() -> FnModel<impl Fn(&Vec<f64>) -> f64> {
        FnModel::new(|x: &Vec<f64>| x.iter().sum::<f64>())
    }

    #[test]
    fn goal_semantics() {
        let g = Goal::PushBelow(0.0);
        assert!(g.achieved(-1.0));
        assert!(!g.achieved(0.0));
        assert!(g.score(-2.0) > g.score(-1.0));
    }

    #[test]
    fn greedy_reaches_goal() {
        let m = sum_model();
        let r = GreedyExplorer::new(20).explore(
            &vec![0.0, 0.0],
            &m,
            &[&Nudge(1.0)],
            &[],
            &Goal::PushAbove(5.0),
        );
        assert!(r.achieved);
        assert!(r.best_output > 5.0);
        assert!(r.steps <= 20);
        assert!(r.queries > 0);
    }

    #[test]
    fn greedy_respects_constraints() {
        let m = sum_model();
        let bx = Box1 { lo: -1.0, hi: 1.0 };
        let r = GreedyExplorer::new(50).explore(
            &vec![0.0, 0.0],
            &m,
            &[&Nudge(1.0)],
            &[&bx],
            &Goal::PushAbove(5.0),
        );
        // Max achievable sum under the box is 2.0 < 5.0.
        assert!(!r.achieved);
        assert!(r.best_input.iter().all(|&v| v.abs() <= 1.0));
        assert!(r.best_output <= 2.0 + 1e-12);
    }

    #[test]
    fn already_adversarial_input_returns_immediately() {
        let m = sum_model();
        let r = GreedyExplorer::new(5).explore(
            &vec![10.0],
            &m,
            &[&Nudge(1.0)],
            &[],
            &Goal::PushAbove(5.0),
        );
        assert!(r.achieved);
        assert_eq!(r.queries, 1);
        assert_eq!(r.steps, 0);
    }

    #[test]
    fn maximizing_greedy_keeps_climbing_past_goal() {
        let m = sum_model();
        let goal = Goal::PushAbove(2.0);
        let early = GreedyExplorer::new(10).explore(&vec![0.0], &m, &[&Nudge(1.0)], &[], &goal);
        let maxed =
            GreedyExplorer::maximizing(10).explore(&vec![0.0], &m, &[&Nudge(1.0)], &[], &goal);
        assert!(early.achieved && maxed.achieved);
        // Early exit stops just past the threshold; maximizing burns the
        // whole budget.
        assert!(early.best_output <= 3.0 + 1e-12);
        assert_eq!(maxed.best_output, 10.0);
        assert_eq!(maxed.steps, 10);
    }

    #[test]
    fn maximizing_on_already_adversarial_input_still_climbs() {
        let m = sum_model();
        let goal = Goal::PushAbove(2.0);
        let r = GreedyExplorer::maximizing(3).explore(&vec![5.0], &m, &[&Nudge(1.0)], &[], &goal);
        assert!(r.achieved);
        assert_eq!(r.best_output, 8.0);
    }

    #[test]
    fn result_display_is_informative() {
        let m = sum_model();
        let r = GreedyExplorer::new(3).explore(
            &vec![0.0],
            &m,
            &[&Nudge(1.0)],
            &[],
            &Goal::PushAbove(100.0),
        );
        let s = r.to_string();
        assert!(s.contains("achieved: false"));
        assert!(s.contains("queries"));
    }

    #[test]
    #[should_panic(expected = "max_steps")]
    fn greedy_rejects_zero_budget() {
        let _ = GreedyExplorer::new(0);
    }
}
