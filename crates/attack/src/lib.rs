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
//! - [`TargetModel`] — anything mapping an input to a scalar output; its
//!   [`TargetModel::near`] answers queries around one vertex and may reuse
//!   work they share, but must return [`TargetModel::predict`]'s bits for
//!   every input,
//! - [`Transformer`] — enumerates feasible single-edit neighbours,
//! - [`Constraint`] — domain feasibility (e.g. physiological CGM ranges),
//! - [`Goal`] — what the adversary wants of the model output,
//! - [`GreedyExplorer`] — URET's default best-first graph search, in an
//!   early-exit (minimal manipulation) and a maximizing (worst-case) mode;
//!   a maximizing walk also reports the early-exit result
//!   ([`AttackResult::early_exit`]), since the two walks agree up to the
//!   first goal-reaching vertex.
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
//! use lgo_attack::{FnModel, GreedyExplorer, Goal, TargetModel};
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
//! let input = vec![0.0, 0.0];
//! let result = explorer.explore(
//!     &input,
//!     model.predict(&input),
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

    /// A query function for inputs near `base`. [`GreedyExplorer`] opens
    /// one per step on the vertex it extends and asks it for every
    /// candidate, so a model can keep work it shares across those
    /// neighbours (a forecaster keeps `base`'s forward pass).
    ///
    /// Contract: the function must return [`Self::predict`]'s bits for
    /// every input, near `base` or not — the attack's results may not
    /// depend on which path answered. The default calls `predict`.
    fn near(&self, base: &I) -> Box<dyn Fn(&I) -> f64 + '_> {
        let _ = base;
        Box::new(move |input| self.predict(input))
    }
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
#[derive(Debug, Clone, PartialEq)]
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
    /// Where an early-exit walk would have stopped: the first
    /// goal-reaching vertex of a maximizing walk that went on past it.
    /// `None` when the walk never reached the goal, and on every
    /// early-exit result — see [`Self::early_exit`].
    pub first_hit: Option<FirstHit<I>>,
}

/// The first goal-reaching vertex of a walk, as an early-exit walk returns
/// it.
#[derive(Debug, Clone, PartialEq)]
pub struct FirstHit<I> {
    /// The vertex (the benign input when that already reaches the goal).
    pub input: I,
    /// Model output on [`Self::input`].
    pub output: f64,
    /// Model queries spent up to and including this vertex's.
    pub queries: usize,
    /// The step on which the vertex was queried (0 for the benign input).
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
            first_hit: None,
        }
    }

    /// The result of a walk that stopped at `hit`.
    fn stopped_at(hit: FirstHit<I>) -> Self {
        Self {
            best_input: hit.input,
            best_output: hit.output,
            achieved: true,
            queries: hit.queries,
            steps: hit.steps,
            first_hit: None,
        }
    }

    /// The result an early-exit [`GreedyExplorer`] returns on the same
    /// input, model, transformers, constraints and goal, in every field.
    ///
    /// The two walks are the same walk up to the first goal-reaching
    /// vertex: they query the same candidates in the same order and move
    /// to the same best one, and only early exit stops there. So a
    /// maximizing result that recorded a [`FirstHit`] yields that vertex,
    /// and one that never reached the goal is the early-exit result
    /// itself. On an early-exit result this is the identity.
    pub fn early_exit(&self) -> Self
    where
        I: Clone,
    {
        match &self.first_hit {
            Some(hit) => Self::stopped_at(hit.clone()),
            None => self.clone(),
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

    /// Searches from `input` for an adversarial example. `benign` is the
    /// model's output on `input`, which the caller has already queried; it
    /// counts as the walk's first query. Every candidate consumes one more
    /// query, asked of one [`TargetModel::near`] function per step. A
    /// non-maximizing explorer stops as soon as the goal is achieved
    /// (URET's early-exit behaviour); a maximizing one records where it
    /// would have stopped in [`AttackResult::first_hit`].
    pub fn explore<I: Clone>(
        &self,
        input: &I,
        benign: f64,
        model: &dyn TargetModel<I>,
        transformers: &[&dyn Transformer<I>],
        constraints: &[&dyn Constraint<I>],
        goal: &Goal,
    ) -> AttackResult<I> {
        let mut result = AttackResult::benign(input.clone(), benign, goal);
        if result.achieved {
            let hit = FirstHit {
                input: input.clone(),
                output: benign,
                queries: 1,
                steps: 0,
            };
            if !self.maximizing {
                return AttackResult::stopped_at(hit);
            }
            result.first_hit = Some(hit);
        }
        let mut current = input.clone();
        let mut current_score = goal.score(result.best_output);
        for step in 1..=self.max_steps {
            let query = model.near(&current);
            let mut best: Option<(I, f64)> = None;
            for t in transformers {
                for cand in t.candidates(&current) {
                    if !constraints.iter().all(|c| c.is_satisfied(input, &cand)) {
                        continue;
                    }
                    let out = query(&cand);
                    result.queries += 1;
                    let score = goal.score(out);
                    if goal.achieved(out) && result.first_hit.is_none() {
                        let hit = FirstHit {
                            input: cand.clone(),
                            output: out,
                            queries: result.queries,
                            steps: step,
                        };
                        if !self.maximizing {
                            return AttackResult::stopped_at(hit);
                        }
                        result.first_hit = Some(hit);
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
            0.0,
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
            0.0,
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
            10.0,
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
        let early =
            GreedyExplorer::new(10).explore(&vec![0.0], 0.0, &m, &[&Nudge(1.0)], &[], &goal);
        let maxed =
            GreedyExplorer::maximizing(10).explore(&vec![0.0], 0.0, &m, &[&Nudge(1.0)], &[], &goal);
        assert!(early.achieved && maxed.achieved);
        // Early exit stops just past the threshold; maximizing burns the
        // whole budget.
        assert!(early.best_output <= 3.0 + 1e-12);
        assert_eq!(maxed.best_output, 10.0);
        assert_eq!(maxed.steps, 10);
    }

    #[test]
    fn maximizing_walk_records_the_early_exit_result() {
        let m = sum_model();
        let goal = Goal::PushAbove(2.5);
        let walk =
            |e: GreedyExplorer, x: f64| e.explore(&vec![x], x, &m, &[&Nudge(1.0)], &[], &goal);
        for x in [0.0, 3.0] {
            let early = walk(GreedyExplorer::new(10), x);
            let maxed = walk(GreedyExplorer::maximizing(10), x);
            assert_eq!(early.first_hit, None);
            assert!(maxed.first_hit.is_some());
            assert_eq!(maxed.early_exit(), early, "from {x}");
            assert_eq!(early.early_exit(), early);
        }
        // A walk that never reaches the goal is its own early exit.
        let unreachable = Goal::PushAbove(100.0);
        let walk =
            |e: GreedyExplorer| e.explore(&vec![0.0], 0.0, &m, &[&Nudge(1.0)], &[], &unreachable);
        let (early, maxed) = (
            walk(GreedyExplorer::new(3)),
            walk(GreedyExplorer::maximizing(3)),
        );
        assert_eq!(maxed.first_hit, None);
        assert_eq!(maxed.early_exit(), early);
    }

    #[test]
    fn maximizing_on_already_adversarial_input_still_climbs() {
        let m = sum_model();
        let goal = Goal::PushAbove(2.0);
        let r =
            GreedyExplorer::maximizing(3).explore(&vec![5.0], 5.0, &m, &[&Nudge(1.0)], &[], &goal);
        assert!(r.achieved);
        assert_eq!(r.best_output, 8.0);
    }

    #[test]
    fn result_display_is_informative() {
        let m = sum_model();
        let r = GreedyExplorer::new(3).explore(
            &vec![0.0],
            0.0,
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
