use lgo_tensor::Matrix;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::activation::Activation;
use crate::dense::Dense;
use crate::error::TrainError;
use crate::loss::Loss;
use crate::lstm::{LstmCell, LstmTrace};
use crate::optimizer::{clip_global_norm, Adam, Trainable};

/// Recovery attempts [`BiLstmRegressor::try_fit`] makes before reporting
/// [`TrainError::Diverged`].
pub const DEFAULT_MAX_RECOVERIES: usize = 3;

/// A bidirectional-LSTM regressor: the architecture of the Rubin-Falcone
/// et al. blood-glucose forecaster that the paper uses as the target DNN.
///
/// A forward LSTM reads the window left-to-right, a backward LSTM reads it
/// right-to-left; their final hidden states are concatenated and mapped to a
/// scalar by a linear head.
///
/// # Examples
///
/// ```
/// use lgo_nn::BiLstmRegressor;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(3);
/// let model = BiLstmRegressor::new(2, 8, &mut rng);
/// let window = vec![vec![0.5, 0.1]; 12];
/// let y = model.predict(&window);
/// assert!(y.is_finite());
/// ```
#[derive(Debug, Clone)]
pub struct BiLstmRegressor {
    fwd: LstmCell,
    bwd: LstmCell,
    head: Dense,
}

/// One training record: an input window and its scalar regression target.
pub type SeqSample = (Vec<Vec<f64>>, f64);

impl BiLstmRegressor {
    /// Creates a regressor for `input`-dim feature rows with `hidden` units
    /// per direction.
    ///
    /// # Panics
    ///
    /// Panics if either size is zero.
    pub fn new<R: RngExt + ?Sized>(input: usize, hidden: usize, rng: &mut R) -> Self {
        Self {
            fwd: LstmCell::new(input, hidden, rng),
            bwd: LstmCell::new(input, hidden, rng),
            head: Dense::new(2 * hidden, 1, Activation::Identity, rng),
        }
    }

    /// Input dimensionality expected per timestep.
    pub fn input_size(&self) -> usize {
        self.fwd.input_size()
    }

    /// Hidden units per direction.
    pub fn hidden_size(&self) -> usize {
        self.fwd.hidden_size()
    }

    /// Predicts the regression target for one window (pure inference).
    ///
    /// # Panics
    ///
    /// Panics if the window is empty or a row width mismatches.
    pub fn predict(&self, window: &[Vec<f64>]) -> f64 {
        assert!(!window.is_empty(), "predict: empty window");
        self.evaluate(window).prediction()
    }

    /// One forward pass over `window` that keeps what its input gradients
    /// need: both directions' traces and the head's pre-activation and
    /// output. [`BiLstmEvaluation::prediction`] has [`Self::predict`]'s
    /// bits, and [`BiLstmEvaluation::input_gradients`] has
    /// [`Self::input_gradients`]'s bits without running the window forward
    /// again — a gradient attack reads the next step's gradient off the
    /// candidate it already forecast.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty or a row width mismatches.
    pub fn evaluate(&self, window: &[Vec<f64>]) -> BiLstmEvaluation<'_> {
        assert!(!window.is_empty(), "evaluate: empty window");
        let (fwd, bwd) = self.traces(window);
        let (mut pre, mut pred) = ([0.0], [0.0]);
        self.head
            .forward_into(&concat_last(&fwd, &bwd), &mut pre, &mut pred);
        BiLstmEvaluation {
            model: self,
            fwd,
            bwd,
            pre,
            pred,
        }
    }

    /// The forward direction's trace over `window`: the prefix
    /// [`Self::predict_resumed`] continues from.
    pub fn forward_trace(&self, window: &[Vec<f64>]) -> LstmTrace {
        self.fwd.forward_seq(window)
    }

    /// [`Self::predict`] on `window` when its first `keep` rows are the
    /// first `keep` rows `prefix` (a [`Self::forward_trace`]) ran over. The
    /// forward direction resumes after them
    /// ([`LstmCell::resume_rows`]); the backward direction, which reaches
    /// the differing rows first, runs in full. The result has
    /// `predict(window)`'s bits: every step reads the same operands.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty, `keep` exceeds the window or the
    /// prefix, or a row width mismatches.
    pub fn predict_resumed(&self, prefix: &LstmTrace, keep: usize, window: &[&[f64]]) -> f64 {
        assert!(!window.is_empty(), "predict_resumed: empty window");
        let fwd = self
            .fwd
            .resume_rows(prefix, keep, window[keep..].iter().copied());
        let bwd = self.bwd.forward_rows(window.iter().rev().copied());
        // Nothing to resume when the whole window is the prefix's rows.
        let last_f = if fwd.is_empty() {
            prefix.hidden(keep - 1)
        } else {
            fwd.last_hidden()
        };
        let mut cat = last_f.to_vec();
        cat.extend_from_slice(bwd.last_hidden());
        self.head.infer(&cat)[0]
    }

    /// Forward traces of both directions; the backward direction reads the
    /// window right-to-left without copying it.
    fn traces(&self, window: &[Vec<f64>]) -> (LstmTrace, LstmTrace) {
        (
            self.fwd.forward_seq(window),
            self.bwd
                .forward_rows(window.iter().rev().map(Vec::as_slice)),
        )
    }

    /// Gradient of the prediction with respect to every input cell:
    /// `out[t][j] = d predict(window) / d window[t][j]`
    /// ([`Self::evaluate`] then [`BiLstmEvaluation::input_gradients`]).
    ///
    /// Unlike [`Self::accumulate`], this is a *pure* pass through `&self` —
    /// parameter-gradient accumulators are untouched — so a deployed model
    /// shared across threads can serve white-box gradient attacks (FGSM,
    /// BIM, PGD, CW) from concurrent campaigns.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty or a row width mismatches.
    pub fn input_gradients(&self, window: &[Vec<f64>]) -> Vec<Vec<f64>> {
        assert!(!window.is_empty(), "input_gradients: empty window");
        self.evaluate(window).input_gradients()
    }

    /// Forward + backward for a single `(window, target)` sample under the
    /// given loss; gradients accumulate. Returns the sample loss.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty.
    pub fn accumulate(&mut self, window: &[Vec<f64>], target: f64, loss: Loss) -> f64 {
        assert!(!window.is_empty(), "accumulate: empty window");
        let (n, h) = (window.len(), self.hidden_size());
        let traces = self.traces(window);
        let cat = concat_last(&traces.0, &traces.1);
        let (mut pre, mut pred) = ([0.0], [0.0]);
        self.head.forward_into(&cat, &mut pre, &mut pred);
        let l = loss.value(pred[0], target);
        let dpred = loss.gradient(pred[0], target);
        let mut dcat = vec![0.0; 2 * h];
        self.head
            .backward_into(&cat, &pre, &pred, &[dpred], &mut dcat);

        let mut dh = vec![0.0; n * h];
        dh[(n - 1) * h..].copy_from_slice(&dcat[..h]);
        self.fwd.backward_seq(&traces.0, &dh);
        dh[(n - 1) * h..].copy_from_slice(&dcat[h..]);
        self.bwd.backward_seq(&traces.1, &dh);
        l
    }

    /// Trains with Adam over mini-batches for `epochs` passes, clipping the
    /// global gradient norm at 5.0. Returns the mean training loss per epoch.
    ///
    /// The sample order is fixed (chronological), matching how the paper's
    /// forecaster treats its time series.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty, `batch_size == 0`, `epochs == 0`, or
    /// training diverges beyond recovery (see
    /// [`try_fit`](Self::try_fit) for the non-panicking form).
    pub fn fit(
        &mut self,
        samples: &[SeqSample],
        epochs: usize,
        batch_size: usize,
        lr: f64,
    ) -> Vec<f64> {
        match self.try_fit(samples, epochs, batch_size, lr) {
            Ok(history) => history,
            // lint: allow(L1): documented panicking wrapper; try_fit is the checked path
            Err(e) => panic!("fit: {e}"),
        }
    }

    /// Fallible [`fit`](Self::fit) with divergence recovery:
    /// [`try_fit_with_recoveries`](Self::try_fit_with_recoveries) with the
    /// default budget of [`DEFAULT_MAX_RECOVERIES`] attempts.
    ///
    /// # Errors
    ///
    /// See [`try_fit_with_recoveries`](Self::try_fit_with_recoveries).
    pub fn try_fit(
        &mut self,
        samples: &[SeqSample],
        epochs: usize,
        batch_size: usize,
        lr: f64,
    ) -> Result<Vec<f64>, TrainError> {
        self.try_fit_with_recoveries(samples, epochs, batch_size, lr, DEFAULT_MAX_RECOVERIES)
    }

    /// Trains like [`fit`](Self::fit) but detects non-finite losses
    /// mid-epoch and recovers instead of poisoning the model:
    ///
    /// 1. the failing epoch's partial updates are discarded by rolling the
    ///    parameters back to the last epoch that finished with a finite
    ///    loss (or a fresh deterministic re-initialization when the very
    ///    first epoch diverges),
    /// 2. the learning rate is halved and the gradient-norm clip
    ///    tightened (halved) for all subsequent epochs, and
    /// 3. the epoch is retried, up to `max_recoveries` times across the
    ///    whole run.
    ///
    /// Returns the per-epoch mean training losses (finite by
    /// construction).
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::NoSamples`] / [`TrainError::ZeroBatchSize`] /
    /// [`TrainError::ZeroEpochs`] for degenerate arguments, and
    /// [`TrainError::Diverged`] when the recovery budget is exhausted; the
    /// model is left at its last finite state in that case.
    pub fn try_fit_with_recoveries(
        &mut self,
        samples: &[SeqSample],
        epochs: usize,
        batch_size: usize,
        lr: f64,
        max_recoveries: usize,
    ) -> Result<Vec<f64>, TrainError> {
        if samples.is_empty() {
            return Err(TrainError::NoSamples);
        }
        if batch_size == 0 {
            return Err(TrainError::ZeroBatchSize);
        }
        if epochs == 0 {
            return Err(TrainError::ZeroEpochs);
        }
        let (input, hidden) = (self.input_size(), self.hidden_size());
        let mut cur_lr = lr;
        let mut clip = 5.0;
        let mut recoveries = 0usize;
        let mut opt = Adam::new(cur_lr);
        let mut history = Vec::with_capacity(epochs);
        // Snapshot of the parameters after the last finite epoch (None
        // until one completes — recovery then re-initializes instead).
        let mut good: Option<Vec<Matrix>> = None;
        let mut epoch = 0;
        while epoch < epochs {
            let mut total = 0.0;
            let mut finite = true;
            'batches: for batch in samples.chunks(batch_size) {
                self.zero_grads();
                for (w, y) in batch {
                    let l = self.accumulate(w, *y, Loss::Mse);
                    if !l.is_finite() {
                        finite = false;
                        break 'batches;
                    }
                    total += l;
                }
                // Average over the batch so the lr is batch-size invariant.
                let scale = 1.0 / batch.len() as f64;
                self.visit_params(&mut |_, g| g.map_inplace(|x| x * scale));
                clip_global_norm(self, clip);
                opt.step(self);
            }
            if finite {
                good = Some(self.param_snapshot());
                history.push(total / samples.len() as f64);
                epoch += 1;
                continue;
            }
            // Divergence: roll back, back off, retry this epoch.
            match &good {
                Some(snap) => self.restore_params(snap),
                None => {
                    // No finite epoch yet — restart from a fresh
                    // deterministic initialization instead.
                    let mut rng = StdRng::seed_from_u64(0x6c67_6f00 + recoveries as u64);
                    *self = Self::new(input, hidden, &mut rng);
                }
            }
            if recoveries >= max_recoveries {
                return Err(TrainError::Diverged { epoch, recoveries });
            }
            recoveries += 1;
            cur_lr *= 0.5;
            clip *= 0.5;
            opt = Adam::new(cur_lr);
        }
        Ok(history)
    }

    /// Clones every parameter matrix (not gradients).
    fn param_snapshot(&mut self) -> Vec<Matrix> {
        let mut snap = Vec::new();
        self.visit_params(&mut |p, _| snap.push(p.clone()));
        snap
    }

    /// Writes a [`param_snapshot`](Self::param_snapshot) back.
    fn restore_params(&mut self, snap: &[Matrix]) {
        let mut i = 0;
        self.visit_params(&mut |p, _| {
            p.clone_from(&snap[i]);
            i += 1;
        });
    }
}

/// The head input: both directions' final hidden states, concatenated.
fn concat_last(trace_f: &LstmTrace, trace_b: &LstmTrace) -> Vec<f64> {
    let mut cat = trace_f.last_hidden().to_vec();
    cat.extend_from_slice(trace_b.last_hidden());
    cat
}

/// One kept forward pass of a [`BiLstmRegressor`]: see
/// [`BiLstmRegressor::evaluate`].
#[derive(Debug, Clone)]
pub struct BiLstmEvaluation<'a> {
    model: &'a BiLstmRegressor,
    fwd: LstmTrace,
    bwd: LstmTrace,
    pre: [f64; 1],
    pred: [f64; 1],
}

impl BiLstmEvaluation<'_> {
    /// The prediction: [`BiLstmRegressor::predict`]'s bits.
    pub fn prediction(&self) -> f64 {
        self.pred[0]
    }

    /// Gradient of the prediction with respect to every input cell,
    /// backpropagated through the kept traces:
    /// [`BiLstmRegressor::input_gradients`]'s bits.
    pub fn input_gradients(&self) -> Vec<Vec<f64>> {
        let model = self.model;
        let (n, h, x) = (self.fwd.len(), model.hidden_size(), model.input_size());
        let mut dcat = vec![0.0; 2 * h];
        model
            .head
            .input_grad_into(&self.pre, &self.pred, &[1.0], &mut dcat);

        // Only the final hidden state of each direction feeds the head.
        let mut dh = vec![0.0; n * h];
        dh[(n - 1) * h..].copy_from_slice(&dcat[..h]);
        let dx_f = model.fwd.input_grad_seq(&self.fwd, &dh);
        dh[(n - 1) * h..].copy_from_slice(&dcat[h..]);
        let dx_b = model.bwd.input_grad_seq(&self.bwd, &dh);

        // The backward direction consumed the reversed window, so its
        // per-timestep gradients come back in reversed time order:
        // dx_b[t] is w.r.t. window[n - 1 - t]. Un-reverse and sum.
        let mut out: Vec<Vec<f64>> = dx_f.chunks_exact(x).map(<[f64]>::to_vec).collect();
        for (t, db) in dx_b.chunks_exact(x).enumerate() {
            for (o, d) in out[n - 1 - t].iter_mut().zip(db) {
                *o += d;
            }
        }
        out
    }
}

impl Trainable for BiLstmRegressor {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
        self.fwd.visit_params(f);
        self.bwd.visit_params(f);
        self.head.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn model(input: usize, hidden: usize) -> BiLstmRegressor {
        let mut rng = StdRng::seed_from_u64(5);
        BiLstmRegressor::new(input, hidden, &mut rng)
    }

    /// The mean of a window's first feature — an easy target the BiLSTM must
    /// learn quickly.
    fn mean_task(n: usize) -> Vec<SeqSample> {
        let mut rng = StdRng::seed_from_u64(77);
        (0..n)
            .map(|_| {
                use rand::RngExt;
                let w: Vec<Vec<f64>> =
                    (0..6).map(|_| vec![rng.random_range(-1.0..1.0)]).collect();
                let y = w.iter().map(|r| r[0]).sum::<f64>() / 6.0;
                (w, y)
            })
            .collect()
    }

    /// Mean squared error of `m` over `samples`.
    fn mse(m: &BiLstmRegressor, samples: &[SeqSample]) -> f64 {
        let se: f64 = samples
            .iter()
            .map(|(w, y)| {
                let p = m.predict(w);
                (p - y) * (p - y)
            })
            .sum();
        se / samples.len() as f64
    }

    #[test]
    fn predict_is_deterministic() {
        let m = model(2, 4);
        let w = vec![vec![0.1, -0.2]; 5];
        assert_eq!(m.predict(&w), m.predict(&w));
    }

    #[test]
    fn resumed_prediction_matches_predict_bitwise() {
        let m = model(1, 6);
        let base = mean_task(1).remove(0).0;
        let prefix = m.forward_trace(&base);
        for keep in 0..=base.len() {
            let mut w = base.clone();
            for row in &mut w[keep..] {
                row[0] += 0.25;
            }
            let rows: Vec<&[f64]> = w.iter().map(Vec::as_slice).collect();
            assert_eq!(
                m.predict_resumed(&prefix, keep, &rows).to_bits(),
                m.predict(&w).to_bits(),
                "keep {keep}"
            );
        }
    }

    /// The two-pass form the kept evaluation replaced: `predict` runs both
    /// directions forward, and the gradient runs them forward again before
    /// backpropagating.
    fn two_pass(m: &BiLstmRegressor, w: &[Vec<f64>]) -> (f64, Vec<Vec<f64>>) {
        let (fwd, bwd) = m.traces(w);
        let prediction = m.head.infer(&concat_last(&fwd, &bwd))[0];
        let (fwd, bwd) = m.traces(w);
        let (n, h) = (w.len(), m.hidden_size());
        let (mut pre, mut pred) = ([0.0], [0.0]);
        m.head
            .forward_into(&concat_last(&fwd, &bwd), &mut pre, &mut pred);
        let mut dcat = vec![0.0; 2 * h];
        m.head.input_grad_into(&pre, &pred, &[1.0], &mut dcat);
        let mut dh = vec![0.0; n * h];
        dh[(n - 1) * h..].copy_from_slice(&dcat[..h]);
        let dx_f = m.fwd.input_grad_seq(&fwd, &dh);
        dh[(n - 1) * h..].copy_from_slice(&dcat[h..]);
        let dx_b = m.bwd.input_grad_seq(&bwd, &dh);
        let x = m.input_size();
        let mut grads: Vec<Vec<f64>> = dx_f.chunks_exact(x).map(<[f64]>::to_vec).collect();
        for (t, db) in dx_b.chunks_exact(x).enumerate() {
            for (o, d) in grads[n - 1 - t].iter_mut().zip(db) {
                *o += d;
            }
        }
        (prediction, grads)
    }

    #[test]
    fn evaluation_matches_the_two_pass_form_bitwise() {
        let m = model(2, 5);
        for len in [1, 2, 6] {
            let w: Vec<Vec<f64>> = (0..len)
                .map(|t| vec![(t as f64 * 0.7).sin(), (t as f64 * 0.3).cos()])
                .collect();
            let (prediction, grads) = two_pass(&m, &w);
            let eval = m.evaluate(&w);
            assert_eq!(eval.prediction().to_bits(), prediction.to_bits());
            assert_eq!(m.predict(&w).to_bits(), prediction.to_bits());
            let bits = |g: &[Vec<f64>]| g.iter().flatten().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&eval.input_gradients()), bits(&grads), "len {len}");
            assert_eq!(bits(&m.input_gradients(&w)), bits(&grads), "len {len}");
        }
    }

    #[test]
    fn direction_matters() {
        // An asymmetric window must produce a different prediction reversed,
        // proving both directions contribute.
        let m = model(1, 4);
        let w: Vec<Vec<f64>> = (0..6).map(|t| vec![t as f64 / 6.0]).collect();
        let rev: Vec<Vec<f64>> = w.iter().rev().cloned().collect();
        assert_ne!(m.predict(&w), m.predict(&rev));
    }

    #[test]
    fn gradient_check_through_whole_model() {
        let mut m = model(1, 3);
        let w: Vec<Vec<f64>> = vec![vec![0.2], vec![-0.4], vec![0.6]];
        let target = 0.3;
        m.zero_grads();
        m.accumulate(&w, target, Loss::Mse);

        // Finite-difference check on a handful of parameters via the visitor.
        let eps = 1e-6;
        let loss_of = |m: &BiLstmRegressor| {
            let p = m.predict(&w);
            (p - target) * (p - target)
        };
        let mut idx = 0;
        let mut checks: Vec<(usize, usize, f64)> = Vec::new();
        m.visit_params(&mut |p, g| {
            // first entry of every parameter matrix
            if !p.is_empty() {
                checks.push((idx, 0, g.as_slice()[0]));
            }
            idx += 1;
        });
        for (pi, ei, analytic) in checks {
            let mut mp = m.clone();
            let mut mm = m.clone();
            let mut k = 0;
            mp.visit_params(&mut |p, _| {
                if k == pi {
                    p.as_mut_slice()[ei] += eps;
                }
                k += 1;
            });
            k = 0;
            mm.visit_params(&mut |p, _| {
                if k == pi {
                    p.as_mut_slice()[ei] -= eps;
                }
                k += 1;
            });
            let numeric = (loss_of(&mp) - loss_of(&mm)) / (2.0 * eps);
            assert!(
                (numeric - analytic).abs() < 1e-5,
                "param {pi}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn learns_window_mean() {
        let samples = mean_task(64);
        let mut m = model(1, 6);
        let before = mse(&m, &samples);
        let history = m.fit(&samples, 30, 8, 0.01);
        let after = mse(&m, &samples);
        assert!(
            after < before * 0.2,
            "no learning: before {before}, after {after}"
        );
        assert!(history.last().unwrap() < &history[0]);
    }

    #[test]
    #[should_panic(expected = "empty window")]
    fn predict_rejects_empty_window() {
        let _ = model(1, 2).predict(&[]);
    }

    #[test]
    fn try_fit_rejects_degenerate_arguments() {
        let mut m = model(1, 2);
        let samples = mean_task(4);
        assert_eq!(m.try_fit(&[], 1, 1, 0.01), Err(TrainError::NoSamples));
        assert_eq!(
            m.try_fit(&samples, 1, 0, 0.01),
            Err(TrainError::ZeroBatchSize)
        );
        assert_eq!(m.try_fit(&samples, 0, 1, 0.01), Err(TrainError::ZeroEpochs));
    }

    #[test]
    // The two divergence tests below intentionally push NaN through the
    // forward pass to exercise graceful recovery; under strict-numerics the
    // sanitizers abort at the first non-finite value by design, so the
    // recovery path cannot be reached (see lgo_tensor::sanitize).
    #[cfg(not(all(feature = "strict-numerics", debug_assertions)))]
    fn try_fit_recovers_from_poisoned_initialization() {
        // Poison every parameter with NaN: the first epoch must produce a
        // non-finite loss, and recovery must re-initialize and converge.
        let mut m = model(1, 4);
        m.visit_params(&mut |p, _| p.map_inplace(|_| f64::NAN));
        let samples = mean_task(32);
        let history = m
            .try_fit(&samples, 5, 8, 0.01)
            .expect("recovery should succeed");
        assert_eq!(history.len(), 5);
        assert!(history.iter().all(|l| l.is_finite()));
        assert!(mse(&m, &samples).is_finite());
    }

    #[test]
    #[cfg(not(all(feature = "strict-numerics", debug_assertions)))]
    fn try_fit_reports_unrecoverable_divergence() {
        // A NaN target makes every retry diverge; the budget must bound the
        // attempts and the model must come back finite (rolled back).
        let mut m = model(1, 3);
        let mut samples = mean_task(8);
        samples[0].1 = f64::NAN;
        let err = m.try_fit(&samples, 3, 4, 0.01).unwrap_err();
        assert_eq!(
            err,
            TrainError::Diverged {
                epoch: 0,
                recoveries: DEFAULT_MAX_RECOVERIES
            }
        );
        // The rollback leaves usable (finite) parameters behind.
        let mut all_finite = true;
        m.visit_params(&mut |p, _| {
            all_finite &= p.as_slice().iter().all(|v| v.is_finite());
        });
        assert!(all_finite, "diverged model must be left at a finite state");
    }

    #[test]
    fn try_fit_matches_plain_accumulate_loop_bitwise() {
        let samples = mean_task(12);
        let mut fitted = model(1, 4);
        let mut reference = fitted.clone();
        let hb = fitted.try_fit(&samples, 2, 4, 0.01).unwrap();
        // Reference: a plain minibatch loop without the recovery
        // bookkeeping — one accumulate per sample, in order.
        let mut opt = Adam::new(0.01);
        let mut href = Vec::new();
        for _ in 0..2 {
            let mut total = 0.0;
            for batch in samples.chunks(4) {
                reference.zero_grads();
                for (w, y) in batch {
                    total += reference.accumulate(w, *y, Loss::Mse);
                }
                let scale = 1.0 / batch.len() as f64;
                reference.visit_params(&mut |_, g| g.map_inplace(|x| x * scale));
                clip_global_norm(&mut reference, 5.0);
                opt.step(&mut reference);
            }
            href.push(total / samples.len() as f64);
        }
        for (a, b) in hb.iter().zip(&href) {
            assert_eq!(a.to_bits(), b.to_bits(), "loss history diverged");
        }
        let mut pa = Vec::new();
        fitted.visit_params(&mut |p, _| pa.push(p.clone()));
        let mut pb = Vec::new();
        reference.visit_params(&mut |p, _| pb.push(p.clone()));
        for (a, b) in pa.iter().zip(&pb) {
            for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "parameters diverged");
            }
        }
    }

    #[test]
    fn fit_matches_try_fit_on_clean_data() {
        let samples = mean_task(16);
        let mut a = model(1, 4);
        let mut b = model(1, 4);
        let ha = a.fit(&samples, 3, 4, 0.01);
        let hb = b.try_fit(&samples, 3, 4, 0.01).unwrap();
        assert_eq!(ha, hb);
    }

    #[test]
    fn param_count_matches_architecture() {
        let mut m = model(2, 4);
        // Each LSTM: (16x2 + 16x4 + 16) = 112; head: (1x8 + 1) = 9.
        assert_eq!(m.param_count(), 112 * 2 + 9);
    }
}
