use lgo_tensor::Matrix;
use rand::RngExt;

use crate::activation::{sigmoid, tanh};
use crate::init;
use crate::optimizer::Trainable;

/// The hidden state carried between GRU steps.
#[derive(Debug, Clone, PartialEq)]
pub struct GruState {
    /// Hidden state.
    pub h: Vec<f64>,
}

impl GruState {
    /// The all-zero initial state for a cell of width `hidden`.
    pub fn zeros(hidden: usize) -> Self {
        Self {
            h: vec![0.0; hidden],
        }
    }
}

/// Per-timestep cache retained for backpropagation through time.
#[derive(Debug, Clone)]
struct StepCache {
    x: Vec<f64>,
    h_prev: Vec<f64>,
    r: Vec<f64>,
    z: Vec<f64>,
    n: Vec<f64>,
    hn_pre: Vec<f64>, // W_hn h_prev + b_hn (needed for the reset-gate path)
    h: Vec<f64>,
}

/// The forward trace of a sequence through a [`GruCell`], consumed by
/// [`GruCell::backward_seq`].
#[derive(Debug, Clone)]
pub struct GruTrace {
    steps: Vec<StepCache>,
}

impl GruTrace {
    /// Number of timesteps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Hidden state after timestep `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn hidden(&self, t: usize) -> &[f64] {
        &self.steps[t].h
    }

    /// Hidden state after the final timestep.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty.
    pub fn last_hidden(&self) -> &[f64] {
        // lint: allow(L1): documented # Panics contract on an empty trace
        &self.steps.last().expect("GruTrace::last_hidden on empty trace").h
    }

    /// All hidden states.
    pub fn hiddens(&self) -> Vec<Vec<f64>> {
        self.steps.iter().map(|s| s.h.clone()).collect()
    }
}

/// A gated recurrent unit (Cho et al., 2014) with full backpropagation
/// through time — the lighter alternative to [`crate::LstmCell`], used by
/// the architecture ablation of the forecaster.
///
/// Gate layout (PyTorch convention):
///
/// ```text
/// r = σ(W_ir x + b_ir + W_hr h + b_hr)        reset gate
/// z = σ(W_iz x + b_iz + W_hz h + b_hz)        update gate
/// n = tanh(W_in x + b_in + r ⊙ (W_hn h + b_hn))   candidate
/// h' = (1 − z) ⊙ n + z ⊙ h
/// ```
///
/// # Examples
///
/// ```
/// use lgo_nn::GruCell;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let cell = GruCell::new(3, 8, &mut rng);
/// let trace = cell.forward_seq(&vec![vec![0.1, 0.2, 0.3]; 5]);
/// assert_eq!(trace.last_hidden().len(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct GruCell {
    input: usize,
    hidden: usize,
    w_x: Matrix, // (3H, X): blocks r|z|n
    w_h: Matrix, // (3H, H)
    b_x: Matrix, // (3H, 1)
    b_h: Matrix, // (3H, 1)
    gw_x: Matrix,
    gw_h: Matrix,
    gb_x: Matrix,
    gb_h: Matrix,
}

impl GruCell {
    /// Creates a cell mapping `input`-dim vectors to an `hidden`-dim state.
    ///
    /// # Panics
    ///
    /// Panics if either size is zero.
    pub fn new<R: RngExt + ?Sized>(input: usize, hidden: usize, rng: &mut R) -> Self {
        assert!(input > 0 && hidden > 0, "GruCell::new: zero-sized cell");
        Self {
            input,
            hidden,
            w_x: init::xavier_uniform(3 * hidden, input, rng),
            w_h: init::recurrent(3 * hidden, hidden, rng),
            b_x: Matrix::zeros(3 * hidden, 1),
            b_h: Matrix::zeros(3 * hidden, 1),
            gw_x: Matrix::zeros(3 * hidden, input),
            gw_h: Matrix::zeros(3 * hidden, hidden),
            gb_x: Matrix::zeros(3 * hidden, 1),
            gb_h: Matrix::zeros(3 * hidden, 1),
        }
    }

    /// Input dimensionality.
    pub fn input_size(&self) -> usize {
        self.input
    }

    /// Hidden-state dimensionality.
    pub fn hidden_size(&self) -> usize {
        self.hidden
    }

    /// One timestep from `h_prev`: the gate products and nonlinearities,
    /// retained for backpropagation.
    fn step_internal(&self, x: &[f64], h_prev: &[f64]) -> StepCache {
        assert_eq!(x.len(), self.input, "GruCell: input width mismatch");
        let zx = self.w_x.matvec(x);
        let zh = self.w_h.matvec(h_prev);
        let h = self.hidden;
        let bx = self.b_x.as_slice();
        let bh = self.b_h.as_slice();
        let mut r = vec![0.0; h];
        let mut z = vec![0.0; h];
        let mut n = vec![0.0; h];
        let mut hn_pre = vec![0.0; h];
        for j in 0..h {
            r[j] = sigmoid(zx[j] + bx[j] + zh[j] + bh[j]);
            z[j] = sigmoid(zx[h + j] + bx[h + j] + zh[h + j] + bh[h + j]);
            hn_pre[j] = zh[2 * h + j] + bh[2 * h + j];
            n[j] = tanh(zx[2 * h + j] + bx[2 * h + j] + r[j] * hn_pre[j]);
        }
        let mut h_out = vec![0.0; h];
        for j in 0..h {
            h_out[j] = (1.0 - z[j]) * n[j] + z[j] * h_prev[j];
        }
        lgo_tensor::sanitize::check_finite(&n, "GruCell candidate gate");
        lgo_tensor::sanitize::check_finite(&h_out, "GruCell hidden state");
        StepCache {
            x: x.to_vec(),
            h_prev: h_prev.to_vec(),
            r,
            z,
            n,
            hn_pre,
            h: h_out,
        }
    }

    /// Advances the state by one input (pure inference).
    ///
    /// # Panics
    ///
    /// Panics if widths mismatch.
    pub fn step(&self, x: &[f64], state: &GruState) -> GruState {
        assert_eq!(state.h.len(), self.hidden, "GruCell: state width mismatch");
        GruState {
            h: self.step_internal(x, &state.h).h,
        }
    }

    /// Runs a whole sequence from the zero state, retaining the trace.
    ///
    /// # Panics
    ///
    /// Panics if any input row has the wrong width.
    pub fn forward_seq(&self, xs: &[Vec<f64>]) -> GruTrace {
        let mut steps: Vec<StepCache> = Vec::with_capacity(xs.len());
        let zeros = vec![0.0; self.hidden];
        for x in xs {
            let h_prev = steps.last().map_or(zeros.as_slice(), |s| s.h.as_slice());
            let cache = self.step_internal(x, h_prev);
            steps.push(cache);
        }
        GruTrace { steps }
    }

    /// Backpropagation through time; `dh[t]` is the loss gradient w.r.t.
    /// the hidden state at step `t`. Gradients accumulate; input gradients
    /// are returned.
    ///
    /// # Panics
    ///
    /// Panics if `dh.len() != trace.len()` or widths mismatch.
    pub fn backward_seq(&mut self, trace: &GruTrace, dh: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let Self {
            input,
            hidden,
            w_x,
            w_h,
            gw_x,
            gw_h,
            gb_x,
            gb_h,
            ..
        } = self;
        bptt_impl(
            w_x,
            w_h,
            *input,
            *hidden,
            trace,
            dh,
            Some((gw_x, gw_h, gb_x, gb_h)),
        )
    }

    /// Pure input-gradient BPTT: like [`Self::backward_seq`] but without
    /// accumulating parameter gradients, so shared read-only cells can
    /// compute d-loss/d-input through `&self`.
    ///
    /// # Panics
    ///
    /// Panics if `dh.len() != trace.len()` or widths mismatch.
    pub fn input_grad_seq(&self, trace: &GruTrace, dh: &[Vec<f64>]) -> Vec<Vec<f64>> {
        bptt_impl(&self.w_x, &self.w_h, self.input, self.hidden, trace, dh, None)
    }
}

/// The BPTT core shared by the accumulating and pure paths: walks the trace
/// backwards and returns per-timestep input gradients; when `grads` is
/// `Some`, parameter gradients accumulate into the
/// `(gw_x, gw_h, gb_x, gb_h)` sinks.
fn bptt_impl(
    w_x: &Matrix,
    w_h: &Matrix,
    input: usize,
    hidden: usize,
    trace: &GruTrace,
    dh: &[Vec<f64>],
    mut grads: Option<(&mut Matrix, &mut Matrix, &mut Matrix, &mut Matrix)>,
) -> Vec<Vec<f64>> {
    assert_eq!(
        dh.len(),
        trace.len(),
        "backward_seq: {} gradients for {} steps",
        dh.len(),
        trace.len()
    );
    let hsz = hidden;
    let mut dxs = vec![vec![0.0; input]; trace.len()];
    let mut dh_next = vec![0.0; hsz];
    for t in (0..trace.len()).rev() {
        let s = &trace.steps[t];
        assert_eq!(dh[t].len(), hsz, "backward_seq: bad dh width at {t}");
        let dht: Vec<f64> = dh[t].iter().zip(&dh_next).map(|(&a, &b)| a + b).collect();
        // dzx layout r|z|n against w_x; dzh layout r|z|n against w_h.
        let mut dzx = vec![0.0; 3 * hsz];
        let mut dzh = vec![0.0; 3 * hsz];
        let mut dh_prev = vec![0.0; hsz];
        for j in 0..hsz {
            let dz = dht[j] * (s.h_prev[j] - s.n[j]);
            let dn = dht[j] * (1.0 - s.z[j]);
            dh_prev[j] += dht[j] * s.z[j];
            let dn_pre = dn * (1.0 - s.n[j] * s.n[j]);
            let dr = dn_pre * s.hn_pre[j];
            let dz_pre = dz * s.z[j] * (1.0 - s.z[j]);
            let dr_pre = dr * s.r[j] * (1.0 - s.r[j]);
            dzx[j] = dr_pre;
            dzx[hsz + j] = dz_pre;
            dzx[2 * hsz + j] = dn_pre;
            dzh[j] = dr_pre;
            dzh[hsz + j] = dz_pre;
            dzh[2 * hsz + j] = dn_pre * s.r[j];
        }
        if let Some((gw_x, gw_h, gb_x, gb_h)) = grads.as_mut() {
            gw_x.add_outer(&dzx, &s.x, 1.0);
            gw_h.add_outer(&dzh, &s.h_prev, 1.0);
            for (g, &d) in gb_x.as_mut_slice().iter_mut().zip(&dzx) {
                *g += d;
            }
            for (g, &d) in gb_h.as_mut_slice().iter_mut().zip(&dzh) {
                *g += d;
            }
        }
        dxs[t] = w_x.matvec_transpose(&dzx);
        let rec = w_h.matvec_transpose(&dzh);
        for (a, b) in dh_prev.iter_mut().zip(rec) {
            *a += b;
        }
        dh_next = dh_prev;
    }
    dxs
}

impl Trainable for GruCell {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
        f(&mut self.w_x, &mut self.gw_x);
        f(&mut self.w_h, &mut self.gw_h);
        f(&mut self.b_x, &mut self.gb_x);
        f(&mut self.b_h, &mut self.gb_h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn cell(input: usize, hidden: usize) -> GruCell {
        let mut rng = StdRng::seed_from_u64(31);
        GruCell::new(input, hidden, &mut rng)
    }

    fn seq(len: usize, width: usize) -> Vec<Vec<f64>> {
        (0..len)
            .map(|t| (0..width).map(|j| ((t * 5 + j * 2) as f64 * 0.21).sin() * 0.6).collect())
            .collect()
    }

    fn loss(cell: &GruCell, xs: &[Vec<f64>]) -> f64 {
        cell.forward_seq(xs).hiddens().iter().flatten().sum()
    }

    #[cfg(all(feature = "strict-numerics", debug_assertions))]
    #[test]
    #[should_panic(expected = "strict-numerics")]
    fn strict_numerics_catches_nan_input() {
        let c = cell(2, 3);
        let _ = c.forward_seq(&[vec![0.1, f64::NAN]]);
    }

    #[test]
    fn forward_shapes_and_step_agreement() {
        let c = cell(3, 5);
        let xs = seq(6, 3);
        let trace = c.forward_seq(&xs);
        assert_eq!(trace.len(), 6);
        assert!(!trace.is_empty());
        let mut st = GruState::zeros(5);
        for (t, x) in xs.iter().enumerate() {
            st = c.step(x, &st);
            assert_eq!(st.h, trace.hidden(t));
        }
        assert_eq!(trace.last_hidden(), trace.hidden(5));
    }

    #[test]
    fn hidden_states_bounded() {
        let c = cell(2, 4);
        let xs: Vec<Vec<f64>> = (0..40).map(|_| vec![50.0, -50.0]).collect();
        for h in c.forward_seq(&xs).hiddens() {
            assert!(h.iter().all(|v| v.abs() <= 1.0));
        }
    }

    #[test]
    fn bptt_gradient_check_inputs() {
        let mut c = cell(3, 4);
        let xs = seq(5, 3);
        c.zero_grads();
        let trace = c.forward_seq(&xs);
        let dh = vec![vec![1.0; 4]; 5];
        let dxs = c.backward_seq(&trace, &dh);
        let eps = 1e-6;
        for t in 0..xs.len() {
            for j in 0..3 {
                let mut xp = xs.clone();
                xp[t][j] += eps;
                let mut xm = xs.clone();
                xm[t][j] -= eps;
                let numeric = (loss(&c, &xp) - loss(&c, &xm)) / (2.0 * eps);
                assert!(
                    (numeric - dxs[t][j]).abs() < 1e-5,
                    "dx[{t}][{j}]: numeric {numeric} vs analytic {}",
                    dxs[t][j]
                );
            }
        }
    }

    #[test]
    fn bptt_gradient_check_weights() {
        let mut c = cell(2, 3);
        let xs = seq(4, 2);
        c.zero_grads();
        let trace = c.forward_seq(&xs);
        c.backward_seq(&trace, &vec![vec![1.0; 3]; 4]);
        let eps = 1e-6;
        for &(r, col) in &[(0usize, 0usize), (4, 1), (8, 0)] {
            let mut cp = c.clone();
            cp.w_x[(r, col)] += eps;
            let mut cm = c.clone();
            cm.w_x[(r, col)] -= eps;
            let numeric = (loss(&cp, &xs) - loss(&cm, &xs)) / (2.0 * eps);
            assert!(
                (numeric - c.gw_x[(r, col)]).abs() < 1e-5,
                "gw_x[{r},{col}]: numeric {numeric} vs {}",
                c.gw_x[(r, col)]
            );
        }
        for &(r, col) in &[(1usize, 0usize), (5, 2), (7, 1)] {
            let mut cp = c.clone();
            cp.w_h[(r, col)] += eps;
            let mut cm = c.clone();
            cm.w_h[(r, col)] -= eps;
            let numeric = (loss(&cp, &xs) - loss(&cm, &xs)) / (2.0 * eps);
            assert!(
                (numeric - c.gw_h[(r, col)]).abs() < 1e-5,
                "gw_h[{r},{col}]: numeric {numeric} vs {}",
                c.gw_h[(r, col)]
            );
        }
        for &r in &[0usize, 3, 6, 8] {
            for (b, g) in [(0usize, 0usize), (1, 1)] {
                let _ = (b, g);
            }
            let mut cp = c.clone();
            cp.b_h[(r, 0)] += eps;
            let mut cm = c.clone();
            cm.b_h[(r, 0)] -= eps;
            let numeric = (loss(&cp, &xs) - loss(&cm, &xs)) / (2.0 * eps);
            assert!(
                (numeric - c.gb_h[(r, 0)]).abs() < 1e-5,
                "gb_h[{r}]: numeric {numeric} vs {}",
                c.gb_h[(r, 0)]
            );
        }
    }

    #[test]
    fn trainable_visits_four_params() {
        let mut c = cell(2, 3);
        let mut n = 0;
        c.visit_params(&mut |_, _| n += 1);
        assert_eq!(n, 4);
        assert_eq!(c.param_count(), 9 * 2 + 9 * 3 + 9 + 9);
    }

    #[test]
    #[should_panic(expected = "gradients for")]
    fn backward_length_checked() {
        let mut c = cell(2, 3);
        let trace = c.forward_seq(&seq(3, 2));
        let _ = c.backward_seq(&trace, &[]);
    }
}
