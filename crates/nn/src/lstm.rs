use lgo_tensor::sanitize::check_finite;
use lgo_tensor::Matrix;
use rand::RngExt;

use crate::activation::{sigmoid, tanh};
use crate::dense::Rows;
use crate::init;
use crate::optimizer::Trainable;

/// The forward trace of a sequence through an [`LstmCell`], consumed by
/// [`LstmCell::backward_seq`] and [`LstmCell::input_grad_seq`].
///
/// The whole trace is one flat buffer with a fixed stride per timestep
/// (`X` = input width, `H` = hidden width):
///
/// ```text
/// | x (X) | h_prev (H) | c_prev (H) | i (H) | f (H) | g (H) | o (H) | c (H) | tanh c (H) | h (H) |
/// ```
///
/// so a forward pass makes one allocation however long the sequence is,
/// and backpropagation reads every operand of a step from one contiguous
/// slot.
#[derive(Debug, Clone)]
pub struct LstmTrace {
    input: usize,
    hidden: usize,
    len: usize,
    data: Vec<f64>,
}

impl LstmTrace {
    fn stride(&self) -> usize {
        self.input + 9 * self.hidden
    }

    /// The stride slot of timestep `t`.
    fn slot(&self, t: usize) -> &[f64] {
        let stride = self.stride();
        &self.data[t * stride..(t + 1) * stride]
    }

    /// Number of timesteps in the trace.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The hidden state after timestep `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn hidden(&self, t: usize) -> &[f64] {
        assert!(t < self.len, "LstmTrace::hidden: step {t} of {}", self.len);
        &self.slot(t)[self.input + 8 * self.hidden..]
    }

    /// The hidden state after the final timestep.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty.
    pub fn last_hidden(&self) -> &[f64] {
        assert!(self.len > 0, "LstmTrace::last_hidden on empty trace");
        self.hidden(self.len - 1)
    }

    /// Every step's hidden state, read in place: the input block of a
    /// per-timestep head.
    pub(crate) fn hidden_rows(&self) -> Rows<'_> {
        let offset = self.input + 8 * self.hidden;
        let data = self.data.get(offset..).unwrap_or_default();
        Rows::strided(data, self.stride(), self.hidden, self.len)
    }

    /// The `(h, c)` state after timestep `t`: what step `t + 1` starts from.
    fn state(&self, t: usize) -> (&[f64], &[f64]) {
        slot_state(self.slot(t), self.input, self.hidden)
    }
}

/// The `(h, c)` fields of one trace slot.
fn slot_state(slot: &[f64], xw: usize, h: usize) -> (&[f64], &[f64]) {
    (&slot[xw + 8 * h..xw + 9 * h], &slot[xw + 6 * h..xw + 7 * h])
}

/// Which compiled instance of the LSTM kernels runs a call: the forward
/// loop ([`LstmCell::forward_rows`] and everything built on it) and BPTT
/// ([`LstmCell::backward_seq`], [`LstmCell::input_grad_seq`]).
///
/// Both instances are one `#[inline(always)]` source body per pass. The
/// AVX2 instance is that body compiled inside a `#[target_feature(enable =
/// "avx2")]` wrapper, without `fma`: every lane performs the scalar code's
/// IEEE `+ − × ÷`, and Rust never contracts them into FMA, so the two
/// instances return the same bits (DESIGN §17, "One body, two instances").
///
/// Inside the AVX2 instance, a cell whose `(input, hidden)` is one of the
/// workloads' shapes — `(4, 8)` or `(4, 16)` — runs a literal-shape
/// instance instead: BPTT is the same body with the shape passed as
/// constants, and the forward is a body that keeps its state and gates in
/// fixed-size arrays. Every other shape, and every call on the portable
/// instance, runs the general body, so comparing the two instances pins
/// the literal-shape ones too. The methods without an instance argument
/// run [`Self::host`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelInstance {
    /// The body compiled for the build's baseline target.
    Portable,
    /// The body compiled with AVX2 enabled. On a host without AVX2, or off
    /// x86-64, it runs the portable instance.
    Avx2,
}

impl KernelInstance {
    /// The instance this host runs: [`Self::Avx2`] where the CPU has AVX2
    /// (std caches the check), [`Self::Portable`] otherwise.
    pub fn host() -> Self {
        if avx2_detected() {
            Self::Avx2
        } else {
            Self::Portable
        }
    }

    /// Whether a call on this instance runs the AVX2 body.
    pub(crate) fn runs_avx2(self) -> bool {
        self == Self::Avx2 && avx2_detected()
    }
}

/// The `(input, hidden)` shapes the AVX2 instance also compiles with
/// literal bounds: the forecaster's and MAD-GAN's input width with the
/// benchmark / fast hidden size and the paper default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    X4H8,
    X4H16,
    /// Any other shape: the general body.
    General,
}

impl Shape {
    fn of(input: usize, hidden: usize) -> Self {
        match (input, hidden) {
            (4, 8) => Self::X4H8,
            (4, 16) => Self::X4H16,
            _ => Self::General,
        }
    }
}

/// Whether the host CPU has AVX2.
fn avx2_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// A single-layer LSTM cell with full backpropagation through time.
///
/// Gate layout follows the classic formulation: for each step,
///
/// ```text
/// z = W_x x_t + W_h h_{t-1} + b          (z split into i|f|g|o blocks)
/// i = σ(z_i)   f = σ(z_f)   g = tanh(z_g)   o = σ(z_o)
/// c_t = f ⊙ c_{t-1} + i ⊙ g
/// h_t = o ⊙ tanh(c_t)
/// ```
///
/// The forget-gate bias is initialized to 1.0 (Jozefowicz et al., 2015).
///
/// # Examples
///
/// ```
/// use lgo_nn::LstmCell;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let cell = LstmCell::new(3, 8, &mut rng);
/// let xs = vec![vec![0.1, 0.2, 0.3]; 5];
/// let trace = cell.forward_seq(&xs);
/// assert_eq!(trace.last_hidden().len(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct LstmCell {
    input: usize,
    hidden: usize,
    w_x: Matrix, // (4H, X)
    w_h: Matrix, // (4H, H)
    b: Matrix,   // (4H, 1)
    gw_x: Matrix,
    gw_h: Matrix,
    gb: Matrix,
    /// `W_xᵀ` (X × 4H) and `W_hᵀ` (H × 4H), k-major for [`gemv`]: derived
    /// from `w_x` / `w_h` at construction and after every
    /// [`Trainable::visit_params`], the only path that writes them.
    wt_x: Vec<f64>,
    wt_h: Vec<f64>,
}

impl LstmCell {
    /// Creates a cell mapping `input`-dim vectors to an `hidden`-dim state.
    ///
    /// # Panics
    ///
    /// Panics if either size is zero.
    pub fn new<R: RngExt + ?Sized>(input: usize, hidden: usize, rng: &mut R) -> Self {
        assert!(input > 0 && hidden > 0, "LstmCell::new: zero-sized cell");
        let mut b = Matrix::zeros(4 * hidden, 1);
        for j in hidden..2 * hidden {
            b[(j, 0)] = 1.0; // forget-gate bias
        }
        let mut cell = Self {
            input,
            hidden,
            w_x: init::xavier_uniform(4 * hidden, input, rng),
            w_h: init::recurrent(4 * hidden, hidden, rng),
            b,
            gw_x: Matrix::zeros(4 * hidden, input),
            gw_h: Matrix::zeros(4 * hidden, hidden),
            gb: Matrix::zeros(4 * hidden, 1),
            wt_x: vec![0.0; 4 * hidden * input],
            wt_h: vec![0.0; 4 * hidden * hidden],
        };
        cell.refresh_transposes();
        cell
    }

    /// Re-derives the held `W_xᵀ` and `W_hᵀ` from the row-major weights.
    fn refresh_transposes(&mut self) {
        transpose_into(self.w_x.as_slice(), self.input, &mut self.wt_x);
        transpose_into(self.w_h.as_slice(), self.hidden, &mut self.wt_h);
    }

    /// Whether the held transposes equal `W_xᵀ` and `W_hᵀ` bit for bit.
    fn transposes_current(&self) -> bool {
        let held = |w: &Matrix, wt: &[f64]| {
            let mut fresh = vec![0.0; wt.len()];
            transpose_into(w.as_slice(), w.cols(), &mut fresh);
            fresh.iter().zip(wt).all(|(a, b)| a.to_bits() == b.to_bits())
        };
        held(&self.w_x, &self.wt_x) && held(&self.w_h, &self.wt_h)
    }

    /// Input dimensionality.
    pub fn input_size(&self) -> usize {
        self.input
    }

    /// Hidden-state dimensionality.
    pub fn hidden_size(&self) -> usize {
        self.hidden
    }

    /// Runs one timestep inside a trace slot whose `x`, `h_prev` and
    /// `c_prev` fields are already filled, writing the gates, cell, tanh
    /// cell and hidden fields. `z` is the `8H` scratch for the gate
    /// pre-activations; the weights are the held `W_xᵀ` and `W_hᵀ`.
    ///
    /// Every value is computed exactly as the per-step matrix form does:
    /// each pre-activation is `zx + (zh + b)`, where `zx` and `zh` are
    /// ascending-k dot products started from +0.0 (the per-row arithmetic
    /// of `Matrix::matmul_nt`).
    #[inline(always)]
    fn step_into(&self, slot: &mut [f64], z: &mut [f64]) {
        let (xw, h) = (self.input, self.hidden);
        let (operands, outputs) = slot.split_at_mut(xw + 2 * h);
        let (x, prev) = operands.split_at(xw);
        let (h_prev, c_prev) = prev.split_at(h);
        let (zx, zh) = z.split_at_mut(4 * h);
        check_finite(x, "LstmCell input");
        gemv(&self.wt_x, x, zx);
        gemv(&self.wt_h, h_prev, zh);
        for ((zi, &zhi), &bi) in zx.iter_mut().zip(zh.iter()).zip(self.b.as_slice()) {
            *zi += zhi + bi;
        }
        // Each activation runs over one contiguous gate block, so the
        // branch-free kernels vectorize across the block.
        let (gates, state) = outputs.split_at_mut(4 * h);
        let (i_f, rest) = gates.split_at_mut(2 * h);
        let (g, o) = rest.split_at_mut(h);
        let (z_if, rest) = zx.split_at(2 * h);
        let (z_g, z_o) = rest.split_at(h);
        map_into(i_f, z_if, sigmoid);
        map_into(g, z_g, tanh);
        map_into(o, z_o, sigmoid);
        let (i, f) = i_f.split_at(h);
        let (c, rest) = state.split_at_mut(h);
        let (tanh_c, h_out) = rest.split_at_mut(h);
        for (j, cj) in c.iter_mut().enumerate() {
            *cj = f[j] * c_prev[j] + i[j] * g[j];
        }
        map_into(tanh_c, c, tanh);
        for ((hj, &oj), &tj) in h_out.iter_mut().zip(o.iter()).zip(tanh_c.iter()) {
            *hj = oj * tj;
        }
        check_finite(zx, "LstmCell gate pre-activations");
        check_finite(c, "LstmCell cell state");
        check_finite(h_out, "LstmCell hidden state");
    }

    /// Runs a whole sequence from the zero state, retaining the trace needed
    /// for [`Self::backward_seq`].
    ///
    /// # Panics
    ///
    /// Panics if any input row has the wrong width.
    pub fn forward_seq(&self, xs: &[Vec<f64>]) -> LstmTrace {
        self.forward_seq_on(KernelInstance::host(), xs)
    }

    /// [`Self::forward_seq`] on a chosen [`KernelInstance`]; both return the
    /// same bits.
    ///
    /// # Panics
    ///
    /// As [`Self::forward_seq`].
    pub fn forward_seq_on(&self, kernels: KernelInstance, xs: &[Vec<f64>]) -> LstmTrace {
        self.run_rows(kernels, None, xs.iter().map(Vec::as_slice))
    }

    /// [`Self::forward_seq`] over a flat row-major `T × input` sequence.
    ///
    /// # Panics
    ///
    /// Panics if `xs.len()` is not a multiple of the input width.
    pub fn forward_flat(&self, xs: &[f64]) -> LstmTrace {
        assert_eq!(xs.len() % self.input, 0, "LstmCell: input width mismatch");
        self.forward_rows(xs.chunks_exact(self.input))
    }

    /// [`Self::forward_seq`] over any exact-size sequence of rows — e.g. a
    /// window walked backwards, without materializing the reversed copy.
    ///
    /// The trace is the only allocation besides one `8H` scratch; no step
    /// allocates, and nothing is transposed.
    ///
    /// # Panics
    ///
    /// Panics if any input row has the wrong width.
    pub fn forward_rows<'a, I>(&self, rows: I) -> LstmTrace
    where
        I: IntoIterator<Item = &'a [f64]>,
        I::IntoIter: ExactSizeIterator,
    {
        self.run_rows(KernelInstance::host(), None, rows)
    }

    /// [`Self::forward_rows`] continued after the first `keep` steps of
    /// `prefix`: `rows` are the sequence's steps `keep..`, and the first of
    /// them starts from the state `prefix` holds after its step `keep − 1`
    /// (the zero state when `keep == 0`). The returned trace covers `rows`
    /// only.
    ///
    /// When the sequence's first `keep` rows are the rows `prefix` ran
    /// over, every step of the result has the bits `forward_rows` over the
    /// whole sequence computes for it: a step reads only its row and the
    /// previous step's `(h, c)`, and those are the same operands.
    ///
    /// # Panics
    ///
    /// Panics if `keep > prefix.len()`, `prefix` came from a cell of a
    /// different shape, or any input row has the wrong width.
    pub fn resume_rows<'a, I>(&self, prefix: &LstmTrace, keep: usize, rows: I) -> LstmTrace
    where
        I: IntoIterator<Item = &'a [f64]>,
        I::IntoIter: ExactSizeIterator,
    {
        assert!(
            keep <= prefix.len,
            "LstmCell::resume_rows: keep {keep} of a {}-step prefix",
            prefix.len
        );
        assert_eq!(
            (prefix.input, prefix.hidden),
            (self.input, self.hidden),
            "LstmCell::resume_rows: prefix shape differs from the cell's"
        );
        let start = keep.checked_sub(1).map(|t| prefix.state(t));
        self.run_rows(KernelInstance::host(), start, rows)
    }

    /// The one forward loop: steps `rows` from `start`'s `(h, c)`, or from
    /// the zero state, on the `kernels` instance of [`Self::run_rows_body`]
    /// (on AVX2, [`Self::run_rows_at`] for the shapes it covers).
    fn run_rows<'a, I>(
        &self,
        kernels: KernelInstance,
        start: Option<(&[f64], &[f64])>,
        rows: I,
    ) -> LstmTrace
    where
        I: IntoIterator<Item = &'a [f64]>,
        I::IntoIter: ExactSizeIterator,
    {
        #[cfg(target_arch = "x86_64")]
        if kernels.runs_avx2() {
            // SAFETY: `runs_avx2` holds only on a host with AVX2.
            return unsafe {
                match Shape::of(self.input, self.hidden) {
                    Shape::X4H8 => self.run_rows_at::<4, 8, I>(start, rows),
                    Shape::X4H16 => self.run_rows_at::<4, 16, I>(start, rows),
                    Shape::General => self.run_rows_avx2(start, rows),
                }
            };
        }
        let _ = kernels; // read only on x86-64
        self.run_rows_body(start, rows)
    }

    /// The forward loop at the literal shape `(X, H)`, compiled with AVX2
    /// enabled. Each step keeps `h_prev`, `c_prev` and the four gate blocks
    /// in fixed-size arrays and appends its trace slot once, so the trace
    /// is never zero-filled first. Every value has the bits of
    /// [`Self::run_rows_body`]: each pre-activation is `zx + (zh + b)` with
    /// `zx`, `zh` ascending-k dots from +0.0, then `c = f·c_prev + i·g` and
    /// `h = o·tanh(c)`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn run_rows_at<'a, const X: usize, const H: usize, I>(
        &self,
        start: Option<(&[f64], &[f64])>,
        rows: I,
    ) -> LstmTrace
    where
        I: IntoIterator<Item = &'a [f64]>,
        I::IntoIter: ExactSizeIterator,
    {
        assert_eq!((self.input, self.hidden), (X, H), "LstmCell: literal-shape instance");
        debug_assert!(self.transposes_current(), "LstmCell: held W_xᵀ / W_hᵀ are stale");
        let rows = rows.into_iter();
        let len = rows.len();
        // `W_xᵀ` / `W_hᵀ` row k and the bias, as four gate blocks of H each.
        let wt_x = &self.wt_x.as_chunks::<H>().0[..4 * X];
        let wt_h = &self.wt_h.as_chunks::<H>().0[..4 * H];
        let bias = &self.b.as_slice().as_chunks::<H>().0[..4];
        let (mut h_prev, mut c_prev) = ([0.0; H], [0.0; H]);
        if let Some((h0, c0)) = start {
            h_prev.copy_from_slice(h0);
            c_prev.copy_from_slice(c0);
        }
        let mut data = Vec::with_capacity(len * (X + 9 * H));
        for x in rows {
            assert_eq!(x.len(), X, "LstmCell: input width mismatch");
            let x = &x[..X];
            check_finite(x, "LstmCell input");
            let mut z = gate_dots(wt_x, x);
            let zh = gate_dots(wt_h, &h_prev);
            for ((z, zh), b) in z.iter_mut().zip(&zh).zip(bias) {
                for ((zi, &zhi), &bi) in z.iter_mut().zip(zh).zip(b) {
                    *zi += zhi + bi;
                }
            }
            let [z_i, z_f, z_g, z_o] = &z;
            let [mut i, mut f, mut g, mut o, mut c, mut tanh_c, mut h] = [[0.0; H]; 7];
            map_into(&mut i, z_i, sigmoid);
            map_into(&mut f, z_f, sigmoid);
            map_into(&mut g, z_g, tanh);
            map_into(&mut o, z_o, sigmoid);
            for j in 0..H {
                c[j] = f[j] * c_prev[j] + i[j] * g[j];
            }
            map_into(&mut tanh_c, &c, tanh);
            for j in 0..H {
                h[j] = o[j] * tanh_c[j];
            }
            check_finite(z.as_flattened(), "LstmCell gate pre-activations");
            check_finite(&c, "LstmCell cell state");
            check_finite(&h, "LstmCell hidden state");
            data.extend_from_slice(x);
            for field in [&h_prev, &c_prev, &i, &f, &g, &o, &c, &tanh_c, &h] {
                data.extend_from_slice(field);
            }
            (h_prev, c_prev) = (h, c);
        }
        LstmTrace {
            input: X,
            hidden: H,
            len,
            data,
        }
    }

    /// [`Self::run_rows_body`] compiled with AVX2 enabled.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn run_rows_avx2<'a, I>(&self, start: Option<(&[f64], &[f64])>, rows: I) -> LstmTrace
    where
        I: IntoIterator<Item = &'a [f64]>,
        I::IntoIter: ExactSizeIterator,
    {
        self.run_rows_body(start, rows)
    }

    /// The forward loop's one source body, inlined into both instances.
    #[inline(always)]
    fn run_rows_body<'a, I>(&self, start: Option<(&[f64], &[f64])>, rows: I) -> LstmTrace
    where
        I: IntoIterator<Item = &'a [f64]>,
        I::IntoIter: ExactSizeIterator,
    {
        let rows = rows.into_iter();
        let (xw, h, len) = (self.input, self.hidden, rows.len());
        let stride = xw + 9 * h;
        debug_assert!(self.transposes_current(), "LstmCell: held W_xᵀ / W_hᵀ are stale");
        let mut data = vec![0.0; len * stride];
        let mut z = vec![0.0; 8 * h];
        for (t, x) in rows.enumerate() {
            assert_eq!(x.len(), xw, "LstmCell: input width mismatch");
            let (done, rest) = data.split_at_mut(t * stride);
            let slot = &mut rest[..stride];
            slot[..xw].copy_from_slice(x);
            // h_prev / c_prev: the previous slot's h and c, or `start` at
            // t = 0 (the zero state there is the buffer's initial fill).
            let prev = match t.checked_sub(1) {
                Some(p) => Some(slot_state(&done[p * stride..], xw, h)),
                None => start,
            };
            if let Some((h_prev, c_prev)) = prev {
                slot[xw..xw + h].copy_from_slice(h_prev);
                slot[xw + h..xw + 2 * h].copy_from_slice(c_prev);
            }
            self.step_into(slot, &mut z);
        }
        LstmTrace {
            input: xw,
            hidden: h,
            len,
            data,
        }
    }

    /// Backpropagation through time, accumulating parameter gradients.
    ///
    /// `dh` is the flat row-major `T × H` gradient of the loss with respect
    /// to the hidden state emitted at each timestep (zero rows for unused
    /// steps). Gradients accumulate into the cell. The input gradient is not
    /// computed: [`Self::input_grad_seq`] returns it.
    ///
    /// # Panics
    ///
    /// Panics if `dh.len() != trace.len() * self.hidden_size()` or the trace
    /// came from a cell of a different shape.
    pub fn backward_seq(&mut self, trace: &LstmTrace, dh: &[f64]) {
        self.backward_seq_on(KernelInstance::host(), trace, dh);
    }

    /// [`Self::backward_seq`] on a chosen [`KernelInstance`]; both
    /// accumulate the same bits.
    ///
    /// # Panics
    ///
    /// As [`Self::backward_seq`].
    pub fn backward_seq_on(&mut self, kernels: KernelInstance, trace: &LstmTrace, dh: &[f64]) {
        let Self {
            w_x,
            w_h,
            gw_x,
            gw_h,
            gb,
            ..
        } = self;
        bptt(kernels, w_x, w_h, trace, dh, BpttOut::Grads(gw_x, gw_h, gb));
    }

    /// Input-gradient BPTT through `&self`: the flat `T × input` gradient
    /// of the loss with respect to the inputs, for the `dh` that
    /// [`Self::backward_seq`] takes. Parameter gradients are untouched, so
    /// shared read-only cells can serve it (e.g. to parallel attack
    /// campaigns).
    ///
    /// # Panics
    ///
    /// As [`Self::backward_seq`].
    pub fn input_grad_seq(&self, trace: &LstmTrace, dh: &[f64]) -> Vec<f64> {
        self.input_grad_seq_on(KernelInstance::host(), trace, dh)
    }

    /// [`Self::input_grad_seq`] on a chosen [`KernelInstance`]; both return
    /// the same bits.
    ///
    /// # Panics
    ///
    /// As [`Self::backward_seq`].
    pub fn input_grad_seq_on(
        &self,
        kernels: KernelInstance,
        trace: &LstmTrace,
        dh: &[f64],
    ) -> Vec<f64> {
        let mut dx = vec![0.0; trace.len * self.input];
        bptt(kernels, &self.w_x, &self.w_h, trace, dh, BpttOut::InputGrad(&mut dx));
        dx
    }
}

/// `dst[j] = f(src[j])` over two equal-length blocks.
#[inline(always)]
fn map_into(dst: &mut [f64], src: &[f64], f: impl Fn(f64) -> f64) {
    debug_assert_eq!(dst.len(), src.len());
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = f(s);
    }
}

/// `wt = wᵀ` for the row-major `w` with `cols` columns: the gate weights
/// laid out k-major for [`gemv`].
fn transpose_into(w: &[f64], cols: usize, wt: &mut [f64]) {
    let rows = w.len() / cols;
    debug_assert_eq!(wt.len(), w.len());
    for (r, row) in w.chunks_exact(cols).enumerate() {
        for (c, &v) in row.iter().enumerate() {
            wt[c * rows + r] = v;
        }
    }
}

/// `out[r] = Σ_k v[k] · w[r][k]` from `wt = wᵀ` (`v.len()` rows of
/// `out.len()`). Every output is one ascending-k chain started from +0.0,
/// the bits of the row-by-row dot. Outputs run in register blocks of eight,
/// then four (gate blocks come in multiples of four rows): a block's chains
/// stay in registers across all k and advance together, which vectorizes
/// across outputs without reassociating any of them.
#[inline(always)]
fn gemv(wt: &[f64], v: &[f64], out: &mut [f64]) {
    let n = out.len();
    debug_assert_eq!(wt.len(), n * v.len());
    debug_assert_eq!(n % ROWS, 0, "gate blocks come in multiples of four rows");
    let mut c = 0;
    while c + 8 <= n {
        gemv_block::<8>(wt, v, c, out);
        c += 8;
    }
    if c < n {
        gemv_block::<ROWS>(wt, v, c, out);
    }
}

/// [`gemv`] at a literal hidden size: the four `H`-wide gate blocks of
/// `Σ_k v[k] · wᵀ[k]`, each output one ascending-k chain from +0.0. `wt`
/// holds row k of `Wᵀ` as the blocks `4k .. 4k + 4`.
#[inline(always)]
fn gate_dots<const H: usize>(wt: &[[f64; H]], v: &[f64]) -> [[f64; H]; 4] {
    let mut acc = [[0.0; H]; 4];
    for (row, &vk) in wt.chunks_exact(4).zip(v) {
        for (a, w) in acc.iter_mut().zip(row) {
            for (a, &w) in a.iter_mut().zip(w) {
                *a += vk * w;
            }
        }
    }
    acc
}

/// The `N` outputs of [`gemv`] starting at `c`.
#[inline(always)]
fn gemv_block<const N: usize>(wt: &[f64], v: &[f64], c: usize, out: &mut [f64]) {
    let mut acc = [0.0; N];
    for (row, &vk) in wt.chunks_exact(out.len()).zip(v) {
        for (a, &w) in acc.iter_mut().zip(&row[c..c + N]) {
            *a += vk * w;
        }
    }
    out[c..c + N].copy_from_slice(&acc);
}

/// The BPTT core shared by the accumulating and pure paths: walks the trace
/// backwards, then writes what `out` asks for — the parameter gradients
/// into the `(gw_x, gw_h, gb)` sinks, or the flat per-timestep input
/// gradients. Neither path computes the other's output.
///
/// The walk (t = T−1 … 0) carries only the recurrence: each step's gate
/// deltas `dz_t` land in one `T × 4H` buffer, and `dh_next = W_hᵀ dz_t`
/// (skipped at t = 0, where nothing reads it) is a register-accumulated
/// [`dot_columns`]. Everything else runs after the walk, in one ordered
/// pass per output: `dx_t = W_xᵀ dz_t`, or each weight-gradient entry
/// starting from its current value and adding its `T` terms in descending
/// `t` ([`accumulate_outer`]), then the bias the same way. One `(4T + 2)H`
/// scratch (the `dz_t`, `dh_next`, `dc_next`) is the only allocation.
///
/// Every output has the bits of the per-step matrix form
/// (`Matrix::add_outer` / `Matrix::matvec_transpose` at each step):
/// each entry receives the same terms, with the same exact-zero skips, in
/// the same order — `fill(0.0)` then ascending `+=` is an accumulator
/// started at +0.0, and `add_outer`'s `1.0 * dz * v` is `dz * v` exactly.
/// Only where the running sum lives between terms has changed.
///
/// Runs the `kernels` instance of [`bptt_body`]; on AVX2, a shape in
/// [`Shape`]'s table runs the body with that shape as constants.
fn bptt(
    kernels: KernelInstance,
    w_x: &Matrix,
    w_h: &Matrix,
    trace: &LstmTrace,
    dh: &[f64],
    out: BpttOut<'_>,
) {
    #[cfg(target_arch = "x86_64")]
    if kernels.runs_avx2() {
        // SAFETY: `runs_avx2` holds only on a host with AVX2.
        return unsafe {
            match Shape::of(trace.input, trace.hidden) {
                Shape::X4H8 => bptt_avx2_at::<4, 8>(w_x, w_h, trace, dh, out),
                Shape::X4H16 => bptt_avx2_at::<4, 16>(w_x, w_h, trace, dh, out),
                Shape::General => bptt_avx2(w_x, w_h, trace, dh, out),
            }
        };
    }
    let _ = kernels; // read only on x86-64
    bptt_body(trace.input, trace.hidden, w_x, w_h, trace, dh, out)
}

/// What a [`bptt`] call writes.
enum BpttOut<'a> {
    /// Accumulate into the `(gw_x, gw_h, gb)` sinks.
    Grads(&'a mut Matrix, &'a mut Matrix, &'a mut Matrix),
    /// Write the flat `T × X` input gradients.
    InputGrad(&'a mut [f64]),
}

/// [`bptt_body`] compiled with AVX2 enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn bptt_avx2(w_x: &Matrix, w_h: &Matrix, trace: &LstmTrace, dh: &[f64], out: BpttOut<'_>) {
    bptt_body(trace.input, trace.hidden, w_x, w_h, trace, dh, out)
}

/// [`bptt_body`] compiled with AVX2 enabled at the literal shape `(X, H)`:
/// every loop bound is a constant.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn bptt_avx2_at<const X: usize, const H: usize>(
    w_x: &Matrix,
    w_h: &Matrix,
    trace: &LstmTrace,
    dh: &[f64],
    out: BpttOut<'_>,
) {
    bptt_body(X, H, w_x, w_h, trace, dh, out)
}

/// BPTT's one source body, inlined into every instance. `xw` and `h` are
/// the trace's shape, passed in so that an instance can fix them.
#[inline(always)]
fn bptt_body(
    xw: usize,
    h: usize,
    w_x: &Matrix,
    w_h: &Matrix,
    trace: &LstmTrace,
    dh: &[f64],
    out: BpttOut<'_>,
) {
    let (stride, len) = (xw + 9 * h, trace.len);
    assert_eq!(
        (trace.input, trace.hidden, w_x.cols(), w_h.cols()),
        (xw, h, xw, h),
        "backward_seq: trace shape differs from the cell's"
    );
    assert_eq!(
        dh.len(),
        len * h,
        "backward_seq: {} gradients for {len} steps of {h} units",
        dh.len(),
    );
    let slots = &trace.data[..len * stride];
    let (w_x, w_h) = (&w_x.as_slice()[..4 * h * xw], &w_h.as_slice()[..4 * h * h]);
    check_finite(w_x, "LstmCell BPTT input weights");
    check_finite(w_h, "LstmCell BPTT recurrent weights");
    check_finite(dh, "LstmCell BPTT hidden gradients");
    // dz for every step (T × 4H), then the recurrent dh_next and dc_next.
    let mut scratch = vec![0.0; (len * 4 + 2) * h];
    let (dzs, recurrent) = scratch.split_at_mut(len * 4 * h);
    let (dh_next, dc_next) = recurrent.split_at_mut(h);
    let steps = dzs.chunks_exact_mut(4 * h).zip(slots.chunks_exact(stride)).zip(dh.chunks_exact(h));
    for (t, ((dz, s), dh_t)) in steps.enumerate().rev() {
        let (c_prev, s) = s[xw + h..].split_at(h);
        let (i, s) = s.split_at(h);
        let (f, s) = s.split_at(h);
        let (g, s) = s.split_at(h);
        let (o, s) = s.split_at(h);
        let tanh_c = &s[h..2 * h];
        for j in 0..h {
            // Total gradient into h_t: external + recurrent.
            let dht = dh_t[j] + dh_next[j];
            let do_ = dht * tanh_c[j];
            let dct = dc_next[j] + dht * o[j] * (1.0 - tanh_c[j] * tanh_c[j]);
            let di = dct * g[j];
            let df = dct * c_prev[j];
            let dg = dct * i[j];
            dc_next[j] = dct * f[j];
            dz[j] = di * i[j] * (1.0 - i[j]);
            dz[h + j] = df * f[j] * (1.0 - f[j]);
            dz[2 * h + j] = dg * (1.0 - g[j] * g[j]);
            dz[3 * h + j] = do_ * o[j] * (1.0 - o[j]);
        }
        check_finite(dz, "LstmCell BPTT gate deltas");
        if t > 0 {
            dot_columns(w_h, dz, dh_next);
            check_finite(dh_next, "LstmCell BPTT recurrent gradient");
        }
    }
    match out {
        BpttOut::Grads(gw_x, gw_h, gb) => {
            let gw_x = &mut gw_x.as_mut_slice()[..4 * h * xw];
            accumulate_outer(gw_x, xw, dzs, slots, stride, 0);
            let gw_h = &mut gw_h.as_mut_slice()[..4 * h * h];
            accumulate_outer(gw_h, h, dzs, slots, stride, xw);
            for (r, gb) in gb.as_mut_slice()[..4 * h].iter_mut().enumerate() {
                for dz in dzs.chunks_exact(4 * h).rev() {
                    *gb += dz[r];
                }
            }
        }
        BpttOut::InputGrad(dx) => {
            debug_assert_eq!(dx.len(), len * xw);
            for (dz, dx_t) in dzs.chunks_exact(4 * h).zip(dx.chunks_exact_mut(xw)) {
                dot_columns(w_x, dz, dx_t);
            }
        }
    }
}

/// `out[c] = Σ_r w[r][c] · dz[r]` for the row-major `w` (`out.len()`
/// columns): each column is one ascending-`r` chain started from +0.0 that
/// skips exact-zero `dz[r]` — the bits of `Matrix::matvec_transpose`.
/// Each column of a block stays in its own register; columns run in blocks
/// of eight, then four, then one, so any width is covered.
#[inline(always)]
fn dot_columns(w: &[f64], dz: &[f64], out: &mut [f64]) {
    let cols = out.len();
    debug_assert_eq!(w.len(), dz.len() * cols);
    let mut c = 0;
    while c + 8 <= cols {
        dot_block::<8>(w, dz, c, out);
        c += 8;
    }
    if c + 4 <= cols {
        dot_block::<4>(w, dz, c, out);
        c += 4;
    }
    while c < cols {
        dot_block::<1>(w, dz, c, out);
        c += 1;
    }
}

/// The `N` columns of [`dot_columns`] starting at `c`.
#[inline(always)]
fn dot_block<const N: usize>(w: &[f64], dz: &[f64], c: usize, out: &mut [f64]) {
    let mut acc = [0.0; N];
    for (row, &d) in w.chunks_exact(out.len()).zip(dz) {
        if d == 0.0 { // lint: allow(L4): exact-zero skip of matvec_transpose — only the literal 0.0 contributes nothing
            continue;
        }
        for (a, &v) in acc.iter_mut().zip(&row[c..c + N]) {
            *a += v * d;
        }
    }
    out[c..c + N].copy_from_slice(&acc);
}

/// Rows of `g` that [`accumulate_outer`] runs interleaved; gate blocks
/// always come in multiples of four rows.
const ROWS: usize = 4;

/// `g[r][c] += dz_t[r] · v_t[c]` over every step `t` in descending order,
/// skipping exact-zero `dz_t[r]` — the bits of one `Matrix::add_outer` per
/// step of the walk. `g` is row-major with `cols` columns, `dzs` holds the
/// `T × rows` gate deltas, and `v_t` is the `cols`-wide operand at
/// `offset` in the `stride`-wide trace slot `t` (its `x` or `h_prev`).
/// Each entry stays in a register across its `T` terms; [`ROWS`] rows run
/// interleaved, in column blocks of four and then one, so their
/// independent chains overlap.
#[inline(always)]
fn accumulate_outer(
    g: &mut [f64],
    cols: usize,
    dzs: &[f64],
    slots: &[f64],
    stride: usize,
    offset: usize,
) {
    let rows = g.len() / cols;
    debug_assert_eq!(dzs.len() / rows, slots.len() / stride);
    debug_assert_eq!(rows % ROWS, 0, "gate blocks come in multiples of four rows");
    let steps = dzs.chunks_exact(rows).zip(slots.chunks_exact(stride)).rev();
    for (r, block) in g.chunks_exact_mut(ROWS * cols).enumerate() {
        let mut c = 0;
        while c + 4 <= cols {
            outer_block::<4>(block, r * ROWS, c, offset, steps.clone());
            c += 4;
        }
        while c < cols {
            outer_block::<1>(block, r * ROWS, c, offset, steps.clone());
            c += 1;
        }
    }
}

/// The `ROWS × N` entries of [`accumulate_outer`] at column `c` of the
/// rows `r0..r0 + ROWS`, which `block` holds; `steps` yields `(dz_t,
/// slot_t)` in descending `t`.
#[inline(always)]
fn outer_block<'a, const N: usize>(
    block: &mut [f64],
    r0: usize,
    c: usize,
    offset: usize,
    steps: impl Iterator<Item = (&'a [f64], &'a [f64])>,
) {
    let cols = block.len() / ROWS;
    let mut acc = [[0.0; N]; ROWS];
    for (a, row) in acc.iter_mut().zip(block.chunks_exact(cols)) {
        a.copy_from_slice(&row[c..c + N]);
    }
    for (dz, slot) in steps {
        let v = &slot[offset + c..offset + c + N];
        for (a, &d) in acc.iter_mut().zip(&dz[r0..r0 + ROWS]) {
            if d != 0.0 { // lint: allow(L4): exact-zero skip of add_outer — only the literal 0.0 contributes nothing
                for (a, &x) in a.iter_mut().zip(v) {
                    *a += d * x;
                }
            }
        }
    }
    for (a, row) in acc.iter().zip(block.chunks_exact_mut(cols)) {
        row[c..c + N].copy_from_slice(a);
    }
}

impl Trainable for LstmCell {
    /// Visits `(W_x, W_h, b)` with their gradients, then re-derives the held
    /// transposes from whatever the visitor left in the weights.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
        f(&mut self.w_x, &mut self.gw_x);
        f(&mut self.w_h, &mut self.gw_h);
        f(&mut self.b, &mut self.gb);
        self.refresh_transposes();
    }
}

#[cfg(test)]
impl LstmCell {
    /// Asserts that the held transposes are `W_xᵀ` and `W_hᵀ`, and that a
    /// forward pass on either instance has the bits of a fresh cell built
    /// from the same row-major weights.
    pub(crate) fn assert_matches_rebuilt(&self) {
        assert!(self.transposes_current(), "held W_xᵀ / W_hᵀ are stale");
        let mut fresh = self.clone();
        fresh.wt_x.fill(f64::NAN);
        fresh.wt_h.fill(f64::NAN);
        fresh.refresh_transposes();
        let xs: Vec<Vec<f64>> = (0..6)
            .map(|t| (0..self.input).map(|j| ((t * 5 + j) as f64 * 0.7).sin()).collect())
            .collect();
        let bits = |trace: &LstmTrace| -> Vec<u64> {
            (0..trace.len()).flat_map(|t| trace.hidden(t)).map(|v| v.to_bits()).collect()
        };
        for kernels in [KernelInstance::Portable, KernelInstance::Avx2] {
            assert_eq!(
                bits(&self.forward_seq_on(kernels, &xs)),
                bits(&fresh.forward_seq_on(kernels, &xs)),
                "{kernels:?} forward differs from a rebuilt cell's"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::Adam;
    use rand::{rngs::StdRng, SeedableRng};

    fn cell(input: usize, hidden: usize) -> LstmCell {
        let mut rng = StdRng::seed_from_u64(21);
        LstmCell::new(input, hidden, &mut rng)
    }

    fn seq(len: usize, width: usize) -> Vec<Vec<f64>> {
        (0..len)
            .map(|t| (0..width).map(|j| ((t * 7 + j * 3) as f64 * 0.13).sin() * 0.5).collect())
            .collect()
    }

    /// A copy of `c` with `edit` applied to its weights directly, its held
    /// transposes re-derived as every mutation path does.
    fn perturbed(c: &LstmCell, edit: impl FnOnce(&mut LstmCell)) -> LstmCell {
        let mut c = c.clone();
        edit(&mut c);
        c.refresh_transposes();
        c
    }

    /// Scalar loss used for gradient checking: sum of all hidden states over
    /// all timesteps.
    fn loss(cell: &LstmCell, xs: &[Vec<f64>]) -> f64 {
        let trace = cell.forward_seq(xs);
        (0..trace.len()).flat_map(|t| trace.hidden(t)).sum()
    }

    #[cfg(all(feature = "strict-numerics", debug_assertions))]
    #[test]
    #[should_panic(expected = "strict-numerics")]
    fn strict_numerics_catches_nan_input() {
        let c = cell(2, 3);
        let _ = c.forward_seq(&[vec![0.1, f64::NAN]]);
    }

    #[cfg(all(feature = "strict-numerics", debug_assertions))]
    #[test]
    #[should_panic(expected = "strict-numerics: non-finite value in LstmCell BPTT hidden gradients")]
    fn strict_numerics_catches_nan_hidden_gradient() {
        let mut c = cell(2, 3);
        let trace = c.forward_seq(&seq(4, 2));
        let mut dh = vec![0.1; 3 * 4];
        dh[5] = f64::NAN;
        c.backward_seq(&trace, &dh);
    }

    #[cfg(all(feature = "strict-numerics", debug_assertions))]
    #[test]
    #[should_panic(expected = "strict-numerics: non-finite value in LstmCell input")]
    fn strict_numerics_catches_nan_input_on_avx2_instance() {
        let c = cell(2, 3);
        let _ = c.forward_seq_on(KernelInstance::Avx2, &[vec![0.1, f64::NAN]]);
    }

    #[cfg(all(feature = "strict-numerics", debug_assertions))]
    #[test]
    #[should_panic(expected = "strict-numerics: non-finite value in LstmCell BPTT hidden gradients")]
    fn strict_numerics_catches_nan_hidden_gradient_on_avx2_instance() {
        let mut c = cell(2, 3);
        let trace = c.forward_seq_on(KernelInstance::Avx2, &seq(4, 2));
        let mut dh = vec![0.1; 3 * 4];
        dh[5] = f64::NAN;
        c.backward_seq_on(KernelInstance::Avx2, &trace, &dh);
    }

    #[cfg(all(feature = "strict-numerics", debug_assertions))]
    #[test]
    #[should_panic(expected = "strict-numerics: non-finite value in LstmCell input")]
    fn strict_numerics_catches_nan_input_on_literal_shape_instance() {
        let c = cell(4, 8);
        let _ = c.forward_seq_on(KernelInstance::Avx2, &[vec![0.1, 0.2, 0.3, f64::NAN]]);
    }

    #[test]
    fn forward_shapes() {
        let c = cell(3, 5);
        let t = c.forward_seq(&seq(7, 3));
        assert_eq!(t.len(), 7);
        assert!(!t.is_empty());
        assert_eq!(t.hidden(0).len(), 5);
        assert_eq!(t.last_hidden(), t.hidden(6));
    }

    #[test]
    fn flat_and_reversed_rows_match_forward_seq_bitwise() {
        let c = cell(3, 5);
        let xs = seq(9, 3);
        let trace = c.forward_seq(&xs);
        let flat: Vec<f64> = xs.iter().flatten().copied().collect();
        let from_flat = c.forward_flat(&flat);
        let rev: Vec<Vec<f64>> = xs.iter().rev().cloned().collect();
        let rev_trace = c.forward_seq(&rev);
        let from_rows = c.forward_rows(xs.iter().rev().map(Vec::as_slice));
        for t in 0..xs.len() {
            for (a, b) in trace.hidden(t).iter().zip(from_flat.hidden(t)) {
                assert_eq!(a.to_bits(), b.to_bits(), "flat step {t}");
            }
            for (a, b) in rev_trace.hidden(t).iter().zip(from_rows.hidden(t)) {
                assert_eq!(a.to_bits(), b.to_bits(), "reversed step {t}");
            }
        }
    }

    #[test]
    fn forward_handles_empty_inputs() {
        let c = cell(2, 3);
        assert!(c.forward_seq(&[]).is_empty());
        assert!(c.forward_flat(&[]).is_empty());
    }

    #[test]
    fn hidden_states_are_bounded() {
        let c = cell(2, 6);
        let xs: Vec<Vec<f64>> = (0..50).map(|_| vec![100.0, -100.0]).collect();
        let t = c.forward_seq(&xs);
        for step in 0..t.len() {
            let h = t.hidden(step);
            assert!(h.iter().all(|&v| v.abs() <= 1.0), "h out of bounds: {h:?}");
        }
    }

    #[test]
    fn bptt_gradient_check_inputs() {
        let c = cell(3, 4);
        let xs = seq(5, 3);
        let dxs = c.input_grad_seq(&c.forward_seq(&xs), &[1.0; 4 * 5]);

        let eps = 1e-6;
        for t in 0..xs.len() {
            for j in 0..3 {
                let mut xp = xs.clone();
                xp[t][j] += eps;
                let mut xm = xs.clone();
                xm[t][j] -= eps;
                let numeric = (loss(&c, &xp) - loss(&c, &xm)) / (2.0 * eps);
                assert!(
                    (numeric - dxs[t * 3 + j]).abs() < 1e-5,
                    "dx[{t}][{j}]: numeric {numeric} vs analytic {}",
                    dxs[t * 3 + j]
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
        c.backward_seq(&trace, &[1.0; 3 * 4]);

        let eps = 1e-6;
        // Spot-check entries in each weight matrix and the bias.
        for &(r, col) in &[(0usize, 0usize), (5, 1), (11, 0)] {
            let cp = perturbed(&c, |c| c.w_x[(r, col)] += eps);
            let cm = perturbed(&c, |c| c.w_x[(r, col)] -= eps);
            let numeric = (loss(&cp, &xs) - loss(&cm, &xs)) / (2.0 * eps);
            let analytic = c.gw_x[(r, col)];
            assert!(
                (numeric - analytic).abs() < 1e-5,
                "gw_x[{r},{col}]: numeric {numeric} vs analytic {analytic}"
            );
        }
        for &(r, col) in &[(0usize, 0usize), (7, 2), (10, 1)] {
            let cp = perturbed(&c, |c| c.w_h[(r, col)] += eps);
            let cm = perturbed(&c, |c| c.w_h[(r, col)] -= eps);
            let numeric = (loss(&cp, &xs) - loss(&cm, &xs)) / (2.0 * eps);
            let analytic = c.gw_h[(r, col)];
            assert!(
                (numeric - analytic).abs() < 1e-5,
                "gw_h[{r},{col}]: numeric {numeric} vs analytic {analytic}"
            );
        }
        for &r in &[0usize, 4, 9, 11] {
            let cp = perturbed(&c, |c| c.b[(r, 0)] += eps);
            let cm = perturbed(&c, |c| c.b[(r, 0)] -= eps);
            let numeric = (loss(&cp, &xs) - loss(&cm, &xs)) / (2.0 * eps);
            let analytic = c.gb[(r, 0)];
            assert!(
                (numeric - analytic).abs() < 1e-5,
                "gb[{r}]: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn held_transposes_follow_adam_steps_and_visitor_writes() {
        let mut c = cell(3, 5);
        c.assert_matches_rebuilt();
        let mut opt = Adam::new(0.05);
        for step in 0..3 {
            c.zero_grads();
            let trace = c.forward_seq(&seq(6, 3));
            c.backward_seq(&trace, &[0.5; 5 * 6]);
            opt.step(&mut c);
            c.assert_matches_rebuilt();
            assert!(c.w_x.as_slice().iter().any(|&w| w != 0.0), "step {step}");
        }
        c.visit_params(&mut |p, _| p.map_inplace(|w| 0.5 * w - 0.01));
        c.assert_matches_rebuilt();
    }

    #[test]
    fn forget_bias_initialized_to_one() {
        let c = cell(2, 3);
        for j in 0..3 {
            assert_eq!(c.b[(3 + j, 0)], 1.0);
        }
        assert_eq!(c.b[(0, 0)], 0.0);
    }

    #[test]
    fn trainable_visits_three_params() {
        let mut c = cell(2, 3);
        let mut n = 0;
        c.visit_params(&mut |_, _| n += 1);
        assert_eq!(n, 3);
        assert_eq!(c.param_count(), 12 * 2 + 12 * 3 + 12);
    }

    #[test]
    #[should_panic(expected = "gradients for")]
    fn backward_length_mismatch_panics() {
        let mut c = cell(2, 3);
        let trace = c.forward_seq(&seq(4, 2));
        c.backward_seq(&trace, &[0.0; 3]);
    }

    #[test]
    fn empty_sequence_yields_empty_trace() {
        let c = cell(2, 3);
        let t = c.forward_seq(&[]);
        assert!(t.is_empty());
    }

    #[test]
    fn backward_over_empty_trace_is_a_no_op() {
        let mut c = cell(2, 3);
        let trace = c.forward_seq(&[]);
        assert!(c.input_grad_seq(&trace, &[]).is_empty());
        c.backward_seq(&trace, &[]);
        let mut total = 0.0;
        c.visit_params(&mut |_, g| total += g.as_slice().iter().map(|v| v.abs()).sum::<f64>());
        assert_eq!(total, 0.0);
    }

    #[test]
    fn resumed_steps_match_the_full_forward_bitwise() {
        let c = cell(3, 5);
        let xs = seq(12, 3);
        let full = c.forward_seq(&xs);
        for keep in 0..=xs.len() {
            let resumed = c.resume_rows(&full, keep, xs[keep..].iter().map(Vec::as_slice));
            assert_eq!(resumed.len(), xs.len() - keep);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for t in 0..resumed.len() {
                // The whole slot: row, starting state, gates, cell, hidden.
                assert_eq!(
                    bits(resumed.slot(t)),
                    bits(full.slot(keep + t)),
                    "keep {keep}, step {t}"
                );
            }
        }
    }

    /// Dispatch sends only the table's shapes to a literal-shape instance:
    /// at every other shape, the public entry points on the AVX2 instance
    /// return the general body's bits — the whole trace, the pure input
    /// gradient and the accumulated parameter gradients. At the table's
    /// shapes the literal-shape forward writes the general body's trace,
    /// slot for slot, from the zero state and from a resumed state.
    #[test]
    fn only_table_shapes_reach_a_literal_shape_instance() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(Shape::of(4, 8), Shape::X4H8);
        assert_eq!(Shape::of(4, 16), Shape::X4H16);
        for (x, h) in [(4, 12), (3, 8), (5, 16), (4, 4), (8, 4), (16, 4), (1, 8)] {
            assert_eq!(Shape::of(x, h), Shape::General, "({x}, {h})");
        }
        for (x, h) in [(4, 12), (3, 8), (4, 8), (4, 16)] {
            let mut c = cell(x, h);
            let xs = seq(12, x);
            let rows = || xs.iter().map(Vec::as_slice);
            let general = c.run_rows_body(None, rows());
            let trace = c.forward_seq_on(KernelInstance::Avx2, &xs);
            assert_eq!(bits(&trace.data), bits(&general.data), "({x}, {h}) forward");
            let start = Some(general.state(4));
            let resumed = c.run_rows(KernelInstance::Avx2, start, rows().skip(5));
            let general_resumed = c.run_rows_body(start, rows().skip(5));
            assert_eq!(bits(&resumed.data), bits(&general_resumed.data), "({x}, {h}) resumed");
            let dh: Vec<f64> = (0..12 * h).map(|k| ((k % 7) as f64 - 3.0) * 0.25).collect();
            let mut dx = vec![0.0; 12 * x];
            bptt_body(x, h, &c.w_x, &c.w_h, &general, &dh, BpttOut::InputGrad(&mut dx));
            let pure = c.input_grad_seq_on(KernelInstance::Avx2, &trace, &dh);
            assert_eq!(bits(&pure), bits(&dx), "({x}, {h}) input gradient");
            let mut reference = c.clone();
            let LstmCell { w_x, w_h, gw_x, gw_h, gb, .. } = &mut reference;
            bptt_body(x, h, w_x, w_h, &general, &dh, BpttOut::Grads(gw_x, gw_h, gb));
            c.backward_seq_on(KernelInstance::Avx2, &trace, &dh);
            for (a, b) in [(&c.gw_x, &reference.gw_x), (&c.gw_h, &reference.gw_h), (&c.gb, &reference.gb)] {
                assert_eq!(bits(a.as_slice()), bits(b.as_slice()), "({x}, {h}) gradients");
            }
        }
    }

    #[test]
    #[should_panic(expected = "keep 5 of a 4-step prefix")]
    fn resume_past_the_prefix_panics() {
        let c = cell(2, 3);
        let prefix = c.forward_seq(&seq(4, 2));
        let _ = c.resume_rows(&prefix, 5, std::iter::empty());
    }
}
