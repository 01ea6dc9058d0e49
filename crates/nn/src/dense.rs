use lgo_tensor::sanitize::check_finite;
use lgo_tensor::Matrix;
use rand::RngExt;

use crate::activation::Activation;
use crate::init;
use crate::lstm::KernelInstance;
use crate::optimizer::Trainable;

/// A fully connected layer `y = act(W x + b)` operating on single vectors.
///
/// The layer keeps no per-call state: [`Self::forward_into`] writes the
/// pre-activation and output into caller-owned slots, and
/// [`Self::backward_into`] reads them back to compute weight gradients.
/// Gradients *accumulate* across calls until [`Trainable::zero_grads`] is
/// invoked, which is what minibatch training wants.
///
/// # Examples
///
/// ```
/// use lgo_nn::{Activation, Dense, Trainable};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let mut layer = Dense::new(3, 2, Activation::Tanh, &mut rng);
/// let x = [1.0, 0.0, -1.0];
/// let (mut pre, mut y) = ([0.0; 2], [0.0; 2]);
/// layer.forward_into(&x, &mut pre, &mut y);
/// assert_eq!(y.to_vec(), layer.infer(&x));
///
/// // Loss = y[0] + y[1]: accumulate the parameter gradients and get the
/// // input gradient back.
/// layer.zero_grads();
/// let mut dx = [0.0; 3];
/// layer.backward_into(&x, &pre, &y, &[1.0, 1.0], &mut dx);
/// assert!(dx.iter().all(|d| d.is_finite()));
/// ```
#[derive(Debug, Clone)]
pub struct Dense {
    weight: Matrix, // (out, in)
    bias: Matrix,   // (out, 1)
    grad_weight: Matrix,
    grad_bias: Matrix,
    activation: Activation,
}

impl Dense {
    /// Creates a layer with Xavier-uniform weights and zero biases.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new<R: RngExt + ?Sized>(
        input: usize,
        output: usize,
        activation: Activation,
        rng: &mut R,
    ) -> Self {
        assert!(input > 0 && output > 0, "Dense::new: zero-sized layer");
        Self {
            weight: init::xavier_uniform(output, input, rng),
            bias: Matrix::zeros(output, 1),
            grad_weight: Matrix::zeros(output, input),
            grad_bias: Matrix::zeros(output, 1),
            activation,
        }
    }

    /// Input dimensionality.
    pub fn input_size(&self) -> usize {
        self.weight.cols()
    }

    /// Output dimensionality.
    pub fn output_size(&self) -> usize {
        self.weight.rows()
    }

    /// The layer's activation function.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Immutable view of the weight matrix (rows = outputs).
    pub fn weight(&self) -> &Matrix {
        &self.weight
    }

    /// Pure inference (usable through `&self`).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.input_size()`.
    pub fn infer(&self, x: &[f64]) -> Vec<f64> {
        // One allocation: the pre-activation slot, then the output.
        let out = self.output_size();
        let mut y = vec![0.0; 2 * out];
        let (pre, post) = y.split_at_mut(out);
        self.forward_into(x, pre, post);
        y.drain(..out);
        y
    }

    /// Runs the layer forward into caller-owned `pre` (pre-activation) and
    /// `post` (output) slots — the allocation-free form for layers applied
    /// at many positions (e.g. the per-timestep head of a sequence model),
    /// whose traces keep the slots for [`Self::backward_into`] /
    /// [`Self::input_grad_into`].
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.input_size()` or a slot is not
    /// [`Self::output_size`] wide.
    pub fn forward_into(&self, x: &[f64], pre: &mut [f64], post: &mut [f64]) {
        self.forward_block(KernelInstance::host(), Rows::one(x), pre, post);
    }

    /// Backpropagates `dy` through the slots of one [`Self::forward_into`]
    /// call on input `x`, accumulating weight/bias gradients and writing
    /// the input gradient into `dx` (overwritten).
    ///
    /// # Panics
    ///
    /// Panics if a width mismatches.
    pub fn backward_into(
        &mut self,
        x: &[f64],
        pre: &[f64],
        post: &[f64],
        dy: &[f64],
        dx: &mut [f64],
    ) {
        self.backward_block(KernelInstance::host(), Rows::one(x), pre, post, dy, dx);
    }

    /// [`Self::backward_into`] *without* touching the parameter-gradient
    /// accumulators: the pure input-gradient path usable through `&self`
    /// on shared layers. Writes exactly the bits `backward_into` writes.
    ///
    /// # Panics
    ///
    /// Panics if a width mismatches.
    pub fn input_grad_into(&self, pre: &[f64], post: &[f64], dy: &[f64], dx: &mut [f64]) {
        self.input_grad_block(KernelInstance::host(), pre, post, dy, dx);
    }

    /// [`Self::forward_into`] over `T` input rows at once, on the `kernels`
    /// instance: `pre` and `post` are flat row-major `T × output` blocks.
    pub(crate) fn forward_block(
        &self,
        kernels: KernelInstance,
        rows: Rows<'_>,
        pre: &mut [f64],
        post: &mut [f64],
    ) {
        let (weight, bias, activation) = (&self.weight, &self.bias, self.activation);
        #[cfg(target_arch = "x86_64")]
        if kernels.runs_avx2() {
            // SAFETY: `runs_avx2` holds only on a host with AVX2.
            return unsafe { forward_avx2(weight, bias, activation, rows, pre, post) };
        }
        let _ = kernels; // read only on x86-64
        forward_body(weight, bias, activation, rows, pre, post)
    }

    /// [`Self::backward_into`] over the `T`-row slots of one
    /// [`Self::forward_block`] call on `rows`; `dx` is flat `T × input`.
    pub(crate) fn backward_block(
        &mut self,
        kernels: KernelInstance,
        rows: Rows<'_>,
        pre: &[f64],
        post: &[f64],
        dy: &[f64],
        dx: &mut [f64],
    ) {
        assert_eq!(
            rows.width,
            self.input_size(),
            "Dense::backward: bad input length"
        );
        let Self {
            weight,
            grad_weight,
            grad_bias,
            activation,
            ..
        } = self;
        let grads = Some((grad_weight, grad_bias, rows));
        backprop(kernels, weight, *activation, pre, post, dy, dx, grads);
    }

    /// [`Self::input_grad_into`] over the `T`-row slots of one
    /// [`Self::forward_block`] call.
    pub(crate) fn input_grad_block(
        &self,
        kernels: KernelInstance,
        pre: &[f64],
        post: &[f64],
        dy: &[f64],
        dx: &mut [f64],
    ) {
        backprop(kernels, &self.weight, self.activation, pre, post, dy, dx, None);
    }
}

/// `T` input rows of one width, `stride` apart: a single vector, or the
/// hidden fields of an [`LstmTrace`](crate::LstmTrace) read in place.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Rows<'a> {
    data: &'a [f64],
    stride: usize,
    width: usize,
    len: usize,
}

impl<'a> Rows<'a> {
    /// `len` rows of `width` values, row `t` starting at `t * stride`.
    ///
    /// # Panics
    ///
    /// Panics if the last row runs past `data`.
    pub(crate) fn strided(data: &'a [f64], stride: usize, width: usize, len: usize) -> Self {
        assert!(
            len == 0 || (len - 1) * stride + width <= data.len(),
            "Rows: {len} rows of {width} at stride {stride} overrun {} values",
            data.len()
        );
        Self {
            data,
            stride,
            width,
            len,
        }
    }

    /// The single row `x`.
    fn one(x: &'a [f64]) -> Self {
        Self::strided(x, x.len(), x.len(), 1)
    }

    #[inline(always)]
    fn row(&self, t: usize) -> &'a [f64] {
        &self.data[t * self.stride..t * self.stride + self.width]
    }
}

/// [`forward_body`] compiled with AVX2 enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn forward_avx2(
    weight: &Matrix,
    bias: &Matrix,
    activation: Activation,
    rows: Rows<'_>,
    pre: &mut [f64],
    post: &mut [f64],
) {
    forward_body(weight, bias, activation, rows, pre, post)
}

/// The head's forward block, inlined into both instances: one affine pass
/// (`pre_t = W x_t + b`, each output an ascending-k dot started from −0.0
/// as `Iterator::sum` starts it, then `+ b`: the bits of the row-by-row
/// form), then one activation sweep over the whole `T × output` block.
#[inline(always)]
fn forward_body(
    weight: &Matrix,
    bias: &Matrix,
    activation: Activation,
    rows: Rows<'_>,
    pre: &mut [f64],
    post: &mut [f64],
) {
    let (out, cols) = weight.shape();
    assert_eq!(rows.width, cols, "Dense: input length mismatch");
    assert_eq!(pre.len(), rows.len * out, "Dense: pre slot width mismatch");
    let weights = weight.as_slice().chunks_exact(cols);
    for (t, p) in pre.chunks_exact_mut(out).enumerate() {
        let x = rows.row(t);
        check_finite(x, "Dense input");
        for ((o, w), &b) in p.iter_mut().zip(weights.clone()).zip(bias.as_slice()) {
            let mut acc = -0.0;
            for (&a, &v) in w.iter().zip(x) {
                acc += a * v;
            }
            *o = acc + b;
        }
    }
    post.copy_from_slice(pre);
    activation.apply_slice(post);
}

/// The `(grad_weight, grad_bias, input rows)` of an accumulating
/// [`backprop`].
type Grads<'a> = (&'a mut Matrix, &'a mut Matrix, Rows<'a>);

/// The backward block shared by the accumulating and pure paths, on the
/// `kernels` instance of [`backprop_body`].
#[allow(clippy::too_many_arguments)] // the body's seven operands plus the instance
fn backprop(
    kernels: KernelInstance,
    weight: &Matrix,
    activation: Activation,
    pre: &[f64],
    post: &[f64],
    dy: &[f64],
    dx: &mut [f64],
    grads: Option<Grads<'_>>,
) {
    #[cfg(target_arch = "x86_64")]
    if kernels.runs_avx2() {
        // SAFETY: `runs_avx2` holds only on a host with AVX2.
        return unsafe { backprop_avx2(weight, activation, pre, post, dy, dx, grads) };
    }
    let _ = kernels; // read only on x86-64
    backprop_body(weight, activation, pre, post, dy, dx, grads)
}

/// [`backprop_body`] compiled with AVX2 enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn backprop_avx2(
    weight: &Matrix,
    activation: Activation,
    pre: &[f64],
    post: &[f64],
    dy: &[f64],
    dx: &mut [f64],
    grads: Option<Grads<'_>>,
) {
    backprop_body(weight, activation, pre, post, dy, dx, grads)
}

/// Outputs whose `dz` block [`backprop_body`] keeps on the stack.
const STACK_DZ: usize = 64;

/// The head's backward block, inlined into both instances: one sweep
/// `dz = dy ⊙ act'(pre, post)` over the `T × output` block; then, when
/// `grads` is `Some`, `grad_weight += dz_t x_tᵀ` per entry in ascending `t`
/// skipping exact-zero `dz`, and `grad_bias += dz_t` in ascending `t`;
/// then each `dx_t = Wᵀ dz_t`, accumulated in ascending row order with the
/// same skip. These are the bits of one [`Matrix::add_outer`] and
/// [`Matrix::matvec_transpose`] per row, without their temporaries.
#[inline(always)]
fn backprop_body(
    weight: &Matrix,
    activation: Activation,
    pre: &[f64],
    post: &[f64],
    dy: &[f64],
    dx: &mut [f64],
    grads: Option<Grads<'_>>,
) {
    let (out, cols) = weight.shape();
    let len = dy.len() / out;
    assert_eq!(dy.len(), len * out, "Dense::backward: bad dy length");
    assert_eq!(
        (pre.len(), post.len()),
        (dy.len(), dy.len()),
        "Dense::backward: bad slot width"
    );
    assert_eq!(dx.len(), len * cols, "Dense::backward: bad dx length");
    let mut stack = [0.0; STACK_DZ];
    let mut heap = Vec::new();
    let dz = if dy.len() <= STACK_DZ {
        &mut stack[..dy.len()]
    } else {
        heap.resize(dy.len(), 0.0);
        &mut heap[..]
    };
    for (((d, &g), &z), &y) in dz.iter_mut().zip(dy).zip(pre).zip(post) {
        *d = g * activation.derivative(z, y);
    }
    check_finite(dz, "Dense output gradient");
    if let Some((grad_weight, grad_bias, rows)) = grads {
        assert_eq!(rows.len, len, "Dense::backward: {} input rows for {len}", rows.len);
        for (t, dz_t) in dz.chunks_exact(out).enumerate() {
            let x = rows.row(t);
            for (g, &d) in grad_weight.as_mut_slice().chunks_exact_mut(cols).zip(dz_t) {
                // lint: allow(L4): the exact-zero skip of add_outer
                if d != 0.0 {
                    for (g, &v) in g.iter_mut().zip(x) {
                        *g += d * v;
                    }
                }
            }
            for (g, &d) in grad_bias.as_mut_slice().iter_mut().zip(dz_t) {
                *g += d;
            }
        }
    }
    for (dz_t, dx_t) in dz.chunks_exact(out).zip(dx.chunks_exact_mut(cols)) {
        dx_t.fill(0.0);
        for (&d, w) in dz_t.iter().zip(weight.as_slice().chunks_exact(cols)) {
            // lint: allow(L4): the exact-zero skip of matvec_transpose
            if d == 0.0 {
                continue;
            }
            for (o, &a) in dx_t.iter_mut().zip(w) {
                *o += a * d;
            }
        }
    }
}

impl Trainable for Dense {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
        f(&mut self.weight, &mut self.grad_weight);
        f(&mut self.bias, &mut self.grad_bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn layer() -> Dense {
        let mut rng = StdRng::seed_from_u64(11);
        Dense::new(4, 3, Activation::Tanh, &mut rng)
    }

    /// `forward_into` on `x`, then `backward_into` with `dy`; returns the
    /// output and the input gradient.
    fn forward_backward(l: &mut Dense, x: &[f64], dy: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let mut pre = vec![0.0; l.output_size()];
        let mut post = vec![0.0; l.output_size()];
        l.forward_into(x, &mut pre, &mut post);
        let mut dx = vec![0.0; l.input_size()];
        l.backward_into(x, &pre, &post, dy, &mut dx);
        (post, dx)
    }

    #[test]
    fn forward_into_and_infer_agree() {
        let l = layer();
        let x = [0.3, -0.1, 0.7, 0.2];
        let (mut pre, mut post) = ([0.0; 3], [0.0; 3]);
        l.forward_into(&x, &mut pre, &mut post);
        assert_eq!(post.to_vec(), l.infer(&x));
    }

    #[test]
    fn gradient_check_weights_and_input() {
        // Loss = sum(y); analytic gradients must match finite differences.
        let mut l = layer();
        let x = [0.5, -0.3, 0.2, 0.9];
        l.zero_grads();
        let (_, dx) = forward_backward(&mut l, &x, &[1.0; 3]);

        let eps = 1e-6;
        // Input gradient.
        for i in 0..x.len() {
            let mut xp = x;
            xp[i] += eps;
            let mut xm = x;
            xm[i] -= eps;
            let fp: f64 = l.infer(&xp).iter().sum();
            let fm: f64 = l.infer(&xm).iter().sum();
            let numeric = (fp - fm) / (2.0 * eps);
            assert!(
                (numeric - dx[i]).abs() < 1e-6,
                "dx[{i}]: numeric {numeric} vs analytic {}",
                dx[i]
            );
        }
        // Weight gradient (spot-check a few entries).
        for &(r, c) in &[(0, 0), (1, 2), (2, 3)] {
            let mut lp = l.clone();
            lp.weight[(r, c)] += eps;
            let mut lm = l.clone();
            lm.weight[(r, c)] -= eps;
            let fp: f64 = lp.infer(&x).iter().sum();
            let fm: f64 = lm.infer(&x).iter().sum();
            let numeric = (fp - fm) / (2.0 * eps);
            let analytic = l.grad_weight[(r, c)];
            assert!(
                (numeric - analytic).abs() < 1e-6,
                "dW[{r},{c}]: numeric {numeric} vs analytic {analytic}"
            );
        }
        // Bias gradient.
        for r in 0..3 {
            let mut lp = l.clone();
            lp.bias[(r, 0)] += eps;
            let mut lm = l.clone();
            lm.bias[(r, 0)] -= eps;
            let fp: f64 = lp.infer(&x).iter().sum();
            let fm: f64 = lm.infer(&x).iter().sum();
            let numeric = (fp - fm) / (2.0 * eps);
            assert!((numeric - l.grad_bias[(r, 0)]).abs() < 1e-6);
        }
    }

    #[test]
    fn gradients_accumulate_until_zeroed() {
        let mut l = layer();
        let x = [1.0, 1.0, 1.0, 1.0];
        l.zero_grads();
        forward_backward(&mut l, &x, &[1.0, 1.0, 1.0]);
        let g1 = l.grad_weight.clone();
        forward_backward(&mut l, &x, &[1.0, 1.0, 1.0]);
        assert_eq!(l.grad_weight, g1.scale(2.0));
        l.zero_grads();
        assert_eq!(l.grad_weight.sum(), 0.0);
    }

    /// The per-row form the head block replaced: each output a dot summed
    /// by `Iterator::sum`, plus the bias, then the activation; backward one
    /// row at a time with the exact-zero skips of `add_outer` /
    /// `matvec_transpose`. Returns the input gradient.
    fn row_forward(l: &Dense, x: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let pre: Vec<f64> = (0..l.output_size())
            .map(|r| {
                let mut o = l.weight.row(r).iter().zip(x).map(|(&a, &v)| a * v).sum::<f64>();
                o += l.bias.as_slice()[r];
                o
            })
            .collect();
        let post = pre.iter().map(|&z| l.activation.apply(z)).collect();
        (pre, post)
    }

    fn row_backward(
        l: &mut Dense,
        x: &[f64],
        pre: &[f64],
        post: &[f64],
        dy: &[f64],
        accumulate: bool,
    ) -> Vec<f64> {
        let mut dx = vec![0.0; l.input_size()];
        for r in 0..l.output_size() {
            let dz = dy[r] * l.activation.derivative(pre[r], post[r]);
            if accumulate {
                if dz != 0.0 {
                    for (g, &v) in l.grad_weight.row_mut(r).iter_mut().zip(x) {
                        *g += dz * v;
                    }
                }
                l.grad_bias.as_mut_slice()[r] += dz;
            }
            if dz != 0.0 {
                for (o, &a) in dx.iter_mut().zip(l.weight.row(r)) {
                    *o += a * dz;
                }
            }
        }
        dx
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The head block over `len` rows read at a stride, on one instance,
    /// against the per-row form: pre-activations, outputs, pure and
    /// accumulating input gradients, and parameter gradients accumulated
    /// over two passes. Row 1 is all −0.0 (and so are the even biases),
    /// every third `dy` row is exactly zero, and the large-amplitude pass
    /// saturates the sigmoid so some `dz` are exactly zero.
    fn check_head_block(activation: Activation, out: usize, len: usize, kernels: KernelInstance) {
        let (input, stride) = (8, 11);
        let case = format!("{activation:?} out {out} T {len} {kernels:?}");
        let mut block = Dense::new(input, out, activation, &mut StdRng::seed_from_u64(len as u64));
        for (r, b) in block.bias.as_mut_slice().iter_mut().enumerate() {
            *b = if r % 2 == 0 { -0.0 } else { 0.1 * r as f64 };
        }
        // Output 0 sees only −0.0 products on row 1, so its dot keeps the
        // sign of the chain's −0.0 start.
        block.weight.row_mut(0).iter_mut().for_each(|w| *w = w.abs());
        block.zero_grads();
        let mut rows = block.clone();
        for amplitude in [0.9, 60.0] {
            let data: Vec<f64> = (0..len * stride)
                .map(|k| match (k / stride, k % stride) {
                    (1, _) => -0.0,
                    (_, c) if c >= input => f64::NAN, // between rows: never read
                    _ => (k as f64 * 0.61).sin() * amplitude,
                })
                .collect();
            let xs = Rows::strided(&data, stride, input, len);
            let dy: Vec<f64> = (0..len * out)
                .map(|k| if (k / out) % 3 == 2 { 0.0 } else { (k as f64 * 0.37).cos() })
                .collect();
            let (mut pre, mut post) = (vec![0.0; len * out], vec![0.0; len * out]);
            block.forward_block(kernels, xs, &mut pre, &mut post);
            let mut dx = vec![0.0; len * input];
            block.input_grad_block(kernels, &pre, &post, &dy, &mut dx);
            let mut dx_acc = vec![0.0; len * input];
            block.backward_block(kernels, xs, &pre, &post, &dy, &mut dx_acc);
            for t in 0..len {
                let (x, span, got) = (xs.row(t), t * out..(t + 1) * out, t * input..(t + 1) * input);
                let (p, y) = row_forward(&rows, x);
                assert_eq!(bits(&pre[span.clone()]), bits(&p), "{case} pre row {t}");
                assert_eq!(bits(&post[span.clone()]), bits(&y), "{case} post row {t}");
                let want = row_backward(&mut rows, x, &p, &y, &dy[span], true);
                assert_eq!(bits(&dx[got.clone()]), bits(&want), "{case} dx row {t}");
                assert_eq!(bits(&dx_acc[got]), bits(&want), "{case} backward dx row {t}");
            }
        }
        let grads = |l: &Dense| bits(&[l.grad_weight.as_slice(), l.grad_bias.as_slice()].concat());
        assert_eq!(grads(&block), grads(&rows), "{case} parameter gradients");
    }

    #[test]
    fn head_block_matches_per_row_form_bitwise() {
        for activation in [Activation::Sigmoid, Activation::Tanh, Activation::Identity] {
            for out in 1..=5 {
                for len in [1, 2, 12] {
                    for kernels in [KernelInstance::Portable, KernelInstance::Avx2] {
                        check_head_block(activation, out, len, kernels);
                    }
                }
            }
        }
    }

    #[test]
    fn trainable_exposes_two_params() {
        let mut l = layer();
        let mut n = 0;
        l.visit_params(&mut |_, _| n += 1);
        assert_eq!(n, 2);
        assert_eq!(l.param_count(), 4 * 3 + 3);
    }
}
