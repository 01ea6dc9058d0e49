use lgo_tensor::Matrix;
use rand::RngExt;

use crate::activation::Activation;
use crate::init;
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

    /// `out = W x + b`, each row an ascending-k dot (the bits of
    /// [`Matrix::matvec`]) plus its bias.
    fn affine_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.input_size(), "Dense: input length mismatch");
        lgo_tensor::sanitize::check_finite(x, "Dense input");
        let cols = self.input_size();
        for ((o, row), &b) in out
            .iter_mut()
            .zip(self.weight.as_slice().chunks_exact(cols))
            .zip(self.bias.as_slice())
        {
            *o = row.iter().zip(x).map(|(&a, &v)| a * v).sum::<f64>();
            *o += b;
        }
    }

    /// Pure inference (usable through `&self`).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.input_size()`.
    pub fn infer(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.output_size()];
        self.affine_into(x, &mut y);
        self.activation.apply_slice(&mut y);
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
        assert_eq!(
            pre.len(),
            self.output_size(),
            "Dense: pre slot width mismatch"
        );
        self.affine_into(x, pre);
        post.copy_from_slice(pre);
        self.activation.apply_slice(post);
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
        assert_eq!(
            x.len(),
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
        backprop(
            weight,
            *activation,
            pre,
            post,
            dy,
            dx,
            Some((grad_weight, grad_bias, x)),
        );
    }

    /// [`Self::backward_into`] *without* touching the parameter-gradient
    /// accumulators: the pure input-gradient path usable through `&self`
    /// on shared layers. Writes exactly the bits `backward_into` writes.
    ///
    /// # Panics
    ///
    /// Panics if a width mismatches.
    pub fn input_grad_into(&self, pre: &[f64], post: &[f64], dy: &[f64], dx: &mut [f64]) {
        backprop(&self.weight, self.activation, pre, post, dy, dx, None);
    }
}

/// The backward core shared by the accumulating and pure paths, one output
/// row at a time: `dz = dy ⊙ act'(pre, post)`, then (when `grads` is
/// `Some((grad_weight, grad_bias, x))`) `grad_weight += dz xᵀ` skipping
/// exact-zero rows and `grad_bias += dz`, and `dx = Wᵀ dz` accumulated in
/// ascending row order with the same skip — the bits of
/// [`Matrix::add_outer`] and [`Matrix::matvec_transpose`] without their
/// temporaries.
fn backprop(
    weight: &Matrix,
    activation: Activation,
    pre: &[f64],
    post: &[f64],
    dy: &[f64],
    dx: &mut [f64],
    mut grads: Option<(&mut Matrix, &mut Matrix, &[f64])>,
) {
    assert_eq!(dy.len(), weight.rows(), "Dense::backward: bad dy length");
    assert_eq!(
        (pre.len(), post.len()),
        (dy.len(), dy.len()),
        "Dense::backward: bad slot width"
    );
    assert_eq!(dx.len(), weight.cols(), "Dense::backward: bad dx length");
    dx.fill(0.0);
    for (r, ((&d, &z), &y)) in dy.iter().zip(pre).zip(post).enumerate() {
        let dz = d * activation.derivative(z, y);
        lgo_tensor::sanitize::check_finite_scalar(dz, "Dense output gradient");
        let skip = dz == 0.0; // lint: allow(L4): the exact-zero skip of add_outer / matvec_transpose
        if let Some((grad_weight, grad_bias, x)) = grads.as_mut() {
            if !skip {
                for (g, &v) in grad_weight.row_mut(r).iter_mut().zip(x.iter()) {
                    *g += dz * v;
                }
            }
            grad_bias.as_mut_slice()[r] += dz;
        }
        if skip {
            continue;
        }
        for (o, &a) in dx.iter_mut().zip(weight.row(r)) {
            *o += a * dz;
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

    #[test]
    fn trainable_exposes_two_params() {
        let mut l = layer();
        let mut n = 0;
        l.visit_params(&mut |_, _| n += 1);
        assert_eq!(n, 2);
        assert_eq!(l.param_count(), 4 * 3 + 3);
    }
}
