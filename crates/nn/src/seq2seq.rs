use lgo_tensor::Matrix;
use rand::RngExt;

use crate::activation::Activation;
use crate::dense::Dense;
use crate::lstm::{KernelInstance, LstmCell, LstmTrace};
use crate::optimizer::Trainable;

/// An LSTM followed by a shared per-timestep dense head — the generator
/// architecture of MAD-GAN (Li et al., 2019): a latent sequence goes in, a
/// synthetic multivariate window comes out.
///
/// # Examples
///
/// ```
/// use lgo_nn::{Activation, LstmSeq2Seq};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(4);
/// let g = LstmSeq2Seq::new(3, 16, 4, Activation::Sigmoid, &mut rng);
/// let z = vec![vec![0.1, -0.2, 0.05]; 12];
/// let x = g.generate(&z);
/// assert_eq!(x.len(), 12);
/// assert_eq!(x[0].len(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct LstmSeq2Seq {
    cell: LstmCell,
    head: Dense,
}

/// Forward trace of a [`LstmSeq2Seq`] pass, consumed by
/// [`LstmSeq2Seq::backward`] and [`LstmSeq2Seq::input_grad`]: the flat
/// LSTM trace plus the head's pre-activations and outputs, each a flat
/// row-major `T × output` block.
#[derive(Debug, Clone)]
pub struct Seq2SeqTrace {
    lstm: LstmTrace,
    pre: Vec<f64>,
    outputs: Vec<f64>,
}

impl Seq2SeqTrace {
    /// The generated window, flat row-major `T × output`.
    pub fn outputs(&self) -> &[f64] {
        &self.outputs
    }
}

impl LstmSeq2Seq {
    /// Creates a generator mapping `input`-dim rows to `output`-dim rows
    /// through `hidden` LSTM units, with `out_activation` on the head
    /// (MAD-GAN uses a sigmoid because its windows are min-max scaled).
    ///
    /// # Panics
    ///
    /// Panics if any size is zero.
    pub fn new<R: RngExt + ?Sized>(
        input: usize,
        hidden: usize,
        output: usize,
        out_activation: Activation,
        rng: &mut R,
    ) -> Self {
        Self {
            cell: LstmCell::new(input, hidden, rng),
            head: Dense::new(hidden, output, out_activation, rng),
        }
    }

    /// Input (latent) dimensionality per timestep.
    pub fn input_size(&self) -> usize {
        self.cell.input_size()
    }

    /// Output dimensionality per timestep.
    pub fn output_size(&self) -> usize {
        self.head.output_size()
    }

    /// Pure inference: maps an input sequence to an output sequence.
    pub fn generate(&self, xs: &[Vec<f64>]) -> Vec<Vec<f64>> {
        self.forward(xs)
            .outputs
            .chunks_exact(self.output_size())
            .map(<[f64]>::to_vec)
            .collect()
    }

    /// Forward pass retaining everything needed for [`Self::backward`].
    pub fn forward(&self, xs: &[Vec<f64>]) -> Seq2SeqTrace {
        self.head_pass(self.cell.forward_seq(xs))
    }

    /// [`Self::forward`] over a flat row-major `T × input` sequence.
    ///
    /// # Panics
    ///
    /// Panics if `xs.len()` is not a multiple of the input width.
    pub fn forward_flat(&self, xs: &[f64]) -> Seq2SeqTrace {
        self.head_pass(self.cell.forward_flat(xs))
    }

    /// The head over the whole `T × H` hidden block, on the host's kernel
    /// instance, as the LSTM ran.
    fn head_pass(&self, lstm: LstmTrace) -> Seq2SeqTrace {
        let n = lstm.len() * self.output_size();
        let (mut pre, mut outputs) = (vec![0.0; n], vec![0.0; n]);
        let rows = lstm.hidden_rows();
        self.head
            .forward_block(KernelInstance::host(), rows, &mut pre, &mut outputs);
        Seq2SeqTrace { lstm, pre, outputs }
    }

    /// Checks `dys` against the trace and returns a zeroed flat `T × H`
    /// hidden-gradient buffer.
    fn dh_buffer(&self, trace: &Seq2SeqTrace, dys: &[f64]) -> Vec<f64> {
        assert_eq!(
            dys.len(),
            trace.outputs.len(),
            "backward: {} gradients for {} outputs",
            dys.len(),
            trace.outputs.len()
        );
        vec![0.0; trace.lstm.len() * self.cell.hidden_size()]
    }

    /// Backpropagates flat row-major `T × output` output gradients,
    /// accumulating parameter gradients. The input gradient is not
    /// computed: [`Self::input_grad`] returns it.
    ///
    /// # Panics
    ///
    /// Panics if `dys.len()` differs from the trace's output length.
    pub fn backward(&mut self, trace: &Seq2SeqTrace, dys: &[f64]) {
        let mut dh = self.dh_buffer(trace, dys);
        let kernels = KernelInstance::host();
        let rows = trace.lstm.hidden_rows();
        self.head
            .backward_block(kernels, rows, &trace.pre, &trace.outputs, dys, &mut dh);
        self.cell.backward_seq_on(kernels, &trace.lstm, &dh);
    }

    /// The flat `T × input` gradient of `Σ dys · outputs` with respect to
    /// the inputs, computed through `&self` without accumulating parameter
    /// gradients — a *pure* pass for shared generators (the MAD-GAN
    /// generator step and latent-inversion search).
    ///
    /// # Panics
    ///
    /// As [`Self::backward`].
    pub fn input_grad(&self, trace: &Seq2SeqTrace, dys: &[f64]) -> Vec<f64> {
        let mut dh = self.dh_buffer(trace, dys);
        let kernels = KernelInstance::host();
        self.head
            .input_grad_block(kernels, &trace.pre, &trace.outputs, dys, &mut dh);
        self.cell.input_grad_seq_on(kernels, &trace.lstm, &dh)
    }

    /// Gradient of `sum_t dys[t] · output[t]` with respect to every input
    /// cell, one row per timestep — a *pure* pass through `&self` that
    /// leaves the parameter-gradient accumulators untouched.
    ///
    /// # Panics
    ///
    /// Panics if `dys.len() != xs.len()` or any width mismatches.
    pub fn input_gradients(&self, xs: &[Vec<f64>], dys: &[Vec<f64>]) -> Vec<Vec<f64>> {
        assert_eq!(
            dys.len(),
            xs.len(),
            "input_gradients: {} gradients for {} steps",
            dys.len(),
            xs.len()
        );
        let dys: Vec<f64> = dys.iter().flatten().copied().collect();
        let dx = self.input_grad(&self.forward(xs), &dys);
        dx.chunks_exact(self.input_size()).map(<[f64]>::to_vec).collect()
    }
}

impl Trainable for LstmSeq2Seq {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
        self.cell.visit_params(f);
        self.head.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::Adam;
    use rand::{rngs::StdRng, SeedableRng};

    fn gen() -> LstmSeq2Seq {
        let mut rng = StdRng::seed_from_u64(9);
        LstmSeq2Seq::new(2, 6, 3, Activation::Sigmoid, &mut rng)
    }

    #[test]
    fn generate_matches_forward_outputs() {
        let g = gen();
        let xs = vec![vec![0.3, -0.1]; 7];
        let trace = g.forward(&xs);
        let flat: Vec<f64> = g.generate(&xs).into_iter().flatten().collect();
        assert_eq!(flat, trace.outputs());
    }

    #[test]
    fn sigmoid_head_outputs_unit_interval() {
        let g = gen();
        let xs = vec![vec![5.0, -5.0]; 4];
        for row in g.generate(&xs) {
            assert!(row.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn gradient_check_through_time() {
        let g = gen();
        let xs: Vec<Vec<f64>> = (0..4)
            .map(|t| vec![0.1 * t as f64, -0.05 * t as f64])
            .collect();
        let dxs = g.input_grad(&g.forward(&xs), &[1.0; 3 * 4]);

        let loss = |g: &LstmSeq2Seq, xs: &[Vec<f64>]| -> f64 {
            g.generate(xs).iter().flatten().sum()
        };
        let eps = 1e-6;
        for t in 0..xs.len() {
            for j in 0..2 {
                let mut xp = xs.clone();
                xp[t][j] += eps;
                let mut xm = xs.clone();
                xm[t][j] -= eps;
                let numeric = (loss(&g, &xp) - loss(&g, &xm)) / (2.0 * eps);
                assert!(
                    (numeric - dxs[t * 2 + j]).abs() < 1e-5,
                    "dx[{t}][{j}]: numeric {numeric} vs analytic {}",
                    dxs[t * 2 + j]
                );
            }
        }
    }

    #[test]
    fn can_fit_constant_sequence() {
        // The generator should learn to emit a constant window regardless of
        // its latent input.
        let mut g = gen();
        let target = vec![vec![0.8, 0.2, 0.5]; 6];
        let mut rng = StdRng::seed_from_u64(10);
        let mut opt = Adam::new(0.02);
        for _ in 0..300 {
            use rand::RngExt;
            let z: Vec<Vec<f64>> = (0..6)
                .map(|_| vec![rng.random_range(-1.0..1.0), rng.random_range(-1.0..1.0)])
                .collect();
            g.zero_grads();
            let trace = g.forward(&z);
            let dys: Vec<f64> = trace
                .outputs()
                .chunks_exact(3)
                .zip(&target)
                .flat_map(|(o, t)| o.iter().zip(t).map(|(&p, &y)| 2.0 * (p - y)))
                .collect();
            g.backward(&trace, &dys);
            opt.step(&mut g);
        }
        let z = vec![vec![0.0, 0.0]; 6];
        let out = g.generate(&z);
        for row in out {
            for (o, t) in row.iter().zip(&[0.8, 0.2, 0.5]) {
                assert!((o - t).abs() < 0.1, "generated {o} target {t}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "gradients for")]
    fn backward_checks_lengths() {
        let mut g = gen();
        let trace = g.forward(&[vec![0.0, 0.0]]);
        g.backward(&trace, &[]);
    }
}
