use lgo_tensor::Matrix;
use rand::RngExt;

use crate::activation::Activation;
use crate::dense::Dense;
use crate::lstm::{LstmCell, LstmTrace};
use crate::optimizer::Trainable;

/// An LSTM sequence classifier emitting one probability per window — the
/// discriminator of MAD-GAN, also used directly to produce the
/// discrimination half of the DR-Score.
///
/// # Examples
///
/// ```
/// use lgo_nn::LstmDiscriminator;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(8);
/// let d = LstmDiscriminator::new(4, 16, &mut rng);
/// let window = vec![vec![0.5; 4]; 12];
/// let p = d.probability(&window);
/// assert!((0.0..=1.0).contains(&p));
/// ```
#[derive(Debug, Clone)]
pub struct LstmDiscriminator {
    cell: LstmCell,
    head: Dense,
}

/// Forward trace of a discriminator pass, consumed by
/// [`LstmDiscriminator::backward`] and [`LstmDiscriminator::input_grad`]:
/// the flat LSTM trace plus the head's `[pre-activation, probability]`
/// slot.
#[derive(Debug, Clone)]
pub struct DiscriminatorTrace {
    lstm: LstmTrace,
    head: [f64; 2],
}

impl DiscriminatorTrace {
    /// The probability emitted by the forward pass.
    pub fn probability(&self) -> f64 {
        self.head[1]
    }
}

impl LstmDiscriminator {
    /// Creates a discriminator for `input`-dim rows with `hidden` LSTM units.
    ///
    /// # Panics
    ///
    /// Panics if either size is zero.
    pub fn new<R: RngExt + ?Sized>(input: usize, hidden: usize, rng: &mut R) -> Self {
        Self {
            cell: LstmCell::new(input, hidden, rng),
            head: Dense::new(hidden, 1, Activation::Sigmoid, rng),
        }
    }

    /// Input dimensionality per timestep.
    pub fn input_size(&self) -> usize {
        self.cell.input_size()
    }

    /// Probability that the window is *real* (pure inference).
    ///
    /// # Panics
    ///
    /// Panics if the window is empty or row widths mismatch.
    pub fn probability(&self, window: &[Vec<f64>]) -> f64 {
        self.forward(window).probability()
    }

    /// Forward pass retaining intermediates for [`Self::backward`].
    ///
    /// # Panics
    ///
    /// Panics if the window is empty.
    pub fn forward(&self, window: &[Vec<f64>]) -> DiscriminatorTrace {
        assert!(!window.is_empty(), "forward: empty window");
        self.head_pass(self.cell.forward_seq(window))
    }

    /// [`Self::forward`] over a flat row-major `T × input` window (e.g. the
    /// flat outputs of an [`LstmSeq2Seq`](crate::LstmSeq2Seq) generator).
    ///
    /// # Panics
    ///
    /// Panics if the window is empty or not a whole number of rows.
    pub fn forward_flat(&self, window: &[f64]) -> DiscriminatorTrace {
        assert!(!window.is_empty(), "forward: empty window");
        self.head_pass(self.cell.forward_flat(window))
    }

    fn head_pass(&self, lstm: LstmTrace) -> DiscriminatorTrace {
        let mut head = [0.0; 2];
        let (pre, post) = head.split_at_mut(1);
        self.head.forward_into(lstm.last_hidden(), pre, post);
        DiscriminatorTrace { lstm, head }
    }

    /// Backpropagates `dprob` (gradient of the loss w.r.t. the emitted
    /// probability), accumulating parameter gradients. The input gradient
    /// is not computed: [`Self::input_grad`] returns it.
    pub fn backward(&mut self, trace: &DiscriminatorTrace, dprob: f64) {
        // Only the last hidden state feeds the head.
        let h = self.cell.hidden_size();
        let mut dh = vec![0.0; trace.lstm.len() * h];
        let last = dh.len() - h;
        let (pre, post) = trace.head.split_at(1);
        self.head.backward_into(
            trace.lstm.last_hidden(),
            pre,
            post,
            &[dprob],
            &mut dh[last..],
        );
        self.cell.backward_seq(&trace.lstm, &dh);
    }

    /// The flat `T × input` gradient of the loss with respect to the input
    /// window, for the `dprob` [`Self::backward`] takes, computed through
    /// `&self` without accumulating parameter gradients — the path through
    /// which the MAD-GAN generator step receives gradients.
    pub fn input_grad(&self, trace: &DiscriminatorTrace, dprob: f64) -> Vec<f64> {
        // Only the last hidden state feeds the head.
        let h = self.cell.hidden_size();
        let mut dh = vec![0.0; trace.lstm.len() * h];
        let last = dh.len() - h;
        let (pre, post) = trace.head.split_at(1);
        self.head
            .input_grad_into(pre, post, &[dprob], &mut dh[last..]);
        self.cell.input_grad_seq(&trace.lstm, &dh)
    }
}

impl Trainable for LstmDiscriminator {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
        self.cell.visit_params(f);
        self.head.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::Loss;
    use crate::optimizer::Adam;
    use rand::{rngs::StdRng, RngExt, SeedableRng};

    fn disc() -> LstmDiscriminator {
        let mut rng = StdRng::seed_from_u64(13);
        LstmDiscriminator::new(2, 8, &mut rng)
    }

    #[test]
    fn probability_in_unit_interval() {
        let d = disc();
        let w = vec![vec![10.0, -10.0]; 6];
        let p = d.probability(&w);
        assert!((0.0..=1.0).contains(&p));
        assert_eq!(p, d.forward(&w).probability());
    }

    #[test]
    fn gradient_check_input() {
        let d = disc();
        let w: Vec<Vec<f64>> = (0..5)
            .map(|t| vec![(t as f64 * 0.3).sin(), (t as f64 * 0.7).cos()])
            .collect();
        // Flat `T × input` gradient of the probability itself.
        let dx = d.input_grad(&d.forward(&w), 1.0);
        let eps = 1e-6;
        for t in 0..w.len() {
            for j in 0..2 {
                let mut wp = w.clone();
                wp[t][j] += eps;
                let mut wm = w.clone();
                wm[t][j] -= eps;
                let numeric = (d.probability(&wp) - d.probability(&wm)) / (2.0 * eps);
                let analytic = dx[t * 2 + j];
                assert!(
                    (numeric - analytic).abs() < 1e-6,
                    "dx[{t}][{j}]: numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn separates_two_distributions() {
        // Real: smooth low-amplitude windows. Fake: saturated noise.
        let mut rng = StdRng::seed_from_u64(99);
        let real = |rng: &mut StdRng| -> Vec<Vec<f64>> {
            let phase: f64 = rng.random_range(0.0..3.0);
            (0..8)
                .map(|t| {
                    let v = ((t as f64) * 0.5 + phase).sin() * 0.2 + 0.5;
                    vec![v, v * 0.5]
                })
                .collect()
        };
        let fake = |rng: &mut StdRng| -> Vec<Vec<f64>> {
            (0..8)
                .map(|_| vec![rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)])
                .collect()
        };
        let mut d = disc();
        let mut opt = Adam::new(0.01);
        for _ in 0..300 {
            d.zero_grads();
            for _ in 0..4 {
                let w = real(&mut rng);
                let tr = d.forward(&w);
                d.backward(&tr, Loss::Bce.gradient(tr.probability(), 1.0));
                let w = fake(&mut rng);
                let tr = d.forward(&w);
                d.backward(&tr, Loss::Bce.gradient(tr.probability(), 0.0));
            }
            opt.step(&mut d);
        }
        // Evaluate on fresh batches; individual windows can be ambiguous, so
        // compare the mean scores of the two distributions.
        let pr: f64 = (0..20).map(|_| d.probability(&real(&mut rng))).sum::<f64>() / 20.0;
        let pf: f64 = (0..20).map(|_| d.probability(&fake(&mut rng))).sum::<f64>() / 20.0;
        assert!(pr > 0.6, "real scored {pr}");
        assert!(pf < 0.4, "fake scored {pf}");
    }

    #[test]
    #[should_panic(expected = "empty window")]
    fn rejects_empty_window() {
        let _ = disc().probability(&[]);
    }
}
