use lgo_tensor::Matrix;
use rand::RngExt;

use crate::activation::Activation;
use crate::bilstm::SeqSample;
use crate::dense::Dense;
use crate::gru::{GruCell, GruState};
use crate::loss::Loss;
use crate::optimizer::{clip_global_norm, Adam, Trainable};

/// A bidirectional-GRU regressor — drop-in architectural alternative to
/// [`crate::BiLstmRegressor`], used by the forecaster-architecture
/// ablation (GRUs have ¾ of the LSTM's recurrent parameters).
///
/// # Examples
///
/// ```
/// use lgo_nn::BiGruRegressor;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(3);
/// let model = BiGruRegressor::new(2, 8, &mut rng);
/// let y = model.predict(&vec![vec![0.5, 0.1]; 12]);
/// assert!(y.is_finite());
/// ```
#[derive(Debug, Clone)]
pub struct BiGruRegressor {
    fwd: GruCell,
    bwd: GruCell,
    head: Dense,
}

impl BiGruRegressor {
    /// Creates a regressor for `input`-dim rows with `hidden` units per
    /// direction.
    ///
    /// # Panics
    ///
    /// Panics if either size is zero.
    pub fn new<R: RngExt + ?Sized>(input: usize, hidden: usize, rng: &mut R) -> Self {
        Self {
            fwd: GruCell::new(input, hidden, rng),
            bwd: GruCell::new(input, hidden, rng),
            head: Dense::new(2 * hidden, 1, Activation::Identity, rng),
        }
    }

    /// Input dimensionality per timestep.
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
    /// Panics if the window is empty or row widths mismatch.
    pub fn predict(&self, window: &[Vec<f64>]) -> f64 {
        assert!(!window.is_empty(), "predict: empty window");
        let mut sf = GruState::zeros(self.fwd.hidden_size());
        for x in window {
            sf = self.fwd.step(x, &sf);
        }
        let mut sb = GruState::zeros(self.bwd.hidden_size());
        for x in window.iter().rev() {
            sb = self.bwd.step(x, &sb);
        }
        let mut cat = sf.h;
        cat.extend_from_slice(&sb.h);
        self.head.infer(&cat)[0]
    }

    /// Forward + backward for one `(window, target)` sample; gradients
    /// accumulate. Returns the sample loss.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty.
    pub fn accumulate(&mut self, window: &[Vec<f64>], target: f64, loss: Loss) -> f64 {
        assert!(!window.is_empty(), "accumulate: empty window");
        let trace_f = self.fwd.forward_seq(window);
        let rev: Vec<Vec<f64>> = window.iter().rev().cloned().collect();
        let trace_b = self.bwd.forward_seq(&rev);
        let mut cat = trace_f.last_hidden().to_vec();
        cat.extend_from_slice(trace_b.last_hidden());
        let (mut pre, mut pred) = ([0.0], [0.0]);
        self.head.forward_into(&cat, &mut pre, &mut pred);
        let l = loss.value(pred[0], target);
        let dpred = loss.gradient(pred[0], target);
        let h = self.fwd.hidden_size();
        let mut dcat = vec![0.0; 2 * h];
        self.head
            .backward_into(&cat, &pre, &pred, &[dpred], &mut dcat);
        let mut dh_f = vec![vec![0.0; h]; window.len()];
        *dh_f.last_mut().expect("nonempty") = dcat[..h].to_vec(); // lint: allow(L1): dh_f has window.len() > 0 entries (asserted at entry)
        self.fwd.backward_seq(&trace_f, &dh_f);
        let mut dh_b = vec![vec![0.0; h]; window.len()];
        *dh_b.last_mut().expect("nonempty") = dcat[h..].to_vec(); // lint: allow(L1): dh_b has window.len() > 0 entries (asserted at entry)
        self.bwd.backward_seq(&trace_b, &dh_b);
        l
    }

    /// Trains with Adam over mini-batches (gradient clipped at norm 5.0),
    /// returning the mean training loss per epoch.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty, `batch_size == 0`, or `epochs == 0`.
    pub fn fit(
        &mut self,
        samples: &[SeqSample],
        epochs: usize,
        batch_size: usize,
        lr: f64,
    ) -> Vec<f64> {
        assert!(!samples.is_empty(), "fit: no samples");
        assert!(batch_size > 0, "fit: batch_size must be positive");
        assert!(epochs > 0, "fit: epochs must be positive");
        let mut opt = Adam::new(lr);
        let mut history = Vec::with_capacity(epochs);
        for _ in 0..epochs {
            let mut total = 0.0;
            for batch in samples.chunks(batch_size) {
                self.zero_grads();
                for (w, y) in batch {
                    total += self.accumulate(w, *y, Loss::Mse);
                }
                let scale = 1.0 / batch.len() as f64;
                self.visit_params(&mut |_, g| g.map_inplace(|x| x * scale));
                clip_global_norm(self, 5.0);
                opt.step(self);
            }
            history.push(total / samples.len() as f64);
        }
        history
    }
}

impl Trainable for BiGruRegressor {
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

    fn model() -> BiGruRegressor {
        let mut rng = StdRng::seed_from_u64(17);
        BiGruRegressor::new(1, 6, &mut rng)
    }

    #[test]
    fn direction_matters() {
        let m = model();
        let w: Vec<Vec<f64>> = (0..6).map(|t| vec![t as f64 / 6.0]).collect();
        let rev: Vec<Vec<f64>> = w.iter().rev().cloned().collect();
        assert_ne!(m.predict(&w), m.predict(&rev));
    }

    #[test]
    fn gradient_check_first_params() {
        let mut m = model();
        let w: Vec<Vec<f64>> = vec![vec![0.3], vec![-0.2], vec![0.5]];
        let target = 0.1;
        m.zero_grads();
        m.accumulate(&w, target, Loss::Mse);
        let loss_of = |m: &BiGruRegressor| {
            let p = m.predict(&w);
            (p - target) * (p - target)
        };
        let eps = 1e-6;
        let mut idx = 0;
        let mut checks = Vec::new();
        m.visit_params(&mut |_, g| {
            checks.push((idx, g.as_slice()[0]));
            idx += 1;
        });
        for (pi, analytic) in checks {
            let mut mp = m.clone();
            let mut mm = m.clone();
            let mut k = 0;
            mp.visit_params(&mut |p, _| {
                if k == pi {
                    p.as_mut_slice()[0] += eps;
                }
                k += 1;
            });
            k = 0;
            mm.visit_params(&mut |p, _| {
                if k == pi {
                    p.as_mut_slice()[0] -= eps;
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
        use rand::RngExt;
        let mut rng = StdRng::seed_from_u64(70);
        let samples: Vec<SeqSample> = (0..48)
            .map(|_| {
                let w: Vec<Vec<f64>> =
                    (0..5).map(|_| vec![rng.random_range(-1.0..1.0)]).collect();
                let y = w.iter().map(|r| r[0]).sum::<f64>() / 5.0;
                (w, y)
            })
            .collect();
        let mut m = model();
        let before: f64 = samples
            .iter()
            .map(|(w, y)| (m.predict(w) - y).powi(2))
            .sum::<f64>();
        m.fit(&samples, 25, 8, 0.01);
        let after: f64 = samples
            .iter()
            .map(|(w, y)| (m.predict(w) - y).powi(2))
            .sum::<f64>();
        assert!(after < before * 0.3, "before {before}, after {after}");
    }

    #[test]
    fn gru_has_fewer_params_than_lstm() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut gru = BiGruRegressor::new(4, 16, &mut rng);
        let mut lstm = crate::BiLstmRegressor::new(4, 16, &mut rng);
        assert!(gru.param_count() < lstm.param_count());
    }
}
