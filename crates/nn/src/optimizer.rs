//! Optimizers over any [`Trainable`] model.
//!
//! Models expose their parameters through a visitor; optimizers keep their
//! per-parameter state (the Adam moments) indexed by visit order,
//! which every model keeps stable across calls.

use lgo_tensor::Matrix;

/// A model whose parameters can be visited for optimization.
///
/// Implementations must visit `(parameter, gradient)` pairs in a **stable
/// order** — optimizers associate per-parameter state by position.
pub trait Trainable {
    /// Visits every `(parameter, gradient)` matrix pair.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix));

    /// Resets all gradient accumulators to zero. Call once per minibatch.
    fn zero_grads(&mut self) {
        self.visit_params(&mut |_, g| g.fill_zero());
    }

    /// Total number of scalar parameters.
    fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p, _| n += p.len());
        n
    }
}

/// Rescales all gradients so their global L2 norm is at most `max_norm`.
///
/// Returns the pre-clipping norm. Standard remedy for exploding LSTM
/// gradients (Pascanu et al., 2013).
///
/// # Panics
///
/// Panics if `max_norm` is not positive.
pub fn clip_global_norm<T: Trainable + ?Sized>(model: &mut T, max_norm: f64) -> f64 {
    assert!(max_norm > 0.0, "clip_global_norm: max_norm must be positive");
    let mut sq = 0.0;
    model.visit_params(&mut |_, g| {
        sq += g.as_slice().iter().map(|x| x * x).sum::<f64>();
    });
    let norm = sq.sqrt();
    if norm > max_norm {
        let k = max_norm / norm;
        model.visit_params(&mut |_, g| {
            g.map_inplace(|x| x * k);
        });
    }
    norm
}

/// Adam optimizer (Kingma & Ba, 2015) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    t: u64,
    moments: Vec<(Matrix, Matrix)>,
}

impl Adam {
    /// Adam with the canonical `beta1 = 0.9`, `beta2 = 0.999`, `eps = 1e-8`.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not positive.
    pub fn new(lr: f64) -> Self {
        Self::with_betas(lr, 0.9, 0.999)
    }

    /// Adam with explicit exponential-decay rates.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0` or either beta is outside `[0, 1)`.
    pub fn with_betas(lr: f64, beta1: f64, beta2: f64) -> Self {
        assert!(lr > 0.0, "Adam: lr must be positive");
        assert!((0.0..1.0).contains(&beta1), "Adam: beta1 must be in [0, 1)");
        assert!((0.0..1.0).contains(&beta2), "Adam: beta2 must be in [0, 1)");
        Self {
            lr,
            beta1,
            beta2,
            eps: 1e-8,
            t: 0,
            moments: Vec::new(),
        }
    }

    /// Current learning rate.
    pub fn learning_rate(&self) -> f64 {
        self.lr
    }

    /// Applies one update using the gradients currently stored in the model.
    pub fn step<T: Trainable + ?Sized>(&mut self, model: &mut T) {
        self.t += 1;
        let t = self.t as f64;
        let bc1 = 1.0 - self.beta1.powf(t);
        let bc2 = 1.0 - self.beta2.powf(t);
        let (lr, b1, b2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        let moments = &mut self.moments;
        let mut idx = 0;
        model.visit_params(&mut |p, g| {
            if moments.len() <= idx {
                moments.push((
                    Matrix::zeros(p.rows(), p.cols()),
                    Matrix::zeros(p.rows(), p.cols()),
                ));
            }
            let (m, v) = &mut moments[idx];
            assert_eq!(
                m.shape(),
                p.shape(),
                "Adam: parameter {idx} changed shape between steps"
            );
            let (ps, gs) = (p.as_mut_slice(), g.as_slice());
            for ((pi, &gi), (mi, vi)) in ps
                .iter_mut()
                .zip(gs)
                .zip(m.as_mut_slice().iter_mut().zip(v.as_mut_slice().iter_mut()))
            {
                *mi = b1 * *mi + (1.0 - b1) * gi;
                *vi = b2 * *vi + (1.0 - b2) * gi * gi;
                let mhat = *mi / bc1;
                let vhat = *vi / bc2;
                *pi -= lr * mhat / (vhat.sqrt() + eps);
            }
            idx += 1;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 1-parameter quadratic bowl f(w) = (w - 3)^2 used to test optimizers.
    struct Bowl {
        w: Matrix,
        g: Matrix,
    }

    impl Bowl {
        fn new(start: f64) -> Self {
            Self {
                w: Matrix::filled(1, 1, start),
                g: Matrix::zeros(1, 1),
            }
        }

        fn compute_grad(&mut self) {
            let w = self.w[(0, 0)];
            self.g[(0, 0)] = 2.0 * (w - 3.0);
        }
    }

    impl Trainable for Bowl {
        fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
            f(&mut self.w, &mut self.g);
        }
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut b = Bowl::new(-5.0);
        let mut opt = Adam::new(0.3);
        for _ in 0..300 {
            b.compute_grad();
            opt.step(&mut b);
        }
        assert!((b.w[(0, 0)] - 3.0).abs() < 1e-3, "w = {}", b.w[(0, 0)]);
    }

    #[test]
    fn zero_grads_clears() {
        let mut b = Bowl::new(0.0);
        b.compute_grad();
        assert_ne!(b.g[(0, 0)], 0.0);
        b.zero_grads();
        assert_eq!(b.g[(0, 0)], 0.0);
    }

    #[test]
    fn param_count_counts_scalars() {
        let mut b = Bowl::new(0.0);
        assert_eq!(b.param_count(), 1);
    }

    #[test]
    fn clipping_caps_global_norm() {
        let mut b = Bowl::new(103.0); // gradient 200
        b.compute_grad();
        let pre = clip_global_norm(&mut b, 1.0);
        assert!((pre - 200.0).abs() < 1e-9);
        b.visit_params(&mut |_, g| assert!((g.frobenius_norm() - 1.0).abs() < 1e-9));
        // Below the cap nothing changes.
        let pre2 = clip_global_norm(&mut b, 10.0);
        assert!((pre2 - 1.0).abs() < 1e-9);
        b.visit_params(&mut |_, g| assert!((g.frobenius_norm() - 1.0).abs() < 1e-9));
    }

    #[test]
    #[should_panic(expected = "beta1")]
    fn adam_rejects_bad_beta() {
        let _ = Adam::with_betas(0.1, 1.0, 0.999);
    }
}
