/// Scalar loss functions with analytic gradients.
///
/// # Examples
///
/// ```
/// use lgo_nn::Loss;
///
/// assert_eq!(Loss::Mse.value(3.0, 1.0), 4.0);
/// assert_eq!(Loss::Mse.gradient(3.0, 1.0), 4.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Loss {
    /// Squared error `(pred - target)^2` — glucose regression.
    #[default]
    Mse,
    /// Binary cross-entropy on a probability in `(0, 1)` — GAN training.
    Bce,
}

impl Loss {
    /// Loss value for one prediction/target pair.
    ///
    /// For [`Loss::Bce`] the prediction is clamped away from 0/1 to keep the
    /// logarithms finite.
    pub fn value(self, pred: f64, target: f64) -> f64 {
        lgo_tensor::sanitize::check_finite_scalar(pred, "Loss::value pred");
        lgo_tensor::sanitize::check_finite_scalar(target, "Loss::value target");
        match self {
            Loss::Mse => (pred - target) * (pred - target),
            Loss::Bce => {
                let p = pred.clamp(1e-12, 1.0 - 1e-12);
                -(target * p.ln() + (1.0 - target) * (1.0 - p).ln())
            }
        }
    }

    /// Gradient of the loss with respect to the prediction.
    pub fn gradient(self, pred: f64, target: f64) -> f64 {
        lgo_tensor::sanitize::check_finite_scalar(pred, "Loss::gradient pred");
        lgo_tensor::sanitize::check_finite_scalar(target, "Loss::gradient target");
        match self {
            Loss::Mse => 2.0 * (pred - target),
            Loss::Bce => {
                let p = pred.clamp(1e-12, 1.0 - 1e-12);
                (p - target) / (p * (1.0 - p))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_gradient_matches_finite_difference() {
        let (p, t) = (1.3, -0.4);
        let eps = 1e-6;
        let numeric = (Loss::Mse.value(p + eps, t) - Loss::Mse.value(p - eps, t)) / (2.0 * eps);
        assert!((numeric - Loss::Mse.gradient(p, t)).abs() < 1e-6);
    }

    #[test]
    fn bce_gradient_matches_finite_difference() {
        for &(p, t) in &[(0.3, 1.0), (0.8, 0.0), (0.5, 0.5)] {
            let eps = 1e-7;
            let numeric =
                (Loss::Bce.value(p + eps, t) - Loss::Bce.value(p - eps, t)) / (2.0 * eps);
            assert!(
                (numeric - Loss::Bce.gradient(p, t)).abs() < 1e-4,
                "p={p} t={t}"
            );
        }
    }

    #[test]
    fn bce_is_finite_at_extremes() {
        assert!(Loss::Bce.value(0.0, 1.0).is_finite());
        assert!(Loss::Bce.value(1.0, 0.0).is_finite());
        assert!(Loss::Bce.gradient(0.0, 1.0).is_finite());
    }

    #[test]
    fn bce_minimized_at_target() {
        assert!(Loss::Bce.value(0.99, 1.0) < Loss::Bce.value(0.5, 1.0));
        assert!(Loss::Bce.value(0.01, 0.0) < Loss::Bce.value(0.5, 0.0));
    }

    #[cfg(all(feature = "strict-numerics", debug_assertions))]
    #[test]
    #[should_panic(expected = "strict-numerics: non-finite value in Loss::value pred")]
    fn strict_numerics_catches_nan_prediction() {
        let _ = Loss::Mse.value(f64::NAN, 1.0);
    }

    #[cfg(all(feature = "strict-numerics", debug_assertions))]
    #[test]
    #[should_panic(expected = "strict-numerics: non-finite value in Loss::gradient target")]
    fn strict_numerics_catches_nan_target() {
        let _ = Loss::Bce.gradient(0.5, f64::NAN);
    }
}
