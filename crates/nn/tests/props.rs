//! Property-based tests for the neural-network substrate: activation
//! bounds, loss positivity, and gradient correctness on random layers.

use lgo_nn::{Activation, Dense, Loss, Trainable};
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

proptest! {
    #[test]
    fn activations_are_finite_and_bounded(x in -1e6..1e6f64) {
        for act in [
            Activation::Identity,
            Activation::Sigmoid,
            Activation::Tanh,
            Activation::Relu,
            Activation::LeakyRelu,
        ] {
            let y = act.apply(x);
            prop_assert!(y.is_finite(), "{act:?}({x}) = {y}");
            let d = act.derivative(x, y);
            prop_assert!(d.is_finite());
        }
        prop_assert!((0.0..=1.0).contains(&Activation::Sigmoid.apply(x)));
        prop_assert!((-1.0..=1.0).contains(&Activation::Tanh.apply(x)));
    }

    #[test]
    fn sigmoid_is_monotone(a in -500.0..500.0f64, b in -500.0..500.0f64) {
        let (lo, hi) = (a.min(b), a.max(b));
        prop_assert!(lgo_nn::sigmoid(lo) <= lgo_nn::sigmoid(hi));
    }

    #[test]
    fn losses_are_nonnegative_and_zero_at_target(p in 0.01..0.99f64, t in any::<bool>()) {
        let target = if t { 1.0 } else { 0.0 };
        prop_assert!(Loss::Mse.value(p, target) >= 0.0);
        prop_assert!(Loss::Bce.value(p, target) >= 0.0);
        prop_assert_eq!(Loss::Mse.value(target, target), 0.0);
        // BCE at its target is minimal (close to zero as p -> target).
        prop_assert!(Loss::Bce.value(target, target) < 1e-9);
    }

    #[test]
    fn dense_gradient_check_on_random_layers(
        seed in 0u64..1000,
        x in proptest::collection::vec(-2.0..2.0f64, 3),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layer = Dense::new(3, 2, Activation::Tanh, &mut rng);
        layer.zero_grads();
        let (mut pre, mut post) = ([0.0; 2], [0.0; 2]);
        layer.forward_into(&x, &mut pre, &mut post);
        let mut dx = [0.0; 3];
        layer.backward_into(&x, &pre, &post, &[1.0, -1.0], &mut dx);
        let eps = 1e-6;
        let f = |l: &Dense, x: &[f64]| {
            let y = l.infer(x);
            y[0] - y[1]
        };
        for i in 0..3 {
            let mut xp = x.clone();
            xp[i] += eps;
            let mut xm = x.clone();
            xm[i] -= eps;
            let numeric = (f(&layer, &xp) - f(&layer, &xm)) / (2.0 * eps);
            prop_assert!(
                (numeric - dx[i]).abs() < 1e-5,
                "dx[{i}]: numeric {numeric} vs {got}", got = dx[i]
            );
        }
    }

    #[test]
    fn dense_is_deterministic(
        x in proptest::collection::vec(-3.0..3.0f64, 4),
    ) {
        let mut rng = StdRng::seed_from_u64(5);
        let layer = Dense::new(4, 3, Activation::Relu, &mut rng);
        prop_assert_eq!(layer.infer(&x), layer.infer(&x));
    }
}
