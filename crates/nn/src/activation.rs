/// Point-wise activation functions.
///
/// Each variant knows its own derivative so layers can run backprop without
/// dynamic dispatch.
///
/// # Examples
///
/// ```
/// use lgo_nn::Activation;
///
/// assert_eq!(Activation::Relu.apply(-3.0), 0.0);
/// assert_eq!(Activation::Identity.apply(-3.0), -3.0);
/// assert!((Activation::Sigmoid.apply(0.0) - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Activation {
    /// `f(x) = x` — used by regression heads.
    #[default]
    Identity,
    /// Logistic sigmoid — LSTM gates and GAN discriminator output.
    Sigmoid,
    /// Hyperbolic tangent — LSTM candidate/cell output.
    Tanh,
    /// Rectified linear unit.
    Relu,
    /// Leaky ReLU with slope 0.01 for negative inputs.
    LeakyRelu,
}

impl Activation {
    /// Applies the activation to a scalar.
    pub fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Identity => x,
            Activation::Sigmoid => sigmoid(x),
            Activation::Tanh => tanh(x),
            Activation::Relu => x.max(0.0),
            Activation::LeakyRelu => {
                if x >= 0.0 {
                    x
                } else {
                    0.01 * x
                }
            }
        }
    }

    /// Derivative expressed in terms of the *output* `y = f(x)` where the
    /// algebra allows (sigmoid/tanh), falling back to the input for the
    /// piecewise-linear variants.
    ///
    /// `x` is the pre-activation, `y` the post-activation value.
    pub fn derivative(self, x: f64, y: f64) -> f64 {
        match self {
            Activation::Identity => 1.0,
            Activation::Sigmoid => y * (1.0 - y),
            Activation::Tanh => 1.0 - y * y,
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::LeakyRelu => {
                if x >= 0.0 {
                    1.0
                } else {
                    0.01
                }
            }
        }
    }

    /// Applies the activation to every element of a slice, in place.
    ///
    /// The variant is matched once, outside the loop, so the sigmoid and
    /// tanh sweeps vectorize.
    #[inline(always)]
    pub fn apply_slice(self, xs: &mut [f64]) {
        match self {
            Activation::Identity => {}
            Activation::Sigmoid => xs.iter_mut().for_each(|x| *x = sigmoid(*x)),
            Activation::Tanh => xs.iter_mut().for_each(|x| *x = tanh(*x)),
            Activation::Relu | Activation::LeakyRelu => {
                xs.iter_mut().for_each(|x| *x = self.apply(*x));
            }
        }
    }
}

/// Logistic sigmoid, `1 / (1 + e^−x)`, on the owned [`exp_parts`] core.
///
/// Computed as `(x ≥ 0 ? 1 : e) / (1 + e)` with `e = exp(−|x|)`, so no
/// intermediate overflows. `|x|` is clamped at 708, where `e` is still a
/// normal number: below −708 the result stays at `sigmoid(−708)`
/// (≈ 3.3e−308), above 708 it is exactly 1. NaN passes through. Within 2
/// ULP of the host-libm formula it replaced on `|x| ≤ 708`, and its bits
/// depend on no host library (DESIGN §17, "Owned activation kernels").
///
/// # Examples
///
/// ```
/// let y = lgo_nn::sigmoid(-1000.0);
/// assert!(y >= 0.0 && y < 1e-300);
/// assert_eq!(lgo_nn::sigmoid(0.0), 0.5);
/// assert_eq!(lgo_nn::sigmoid(1000.0), 1.0);
/// ```
#[inline]
pub fn sigmoid(x: f64) -> f64 {
    let mut a = x.abs();
    if a > SIGMOID_CLAMP {
        a = SIGMOID_CLAMP;
    }
    let (scale, m) = exp_parts(-a);
    let e = scale + scale * m;
    let num = if x >= 0.0 { 1.0 } else { e };
    num / (1.0 + e)
}

/// Hyperbolic tangent on the owned [`exp_parts`] core.
///
/// With `m = expm1(2|x|)`, computed as `copysign(t, x)` where
/// `t = m / (m + 2)` below `t = 1/2` and `t = 1 − 2 / (m + 2)` from there
/// on. So it is odd bit for bit, keeps the sign of ±0, has no cancellation
/// near 0 and is monotone. `|x|` is clamped at 20, where `t` already
/// rounds to exactly 1. NaN passes through. Within 3 ULP of the host
/// libm's `tanh`, and its bits depend on no host library.
///
/// # Examples
///
/// ```
/// assert_eq!(lgo_nn::tanh(-0.0).to_bits(), (-0.0f64).to_bits());
/// assert_eq!(lgo_nn::tanh(30.0), 1.0);
/// assert_eq!(lgo_nn::tanh(-0.5), -lgo_nn::tanh(0.5));
/// assert!((lgo_nn::tanh(0.5) - 0.462_117_157_26).abs() < 1e-11);
/// ```
#[inline]
pub fn tanh(x: f64) -> f64 {
    let mut a = x.abs();
    if a > TANH_CLAMP {
        a = TANH_CLAMP;
    }
    let (scale, m) = exp_parts(2.0 * a);
    let em = (scale - 1.0) + scale * m;
    // From tanh = 1/2 on (em ≥ 2) the result is 1 − 2/(em + 2): the
    // subtraction is exact there and every step is monotone in em. The
    // single quotient em/(em + 2) wobbles between 1 and its predecessor
    // for |x| in [18.7, 19.1], where em + 2 is a rounding tie. Adding +0
    // leaves the lower branch's quotient unchanged up to the sign of a
    // zero, which `copysign` sets anyway.
    let upper = em >= 2.0;
    let q = if upper { -2.0 } else { em } / (em + 2.0);
    (if upper { 1.0 } else { 0.0 } + q).copysign(x)
}

/// `|x|` beyond which [`sigmoid`] saturates: `exp(−708)` is the last
/// power the bit-assembled `2^k` keeps normal.
const SIGMOID_CLAMP: f64 = 708.0;
/// `|x|` beyond which [`tanh`] saturates: `tanh(20)` rounds to 1.
const TANH_CLAMP: f64 = 20.0;
/// `1.5 · 2^52`: adding it rounds a float below 2^51 to the nearest
/// integer and leaves that integer in the low mantissa bits.
const ROUND_SHIFT: f64 = 6_755_399_441_055_744.0;
/// `ln 2` split Cody–Waite style: `LN2_HI` has 21 trailing zero bits, so
/// `k · LN2_HI` is exact for every `k` the kernels reach.
const LN2_HI: f64 = f64::from_bits(0x3FE6_2E42_FEE0_0000);
const LN2_LO: f64 = f64::from_bits(0x3DEA_39EF_3579_3C76);

/// `1/n!` for the Taylor terms `n = 2..=13` of `expm1`; each is the
/// correctly rounded quotient of two exact integers.
const C2: f64 = 1.0 / 2.0;
const C3: f64 = 1.0 / 6.0;
const C4: f64 = 1.0 / 24.0;
const C5: f64 = 1.0 / 120.0;
const C6: f64 = 1.0 / 720.0;
const C7: f64 = 1.0 / 5_040.0;
const C8: f64 = 1.0 / 40_320.0;
const C9: f64 = 1.0 / 362_880.0;
const C10: f64 = 1.0 / 3_628_800.0;
const C11: f64 = 1.0 / 39_916_800.0;
const C12: f64 = 1.0 / 479_001_600.0;
const C13: f64 = 1.0 / 6_227_020_800.0;

/// The branch-free core of [`sigmoid`] and [`tanh`]: `(2^k, expm1(r))`
/// with `x = k·ln 2 + r`, `|r| ≲ ln 2 / 2`, so `exp(x) = 2^k (1 + expm1(r))`.
///
/// `k` is rounded by the [`ROUND_SHIFT`] trick and `2^k` assembled from
/// its bits, which is valid for `−1022 ≤ k ≤ 1023`: callers keep `x` in
/// `[−708, 40]`. `r` is reduced with the exact `LN2_HI` product and one
/// rounded `LN2_LO` correction. `expm1(r)` is the degree-13 Taylor
/// polynomial (truncation below 2^−56 relative on `|r| ≤ ln 2 / 2`),
/// written `r + r²·s(r)` so the leading term is exact, and evaluated by
/// Estrin's scheme: its longest chain of dependent operations is 9 deep,
/// where Horner's would be 24.
/// Only IEEE `+ − × ÷` and bit operations are used, and Rust never fuses
/// them into FMA, so the bits are the same on every host; a NaN `x` gives
/// a NaN `expm1(r)`.
#[inline(always)]
fn exp_parts(x: f64) -> (f64, f64) {
    let shifted = x * std::f64::consts::LOG2_E + ROUND_SHIFT;
    let k = shifted - ROUND_SHIFT;
    let r = (x - k * LN2_HI) - k * LN2_LO;
    // The low mantissa bits of `shifted` hold `2^51 + k`; adding the
    // exponent bias and shifting leaves `k + 1023` in the exponent field.
    let scale = f64::from_bits(shifted.to_bits().wrapping_add(1023) << 52);
    let r2 = r * r;
    let r4 = r2 * r2;
    let q0 = (C2 + C3 * r) + (C4 + C5 * r) * r2;
    let q1 = (C6 + C7 * r) + (C8 + C9 * r) * r2;
    let q2 = (C10 + C11 * r) + (C12 + C13 * r) * r2;
    let s = (q0 + q1 * r4) + q2 * (r4 * r4);
    (scale, r + r2 * s)
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Activation; 5] = [
        Activation::Identity,
        Activation::Sigmoid,
        Activation::Tanh,
        Activation::Relu,
        Activation::LeakyRelu,
    ];

    /// Distance in units in the last place, counted across zero.
    fn ulps(a: f64, b: f64) -> u64 {
        fn key(v: f64) -> i64 {
            let bits = v.to_bits() as i64;
            if bits < 0 {
                i64::MIN - bits
            } else {
                bits
            }
        }
        key(a).abs_diff(key(b))
    }

    /// An ascending sweep: 2^21 even steps over [−40, 40] merged with
    /// log-spaced magnitudes (64 per binade) from the smallest subnormal
    /// up to `max`, both signs.
    fn sweep(max: f64) -> Vec<f64> {
        let n = 1 << 21;
        let mut xs: Vec<f64> = (0..=n)
            .map(|i| -40.0 + 80.0 * i as f64 / n as f64)
            .collect();
        for e in -1074..=10 {
            for j in 0..64 {
                let m = 2f64.powi(e) * (1.0 + j as f64 / 64.0);
                if m <= max {
                    xs.extend([m, -m]);
                }
            }
        }
        xs.extend([0.0, -0.0, max, -max]);
        xs.sort_by(f64::total_cmp);
        xs
    }

    /// The host-libm sigmoid the owned kernel replaced.
    fn libm_sigmoid(x: f64) -> f64 {
        if x >= 0.0 {
            1.0 / (1.0 + (-x).exp())
        } else {
            let e = x.exp();
            e / (1.0 + e)
        }
    }

    /// Worst ULP distance over `xs`, and the share of points that differ.
    fn against_libm(xs: &[f64], owned: fn(f64) -> f64, libm: fn(f64) -> f64) -> (u64, f64) {
        let dists: Vec<u64> = xs.iter().map(|&x| ulps(owned(x), libm(x))).collect();
        let differ = dists.iter().filter(|&&d| d > 0).count();
        (
            dists.into_iter().max().unwrap_or(0),
            differ as f64 / xs.len() as f64,
        )
    }

    #[test]
    fn sigmoid_is_within_2_ulp_of_libm() {
        let (worst, share) = against_libm(&sweep(SIGMOID_CLAMP), sigmoid, libm_sigmoid);
        assert!(worst <= 2, "sigmoid: {worst} ULP from libm");
        assert!(share < 0.1, "sigmoid differs from libm on {share}");
    }

    #[test]
    fn tanh_is_within_3_ulp_of_libm() {
        let (worst, share) = against_libm(&sweep(TANH_CLAMP + 10.0), tanh, f64::tanh);
        assert!(worst <= 3, "tanh: {worst} ULP from libm");
        assert!(share < 0.1, "tanh differs from libm on {share}");
    }

    #[test]
    fn kernels_are_monotone_over_the_sweep() {
        let xs = sweep(SIGMOID_CLAMP + 100.0);
        for f in [sigmoid, tanh] {
            for w in xs.windows(2) {
                assert!(
                    f(w[0]) <= f(w[1]),
                    "not monotone between {} and {}",
                    w[0],
                    w[1]
                );
            }
        }
    }

    #[test]
    fn tanh_is_odd_bit_for_bit() {
        for x in sweep(TANH_CLAMP + 10.0) {
            assert_eq!(tanh(-x).to_bits(), (-tanh(x)).to_bits(), "tanh(−{x})");
        }
        assert_eq!(tanh(0.0).to_bits(), 0.0f64.to_bits());
        assert_eq!(tanh(-0.0).to_bits(), (-0.0f64).to_bits());
        let tiny = f64::from_bits(1);
        assert_eq!(tanh(tiny), tiny);
        assert_eq!(tanh(-tiny), -tiny);
    }

    #[test]
    fn kernels_saturate_beyond_their_clamps() {
        let floor = sigmoid(-SIGMOID_CLAMP);
        assert!(floor > 0.0 && floor < 1e-307, "sigmoid(−708) = {floor}");
        for x in [SIGMOID_CLAMP, 709.0, 1e300, f64::MAX, f64::INFINITY] {
            assert_eq!(sigmoid(x), 1.0);
            assert_eq!(sigmoid(-x), floor);
        }
        for x in [TANH_CLAMP, 20.5, 1e300, f64::MAX, f64::INFINITY] {
            assert_eq!(tanh(x), 1.0);
            assert_eq!(tanh(-x), -1.0);
        }
        assert_eq!(sigmoid(0.0), 0.5);
        assert_eq!(sigmoid(-0.0), 0.5);
    }

    #[test]
    fn nan_passes_through() {
        for nan in [f64::NAN, -f64::NAN] {
            assert!(sigmoid(nan).is_nan());
            assert!(tanh(nan).is_nan());
            assert!(Activation::Sigmoid.apply(nan).is_nan());
            assert!(Activation::Tanh.apply(nan).is_nan());
        }
    }

    #[test]
    fn sigmoid_is_stable_at_extremes() {
        assert_eq!(sigmoid(1000.0), 1.0);
        assert!(sigmoid(-1000.0) >= 0.0);
        assert!(sigmoid(-1000.0) < 1e-100);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-15);
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let eps = 1e-6;
        for act in ALL {
            for &x in &[-2.0, -0.5, 0.3, 1.7] {
                let y = act.apply(x);
                let numeric = (act.apply(x + eps) - act.apply(x - eps)) / (2.0 * eps);
                let analytic = act.derivative(x, y);
                assert!(
                    (numeric - analytic).abs() < 1e-6,
                    "{act:?} at {x}: numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn relu_kink_behaviour() {
        assert_eq!(Activation::Relu.apply(-1.0), 0.0);
        assert_eq!(Activation::Relu.derivative(-1.0, 0.0), 0.0);
        assert_eq!(Activation::Relu.derivative(1.0, 1.0), 1.0);
        assert_eq!(Activation::LeakyRelu.apply(-2.0), -0.02);
    }

    #[test]
    fn apply_slice_applies_elementwise() {
        let mut xs = [-1.0, 0.0, 2.0];
        Activation::Relu.apply_slice(&mut xs);
        assert_eq!(xs, [0.0, 0.0, 2.0]);
    }

    #[test]
    fn bounded_activations_stay_bounded() {
        for &x in &[-50.0, -1.0, 0.0, 1.0, 50.0] {
            let s = Activation::Sigmoid.apply(x);
            assert!((0.0..=1.0).contains(&s));
            let t = Activation::Tanh.apply(x);
            assert!((-1.0..=1.0).contains(&t));
        }
    }
}
