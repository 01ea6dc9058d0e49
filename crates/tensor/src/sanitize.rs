//! Debug-build numeric sanitizers behind the `strict-numerics` feature.
//!
//! A silently propagating NaN or infinity is the worst failure mode of a
//! numeric defense stack: downstream scores stay orderable (`total_cmp`
//! ranks NaN deterministically) but are meaningless, and the first corrupt
//! operation is long gone by the time anything looks wrong. With
//! `--features strict-numerics`, debug builds assert finiteness at the entry
//! of every matrix operation, every LSTM gate computation, and every
//! loss evaluation, so the *first* operation that produces or consumes a
//! non-finite value aborts with its name. The checks are `debug_assert!`
//! based — release builds compile them away even with the feature on — and
//! without the feature they vanish entirely.
//!
//! Note the deliberate tension with the graceful-degradation layer: the
//! divergence-recovery path of `lgo_nn::BiLstmRegressor::try_fit` *expects*
//! to see non-finite losses and roll back. Under strict-numerics (debug) the
//! abort happens first — use the feature to localize the origin of a NaN,
//! not while exercising recovery behaviour.

/// Asserts every value in `values` is finite.
///
/// Active only in debug builds with the `strict-numerics` feature; a no-op
/// otherwise.
#[inline(always)]
pub fn check_finite(values: &[f64], context: &str) {
    #[cfg(feature = "strict-numerics")]
    debug_assert!(
        values.iter().all(|v| v.is_finite()),
        "strict-numerics: non-finite value in {context}"
    );
    #[cfg(not(feature = "strict-numerics"))]
    let _ = (values, context);
}

/// Asserts a single scalar is finite (same gating as [`check_finite`]).
#[inline(always)]
pub fn check_finite_scalar(value: f64, context: &str) {
    #[cfg(feature = "strict-numerics")]
    debug_assert!(
        value.is_finite(),
        "strict-numerics: non-finite value in {context}"
    );
    #[cfg(not(feature = "strict-numerics"))]
    let _ = (value, context);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_values_pass() {
        check_finite(&[0.0, -1.5, 1e300], "test");
        check_finite_scalar(42.0, "test");
    }

    #[cfg(all(feature = "strict-numerics", debug_assertions))]
    mod strict {
        use super::*;

        #[test]
        #[should_panic(expected = "strict-numerics: non-finite value in slice")]
        fn nan_slice_caught() {
            check_finite(&[0.0, f64::NAN], "slice");
        }

        #[test]
        #[should_panic(expected = "strict-numerics: non-finite value in scalar")]
        fn infinite_scalar_caught() {
            check_finite_scalar(f64::INFINITY, "scalar");
        }
    }

    #[cfg(not(feature = "strict-numerics"))]
    #[test]
    fn disabled_feature_is_a_no_op() {
        check_finite(&[f64::NAN], "ignored");
        check_finite_scalar(f64::INFINITY, "ignored");
    }
}
