//! Free functions over `&[f64]` slices.
//!
//! Vectors in `lgo` are plain slices; these helpers implement the inner
//! products, norms and distances used across the neural-network library, the
//! anomaly detectors (Minkowski metric for kNN) and the clustering code.

/// Dot product of two equally long slices.
///
/// # Panics
///
/// Panics if the lengths differ.
///
/// # Examples
///
/// ```
/// assert_eq!(lgo_tensor::vector::dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
/// ```
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch {} vs {}", a.len(), b.len());
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

/// Euclidean (L2) norm.
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Minkowski distance of order `p` — the metric used by the paper's kNN
/// detector with `p = 2` (scikit-learn's default).
///
/// `p = infinity` yields the Chebyshev distance.
///
/// # Panics
///
/// Panics if the lengths differ or `p < 1`.
///
/// # Examples
///
/// ```
/// let d = lgo_tensor::vector::minkowski(&[0.0, 0.0], &[3.0, 4.0], 2.0);
/// assert_eq!(d, 5.0);
/// ```
pub fn minkowski(a: &[f64], b: &[f64], p: f64) -> f64 {
    assert_eq!(a.len(), b.len(), "minkowski: length mismatch {} vs {}", a.len(), b.len());
    assert!(p >= 1.0, "minkowski: order p = {p} must be >= 1");
    if p.is_infinite() {
        return a
            .iter()
            .zip(b)
            .map(|(&x, &y)| (x - y).abs())
            .fold(0.0_f64, f64::max);
    }
    if (p - 2.0).abs() < f64::EPSILON {
        // Fast path: avoids powf for the Euclidean case.
        return a
            .iter()
            .zip(b)
            .map(|(&x, &y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt();
    }
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (x - y).abs().powf(p))
        .sum::<f64>()
        .powf(1.0 / p)
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(a: &[f64]) -> f64 {
    if a.is_empty() {
        0.0
    } else {
        a.iter().sum::<f64>() / a.len() as f64
    }
}

/// Largest entry (`None` for an empty slice; NaNs are ignored).
pub fn max(a: &[f64]) -> Option<f64> {
    a.iter()
        .copied()
        .filter(|x| !x.is_nan())
        .fold(None, |m, x| Some(m.map_or(x, |m: f64| m.max(x))))
}

/// Smallest entry (`None` for an empty slice; NaNs are ignored).
pub fn min(a: &[f64]) -> Option<f64> {
    a.iter()
        .copied()
        .filter(|x| !x.is_nan())
        .fold(None, |m, x| Some(m.map_or(x, |m: f64| m.min(x))))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_product() {
        assert_eq!(dot(&[5.0, 7.0], &[1.0, 0.0]), 5.0);
        assert_eq!(dot(&[5.0, 7.0], &[2.0, -1.0]), 3.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn minkowski_special_cases() {
        let a = [0.0, 0.0];
        let b = [3.0, 4.0];
        assert_eq!(minkowski(&a, &b, 2.0), 5.0);
        assert_eq!(minkowski(&a, &b, 1.0), 7.0);
        assert_eq!(minkowski(&a, &b, f64::INFINITY), 4.0);
        // p=3 case exercises the generic powf path.
        let d3 = minkowski(&a, &b, 3.0);
        assert!((d3 - (27.0_f64 + 64.0).powf(1.0 / 3.0)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "must be >= 1")]
    fn minkowski_rejects_p_below_one() {
        let _ = minkowski(&[0.0], &[1.0], 0.5);
    }

    #[test]
    fn stats_helpers() {
        let a = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&a), 5.0);
        assert_eq!(max(&a), Some(9.0));
        assert_eq!(min(&a), Some(2.0));
    }

    #[test]
    fn empty_slices() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(max(&[]), None);
        assert_eq!(min(&[]), None);
    }

    #[test]
    fn nan_handling_in_extrema() {
        let a = [f64::NAN, 1.0, 2.0];
        assert_eq!(max(&a), Some(2.0));
        assert_eq!(min(&a), Some(1.0));
    }

    #[test]
    fn distance_identity_and_symmetry() {
        let a = [1.0, -2.0, 3.0];
        let b = [0.5, 0.0, -1.0];
        assert_eq!(minkowski(&a, &a, 2.0), 0.0);
        assert!((minkowski(&a, &b, 2.0) - minkowski(&b, &a, 2.0)).abs() < 1e-15);
    }
}
