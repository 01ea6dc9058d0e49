//! A fully conforming module: Result-based errors, totalOrder-based float
//! sorting, documented public API that non-test code consumes, panics
//! confined to test code. Scope: all rules; the analyzer must report
//! nothing.

/// Error returned by [`safe_head`] on empty input.
#[derive(Debug, PartialEq, Eq)]
pub struct EmptyInput;

/// Returns the first element, or [`EmptyInput`] when `xs` is empty.
pub fn safe_head(xs: &[f64]) -> Result<f64, EmptyInput> {
    xs.first().copied().ok_or(EmptyInput)
}

/// Sorts ascending with NaN ordered deterministically (IEEE-754 totalOrder).
pub fn ranked(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs
}

/// The smallest value: a private caller of both public fns.
fn smallest(xs: Vec<f64>) -> Result<f64, EmptyInput> {
    safe_head(&ranked(xs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwrap_is_fine_in_tests() {
        assert_eq!(safe_head(&[2.0]).unwrap(), 2.0);
        assert!((ranked(vec![1.0, 0.5])[0] - 0.5).abs() < 1e-12);
    }
}
