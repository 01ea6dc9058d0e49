//! Order statistics and smoothing used for risk-profile summaries and the
//! box-plot style results in the paper's Figures 7, 8 and 11.

/// Linear-interpolation quantile (the same `linear` method NumPy defaults
/// to). `q` must be in `[0, 1]`.
///
/// Returns `None` for an empty slice. NaN values sort last under IEEE 754
/// `totalOrder`, so a poisoned input degrades deterministically instead of
/// panicking mid-pipeline.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]`.
///
/// # Examples
///
/// ```
/// let q = lgo_series::stats::quantile(&[1.0, 2.0, 3.0, 4.0], 0.5).unwrap();
/// assert_eq!(q, 2.5);
/// ```
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q), "quantile: q = {q} outside [0, 1]");
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        Some(sorted[lo])
    } else {
        let frac = pos - lo as f64;
        Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
    }
}

/// Median (`quantile(values, 0.5)`).
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// Five-number summary backing a box plot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoxStats {
    /// Smallest observation.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest observation.
    pub max: f64,
    /// Arithmetic mean (box plots in the paper also report means).
    pub mean: f64,
}

impl BoxStats {
    /// Computes the five-number summary plus mean.
    ///
    /// Returns `None` for an empty slice.
    ///
    /// # Examples
    ///
    /// ```
    /// let b = lgo_series::stats::BoxStats::from_values(&[1.0, 2.0, 3.0]).unwrap();
    /// assert_eq!(b.median, 2.0);
    /// assert_eq!(b.mean, 2.0);
    /// ```
    pub fn from_values(values: &[f64]) -> Option<BoxStats> {
        if values.is_empty() {
            return None;
        }
        Some(BoxStats {
            min: quantile(values, 0.0)?,
            q1: quantile(values, 0.25)?,
            median: quantile(values, 0.5)?,
            q3: quantile(values, 0.75)?,
            max: quantile(values, 1.0)?,
            mean: values.iter().sum::<f64>() / values.len() as f64,
        })
    }

    /// Interquartile range.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// Simple moving average with window `w` (output has the same length; the
/// first `w-1` entries average the available prefix).
///
/// # Panics
///
/// Panics if `w == 0`.
pub fn moving_average(values: &[f64], w: usize) -> Vec<f64> {
    assert!(w > 0, "moving_average: window must be positive");
    let mut out = Vec::with_capacity(values.len());
    let mut sum = 0.0;
    for i in 0..values.len() {
        sum += values[i];
        if i >= w {
            sum -= values[i - w];
        }
        let n = (i + 1).min(w) as f64;
        out.push(sum / n);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(quantile(&v, 0.0), Some(10.0));
        assert_eq!(quantile(&v, 1.0), Some(40.0));
        assert_eq!(quantile(&v, 0.5), Some(25.0));
        assert_eq!(quantile(&v, 0.25), Some(17.5));
    }

    #[test]
    fn quantile_empty_is_none() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[]), None);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn quantile_rejects_bad_q() {
        let _ = quantile(&[1.0], 1.5);
    }

    #[test]
    fn box_stats_basics() {
        let b = BoxStats::from_values(&[4.0, 1.0, 3.0, 2.0, 5.0]).unwrap();
        assert_eq!(b.min, 1.0);
        assert_eq!(b.max, 5.0);
        assert_eq!(b.median, 3.0);
        assert_eq!(b.mean, 3.0);
        assert_eq!(b.iqr(), 2.0);
        assert_eq!(BoxStats::from_values(&[]), None);
    }

    #[test]
    fn moving_average_prefix_behaviour() {
        let out = moving_average(&[2.0, 4.0, 6.0, 8.0], 2);
        assert_eq!(out, vec![2.0, 3.0, 5.0, 7.0]);
    }
}
