use std::fmt;
use std::ops::Add;

/// A binary confusion matrix with *malicious* as the positive class.
///
/// The paper's central quantity is the false-negative rate (missed attacks,
/// potentially lethal in a BGMS); recall = 1 − FNR.
///
/// # Examples
///
/// ```
/// use lgo_eval::ConfusionMatrix;
///
/// let cm = ConfusionMatrix { tp: 8, fp: 2, tn: 90, fn_: 0 };
/// assert_eq!(cm.recall(), 1.0);
/// assert_eq!(cm.false_negative_rate(), 0.0);
/// assert_eq!(cm.precision(), 0.8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ConfusionMatrix {
    /// Malicious samples flagged malicious.
    pub tp: usize,
    /// Benign samples flagged malicious.
    pub fp: usize,
    /// Benign samples passed as benign.
    pub tn: usize,
    /// Malicious samples passed as benign (`fn` is a keyword).
    pub fn_: usize,
}

impl ConfusionMatrix {
    /// Total number of samples.
    pub fn total(&self) -> usize {
        self.tp + self.fp + self.tn + self.fn_
    }

    /// Recall (true-positive rate): `tp / (tp + fn)`. Returns 0 when no
    /// positives exist.
    pub fn recall(&self) -> f64 {
        ratio(self.tp, self.tp + self.fn_)
    }

    /// Precision: `tp / (tp + fp)`. Returns 0 when nothing was flagged.
    pub fn precision(&self) -> f64 {
        ratio(self.tp, self.tp + self.fp)
    }

    /// F1 score — harmonic mean of precision and recall (0 when undefined).
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 { // lint: allow(L4): p and r are nonnegative ratios; the sum is exactly 0.0 only when both are
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// False-negative rate: `fn / (tp + fn)` — the paper's safety-critical
    /// quantity.
    pub fn false_negative_rate(&self) -> f64 {
        ratio(self.fn_, self.tp + self.fn_)
    }

    /// False-positive rate: `fp / (fp + tn)`.
    pub fn false_positive_rate(&self) -> f64 {
        ratio(self.fp, self.fp + self.tn)
    }
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl Add for ConfusionMatrix {
    type Output = ConfusionMatrix;

    /// Pools two matrices (micro-averaging).
    fn add(self, rhs: ConfusionMatrix) -> ConfusionMatrix {
        ConfusionMatrix {
            tp: self.tp + rhs.tp,
            fp: self.fp + rhs.fp,
            tn: self.tn + rhs.tn,
            fn_: self.fn_ + rhs.fn_,
        }
    }
}

impl std::iter::Sum for ConfusionMatrix {
    fn sum<I: Iterator<Item = ConfusionMatrix>>(iter: I) -> ConfusionMatrix {
        iter.fold(ConfusionMatrix::default(), Add::add)
    }
}

impl fmt::Display for ConfusionMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tp={} fp={} tn={} fn={} | recall={:.3} precision={:.3} f1={:.3}",
            self.tp,
            self.fp,
            self.tn,
            self.fn_,
            self.recall(),
            self.precision(),
            self.f1()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_and_identities() {
        let cm = ConfusionMatrix {
            tp: 6,
            fp: 2,
            tn: 10,
            fn_: 2,
        };
        assert!((cm.recall() - 0.75).abs() < 1e-12);
        assert!((cm.precision() - 0.75).abs() < 1e-12);
        assert!((cm.f1() - 0.75).abs() < 1e-12);
        // recall + fnr == 1
        assert!((cm.recall() + cm.false_negative_rate() - 1.0).abs() < 1e-12);
        assert!((cm.false_positive_rate() - 2.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_cases_return_zero() {
        let empty = ConfusionMatrix::default();
        assert_eq!(empty.recall(), 0.0);
        assert_eq!(empty.precision(), 0.0);
        assert_eq!(empty.f1(), 0.0);
    }

    #[test]
    fn pooling_micro_averages() {
        let a = ConfusionMatrix {
            tp: 1,
            fp: 0,
            tn: 5,
            fn_: 1,
        };
        let b = ConfusionMatrix {
            tp: 3,
            fp: 2,
            tn: 5,
            fn_: 0,
        };
        let pooled = a + b;
        assert_eq!(pooled.tp, 4);
        assert_eq!(pooled.fn_, 1);
        let summed: ConfusionMatrix = [a, b].into_iter().sum();
        assert_eq!(summed, pooled);
    }

    #[test]
    fn f1_is_harmonic_mean() {
        let cm = ConfusionMatrix {
            tp: 1,
            fp: 3,
            tn: 0,
            fn_: 0,
        };
        // precision 0.25, recall 1.0 -> f1 = 0.4
        assert!((cm.f1() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn display_mentions_key_rates() {
        let s = ConfusionMatrix::default().to_string();
        assert!(s.contains("recall"));
        assert!(s.contains("precision"));
    }
}
