//! Severity coefficients for misprediction state transitions — the paper's
//! Table I, plus the alternative coefficient families used by the
//! sensitivity ablation the paper lists as future work (§V, limitation 4).

use crate::state::GlucoseState;

/// The severity/cost coefficient table `S(benign_state, adversarial_state)`.
///
/// The paper uses exponential coefficients because state-transition harm in
/// a BGMS is nonlinear in outcome severity: misdiagnosing a hypoglycemic
/// patient as hyperglycemic triggers a large insulin dose on an already-low
/// patient — the most lethal case — and gets the largest coefficient (64).
/// Identity transitions (no state change) carry zero severity.
#[derive(Debug, Clone, PartialEq)]
pub struct SeverityTable {
    // Indexed [benign][adversarial] with Hypo=0, Normal=1, Hyper=2.
    coefficients: [[f64; 3]; 3],
    name: &'static str,
}

fn idx(s: GlucoseState) -> usize {
    match s {
        GlucoseState::Hypo => 0,
        GlucoseState::Normal => 1,
        GlucoseState::Hyper => 2,
    }
}

impl SeverityTable {
    /// The paper's Table I (exponential coefficients):
    ///
    /// | benign → adversarial | S  |
    /// |----------------------|----|
    /// | hypo → hyper         | 64 |
    /// | normal → hyper       | 32 |
    /// | hypo → normal        | 16 |
    /// | hyper → hypo         | 8  |
    /// | hyper → normal       | 4  |
    /// | normal → hypo        | 2  |
    pub fn paper_default() -> Self {
        let mut c = [[0.0; 3]; 3];
        c[idx(GlucoseState::Hypo)][idx(GlucoseState::Hyper)] = 64.0;
        c[idx(GlucoseState::Normal)][idx(GlucoseState::Hyper)] = 32.0;
        c[idx(GlucoseState::Hypo)][idx(GlucoseState::Normal)] = 16.0;
        c[idx(GlucoseState::Hyper)][idx(GlucoseState::Hypo)] = 8.0;
        c[idx(GlucoseState::Hyper)][idx(GlucoseState::Normal)] = 4.0;
        c[idx(GlucoseState::Normal)][idx(GlucoseState::Hypo)] = 2.0;
        Self {
            coefficients: c,
            name: "exponential (paper Table I)",
        }
    }

    /// Linear alternative (6, 5, 4, 3, 2, 1 in the paper's severity order) —
    /// used by the coefficient-sensitivity ablation.
    pub fn linear() -> Self {
        let mut c = [[0.0; 3]; 3];
        c[idx(GlucoseState::Hypo)][idx(GlucoseState::Hyper)] = 6.0;
        c[idx(GlucoseState::Normal)][idx(GlucoseState::Hyper)] = 5.0;
        c[idx(GlucoseState::Hypo)][idx(GlucoseState::Normal)] = 4.0;
        c[idx(GlucoseState::Hyper)][idx(GlucoseState::Hypo)] = 3.0;
        c[idx(GlucoseState::Hyper)][idx(GlucoseState::Normal)] = 2.0;
        c[idx(GlucoseState::Normal)][idx(GlucoseState::Hypo)] = 1.0;
        Self {
            coefficients: c,
            name: "linear",
        }
    }

    /// Uniform alternative: every *transition* costs 1 (identity still 0) —
    /// degenerates the risk formula to pure squared deviation on
    /// state-changing mispredictions.
    pub fn uniform() -> Self {
        let mut c = [[1.0; 3]; 3];
        for (i, row) in c.iter_mut().enumerate() {
            row[i] = 0.0;
        }
        Self {
            coefficients: c,
            name: "uniform",
        }
    }

    /// A short human-readable name of the coefficient family.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The coefficient for a benign→adversarial state transition.
    ///
    /// # Examples
    ///
    /// ```
    /// use lgo_core::severity::SeverityTable;
    /// use lgo_core::state::GlucoseState;
    ///
    /// let t = SeverityTable::paper_default();
    /// assert_eq!(t.coefficient(GlucoseState::Normal, GlucoseState::Hyper), 32.0);
    /// ```
    pub fn coefficient(&self, benign: GlucoseState, adversarial: GlucoseState) -> f64 {
        self.coefficients[idx(benign)][idx(adversarial)]
    }

    /// All transitions ordered by descending coefficient, for reporting
    /// (the rows of Table I).
    pub fn ranked_transitions(&self) -> Vec<(GlucoseState, GlucoseState, f64)> {
        use GlucoseState::*;
        let mut rows: Vec<(GlucoseState, GlucoseState, f64)> = [Hypo, Normal, Hyper]
            .into_iter()
            .flat_map(|b| {
                [Hypo, Normal, Hyper]
                    .into_iter()
                    .filter(move |&a| a != b)
                    .map(move |a| (b, a, self.coefficient(b, a)))
            })
            .collect();
        // total_cmp keeps the ranking deterministic even if a coefficient is
        // NaN (it sorts below every real in descending order) instead of
        // panicking mid-report.
        rows.sort_by(|x, y| y.2.total_cmp(&x.2));
        rows
    }
}

impl Default for SeverityTable {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use GlucoseState::*;

    #[test]
    fn paper_table_matches_table_one() {
        let t = SeverityTable::paper_default();
        assert_eq!(t.coefficient(Hypo, Hyper), 64.0);
        assert_eq!(t.coefficient(Normal, Hyper), 32.0);
        assert_eq!(t.coefficient(Hypo, Normal), 16.0);
        assert_eq!(t.coefficient(Hyper, Hypo), 8.0);
        assert_eq!(t.coefficient(Hyper, Normal), 4.0);
        assert_eq!(t.coefficient(Normal, Hypo), 2.0);
    }

    #[test]
    fn identity_transitions_are_free() {
        for t in [
            SeverityTable::paper_default(),
            SeverityTable::linear(),
            SeverityTable::uniform(),
        ] {
            for s in [Hypo, Normal, Hyper] {
                assert_eq!(t.coefficient(s, s), 0.0, "{}", t.name());
            }
        }
    }

    #[test]
    fn exponential_severity_ordering() {
        // The worst transition (hypo->hyper) dominates, and each step in the
        // paper's ranking doubles.
        let t = SeverityTable::paper_default();
        let ranked = t.ranked_transitions();
        assert_eq!(ranked[0], (Hypo, Hyper, 64.0));
        assert_eq!(ranked[5], (Normal, Hypo, 2.0));
        for w in ranked.windows(2) {
            assert_eq!(w[0].2, w[1].2 * 2.0);
        }
    }

    #[test]
    fn linear_and_uniform_families() {
        assert_eq!(SeverityTable::linear().coefficient(Hypo, Hyper), 6.0);
        assert_eq!(SeverityTable::uniform().coefficient(Hypo, Hyper), 1.0);
        assert_eq!(SeverityTable::uniform().coefficient(Normal, Hypo), 1.0);
    }
}
