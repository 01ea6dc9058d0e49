//! A0/A1 fixture: the allowlist cannot rot. Scope: all rules.

/// A directive naming an unknown rule is malformed.
pub fn unknown_rule(xs: &[f64]) -> Option<f64> {
    // lint: allow(L99): no such rule //~ A0
    xs.first().copied()
}

/// The justification after the rule list is mandatory.
pub fn missing_justification(xs: &[f64]) -> Option<f64> {
    // lint: allow(L2) //~ A0
    xs.first().copied()
}

/// Something that says `lint:` but is not an allow directive.
pub fn not_an_allow(xs: &[f64]) -> Option<f64> {
    // lint: deny(L1): directives only support allow //~ A0
    xs.first().copied()
}

/// A directive that suppresses nothing is itself a finding.
pub fn unused_directive(xs: &[f64]) -> f64 {
    xs.first().copied().unwrap_or(0.0) // lint: allow(L2): nothing fires here //~ A1
}

/// Consumes every public fn above, so only the directives are findings.
fn consume_all(xs: &[f64]) -> (Option<f64>, Option<f64>, Option<f64>, f64) {
    (
        unknown_rule(xs),
        missing_justification(xs),
        not_an_allow(xs),
        unused_directive(xs),
    )
}
