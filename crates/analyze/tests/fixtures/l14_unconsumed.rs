//! L14 fixture: `pub fn`s that nothing consumes.
//!
//! A name counts as used when any identifier token outside a comment, a
//! `use` item and this file's `#[cfg(test)]` code spells it. The fixture is
//! analysed alone, so only its own non-test code can consume a name. A
//! `try_x` whose `x` is consumed is exempt, because L3 demands the pair.
//! Scope: L14 only.

pub use self::inner::reexported_only;
pub use self::inner::renamed as alias;

/// Only this doc comment names `documented_only`, which is not a use:
/// see [`documented_only`].
pub fn documented_only() -> u32 { //~ L14
    1
}

mod inner {
    /// Mentioned only by the `pub use` at the top of the file.
    pub fn reexported_only() -> u32 { //~ L14
        2
    }

    /// Callers reach it as `alias`, so the rename counts as its use.
    pub fn renamed() -> u32 {
        3
    }
}

/// Called only from the tests below.
pub fn tested_only(x: u32) -> u32 { //~ L14
    x + 1
}

/// Passed as a fn pointer by a sibling: a mention like any call.
pub fn double(x: u32) -> u32 {
    x * 2
}

/// Consumed below, so its unconsumed `try_scale` twin is exempt.
pub fn scale(x: f64) -> f64 {
    x * 3.0
}

/// The checked twin of `scale`.
pub fn try_scale(x: f64) -> Result<f64, String> {
    if x.is_finite() {
        Ok(x * 3.0)
    } else {
        Err(format!("scale: {x} is not finite"))
    }
}

/// Neither this wrapper nor its twin has a consumer: both are flagged.
pub fn halve(x: f64) -> f64 { //~ L14
    x / 2.0
}

/// The checked twin of the unconsumed `halve`.
pub fn try_halve(x: f64) -> Result<f64, String> { //~ L14
    Ok(x / 2.0)
}

/// A private fn is not API surface, whether or not anything calls it.
fn consume_siblings(xs: &[u32]) -> (Vec<u32>, f64, u32) {
    let doubled = xs.iter().copied().map(double).collect();
    (doubled, scale(1.5), alias())
}

pub struct Meters(f64);

/// A trait-impl method is the trait's surface, not this file's.
impl std::fmt::Display for Meters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} m", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tested_only_adds_one() {
        assert_eq!(tested_only(1), 2);
        assert_eq!(halve(4.0), 2.0);
        assert_eq!(try_halve(4.0), Ok(2.0));
    }
}
