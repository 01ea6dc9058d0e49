//! Roster sampling: the draw behind the paper's "Random Samples"
//! training strategy.

use rand::seq::SliceRandom;
use rand::RngExt;

/// Samples `k` distinct indices from `0..n` without replacement using the
/// provided RNG — the paper's "Random Samples" baseline draws 3 of the 12
/// patients per run, repeated for 10 runs.
///
/// # Panics
///
/// Panics if `k > n`.
pub fn sample_indices<R: RngExt + ?Sized>(n: usize, k: usize, rng: &mut R) -> Vec<usize> {
    assert!(k <= n, "sample_indices: k = {k} > n = {n}");
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(rng);
    idx.truncate(k);
    idx.sort_unstable();
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn sample_indices_are_distinct_sorted_in_range() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            let s = sample_indices(12, 3, &mut rng);
            assert_eq!(s.len(), 3);
            assert!(s.windows(2).all(|w| w[0] < w[1]));
            assert!(s.iter().all(|&i| i < 12));
        }
    }

    #[test]
    fn sample_indices_deterministic_for_seed() {
        let a = sample_indices(12, 3, &mut StdRng::seed_from_u64(9));
        let b = sample_indices(12, 3, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "k = 5 > n = 3")]
    fn sample_indices_rejects_oversample() {
        let _ = sample_indices(3, 5, &mut StdRng::seed_from_u64(0));
    }
}
