//! Exact integer-arithmetic training-set subsampling, shared by the three
//! detectors' `max_samples` / `max_windows` caps and the defenses' outlier
//! caps.
//!
//! The cap used to be implemented three times with a float stride
//! (`items[(i as f64 * stride) as usize]`), which systematically drops the
//! tail of the window list (the last selected index is
//! `⌊(cap−1)·len/cap⌋ < len−1`, so the newest windows never reach the
//! detector) and, through float rounding, cannot even guarantee distinct
//! indices. The replacement maps the selection range onto the item range
//! with endpoint-anchored integer arithmetic: index `i` selects
//! `⌊i·(len−1)/(cap−1)⌋`, so the first and last items are always retained
//! and, whenever `len > cap`, consecutive selections differ by at least
//! `⌊(len−1)/(cap−1)⌋ ≥ 1` — no duplicates, strictly increasing.

/// The indices a cap of `cap` keeps out of `len` items: exact length
/// `min(len, cap)` (or `len` when `cap == 0`, meaning uncapped), strictly
/// increasing, always containing `0` and `len − 1` when `len ≥ 2` and a
/// cap of at least 2 applies.
///
/// # Examples
///
/// ```
/// use lgo_detect::subsample_indices;
///
/// assert_eq!(subsample_indices(10, 4), vec![0, 3, 6, 9]);
/// assert_eq!(subsample_indices(3, 5), vec![0, 1, 2]); // cap >= len: keep all
/// assert_eq!(subsample_indices(9, 1), vec![0]);
/// assert_eq!(subsample_indices(7, 0), vec![0, 1, 2, 3, 4, 5, 6]); // 0 = uncapped
/// ```
pub fn subsample_indices(len: usize, cap: usize) -> Vec<usize> {
    if cap == 0 || len <= cap {
        return (0..len).collect();
    }
    if cap == 1 {
        return vec![0];
    }
    (0..cap).map(|i| i * (len - 1) / (cap - 1)).collect()
}

/// Applies [`subsample_indices`] to an owned vector: keeps the selected
/// items (in order) and drops the rest. `cap == 0` and `cap >= len` return
/// the input unchanged.
pub fn subsample_cap<T>(items: Vec<T>, cap: usize) -> Vec<T> {
    let len = items.len();
    if cap == 0 || len <= cap {
        return items;
    }
    lgo_trace::counter("detect/subsample/dropped", (len - cap) as u64);
    let indices = subsample_indices(len, cap);
    let mut next = 0usize;
    let mut out = Vec::with_capacity(indices.len());
    for (i, item) in items.into_iter().enumerate() {
        if next < indices.len() && indices[next] == i {
            out.push(item);
            next += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_exact_monotone_and_endpoint_anchored() {
        for (len, cap) in [(10, 4), (1000, 300), (150, 100), (7, 2), (500, 499)] {
            let idx = subsample_indices(len, cap);
            assert_eq!(idx.len(), cap, "len {len} cap {cap}");
            assert_eq!(idx[0], 0);
            assert_eq!(*idx.last().expect("nonempty"), len - 1);
            assert!(idx.windows(2).all(|w| w[0] < w[1]), "len {len} cap {cap}");
        }
    }

    #[test]
    fn degenerate_caps() {
        assert_eq!(subsample_indices(5, 5), vec![0, 1, 2, 3, 4]);
        assert_eq!(subsample_indices(5, 9), vec![0, 1, 2, 3, 4]);
        assert_eq!(subsample_indices(5, 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(subsample_indices(5, 1), vec![0]);
        assert_eq!(subsample_indices(0, 3), Vec::<usize>::new());
        assert_eq!(subsample_indices(1, 1), vec![0]);
    }

    #[test]
    fn cap_keeps_selected_items_in_order() {
        let items: Vec<usize> = (0..10).collect();
        assert_eq!(subsample_cap(items, 4), vec![0, 3, 6, 9]);
        let untouched: Vec<usize> = (0..3).collect();
        assert_eq!(subsample_cap(untouched, 8), vec![0, 1, 2]);
    }
}
