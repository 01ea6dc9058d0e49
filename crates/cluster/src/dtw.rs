//! Dynamic time warping — an alternative distance for time-series risk
//! profiles that tolerates temporal misalignment (two patients whose risk
//! peaks at slightly different hours should still cluster together).
//!
//! # Performance layer
//!
//! The O(n²·L²) pair matrix behind clustering is the workspace's hottest
//! kernel, so this module carries three exact optimizations on top of the
//! textbook DP:
//!
//! * **Cell pruning with an exact upper bound** ([`dtw_pruned`]): before the
//!   DP runs, the cost of one concrete in-band alignment (the band-clamped
//!   diagonal path) is accumulated *with the same float-operation order the
//!   DP uses*. Any DP cell whose prefix cost strictly exceeds that bound
//!   cannot lie on an optimal path — completing a path only adds
//!   non-negative costs, and IEEE addition is monotone — so the cell is
//!   dropped and the active range of each row shrinks. Every surviving cell
//!   (the final one included) holds exactly the bits the brute-force DP
//!   would produce, which is what lets [`dtw_distance_matrix`] use this
//!   path while the workspace's byte-identical-export guarantee holds.
//! * **Lower-bound envelopes** ([`Envelope`], [`lb_kim`], [`lb_keogh`]):
//!   cheap O(1)/O(L) bounds below the true DTW distance, powering the
//!   early-abandoning [`dtw_with_cutoff`] used by nearest-neighbour-style
//!   callers that only care whether a distance beats a threshold.
//! * **Reusable row buffers and chunked fan-out** ([`DtwScratch`], and
//!   `dtw_distance_matrix` batching pairs through `par_chunks`): one task
//!   per unordered pair paid the pool's per-task overhead L² times over —
//!   the measured cause of the sub-1.0 speedups in `results/BENCH_scaling.json` —
//!   so pairs now run in fixed-size chunks that share one scratch
//!   allocation. Chunk boundaries are a pure function of the pair count,
//!   never the thread count, so the matrix stays bit-identical at any
//!   `LGO_THREADS`.

use std::cmp::Ordering;

/// Pairs per pool task in [`dtw_distance_matrix`]. Large enough to amortize
/// task overhead over real DP work, small enough to load-balance a
/// paper-scale (35-patient, 595-pair) matrix across workers. Fixed —
/// deriving it from the thread count would move chunk boundaries (harmless
/// for values, but the point of a constant is that nothing schedule-shaped
/// feeds the fan-out).
const PAIR_CHUNK: usize = 16;

/// Dynamic-time-warping distance between two scalar series, with an
/// optional Sakoe–Chiba band constraint.
///
/// The base cost is the absolute difference; the returned value is the
/// minimum total cost over all monotone alignments. `band = None` allows
/// unconstrained warping; `Some(w)` restricts |i − j| ≤ w (faster and often
/// more robust).
///
/// This is the brute-force reference implementation: every in-band cell is
/// computed. [`dtw_pruned`] returns the same bits faster.
///
/// # Panics
///
/// Panics if either series is empty.
///
/// # Examples
///
/// ```
/// use lgo_cluster::dtw;
///
/// // A shifted copy warps to near-zero cost.
/// let a = [0.0, 0.0, 1.0, 2.0, 1.0, 0.0];
/// let b = [0.0, 1.0, 2.0, 1.0, 0.0, 0.0];
/// assert!(dtw(&a, &b, None) < 0.5);
/// // Euclidean-style pointwise distance would be much larger.
/// let pointwise: f64 = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum();
/// assert!(pointwise > 2.0);
/// ```
pub fn dtw(a: &[f64], b: &[f64], band: Option<usize>) -> f64 {
    assert!(!a.is_empty() && !b.is_empty(), "dtw: empty series");
    let (n, m) = (a.len(), b.len());
    let w = band.unwrap_or(n.max(m));
    // Effective band must at least cover the length difference.
    let w = w.max(n.abs_diff(m));
    let mut prev = vec![f64::INFINITY; m + 1];
    let mut curr = vec![f64::INFINITY; m + 1];
    prev[0] = 0.0;
    for i in 1..=n {
        curr.fill(f64::INFINITY);
        let lo = i.saturating_sub(w).max(1);
        let hi = (i + w).min(m);
        for j in lo..=hi {
            let cost = (a[i - 1] - b[j - 1]).abs();
            // IEEE `f64::min` silently discards NaN operands, which would let
            // a corrupted cell vanish from the alignment; total_cmp orders
            // NaN above infinity so a poisoned path can never win, and the
            // `cost +` term still propagates NaN from the current pair.
            let best = [prev[j], curr[j - 1], prev[j - 1]]
                .into_iter()
                .min_by(|x, y| x.total_cmp(y))
                .unwrap_or(f64::INFINITY);
            curr[j] = cost + best;
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[m]
}

/// Reusable DP row buffers for [`dtw_pruned_with`] /
/// [`dtw_with_cutoff_with`]. One scratch serves any number of sequential
/// calls of any series lengths, so a task computing a chunk of pairs
/// allocates twice total instead of twice per pair.
#[derive(Debug, Default)]
pub struct DtwScratch {
    prev: Vec<f64>,
    curr: Vec<f64>,
}

impl DtwScratch {
    /// A fresh scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Both rows sized to `len` and filled with +∞.
    fn reset(&mut self, len: usize) {
        self.prev.clear();
        self.prev.resize(len, f64::INFINITY);
        self.curr.clear();
        self.curr.resize(len, f64::INFINITY);
    }
}

/// Sliding min/max envelope of a series under a warping radius — the
/// `O(L)`-queryable geometry behind [`lb_keogh`]. `upper[i]` / `lower[i]`
/// bound every sample the band allows position `i` to align against.
///
/// # Examples
///
/// ```
/// use lgo_cluster::Envelope;
///
/// let e = Envelope::new(&[1.0, 5.0, 2.0], 1);
/// assert_eq!(e.upper(), &[5.0, 5.0, 5.0]);
/// assert_eq!(e.lower(), &[1.0, 1.0, 2.0]);
/// ```
#[derive(Debug, Clone)]
pub struct Envelope {
    upper: Vec<f64>,
    lower: Vec<f64>,
}

impl Envelope {
    /// Builds the radius-`w` envelope of `series`. NaN samples poison their
    /// window's bounds (via `total_cmp` ordering NaN above every real), so
    /// corruption widens rather than silently tightens the envelope.
    ///
    /// # Panics
    ///
    /// Panics if `series` is empty.
    pub fn new(series: &[f64], w: usize) -> Self {
        assert!(!series.is_empty(), "Envelope::new: empty series");
        let n = series.len();
        let mut upper = Vec::with_capacity(n);
        let mut lower = Vec::with_capacity(n);
        for i in 0..n {
            let lo = i.saturating_sub(w);
            let hi = (i + w).min(n - 1);
            let window = &series[lo..=hi];
            let mut max = window[0];
            let mut min = window[0];
            for &v in &window[1..] {
                if v.total_cmp(&max) == Ordering::Greater {
                    max = v;
                }
                if v.total_cmp(&min) == Ordering::Less {
                    min = v;
                }
            }
            upper.push(max);
            lower.push(min);
        }
        Self { upper, lower }
    }

    /// Per-position upper bounds.
    pub fn upper(&self) -> &[f64] {
        &self.upper
    }

    /// Per-position lower bounds.
    pub fn lower(&self) -> &[f64] {
        &self.lower
    }

    /// Envelope length (same as the source series).
    pub fn len(&self) -> usize {
        self.upper.len()
    }

    /// Whether the envelope is empty (never, post-construction).
    pub fn is_empty(&self) -> bool {
        self.upper.is_empty()
    }
}

/// LB_Kim endpoint lower bound: every monotone alignment pays the first
/// pair and the last pair, so their summed cost can never exceed the DTW
/// distance.
///
/// The sum is accumulated as `tail + head` — the same operand order in
/// which the DP adds the final cell's cost onto its prefix — so the bound
/// holds in *float* arithmetic too, not just in exact math: the returned
/// value is `<=` the float [`dtw`] value for any inputs.
///
/// # Panics
///
/// Panics if either series is empty.
pub fn lb_kim(a: &[f64], b: &[f64]) -> f64 {
    assert!(!a.is_empty() && !b.is_empty(), "lb_kim: empty series");
    let head = (a[0] - b[0]).abs();
    if a.len() == 1 && b.len() == 1 {
        // One-sample series share their only aligned pair; counting it
        // twice would overshoot the true distance.
        return head;
    }
    (a[a.len() - 1] - b[b.len() - 1]).abs() + head
}

/// LB_Keogh envelope lower bound of the DTW distance between `query` and
/// the series whose radius-`w` [`Envelope`] is given, for equal-length
/// series under band `w`: positions of `query` escaping the envelope must
/// pay at least their escape distance in any in-band alignment.
///
/// Returns `0.0` (the trivial bound) when the lengths differ — the classic
/// bound is only valid length-to-length. The bound is exact in real
/// arithmetic; float summation order may leave it a few ulps above the
/// float [`dtw`] value, so callers comparing against a cutoff should treat
/// it as a screening bound, not a certificate (which is how
/// [`dtw_with_cutoff_with`] uses its exact bounds instead).
pub fn lb_keogh(query: &[f64], env: &Envelope) -> f64 {
    if query.len() != env.len() {
        return 0.0;
    }
    let mut sum = 0.0;
    for ((&q, &u), &l) in query.iter().zip(&env.upper).zip(&env.lower) {
        if q > u {
            sum += q - u;
        } else if q < l {
            sum += l - q;
        }
    }
    sum
}

/// Exact upper bound on the DTW distance: the accumulated cost of the
/// band-clamped diagonal alignment (advance both series while possible,
/// then walk out the longer one). Accumulation uses `cost + acc` — the
/// identical op order of the DP's `cost + best` — so by induction every DP
/// prefix along this path is `<=` the running bound under IEEE rounding,
/// making the bound float-exact, never just approximately valid.
// The spelled-out `cost + acc` (vs `acc +=`) keeps the operand order on
// the page identical to the DP's `cost + best` it must mirror.
#[allow(clippy::assign_op_pattern)]
fn diagonal_upper_bound(a: &[f64], b: &[f64]) -> f64 {
    let (n, m) = (a.len(), b.len());
    let (mut i, mut j) = (1usize, 1usize);
    let mut acc = (a[0] - b[0]).abs() + 0.0;
    while i < n || j < m {
        if i < n {
            i += 1;
        }
        if j < m {
            j += 1;
        }
        acc = (a[i - 1] - b[j - 1]).abs() + acc;
    }
    acc
}

/// First-wins minimum of the three DP predecessors under `total_cmp` —
/// the branchy but inlinable form of the reference implementation's
/// `[p, c, d].into_iter().min_by(total_cmp)`, selecting the identical
/// element (ties share a bit pattern under `total_cmp`, so first-wins vs
/// last-wins cannot differ).
#[inline]
fn min3(p: f64, c: f64, d: f64) -> f64 {
    let mut best = p;
    if c.total_cmp(&best) == Ordering::Less {
        best = c;
    }
    if d.total_cmp(&best) == Ordering::Less {
        best = d;
    }
    best
}

/// Outcome of one pruned DP: the distance plus cell accounting for the
/// trace counters.
struct PrunedRun {
    distance: f64,
    cells_banded: u64,
    cells_pruned: u64,
}

/// The pruned DP shared by [`dtw_pruned_with`] and [`dtw_with_cutoff_with`].
/// `cutoff = None` runs to completion (bit-identical to [`dtw`]);
/// `Some(c)` additionally abandons—returning +∞ as the distance—once a
/// whole row's surviving minimum exceeds `c`.
fn pruned_dp(
    a: &[f64],
    b: &[f64],
    band: Option<usize>,
    cutoff: Option<f64>,
    scratch: &mut DtwScratch,
) -> PrunedRun {
    assert!(!a.is_empty() && !b.is_empty(), "dtw: empty series");
    let (n, m) = (a.len(), b.len());
    let w = band.unwrap_or(n.max(m)).max(n.abs_diff(m));
    // The pruning threshold: one concrete path's exact cost, tightened by
    // the caller's cutoff when present (any value above the cutoff is as
    // good as pruned for an abandoning caller). A NaN bound disables
    // pruning outright — `v > NaN` is false — so NaN inputs take the exact
    // brute-force data flow and propagate like the reference.
    let ub = diagonal_upper_bound(a, b);
    let ub = match cutoff {
        Some(c) if c < ub => c,
        _ => ub,
    };
    scratch.reset(m + 1);
    let prev = &mut scratch.prev;
    let curr = &mut scratch.curr;
    prev[0] = 0.0;
    // Alive (unpruned) column range of the previous row; the virtual row 0
    // is alive only at its base column.
    let mut sc = 0usize;
    let mut ec = 0usize;
    let mut banded = 0u64;
    let mut pruned = 0u64;
    for i in 1..=n {
        curr.fill(f64::INFINITY);
        let lo = i.saturating_sub(w).max(1);
        let hi = (i + w).min(m);
        banded += (hi + 1 - lo) as u64;
        // Columns left of the previous row's first survivor have only dead
        // predecessors; skip them (they are the row-start saving).
        let start = lo.max(sc);
        pruned += (start - lo) as u64;
        let mut alive = false;
        let mut next_sc = 0usize;
        let mut next_ec = 0usize;
        let mut row_min = f64::INFINITY;
        // `left` and `diag` carry curr[j-1] / prev[j-1] across iterations in
        // registers (each is last iteration's value), so a cell costs one
        // indexed read (prev[j]) instead of the reference's three. The
        // values are identical to re-reading the buffers, so the DP is
        // unchanged bit for bit.
        let mut left = f64::INFINITY;
        let mut diag = prev[start - 1];
        let track_min = cutoff.is_some();
        for j in start..=hi {
            let up = prev[j];
            let cost = (a[i - 1] - b[j - 1]).abs();
            let v = cost + min3(up, left, diag);
            diag = up;
            if v > ub {
                // Strictly above the bound: no completion of this prefix
                // can reach back under it (costs are non-negative and IEEE
                // addition is monotone), so the cell cannot influence any
                // surviving value. NaN never lands here.
                curr[j] = f64::INFINITY;
                left = f64::INFINITY;
                pruned += 1;
                if j > ec {
                    // Past the previous row's last survivor with a dead
                    // current-row neighbour: every remaining column's three
                    // predecessors are dead too (the row-end saving).
                    pruned += (hi - j) as u64;
                    break;
                }
            } else {
                curr[j] = v;
                left = v;
                if !alive {
                    next_sc = j;
                    alive = true;
                }
                next_ec = j;
                // Only the cutoff path consumes the row minimum; skipping
                // the comparison otherwise keeps the exact-matrix hot loop
                // lean.
                if track_min && v.total_cmp(&row_min) == Ordering::Less {
                    row_min = v;
                }
            }
        }
        if alive {
            sc = next_sc;
            ec = next_ec;
        } else {
            // Unreachable when the bound came from a real path (its prefix
            // survives every row), but a caller cutoff below the true
            // distance legitimately kills whole rows — and then the final
            // distance provably exceeds the cutoff.
            return PrunedRun { distance: f64::INFINITY, cells_banded: banded, cells_pruned: pruned };
        }
        if let Some(c) = cutoff {
            if row_min > c {
                // Every completion only grows; the whole row already beats
                // the cutoff, so the final distance must too.
                return PrunedRun { distance: f64::INFINITY, cells_banded: banded, cells_pruned: pruned };
            }
        }
        std::mem::swap(prev, curr);
    }
    PrunedRun { distance: prev[m], cells_banded: banded, cells_pruned: pruned }
}

/// [`dtw`] through the pruned DP: bit-identical results, fewer cells.
///
/// See the module docs for why pruning cannot move a single output bit:
/// the bound is the float-exact cost of a real alignment, pruning is
/// strictly-greater, and every cell at or below the bound — the returned
/// final cell included — computes from identically valued predecessors.
///
/// # Panics
///
/// Panics if either series is empty.
///
/// # Examples
///
/// ```
/// use lgo_cluster::{dtw, dtw_pruned};
///
/// let a: Vec<f64> = (0..40).map(|t| (t as f64 * 0.3).sin()).collect();
/// let b: Vec<f64> = (0..40).map(|t| (t as f64 * 0.3).cos()).collect();
/// assert_eq!(dtw_pruned(&a, &b, None).to_bits(), dtw(&a, &b, None).to_bits());
/// ```
pub fn dtw_pruned(a: &[f64], b: &[f64], band: Option<usize>) -> f64 {
    dtw_pruned_with(a, b, band, &mut DtwScratch::new())
}

/// [`dtw_pruned`] with caller-owned row buffers, for tight loops over many
/// pairs.
///
/// # Panics
///
/// Panics if either series is empty.
pub fn dtw_pruned_with(a: &[f64], b: &[f64], band: Option<usize>, scratch: &mut DtwScratch) -> f64 {
    pruned_dp(a, b, band, None, scratch).distance
}

/// Early-abandoning DTW: `Some(d)` with `d` bit-identical to [`dtw`] when
/// the distance could matter, `None` as soon as it provably exceeds
/// `cutoff`.
///
/// Two abandonment triggers, both float-exact: the [`lb_kim`] endpoint
/// bound (checked before any DP work), and a DP row whose surviving
/// minimum already exceeds the cutoff (completions only add non-negative
/// cost). `Some(d)` may carry `d > cutoff` — the bounds are lower bounds,
/// not oracles — but `None` is always a true rejection.
///
/// # Panics
///
/// Panics if either series is empty.
///
/// # Examples
///
/// ```
/// use lgo_cluster::{dtw, dtw_with_cutoff};
///
/// let a = [0.0, 1.0, 2.0, 3.0];
/// let far = [90.0, 91.0, 92.0, 93.0];
/// assert_eq!(dtw_with_cutoff(&a, &far, None, 1.0), None);
/// let d = dtw_with_cutoff(&a, &a, None, 1.0);
/// assert_eq!(d, Some(dtw(&a, &a, None)));
/// ```
pub fn dtw_with_cutoff(a: &[f64], b: &[f64], band: Option<usize>, cutoff: f64) -> Option<f64> {
    dtw_with_cutoff_with(a, b, band, cutoff, &mut DtwScratch::new())
}

/// [`dtw_with_cutoff`] with caller-owned row buffers.
///
/// # Panics
///
/// Panics if either series is empty.
pub fn dtw_with_cutoff_with(
    a: &[f64],
    b: &[f64],
    band: Option<usize>,
    cutoff: f64,
    scratch: &mut DtwScratch,
) -> Option<f64> {
    if lb_kim(a, b) > cutoff {
        return None;
    }
    let run = pruned_dp(a, b, band, Some(cutoff), scratch);
    if run.distance.is_infinite() && run.distance.is_sign_positive() {
        // Either abandoned or genuinely unreachable under the band — and an
        // unreachable alignment exceeds every finite cutoff too.
        return None;
    }
    Some(run.distance)
}

/// Pairwise DTW distance matrix over a set of series.
///
/// The O(n²) upper triangle runs on the lgo-runtime pool in fixed-size
/// chunks of [`PAIR_CHUNK`] pairs — one task per *chunk*, so the pool's
/// per-task overhead is amortized over real DP work and each task reuses
/// one [`DtwScratch`] across its pairs. Every entry goes through the
/// exact pruned DP ([`dtw_pruned_with`]), so the matrix is bit-identical
/// to brute force and to itself at any thread count; the pruning rate is
/// reported through the `cluster/dtw_cells*` trace counters.
///
/// # Panics
///
/// Panics if `series` is empty or any series is empty.
pub fn dtw_distance_matrix(series: &[Vec<f64>], band: Option<usize>) -> Vec<Vec<f64>> {
    assert!(!series.is_empty(), "dtw_distance_matrix: no series");
    let n = series.len();
    let _span = lgo_trace::span("cluster/dtw_matrix");
    let npairs = n * (n - 1) / 2;
    lgo_trace::counter("cluster/dtw_pairs", npairs as u64);
    let linear: Vec<usize> = (0..npairs).collect();
    let chunks = lgo_runtime::par_chunks(&linear, PAIR_CHUNK, |ks| {
        let mut scratch = DtwScratch::new();
        let mut out = Vec::with_capacity(ks.len());
        let (mut banded, mut pruned) = (0u64, 0u64);
        for &k in ks {
            let (i, j) = lgo_runtime::pair_from_linear(k, n);
            let run = pruned_dp(&series[i], &series[j], band, None, &mut scratch);
            banded += run.cells_banded;
            pruned += run.cells_pruned;
            out.push(run.distance);
        }
        (out, banded, pruned)
    });
    let mut d = vec![vec![0.0; n]; n];
    let (mut banded, mut pruned) = (0u64, 0u64);
    let mut k = 0usize;
    for (chunk, cb, cp) in chunks {
        banded += cb;
        pruned += cp;
        for v in chunk {
            let (i, j) = lgo_runtime::pair_from_linear(k, n);
            d[i][j] = v;
            d[j][i] = v;
            k += 1;
        }
    }
    // Cell counts are value-determined (pruning compares exact floats), so
    // these counters stay byte-identical across thread counts like every
    // other lgo-trace counter.
    lgo_trace::counter("cluster/dtw_cells_banded", banded);
    lgo_trace::counter("cluster/dtw_cells_pruned", pruned);
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic wiggly test series via the runtime's seed splitter.
    fn pseudo_series(seed: u64, len: usize) -> Vec<f64> {
        (0..len as u64)
            .map(|t| {
                let bits = lgo_runtime::split_seed(seed, t);
                ((bits % 4000) as f64 / 1000.0 - 2.0) + (t as f64 * 0.21).sin()
            })
            .collect()
    }

    #[test]
    fn identical_series_have_zero_distance() {
        let a = [1.0, 3.0, 2.0, 5.0];
        assert_eq!(dtw(&a, &a, None), 0.0);
        assert_eq!(dtw(&a, &a, Some(1)), 0.0);
        assert_eq!(dtw_pruned(&a, &a, None), 0.0);
    }

    #[test]
    fn symmetric() {
        let a = [0.0, 1.0, 4.0, 2.0];
        let b = [1.0, 1.0, 2.0, 2.0, 3.0];
        assert_eq!(dtw(&a, &b, None), dtw(&b, &a, None));
        assert_eq!(dtw_pruned(&a, &b, None), dtw_pruned(&b, &a, None));
    }

    #[test]
    fn warping_absorbs_time_shift() {
        let a: Vec<f64> = (0..20).map(|t| ((t as f64) * 0.6).sin()).collect();
        let b: Vec<f64> = (0..20).map(|t| ((t as f64 - 2.0) * 0.6).sin()).collect();
        let warped = dtw(&a, &b, None);
        let pointwise: f64 = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum();
        assert!(warped < pointwise * 0.5, "warped {warped} vs pointwise {pointwise}");
    }

    #[test]
    fn band_constraint_is_no_looser_than_unconstrained() {
        let a: Vec<f64> = (0..15).map(|t| (t as f64 * 0.9).cos()).collect();
        let b: Vec<f64> = (0..15).map(|t| (t as f64 * 0.8).cos() + 0.1).collect();
        let free = dtw(&a, &b, None);
        let banded = dtw(&a, &b, Some(2));
        assert!(banded >= free - 1e-12);
    }

    #[test]
    fn different_lengths_work() {
        let a = [1.0, 2.0, 3.0];
        let b = [1.0, 1.5, 2.0, 2.5, 3.0];
        let d = dtw(&a, &b, Some(1));
        assert!(d.is_finite());
        assert_eq!(dtw_pruned(&a, &b, Some(1)).to_bits(), d.to_bits());
    }

    #[test]
    fn pruned_is_bitwise_identical_to_brute_force() {
        // Property sweep: lengths (equal and ragged), bands (tight, loose,
        // none), and scratch reuse across pairs — every combination must
        // reproduce the reference DP bit for bit.
        let mut scratch = DtwScratch::new();
        for seed in 0..24u64 {
            let la = 5 + (seed as usize * 7) % 60;
            let lb = 5 + (seed as usize * 13) % 60;
            let a = pseudo_series(seed * 2 + 1, la);
            let b = pseudo_series(seed * 2 + 2, lb);
            for band in [None, Some(1), Some(4), Some(16)] {
                let brute = dtw(&a, &b, band);
                let fast = dtw_pruned_with(&a, &b, band, &mut scratch);
                assert_eq!(
                    fast.to_bits(),
                    brute.to_bits(),
                    "seed {seed} band {band:?}: pruned {fast} != brute {brute}"
                );
            }
        }
    }

    #[test]
    fn nan_inputs_take_the_exact_reference_path() {
        // A NaN sample makes the diagonal upper bound NaN, which disables
        // pruning outright — so the pruned DP must reproduce the reference
        // bit for bit (the reference resolves a poisoned row to +inf:
        // total_cmp orders NaN above infinity, so the out-of-band fill
        // value wins the min and the corruption can never look optimal).
        let mut a = pseudo_series(77, 30);
        let b = pseudo_series(78, 30);
        a[13] = f64::NAN;
        for band in [None, Some(3)] {
            let brute = dtw(&a, &b, band);
            let fast = dtw_pruned(&a, &b, band);
            assert_eq!(fast.to_bits(), brute.to_bits(), "NaN handling diverged at band {band:?}");
        }
    }

    #[test]
    fn pruning_actually_drops_cells() {
        // Smooth phase-shifted waves: warping makes the optimal cost tiny
        // while off-diagonal prefixes accumulate fast, so the diagonal
        // upper bound kills a real fraction of the table. (On white noise
        // the bound is loose and pruning legitimately stays near zero.)
        let a: Vec<f64> = (0..120).map(|t| (t as f64 * 0.05).sin() * 3.0).collect();
        let b: Vec<f64> = (0..120).map(|t| (t as f64 * 0.05 + 1.0).sin() * 3.0).collect();
        let run = pruned_dp(&a, &b, None, None, &mut DtwScratch::new());
        assert!(run.cells_pruned > 0, "no cells pruned on a 120x120 DP");
        assert!(run.cells_pruned < run.cells_banded);
        assert_eq!(run.distance.to_bits(), dtw(&a, &b, None).to_bits());
    }

    #[test]
    fn envelope_bounds_contain_the_series() {
        let s = pseudo_series(9, 50);
        let env = Envelope::new(&s, 4);
        assert_eq!(env.len(), s.len());
        assert!(!env.is_empty());
        for (i, &v) in s.iter().enumerate() {
            assert!(env.lower()[i] <= v && v <= env.upper()[i]);
        }
    }

    #[test]
    fn lower_bounds_stay_below_dtw() {
        for seed in 0..16u64 {
            let a = pseudo_series(seed, 40);
            let b = pseudo_series(seed + 100, 40);
            for w in [0usize, 2, 8] {
                let d = dtw(&a, &b, Some(w));
                assert!(lb_kim(&a, &b) <= d, "lb_kim above dtw at seed {seed}");
                let env = Envelope::new(&b, w);
                assert!(
                    lb_keogh(&a, &env) <= d + 1e-9,
                    "lb_keogh above dtw at seed {seed} w {w}"
                );
            }
        }
    }

    #[test]
    fn lb_keogh_is_trivial_for_ragged_lengths() {
        let env = Envelope::new(&[1.0, 2.0], 1);
        assert_eq!(lb_keogh(&[1.0, 2.0, 3.0], &env), 0.0);
    }

    #[test]
    fn cutoff_accepts_exactly_or_rejects_truthfully() {
        let mut scratch = DtwScratch::new();
        for seed in 0..16u64 {
            let a = pseudo_series(seed, 35);
            let b = pseudo_series(seed + 50, 35);
            let d = dtw(&a, &b, Some(6));
            // Generous cutoff: must return the exact bits.
            let kept = dtw_with_cutoff_with(&a, &b, Some(6), d * 2.0 + 1.0, &mut scratch);
            assert_eq!(kept.map(f64::to_bits), Some(d.to_bits()));
            // Impossible cutoff: must reject, and the rejection must be true.
            let rejected = dtw_with_cutoff_with(&a, &b, Some(6), d / 2.0 - 1.0, &mut scratch);
            assert!(rejected.is_none(), "seed {seed}: kept a distance above the cutoff");
        }
    }

    #[test]
    fn matrix_is_symmetric_with_zero_diagonal() {
        let series = vec![
            vec![0.0, 1.0, 2.0],
            vec![2.0, 1.0, 0.0],
            vec![1.0, 1.0, 1.0],
        ];
        let d = dtw_distance_matrix(&series, None);
        for (i, row) in d.iter().enumerate() {
            assert_eq!(row[i], 0.0);
            for (j, v) in row.iter().enumerate() {
                assert_eq!(*v, d[j][i]);
            }
        }
    }

    #[test]
    fn matrix_matches_brute_force_bitwise() {
        // More series than one PAIR_CHUNK holds, so the chunked fan-out,
        // scratch reuse, and pruning all engage.
        let series: Vec<Vec<f64>> = (0..12).map(|s| pseudo_series(s, 33 + s as usize)).collect();
        for band in [None, Some(4)] {
            let d = dtw_distance_matrix(&series, band);
            for i in 0..series.len() {
                for j in i + 1..series.len() {
                    let reference = dtw(&series[i], &series[j], band);
                    assert_eq!(
                        d[i][j].to_bits(),
                        reference.to_bits(),
                        "matrix[{i}][{j}] diverged from brute force"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty series")]
    fn empty_series_rejected() {
        let _ = dtw(&[], &[1.0], None);
    }

    #[test]
    fn matrix_identical_across_thread_counts() {
        let series: Vec<Vec<f64>> = (0..9)
            .map(|s| (0..24).map(|t| ((s * 7 + t) as f64 * 0.31).sin()).collect())
            .collect();
        lgo_runtime::set_threads(Some(1));
        let serial = dtw_distance_matrix(&series, Some(3));
        for t in [2, 8] {
            lgo_runtime::set_threads(Some(t));
            assert_eq!(dtw_distance_matrix(&series, Some(3)), serial);
        }
        lgo_runtime::set_threads(None);
    }
}
