//! Kernel (Gram) matrix cache shared across the (strategy × detector) grid.
//!
//! Every One-Class SVM fit pays O(l²·d) to build its kernel matrix over the
//! standardized training points. The selective-training grid, the scaling
//! bench's repeated runs, and the zoo's poison-retrain loop all refit SVMs
//! on rosters that frequently repeat *exactly* — same windows, same scaler,
//! same resolved kernel — so the Gram matrix they need is byte-for-byte the
//! one already computed. [`KernelCache`] memoizes it.
//!
//! # Keying and determinism
//!
//! A cached matrix is reused only on **exact** equality: identical resolved
//! kernel (family and parameters), identical point-matrix dimensions, and
//! bitwise-identical point data (`f64::to_bits`, after a 64-bit FNV-1a
//! fingerprint pre-filter skips almost all non-matches cheaply). There is no
//! tolerance anywhere, so a hit can never change a single output bit — the
//! cache trades memory for time and nothing else.
//!
//! The Gram matrix is computed *inside* the cache lock, serially. That
//! sounds like a scalability sin, but it is what makes the
//! `detect/kernel_cache/*` trace counters deterministic at any
//! `LGO_THREADS`: two grid cells racing on the same roster serialize into
//! one miss followed by one hit, exactly the totals a serial run produces.
//! (The compute itself fans out nothing; at the workspace's point counts —
//! `max_samples` caps l at 1500 — the tiled `matmul_nt` path is fast enough
//! that holding the lock is cheaper than ever computing the matrix twice.)
//!
//! Eviction is FIFO over a byte budget: oldest roster out first. FIFO (not
//! LRU) keeps the eviction sequence a pure function of the *miss sequence*,
//! which is itself deterministic, so the eviction counter is too.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use lgo_tensor::Matrix;

use crate::ocsvm::Kernel;

/// Default byte budget of the global cache: generous for the workspace's
/// capped Gram sizes (a full 1500-point sigmoid Gram is 18 MB) while
/// bounding worst-case growth across a long-lived process.
const DEFAULT_MAX_BYTES: usize = 64 * 1024 * 1024;

/// Hit/miss/eviction totals of a [`KernelCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
    /// Entries dropped to respect the byte budget.
    pub evictions: u64,
}

struct Entry {
    kernel: Kernel,
    fingerprint: u64,
    points: Matrix,
    gram: Arc<Matrix>,
}

impl Entry {
    fn bytes(&self) -> usize {
        (self.points.len() + self.gram.len()) * std::mem::size_of::<f64>()
    }
}

/// An exact-equality-keyed, FIFO-bounded cache of kernel Gram matrices.
/// See the module docs for the keying and determinism story; see
/// [`global`] for the process-wide instance the SVM fit path uses.
pub struct KernelCache {
    entries: VecDeque<Entry>,
    bytes: usize,
    max_bytes: usize,
    stats: KernelCacheStats,
}

impl KernelCache {
    /// A cache with the default byte budget.
    pub fn new() -> Self {
        Self::with_capacity_bytes(DEFAULT_MAX_BYTES)
    }

    /// A cache bounded to at most `max_bytes` of retained point + Gram
    /// data. A budget of 0 disables retention (every lookup misses).
    pub fn with_capacity_bytes(max_bytes: usize) -> Self {
        Self {
            entries: VecDeque::new(),
            bytes: 0,
            max_bytes,
            stats: KernelCacheStats::default(),
        }
    }

    /// The Gram matrix of `kernel` over the rows of `points` (an l×d
    /// matrix of standardized training points), cached. Entry (i, j) of
    /// the result is `kernel.eval(row i, row j)`, bit-identical to the
    /// direct per-pair evaluation whether it comes from the cache or is
    /// computed fresh.
    pub fn gram(&mut self, kernel: Kernel, points: &Matrix) -> Arc<Matrix> {
        let fingerprint = fingerprint(points);
        if let Some(e) = self.entries.iter().find(|e| {
            e.kernel == kernel && e.fingerprint == fingerprint && same_bits(&e.points, points)
        }) {
            self.stats.hits += 1;
            lgo_trace::counter("detect/kernel_cache/hits", 1);
            return Arc::clone(&e.gram);
        }
        self.stats.misses += 1;
        lgo_trace::counter("detect/kernel_cache/misses", 1);
        let gram = Arc::new(compute_gram(kernel, points));
        let entry = Entry {
            kernel,
            fingerprint,
            points: points.clone(),
            gram: Arc::clone(&gram),
        };
        let cost = entry.bytes();
        while self.bytes + cost > self.max_bytes {
            let Some(old) = self.entries.pop_front() else {
                break;
            };
            self.bytes -= old.bytes();
            self.stats.evictions += 1;
            lgo_trace::counter("detect/kernel_cache/evictions", 1);
        }
        if self.bytes + cost <= self.max_bytes {
            self.entries.push_back(entry);
            self.bytes += cost;
        }
        gram
    }

    /// Current hit/miss/eviction totals.
    pub fn stats(&self) -> KernelCacheStats {
        self.stats
    }

    /// Number of retained Gram matrices.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops every retained entry (statistics are kept).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.bytes = 0;
    }
}

impl Default for KernelCache {
    fn default() -> Self {
        Self::new()
    }
}

/// The process-wide cache used by `OneClassSvm::try_fit`. The mutex is
/// held across Gram computation by design — see the module docs.
pub fn global() -> &'static Mutex<KernelCache> {
    static GLOBAL: OnceLock<Mutex<KernelCache>> = OnceLock::new();
    GLOBAL.get_or_init(|| Mutex::new(KernelCache::new()))
}

/// Locks the global cache, recovering from poisoning: the cache holds no
/// invariants a panicked holder could have half-applied that matter more
/// than keeping every later SVM fit alive.
pub(crate) fn lock_global() -> std::sync::MutexGuard<'static, KernelCache> {
    global().lock().unwrap_or_else(PoisonError::into_inner)
}

/// Serializes tests that assert on global-cache statistics, so concurrent
/// fits under the parallel test runner cannot make the counters flaky.
#[cfg(test)]
pub(crate) fn test_guard() -> &'static Mutex<()> {
    static GUARD: Mutex<()> = Mutex::new(());
    &GUARD
}

/// 64-bit FNV-1a over the dimensions and raw bits of a point matrix —
/// the cheap pre-filter in front of the exact bitwise comparison.
fn fingerprint(points: &Matrix) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for v in [points.rows() as u64, points.cols() as u64]
        .into_iter()
        .chain(points.as_slice().iter().map(|v| v.to_bits()))
    {
        h = (h ^ v).wrapping_mul(PRIME);
    }
    h
}

fn same_bits(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Computes the full l×l Gram matrix. Dot-product kernels route the dot
/// through the tiled [`Matrix::matmul_nt`] (`P · Pᵀ`) and then apply the
/// scalar kernel transform per entry — identical operations in identical
/// order to `kernel.eval` on each pair, so identical bits. The RBF kernel
/// is not a dot-product form; it evaluates the upper triangle directly and
/// mirrors (its per-pair evaluation is symmetric in exact bits because
/// `(a-b)*(a-b)` only enters through squares).
fn compute_gram(kernel: Kernel, points: &Matrix) -> Matrix {
    // Dot-product kernels ride the symmetric tiled product and transform
    // only the upper triangle, mirroring each finished entry — the scalar
    // transform (the tanh/powi, which dominates the Gram cost) runs once
    // per unordered pair instead of once per matrix cell. Mirroring is
    // exact: K(i, j) and K(j, i) are the same float expression.
    match kernel {
        Kernel::Linear => points.syrk_nt(),
        Kernel::Sigmoid { gamma, coef0 } => {
            transform_upper(points.syrk_nt(), |d| (gamma * d + coef0).tanh())
        }
        Kernel::Polynomial {
            gamma,
            coef0,
            degree,
        } => transform_upper(points.syrk_nt(), |d| (gamma * d + coef0).powi(degree as i32)),
        Kernel::Rbf { .. } => {
            let l = points.rows();
            let mut g = Matrix::zeros(l, l);
            for i in 0..l {
                for j in i..l {
                    let v = kernel.eval(points.row(i), points.row(j));
                    let s = g.as_mut_slice();
                    s[i * l + j] = v;
                    s[j * l + i] = v;
                }
            }
            g
        }
    }
}

/// Applies `f` to every upper-triangle entry (diagonal included) of a
/// symmetric matrix in place, mirroring each result to the lower triangle.
fn transform_upper(mut g: Matrix, f: impl Fn(f64) -> f64) -> Matrix {
    let l = g.rows();
    let s = g.as_mut_slice();
    for i in 0..l {
        for j in i..l {
            let v = f(s[i * l + j]);
            s[i * l + j] = v;
            s[j * l + i] = v;
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    fn points(seed: u64, rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |i, j| {
            ((seed as f64 + 1.0) * (i as f64 * 1.37 + j as f64 * 0.61)).sin()
        })
    }

    fn brute_gram(kernel: Kernel, p: &Matrix) -> Matrix {
        Matrix::from_fn(p.rows(), p.rows(), |i, j| kernel.eval(p.row(i), p.row(j)))
    }

    #[test]
    fn gram_matches_per_pair_eval_bitwise() {
        let p = points(3, 17, 4);
        for kernel in [
            Kernel::Linear,
            Kernel::Rbf { gamma: 0.25 },
            Kernel::Sigmoid { gamma: 0.25, coef0: 10.0 },
            Kernel::Polynomial { gamma: 0.5, coef0: 1.0, degree: 3 },
        ] {
            let mut cache = KernelCache::new();
            let g = cache.gram(kernel, &p);
            let reference = brute_gram(kernel, &p);
            assert_eq!(g.shape(), reference.shape());
            for (a, b) in g.as_slice().iter().zip(reference.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits(), "kernel {kernel:?} diverged");
            }
        }
    }

    #[test]
    fn exact_repeats_hit_and_near_misses_do_not() {
        let mut cache = KernelCache::new();
        let k = Kernel::Sigmoid { gamma: 0.5, coef0: 10.0 };
        let p = points(1, 10, 3);
        let g1 = cache.gram(k, &p);
        let g2 = cache.gram(k, &p);
        assert!(Arc::ptr_eq(&g1, &g2), "exact repeat must return the cached Arc");
        // Same points, different kernel parameter: distinct entry.
        let _ = cache.gram(Kernel::Sigmoid { gamma: 0.5, coef0: 9.0 }, &p);
        // One bit of one point flipped: distinct entry.
        let mut p2 = p.clone();
        p2.as_mut_slice()[0] = f64::from_bits(p2.as_slice()[0].to_bits() ^ 1);
        let _ = cache.gram(k, &p2);
        assert_eq!(
            cache.stats(),
            KernelCacheStats { hits: 1, misses: 3, evictions: 0 }
        );
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn byte_budget_evicts_fifo() {
        let p0 = points(0, 8, 2);
        let entry_bytes = (8 * 2 + 8 * 8) * std::mem::size_of::<f64>();
        let mut cache = KernelCache::with_capacity_bytes(2 * entry_bytes);
        let k = Kernel::Linear;
        let g0 = cache.gram(k, &p0);
        let _ = cache.gram(k, &points(1, 8, 2));
        // Third entry forces the oldest (p0) out.
        let _ = cache.gram(k, &points(2, 8, 2));
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.len(), 2);
        // p0 must now miss again — and still match its original bits.
        let g0b = cache.gram(k, &p0);
        assert!(!Arc::ptr_eq(&g0, &g0b));
        for (a, b) in g0.as_slice().iter().zip(g0b.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(cache.stats(), KernelCacheStats { hits: 0, misses: 4, evictions: 2 });
    }

    #[test]
    fn zero_budget_disables_retention() {
        let mut cache = KernelCache::with_capacity_bytes(0);
        let p = points(4, 6, 2);
        let _ = cache.gram(Kernel::Linear, &p);
        let _ = cache.gram(Kernel::Linear, &p);
        assert_eq!(cache.stats().hits, 0);
        assert!(cache.is_empty());
    }

    #[test]
    fn clear_drops_entries_but_keeps_stats() {
        let mut cache = KernelCache::new();
        let p = points(5, 5, 2);
        let _ = cache.gram(Kernel::Linear, &p);
        let _ = cache.gram(Kernel::Linear, &p);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().hits, 1);
        let _ = cache.gram(Kernel::Linear, &p);
        assert_eq!(cache.stats().misses, 2, "cleared entry must recompute");
    }
}
