//! # lgo-runtime
//!
//! A dependency-free, deterministic work-stealing parallel runtime for the
//! lgo workspace (no rayon — consistent with the vendored-deps ethos; the
//! build environment has no crates.io access).
//!
//! The defense pipeline decomposes naturally over independent units —
//! patients (attack simulation, risk quantification), training runs,
//! detector kinds and grid cells — and this
//! crate schedules those units across a pool of worker threads while
//! keeping every run **bit-identical** to a serial run:
//!
//! - **Index-addressed results.** Every primitive returns results ordered
//!   by *input index*, never by completion order.
//! - **Splittable seeding.** Randomized tasks derive their RNG seed from
//!   `(base seed, input index)` via [`split_seed`], so streams do not
//!   depend on scheduling.
//! - **No cross-task communication.** Tasks see only their index and
//!   shared immutable inputs.
//!
//! Under that contract, `LGO_THREADS=1`, `=2` and `=8` produce
//! byte-for-byte identical pipeline exports (enforced by the workspace's
//! determinism test suite).
//!
//! The effective thread count is, in priority order: the [`set_threads`]
//! override, the `LGO_THREADS` environment variable, the machine's
//! available parallelism. At one thread the primitives run inline on the
//! calling thread with zero pool overhead (the pool is never even
//! created); nested parallel calls from inside worker tasks also run
//! inline, so composition cannot deadlock.
//!
//! Worker-task panics are caught at the pool boundary and surfaced as
//! [`RuntimeError::TaskPanicked`] (lowest panicking index wins, another
//! schedule-independence guarantee), composing with the workspace's
//! graceful-degradation layer as `LgoError::Runtime`.
//!
//! For *online* workloads the crate also provides [`BoundedQueue`], a
//! bounded multi-producer ingest queue whose submissions are rejected with
//! full depth/capacity accounting ([`SubmitError::Full`]) instead of
//! growing without bound — the capacity signal `lgo-serve` builds its
//! backpressure and load-shedding ladder on.
//!
//! # Examples
//!
//! ```
//! use lgo_runtime::{par_map, split_seed};
//!
//! // Results land by input index, regardless of which thread ran them.
//! let squares = par_map(&[1, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//!
//! // Each task seeds from (base, index), never from the schedule, so a
//! // randomized fan-out is as reproducible as a serial loop.
//! let seeds = par_map(&[0u64, 1, 2], |&i| split_seed(42, i));
//! assert_eq!(seeds, (0..3).map(|i| split_seed(42, i)).collect::<Vec<_>>());
//! ```

mod error;
mod pool;
mod queue;
mod seed;

pub use error::RuntimeError;
pub use pool::{set_threads, threads};
pub use queue::{BoundedQueue, SubmitError};
pub use seed::split_seed;

use std::sync::Mutex;

/// Runs `f` over `0..n` and collects the results in index order.
///
/// # Errors
///
/// Returns [`RuntimeError::TaskPanicked`] when any task panics (the lowest
/// panicking index is reported).
pub fn try_par_map_indexed<T, F>(n: usize, f: F) -> Result<Vec<T>, RuntimeError>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    #[cfg(feature = "strict-numerics")]
    let executed = std::sync::atomic::AtomicUsize::new(0);
    let task = |i: usize| {
        let value = f(i);
        #[cfg(feature = "strict-numerics")]
        executed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        *slots[i]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(value);
    };
    pool::execute(n, &task)?;
    #[cfg(feature = "strict-numerics")]
    {
        // Scheduling sanitizer: every task ran exactly once and every slot
        // is occupied — the invariants the determinism contract rests on.
        let ran = executed.load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(ran, n, "lgo-runtime sanitizer: {ran} executions for {n} tasks");
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(i, m)| {
            m.into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .ok_or_else(|| RuntimeError::TaskPanicked {
                    index: i,
                    message: "task completed without storing a result".into(),
                })
        })
        .collect()
}

/// Panicking [`try_par_map_indexed`].
///
/// # Panics
///
/// Panics when any task panics, carrying the task's message.
pub fn par_map_indexed<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    match try_par_map_indexed(n, f) {
        Ok(v) => v,
        Err(e) => panic!("par_map_indexed: {e}"),
    }
}

/// Maps `f` over a slice in parallel; results are in input order.
///
/// # Errors
///
/// Returns [`RuntimeError::TaskPanicked`] when any task panics.
pub fn try_par_map<I, T, F>(items: &[I], f: F) -> Result<Vec<T>, RuntimeError>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    try_par_map_indexed(items.len(), |i| f(&items[i]))
}

/// Panicking [`try_par_map`]: propagates a task panic as a panic on the
/// calling thread.
///
/// # Panics
///
/// Panics when any task panics, carrying the task's message.
pub fn par_map<I, T, F>(items: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    match try_par_map(items, f) {
        Ok(v) => v,
        Err(e) => panic!("par_map: {e}"),
    }
}

/// Maps `f` over contiguous chunks of `items` (the last chunk may be
/// shorter); one result per chunk, in chunk order.
///
/// # Errors
///
/// Returns [`RuntimeError::ZeroChunkSize`] for `chunk_size == 0` and
/// [`RuntimeError::TaskPanicked`] when any task panics.
pub fn try_par_chunks<I, T, F>(
    items: &[I],
    chunk_size: usize,
    f: F,
) -> Result<Vec<T>, RuntimeError>
where
    I: Sync,
    T: Send,
    F: Fn(&[I]) -> T + Sync,
{
    if chunk_size == 0 {
        return Err(RuntimeError::ZeroChunkSize);
    }
    let chunks = items.len().div_ceil(chunk_size);
    try_par_map_indexed(chunks, |c| {
        let lo = c * chunk_size;
        let hi = (lo + chunk_size).min(items.len());
        f(&items[lo..hi])
    })
}

/// Panicking [`try_par_chunks`].
///
/// # Panics
///
/// Panics on `chunk_size == 0` or when any task panics.
pub fn par_chunks<I, T, F>(items: &[I], chunk_size: usize, f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&[I]) -> T + Sync,
{
    match try_par_chunks(items, chunk_size, f) {
        Ok(v) => v,
        Err(e) => panic!("par_chunks: {e}"),
    }
}

/// A scope collecting heterogeneous one-shot tasks for batched parallel
/// execution; see [`try_scope`].
pub struct Scope<'scope> {
    tasks: Vec<Box<dyn FnOnce() + Send + 'scope>>,
}

impl<'scope> Scope<'scope> {
    /// Registers a task. Tasks may borrow from the enclosing stack frame
    /// (anything outliving the [`try_scope`] call); they run when the scope
    /// closure returns, not eagerly.
    pub fn spawn<F: FnOnce() + Send + 'scope>(&mut self, f: F) {
        self.tasks.push(Box::new(f));
    }

    /// How many tasks have been registered so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether no tasks have been registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }
}

/// Structured parallelism over heterogeneous tasks: `f` registers any
/// number of tasks on the scope; they all run (in parallel, identified by
/// registration index) before `try_scope` returns. Borrowed captures are
/// sound because no task outlives this call.
///
/// # Errors
///
/// Returns [`RuntimeError::TaskPanicked`] when any task panics (lowest
/// registration index wins).
pub fn try_scope<'scope, F>(f: F) -> Result<(), RuntimeError>
where
    F: FnOnce(&mut Scope<'scope>),
{
    type TaskCell<'s> = Mutex<Option<Box<dyn FnOnce() + Send + 's>>>;
    let mut scope = Scope { tasks: Vec::new() };
    f(&mut scope);
    let cells: Vec<TaskCell<'scope>> = scope
        .tasks
        .into_iter()
        .map(|t| Mutex::new(Some(t)))
        .collect();
    let results = try_par_map_indexed(cells.len(), |i| {
        if let Some(task) = cells[i]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take()
        {
            task();
        }
    });
    results.map(|_| ())
}

/// Panicking [`try_scope`].
///
/// # Panics
///
/// Panics when any task panics.
pub fn scope<'scope, F>(f: F)
where
    F: FnOnce(&mut Scope<'scope>),
{
    match try_scope(f) {
        Ok(()) => {}
        Err(e) => panic!("scope: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Mutex as TestMutex, MutexGuard, OnceLock};

    /// Serializes tests that mutate the process-wide thread override; the
    /// cargo test harness runs tests concurrently by default.
    fn override_guard() -> MutexGuard<'static, ()> {
        static GUARD: OnceLock<TestMutex<()>> = OnceLock::new();
        GUARD
            .get_or_init(|| TestMutex::new(()))
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn par_map_preserves_input_order() {
        let _serial = override_guard();
        set_threads(Some(4));
        let items: Vec<usize> = (0..257).collect();
        let out = par_map(&items, |&x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        set_threads(None);
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let _serial = override_guard();
        let items: Vec<u64> = (0..100).collect();
        // A seeded draw per task: must not depend on scheduling.
        let work = |&x: &u64| split_seed(99, x).wrapping_mul(x + 1);
        let mut reference = None;
        for t in [1, 2, 8] {
            set_threads(Some(t));
            let out = par_map(&items, work);
            match &reference {
                None => reference = Some(out),
                Some(r) => assert_eq!(&out, r, "thread count {t} changed results"),
            }
        }
        set_threads(None);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u8> = par_map(&[] as &[u8], |_| 0);
        assert!(out.is_empty());
    }

    #[test]
    fn chunks_cover_the_slice_exactly_once() {
        let _serial = override_guard();
        set_threads(Some(3));
        let items: Vec<usize> = (0..100).collect();
        let sums = par_chunks(&items, 7, |c| c.iter().sum::<usize>());
        assert_eq!(sums.len(), 100usize.div_ceil(7));
        assert_eq!(sums.iter().sum::<usize>(), items.iter().sum::<usize>());
        // Chunk order matches slice order.
        assert_eq!(sums[0], (0..7).sum::<usize>());
        set_threads(None);
    }

    #[test]
    fn zero_chunk_size_is_an_error() {
        let r: Result<Vec<usize>, _> = try_par_chunks(&[1, 2, 3], 0, |c| c.len());
        assert_eq!(r, Err(RuntimeError::ZeroChunkSize));
    }

    #[test]
    fn task_panics_surface_as_lowest_index_error() {
        let _serial = override_guard();
        set_threads(Some(4));
        let items: Vec<usize> = (0..64).collect();
        let r = try_par_map(&items, |&x| {
            assert!(x != 20 && x != 50, "poisoned input {x}");
            x
        });
        match r {
            Err(RuntimeError::TaskPanicked { index, message }) => {
                assert_eq!(index, 20, "lowest panicking index must win");
                assert!(message.contains("poisoned input 20"), "{message}");
            }
            other => panic!("expected TaskPanicked, got {other:?}"),
        }
        set_threads(None);
    }

    #[test]
    fn pool_survives_task_panics() {
        let _serial = override_guard();
        set_threads(Some(4));
        let items: Vec<usize> = (0..16).collect();
        let _ = try_par_map(&items, |&x| assert!(x % 2 == 0, "odd {x}"));
        // The pool still schedules follow-up batches correctly.
        let out = par_map(&items, |&x| x + 1);
        assert_eq!(out[15], 16);
        set_threads(None);
    }

    #[test]
    fn nested_parallelism_runs_inline_without_deadlock() {
        let _serial = override_guard();
        set_threads(Some(4));
        let outer: Vec<usize> = (0..8).collect();
        let out = par_map(&outer, |&i| {
            let inner: Vec<usize> = (0..10).collect();
            par_map(&inner, |&j| i * 100 + j).iter().sum::<usize>()
        });
        assert_eq!(out.len(), 8);
        assert_eq!(out[0], (0..10).sum::<usize>());
        set_threads(None);
    }

    #[test]
    fn scope_runs_every_spawned_task() {
        let _serial = override_guard();
        set_threads(Some(4));
        let counter = AtomicUsize::new(0);
        let mut slot_a = 0usize;
        let mut slot_b = 0usize;
        scope(|s| {
            assert!(s.is_empty());
            s.spawn(|| slot_a = 41);
            s.spawn(|| slot_b = 1);
            for _ in 0..10 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
            assert_eq!(s.len(), 12);
        });
        assert_eq!(slot_a + slot_b, 42);
        assert_eq!(counter.load(Ordering::Relaxed), 10);
        set_threads(None);
    }

    #[test]
    fn scope_panic_reports_registration_index() {
        let r = try_scope(|s| {
            s.spawn(|| {});
            s.spawn(|| panic!("scoped boom"));
        });
        match r {
            Err(RuntimeError::TaskPanicked { index, message }) => {
                assert_eq!(index, 1);
                assert!(message.contains("scoped boom"));
            }
            other => panic!("expected TaskPanicked, got {other:?}"),
        }
    }

    #[test]
    fn thread_count_reporting() {
        let _serial = override_guard();
        set_threads(Some(3));
        assert_eq!(threads(), 3);
        set_threads(None);
        assert!(threads() >= 1);
    }
}
