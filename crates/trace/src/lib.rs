//! # lgo-trace — zero-cost structured observability for the defense pipeline.
//!
//! A dependency-free, std-only trace layer: scoped **spans** (monotonic
//! wall-clock timing with per-thread nesting), named **counters**,
//! log2-bucketed **histograms**, and schedule-dependent **sched** counters,
//! all aggregated into a per-run [`TraceReport`] rendered in the same
//! canonical fixed-key-order JSON style as `lgo-core`'s pipeline export.
//!
//! ## Determinism contract
//!
//! The report is split into two sections with different guarantees:
//!
//! - **Deterministic content** — `counters` and `histograms` hold pure
//!   integer aggregates of *what* the pipeline did (windows attacked, SMO
//!   iterations, detector fits, ...). Aggregation is order-independent
//!   (commutative integer addition into sorted maps), so their rendered
//!   bytes are identical at any `LGO_THREADS`. [`TraceReport::deterministic_json`]
//!   renders exactly this section and nothing else.
//! - **Timing** — `spans` (wall-clock nanoseconds) and `sched` (steals,
//!   parks, per-worker busy time) describe *how* a particular schedule ran
//!   and legitimately vary between runs. They are segregated under a single
//!   `"timing"` key so determinism checks can mask them wholesale.
//!
//! ## Cost model
//!
//! Everything here is behind the `trace` cargo feature, mirroring the
//! `strict-numerics` sanitizer pattern: with the feature **off** (the
//! default) every entry point in this module is an empty
//! `#[inline(always)]` function and [`Span`] is a unit type without a
//! `Drop` impl, so instrumented call sites compile to nothing. With the
//! feature **on**, collection still short-circuits on a relaxed atomic
//! unless tracing was activated at runtime via the `LGO_TRACE` environment
//! variable (any non-empty value collects; the value `json` additionally
//! makes [`write_report`] persist `results/trace_<bench>.json`) or the
//! [`set_enabled`] test override.
//!
//! ```
//! // Compiles identically with or without the `trace` feature.
//! let _stage = lgo_trace::span("demo/stage");
//! lgo_trace::counter("demo/items", 3);
//! lgo_trace::record("demo/queries", 17);
//! ```

pub mod report;
pub mod schema;

pub use report::{HistSummary, SpanStats, TraceReport};

/// Number of log2 buckets a histogram keeps: bucket `b` counts values whose
/// bit length is `b` (so bucket 0 is exactly the value zero, bucket 1 is
/// `1`, bucket 2 is `2..=3`, ...), and the last bucket absorbs everything
/// with 15 or more bits.
pub const HIST_BUCKETS: usize = 16;

#[cfg(feature = "trace")]
mod active {
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicU8, Ordering};
    use std::sync::{Mutex, OnceLock};
    use std::time::Instant;

    use crate::report::{HistSummary, SpanStats, TraceReport};
    use crate::HIST_BUCKETS;

    /// Runtime activation override: 0 = follow `LGO_TRACE`, 1 = forced on,
    /// 2 = forced off. See [`set_enabled`].
    static OVERRIDE: AtomicU8 = AtomicU8::new(0);

    /// The `LGO_TRACE` value, read once per process.
    fn env_value() -> &'static str {
        static VALUE: OnceLock<String> = OnceLock::new();
        VALUE.get_or_init(|| std::env::var("LGO_TRACE").unwrap_or_default())
    }

    /// Whether collection is active right now.
    pub fn enabled() -> bool {
        match OVERRIDE.load(Ordering::Relaxed) {
            1 => true,
            2 => false,
            _ => !env_value().is_empty(),
        }
    }

    /// Forces collection on or off regardless of `LGO_TRACE` (tests and
    /// benchmarks); `None` restores the environment-driven default. The
    /// override is process-global, like `lgo_runtime::set_threads`.
    pub fn set_enabled(on: Option<bool>) {
        let v = match on {
            None => 0,
            Some(true) => 1,
            Some(false) => 2,
        };
        OVERRIDE.store(v, Ordering::Relaxed);
    }

    /// Whether `LGO_TRACE=json` asked for a report file on disk.
    pub fn json_requested() -> bool {
        env_value() == "json"
    }

    /// Running aggregate of one histogram.
    #[derive(Clone)]
    struct Hist {
        count: u64,
        sum: u64,
        min: u64,
        max: u64,
        buckets: [u64; HIST_BUCKETS],
    }

    /// Running aggregate of one span path.
    #[derive(Clone)]
    struct SpanAgg {
        count: u64,
        total_ns: u64,
        min_ns: u64,
        max_ns: u64,
    }

    #[derive(Default)]
    struct Registry {
        counters: BTreeMap<String, u64>,
        hists: BTreeMap<String, Hist>,
        spans: BTreeMap<String, SpanAgg>,
        sched: BTreeMap<String, u64>,
    }

    /// All collection funnels through one global registry; the tasks this
    /// workspace instruments are coarse (campaigns, fits, stages), so a
    /// single mutex is not a contention point.
    fn with_registry<F: FnOnce(&mut Registry)>(f: F) {
        static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
        let m = REGISTRY.get_or_init(|| Mutex::new(Registry::default()));
        // A panic while holding this lock can only come from allocation
        // failure; recovering the guard keeps tracing best-effort rather
        // than cascading the poison into the pipeline.
        let mut guard = m.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        f(&mut guard);
    }

    thread_local! {
        /// Per-thread stack of open span names; a span's key is the stack
        /// joined with `/`, so nesting is visible in the report
        /// (`pipeline/profile/attack/campaign`). Nesting is per-thread:
        /// a span opened by a task on a pool worker does not inherit the
        /// dispatcher's stack.
        static SPAN_STACK: std::cell::RefCell<Vec<&'static str>> =
            const { std::cell::RefCell::new(Vec::new()) };
    }

    /// Live data of an open span (`None` when tracing was disabled at
    /// creation time).
    pub struct Span {
        inner: Option<OpenSpan>,
    }

    struct OpenSpan {
        path: String,
        start: Instant,
    }

    pub fn span(name: &'static str) -> Span {
        if !enabled() {
            return Span { inner: None };
        }
        let path = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let path = if stack.is_empty() {
                name.to_string()
            } else {
                format!("{}/{name}", stack.join("/"))
            };
            stack.push(name);
            path
        });
        Span {
            inner: Some(OpenSpan { path, start: Instant::now() }),
        }
    }

    impl Drop for Span {
        fn drop(&mut self) {
            let Some(open) = self.inner.take() else { return };
            let ns = u64::try_from(open.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            SPAN_STACK.with(|stack| {
                stack.borrow_mut().pop();
            });
            with_registry(|r| {
                let e = r.spans.entry(open.path).or_insert(SpanAgg {
                    count: 0,
                    total_ns: 0,
                    min_ns: u64::MAX,
                    max_ns: 0,
                });
                e.count += 1;
                e.total_ns = e.total_ns.saturating_add(ns);
                e.min_ns = e.min_ns.min(ns);
                e.max_ns = e.max_ns.max(ns);
            });
        }
    }

    pub fn counter(name: &str, delta: u64) {
        if !enabled() {
            return;
        }
        with_registry(|r| {
            if let Some(v) = r.counters.get_mut(name) {
                *v += delta;
            } else {
                r.counters.insert(name.to_string(), delta);
            }
        });
    }

    pub fn record(name: &str, value: u64) {
        if !enabled() {
            return;
        }
        with_registry(|r| {
            let h = r.hists.entry(name.to_string()).or_insert(Hist {
                count: 0,
                sum: 0,
                min: u64::MAX,
                max: 0,
                buckets: [0; HIST_BUCKETS],
            });
            h.count += 1;
            h.sum = h.sum.saturating_add(value);
            h.min = h.min.min(value);
            h.max = h.max.max(value);
            let bits = (u64::BITS - value.leading_zeros()) as usize;
            h.buckets[bits.min(HIST_BUCKETS - 1)] += 1;
        });
    }

    pub fn sched(name: &str, delta: u64) {
        if !enabled() {
            return;
        }
        with_registry(|r| {
            if let Some(v) = r.sched.get_mut(name) {
                *v += delta;
            } else {
                r.sched.insert(name.to_string(), delta);
            }
        });
    }

    pub fn snapshot() -> TraceReport {
        let mut report = TraceReport::default();
        with_registry(|r| {
            report.counters = r.counters.iter().map(|(k, v)| (k.clone(), *v)).collect();
            report.histograms = r
                .hists
                .iter()
                .map(|(k, h)| {
                    (
                        k.clone(),
                        HistSummary {
                            count: h.count,
                            sum: h.sum,
                            min: if h.count == 0 { 0 } else { h.min },
                            max: h.max,
                            buckets: h.buckets,
                        },
                    )
                })
                .collect();
            report.spans = r
                .spans
                .iter()
                .map(|(k, s)| {
                    (
                        k.clone(),
                        SpanStats {
                            count: s.count,
                            total_ns: s.total_ns,
                            min_ns: if s.count == 0 { 0 } else { s.min_ns },
                            max_ns: s.max_ns,
                        },
                    )
                })
                .collect();
            report.sched = r.sched.iter().map(|(k, v)| (k.clone(), *v)).collect();
        });
        report
    }

    pub fn reset() {
        with_registry(|r| {
            r.counters.clear();
            r.hists.clear();
            r.spans.clear();
            r.sched.clear();
        });
    }
}

#[cfg(feature = "trace")]
mod api {
    pub use crate::active::{
        enabled, json_requested, record, reset, sched, set_enabled, snapshot, Span,
    };

    /// Opens a scoped span; timing stops when the returned guard drops.
    /// Span keys nest per thread: `span("b")` opened while `span("a")` is
    /// live on the same thread records under `a/b`.
    pub fn span(name: &'static str) -> Span {
        crate::active::span(name)
    }

    /// Adds `delta` to the named deterministic counter.
    pub fn counter(name: &str, delta: u64) {
        crate::active::counter(name, delta);
    }
}

#[cfg(not(feature = "trace"))]
mod api {
    use crate::report::TraceReport;

    /// No-op span guard (the `trace` feature is off); carries no data and
    /// has no `Drop` impl, so it compiles away entirely.
    pub struct Span {
        _priv: (),
    }

    /// Opens a scoped span; timing stops when the returned guard drops.
    /// Span keys nest per thread: `span("b")` opened while `span("a")` is
    /// live on the same thread records under `a/b`.
    #[inline(always)]
    pub fn span(_name: &'static str) -> Span {
        Span { _priv: () }
    }

    /// Adds `delta` to the named deterministic counter.
    #[inline(always)]
    pub fn counter(_name: &str, _delta: u64) {}

    /// Records one value into the named log2-bucketed histogram.
    #[inline(always)]
    pub fn record(_name: &str, _value: u64) {}

    /// Adds `delta` to the named schedule-dependent counter (reported under
    /// the masked `timing` section).
    #[inline(always)]
    pub fn sched(_name: &str, _delta: u64) {}

    /// Whether collection is active right now (always `false` without the
    /// `trace` feature).
    #[inline(always)]
    pub fn enabled() -> bool {
        false
    }

    /// Forces collection on or off; a no-op without the `trace` feature.
    #[inline(always)]
    pub fn set_enabled(_on: Option<bool>) {}

    /// Whether `LGO_TRACE=json` asked for a report file (never, without the
    /// `trace` feature).
    #[inline(always)]
    pub fn json_requested() -> bool {
        false
    }

    /// Snapshot of everything collected so far (always empty without the
    /// `trace` feature).
    #[inline(always)]
    pub fn snapshot() -> TraceReport {
        TraceReport::default()
    }

    /// Clears all collected data; a no-op without the `trace` feature.
    #[inline(always)]
    pub fn reset() {}
}

pub use api::{enabled, json_requested, record, reset, sched, set_enabled, snapshot, Span};

/// Opens a scoped span; timing stops when the returned guard drops. See
/// the module docs for the nesting and cost model.
pub fn span(name: &'static str) -> Span {
    api::span(name)
}

/// Adds `delta` to the named deterministic counter.
pub fn counter(name: &str, delta: u64) {
    api::counter(name, delta);
}

/// Writes the current snapshot to `results/trace_<bench>.json` when tracing
/// is active and `LGO_TRACE=json` asked for a file; returns the path
/// written, or `None` when no file was requested. Collection is *not*
/// reset, so a binary running several experiments accumulates one report.
pub fn write_report(bench: &str) -> std::io::Result<Option<std::path::PathBuf>> {
    if !enabled() || !json_requested() {
        return Ok(None);
    }
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("trace_{bench}.json"));
    std::fs::write(&path, snapshot().to_json(bench))?;
    Ok(Some(path))
}

#[cfg(all(test, feature = "trace"))]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

    /// The registry and the enable override are process-global; tests that
    /// touch them serialize on this guard and leave both reset.
    fn guard() -> MutexGuard<'static, ()> {
        static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
        let g = GUARD
            .get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        set_enabled(Some(true));
        reset();
        g
    }

    fn teardown() {
        reset();
        set_enabled(None);
    }

    #[test]
    fn counters_accumulate() {
        let _g = guard();
        counter("a/x", 2);
        counter("a/x", 3);
        counter("a/y", 1);
        let r = snapshot();
        assert_eq!(r.counter("a/x"), Some(5));
        assert_eq!(r.counter("a/y"), Some(1));
        assert_eq!(r.counter("a/z"), None);
        teardown();
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        let _g = guard();
        for v in [0u64, 1, 2, 3, 4, 1 << 20] {
            record("h", v);
        }
        let r = snapshot();
        let (_, h) = &r.histograms[0];
        assert_eq!(h.count, 6);
        assert_eq!(h.sum, 10 + (1 << 20));
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1 << 20);
        assert_eq!(h.buckets[0], 1); // 0
        assert_eq!(h.buckets[1], 1); // 1
        assert_eq!(h.buckets[2], 2); // 2, 3
        assert_eq!(h.buckets[3], 1); // 4
        assert_eq!(h.buckets[HIST_BUCKETS - 1], 1); // 2^20 overflows into the last bucket
        teardown();
    }

    #[test]
    fn spans_nest_per_thread() {
        let _g = guard();
        {
            let _outer = span("outer");
            let _inner = span("inner");
        }
        {
            let _alone = span("inner");
        }
        let r = snapshot();
        let keys: Vec<&str> = r.spans.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["inner", "outer", "outer/inner"]);
        for (_, s) in &r.spans {
            assert_eq!(s.count, 1);
            assert!(s.min_ns <= s.max_ns && s.max_ns <= s.total_ns);
        }
        teardown();
    }

    #[test]
    fn disabled_collects_nothing() {
        let _g = guard();
        set_enabled(Some(false));
        counter("quiet", 1);
        record("quiet", 1);
        sched("quiet", 1);
        let _s = span("quiet");
        drop(_s);
        assert!(snapshot().is_empty());
        teardown();
    }

    #[test]
    fn sched_is_segregated_from_counters() {
        let _g = guard();
        counter("work", 1);
        sched("steals", 4);
        let r = snapshot();
        let det = r.deterministic_json();
        assert!(det.contains("work"));
        assert!(!det.contains("steals"));
        assert!(r.to_json("t").contains("steals"));
        teardown();
    }

    #[test]
    fn write_report_without_json_mode_is_a_no_op() {
        let _g = guard();
        // Forced-on override without LGO_TRACE=json: collection is active
        // but no file is requested.
        counter("x", 1);
        let written = write_report("unit_test").expect("io");
        assert!(written.is_none() || std::env::var("LGO_TRACE").as_deref() == Ok("json"));
        teardown();
    }
}
