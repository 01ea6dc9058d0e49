//! Layer attribution for the traced run: wall time and work counts of every
//! call the benchmark makes into a layer's public functions.
//!
//! Traced runs use one pool thread, so every timed call runs on (or is
//! waited for by) the main thread and the layer times add up to the
//! wall time with an explicit residual.

use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Accumulated seconds and counts per layer key.
#[derive(Debug, Default)]
pub struct Layers {
    secs: Mutex<BTreeMap<&'static str, f64>>,
    counts: Mutex<BTreeMap<&'static str, u64>>,
}

impl Layers {
    /// Times `f` and charges its wall time to `key`.
    pub fn time<T>(&self, key: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add_secs(key, start.elapsed().as_secs_f64());
        out
    }

    pub fn add_secs(&self, key: &'static str, secs: f64) {
        *self
            .secs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(key)
            .or_default() += secs;
    }

    pub fn count(&self, key: &'static str, n: u64) {
        *self
            .counts
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(key)
            .or_default() += n;
    }

    pub fn secs(&self, key: &str) -> f64 {
        self.secs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(key)
            .copied()
            .unwrap_or(0.0)
    }

    pub fn counted(&self, key: &str) -> u64 {
        self.counts
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(key)
            .copied()
            .unwrap_or(0)
    }
}

/// A deterministic counter from the lgo-trace registry (0 when absent).
pub fn trace_counter(name: &str) -> u64 {
    lgo::trace::snapshot().counter(name).unwrap_or(0)
}

/// A schedule-dependent counter from the lgo-trace registry.
pub fn trace_sched(name: &str) -> u64 {
    lgo::trace::snapshot()
        .sched
        .iter()
        .find(|(k, _)| k == name)
        .map_or(0, |(_, v)| *v)
}

/// The sum of an lgo-trace histogram's recorded values.
pub fn trace_hist_sum(name: &str) -> u64 {
    lgo::trace::snapshot()
        .histograms
        .iter()
        .find(|(k, _)| k == name)
        .map_or(0, |(_, h)| h.sum)
}
