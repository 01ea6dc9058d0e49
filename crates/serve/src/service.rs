//! The scoring service: bounded ingest, graded shedding, watchdogged
//! scoring, patient quarantine.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use lgo_detect::Window;
use lgo_runtime::{BoundedQueue, SubmitError};

use crate::config::ServeConfig;
use crate::ladder::DetectorBank;
use crate::patient::PatientState;
use crate::report::{ServeReport, ServeStats};
use crate::watchdog::Watchdog;

/// One ingested observation: a feature row of a patient's stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Stream identity (cohort index, not the 12-value archetype id).
    pub patient: u64,
    /// One time-step of feature values.
    pub row: Vec<f64>,
}

/// What one scoring cycle did — returned so drivers (bench loop, tests)
/// can steer without re-reading the full report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleOutcome {
    /// Samples drained from the queue this cycle.
    pub drained: usize,
    /// Windows completed by the drained samples.
    pub emitted: usize,
    /// Windows scored.
    pub scored: usize,
    /// Windows shed unscored (pressure shed or ladder exhaustion).
    pub shed: usize,
    /// Ladder level that scored, when scoring happened.
    pub level: Option<usize>,
    /// Patients quarantined during this cycle, ascending.
    pub quarantined_now: Vec<u64>,
}

/// Mutable state behind one lock: patient streams, quarantine list and
/// the deterministic counters. Producers never take this lock — ingest
/// touches only the queue and two atomics — so scoring latency does not
/// backpressure producers beyond the queue itself.
struct Core {
    patients: BTreeMap<u64, PatientState>,
    quarantined: BTreeSet<u64>,
    stats: ServeStats,
    wstats: crate::watchdog::WatchdogStats,
}

/// A long-running scoring service over per-patient sliding-window state
/// machines. See the crate docs for the four robustness layers.
pub struct ScoringService {
    queue: BoundedQueue<Sample>,
    config: ServeConfig,
    bank: DetectorBank,
    watchdog: Watchdog,
    ingested: AtomicU64,
    rejected: AtomicU64,
    core: Mutex<Core>,
}

impl ScoringService {
    /// A service with the given tuning and detector ladder.
    #[must_use]
    pub fn new(config: ServeConfig, bank: DetectorBank) -> Self {
        let watchdog = Watchdog::new(
            config.deadline,
            config.retries,
            config.backoff,
            config.max_wedged,
        );
        Self {
            queue: BoundedQueue::new(config.capacity),
            watchdog,
            ingested: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            core: Mutex::new(Core {
                patients: BTreeMap::new(),
                quarantined: BTreeSet::new(),
                stats: ServeStats {
                    level_windows: vec![0; bank.len()],
                    ..ServeStats::default()
                },
                wstats: crate::watchdog::WatchdogStats::default(),
            }),
            config,
            bank,
        }
    }

    /// Non-blocking ingest: `false` means backpressure rejected the
    /// sample (queue full or closed) and the caller owns the loss.
    pub fn try_ingest(&self, sample: Sample) -> bool {
        match self.queue.try_submit(sample) {
            Ok(()) => {
                self.ingested.fetch_add(1, Ordering::Relaxed);
                true
            }
            Err(SubmitError::Full { .. }) => {
                self.rejected.fetch_add(1, Ordering::Relaxed);
                lgo_trace::sched("serve/rejected", 1);
                false
            }
            Err(SubmitError::Closed(_)) => false,
        }
    }

    /// Blocking ingest: waits for queue space; `false` only after
    /// [`ScoringService::close`].
    pub fn ingest(&self, sample: Sample) -> bool {
        match self.queue.submit(sample) {
            Ok(()) => {
                self.ingested.fetch_add(1, Ordering::Relaxed);
                true
            }
            Err(_) => false,
        }
    }

    /// Closes the ingest queue; producers unblock and scoring drains what
    /// remains.
    pub fn close(&self) {
        self.queue.close();
    }

    /// Current queue depth (samples waiting).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.queue.depth()
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_drained(&self) -> bool {
        self.queue.is_empty()
    }

    /// Quarantined patients, ascending.
    #[must_use]
    pub fn quarantined(&self) -> Vec<u64> {
        let core = self.core.lock().unwrap_or_else(PoisonError::into_inner);
        core.quarantined.iter().copied().collect()
    }

    /// Runs one scoring cycle: measure pressure, pick the ladder level,
    /// drain a micro-batch, advance patient state machines, then score
    /// (or shed) the completed windows. Given a fixed ingest/drain
    /// interleave and no deadline, every counter this touches is
    /// deterministic at any `LGO_THREADS` setting.
    pub fn drain_cycle(&self) -> CycleOutcome {
        let depth = self.queue.depth();
        let pressure = depth as f64 / self.queue.capacity() as f64;
        let pressure_level = self.config.level_for_pressure(pressure);
        let pressure_shed = self.config.sheds_at(pressure);

        let mut batch = Vec::new();
        self.queue.drain_into(self.config.batch_max, &mut batch);

        let mut core = self.core.lock().unwrap_or_else(PoisonError::into_inner);
        core.stats.cycles += 1;
        core.stats.max_depth = core.stats.max_depth.max(depth as u64);
        core.stats.drained += batch.len() as u64;
        lgo_trace::sched("serve/drained", batch.len() as u64);

        // Advance the per-patient state machines; quarantined streams are
        // dropped at the door.
        let mut patients: Vec<u64> = Vec::new();
        let mut windows: Vec<Window> = Vec::new();
        let drained = batch.len();
        for sample in batch {
            if core.quarantined.contains(&sample.patient) {
                core.stats.dropped_quarantined += 1;
                lgo_trace::sched("serve/dropped_quarantined", 1);
                continue;
            }
            let (seq_len, stride) = (self.config.seq_len, self.config.stride);
            let state = core
                .patients
                .entry(sample.patient)
                .or_insert_with(|| PatientState::new(seq_len, stride));
            if let Some(w) = state.push(sample.row) {
                patients.push(sample.patient);
                windows.push(w);
            }
        }
        core.stats.windows_emitted += windows.len() as u64;

        if pressure_shed {
            // Shedding is the last resort and still not sample loss: the
            // rows above advanced every state machine, only the scoring
            // work is skipped.
            core.stats.shed_cycles += 1;
            core.stats.windows_shed += windows.len() as u64;
            lgo_trace::sched("serve/shed_cycles", 1);
            lgo_trace::sched("serve/windows_shed", windows.len() as u64);
            return CycleOutcome {
                drained,
                emitted: windows.len(),
                scored: 0,
                shed: windows.len(),
                level: None,
                quarantined_now: Vec::new(),
            };
        }
        if windows.is_empty() {
            return CycleOutcome {
                drained,
                emitted: 0,
                scored: 0,
                shed: 0,
                level: None,
                quarantined_now: Vec::new(),
            };
        }
        self.score(&mut core, pressure_level, drained, patients, windows)
    }

    /// Scores a batch of windows starting at `level`, falling further down
    /// the ladder on watchdog failures; quarantines patients whose windows
    /// panic the detector.
    fn score(
        &self,
        core: &mut Core,
        level: usize,
        drained: usize,
        patients: Vec<u64>,
        windows: Vec<Window>,
    ) -> CycleOutcome {
        let emitted = windows.len();
        // One copy of the cycle's windows, shared by every attempt at
        // every level (an abandoned attempt keeps its share alive).
        let windows: Arc<[Window]> = windows.into();
        for lvl in level..self.bank.len() {
            let make_job = || {
                let d = Arc::clone(self.bank.at(lvl));
                let ws = Arc::clone(&windows);
                move || {
                    // One scratch per chunk keeps the hot ladder
                    // allocation-free across a chunk (score_into reuses the
                    // summary/feature buffers) while each window keeps its
                    // own catch_unwind so a panicking window quarantines
                    // only its patient. score_into returns the same bits
                    // as score, so decisions are unchanged.
                    const BATCH: usize = 32;
                    lgo_runtime::par_chunks(&ws, BATCH, |chunk| {
                        let mut scratch = lgo_detect::ScoreScratch::new();
                        chunk
                            .iter()
                            .map(|w| {
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    d.score_into(w, &mut scratch) > 0.0
                                }))
                                .map_err(panic_message)
                            })
                            .collect::<Vec<_>>()
                    })
                    .into_iter()
                    .flatten()
                    .collect::<Vec<_>>()
                }
            };
            match self.watchdog.run(make_job, &mut core.wstats) {
                Ok(results) => {
                    let mut scored = 0u64;
                    let mut quarantined_now = BTreeSet::new();
                    for (patient, result) in patients.iter().zip(results) {
                        match result {
                            Ok(anomalous) => {
                                scored += 1;
                                if anomalous {
                                    core.stats.anomalies += 1;
                                }
                            }
                            Err(_message) => {
                                core.stats.panics += 1;
                                if core.quarantined.insert(*patient) {
                                    core.patients.remove(patient);
                                    quarantined_now.insert(*patient);
                                    lgo_trace::sched("serve/quarantined", 1);
                                }
                            }
                        }
                    }
                    core.stats.windows_scored += scored;
                    core.stats.level_windows[lvl] += scored;
                    if lvl > 0 {
                        core.stats.degraded_cycles += 1;
                        lgo_trace::sched("serve/degraded_cycles", 1);
                    }
                    lgo_trace::sched("serve/windows_scored", scored);
                    return CycleOutcome {
                        drained,
                        emitted,
                        scored: scored as usize,
                        shed: 0,
                        level: Some(lvl),
                        quarantined_now: quarantined_now.into_iter().collect(),
                    };
                }
                Err(_timeout) => {
                    // This level is stalling or wedged; fall one level
                    // down the ladder and try again.
                    lgo_trace::sched("serve/ladder_fallthrough", 1);
                }
            }
        }
        // Every level failed its deadline: shed the batch rather than
        // block the stream behind a wedged ladder.
        core.stats.shed_cycles += 1;
        core.stats.windows_shed += emitted as u64;
        lgo_trace::sched("serve/shed_cycles", 1);
        lgo_trace::sched("serve/windows_shed", emitted as u64);
        CycleOutcome {
            drained,
            emitted,
            scored: 0,
            shed: emitted,
            level: None,
            quarantined_now: Vec::new(),
        }
    }

    /// Snapshot of the full accounting.
    #[must_use]
    pub fn report(&self) -> ServeReport {
        let core = self.core.lock().unwrap_or_else(PoisonError::into_inner);
        let mut stats = core.stats.clone();
        stats.ingested = self.ingested.load(Ordering::Relaxed);
        stats.rejected = self.rejected.load(Ordering::Relaxed);
        ServeReport {
            stats,
            watchdog: core.wstats.clone(),
            quarantined: core.quarantined.iter().copied().collect(),
            ladder: self.bank.names(),
        }
    }
}

/// Best-effort text of a panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inject::{PanickingDetector, POISON};
    use lgo_detect::AnomalyDetector;

    /// Flags rows whose first feature exceeds a threshold.
    struct Threshold(f64);

    impl AnomalyDetector for Threshold {
        fn name(&self) -> &str {
            "threshold"
        }
        fn score(&self, w: &Window) -> f64 {
            w.iter().map(|r| r[0]).sum::<f64>() / w.len() as f64 - self.0
        }
    }

    fn config() -> ServeConfig {
        ServeConfig {
            capacity: 64,
            batch_max: 16,
            seq_len: 4,
            stride: 2,
            ..ServeConfig::default()
        }
    }

    fn service(cfg: ServeConfig) -> ScoringService {
        let bank = DetectorBank::new(vec![
            Arc::new(PanickingDetector::new(Threshold(10.0))) as Arc<dyn AnomalyDetector>,
            Arc::new(Threshold(5.0)),
        ]);
        ScoringService::new(cfg, bank)
    }

    fn sample(patient: u64, v: f64) -> Sample {
        Sample { patient, row: vec![v, v] }
    }

    #[test]
    fn scores_streams_and_counts_anomalies() {
        let svc = service(config());
        // Patient 0 benign (values 1), patient 1 anomalous (values 100).
        for t in 0..8 {
            assert!(svc.try_ingest(sample(0, 1.0)));
            assert!(svc.try_ingest(sample(1, 100.0)));
            if t % 2 == 1 {
                svc.drain_cycle();
            }
        }
        let r = svc.report();
        assert_eq!(r.stats.ingested, 16);
        assert_eq!(r.stats.drained, 16);
        // seq_len 4, stride 2: windows end at samples 4, 6, 8 → 3 each.
        assert_eq!(r.stats.windows_emitted, 6);
        assert_eq!(r.stats.windows_scored, 6);
        assert_eq!(r.stats.anomalies, 3, "only patient 1 flags");
        assert_eq!(r.stats.panics, 0);
        assert!(r.quarantined.is_empty());
    }

    #[test]
    fn poisoned_patient_is_quarantined_not_fatal() {
        let svc = service(config());
        for _ in 0..4 {
            assert!(svc.try_ingest(sample(0, 1.0)));
            assert!(svc.try_ingest(sample(7, POISON)));
        }
        let out = svc.drain_cycle();
        assert_eq!(out.quarantined_now, vec![7]);
        assert_eq!(svc.quarantined(), vec![7]);
        // Patient 0 survived and scored; patient 7's later samples drop.
        for _ in 0..4 {
            assert!(svc.try_ingest(sample(0, 1.0)));
            assert!(svc.try_ingest(sample(7, 1.0)));
        }
        svc.drain_cycle();
        let r = svc.report();
        assert_eq!(r.stats.panics, 1);
        assert_eq!(r.stats.dropped_quarantined, 4);
        assert!(r.stats.windows_scored >= 3, "healthy stream kept scoring");
        assert_eq!(r.quarantined, vec![7]);
    }

    #[test]
    fn pressure_degrades_then_sheds() {
        let mut cfg = config();
        cfg.capacity = 8;
        cfg.batch_max = 4;
        let svc = service(cfg);
        // Fill to 100% pressure: the next cycle sheds.
        for _ in 0..8 {
            assert!(svc.try_ingest(sample(0, 1.0)));
        }
        assert!(!svc.try_ingest(sample(0, 1.0)), "backpressure rejects");
        let out = svc.drain_cycle();
        assert_eq!(out.level, None, "full queue sheds");
        // Depth now 4 of 8 → pressure 0.5 → degraded level 1.
        let out = svc.drain_cycle();
        assert_eq!(out.level, Some(1));
        // Depth 0 → primary level.
        for _ in 0..2 {
            assert!(svc.try_ingest(sample(0, 1.0)));
        }
        let out = svc.drain_cycle();
        assert_eq!(out.level, Some(0));
        let r = svc.report();
        assert_eq!(r.stats.rejected, 1);
        assert_eq!(r.stats.shed_cycles, 1);
        assert_eq!(r.stats.degraded_cycles, 1);
        assert_eq!(r.stats.max_depth, 8);
    }

    #[test]
    fn report_is_deterministic_for_a_fixed_interleave() {
        let run = || {
            let svc = service(config());
            for t in 0..32 {
                svc.try_ingest(sample(t % 3, t as f64));
                if t % 4 == 3 {
                    svc.drain_cycle();
                }
            }
            while !svc.is_drained() {
                svc.drain_cycle();
            }
            svc.report().to_json()
        };
        assert_eq!(run(), run());
    }
}
