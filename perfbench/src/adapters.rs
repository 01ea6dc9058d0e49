//! Forwarding adapters the benchmark puts around the program's detectors
//! and crafters. Each forwards every trait method — `score_into` and
//! `score_batch` included — so the wrapped object's fast paths stay in use
//! and its outputs are bit-identical to the unwrapped object's.

use std::sync::{Arc, Mutex, PoisonError};

use lgo::core::defense::AdversarialCrafter;
use lgo::detect::{AnomalyDetector, ScoreScratch, Window};

use crate::layers::Layers;
use crate::report::window_digest;

/// Charges the wall time of every scoring call to `secs_key` and the
/// windows it scored to `windows_key`.
pub struct TimedDetector {
    inner: Arc<dyn AnomalyDetector>,
    layers: Arc<Layers>,
    secs_key: &'static str,
    windows_key: &'static str,
}

impl TimedDetector {
    pub fn new(
        inner: Arc<dyn AnomalyDetector>,
        layers: Arc<Layers>,
        secs_key: &'static str,
        windows_key: &'static str,
    ) -> Self {
        Self {
            inner,
            layers,
            secs_key,
            windows_key,
        }
    }

    fn timed<T>(&self, windows: usize, f: impl FnOnce() -> T) -> T {
        self.layers.count(self.windows_key, windows as u64);
        self.layers.time(self.secs_key, f)
    }
}

impl AnomalyDetector for TimedDetector {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn score(&self, window: &Window) -> f64 {
        self.timed(1, || self.inner.score(window))
    }

    fn is_anomalous(&self, window: &Window) -> bool {
        self.timed(1, || self.inner.is_anomalous(window))
    }

    fn score_into(&self, window: &Window, scratch: &mut ScoreScratch) -> f64 {
        self.timed(1, || self.inner.score_into(window, scratch))
    }

    fn score_batch(&self, windows: &[Window]) -> Vec<f64> {
        self.timed(windows.len(), || self.inner.score_batch(windows))
    }
}

/// One verdict the serving ladder reached: (window digest, ladder level,
/// flagged).
pub type Verdict = (u64, u8, bool);

/// Logs the verdict of every window a serving ladder level scores, so the
/// benchmark can check verdicts window by window after the run.
pub struct VerdictRecorder {
    inner: Arc<dyn AnomalyDetector>,
    level: u8,
    log: Arc<Mutex<Vec<Verdict>>>,
}

impl VerdictRecorder {
    pub fn new(inner: Arc<dyn AnomalyDetector>, level: u8, log: Arc<Mutex<Vec<Verdict>>>) -> Self {
        Self { inner, level, log }
    }

    fn record(&self, window: &Window, score: f64) -> f64 {
        let digest = window_digest(window);
        self.log
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((digest, self.level, score > 0.0));
        score
    }
}

impl AnomalyDetector for VerdictRecorder {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn score(&self, window: &Window) -> f64 {
        self.record(window, self.inner.score(window))
    }

    fn score_into(&self, window: &Window, scratch: &mut ScoreScratch) -> f64 {
        self.record(window, self.inner.score_into(window, scratch))
    }

    fn score_batch(&self, windows: &[Window]) -> Vec<f64> {
        let scores = self.inner.score_batch(windows);
        for (w, &s) in windows.iter().zip(&scores) {
            self.record(w, s);
        }
        scores
    }
}

/// Charges the wall time of every crafting round to `defense.craft` and the
/// windows it produced to `defense.crafted_windows`.
pub struct TimedCrafter<'a> {
    inner: &'a dyn AdversarialCrafter,
    layers: Arc<Layers>,
}

impl<'a> TimedCrafter<'a> {
    pub fn new(inner: &'a dyn AdversarialCrafter, layers: Arc<Layers>) -> Self {
        Self { inner, layers }
    }
}

impl AdversarialCrafter for TimedCrafter<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn craft(&self, round: usize, seed: u64, deployed: &dyn AnomalyDetector) -> Vec<Window> {
        let out = self
            .layers
            .time("defense.craft", || self.inner.craft(round, seed, deployed));
        self.layers
            .count("defense.crafted_windows", out.len() as u64);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lgo::core::defense::ReplayCrafter;
    use lgo::core::pipeline::benign_windows;
    use lgo::core::selective::{try_train_detector, DetectorKind};
    use lgo::glucosim::CohortStream;

    /// The three trained ladder detectors and some windows to score.
    fn ladder() -> (Vec<Arc<dyn AnomalyDetector>>, Vec<Window>) {
        let series = CohortStream::new(1, 1, 9).patient(0).series;
        let benign = benign_windows(&series, 12, 6);
        let malicious: Vec<Window> = benign
            .iter()
            .map(|w| {
                w.iter()
                    .map(|r| {
                        let mut r = r.clone();
                        r[0] += 90.0;
                        r
                    })
                    .collect()
            })
            .collect();
        let configs = crate::cohort::detector_configs();
        let ladder = [DetectorKind::MadGan, DetectorKind::OcSvm, DetectorKind::Knn]
            .into_iter()
            .map(|k| {
                Arc::from(try_train_detector(k, &benign, &malicious, &configs).expect("trains"))
            })
            .collect();
        let mut probe = benign[..8].to_vec();
        probe.extend_from_slice(&malicious[..8]);
        (ladder, probe)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn wrapped_detectors_score_the_same_bits() {
        let (ladder, windows) = ladder();
        let layers = Arc::new(Layers::default());
        let log = Arc::new(Mutex::new(Vec::new()));
        for (level, d) in ladder.iter().enumerate() {
            let timed: Arc<dyn AnomalyDetector> = Arc::new(TimedDetector::new(
                Arc::clone(d),
                Arc::clone(&layers),
                "s",
                "n",
            ));
            let wrapped = VerdictRecorder::new(timed, level as u8, Arc::clone(&log));
            assert_eq!(
                bits(&wrapped.score_batch(&windows)),
                bits(&d.score_batch(&windows))
            );
            let (mut a, mut b) = (ScoreScratch::new(), ScoreScratch::new());
            for w in &windows {
                assert_eq!(
                    wrapped.score_into(w, &mut a).to_bits(),
                    d.score_into(w, &mut b).to_bits()
                );
                assert_eq!(wrapped.score(w).to_bits(), d.score(w).to_bits());
            }
        }
        // Every scored window was counted and logged with its verdict.
        assert_eq!(layers.counted("n"), 3 * 3 * windows.len() as u64);
        let log = log.lock().expect("log");
        assert_eq!(log.len(), 3 * 3 * windows.len());
        assert!(log.iter().all(|&(digest, level, verdict)| {
            let w = windows
                .iter()
                .find(|w| window_digest(w) == digest)
                .expect("known window");
            (ladder[level as usize].score(w) > 0.0) == verdict
        }));
    }

    #[test]
    fn timed_crafter_forwards_the_crafted_windows() {
        let (ladder, windows) = ladder();
        let replay = ReplayCrafter::new(windows, 5);
        let layers = Arc::new(Layers::default());
        let timed = TimedCrafter::new(&replay, Arc::clone(&layers));
        for round in 0..3 {
            assert_eq!(
                timed.craft(round, 7, ladder[0].as_ref()),
                replay.craft(round, 7, ladder[0].as_ref())
            );
        }
        assert_eq!(timed.name(), replay.name());
        assert_eq!(layers.counted("defense.crafted_windows"), 15);
    }
}
