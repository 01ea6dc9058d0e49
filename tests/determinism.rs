//! Determinism contract of the parallel runtime, end to end.
//!
//! The whole point of `lgo-runtime` is that parallelism is a pure
//! performance knob: results land by input index and per-task seeds are
//! split deterministically from the base seed, so the pipeline output is
//! **byte-identical** no matter how many worker threads run it. These
//! tests pin that contract at the outermost layer — the canonical JSON
//! export of the full five-step pipeline.
//!
//! The tests mutate the process-global thread override
//! ([`lgo::runtime::set_threads`]), so everything lives in one `#[test]`
//! per concern and restores the override before returning.

use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

use lgo::core::export::canonical_json;
use lgo::core::pipeline::{try_run_pipeline, PipelineConfig};
use lgo::runtime::set_threads;

/// Serializes tests that mutate the process-global thread override.
fn override_guard() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Canonical export of a fast-scale pipeline run at a fixed thread count.
fn export_at(threads: usize) -> String {
    set_threads(Some(threads));
    let report = try_run_pipeline(&PipelineConfig::fast()).expect("fast pipeline runs");
    canonical_json(&report)
}

#[test]
fn pipeline_export_identical_across_thread_counts() {
    let _serial_tests = override_guard();
    let serial = export_at(1);
    for threads in [2, 8] {
        let parallel = export_at(threads);
        assert_eq!(
            serial.len(),
            parallel.len(),
            "export length diverged at {threads} threads"
        );
        assert!(
            serial == parallel,
            "canonical export at {threads} threads is not byte-identical to serial"
        );
    }
    set_threads(None);
    // The export is substantive, not vacuously equal empties.
    assert!(serial.contains("\"profiles\""));
    assert!(serial.contains("\"evaluations\""));
}

#[test]
fn selective_trait_path_matches_inline_legacy_bitwise() {
    use lgo::core::selective::{
        evaluate_on_patient, train_detector_with_fallback, try_evaluate_strategy,
        try_training_rosters, DetectorConfigs, DetectorKind, PatientData, PatientMetrics,
        StrategyEvaluation, TrainingStrategy,
    };
    use lgo::glucosim::PatientId;

    let _serial_tests = override_guard();

    // The pre-refactor `try_evaluate_strategy` body, reconstructed from
    // public APIs as a serial loop (the parallel original folded in roster
    // order, so the serial replay is bit-equivalent by the runtime's
    // determinism contract). The current entry point routes through the
    // `Defense` trait; this pins that the refactor changed no bits.
    fn legacy_evaluate_strategy(
        strategy: TrainingStrategy,
        kind: DetectorKind,
        cohort: &[PatientData],
        less: &[PatientId],
        more: &[PatientId],
        configs: &DetectorConfigs,
    ) -> StrategyEvaluation {
        let ids: Vec<PatientId> = cohort.iter().map(|d| d.patient).collect();
        let rosters = try_training_rosters(strategy, &ids, less, more).expect("rosters");
        let mut sums: Vec<PatientMetrics> = vec![PatientMetrics::default(); cohort.len()];
        let mut total_windows = 0usize;
        let mut detectors_trained = Vec::new();
        for roster in &rosters {
            let mut benign = Vec::new();
            let mut malicious = Vec::new();
            for d in cohort.iter().filter(|d| roster.contains(&d.patient)) {
                benign.extend(d.train_benign.iter().cloned());
                malicious.extend(d.train_malicious.iter().cloned());
            }
            let (detector, trained) =
                train_detector_with_fallback(kind, &benign, &malicious, configs)
                    .expect("legacy training");
            total_windows += benign.len();
            detectors_trained.push(trained);
            for (s, cm) in sums
                .iter_mut()
                .zip(cohort.iter().map(|d| evaluate_on_patient(detector.as_ref(), d)))
            {
                s.recall += cm.recall();
                s.precision += cm.precision();
                s.f1 += cm.f1();
                s.fnr += cm.false_negative_rate();
                s.fpr += cm.false_positive_rate();
            }
        }
        let runs = rosters.len();
        let per_patient = cohort
            .iter()
            .zip(sums)
            .map(|(d, s)| {
                (
                    d.patient,
                    PatientMetrics {
                        recall: s.recall / runs as f64,
                        precision: s.precision / runs as f64,
                        f1: s.f1 / runs as f64,
                        fnr: s.fnr / runs as f64,
                        fpr: s.fpr / runs as f64,
                    },
                )
            })
            .collect();
        StrategyEvaluation {
            strategy,
            detector: kind,
            per_patient,
            mean_training_windows: total_windows as f64 / runs as f64,
            runs,
            detectors_trained,
        }
    }

    // A small synthetic cohort: two tight patients (the "less vulnerable"
    // cluster) and two diffuse ones, malicious windows at a fixed offset.
    let cohort: Vec<PatientData> = PatientId::all()
        .into_iter()
        .take(4)
        .enumerate()
        .map(|(pi, patient)| {
            let center = if pi < 2 { 0.0 } else { 2.0 };
            let mk = |c: f64, i: usize| vec![vec![c + (i % 7) as f64 * 0.01]; 4];
            let benign: Vec<_> = (0..30).map(|i| mk(center, i)).collect();
            let malicious: Vec<_> = (0..10).map(|i| mk(6.0, i)).collect();
            PatientData {
                patient,
                train_benign: benign.clone(),
                train_malicious: malicious.clone(),
                test_benign: benign,
                test_malicious: malicious,
            }
        })
        .collect();
    let ids = PatientId::all();
    let (less, more) = (ids[..2].to_vec(), ids[2..4].to_vec());
    let configs = DetectorConfigs::default();

    for threads in [1, 4] {
        set_threads(Some(threads));
        for strategy in [
            TrainingStrategy::LessVulnerable,
            TrainingStrategy::MoreVulnerable,
            TrainingStrategy::AllPatients,
            TrainingStrategy::RandomSamples {
                k: 2,
                runs: 3,
                seed: 7,
            },
        ] {
            let legacy =
                legacy_evaluate_strategy(strategy, DetectorKind::Knn, &cohort, &less, &more, &configs);
            let current = try_evaluate_strategy(
                strategy,
                DetectorKind::Knn,
                &cohort,
                &less,
                &more,
                &configs,
            )
            .expect("trait path evaluates");
            assert_eq!(legacy.runs, current.runs, "{strategy:?} at {threads} threads");
            assert_eq!(legacy.detectors_trained, current.detectors_trained);
            assert_eq!(
                legacy.mean_training_windows.to_bits(),
                current.mean_training_windows.to_bits()
            );
            for ((pa, ma), (pb, mb)) in legacy.per_patient.iter().zip(&current.per_patient) {
                assert_eq!(pa, pb);
                for (a, b) in [
                    (ma.recall, mb.recall),
                    (ma.precision, mb.precision),
                    (ma.f1, mb.f1),
                    (ma.fnr, mb.fnr),
                    (ma.fpr, mb.fpr),
                ] {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{strategy:?} metric diverged at {threads} threads"
                    );
                }
            }
        }
    }
    set_threads(None);
}

#[test]
fn env_override_is_respected_by_default() {
    let _serial_tests = override_guard();
    // `set_threads(None)` falls back to LGO_THREADS / hardware; whatever
    // the ambient value, an explicit override must win and report itself.
    set_threads(Some(3));
    assert_eq!(lgo::runtime::threads(), 3);
    set_threads(None);
    assert!(lgo::runtime::threads() >= 1);
}
