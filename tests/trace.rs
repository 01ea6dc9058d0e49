//! Observability contract of the `trace` feature, end to end.
//!
//! lgo-trace's promise is that instrumentation is a pure observer: turning
//! it on must not change what the pipeline computes, and the deterministic
//! section of what it records (counters + histograms) must itself be
//! byte-identical at any thread count — wall-clock and scheduler data are
//! segregated under the masked `timing` key. These tests pin both halves
//! of that contract on the full five-step pipeline, plus the shape of the
//! emitted report against the bundled schema validator.
//!
//! The tests mutate process-global state (the thread override and the
//! trace registry), so each concern runs under one shared lock.
#![cfg(feature = "trace")]

use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

use lgo::core::export::canonical_json;
use lgo::core::pipeline::{try_run_pipeline, PipelineConfig};
use lgo::runtime::set_threads;
use lgo::trace;

/// Serializes tests that mutate the thread override / trace registry.
fn global_guard() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Runs the fast pipeline at a thread count with tracing on; returns the
/// canonical pipeline export and the collected trace.
fn traced_run(threads: usize) -> (String, trace::TraceReport) {
    trace::set_enabled(Some(true));
    trace::reset();
    set_threads(Some(threads));
    let report = try_run_pipeline(&PipelineConfig::fast()).expect("fast pipeline runs");
    let collected = trace::snapshot();
    set_threads(None);
    trace::set_enabled(None);
    (canonical_json(&report), collected)
}

#[test]
fn trace_counters_byte_identical_across_thread_counts() {
    let _serial = global_guard();
    let (_, serial) = traced_run(1);
    let reference = serial.deterministic_json();
    for threads in [2, 8] {
        let (_, parallel) = traced_run(threads);
        assert!(
            reference == parallel.deterministic_json(),
            "deterministic trace section at {threads} threads differs from serial:\n\
             serial:\n{reference}\nparallel:\n{}",
            parallel.deterministic_json()
        );
    }

    // The trace is substantive: all five pipeline stages reported in, and
    // the runtime pool accounted for the fanned-out tasks.
    for stage in ["stage/attack", "stage/risk", "stage/profile", "stage/cluster", "stage/train"] {
        assert!(
            serial.counter(stage).is_some_and(|c| c > 0),
            "missing stage counter {stage}; counters: {:?}",
            serial.counters
        );
    }
    assert!(serial.counter("runtime/tasks").is_some_and(|c| c > 0));
    assert!(serial.counter("runtime/batches").is_some_and(|c| c > 0));
    assert!(serial.counter("detect/knn/fits").is_some_and(|c| c > 0));
    assert!(serial.has_span("stage/attack"));
}

#[test]
fn tracing_does_not_change_the_pipeline_output() {
    let _serial = global_guard();

    // Baseline: tracing force-disabled.
    trace::set_enabled(Some(false));
    trace::reset();
    set_threads(Some(2));
    let off = canonical_json(&try_run_pipeline(&PipelineConfig::fast()).expect("pipeline runs"));
    assert!(trace::snapshot().is_empty(), "disabled tracing must collect nothing");
    set_threads(None);
    trace::set_enabled(None);

    let (on, collected) = traced_run(2);
    assert!(!collected.is_empty(), "enabled tracing must collect something");
    assert!(
        off == on,
        "canonical export must be byte-identical with tracing on and off"
    );
}

#[test]
fn emitted_report_validates_against_the_schema() {
    let _serial = global_guard();
    let (_, collected) = traced_run(1);
    let json = collected.to_json("pipeline_fast");
    trace::schema::validate_trace(&json)
        .unwrap_or_else(|e| panic!("trace report fails its own schema: {e}\n{json}"));
}

#[test]
fn every_fit_counts_once_and_exposure_only_when_outliers_are_usable() {
    use lgo::detect::{Kernel, KernelSpec, MadGan, MadGanConfig, OcSvmConfig, OneClassSvm, Window};

    let _serial = global_guard();
    // Runs `fit` alone with tracing on and returns what it recorded.
    let traced = |fit: &dyn Fn()| {
        trace::set_enabled(Some(true));
        trace::reset();
        fit();
        let collected = trace::snapshot();
        trace::set_enabled(None);
        collected
    };

    let ring: Vec<Window> = (0..30)
        .map(|i| {
            let a = i as f64 / 30.0 * std::f64::consts::TAU;
            vec![vec![a.cos(), a.sin()]]
        })
        .collect();
    let svm_cfg = OcSvmConfig {
        nu: 0.3,
        kernel: KernelSpec::Fixed(Kernel::Rbf { gamma: 1.0 }),
        ..OcSvmConfig::default()
    };
    let nan_outliers: Vec<Window> = vec![vec![vec![f64::NAN, 0.0]]; 2];
    for (outliers, slack, exposed) in [
        (&[][..], 0.5, 0),
        (&ring[..3], 0.0, 0),
        (&nan_outliers[..], 0.5, 0),
        (&ring[..3], 0.5, 3),
    ] {
        let report = traced(&|| {
            OneClassSvm::try_fit_with_outliers(&ring, outliers, slack, &svm_cfg).expect("fits");
        });
        assert_eq!(report.counter("detect/ocsvm/fits"), Some(1), "slack {slack}");
        let oe = (exposed > 0).then_some(1);
        assert_eq!(report.counter("detect/ocsvm/oe_fits"), oe, "slack {slack}");
        let points = (exposed > 0).then_some(exposed);
        assert_eq!(report.counter("detect/ocsvm/outlier_points"), points, "slack {slack}");
        assert_eq!(report.has_span("detect/ocsvm/fit_oe"), exposed > 0, "slack {slack}");
    }

    let benign: Vec<Window> = (0..16)
        .map(|i| {
            (0..12)
                .map(|t| {
                    let v = ((t + i) as f64 * 0.5).sin() * 0.3 + 0.5;
                    vec![v, v * 0.8]
                })
                .collect()
        })
        .collect();
    let gan_cfg = MadGanConfig {
        epochs: 1,
        hidden: 4,
        inversion_steps: 2,
        ..MadGanConfig::default()
    };
    let wrong_width: Vec<Window> = vec![vec![vec![0.5; 3]; 12]; 2];
    for (outliers, exposed) in [
        (&[][..], 0),
        (&wrong_width[..], 0),
        (&benign[..2], 2),
    ] {
        let report = traced(&|| {
            MadGan::try_fit_with_outliers(&benign, outliers, &gan_cfg).expect("fits");
        });
        assert_eq!(report.counter("detect/madgan/fits"), Some(1));
        let windows = (exposed > 0).then_some(exposed);
        assert_eq!(report.counter("detect/madgan/outlier_windows"), windows);
        assert_eq!(report.has_span("detect/madgan/fit_oe"), exposed > 0);
    }
}
