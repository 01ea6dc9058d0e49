//! Failure-injection tests: corrupted inputs, degenerate data and resource
//! caps must fail loudly (documented panics) or degrade gracefully — never
//! silently corrupt results.

use lgo::detect::{
    AnomalyDetector, Kernel, KernelSpec, KnnConfig, KnnDetector, OcSvmConfig, OneClassSvm,
};
use lgo::forecast::{ForecastConfig, GlucoseForecaster};
use lgo::series::{MinMaxScaler, MultiSeries};

#[test]
fn scaler_survives_nan_rows() {
    // A corrupted sensor reading must not poison the scaler statistics.
    let data = vec![
        vec![100.0],
        vec![f64::NAN],
        vec![200.0],
        vec![f64::INFINITY],
    ];
    let mut s = MinMaxScaler::new();
    s.fit(&data);
    assert_eq!(s.value(0, 150.0), 0.5);
}

#[test]
fn multiseries_flags_non_finite_data() {
    let mut s = MultiSeries::new(&["x"]);
    s.push_row(&[1.0]);
    assert!(!s.has_non_finite());
    s.push_row(&[f64::NAN]);
    assert!(s.has_non_finite());
}

#[test]
fn forecaster_handles_constant_channels() {
    // The simulator's basal channel is constant; scalers must not divide by
    // zero and training must stay finite.
    let mut series = MultiSeries::new(&["cgm", "bolus", "carbs", "heart_rate"]);
    for t in 0..200 {
        series.push_row(&[120.0 + (t as f64 * 0.3).sin() * 30.0, 0.0, 0.0, 70.0]);
    }
    let cfg = ForecastConfig {
        hidden: 4,
        epochs: 1,
        ..ForecastConfig::default()
    };
    let model = GlucoseForecaster::train_personalized(&series, &cfg);
    let w = lgo::forecast::feature_window(&series, 50).unwrap();
    assert!(model.predict(&w).is_finite());
}

#[test]
fn smo_iteration_cap_is_respected() {
    let windows: Vec<Vec<Vec<f64>>> = (0..60)
        .map(|i| vec![vec![(i as f64 * 0.7).sin(), (i as f64 * 0.3).cos()]])
        .collect();
    let cfg = OcSvmConfig {
        kernel: KernelSpec::Fixed(Kernel::Rbf { gamma: 1.0 }),
        nu: 0.4,
        max_iter: Some(3),
        ..OcSvmConfig::default()
    };
    let svm = OneClassSvm::fit(&windows, &cfg);
    assert!(svm.iterations() <= 3);
    // Even a barely-optimized model must produce finite decisions.
    assert!(svm.decision_function(&vec![vec![0.0, 0.0]]).is_finite());
}

#[test]
#[should_panic(expected = "no training windows")]
fn knn_rejects_empty_training_set() {
    let _ = KnnDetector::fit(&[], &[], &KnnConfig::default());
}

#[test]
#[should_panic(expected = "series too short")]
fn forecaster_rejects_undersized_series() {
    let mut series = MultiSeries::new(&["cgm", "bolus", "carbs", "heart_rate"]);
    for _ in 0..5 {
        series.push_row(&[100.0, 0.0, 0.0, 70.0]);
    }
    let _ = GlucoseForecaster::train_personalized(&series, &ForecastConfig::default());
}

#[test]
fn detectors_score_extreme_inputs_finitely() {
    let benign: Vec<Vec<Vec<f64>>> = (0..30)
        .map(|i| vec![vec![100.0 + i as f64, 0.0, 0.0, 70.0]; 4])
        .collect();
    let malicious: Vec<Vec<Vec<f64>>> = (0..30)
        .map(|i| vec![vec![300.0 + i as f64, 0.0, 0.0, 70.0]; 4])
        .collect();
    let knn = KnnDetector::fit(&benign, &malicious, &KnnConfig::default());
    // Far outside the training range in both directions.
    for v in [0.0, 1e6, -1e6] {
        let w = vec![vec![v, 0.0, 0.0, 70.0]; 4];
        assert!(knn.score(&w).is_finite(), "knn score at {v}");
    }
}

#[test]
fn dendrogram_handles_identical_points() {
    // Zero pairwise distances must not break the merge logic.
    let points = vec![vec![1.0, 1.0]; 5];
    let d = lgo::cluster::agglomerate_points(&points, lgo::cluster::Linkage::Average);
    assert_eq!(d.merges().len(), 4);
    assert!(d.merges().iter().all(|m| m.height == 0.0));
    assert_eq!(d.cut_k(1), vec![0; 5]);
}

#[test]
fn risk_profile_rejects_corrupt_values() {
    let result = std::panic::catch_unwind(|| {
        lgo::core::risk::RiskProfile::new("x", vec![1.0, f64::NAN])
    });
    assert!(result.is_err(), "NaN risk accepted");
}

#[test]
fn detector_fallback_chain_engages_on_dropout_windows() {
    use lgo::core::selective::{train_detector_with_fallback, DetectorConfigs, DetectorKind};
    // Sensor dropout leaves a NaN CGM reading in every benign window. The
    // missing reading is the oldest of each window, so the window-wide
    // inputs of MAD-GAN and the OC-SVM are non-finite while kNN's
    // newest-sample summary stays finite: both fall back to kNN.
    let row = |cgm: f64| vec![cgm, 0.0, 0.0, 70.0];
    let dropped = |i: usize| -> Vec<Vec<f64>> {
        let mut w: Vec<Vec<f64>> = (0..6).map(|t| row(110.0 + (i + t) as f64)).collect();
        w[0][0] = f64::NAN;
        w
    };
    let benign: Vec<Vec<Vec<f64>>> = (0..30).map(dropped).collect();
    let malicious: Vec<Vec<Vec<f64>>> = (0..30)
        .map(|i| (0..6).map(|t| row(if t == 5 { 320.0 } else { 110.0 + i as f64 })).collect())
        .collect();
    let clean_test = (0..6).map(|t| row(120.0 + t as f64)).collect::<Vec<_>>();
    for kind in [DetectorKind::MadGan, DetectorKind::OcSvm] {
        let (detector, trained_as) =
            train_detector_with_fallback(kind, &benign, &malicious, &DetectorConfigs::default())
                .unwrap_or_else(|e| panic!("{} chain exhausted: {e}", kind.name()));
        assert_eq!(trained_as, DetectorKind::Knn, "{} did not fall back", kind.name());
        assert!(detector.score(&clean_test).is_finite());
        assert!(detector.score(&benign[0]).is_finite());
        assert!(detector.score(&malicious[0]).is_finite());
    }
}
