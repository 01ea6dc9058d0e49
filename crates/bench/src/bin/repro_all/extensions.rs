//! Extensions beyond the paper's evaluation: adaptive re-profiling under
//! concept drift (the paper's §V future work) and detector degradation
//! under train-time CGM sensor faults.

use lgo_cluster::Linkage;
use lgo_core::adaptive::AdaptiveProfiler;
use lgo_core::pipeline::benign_windows;
use lgo_core::profile::PatientAttackProfile;
use lgo_core::selective::{
    evaluate_on_patient, train_detector_with_fallback, DetectorKind, PatientData,
};
use lgo_detect::Window;
use lgo_forecast::GlucoseForecaster;
use lgo_glucosim::{profile, FaultInjector, FaultKind, PatientId, Simulator, Subset};
use lgo_series::MultiSeries;
use lgo_zoo::uret::UretAttack;
use lgo_zoo::{try_profile_patient_with, Attack, ZooConfig};

use lgo_bench::{forecast_config, profiler_config};

use crate::Ctx;

/// Adaptive risk profiling under concept drift over three reassessment
/// epochs. Between epochs 1 and 2 one vulnerable patient "recovers"
/// (adopts a disciplined phenotype): the adaptive profiler must move them
/// into the less-vulnerable cluster and signal that detector retraining is
/// due. Risk profiles come from the attack zoo's maximizing URET explorer,
/// the paper's profiling attacker.
pub fn adaptive(ctx: &Ctx) {
    let (train_days, _) = ctx.scale.days();
    let train_days = train_days.min(10); // drift study needs epochs, not bulk

    let profiler_cfg = profiler_config(ctx.scale);
    let zoo = ZooConfig::default();
    let attack = UretAttack::maximizing(profiler_cfg.explorer_steps);
    println!(
        "profiling attacker: {} ({})\n",
        attack.name(),
        attack.threat_model().name()
    );

    let ids = [
        PatientId::new(Subset::A, 2),
        PatientId::new(Subset::A, 5),
        PatientId::new(Subset::B, 2),
        PatientId::new(Subset::B, 4),
        PatientId::new(Subset::B, 5),
    ];
    let fc = forecast_config(ctx.scale);
    let build = |p: lgo_glucosim::PatientProfile| -> (GlucoseForecaster, MultiSeries) {
        let sim = Simulator::new(p);
        let data = sim.run_days(train_days);
        (GlucoseForecaster::train_personalized(&data, &fc), data)
    };

    let mut models: Vec<(GlucoseForecaster, MultiSeries)> =
        ids.iter().map(|&id| build(profile(id))).collect();
    let mut profiler = AdaptiveProfiler::new(profiler_cfg.clone(), Linkage::Average);

    for epoch in 0..3u64 {
        if epoch == 2 {
            // Concept drift: A_2 recovers to a disciplined phenotype.
            println!("\n*** drift: patient A_2 adopts disciplined habits ***");
            let mut recovered = profile(PatientId::new(Subset::A, 5));
            recovered.id = PatientId::new(Subset::A, 2);
            recovered.seed ^= 0xD21F;
            models[0] = build(recovered);
        }
        let epoch_seed = lgo_runtime::split_seed(zoo.seed, epoch);
        let profiles: Vec<PatientAttackProfile> = ids
            .iter()
            .zip(&models)
            .enumerate()
            .map(|(i, (&id, (f, s)))| {
                try_profile_patient_with(
                    &attack,
                    f,
                    id,
                    s,
                    &profiler_cfg,
                    &zoo,
                    lgo_runtime::split_seed(epoch_seed, i as u64),
                    None,
                )
                // Simulated series always yield windows; a failure here is fatal.
                .unwrap_or_else(|e| panic!("profiling {id}: {e}"))
            })
            .collect();
        let record = profiler.reassess_profiles(profiles);
        println!("\nepoch {}:", record.epoch);
        for p in &record.profiles {
            println!(
                "  {}: attack success {:>5.1}%  {}",
                p.patient,
                p.success_rate().unwrap_or(1.0) * 100.0,
                if record.clusters.is_less_vulnerable(p.patient) {
                    "[less vulnerable]"
                } else {
                    ""
                }
            );
        }
        println!("  retraining due: {}", profiler.retraining_due());
    }

    println!("\nmembership changes across epochs:");
    for c in profiler.membership_changes() {
        println!(
            "  epoch {}: {} {}",
            c.epoch,
            c.patient,
            if c.joined_less_vulnerable {
                "joined the less-vulnerable cluster (recovered)"
            } else {
                "left the less-vulnerable cluster"
            }
        );
    }
    println!("stability: {:?}", profiler.stability());
}

/// Mean per-patient detection metrics for one trained detector.
struct MeanMetrics {
    recall: f64,
    precision: f64,
    f1: f64,
}

fn mean_metrics(
    detector: &dyn lgo_detect::AnomalyDetector,
    cohort: &[PatientData],
) -> MeanMetrics {
    let mut m = MeanMetrics {
        recall: 0.0,
        precision: 0.0,
        f1: 0.0,
    };
    for d in cohort {
        let cm = evaluate_on_patient(detector, d);
        m.recall += cm.recall();
        m.precision += cm.precision();
        m.f1 += cm.f1();
    }
    let n = cohort.len() as f64;
    m.recall /= n;
    m.precision /= n;
    m.f1 /= n;
    m
}

/// One `"key": {...}` JSON fragment for a detector cell. `offered` counts
/// the benign windows handed to the fit, before any non-finite window is
/// dropped, so it is not the number the detector trained on.
fn detector_json(key: &str, m: &MeanMetrics, trained_as: DetectorKind, offered: usize) -> String {
    format!(
        "\"{key}\": {{\"recall\": {:.4}, \"precision\": {:.4}, \"f1\": {:.4}, \
         \"trained_as\": \"{}\", \"offered_windows\": {offered}}}",
        m.recall,
        m.precision,
        m.f1,
        trained_as.name()
    )
}

fn json_key(kind: DetectorKind) -> &'static str {
    match kind {
        DetectorKind::Knn => "knn",
        DetectorKind::OcSvm => "ocsvm",
        DetectorKind::MadGan => "madgan",
    }
}

/// Detector recall / precision / F1 under train-time CGM sensor faults, as
/// one JSON document mapping fault rate to per-detector metrics.
///
/// The shared run's steps 0–3 supply the clean cohort: its personalized
/// forecasters' minimal attack campaigns and detector windows. Then, for
/// each fault model × fault rate, the [`FaultInjector`] degrades
/// every patient's *training* series, the detectors are retrained on the
/// degraded benign windows (walking the MAD-GAN → OC-SVM → kNN fallback
/// chain when a detector cannot be trained at all), and the retrained
/// detectors are scored against the untouched clean test windows.
pub fn fault_robustness(ctx: &Ctx) {
    let config = &ctx.config;
    let seq_len = config.forecast.seq_len;
    let configs = &config.detectors;
    let profiled = ctx.profiled();
    let (datasets, cohort) = (&profiled.datasets, &profiled.cohort);
    let malicious: Vec<Window> = cohort
        .iter()
        .flat_map(|d| d.train_malicious.iter().cloned())
        .collect();

    // The sweep: each fault model is parameterized by a single "rate" knob.
    type FaultTemplate = fn(f64) -> FaultKind;
    let fault_models: Vec<(&str, FaultTemplate)> = vec![
        ("dropout", |rate| FaultKind::Dropout { rate }),
        ("stuck_at", |rate| FaultKind::StuckAt { rate, len: 6 }),
        ("spike_noise", |rate| FaultKind::SpikeNoise {
            rate,
            magnitude: 80.0,
        }),
        ("calibration_drift", |rate| FaultKind::CalibrationDrift {
            per_sample: rate,
            max_abs: 60.0,
        }),
    ];
    let rates = [0.1, 0.25, 0.5];
    let kinds = DetectorKind::all();

    // Trains all detectors on the given benign training pool and scores
    // them against the clean test windows; returns the JSON cell fragments.
    let evaluate_pool = |benign: &[Window]| -> Vec<String> {
        kinds
            .iter()
            .map(|&kind| {
                match train_detector_with_fallback(kind, benign, &malicious, configs) {
                    Ok((det, trained_as)) => {
                        let m = mean_metrics(det.as_ref(), cohort);
                        detector_json(json_key(kind), &m, trained_as, benign.len())
                    }
                    Err(e) => format!("\"{}\": {{\"error\": \"{e}\"}}", json_key(kind)),
                }
            })
            .collect()
    };

    eprintln!("baseline (clean training data) ...");
    let clean_benign: Vec<Window> = cohort
        .iter()
        .flat_map(|d| d.train_benign.iter().cloned())
        .collect();
    let baseline = evaluate_pool(&clean_benign);

    // Every (fault model × rate) cell is independent — its injector is
    // seeded from the fault-model index — so the sweep fans out across the
    // lgo-runtime pool; rows keep grid order.
    let grid: Vec<(usize, &str, FaultTemplate, f64)> = fault_models
        .iter()
        .enumerate()
        .flat_map(|(fi, &(name, mk_fault))| {
            rates.iter().map(move |&rate| (fi, name, mk_fault, rate))
        })
        .collect();
    eprintln!("sweeping {} fault × rate cells ...", grid.len());
    let sweep_rows = lgo_runtime::par_map(&grid, |&(fi, name, mk_fault, rate)| {
        let injector = FaultInjector::new(0xFA17 + fi as u64).with_fault(mk_fault(rate));
        let benign: Vec<Window> = datasets
            .iter()
            .map(|d| injector.apply_dataset(d))
            .flat_map(|d| benign_windows(&d.train, seq_len, config.detector_stride))
            .collect();
        let cells = evaluate_pool(&benign);
        format!(
            "    {{\"fault\": \"{name}\", \"rate\": {rate}, \"detectors\": {{{}}}}}",
            cells.join(", ")
        )
    });

    println!(
        "{{\n  \"scale\": \"{}\",\n  \"baseline\": {{{}}},\n  \"sweep\": [\n{}\n  ]\n}}",
        ctx.scale.name(),
        baseline.join(", "),
        sweep_rows.join(",\n")
    );
}
