//! Step 5, the detectors: per-sample flags under indiscriminate training
//! (Figure 5), recall / precision / F1 per training strategy (Figures 7, 8
//! and 11), generalization to unseen patients (Appendix D) and the
//! threshold-free ROC/AUC extension.

use lgo_core::pipeline::PipelineConfig;
use lgo_core::selective::{
    evaluate_on_patient, train_detector, DetectorKind, StrategyEvaluation, TrainingStrategy,
};
use lgo_eval::render::{box_plot, table};
use lgo_eval::RocCurve;
use lgo_glucosim::{PatientId, Subset};
use lgo_series::stats::BoxStats;

use crate::Ctx;

/// Figure 5 — per-sample kNN detection on the less-vulnerable patient A_5
/// and the more-vulnerable patient A_2 under *indiscriminate* training.
/// Paper headline: the more-vulnerable patient suffers a much higher
/// false-negative rate.
///
/// Indiscriminate training needs the full cohort. The shared steps 1–4
/// cover it at mid and paper scale; the fast-scale shared run holds four
/// patients, so there this section profiles the full cohort itself, with
/// the shared configuration otherwise unchanged.
pub fn fig5(ctx: &Ctx) {
    let own;
    let report = if ctx.config.patients.is_none() {
        ctx.profiled()
    } else {
        own = crate::profile_cohort(&PipelineConfig {
            patients: None,
            ..ctx.config.clone()
        });
        &own
    };

    // Train the kNN on everyone (indiscriminate) and flag each target
    // patient's test samples.
    let mut benign = Vec::new();
    let mut malicious = Vec::new();
    for d in &report.cohort {
        benign.extend(d.train_benign.iter().cloned());
        malicious.extend(d.train_malicious.iter().cloned());
    }
    let detector = train_detector(
        DetectorKind::Knn,
        &benign,
        &malicious,
        &ctx.config.detectors,
    );

    for id in [PatientId::new(Subset::A, 5), PatientId::new(Subset::A, 2)] {
        let data = report
            .cohort
            .iter()
            .find(|d| d.patient == id)
            .expect("patient in cohort");
        let cm = evaluate_on_patient(detector.as_ref(), data);
        println!(
            "\npatient {id}: {} malicious samples, {} flagged (TP), {} missed (FN) -> FN rate {:.1}%",
            data.test_malicious.len(),
            cm.tp,
            cm.fn_,
            cm.false_negative_rate() * 100.0
        );
        // Trace strip: one character per malicious window in time order.
        let strip: String = data
            .test_malicious
            .iter()
            .take(72)
            .map(|w| if detector.is_anomalous(w) { 'o' } else { 'X' })
            .collect();
        println!("  first malicious windows (o = flagged, X = missed): {strip}");
    }
    println!(
        "\npaper: the more-vulnerable patient (A_2) shows a much higher FN rate than A_5\n\
         under indiscriminate training — the motivation for selective training."
    );
}

/// Figure 7 — recall. Paper headline: Less-Vulnerable training achieves the
/// highest recall for all three detectors.
pub fn fig7(ctx: &Ctx) {
    strategy_metric(
        ctx,
        "recall",
        StrategyEvaluation::recall_stats,
        StrategyEvaluation::mean_recall,
        "kNN +27.5%, OCSVM +16.8%, MAD-GAN equal at -75% data",
    );
}

/// Figure 8 — precision. Paper headline: Less-Vulnerable training costs kNN
/// ~5 % precision while OneClassSVM gains 7.5 %; MAD-GAN is insensitive.
pub fn fig8(ctx: &Ctx) {
    strategy_metric(
        ctx,
        "precision",
        StrategyEvaluation::precision_stats,
        StrategyEvaluation::mean_precision,
        "kNN -5%, OCSVM +7.5%, MAD-GAN similar",
    );
}

/// Figure 11 (Appendix C) — F1. Paper headline: Less-Vulnerable training
/// improves F1 over indiscriminate training; the recall gain outweighs any
/// precision loss.
pub fn fig11(ctx: &Ctx) {
    strategy_metric(
        ctx,
        "F1",
        StrategyEvaluation::f1_stats,
        StrategyEvaluation::mean_f1,
        "kNN +7.3%, OCSVM +10.9%",
    );
}

/// One metric of the strategy × detector grid: per-detector box plots of
/// the per-patient distribution, a mean-value table, and the
/// Less-Vulnerable vs All-Patients headline next to the paper's.
fn strategy_metric(
    ctx: &Ctx,
    metric: &str,
    stats: fn(&StrategyEvaluation) -> BoxStats,
    mean: fn(&StrategyEvaluation) -> f64,
    paper: &str,
) {
    let evaluations = ctx.evaluations();
    let mut rows = Vec::new();
    for kind in evaluations
        .iter()
        .map(|e| e.detector)
        .collect::<std::collections::BTreeSet<_>>()
    {
        let evals: Vec<&StrategyEvaluation> =
            evaluations.iter().filter(|e| e.detector == kind).collect();
        println!("\n{} — per-patient {metric} distribution:", kind.name());
        let items: Vec<(String, BoxStats)> = evals
            .iter()
            .map(|e| (e.strategy.name().to_string(), stats(e)))
            .collect();
        print!("{}", box_plot(&items, 44));
        for e in &evals {
            rows.push(vec![
                kind.name().to_string(),
                e.strategy.name().to_string(),
                format!("{:.3}", stats(e).mean),
                format!("{:.0}", e.mean_training_windows),
            ]);
        }
    }
    println!("\nmean {metric} per (detector, strategy):");
    print!(
        "{}",
        table(&["detector", "strategy", metric, "train windows"], &rows)
    );

    println!("\nheadline comparisons (LV vs All Patients, mean {metric}):");
    let evaluation = |strategy: TrainingStrategy, kind: DetectorKind| {
        evaluations
            .iter()
            .find(|e| e.strategy == strategy && e.detector == kind)
            .expect("grid cell evaluated")
    };
    for kind in DetectorKind::all() {
        let lv = evaluation(TrainingStrategy::LessVulnerable, kind);
        let all = evaluation(TrainingStrategy::AllPatients, kind);
        let change = (mean(lv) - mean(all)) / mean(all).max(1e-9);
        println!(
            "  {:<12} LV {:.3} vs All {:.3}  ({:+.1}%)   [paper: {paper}]",
            kind.name(),
            mean(lv),
            mean(all),
            change * 100.0
        );
    }
}

/// Appendix D — detectors trained only on the less-vulnerable patients,
/// tested on the full cohort and separately on the more-vulnerable
/// patients, who were never seen in training. Paper headline: the rates on
/// the unseen patients are similar, i.e. selective training does not
/// overfit to the less-vulnerable cluster.
pub fn appendix_d(ctx: &Ctx) {
    let report = ctx.profiled();
    let mut rows = Vec::new();
    for e in ctx
        .evaluations()
        .iter()
        .filter(|e| e.strategy == TrainingStrategy::LessVulnerable)
    {
        let mv_only: Vec<f64> = e
            .per_patient
            .iter()
            .filter(|(id, _)| !report.clusters.is_less_vulnerable(*id))
            .map(|(_, m)| m.recall)
            .collect();
        let lv_only: Vec<f64> = e
            .per_patient
            .iter()
            .filter(|(id, _)| report.clusters.is_less_vulnerable(*id))
            .map(|(_, m)| m.recall)
            .collect();
        let mean = |v: &[f64]| {
            if v.is_empty() {
                f64::NAN
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        rows.push(vec![
            e.detector.name().to_string(),
            format!("{:.3}", e.mean_recall()),
            format!("{:.3}", mean(&mv_only)),
            format!("{:.3}", mean(&lv_only)),
        ]);
    }
    println!("\nrecall of LV-trained detectors by test population:");
    print!(
        "{}",
        table(
            &[
                "detector",
                "all patients",
                "unseen (more vulnerable)",
                "seen (less vulnerable)",
            ],
            &rows,
        )
    );
    println!(
        "\npaper: rates on the unseen more-vulnerable patients are similar to the\n\
         full-test rates, indicating resilience to overfitting."
    );
}

/// Extension — threshold-free detector comparison: ROC/AUC of each
/// detector under Less-Vulnerable vs All-Patients training. AUC factors the
/// operating point (kNN majority vote, SVM/GAN calibration quantiles) out
/// and shows whether selective training improves the *ranking* of
/// malicious over benign windows itself.
pub fn roc(ctx: &Ctx) {
    let report = ctx.profiled();
    let rosters: Vec<(&str, Vec<PatientId>)> = vec![
        ("Less Vulnerable", report.clusters.less_vulnerable.clone()),
        (
            "All Patients",
            report.cohort.iter().map(|d| d.patient).collect(),
        ),
    ];

    let mut rows = Vec::new();
    for kind in DetectorKind::all() {
        for (label, roster) in &rosters {
            let mut benign = Vec::new();
            let mut malicious = Vec::new();
            for d in report.cohort.iter().filter(|d| roster.contains(&d.patient)) {
                benign.extend(d.train_benign.iter().cloned());
                malicious.extend(d.train_malicious.iter().cloned());
            }
            let detector = train_detector(kind, &benign, &malicious, &ctx.config.detectors);

            // Pool every patient's test windows and score them.
            let mut scores = Vec::new();
            let mut labels = Vec::new();
            for d in &report.cohort {
                for w in &d.test_benign {
                    scores.push(detector.score(w));
                    labels.push(false);
                }
                for w in &d.test_malicious {
                    scores.push(detector.score(w));
                    labels.push(true);
                }
            }
            let roc = RocCurve::from_scores(&scores, &labels);
            let best = roc.best_youden();
            rows.push(vec![
                kind.name().to_string(),
                label.to_string(),
                format!("{:.3}", roc.auc()),
                format!("tpr {:.2} @ fpr {:.2}", best.tpr, best.fpr),
            ]);
        }
    }
    println!();
    print!(
        "{}",
        table(&["detector", "training", "AUC", "best Youden point"], &rows)
    );
    println!(
        "\nAUC > for LV training means selective training improves the score ranking\n\
         itself, not just the operating point."
    );
}
