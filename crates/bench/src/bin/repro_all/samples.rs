//! Where the glucose samples fall: the benign normal:abnormal ratio per
//! patient (Figure 4), the benign/malicious × normal/abnormal quadrants
//! (Figure 6), and the misdiagnosis percentages of Subset A per attack
//! origin (Figures 9 and 10, Appendix A).

use lgo_attack::cgm::OriginState;
use lgo_bench::{forecast_config, profiler_config, Scale};
use lgo_core::profile::{profile_patient, PatientAttackProfile};
use lgo_core::quadrant::QuadrantCounts;
use lgo_core::state::StateThresholds;
use lgo_eval::render::{bar_chart, table};
use lgo_forecast::GlucoseForecaster;
use lgo_glucosim::{generate_cohort_sized, Subset, SAMPLES_PER_DAY};

use crate::Ctx;

/// Figure 4 — ratio of normal to abnormal data points in the benign trace
/// of every patient of the full cohort. Less-vulnerable patients should
/// show the highest ratios; the paper's most vulnerable patient (A_2) the
/// lowest.
pub fn fig4(ctx: &Ctx) {
    let (train_days, test_days) = ctx.scale.days();
    let cohort = generate_cohort_sized(train_days, test_days);
    let thresholds = StateThresholds::default();

    let mut items = Vec::new();
    for d in &cohort {
        // The benign trace = the whole simulated period (train + test).
        let mut counts = QuadrantCounts::default();
        for series in [&d.train, &d.test] {
            let cgm = series.channel("cgm").expect("cgm channel");
            let fasting = series.channel("fasting").expect("fasting channel");
            let c = QuadrantCounts::tally(
                // lint: allow(L4): fasting is a 0/1 flag channel stored exactly
                cgm.iter().zip(&fasting).map(|(&g, &f)| (g, f == 1.0, false)),
                &thresholds,
            );
            counts.benign_normal += c.benign_normal;
            counts.benign_abnormal += c.benign_abnormal;
        }
        let ratio = counts.benign_normal_abnormal_ratio().unwrap_or(f64::INFINITY);
        items.push((d.profile.id.to_string(), ratio));
    }

    println!(
        "\n({} samples per patient at 5-minute cadence)",
        (train_days + test_days) * SAMPLES_PER_DAY
    );
    print!("{}", bar_chart(&items, 48));
    println!("\npaper: A_5 and B_2 show the highest ratios; A_2 the lowest.");

    // Sanity summary: is the designed ordering present?
    let get = |name: &str| items.iter().find(|(n, _)| n == name).map(|&(_, v)| v).unwrap();
    let trio_min = get("A_5").min(get("B_1")).min(get("B_2"));
    let rest_max = items
        .iter()
        .filter(|(n, _)| n != "A_5" && n != "B_1" && n != "B_2")
        .map(|&(_, v)| v)
        .fold(f64::MIN, f64::max);
    println!(
        "reproduced: min(less-vulnerable trio) = {trio_min:.2}, max(rest) = {rest_max:.2} -> trio on top: {}",
        trio_min > rest_max
    );
}

/// Figure 6 — the cohort's samples tallied into the quadrant taxonomy per
/// patient, showing why benign-abnormal density drives false negatives.
pub fn fig6(ctx: &Ctx) {
    let report = ctx.profiled();
    let thresholds = StateThresholds::default();

    let mut rows = Vec::new();
    for p in &report.profiles {
        // Benign samples: the original last CGM value of every attacked
        // window; malicious samples: the manipulated one.
        let mut samples = Vec::new();
        for o in &p.campaign.outcomes {
            let adv_last = o.result.best_input.last().expect("nonempty window")[0];
            samples.push((adv_last, o.fasting, o.result.steps > 0));
        }
        let data = report
            .cohort
            .iter()
            .find(|d| d.patient == p.patient)
            .expect("cohort entry");
        for w in &data.test_benign {
            let last = w.last().expect("nonempty window")[0];
            // Benign windows carry no fasting flag; classify against the
            // postprandial threshold (conservative).
            samples.push((last, false, false));
        }
        let c = QuadrantCounts::tally(samples, &thresholds);
        rows.push(vec![
            p.patient.to_string(),
            c.benign_normal.to_string(),
            c.benign_abnormal.to_string(),
            c.malicious_normal.to_string(),
            c.malicious_abnormal.to_string(),
            c.benign_normal_abnormal_ratio()
                .map_or("inf".into(), |r| format!("{r:.2}")),
        ]);
    }
    print!(
        "{}",
        table(
            &[
                "patient",
                "benign normal",
                "benign abnormal",
                "malicious normal",
                "malicious abnormal",
                "bn:ba ratio",
            ],
            &rows,
        )
    );
    println!(
        "\nMalicious samples land almost entirely in the abnormal quadrant (the attack\n\
         pushes values into hyperglycemic ranges); patients with many *benign* abnormal\n\
         samples give detectors cover to miss them — the false-negative mechanism."
    );
}

/// The attack-success campaigns behind Figures 9 and 10: one personalized
/// model per Subset-A patient and one aggregate model over all of them,
/// each attacked on every patient's test period with minimal (early-exit)
/// attacks. The two figures differ only in which windows they count.
pub struct SubsetACampaigns {
    /// One profile per patient, attacked through the patient's own model.
    personalized: Vec<PatientAttackProfile>,
    /// One profile per patient, attacked through the aggregate model.
    aggregate: Vec<PatientAttackProfile>,
}

impl SubsetACampaigns {
    /// Trains and attacks every model; patients keep cohort order.
    pub fn run(scale: Scale) -> Self {
        let (train_days, test_days) = scale.days();
        let cohort: Vec<_> = generate_cohort_sized(train_days, test_days)
            .into_iter()
            .filter(|d| d.profile.id.subset == Subset::A)
            .collect();
        let fc = forecast_config(scale);
        let mut pc = profiler_config(scale);
        pc.maximize = false; // attack-success experiment: early-exit semantics

        // Per-patient forecaster training and campaigns are independent and
        // internally seeded, so they fan out across the lgo-runtime pool.
        let personalized = lgo_runtime::par_map(&cohort, |d| {
            let model = GlucoseForecaster::train_personalized(&d.train, &fc);
            profile_patient(&model, d.profile.id, &d.test, &pc)
        });
        let all_train: Vec<&lgo_series::MultiSeries> = cohort.iter().map(|d| &d.train).collect();
        let aggregate_model = GlucoseForecaster::train_aggregate(&all_train, &fc);
        let aggregate = lgo_runtime::par_map(&cohort, |d| {
            profile_patient(&aggregate_model, d.profile.id, &d.test, &pc)
        });
        Self {
            personalized,
            aggregate,
        }
    }
}

/// Figure 9 (Appendix A) — percentage of originally *normal* glucose
/// instances misdiagnosed as hyperglycemic, for Subset A.
pub fn fig9(ctx: &Ctx) {
    misdiagnosis(ctx.subset_a(), OriginState::Normal);
}

/// Figure 10 (Appendix A) — percentage of originally *hypoglycemic* glucose
/// instances misdiagnosed as hyperglycemic, for Subset A. Hypo→hyper is the
/// most dangerous transition (severity 64 in Table I): the BGMS would dose
/// insulin onto an already-low patient.
pub fn fig10(ctx: &Ctx) {
    misdiagnosis(ctx.subset_a(), OriginState::Hypo);
}

/// Prints the misdiagnosis percentage of the windows of one origin per
/// personalized model, for the aggregate model, and their average.
fn misdiagnosis(campaigns: &SubsetACampaigns, origin: OriginState) {
    let origin_matches = |o: &lgo_attack::cgm::WindowOutcome| o.origin == origin;
    let rate_for = |prof: &PatientAttackProfile| -> Option<f64> {
        let of_origin: Vec<_> = prof
            .campaign
            .outcomes
            .iter()
            .filter(|o| origin_matches(o))
            .collect();
        if of_origin.is_empty() {
            return None;
        }
        Some(
            of_origin.iter().filter(|o| o.result.achieved).count() as f64
                / of_origin.len() as f64,
        )
    };

    let mut items = Vec::new();
    let mut rates = Vec::new();
    for prof in &campaigns.personalized {
        if let Some(r) = rate_for(prof) {
            items.push((format!("Patient {}", prof.patient), r * 100.0));
            rates.push(r);
        } else {
            items.push((format!("Patient {} (no such windows)", prof.patient), 0.0));
        }
    }

    // The paper reports one aggregate bar over every patient's windows.
    let mut agg_hits = 0usize;
    let mut agg_total = 0usize;
    for prof in &campaigns.aggregate {
        for o in &prof.campaign.outcomes {
            if origin_matches(o) {
                agg_total += 1;
                if o.result.achieved {
                    agg_hits += 1;
                }
            }
        }
    }
    if agg_total > 0 {
        let r = agg_hits as f64 / agg_total as f64;
        items.push(("All patients (aggregate)".into(), r * 100.0));
        rates.push(r);
    }
    if !rates.is_empty() {
        let avg = rates.iter().sum::<f64>() / rates.len() as f64;
        items.push(("Average".into(), avg * 100.0));
    }

    println!("\nmisdiagnosis percentage (% of attacked windows of this origin):");
    print!("{}", bar_chart(&items, 48));
    println!(
        "paper: patients respond heterogeneously to identical attack settings;\n\
         the resilient patient (A_5) shows the lowest percentage."
    );
}
