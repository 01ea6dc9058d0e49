//! `profile-cohort`: paper steps 1–4 over the full 12-patient cohort.
//!
//! One pass is one `try_run_pipeline_on` call with no detectors:
//! personalized BiLSTM training, three URET campaigns per patient, risk
//! profiles and `try_cluster_cohort`. Cohort simulation is set-up. The
//! cohort is the paper's fixed twelve archetypes and the URET explorer is
//! deterministic, so no input here takes a seed; the seed is recorded only.

use std::sync::Arc;

use lgo::core::pipeline::{try_run_pipeline_on, PipelineConfig, PipelineReport};
use lgo::core::profile::PatientAttackProfile;
use lgo::glucosim::{PatientDataset, PatientId};

use crate::cohort::{self, export_digest};
use crate::layers::{trace_counter, trace_sched, Layers};
use crate::report::{
    json_f64, json_str, median, quantile, repeated_setup, schedule_threads, time, timed_passes,
    Args, Outcome, SpeedMeter,
};

/// The committed reference: the less-vulnerable cluster, each patient's
/// (test-period attack success rate, mean risk), and the digest of the
/// canonical export of one pass.
pub const LESS_VULNERABLE: [&str; 3] = ["A_0", "A_1", "B_5"];
pub const PATIENTS: [(&str, f64, f64); 12] = [
    ("A_0", 0.3333333333333333, 699.1808466892204),
    ("A_1", 0.0, 0.0),
    ("A_2", 1.0, 14069.492127139689),
    ("A_3", 0.7272727272727273, 36493.676699820775),
    ("A_4", 0.7272727272727273, 20390.383827453497),
    ("A_5", 0.75, 19114.89560575555),
    ("B_0", 0.7, 13212.453499735158),
    ("B_1", 0.75, 25067.77325168616),
    ("B_2", 0.6666666666666666, 17688.680509001144),
    ("B_3", 0.6666666666666666, 32928.57299549756),
    ("B_4", 0.7777777777777778, 32262.812788128922),
    ("B_5", 0.42857142857142855, 19950.974915647646),
];
pub const EXPORT_DIGEST: u64 = 0x7e05_1b28_65a2_cd58;
/// A patient's test period has at most 12 attacked windows, so one window
/// more or less won moves the success rate by at least 1/12, past this.
pub const SUCCESS_TOLERANCE: f64 = 0.05;
/// Relative tolerance of a patient's mean risk.
pub const RISK_TOLERANCE: f64 = 0.01;

/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 9;

/// Checks one pass's clusters against the committed reference.
pub fn check_clusters(less: &[PatientId], more: &[PatientId]) -> Result<(), String> {
    let less: Vec<String> = less.iter().map(ToString::to_string).collect();
    if less != LESS_VULNERABLE {
        return Err(format!(
            "less-vulnerable {less:?}, reference {LESS_VULNERABLE:?}"
        ));
    }
    if less.len() + more.len() != PatientId::all().len() {
        return Err(format!(
            "clusters cover {} of 12 patients",
            less.len() + more.len()
        ));
    }
    Ok(())
}

/// One patient's (id, test-period attack success rate, mean risk).
type Figures = (String, f64, f64);

/// Each patient's test-period attack success rate and mean risk.
pub fn patient_figures(profiles: &[PatientAttackProfile]) -> Vec<Figures> {
    profiles
        .iter()
        .map(|p| {
            (
                p.patient.to_string(),
                p.success_rate().unwrap_or(f64::NAN),
                p.risk_profile.mean(),
            )
        })
        .collect()
}

/// Checks each patient's figures against the committed reference: the
/// success rate within [`SUCCESS_TOLERANCE`], the mean risk within
/// [`RISK_TOLERANCE`] of the reference value.
pub fn check_figures(figures: &[Figures]) -> Result<(), String> {
    if figures.len() != PATIENTS.len() {
        return Err(format!(
            "{} patient profiles, reference {}",
            figures.len(),
            PATIENTS.len()
        ));
    }
    let off: Vec<String> = figures
        .iter()
        .zip(PATIENTS)
        .filter(|((id, success, risk), (ref_id, ref_success, ref_risk))| {
            id != ref_id
                || !((success - ref_success).abs() <= SUCCESS_TOLERANCE)
                || !((risk - ref_risk).abs() <= RISK_TOLERANCE * ref_risk)
        })
        .map(|((id, success, risk), (ref_id, ref_success, ref_risk))| {
            format!("{id}: success {success:?} risk {risk:?}, reference {ref_id} {ref_success:?} / {ref_risk:?}")
        })
        .collect();
    if off.is_empty() {
        Ok(())
    } else {
        Err(off.join("; "))
    }
}

/// Patient figures as a JSON list of `[patient, success rate, mean risk]`.
fn figures_json(figures: &[Figures]) -> String {
    let items: Vec<String> = figures
        .iter()
        .map(|(id, success, risk)| {
            format!("[{}, {}, {}]", json_str(id), json_f64(*success), json_f64(*risk))
        })
        .collect();
    format!("[{}]", items.join(", "))
}

/// What the checks keep of one pass: skipped patients, export digest and
/// patient figures, or what went wrong.
type PassSummary = Result<(usize, u64, Vec<Figures>), String>;

fn summarize(report: Result<PipelineReport, lgo::core::error::LgoError>) -> PassSummary {
    let r = report.map_err(|e| e.to_string())?;
    check_clusters(&r.clusters.less_vulnerable, &r.clusters.more_vulnerable)?;
    Ok((
        r.skipped.len(),
        export_digest(&r),
        patient_figures(&r.profiles),
    ))
}

pub fn run(args: &Args) -> Outcome {
    let config = cohort::pipeline_config();
    let (datasets, setup_s) = repeated_setup(SETUP_REPS, cohort::simulate);
    if args.trace {
        return traced(args, &config, &datasets);
    }

    let mut out = Outcome::default();
    // One untimed pass lets the allocator warm up.
    let _ = try_run_pipeline_on(&config, datasets.clone());
    let mut meter = SpeedMeter::default();
    let passes = timed_passes(args.seconds, 3, &mut meter, |_| {
        let input = datasets.clone();
        let (report, wall) = time(|| try_run_pipeline_on(&config, input));
        (summarize(report), wall)
    });
    let mut digests = Vec::new();
    let mut problems = Vec::new();
    let mut figure_problems = Vec::new();
    let mut figures = Vec::new();
    for (summary, _, _) in &passes {
        out.attempted += datasets.len() as u64;
        match summary {
            Ok((skipped, digest, pass_figures)) => {
                out.failed += *skipped as u64;
                digests.push(*digest);
                if let Err(e) = check_figures(pass_figures) {
                    figure_problems.push(e);
                }
                figures.clone_from(pass_figures);
            }
            Err(e) => {
                out.failed += datasets.len() as u64;
                problems.push(e.clone());
            }
        }
    }
    problems.dedup();
    out.check(
        "clusters_match_reference",
        problems.is_empty(),
        problems.join("; "),
    );
    figure_problems.dedup();
    out.check(
        "profiles_match_reference",
        figure_problems.is_empty() && !figures.is_empty(),
        figure_problems.join("; "),
    );
    digests.dedup();
    out.check(
        "export_deterministic",
        digests.len() == 1,
        format!(
            "{} distinct export digest(s) over {} passes",
            digests.len(),
            passes.len()
        ),
    );
    let digest = digests.first().copied().unwrap_or(0);
    out.info("patients", figures_json(&figures));
    out.info("export_digest", json_str(&format!("{digest:016x}")));
    out.info(
        "export_bytes_identical_to_reference",
        (digest == EXPORT_DIGEST).to_string(),
    );

    let raw: Vec<f64> = passes.iter().map(|(_, w, _)| *w).collect();
    let walls: Vec<f64> = passes.iter().map(|(_, _, w)| *w).collect();
    out.info("pass_wall_s", format!("{raw:?}"));
    out.info("speed_factor", json_f64(meter.factor()));
    out.info("latency_p99_ms", json_f64(quantile(&walls, 0.99) * 1e3));
    out.metric("setup_s", setup_s, "s");
    out.metric("work_s", median(&walls), "s");
    out.metric("latency_p50_ms", median(&walls) * 1e3, "ms");
    out
}

/// The layer-attributed run: each pass is the assembled pipeline with every
/// public call timed, on one pool thread; one extra library pass at two
/// threads reads the pool's schedule counters and pins the assembly's
/// output to the pipeline's.
fn traced(args: &Args, config: &PipelineConfig, datasets: &[PatientDataset]) -> Outcome {
    let mut out = Outcome::default();
    let layers = Arc::new(Layers::default());
    lgo::trace::reset();
    let mut meter = SpeedMeter::default();
    let passes = timed_passes(args.seconds, 2, &mut meter, |_| {
        time(|| cohort::profile(config, datasets, Some(&layers)))
    });
    let n = passes.len() as f64;
    let tasks = trace_counter("runtime/tasks");
    let dtw_cells =
        trace_counter("cluster/dtw_cells_banded") + trace_counter("cluster/dtw_cells_pruned");

    let (mut windows, mut queries, mut successes) = (0u64, 0u64, 0u64);
    let mut exports = Vec::new();
    for (result, _, _) in &passes {
        out.attempted += datasets.len() as u64;
        match result {
            Ok(c) => {
                out.failed += c.skipped.len() as u64;
                for p in &c.patients {
                    windows += p.attacked_windows;
                    queries += p.queries;
                    successes += p.successes;
                }
                exports.push(c.canonical_json());
            }
            Err(e) => {
                out.failed += datasets.len() as u64;
                out.check("assembly_ran", false, e.to_string());
            }
        }
    }
    exports.dedup();

    lgo::runtime::set_threads(Some(schedule_threads()));
    lgo::trace::reset();
    let library = try_run_pipeline_on(config, datasets.to_vec());
    let steals = trace_sched("runtime/steals");
    let parks = trace_sched("runtime/parks");
    match &library {
        Ok(r) => {
            let export = lgo::core::export::canonical_json(r);
            out.check(
                "assembly_matches_pipeline",
                exports == [export],
                "assembled steps 1-4 export vs try_run_pipeline_on export",
            );
        }
        Err(e) => out.check("pipeline_ran", false, e.to_string()),
    }
    out.check(
        "clusters_match_reference",
        library.as_ref().is_ok_and(|r| {
            check_clusters(&r.clusters.less_vulnerable, &r.clusters.more_vulnerable).is_ok()
        }),
        format!("reference {LESS_VULNERABLE:?}"),
    );
    let figures = library
        .as_ref()
        .map_or_else(|_| Vec::new(), |r| patient_figures(&r.profiles));
    out.check(
        "profiles_match_reference",
        check_figures(&figures).is_ok(),
        check_figures(&figures).err().unwrap_or_default(),
    );

    let wall = passes.iter().map(|(_, w, _)| *w).sum::<f64>() / n;
    let scaled: Vec<f64> = passes.iter().map(|(_, _, w)| *w).collect();
    let forecast = layers.secs("forecast.train") / n;
    let attack = layers.secs("attack.campaign") / n;
    let cluster = layers.secs("cluster") / n;
    out.info("traced_work_s", json_f64(median(&scaled)));
    out.info("windows_s", json_f64(layers.secs("windows") / n));
    out.info("schedule_pass_threads", schedule_threads().to_string());

    let samples: usize = datasets.iter().map(|d| d.train.len()).sum();
    out.metric("forecast.train_s", forecast, "s");
    out.metric("forecast.train_samples", samples as f64, "count");
    out.metric("attack.campaign_s", attack, "s");
    out.metric("attack.windows", windows as f64 / n, "count");
    out.metric("attack.queries", queries as f64 / n, "count");
    out.metric(
        "attack.success_ratio",
        if windows == 0 {
            0.0
        } else {
            successes as f64 / windows as f64
        },
        "ratio",
    );
    out.metric("cluster.s", cluster, "s");
    out.metric("cluster.dtw_cells", dtw_cells as f64 / n, "count");
    out.metric("runtime.tasks", tasks as f64 / n, "count");
    out.metric("runtime.steals", steals as f64, "count");
    out.metric("runtime.parks", parks as f64, "count");
    out.metric("unattributed_s", wall - forecast - attack - cluster, "s");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(ids: &[&str]) -> Vec<PatientId> {
        ids.iter()
            .map(|s| {
                PatientId::all()
                    .into_iter()
                    .find(|p| p.to_string() == *s)
                    .expect("known patient")
            })
            .collect()
    }

    #[test]
    fn cluster_check_accepts_the_reference_and_rejects_perturbations() {
        let less = parse(&LESS_VULNERABLE);
        let more: Vec<PatientId> = PatientId::all()
            .into_iter()
            .filter(|p| !less.contains(p))
            .collect();
        assert!(check_clusters(&less, &more).is_ok());

        // One patient moved across the cut.
        let mut moved_less = less.clone();
        let mut moved_more = more.clone();
        moved_less.push(moved_more.remove(0));
        assert!(check_clusters(&moved_less, &moved_more).is_err());
        // A patient dropped from the cohort.
        assert!(check_clusters(&less, &more[1..]).is_err());
    }

    #[test]
    fn figure_check_accepts_the_reference_and_rejects_perturbations() {
        let reference: Vec<Figures> = PATIENTS
            .iter()
            .map(|&(id, success, risk)| (id.to_string(), success, risk))
            .collect();
        assert!(check_figures(&reference).is_ok());

        // One more attacked window won out of a patient's twelve.
        let mut won = reference.clone();
        won[4].1 += 1.0 / 12.0;
        assert!(check_figures(&won).is_err());
        // A risk profile moved by 2 %.
        let mut risk = reference.clone();
        risk[7].2 *= 1.02;
        assert!(check_figures(&risk).is_err());
        // A patient missing, and two patients swapped.
        assert!(check_figures(&reference[1..]).is_err());
        let mut swapped = reference.clone();
        swapped.swap(0, 1);
        assert!(check_figures(&swapped).is_err());
        // No success rate at all.
        let mut none = reference;
        none[0].1 = f64::NAN;
        assert!(check_figures(&none).is_err());
    }
}
