//! Steps 1–4 of the risk-profiling framework: the severity coefficients
//! (Table I), the vulnerability clusters (Table II), the risk profiles and
//! dendrograms (Figure 3), and the two sensitivity ablations of the
//! clusters, which re-risk and re-cluster the shared campaigns.

use lgo_bench::percent_or_na;
use lgo_cluster::Linkage;
use lgo_core::profile::{profile_campaign, ProfilerConfig};
use lgo_core::severity::SeverityTable;
use lgo_core::vuln::cluster_cohort;
use lgo_eval::render::table;
use lgo_glucosim::PatientId;

use crate::Ctx;

/// The three coefficient families: the paper's exponential Table I, then
/// the linear and uniform alternatives.
fn severity_families() -> [SeverityTable; 3] {
    [
        SeverityTable::paper_default(),
        SeverityTable::linear(),
        SeverityTable::uniform(),
    ]
}

/// Patient ids as a sorted, comma-separated list.
fn sorted_ids(ids: &[PatientId]) -> String {
    let mut v: Vec<String> = ids.iter().map(|p| p.to_string()).collect();
    v.sort();
    v.join(", ")
}

/// Table I — severity coefficients for different state transitions, for
/// every coefficient family the severity ablation compares.
pub fn table1(_ctx: &Ctx) {
    for variant in severity_families() {
        println!("\ncoefficient family: {}", variant.name());
        let rows: Vec<Vec<String>> = variant
            .ranked_transitions()
            .into_iter()
            .map(|(benign, adversarial, s)| {
                vec![benign.to_string(), adversarial.to_string(), format!("{s}")]
            })
            .collect();
        print!("{}", table(&["benign", "adversarial", "severity (S)"], &rows));
    }
}

/// Table II — per-patient campaign outcomes and the resulting
/// less/more-vulnerable membership, next to the paper's reference clusters.
pub fn table2(ctx: &Ctx) {
    let report = ctx.profiled();
    println!("\nper-patient campaign outcomes:");
    let rows: Vec<Vec<String>> = report
        .profiles
        .iter()
        .map(|p| {
            vec![
                p.patient.to_string(),
                percent_or_na(p.success_rate()),
                format!("{:.0}", p.risk_profile.mean()),
                format!("{:.2}", p.risk_profile.active_fraction()),
                if report.clusters.is_less_vulnerable(p.patient) {
                    "LESS vulnerable".into()
                } else {
                    "more vulnerable".into()
                },
            ]
        })
        .collect();
    print!(
        "{}",
        table(
            &["patient", "attack success", "mean risk", "active frac", "cluster"],
            &rows,
        )
    );

    println!("\nreproduced clusters:");
    println!("  less vulnerable: {}", sorted_ids(&report.clusters.less_vulnerable));
    println!("  more vulnerable: {}", sorted_ids(&report.clusters.more_vulnerable));
    println!("\npaper (Table II):");
    println!("  less vulnerable: A_5, B_1, B_2");
    println!("  more vulnerable: A_0, A_1, A_2, A_3, A_4, B_0, B_3, B_4, B_5");
}

/// Figure 3 — a compact rendering of each patient's risk profile (binned
/// means) and the dendrogram of each subset, the textual analogue of the
/// paper's Figure 3(a)/(b).
pub fn fig3(ctx: &Ctx) {
    let report = ctx.profiled();
    println!("\nrisk profiles (log1p-compressed, 16 bins, '#' height = bin mean):");
    for p in &report.profiles {
        let bins = p.risk_profile.feature_vector(16);
        let max = bins.iter().cloned().fold(f64::MIN, f64::max).max(1e-9);
        let bars: String = bins
            .iter()
            .map(|&v| {
                let level = (v / max * 7.0).round() as usize;
                char::from_digit(level as u32, 10).unwrap_or('#')
            })
            .collect();
        println!(
            "  {:<4} |{}|  mean risk {:>12.0}  peak {:>12.0}",
            p.patient.to_string(),
            bars,
            p.risk_profile.mean(),
            p.risk_profile.peak()
        );
    }

    for (subset, clusters) in &report.clusters.per_subset {
        println!("\ndendrogram, Subset {subset} (average linkage):");
        print!("{}", clusters.dendrogram.render_ascii_with(Some(&clusters.labels)));
        let fmt = |ids: &[PatientId]| {
            ids.iter().map(|p| p.to_string()).collect::<Vec<_>>().join(", ")
        };
        println!("  -> less vulnerable: {}", fmt(&clusters.less_vulnerable));
        println!("  -> more vulnerable: {}", fmt(&clusters.more_vulnerable));
    }
    println!("\npaper: Subset A splits {{A_5}} from the rest; Subset B splits {{B_1, B_2}}.");
}

/// Ablation — sensitivity of the clusters to the linkage criterion. Linkage
/// only enters step 4, so each variant re-clusters the shared profiles.
pub fn ablation_linkage(ctx: &Ctx) {
    let report = ctx.profiled();
    let mut rows = Vec::new();
    let mut memberships = Vec::new();
    for linkage in [
        Linkage::Single,
        Linkage::Complete,
        Linkage::Average,
        Linkage::Ward,
    ] {
        let less = sorted_ids(&cluster_cohort(&report.profiles, linkage).less_vulnerable);
        rows.push(vec![format!("{linkage:?}"), less.clone()]);
        memberships.push(less);
    }
    println!("\nless-vulnerable cluster per linkage:");
    print!("{}", table(&["linkage", "less vulnerable"], &rows));
    let stable = memberships.iter().all(|m| m == &memberships[0]);
    println!("\ncluster membership stable across linkages: {stable}");
}

/// Ablation — sensitivity of the clusters to the severity coefficient
/// family (the paper's §V limitation 4 / future work). The campaigns never
/// read the severity table, so each family re-risks the shared campaigns
/// (step 3) and re-clusters them (step 4).
pub fn ablation_severity(ctx: &Ctx) {
    let report = ctx.profiled();
    let mut rows = Vec::new();
    let mut memberships = Vec::new();
    for severity in severity_families() {
        let name = severity.name();
        let profiler = ProfilerConfig {
            severity,
            ..ctx.config.profiler.clone()
        };
        let profiles: Vec<_> = report
            .profiles
            .iter()
            .map(|p| profile_campaign(p.patient, p.campaign.clone(), &profiler))
            .collect();
        let less = sorted_ids(&cluster_cohort(&profiles, ctx.config.linkage).less_vulnerable);
        rows.push(vec![name.to_string(), less.clone()]);
        memberships.push(less);
    }
    println!("\nless-vulnerable cluster per coefficient family:");
    print!("{}", table(&["severity family", "less vulnerable"], &rows));

    let stable = memberships.iter().all(|m| m == &memberships[0]);
    println!(
        "\ncluster membership stable across coefficient families: {stable}\n\
         (the paper flags coefficient choice as a threat to validity; stability\n\
         here means the exponential-vs-linear choice does not drive the result)"
    );
}
