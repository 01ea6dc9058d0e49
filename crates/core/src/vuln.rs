//! Step 4: hierarchical clustering of risk profiles into vulnerability
//! clusters (the paper's Figure 3 dendrograms and Table II).

use lgo_cluster::{agglomerate_points, Dendrogram, Linkage};
use lgo_glucosim::PatientId;

use crate::error::LgoError;
use crate::profile::PatientAttackProfile;

/// Number of pooled bins used when embedding risk profiles for clustering.
pub const PROFILE_BINS: usize = 32;

/// Embeds each patient's step-1/2/3 record for clustering.
///
/// Two aligned per-bin channels are concatenated:
///
/// 1. the `log1p`-compressed risk profile (step 3), and
/// 2. the attack-outcome series (fraction of achieved misdiagnoses per bin).
///
/// Every dimension is then z-normalized **across patients**, so the two
/// channels contribute on equal footing regardless of their raw scales.
/// The outcome channel is what lets the clustering tell a *resilient* zero
/// (attack failed, deviation small) from an *already-hyperglycemic* zero
/// (identity transition, severity 0) — the two look identical in the pure
/// risk channel but are opposites in vulnerability.
pub fn embed_profiles(profiles: &[PatientAttackProfile], bins: usize) -> Vec<Vec<f64>> {
    assert!(!profiles.is_empty(), "embed_profiles: no profiles");
    let mut points: Vec<Vec<f64>> = profiles
        .iter()
        .map(|p| {
            let mut v = p.risk_profile.feature_vector(bins);
            let success = p.success_series();
            let n = success.len().max(1);
            for b in 0..bins {
                let start = b * n / bins;
                let end = ((b + 1) * n / bins).max(start + 1).min(n);
                let seg = &success[start.min(n - 1)..end];
                v.push(seg.iter().sum::<f64>() / seg.len() as f64);
            }
            v
        })
        .collect();
    // Z-normalize each dimension across patients; constant dimensions are
    // zeroed so they cannot contribute noise.
    let dims = points[0].len();
    for d in 0..dims {
        let n = points.len() as f64;
        let mean = points.iter().map(|p| p[d]).sum::<f64>() / n;
        let var = points.iter().map(|p| (p[d] - mean) * (p[d] - mean)).sum::<f64>() / n;
        let std = var.sqrt();
        for p in &mut points {
            p[d] = if std > 1e-12 { (p[d] - mean) / std } else { 0.0 };
        }
    }
    points
}

/// The outcome of clustering one cohort's risk profiles.
#[derive(Debug, Clone)]
pub struct VulnerabilityClusters {
    /// Patients in the cluster with the lower attack success — the ones the
    /// detectors should be trained on.
    pub less_vulnerable: Vec<PatientId>,
    /// The remaining patients.
    pub more_vulnerable: Vec<PatientId>,
    /// The dendrogram over the cohort (leaf order = input order).
    pub dendrogram: Dendrogram,
    /// Leaf labels in input order (patient display names).
    pub labels: Vec<String>,
}

impl VulnerabilityClusters {
    /// Whether a patient landed in the less-vulnerable cluster.
    pub fn is_less_vulnerable(&self, id: PatientId) -> bool {
        self.less_vulnerable.contains(&id)
    }
}

/// Clusters a cohort's risk profiles with hierarchical clustering and prunes
/// the dendrogram at the level that best separates vulnerability.
///
/// The paper prunes "at the desired level according to the distances between
/// clusters" and then labels the clusters by cross-checking against the
/// attack misclassification percentages. This function automates that
/// procedure: candidate cuts `k = 2..=4` are scored by how much lower the
/// mean attack success of the most-resilient cluster is than the rest's
/// (considering only minority clusters — the defense trains on a resilient
/// minority, never on "almost everyone"); the best-separating cut wins, with
/// smaller `k` breaking ties.
///
/// # Panics
///
/// Panics if `profiles` has fewer than two entries.
pub fn cluster_vulnerability(
    profiles: &[PatientAttackProfile],
    linkage: Linkage,
) -> VulnerabilityClusters {
    match try_cluster_vulnerability(profiles, linkage) {
        Ok(c) => c,
        // lint: allow(L1): documented panicking wrapper; try_cluster_vulnerability is the checked path
        Err(e) => panic!("cluster_vulnerability: {e}"),
    }
}

/// Fallible [`cluster_vulnerability`].
///
/// # Errors
///
/// Returns [`LgoError::TooFewProfiles`] when `profiles` has fewer than two
/// entries.
pub fn try_cluster_vulnerability(
    profiles: &[PatientAttackProfile],
    linkage: Linkage,
) -> Result<VulnerabilityClusters, LgoError> {
    if profiles.len() < 2 {
        return Err(LgoError::TooFewProfiles {
            got: profiles.len(),
        });
    }
    let points = embed_profiles(profiles, PROFILE_BINS);
    let dendrogram = agglomerate_points(&points, linkage);

    // A patient with no attackable (non-hyper-origin) windows offered the
    // attack no resistance evidence; count them as fully vulnerable rather
    // than resilient.
    let success_of = |p: &PatientAttackProfile| p.success_rate().unwrap_or(1.0);
    let n = profiles.len();
    let max_k = 4.min(n);
    let mut best: Option<(f64, usize, Vec<usize>, usize)> = None; // (gap, k, labels, cluster)
    for k in 2..=max_k {
        let labels = dendrogram.cut_k(k);
        for cluster in 0..k {
            let (mut in_sum, mut in_n, mut out_sum, mut out_n) = (0.0, 0usize, 0.0, 0usize);
            for (p, &l) in profiles.iter().zip(&labels) {
                if l == cluster {
                    in_sum += success_of(p);
                    in_n += 1;
                } else {
                    out_sum += success_of(p);
                    out_n += 1;
                }
            }
            if in_n == 0 || out_n == 0 || in_n * 2 > n {
                continue; // only minority clusters qualify as "less vulnerable"
            }
            // Size-weighted separation: a two-patient cluster with almost
            // the same per-patient gap as a singleton carries more evidence
            // of a genuine resilient subgroup, so weight by sqrt(|cluster|).
            let gap = (out_sum / out_n as f64 - in_sum / in_n as f64)
                * (in_n as f64).sqrt();
            if best.as_ref().is_none_or(|&(g, bk, _, _)| {
                gap > g + 1e-12 || (gap > g - 1e-12 && k < bk)
            }) {
                best = Some((gap, k, labels.clone(), cluster));
            }
        }
    }
    let (_, _, labels, less_cluster) = best.unwrap_or_else(|| {
        // Degenerate cohorts (e.g. two patients) fall back to the k=2 cut
        // with the lower-success side as less vulnerable.
        let labels = dendrogram.cut_k(2);
        (0.0, 2, labels, 0)
    });

    let mut less = Vec::new();
    let mut more = Vec::new();
    for (p, &l) in profiles.iter().zip(&labels) {
        if l == less_cluster {
            less.push(p.patient);
        } else {
            more.push(p.patient);
        }
    }
    // The fallback above may have mislabelled: ensure the "less" side really
    // has the lower mean success.
    let mean = |ids: &[PatientId]| -> f64 {
        let vals: Vec<f64> = profiles
            .iter()
            .filter(|p| ids.contains(&p.patient))
            .map(success_of)
            .collect();
        if vals.is_empty() {
            f64::INFINITY
        } else {
            vals.iter().sum::<f64>() / vals.len() as f64
        }
    };
    if mean(&less) > mean(&more) {
        std::mem::swap(&mut less, &mut more);
    }
    Ok(VulnerabilityClusters {
        less_vulnerable: less,
        more_vulnerable: more,
        dendrogram,
        labels: profiles.iter().map(|p| p.patient.to_string()).collect(),
    })
}

/// The cohort-level clustering result: one dendrogram per subset (the
/// paper's Figure 3 clusters Subsets A and B separately) and the combined
/// less/more-vulnerable membership (Table II).
#[derive(Debug, Clone)]
pub struct CohortClusters {
    /// Per-subset clustering, in input order of first appearance.
    pub per_subset: Vec<(lgo_glucosim::Subset, VulnerabilityClusters)>,
    /// Union of the per-subset less-vulnerable clusters.
    pub less_vulnerable: Vec<PatientId>,
    /// Union of the per-subset more-vulnerable clusters.
    pub more_vulnerable: Vec<PatientId>,
}

impl CohortClusters {
    /// Whether a patient landed in the less-vulnerable side.
    pub fn is_less_vulnerable(&self, id: PatientId) -> bool {
        self.less_vulnerable.contains(&id)
    }
}

/// Clusters a cohort the way the paper does: each subset's risk profiles
/// are clustered separately (Figure 3), and the per-subset less-vulnerable
/// clusters are unioned into the final membership (Table II).
///
/// Subsets with fewer than two profiled patients are placed wholesale into
/// the more-vulnerable side (no dendrogram can be built for them).
///
/// # Panics
///
/// Panics if `profiles` is empty.
pub fn cluster_cohort(
    profiles: &[PatientAttackProfile],
    linkage: Linkage,
) -> CohortClusters {
    match try_cluster_cohort(profiles, linkage) {
        Ok(c) => c,
        // lint: allow(L1): documented panicking wrapper; try_cluster_cohort is the checked path
        Err(e) => panic!("cluster_cohort: {e}"),
    }
}

/// Fallible [`cluster_cohort`].
///
/// # Errors
///
/// Returns [`LgoError::NoProfiles`] when `profiles` is empty.
pub fn try_cluster_cohort(
    profiles: &[PatientAttackProfile],
    linkage: Linkage,
) -> Result<CohortClusters, LgoError> {
    if profiles.is_empty() {
        return Err(LgoError::NoProfiles);
    }
    let mut subsets: Vec<lgo_glucosim::Subset> = Vec::new();
    for p in profiles {
        if !subsets.contains(&p.patient.subset) {
            subsets.push(p.patient.subset);
        }
    }
    let mut per_subset = Vec::new();
    let mut less = Vec::new();
    let mut more = Vec::new();
    for subset in subsets {
        let members: Vec<PatientAttackProfile> = profiles
            .iter()
            .filter(|p| p.patient.subset == subset)
            .cloned()
            .collect();
        if members.len() < 2 {
            more.extend(members.iter().map(|p| p.patient));
            continue;
        }
        let clusters = try_cluster_vulnerability(&members, linkage)?;
        less.extend(clusters.less_vulnerable.iter().copied());
        more.extend(clusters.more_vulnerable.iter().copied());
        per_subset.push((subset, clusters));
    }
    Ok(CohortClusters {
        per_subset,
        less_vulnerable: less,
        more_vulnerable: more,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::PatientAttackProfile;
    use crate::risk::RiskProfile;
    use lgo_attack::cgm::{CampaignReport, OriginState, WindowOutcome};
    use lgo_attack::AttackResult;
    use lgo_glucosim::Subset;

    /// Builds a synthetic profile with a given constant risk level and
    /// attack success.
    fn synthetic(id: PatientId, risk: f64, successes: usize, failures: usize) -> PatientAttackProfile {
        let outcome = |achieved: bool, i: usize| WindowOutcome {
            index: i,
            fasting: true,
            benign_prediction: 100.0,
            origin: OriginState::Normal,
            result: AttackResult {
                best_input: vec![vec![100.0; 4]; 12],
                best_output: if achieved { 200.0 } else { 110.0 },
                achieved,
                queries: 10,
                steps: 1,
                first_hit: None,
            },
        };
        let mut outcomes = Vec::new();
        for i in 0..successes {
            outcomes.push(outcome(true, i));
        }
        for i in 0..failures {
            outcomes.push(outcome(false, successes + i));
        }
        PatientAttackProfile {
            patient: id,
            risk_profile: RiskProfile::new(id.to_string(), vec![risk; 64]),
            campaign: CampaignReport { outcomes },
        }
    }

    #[test]
    fn separates_high_and_low_risk_groups() {
        let ids = PatientId::all();
        let mut profiles = Vec::new();
        // Patients 0..3 resilient (low risk, low success), rest vulnerable.
        for (i, id) in ids.iter().take(8).enumerate() {
            let p = if i < 3 {
                synthetic(*id, 10.0, 1, 9)
            } else {
                synthetic(*id, 1e6, 9, 1)
            };
            profiles.push(p);
        }
        let clusters = cluster_vulnerability(&profiles, Linkage::Average);
        assert_eq!(clusters.less_vulnerable.len(), 3);
        for id in ids.iter().take(3) {
            assert!(clusters.is_less_vulnerable(*id), "{id} misplaced");
        }
        assert_eq!(clusters.more_vulnerable.len(), 5);
        assert_eq!(clusters.labels.len(), 8);
        // Dendrogram covers all leaves.
        assert_eq!(clusters.dendrogram.n_leaves(), 8);
    }

    #[test]
    fn success_rate_breaks_label_assignment_ties() {
        // Two clusters with *identical* risk magnitude but different attack
        // success must still be labelled by success rate.
        let a = synthetic(PatientId::new(Subset::A, 0), 100.0, 0, 10);
        let b = synthetic(PatientId::new(Subset::A, 1), 100.0, 0, 10);
        let c = synthetic(PatientId::new(Subset::B, 0), 101.0, 10, 0);
        let d = synthetic(PatientId::new(Subset::B, 1), 101.0, 10, 0);
        let clusters = cluster_vulnerability(&[a, b, c, d], Linkage::Average);
        assert!(clusters.is_less_vulnerable(PatientId::new(Subset::A, 0)));
        assert!(!clusters.is_less_vulnerable(PatientId::new(Subset::B, 0)));
    }

    #[test]
    #[should_panic(expected = "at least two profiles")]
    fn single_profile_rejected() {
        let p = synthetic(PatientId::new(Subset::A, 0), 1.0, 1, 1);
        let _ = cluster_vulnerability(&[p], Linkage::Average);
    }

    #[test]
    fn cohort_clustering_is_per_subset() {
        // Subset A: one resilient + three vulnerable; Subset B likewise.
        let mut profiles = Vec::new();
        for subset in [Subset::A, Subset::B] {
            profiles.push(synthetic(PatientId::new(subset, 0), 10.0, 1, 9));
            for i in 1..4 {
                profiles.push(synthetic(PatientId::new(subset, i), 1e6, 9, 1));
            }
        }
        let cohort = cluster_cohort(&profiles, Linkage::Average);
        assert_eq!(cohort.per_subset.len(), 2);
        assert_eq!(cohort.less_vulnerable.len(), 2);
        assert!(cohort.is_less_vulnerable(PatientId::new(Subset::A, 0)));
        assert!(cohort.is_less_vulnerable(PatientId::new(Subset::B, 0)));
        assert_eq!(cohort.more_vulnerable.len(), 6);
    }

    #[test]
    fn lone_subset_member_defaults_to_more_vulnerable() {
        let mut profiles = vec![
            synthetic(PatientId::new(Subset::A, 0), 10.0, 1, 9),
            synthetic(PatientId::new(Subset::A, 1), 1e6, 9, 1),
        ];
        profiles.push(synthetic(PatientId::new(Subset::B, 0), 10.0, 1, 9));
        let cohort = cluster_cohort(&profiles, Linkage::Average);
        assert!(!cohort.is_less_vulnerable(PatientId::new(Subset::B, 0)));
        assert_eq!(cohort.per_subset.len(), 1);
    }
}
