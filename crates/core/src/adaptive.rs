//! The paper's stated future work (§V and Appendix D): an **adaptive risk
//! profiler** that addresses concept drift by regularly reassessing patient
//! risk profiles as new data arrives — patients who become more resilient
//! join the retraining roster, patients who become more vulnerable drop
//! out.
//!
//! [`AdaptiveProfiler`] implements that iterative process on top of the
//! static steps 1–4: each call to [`AdaptiveProfiler::reassess`] profiles
//! the cohort on its *latest* data and re-derives the vulnerability
//! clusters; the epoch history exposes membership churn so a deployment
//! can decide when retraining the detectors is worthwhile.

use lgo_cluster::Linkage;
use lgo_forecast::GlucoseForecaster;
use lgo_glucosim::PatientId;
use lgo_series::MultiSeries;

use crate::profile::{profile_patient, PatientAttackProfile, ProfilerConfig};
use crate::vuln::{cluster_cohort, CohortClusters};

/// One reassessment epoch: the profiles computed on that epoch's data and
/// the clusters derived from them.
#[derive(Debug, Clone)]
pub struct EpochRecord {
    /// Monotone epoch counter (0 for the first reassessment).
    pub epoch: usize,
    /// Per-patient campaign + risk profile on this epoch's data.
    pub profiles: Vec<PatientAttackProfile>,
    /// The vulnerability clusters of this epoch.
    pub clusters: CohortClusters,
}

/// A membership transition observed between two consecutive epochs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MembershipChange {
    /// Who moved.
    pub patient: PatientId,
    /// The epoch at which the new membership first held.
    pub epoch: usize,
    /// `true` when the patient *joined* the less-vulnerable cluster
    /// (recovered resilience), `false` when they left it.
    pub joined_less_vulnerable: bool,
}

/// Iterative re-profiling across data epochs.
///
/// # Examples
///
/// See `examples/adaptive_defense.rs` and the harness's `repro_all
/// adaptive` section for end-to-end usage on drifting simulated patients.
#[derive(Debug, Clone)]
pub struct AdaptiveProfiler {
    config: ProfilerConfig,
    linkage: Linkage,
    history: Vec<EpochRecord>,
}

impl AdaptiveProfiler {
    /// Creates a profiler with the attack/risk settings used at every
    /// reassessment.
    pub fn new(config: ProfilerConfig, linkage: Linkage) -> Self {
        Self {
            config,
            linkage,
            history: Vec::new(),
        }
    }

    /// Profiles every patient on their latest data and re-derives the
    /// clusters, appending (and returning) the new epoch record.
    ///
    /// `cohort` pairs each patient's deployed forecaster with the data
    /// window to assess on (typically the most recent days).
    ///
    /// # Panics
    ///
    /// Panics if `cohort` has fewer than two patients or any series is too
    /// short for a full attack window.
    pub fn reassess(
        &mut self,
        cohort: &[(PatientId, &GlucoseForecaster, &MultiSeries)],
    ) -> &EpochRecord {
        let profiles: Vec<PatientAttackProfile> = cohort
            .iter()
            .map(|(id, forecaster, series)| profile_patient(forecaster, *id, series, &self.config))
            .collect();
        self.reassess_profiles(profiles)
    }

    /// [`reassess`](Self::reassess) for callers that computed the attack
    /// profiles themselves — e.g. with a pluggable attacker from the attack
    /// zoo (`lgo_zoo::try_profile_patient_with`) instead of this profiler's
    /// built-in URET campaign. Re-derives the clusters and appends (and
    /// returns) the new epoch record.
    ///
    /// # Panics
    ///
    /// Panics if `profiles` has fewer than two patients.
    pub fn reassess_profiles(&mut self, profiles: Vec<PatientAttackProfile>) -> &EpochRecord {
        assert!(
            profiles.len() >= 2,
            "reassess: need at least two patients, got {}",
            profiles.len()
        );
        let clusters = cluster_cohort(&profiles, self.linkage);
        self.history.push(EpochRecord {
            epoch: self.history.len(),
            profiles,
            clusters,
        });
        self.history.last().expect("just pushed") // lint: allow(L1): an EpochRecord was pushed on the line above
    }

    /// The most recent epoch, if any reassessment has run.
    pub fn current(&self) -> Option<&EpochRecord> {
        self.history.last()
    }

    /// All epochs in order.
    pub fn history(&self) -> &[EpochRecord] {
        &self.history
    }

    /// Every membership transition between consecutive epochs, in epoch
    /// order — the churn signal a deployment watches to schedule detector
    /// retraining.
    pub fn membership_changes(&self) -> Vec<MembershipChange> {
        let mut changes = Vec::new();
        for pair in self.history.windows(2) {
            let (prev, next) = (&pair[0], &pair[1]);
            for p in &next.profiles {
                let was = prev.clusters.is_less_vulnerable(p.patient);
                let is = next.clusters.is_less_vulnerable(p.patient);
                if was != is {
                    changes.push(MembershipChange {
                        patient: p.patient,
                        epoch: next.epoch,
                        joined_less_vulnerable: is,
                    });
                }
            }
        }
        changes
    }

    /// Fraction of patients whose membership never changed across the
    /// recorded epochs (1.0 = perfectly stable profiling). Returns `None`
    /// with fewer than two epochs.
    pub fn stability(&self) -> Option<f64> {
        if self.history.len() < 2 {
            return None;
        }
        let patients: Vec<PatientId> = self.history[0]
            .profiles
            .iter()
            .map(|p| p.patient)
            .collect();
        let changed: std::collections::BTreeSet<PatientId> = self
            .membership_changes()
            .into_iter()
            .map(|c| c.patient)
            .collect();
        Some(1.0 - changed.len() as f64 / patients.len().max(1) as f64)
    }

    /// Whether retraining is advisable at the latest epoch: true when any
    /// membership changed relative to the previous epoch.
    pub fn retraining_due(&self) -> bool {
        let n = self.history.len();
        if n < 2 {
            return false;
        }
        self.membership_changes().iter().any(|c| c.epoch == n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lgo_forecast::ForecastConfig;
    use lgo_glucosim::{profile, Simulator, Subset};

    fn quick_profiler() -> AdaptiveProfiler {
        AdaptiveProfiler::new(
            ProfilerConfig {
                stride: 48,
                explorer_steps: 3,
                ..ProfilerConfig::default()
            },
            Linkage::Average,
        )
    }

    fn forecaster_for(id: PatientId) -> (GlucoseForecaster, MultiSeries) {
        let sim = Simulator::new(profile(id));
        let train = sim.run_days(2);
        let fc = ForecastConfig {
            hidden: 6,
            epochs: 1,
            ..ForecastConfig::default()
        };
        (GlucoseForecaster::train_personalized(&train, &fc), train)
    }

    #[test]
    fn reassess_appends_epochs_and_tracks_stability() {
        let ids = [
            PatientId::new(Subset::A, 2),
            PatientId::new(Subset::A, 5),
            PatientId::new(Subset::B, 2),
        ];
        let models: Vec<(GlucoseForecaster, MultiSeries)> =
            ids.iter().map(|&id| forecaster_for(id)).collect();
        let mut profiler = quick_profiler();
        assert!(profiler.current().is_none());
        assert!(!profiler.retraining_due());
        assert_eq!(profiler.stability(), None);

        for _ in 0..2 {
            let cohort: Vec<(PatientId, &GlucoseForecaster, &MultiSeries)> = ids
                .iter()
                .zip(&models)
                .map(|(&id, (f, s))| (id, f, s))
                .collect();
            let record = profiler.reassess(&cohort);
            assert_eq!(record.profiles.len(), 3);
        }
        assert_eq!(profiler.history().len(), 2);
        assert_eq!(profiler.current().unwrap().epoch, 1);
        // Identical data both epochs -> identical clusters -> no churn.
        assert_eq!(profiler.membership_changes(), vec![]);
        assert_eq!(profiler.stability(), Some(1.0));
        assert!(!profiler.retraining_due());
    }

    #[test]
    #[should_panic(expected = "at least two patients")]
    fn reassess_rejects_tiny_cohorts() {
        let id = PatientId::new(Subset::A, 0);
        let (f, s) = forecaster_for(id);
        let mut profiler = quick_profiler();
        let _ = profiler.reassess(&[(id, &f, &s)]);
    }
}
