//! Cohort dataset generation: per-patient train/test series matching the
//! OhioT1DM footprint (≈10 000 training and ≈2 500 test samples per patient
//! at 5-minute cadence).

use lgo_series::MultiSeries;

use crate::params::{profiles, PatientProfile};
use crate::sim::{Simulator, SAMPLES_PER_DAY};

/// One patient's simulated data, split chronologically.
#[derive(Debug, Clone)]
pub struct PatientDataset {
    /// The patient's profile (includes the id).
    pub profile: PatientProfile,
    /// Training series (chronologically first).
    pub train: MultiSeries,
    /// Test series (chronologically after training).
    pub test: MultiSeries,
}

impl PatientDataset {
    /// Generates one patient's dataset with the given day counts.
    ///
    /// Train and test are cut from one continuous simulation so the test
    /// period really is the patient's future, exactly like the OhioT1DM
    /// protocol.
    ///
    /// # Panics
    ///
    /// Panics if either day count is zero.
    pub fn generate(profile: PatientProfile, train_days: usize, test_days: usize) -> Self {
        assert!(train_days > 0 && test_days > 0, "PatientDataset: zero days");
        let sim = Simulator::new(profile.clone());
        let full = sim.run_days(train_days + test_days);
        let cut = train_days * SAMPLES_PER_DAY;
        let train = full.slice(0, cut);
        let test = full.slice(cut, full.len());
        Self {
            profile,
            train,
            test,
        }
    }
}

/// Generates the cohort with custom train/test day counts — smaller sizes
/// keep unit tests and examples fast.
///
/// # Panics
///
/// Panics if either day count is zero.
pub fn generate_cohort_sized(train_days: usize, test_days: usize) -> Vec<PatientDataset> {
    // Each patient's simulation is seeded from their own profile, so the
    // per-patient fan-out over the lgo-runtime pool is bit-identical to
    // the serial loop it replaces.
    let profiles = profiles();
    lgo_runtime::par_map(&profiles, |p| {
        PatientDataset::generate(p.clone(), train_days, test_days)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{profile, PatientId, Subset};

    #[test]
    fn split_is_chronological_and_sized() {
        let d = PatientDataset::generate(profile(PatientId::new(Subset::A, 0)), 3, 1);
        assert_eq!(d.train.len(), 3 * SAMPLES_PER_DAY);
        assert_eq!(d.test.len(), SAMPLES_PER_DAY);
        // Continuity: train+test equals the full simulation.
        let full = Simulator::new(d.profile.clone()).run_days(4);
        assert_eq!(d.train.rows(), &full.rows()[..3 * SAMPLES_PER_DAY]);
        assert_eq!(d.test.rows(), &full.rows()[3 * SAMPLES_PER_DAY..]);
    }

    #[test]
    fn small_cohort_has_twelve_patients() {
        let cohort = generate_cohort_sized(1, 1);
        assert_eq!(cohort.len(), 12);
        let mut ids: Vec<String> = cohort.iter().map(|d| d.profile.id.to_string()).collect();
        ids.dedup();
        assert_eq!(ids.len(), 12);
    }

    #[test]
    #[should_panic(expected = "zero days")]
    fn zero_days_rejected() {
        let _ = PatientDataset::generate(profile(PatientId::new(Subset::A, 0)), 0, 1);
    }
}
