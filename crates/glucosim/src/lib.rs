//! # lgo-glucosim
//!
//! An ODE-based synthetic Type-1-diabetes patient simulator that stands in
//! for the OhioT1DM dataset (Marling & Bunescu, 2020), which is gated behind
//! a Data Use Agreement and cannot be redistributed.
//!
//! The simulator combines:
//!
//! - the **Bergman minimal model** of glucose–insulin dynamics (plasma
//!   glucose, remote insulin effect, plasma insulin),
//! - a **two-compartment gut absorption** model for meals,
//! - an insulin **pump** with basal rates and meal boluses (with per-patient
//!   carb-counting error and occasionally missed boluses),
//! - circadian effects (dawn phenomenon), exercise (heart-rate coupled
//!   insulin-sensitivity boosts), and an AR(1) **CGM sensor noise** model.
//!
//! Twelve deterministic, seeded patient profiles are provided in two
//! subsets mirroring the paper's *Subset A* (2018 cohort) and *Subset B*
//! (2020 cohort). Profiles span tight-control to high-variability
//! phenotypes, which is exactly the axis the paper's risk-profiling
//! framework discriminates: tight-control patients have a high ratio of
//! normal to abnormal benign glucose samples (the paper's Figure 4) and turn
//! out less vulnerable to the evasion attack.
//!
//! # Examples
//!
//! ```
//! use lgo_glucosim::{PatientId, Simulator, Subset};
//!
//! let profile = lgo_glucosim::profile(PatientId::new(Subset::A, 5));
//! let sim = Simulator::new(profile);
//! let series = sim.run_days(2);
//! assert_eq!(series.len(), 2 * 288); // 5-minute cadence
//! let cgm = series.channel("cgm").unwrap();
//! assert!(cgm.iter().all(|&g| (20.0..=499.0).contains(&g)));
//! ```

mod dataset;
mod events;
mod faults;
mod ode;
mod params;
mod sensor;
mod sim;
mod stream;

pub use dataset::{generate_cohort_sized, PatientDataset};
pub use events::{DailyEvents, Event, EventKind};
pub use faults::{FaultInjector, FaultKind, FAULT_CGM_MAX, FAULT_CGM_MIN};
pub use ode::{OdeParams, PhysioState};
pub use params::{profile, profiles, PatientId, PatientProfile, Subset};
pub use sensor::SensorModel;
pub use sim::{Simulator, CHANNELS, SAMPLES_PER_DAY, STEP_MINUTES};
pub use stream::{synthetic_profile, CohortStream, StreamedPatient};
