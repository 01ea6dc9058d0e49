//! # lgo-bench
//!
//! The experiment harness. `repro_all` reproduces the paper's evaluation:
//! every table and figure is one named section of it (`repro_all table2
//! fig7`), and the sections that read steps 1–5 share one pipeline run.
//! The other binaries are the extension studies (attack zoo, defenses,
//! adaptive attacks, fault robustness, forecaster ablation) and the
//! performance harnesses; Criterion benchmarks for the
//! performance-critical components live in `benches/`.
//!
//! Every harness binary honours the `LGO_SCALE` environment variable:
//!
//! - `fast` — seconds-scale smoke run (small cohort, tiny models),
//! - `mid` — the default: full 12-patient cohort at reduced data sizes,
//! - `paper` — the OhioT1DM footprint (~10 000 train / ~2 500 test samples
//!   per patient); expect tens of minutes of CPU time.
//!
//! `repro_all` prints the same rows/series the paper reports (tables as
//! aligned text, figures as ASCII bar/box charts), summarized in
//! `EXPERIMENTS.md`.

use lgo_core::pipeline::PipelineConfig;
use lgo_core::profile::ProfilerConfig;
use lgo_core::selective::{DetectorConfigs, DetectorKind, TrainingStrategy};
use lgo_detect::MadGanConfig;
use lgo_forecast::ForecastConfig;

/// Experiment scale, selected by the `LGO_SCALE` environment variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Smoke-test scale (4 patients, 3 training days).
    Fast,
    /// Default scale: all 12 patients, 10 training days.
    Mid,
    /// Paper scale: all 12 patients at the OhioT1DM footprint.
    Paper,
}

impl Scale {
    /// Reads `LGO_SCALE` (`fast` / `mid` / `paper`), defaulting to `Mid`.
    ///
    /// # Panics
    ///
    /// Panics on an unrecognized value, listing the accepted ones.
    pub fn from_env() -> Scale {
        match std::env::var("LGO_SCALE").as_deref() {
            Ok("fast") => Scale::Fast,
            Ok("mid") | Err(_) => Scale::Mid,
            Ok("paper") => Scale::Paper,
            Ok(other) => panic!("LGO_SCALE = {other:?}; expected fast, mid or paper"),
        }
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Scale::Fast => "fast",
            Scale::Mid => "mid",
            Scale::Paper => "paper",
        }
    }

    /// Simulated (train, test) days per patient at this scale.
    pub fn days(&self) -> (usize, usize) {
        match self {
            Scale::Fast => (3, 1),
            Scale::Mid => (10, 4),
            Scale::Paper => (35, 9),
        }
    }
}

/// The forecaster configuration per scale.
pub fn forecast_config(scale: Scale) -> ForecastConfig {
    match scale {
        Scale::Fast => ForecastConfig {
            hidden: 8,
            epochs: 2,
            ..ForecastConfig::default()
        },
        Scale::Mid => ForecastConfig {
            hidden: 12,
            epochs: 3,
            ..ForecastConfig::default()
        },
        Scale::Paper => ForecastConfig::default(),
    }
}

/// The attack/risk profiler configuration per scale.
pub fn profiler_config(scale: Scale) -> ProfilerConfig {
    match scale {
        Scale::Fast => ProfilerConfig {
            stride: 24,
            explorer_steps: 4,
            ..ProfilerConfig::default()
        },
        Scale::Mid => ProfilerConfig {
            stride: 12,
            explorer_steps: 5,
            ..ProfilerConfig::default()
        },
        Scale::Paper => ProfilerConfig {
            stride: 6,
            explorer_steps: 6,
            ..ProfilerConfig::default()
        },
    }
}

/// Detector configurations per scale (paper hyper-parameters, with GAN
/// training budgets reduced below paper scale).
pub fn detector_configs(scale: Scale) -> DetectorConfigs {
    let madgan = match scale {
        Scale::Fast => MadGanConfig {
            epochs: 4,
            hidden: 8,
            inversion_steps: 5,
            ..MadGanConfig::default()
        },
        Scale::Mid => MadGanConfig {
            epochs: 15,
            inversion_steps: 10,
            ..MadGanConfig::default()
        },
        Scale::Paper => MadGanConfig {
            epochs: 40,
            inversion_steps: 15,
            ..MadGanConfig::default()
        },
    };
    DetectorConfigs {
        madgan,
        ..DetectorConfigs::default()
    }
}

/// The full pipeline configuration for a scale: all twelve patients (except
/// `fast`), the paper's four training strategies and all three detectors.
pub fn pipeline_config(scale: Scale) -> PipelineConfig {
    let (train_days, test_days) = scale.days();
    let patients = match scale {
        Scale::Fast => Some(vec![
            lgo_glucosim::PatientId::new(lgo_glucosim::Subset::A, 2),
            lgo_glucosim::PatientId::new(lgo_glucosim::Subset::A, 5),
            lgo_glucosim::PatientId::new(lgo_glucosim::Subset::B, 2),
            lgo_glucosim::PatientId::new(lgo_glucosim::Subset::B, 4),
        ]),
        _ => None,
    };
    let random_runs = match scale {
        Scale::Fast => 2,
        Scale::Mid => 5,
        Scale::Paper => 10,
    };
    PipelineConfig {
        patients,
        train_days,
        test_days,
        forecast: forecast_config(scale),
        profiler: profiler_config(scale),
        train_attack_stride: 48,
        detector_stride: 4,
        detectors: detector_configs(scale),
        linkage: lgo_cluster::Linkage::Average,
        strategies: vec![
            TrainingStrategy::LessVulnerable,
            TrainingStrategy::MoreVulnerable,
            TrainingStrategy::RandomSamples {
                k: 3,
                runs: random_runs,
                seed: 0xABCD,
            },
            TrainingStrategy::AllPatients,
        ],
        detector_kinds: DetectorKind::all().to_vec(),
    }
}

/// Renders an optional success rate as a percentage, or `n/a` when the
/// campaign attacked no windows ([`success_rate`] returns `None`). The old
/// `unwrap_or(0.0)` rendering misreported an empty campaign as a fully
/// resisted one; the JSON exports already emit `null` for this case.
///
/// [`success_rate`]: lgo_attack::cgm::CampaignReport::success_rate
pub fn percent_or_na(rate: Option<f64>) -> String {
    match rate {
        Some(r) => format!("{:.1}%", r * 100.0),
        None => "n/a".into(),
    }
}

/// Writes the trace collected so far to `results/trace_<bench>.json` and
/// prints the path to stderr (stdout carries only results) — a no-op unless the workspace is built with
/// `--features trace` and `LGO_TRACE=json` is set (see lgo-trace).
pub fn write_trace(bench: &str) {
    match lgo_trace::write_report(bench) {
        Ok(Some(path)) => eprintln!("\ntrace report: {}", path.display()),
        Ok(None) => {}
        Err(e) => eprintln!("trace report: write failed: {e}"),
    }
}

/// Prints the standard experiment header.
pub fn banner(experiment: &str, paper_ref: &str, scale: Scale) {
    println!("================================================================");
    println!("{experiment}  ({paper_ref})");
    println!("scale: {}  (set LGO_SCALE=fast|mid|paper to change)", scale.name());
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered_by_size() {
        assert!(Scale::Fast.days().0 < Scale::Mid.days().0);
        assert!(Scale::Mid.days().0 < Scale::Paper.days().0);
        // Paper scale matches the OhioT1DM footprint.
        assert_eq!(Scale::Paper.days(), (35, 9));
    }

    #[test]
    fn paper_pipeline_includes_everything() {
        let cfg = pipeline_config(Scale::Paper);
        assert!(cfg.patients.is_none());
        assert_eq!(cfg.strategies.len(), 4);
        assert_eq!(cfg.detector_kinds.len(), 3);
        assert_eq!(cfg.forecast.seq_len, 12);
    }

    #[test]
    fn fast_pipeline_is_small() {
        let cfg = pipeline_config(Scale::Fast);
        assert_eq!(cfg.patients.as_ref().unwrap().len(), 4);
        assert!(cfg.detectors.madgan.epochs <= 5);
    }
}
