//! `defense-grid`: paper step 5 plus ROAST on the cohort and clusters built
//! during set-up.
//!
//! One pass evaluates 15 cells: the four paper strategies (less-vulnerable,
//! more-vulnerable, random-samples, all-patients) through
//! `try_evaluate_strategy` and ROAST through `try_evaluate_defense` with the
//! PGD `ZooCrafter` of `exp_defense`, each for MAD-GAN, OC-SVM and kNN.
//! The process-wide `KernelCache` is emptied before every pass, so every
//! pass times a cold cache. The seed feeds the random-samples rosters, the
//! zoo campaigns and the ROAST refit seed.

use std::sync::Arc;
use std::time::Instant;

use lgo::attack::cgm::CgmCase;
use lgo::core::defense::{
    pool_training_windows, try_evaluate_defense, AdversarialCrafter, Defense, DefenseContext,
    RoastConfig, RoastDefense,
};
use lgo::core::error::LgoError;
use lgo::core::selective::{
    evaluate_on_patient, try_evaluate_strategy, try_train_detector, try_training_rosters,
    DetectorConfigs, DetectorKind, PatientData, PatientMetrics, TrainingStrategy,
};
use lgo::detect::AnomalyDetector;
use lgo::eval::ConfusionMatrix;
use lgo::forecast::GlucoseForecaster;
use lgo::glucosim::PatientId;
use lgo::runtime::split_seed;
use lgo::zoo::defense::ZooCrafter;
use lgo::zoo::{attack_by_name, ZooConfig};

use crate::adapters::{TimedCrafter, TimedDetector};
use crate::cohort::{self, ProfiledCohort};
use crate::layers::{trace_hist_sum, Layers};
use crate::report::{
    json_f64, json_str, median, quantile, repeated_setup, time, timed_passes, Args, Fnv, Outcome,
    SpeedMeter,
};

/// Random-samples strategy: patients per run and runs averaged.
const RANDOM_K: usize = 3;
const RANDOM_RUNS: usize = 3;
/// ROAST fit rounds (round 1 crafts with PGD, as in `exp_defense`).
const ROAST_ROUNDS: usize = 2;
/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 3;
/// Absolute tolerance of a cell's mean recall/FPR against the reference.
pub const TOLERANCE: f64 = 0.02;

/// The committed reference for the seed-independent cells: (detector,
/// strategy, mean recall, mean FPR), and the digest of their exact bits.
pub const REFERENCE: [(&str, &str, f64, f64); 9] = [
    (
        "MAD-GAN",
        "Less Vulnerable",
        0.5982383357383357,
        0.11111111111111112,
    ),
    (
        "MAD-GAN",
        "More Vulnerable",
        0.8832491582491583,
        0.03819444444444444,
    ),
    (
        "MAD-GAN",
        "All Patients",
        0.874915824915825,
        0.027777777777777776,
    ),
    (
        "OneClassSVM",
        "Less Vulnerable",
        0.91473063973064,
        0.2708333333333333,
    ),
    (
        "OneClassSVM",
        "More Vulnerable",
        0.6974807599807599,
        0.08333333333333333,
    ),
    ("OneClassSVM", "All Patients", 0.7120009620009621, 0.09375),
    (
        "kNN",
        "Less Vulnerable",
        0.9292508417508417,
        0.003472222222222222,
    ),
    (
        "kNN",
        "More Vulnerable",
        0.9740740740740742,
        0.013888888888888888,
    ),
    (
        "kNN",
        "All Patients",
        0.9671296296296297,
        0.010416666666666666,
    ),
];
pub const REFERENCE_DIGEST: u64 = 0xc707_b9ff_b124_8599;

/// The seed-dependent cells: (detector, arm, [min, max] mean recall,
/// [min, max] mean FPR) over seeds 0 to 39. A cell passes within
/// [`BAND_MARGIN`] of its band.
pub const SEEDED_BANDS: [(&str, &str, [f64; 2], [f64; 2]); 6] = [
    (
        "MAD-GAN",
        "Random Samples",
        [0.5654100529100529, 0.6479437229437228],
        [0.03587962962962962, 0.12152777777777778],
    ),
    (
        "MAD-GAN",
        "ROAST",
        [0.6051827801827802, 0.6051827801827802],
        [0.11111111111111112, 0.11111111111111112],
    ),
    (
        "OneClassSVM",
        "Random Samples",
        [0.6779100529100529, 0.9591329966329966],
        [0.048611111111111105, 0.24537037037037035],
    ),
    (
        "OneClassSVM",
        "ROAST",
        [0.91473063973064, 0.91473063973064],
        [0.2708333333333333, 0.2708333333333333],
    ),
    (
        "kNN",
        "Random Samples",
        [0.8500561167227835, 0.9746352413019079],
        [0.003472222222222222, 0.015046296296296295],
    ),
    ("kNN", "ROAST", [1.0, 1.0], [0.21875, 0.21875]),
];
pub const BAND_MARGIN: f64 = 0.05;

/// What one grid cell evaluates.
#[derive(Debug, Clone, Copy)]
pub enum Arm {
    Strategy(TrainingStrategy),
    Roast,
}

impl Arm {
    pub fn name(self) -> &'static str {
        match self {
            Arm::Strategy(s) => s.name(),
            Arm::Roast => "ROAST",
        }
    }

    /// Whether the cell's result depends on the seed.
    fn seeded(self) -> bool {
        matches!(
            self,
            Arm::Roast | Arm::Strategy(TrainingStrategy::RandomSamples { .. })
        )
    }
}

/// The grid, detector-major: 3 detectors × (4 strategies + ROAST).
pub fn grid(seed: u64) -> Vec<(DetectorKind, Arm)> {
    let strategies = [
        TrainingStrategy::LessVulnerable,
        TrainingStrategy::MoreVulnerable,
        TrainingStrategy::RandomSamples {
            k: RANDOM_K,
            runs: RANDOM_RUNS,
            seed: split_seed(seed, 0x5A),
        },
        TrainingStrategy::AllPatients,
    ];
    [DetectorKind::MadGan, DetectorKind::OcSvm, DetectorKind::Knn]
        .into_iter()
        .flat_map(|kind| {
            strategies
                .into_iter()
                .map(Arm::Strategy)
                .chain([Arm::Roast])
                .map(move |arm| (kind, arm))
        })
        .collect()
}

/// One evaluated cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    pub per_patient: Vec<(PatientId, PatientMetrics)>,
    pub mean_training_windows: f64,
    pub detectors_trained: Vec<DetectorKind>,
}

impl CellResult {
    pub fn mean_recall(&self) -> f64 {
        mean(self.per_patient.iter().map(|(_, m)| m.recall))
    }

    pub fn mean_fpr(&self) -> f64 {
        mean(self.per_patient.iter().map(|(_, m)| m.fpr))
    }

    /// Folds the cell's exact bits into `h`.
    pub fn digest(&self, h: Fnv) -> Fnv {
        let h = self.per_patient.iter().fold(
            h.u64(self.mean_training_windows.to_bits()),
            |h, (id, m)| {
                h.bytes(id.to_string().as_bytes()).f64s(&[
                    m.recall,
                    m.precision,
                    m.f1,
                    m.fnr,
                    m.fpr,
                ])
            },
        );
        self.detectors_trained
            .iter()
            .fold(h, |h, k| h.bytes(k.name().as_bytes()))
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Everything the grid reads, built during set-up.
pub struct GridInput {
    pub cohort: Vec<PatientData>,
    pub less: Vec<PatientId>,
    pub more: Vec<PatientId>,
    pub configs: DetectorConfigs,
    /// (forecaster, training-period attack cases) of the more-vulnerable
    /// patients: the targets of ROAST's PGD crafter.
    pub targets: Vec<(GlucoseForecaster, Vec<CgmCase>)>,
    pub zoo: ZooConfig,
    pub roast_seed: u64,
}

impl GridInput {
    pub fn from_profiled(profiled: ProfiledCohort, seed: u64) -> Self {
        let cohort = profiled.cohort_data();
        let less = profiled.clusters.less_vulnerable.clone();
        let more = profiled.clusters.more_vulnerable.clone();
        let targets = profiled
            .patients
            .into_iter()
            .filter(|p| more.contains(&p.data.patient))
            .map(|p| (p.forecaster, p.train_cases))
            .collect();
        Self {
            cohort,
            less,
            more,
            configs: cohort::detector_configs(),
            targets,
            zoo: ZooConfig {
                seed: split_seed(seed, 0x200),
                ..ZooConfig::default()
            },
            roast_seed: split_seed(seed, 0xDEF2),
        }
    }

    fn roast() -> RoastDefense {
        RoastDefense::new(RoastConfig {
            rounds: ROAST_ROUNDS,
            ..RoastConfig::default()
        })
    }

    fn context<'a>(&'a self, crafter: &'a dyn AdversarialCrafter) -> DefenseContext<'a> {
        DefenseContext {
            cohort: &self.cohort,
            less_vulnerable: &self.less,
            more_vulnerable: &self.more,
            configs: &self.configs,
            seed: self.roast_seed,
            crafter: Some(crafter),
        }
    }

    /// One cell through the library entry points.
    pub fn evaluate(
        &self,
        kind: DetectorKind,
        arm: Arm,
        crafter: &dyn AdversarialCrafter,
    ) -> Result<CellResult, LgoError> {
        Ok(match arm {
            Arm::Strategy(s) => {
                let e = try_evaluate_strategy(
                    s,
                    kind,
                    &self.cohort,
                    &self.less,
                    &self.more,
                    &self.configs,
                )?;
                CellResult {
                    per_patient: e.per_patient,
                    mean_training_windows: e.mean_training_windows,
                    detectors_trained: e.detectors_trained,
                }
            }
            Arm::Roast => {
                let e = try_evaluate_defense(&Self::roast(), kind, &self.context(crafter))?;
                CellResult {
                    per_patient: e.per_patient,
                    mean_training_windows: e.mean_training_windows,
                    detectors_trained: e.detectors_trained,
                }
            }
        })
    }

    /// One cell assembled from `try_training_rosters` / `try_train_detector`
    /// / `Defense::fit` / `evaluate_on_patient`, with every call timed.
    /// Reproduces [`GridInput::evaluate`]'s bits.
    pub fn evaluate_traced(
        &self,
        kind: DetectorKind,
        arm: Arm,
        crafter: &dyn AdversarialCrafter,
        layers: &Arc<Layers>,
    ) -> Result<CellResult, LgoError> {
        let fitted: Vec<(Box<dyn AnomalyDetector>, DetectorKind, usize)> = match arm {
            Arm::Strategy(s) => {
                let ids: Vec<PatientId> = self.cohort.iter().map(|d| d.patient).collect();
                let rosters = try_training_rosters(s, &ids, &self.less, &self.more)?;
                rosters
                    .iter()
                    .map(|roster| {
                        let (benign, malicious) = pool_training_windows(&self.cohort, roster);
                        let (detector, trained) =
                            train_with_fallback(kind, &benign, &malicious, &self.configs, layers)?;
                        Ok((detector, trained, benign.len()))
                    })
                    .collect::<Result<_, LgoError>>()?
            }
            Arm::Roast => {
                let timed_crafter = TimedCrafter::new(crafter, Arc::clone(layers));
                let craft_before = layers.secs("defense.craft");
                let start = Instant::now();
                let runs = Self::roast().fit(kind, &self.context(&timed_crafter))?;
                let fit =
                    start.elapsed().as_secs_f64() - (layers.secs("defense.craft") - craft_before);
                runs.into_iter()
                    .map(|r| {
                        layers.add_secs(keys(r.trained).fit, fit);
                        layers.count(keys(r.trained).fit_windows, r.training_windows as u64);
                        (r.detector, r.trained, r.training_windows)
                    })
                    .collect()
            }
        };
        let runs: Vec<(usize, DetectorKind, Vec<ConfusionMatrix>)> = fitted
            .into_iter()
            .map(|(detector, trained, windows)| {
                let k = keys(trained);
                let timed = TimedDetector::new(
                    Arc::from(detector),
                    Arc::clone(layers),
                    k.score,
                    k.windows_scored,
                );
                let confusion = self
                    .cohort
                    .iter()
                    .map(|d| evaluate_on_patient(&timed, d))
                    .collect();
                (windows, trained, confusion)
            })
            .collect();
        Ok(fold(&self.cohort, &runs))
    }
}

/// `train_detector_with_fallback`, one timed `try_train_detector` call per
/// link of the chain.
fn train_with_fallback(
    kind: DetectorKind,
    benign: &[lgo::detect::Window],
    malicious: &[lgo::detect::Window],
    configs: &DetectorConfigs,
    layers: &Layers,
) -> Result<(Box<dyn AnomalyDetector>, DetectorKind), LgoError> {
    let mut last = None;
    for &candidate in kind.fallback_chain() {
        let k = keys(candidate);
        match layers.time(k.fit, || {
            try_train_detector(candidate, benign, malicious, configs)
        }) {
            Ok(d) => {
                layers.count(k.fit_windows, benign.len() as u64);
                return Ok((d, candidate));
            }
            Err(e) => last = Some(e),
        }
    }
    Err(match last.expect("fallback chain is never empty") {
        LgoError::Detect(e) => LgoError::DetectorChainExhausted { last: e },
        other => other,
    })
}

/// `try_evaluate_defense`'s fold: per-patient metric sums in run order,
/// divided by the run count.
fn fold(
    cohort: &[PatientData],
    runs: &[(usize, DetectorKind, Vec<ConfusionMatrix>)],
) -> CellResult {
    let mut sums = vec![PatientMetrics::default(); cohort.len()];
    let mut total_windows = 0usize;
    let mut trained = Vec::with_capacity(runs.len());
    for (windows, kind, confusion) in runs {
        total_windows += windows;
        trained.push(*kind);
        for (s, cm) in sums.iter_mut().zip(confusion) {
            s.recall += cm.recall();
            s.precision += cm.precision();
            s.f1 += cm.f1();
            s.fnr += cm.false_negative_rate();
            s.fpr += cm.false_positive_rate();
        }
    }
    let n = runs.len() as f64;
    CellResult {
        per_patient: cohort
            .iter()
            .zip(sums)
            .map(|(d, s)| {
                (
                    d.patient,
                    PatientMetrics {
                        recall: s.recall / n,
                        precision: s.precision / n,
                        f1: s.f1 / n,
                        fnr: s.fnr / n,
                        fpr: s.fpr / n,
                    },
                )
            })
            .collect(),
        mean_training_windows: total_windows as f64 / n,
        detectors_trained: trained,
    }
}

/// Layer keys of one detector kind.
pub struct Keys {
    pub fit: &'static str,
    pub fit_windows: &'static str,
    pub score: &'static str,
    pub windows_scored: &'static str,
}

pub fn keys(kind: DetectorKind) -> Keys {
    match kind {
        DetectorKind::MadGan => Keys {
            fit: "detect.madgan.fit",
            fit_windows: "detect.madgan.fit_windows",
            score: "detect.madgan.score",
            windows_scored: "detect.madgan.windows_scored",
        },
        DetectorKind::OcSvm => Keys {
            fit: "detect.ocsvm.fit",
            fit_windows: "detect.ocsvm.fit_windows",
            score: "detect.ocsvm.score",
            windows_scored: "detect.ocsvm.windows_scored",
        },
        DetectorKind::Knn => Keys {
            fit: "detect.knn.fit",
            fit_windows: "detect.knn.fit_windows",
            score: "detect.knn.score",
            windows_scored: "detect.knn.windows_scored",
        },
    }
}

fn kernel_cache_stats() -> (u64, u64) {
    let s = lgo::detect::kernel_cache_global()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .stats();
    (s.hits, s.misses)
}

/// Empties the process-wide kernel cache (its statistics are kept).
fn clear_kernel_cache() {
    lgo::detect::kernel_cache_global()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clear();
}

/// Checks one pass's cells: every cell trained what it asked for, rates are
/// rates, the seed-independent cells sit within [`TOLERANCE`] of the
/// committed reference, the seeded cells within [`BAND_MARGIN`] of their
/// seed bands, and ROAST beats All Patients in recall for some detector.
/// Returns the number of failed cells and a digest of the seed-independent
/// cells' exact bits.
pub fn check_pass(
    grid: &[(DetectorKind, Arm)],
    cells: &[Result<CellResult, String>],
) -> (u64, Vec<String>, u64) {
    let mut failed = 0;
    let mut problems = Vec::new();
    let mut digest = Fnv::default();
    for ((kind, arm), cell) in grid.iter().zip(cells) {
        let label = format!("{}/{}", kind.name(), arm.name());
        let cell = match cell {
            Ok(c) => c,
            Err(e) => {
                failed += 1;
                problems.push(format!("{label}: {e}"));
                continue;
            }
        };
        if cell.detectors_trained.iter().any(|k| k != kind) {
            failed += 1;
            problems.push(format!("{label}: trained {:?}", cell.detectors_trained));
        }
        let (recall, fpr) = (cell.mean_recall(), cell.mean_fpr());
        if !(0.0..=1.0).contains(&recall) || !(0.0..=1.0).contains(&fpr) {
            problems.push(format!("{label}: recall {recall} fpr {fpr} outside [0, 1]"));
        }
        if arm.seeded() {
            let within = |v: f64, [lo, hi]: [f64; 2]| lo - BAND_MARGIN <= v && v <= hi + BAND_MARGIN;
            match SEEDED_BANDS
                .iter()
                .find(|(k, a, _, _)| *k == kind.name() && *a == arm.name())
            {
                Some(&(_, _, r, f)) if within(recall, r) && within(fpr, f) => {}
                Some((_, _, r, f)) => problems.push(format!(
                    "{label}: recall {recall:?} fpr {fpr:?}, seed band {r:?} / {f:?} (margin {BAND_MARGIN})"
                )),
                None => problems.push(format!("{label}: no seed band (recall {recall:?}, fpr {fpr:?})")),
            }
            continue;
        }
        digest = cell.digest(digest);
        match REFERENCE
            .iter()
            .find(|(k, a, _, _)| *k == kind.name() && *a == arm.name())
        {
            Some((_, _, r, f)) if (recall - r).abs() <= TOLERANCE && (fpr - f).abs() <= TOLERANCE => {}
            Some((_, _, r, f)) => problems.push(format!(
                "{label}: recall {recall:?} fpr {fpr:?}, reference {r:?} / {f:?} (tolerance {TOLERANCE})"
            )),
            None => problems.push(format!("{label}: no reference (recall {recall:?}, fpr {fpr:?})")),
        }
    }
    // ROAST's claim as the repository's defense tests state it: outlier
    // exposure beats training on all patients in recall for at least one
    // detector.
    let recall_of = |kind: DetectorKind, arm: &str| {
        grid.iter()
            .zip(cells)
            .find(|((k, a), _)| *k == kind && a.name() == arm)
            .and_then(|(_, c)| c.as_ref().ok())
            .map(CellResult::mean_recall)
    };
    let roast_beats_all = [DetectorKind::MadGan, DetectorKind::OcSvm, DetectorKind::Knn]
        .into_iter()
        .any(|k| match (recall_of(k, "ROAST"), recall_of(k, "All Patients")) {
            (Some(roast), Some(all)) => roast > all,
            _ => false,
        });
    if !roast_beats_all {
        problems.push("ROAST recall beats All Patients for no detector".into());
    }
    (failed, problems, digest.finish())
}

/// Digest of every cell's exact bits (the determinism check).
fn pass_digest(cells: &[Result<CellResult, String>]) -> u64 {
    cells
        .iter()
        .fold(Fnv::default(), |h, c| match c {
            Ok(c) => c.digest(h),
            Err(e) => h.bytes(e.as_bytes()),
        })
        .finish()
}

/// Mean recall and FPR over the grid's cells.
fn grid_means(cells: &[Result<CellResult, String>]) -> (f64, f64) {
    let ok: Vec<&CellResult> = cells.iter().filter_map(|c| c.as_ref().ok()).collect();
    (
        mean(ok.iter().map(|c| c.mean_recall())),
        mean(ok.iter().map(|c| c.mean_fpr())),
    )
}

fn setup(seed: u64) -> Result<GridInput, LgoError> {
    let config = cohort::pipeline_config();
    let datasets = cohort::simulate();
    let profiled = cohort::profile(&config, &datasets, None)?;
    Ok(GridInput::from_profiled(profiled, seed))
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (input, setup_s) = repeated_setup(SETUP_REPS, || setup(args.seed));
    let input = match input {
        Ok(i) => i,
        Err(e) => {
            out.check("setup", false, e.to_string());
            out.attempted = 1;
            out.failed = 1;
            return out;
        }
    };
    let pgd = attack_by_name("pgd").expect("pgd is a registry attacker");
    let targets: Vec<(&GlucoseForecaster, &[CgmCase])> = input
        .targets
        .iter()
        .map(|(f, c)| (f, c.as_slice()))
        .collect();
    let crafter = ZooCrafter::new(pgd.as_ref(), targets, &input.zoo);
    let grid = grid(args.seed);
    out.info(
        "less_vulnerable",
        json_str(&format!("{:?}", ids(&input.less))),
    );

    let layers = Arc::new(Layers::default());
    if !args.trace {
        // One untimed pass lets the allocator warm up.
        for &(kind, arm) in &grid {
            let _ = input.evaluate(kind, arm, &crafter);
        }
    }
    lgo::trace::reset();

    let mut cache = (0u64, 0u64);
    let mut meter = SpeedMeter::default();
    // Passes last seconds, so the speed probe also runs between cells.
    let passes = timed_passes(args.seconds, 2, &mut meter, |meter| {
        clear_kernel_cache();
        let before = kernel_cache_stats();
        let mut cells = Vec::with_capacity(grid.len());
        for &(kind, arm) in &grid {
            let (r, wall) = time(|| {
                if args.trace {
                    input.evaluate_traced(kind, arm, &crafter, &layers)
                } else {
                    input.evaluate(kind, arm, &crafter)
                }
            });
            cells.push((wall, r.map_err(|e| e.to_string())));
            meter.sample();
        }
        let after = kernel_cache_stats();
        cache.0 += after.0 - before.0;
        cache.1 += after.1 - before.1;
        let wall = cells.iter().map(|(w, _)| *w).sum::<f64>();
        (cells, wall)
    });
    let n = passes.len() as f64;
    let smo_iterations = trace_hist_sum("detect/ocsvm/smo_iterations") as f64 / n;

    let mut digests = Vec::new();
    let mut reference_digest = 0;
    let mut problems = Vec::new();
    let mut pass_walls = Vec::new();
    let mut scaled_walls = Vec::new();
    let mut last_cells = Vec::new();
    for (cells, wall, scaled) in passes {
        pass_walls.push(wall);
        scaled_walls.push(scaled);
        let results: Vec<Result<CellResult, String>> = cells.into_iter().map(|(_, r)| r).collect();
        out.attempted += grid.len() as u64;
        let (failed, p, d) = check_pass(&grid, &results);
        out.failed += failed;
        problems.extend(p);
        reference_digest = d;
        digests.push(pass_digest(&results));
        last_cells = results;
    }
    problems.dedup();
    out.check(
        "cells_match_reference",
        problems.is_empty(),
        problems.join("; "),
    );
    digests.dedup();
    out.check(
        "grid_deterministic",
        digests.len() == 1,
        format!(
            "{} distinct grid digest(s) over {} passes",
            digests.len(),
            pass_walls.len()
        ),
    );
    let (recall, fpr) = grid_means(&last_cells);
    out.info(
        "reference_digest",
        json_str(&format!("{reference_digest:016x}")),
    );
    out.info(
        "bytes_identical_to_reference",
        (reference_digest == REFERENCE_DIGEST).to_string(),
    );
    out.info("cells", cells_json(&grid, &last_cells));
    out.info("grid_recall", json_f64(recall));
    out.info("grid_fpr", json_f64(fpr));
    out.info("kernel_cache_hits_per_pass", json_f64(cache.0 as f64 / n));
    out.info("kernel_cache_misses_per_pass", json_f64(cache.1 as f64 / n));
    out.info("pass_wall_s", format!("{pass_walls:?}"));

    let wall = pass_walls.iter().sum::<f64>() / n;
    out.info("speed_factor", json_f64(meter.factor()));
    out.info(
        "latency_p99_ms",
        json_f64(quantile(&scaled_walls, 0.99) * 1e3),
    );
    if !args.trace {
        out.metric("setup_s", setup_s, "s");
        out.metric("work_s", median(&scaled_walls), "s");
        out.metric("latency_p50_ms", median(&scaled_walls) * 1e3, "ms");
        return out;
    }

    // The library grid the assembly must reproduce, untimed.
    let library: Vec<Result<CellResult, String>> = grid
        .iter()
        .map(|&(kind, arm)| {
            input
                .evaluate(kind, arm, &crafter)
                .map_err(|e| e.to_string())
        })
        .collect();
    out.check(
        "assembly_matches_library",
        pass_digest(&library) == pass_digest(&last_cells),
        "assembled cells vs try_evaluate_strategy / try_evaluate_defense",
    );
    out.info("traced_work_s", json_f64(median(&scaled_walls)));

    let mut attributed = layers.secs("defense.craft");
    for kind in [DetectorKind::MadGan, DetectorKind::OcSvm, DetectorKind::Knn] {
        let k = keys(kind);
        attributed += layers.secs(k.fit) + layers.secs(k.score);
    }
    let per_pass = |key: &str| layers.secs(key) / n;
    let count = |key: &str| layers.counted(key) as f64 / n;
    out.metric("detect.madgan.fit_s", per_pass("detect.madgan.fit"), "s");
    out.metric("detect.ocsvm.fit_s", per_pass("detect.ocsvm.fit"), "s");
    out.metric("detect.knn.fit_s", per_pass("detect.knn.fit"), "s");
    out.metric(
        "detect.madgan.fit_windows",
        count("detect.madgan.fit_windows"),
        "count",
    );
    out.metric(
        "detect.ocsvm.fit_windows",
        count("detect.ocsvm.fit_windows"),
        "count",
    );
    out.metric(
        "detect.knn.fit_windows",
        count("detect.knn.fit_windows"),
        "count",
    );
    out.metric("detect.ocsvm.smo_iterations", smo_iterations, "count");
    out.metric(
        "detect.madgan.score_s",
        per_pass("detect.madgan.score"),
        "s",
    );
    out.metric("detect.ocsvm.score_s", per_pass("detect.ocsvm.score"), "s");
    out.metric("detect.knn.score_s", per_pass("detect.knn.score"), "s");
    out.metric(
        "detect.madgan.windows_scored",
        count("detect.madgan.windows_scored"),
        "count",
    );
    out.metric(
        "detect.ocsvm.windows_scored",
        count("detect.ocsvm.windows_scored"),
        "count",
    );
    out.metric(
        "detect.knn.windows_scored",
        count("detect.knn.windows_scored"),
        "count",
    );
    out.metric("detect.kernel_cache.hits", cache.0 as f64 / n, "count");
    out.metric("detect.kernel_cache.misses", cache.1 as f64 / n, "count");
    out.metric("defense.craft_s", per_pass("defense.craft"), "s");
    out.metric(
        "defense.crafted_windows",
        count("defense.crafted_windows"),
        "count",
    );
    out.metric("defense.grid_recall", recall, "ratio");
    out.metric("defense.grid_fpr", fpr, "ratio");
    out.metric("unattributed_s", wall - attributed / n, "s");
    out
}

fn ids(ids: &[PatientId]) -> Vec<String> {
    ids.iter().map(ToString::to_string).collect()
}

/// Per-cell mean recall/FPR of one pass, as a JSON list.
fn cells_json(grid: &[(DetectorKind, Arm)], cells: &[Result<CellResult, String>]) -> String {
    let items: Vec<String> = grid
        .iter()
        .zip(cells)
        .map(|((kind, arm), c)| match c {
            Ok(c) => format!(
                "{{\"detector\": \"{}\", \"arm\": \"{}\", \"recall\": {}, \"fpr\": {}}}",
                kind.name(),
                arm.name(),
                json_f64(c.mean_recall()),
                json_f64(c.mean_fpr())
            ),
            Err(e) => format!(
                "{{\"detector\": \"{}\", \"arm\": \"{}\", \"error\": {}}}",
                kind.name(),
                arm.name(),
                json_str(e)
            ),
        })
        .collect();
    format!("[{}]", items.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lgo::glucosim::Subset;

    /// A grid whose seed-independent cells read the committed reference and
    /// whose seeded cells sit mid-band.
    fn reference_cells(grid: &[(DetectorKind, Arm)]) -> Vec<Result<CellResult, String>> {
        grid.iter()
            .map(|(kind, arm)| {
                let is = |k: &&str, a: &&str| *k == kind.name() && *a == arm.name();
                let (recall, fpr) = REFERENCE
                    .iter()
                    .find(|(k, a, _, _)| is(k, a))
                    .map(|&(_, _, r, f)| (r, f))
                    .or_else(|| {
                        SEEDED_BANDS
                            .iter()
                            .find(|(k, a, _, _)| is(k, a))
                            .map(|&(_, _, r, f)| ((r[0] + r[1]) / 2.0, (f[0] + f[1]) / 2.0))
                    })
                    .expect("every cell has a reference or a band");
                Ok(CellResult {
                    per_patient: vec![(
                        PatientId::new(Subset::A, 0),
                        PatientMetrics {
                            recall,
                            fpr,
                            ..PatientMetrics::default()
                        },
                    )],
                    mean_training_windows: 10.0,
                    detectors_trained: vec![*kind],
                })
            })
            .collect()
    }

    fn cell(cells: &mut [Result<CellResult, String>], i: usize) -> &mut CellResult {
        cells[i].as_mut().expect("reference cell")
    }

    #[test]
    fn check_accepts_the_reference_and_rejects_perturbations() {
        let grid = grid(3);
        let clean = reference_cells(&grid);
        let (failed, problems, digest) = check_pass(&grid, &clean);
        assert_eq!((failed, problems.len()), (0, 0), "{problems:?}");

        // A recall moved past the tolerance.
        let mut cells = clean.clone();
        cell(&mut cells, 0).per_patient[0].1.recall += 2.0 * TOLERANCE;
        assert_eq!(check_pass(&grid, &cells).1.len(), 1);

        // One ulp inside the tolerance passes but changes the bytes.
        let mut cells = clean.clone();
        let fpr = &mut cell(&mut cells, 1).per_patient[0].1.fpr;
        *fpr = f64::from_bits(fpr.to_bits() + 1);
        let (failed, problems, perturbed) = check_pass(&grid, &cells);
        assert_eq!((failed, problems.len()), (0, 0));
        assert_ne!(perturbed, digest);

        // A ROAST recall and a random-samples FPR outside their seed bands.
        let mut cells = clean.clone();
        cell(&mut cells, 9).per_patient[0].1.recall -= 2.0 * BAND_MARGIN;
        cell(&mut cells, 12).per_patient[0].1.fpr += 0.5;
        assert_eq!(check_pass(&grid, &cells).1.len(), 2);

        // ROAST no better than All Patients for any detector (cells 4, 9
        // and 14 are ROAST, each right after its All Patients cell).
        let mut cells = clean.clone();
        for roast in [4, 9, 14] {
            let all = cell(&mut cells, roast - 1).per_patient[0].1.recall;
            cell(&mut cells, roast).per_patient[0].1.recall = all;
        }
        assert!(check_pass(&grid, &cells)
            .1
            .iter()
            .any(|p| p.contains("beats All Patients for no detector")));

        // A fallback detector and an erroring cell are failed operations.
        let mut cells = clean.clone();
        cell(&mut cells, 0).detectors_trained = vec![DetectorKind::Knn];
        cells[2] = Err("chain exhausted".into());
        assert_eq!(check_pass(&grid, &cells).0, 2);
    }

    #[test]
    fn assembled_cells_reproduce_the_library_bits() {
        let ids = [
            PatientId::new(Subset::A, 0),
            PatientId::new(Subset::A, 1),
            PatientId::new(Subset::B, 2),
            PatientId::new(Subset::B, 5),
        ];
        let datasets: Vec<_> = cohort::simulate()
            .into_iter()
            .filter(|d| ids.contains(&d.profile.id))
            .collect();
        let profiled =
            cohort::profile(&cohort::pipeline_config(), &datasets, None).expect("profiles");
        let input = GridInput::from_profiled(profiled, 11);
        let pgd = attack_by_name("pgd").expect("pgd");
        let targets = input
            .targets
            .iter()
            .map(|(f, c)| (f, c.as_slice()))
            .collect();
        let crafter = ZooCrafter::new(pgd.as_ref(), targets, &input.zoo);
        let layers = Arc::new(Layers::default());
        for (kind, arm) in grid(11) {
            if matches!(
                arm,
                Arm::Strategy(TrainingStrategy::MoreVulnerable | TrainingStrategy::AllPatients)
            ) {
                continue;
            }
            let library = input.evaluate(kind, arm, &crafter).expect("library cell");
            let assembled = input
                .evaluate_traced(kind, arm, &crafter, &layers)
                .expect("assembled cell");
            assert_eq!(
                library.digest(Fnv::default()).finish(),
                assembled.digest(Fnv::default()).finish(),
                "{}/{}",
                kind.name(),
                arm.name()
            );
        }
        assert!(layers.secs("detect.madgan.fit") > 0.0);
        assert!(layers.counted("detect.knn.windows_scored") > 0);
        assert!(layers.counted("defense.crafted_windows") > 0);
    }
}
