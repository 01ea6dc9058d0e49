//! `serve-stream`: `lgo-serve` from ingest to verdict under an open-loop
//! arrival schedule.
//!
//! Set-up trains the MAD-GAN → OC-SVM → kNN ladder, with the defense grid's
//! detector configs, on benign windows of a seeded `CohortStream` (as
//! `bench_serve` does, without fault injectors) and pre-generates a second
//! seeded cohort's rows in arrival order: every patient reports one row per
//! round, round-robin, with patients' phases staggered. One generator
//! thread then offers the rows at [`RATE_ROWS_PER_S`], calling `try_ingest`
//! when each row is due and `drain_cycle` in between.
//! A window's latency runs from the due time of the row that completed it
//! to the return of the `drain_cycle` that verdicted it; when that row came
//! due while the generator was idle and the generator offered it late (host
//! stalls of the generator thread), the clock starts at the offer instead and
//! the lateness is reported as generator lag. The watchdog deadline is
//! armed far above any scoring time; nothing stalls and no row is poisoned.
//!
//! Scoring runs on the watchdog's threads, not on the generator thread, so
//! window latency and cycle time are reported as measured, without the
//! speed probe that scales main-thread times (set-up, and the batch
//! workloads' passes).

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use lgo::core::pipeline::benign_windows;
use lgo::core::selective::{try_train_detector, DetectorKind};
use lgo::detect::{AnomalyDetector, Window};
use lgo::forecast::FEATURES;
use lgo::glucosim::CohortStream;
use lgo::runtime::split_seed;
use lgo::serve::{DetectorBank, Sample, ScoringService, ServeConfig};

use crate::adapters::{TimedDetector, Verdict, VerdictRecorder};
use crate::cohort;
use crate::layers::Layers;
use crate::report::{
    json_f64, json_str, median, quantile, repeated_setup, window_digest, Args, Fnv, Outcome,
};

/// Offered load: rows per second, constant inter-arrival time. About 14 %
/// of the ladder's saturation throughput, which the traced run measures
/// closed loop on the same rows (`serve.saturation_rows_per_s`, 24 900
/// rows/s on a 2-vCPU cloud VM); scoring cycles then keep the service
/// busy about a fifth of the time. The headroom keeps the queue from
/// growing when the host slows this process down by up to 2x: at twice
/// this rate, two of ten runs on that VM read a median latency 1.7x the
/// others'.
pub const RATE_ROWS_PER_S: f64 = 3500.0;
/// Rows each patient contributes (one day at 5-minute cadence: 47 windows).
const ROWS_PER_PATIENT: usize = 288;
/// Patients whose benign windows train the ladder.
const LADDER_PATIENTS: u64 = 4;
/// Scoring deadline: far above any scoring call, so the watchdog only
/// hands work off and never fires.
const DEADLINE: Duration = Duration::from_secs(30);
/// Set-up repetitions whose median is `setup_s` (one takes about 0.2 s).
const SETUP_REPS: usize = 9;

/// The trained ladder, level order (unwrapped).
type Ladder = Vec<Arc<dyn AnomalyDetector>>;

/// Everything set-up produces.
pub struct Stream {
    ladder: Ladder,
    samples: Vec<Sample>,
    /// Whether each row completes one of its patient's windows.
    completes: Vec<bool>,
    /// Every window the rows will complete, keyed by digest.
    windows: BTreeMap<u64, Window>,
}

fn config() -> ServeConfig {
    ServeConfig {
        deadline: Some(DEADLINE),
        ..ServeConfig::default()
    }
}

fn train_ladder(seed: u64, config: &ServeConfig) -> Ladder {
    let mut benign: Vec<Window> = Vec::new();
    for p in CohortStream::new(LADDER_PATIENTS, 1, split_seed(seed, 1)) {
        benign.extend(benign_windows(&p.series, config.seq_len, config.stride));
    }
    // Spoofed CGM readings far out of the benign band: the supervised
    // kNN's malicious class.
    let malicious: Vec<Window> = benign
        .iter()
        .map(|w| {
            let mut m = w.clone();
            for row in &mut m {
                row[0] += 90.0;
            }
            m
        })
        .collect();
    let configs = cohort::detector_configs();
    [DetectorKind::MadGan, DetectorKind::OcSvm, DetectorKind::Knn]
        .into_iter()
        .map(|kind| {
            let d = try_train_detector(kind, &benign, &malicious, &configs)
                .unwrap_or_else(|e| panic!("training {} failed: {e}", kind.name()));
            Arc::<dyn AnomalyDetector>::from(d)
        })
        .collect()
}

/// The arrival-ordered rows for `seconds` of offered load.
fn generate(
    seed: u64,
    seconds: f64,
    config: &ServeConfig,
) -> (Vec<Sample>, Vec<bool>, BTreeMap<u64, Window>) {
    let total = (RATE_ROWS_PER_S * seconds).ceil() as usize;
    let patients = total.div_ceil(ROWS_PER_PATIENT) as u64;
    let days = ROWS_PER_PATIENT.div_ceil(lgo::glucosim::SAMPLES_PER_DAY);
    let stream = CohortStream::new(patients, days, split_seed(seed, 2));
    let rows: Vec<Vec<Vec<f64>>> = lgo::runtime::par_map_indexed(patients as usize, |i| {
        let p = stream.patient(i as u64);
        p.series
            .select(&FEATURES)
            .rows()
            .iter()
            .take(ROWS_PER_PATIENT)
            .cloned()
            .collect()
    });
    let mut windows = BTreeMap::new();
    let mut samples = Vec::with_capacity(total);
    let mut completes = Vec::with_capacity(total);
    // Patient `p` starts `p % stride` rounds late, so window completions
    // spread evenly over the rounds instead of arriving in bursts.
    'rounds: for round in 0..ROWS_PER_PATIENT + config.stride {
        for (p, series) in rows.iter().enumerate() {
            let Some(t) = round.checked_sub(p % config.stride) else {
                continue;
            };
            if t >= ROWS_PER_PATIENT {
                continue;
            }
            if samples.len() == total {
                break 'rounds;
            }
            // The window rule of the service's per-patient state machine.
            let seen = t + 1;
            let done =
                seen >= config.seq_len && (seen - config.seq_len).is_multiple_of(config.stride);
            if done {
                let w: Window = series[seen - config.seq_len..seen].to_vec();
                windows.insert(window_digest(&w), w);
            }
            completes.push(done);
            samples.push(Sample {
                patient: p as u64,
                row: series[t].clone(),
            });
        }
    }
    (samples, completes, windows)
}

fn setup(args: &Args) -> Stream {
    let config = config();
    let ladder = train_ladder(args.seed, &config);
    let (samples, completes, windows) = generate(args.seed, args.seconds, &config);
    Stream {
        ladder,
        samples,
        completes,
        windows,
    }
}

/// What the generator measured.
#[derive(Default)]
struct Replay {
    wall_s: f64,
    ingest_s: f64,
    drain_s: f64,
    idle_s: f64,
    latencies_ms: Vec<f64>,
    waits_ms: Vec<f64>,
    lags_ms: Vec<f64>,
    cycles: u64,
    emitted_seen: u64,
    mapping_errors: u64,
    /// Wall time and windows of every cycle that verdicted a window.
    scoring_cycles: Vec<(f64, usize)>,
}

/// Replays the rows open loop against `service`.
fn replay(service: &ScoringService, samples: Vec<Sample>, completes: &[bool]) -> Replay {
    let mut r = Replay::default();
    let interval = 1.0 / RATE_ROWS_PER_S;
    let mut rows = samples.into_iter().enumerate().peekable();
    // (latency clock start, completes a window) per queued row.
    let mut in_queue: VecDeque<(f64, bool)> = VecDeque::new();
    // End of the last drain cycle: a row due before it waited on the
    // service; a row due after it that is offered late waited on the
    // generator alone, which is generator lag, not service latency.
    let mut busy_until = 0.0;
    let start = Instant::now();
    loop {
        let now = start.elapsed().as_secs_f64();
        while let Some((i, _)) = rows.peek() {
            let due = *i as f64 * interval;
            if due > now {
                break;
            }
            let (i, sample) = rows.next().expect("peeked");
            let t = Instant::now();
            let offered = start.elapsed().as_secs_f64();
            r.lags_ms.push((offered - due) * 1e3);
            if service.try_ingest(sample) {
                let clock = if due > busy_until { offered } else { due };
                in_queue.push_back((clock, completes[i]));
            }
            r.ingest_s += t.elapsed().as_secs_f64();
        }
        if !in_queue.is_empty() {
            let began = start.elapsed().as_secs_f64();
            let outcome = service.drain_cycle();
            let ended = start.elapsed().as_secs_f64();
            r.drain_s += ended - began;
            r.cycles += 1;
            busy_until = ended;
            let mut completed = 0;
            for _ in 0..outcome.drained {
                let Some((clock, completes)) = in_queue.pop_front() else {
                    r.mapping_errors += 1;
                    break;
                };
                if completes {
                    completed += 1;
                    r.latencies_ms.push((ended - clock) * 1e3);
                    r.waits_ms.push((began - clock) * 1e3);
                }
            }
            if completed != outcome.emitted {
                r.mapping_errors += 1;
            }
            if outcome.emitted > 0 {
                r.scoring_cycles.push((ended - began, outcome.emitted));
                r.emitted_seen += outcome.emitted as u64;
            }
        } else if let Some((i, _)) = rows.peek() {
            // Wait for the next row: sleep only through long gaps (a sleep
            // can overshoot by milliseconds, which would show as generator
            // lag), then spin.
            let due = *i as f64 * interval;
            let t = Instant::now();
            let gap = due - start.elapsed().as_secs_f64();
            if gap > 0.002 {
                std::thread::sleep(Duration::from_secs_f64(gap - 0.001));
            }
            while start.elapsed().as_secs_f64() < due {
                std::hint::spin_loop();
            }
            r.idle_s += t.elapsed().as_secs_f64();
        } else {
            break;
        }
    }
    r.wall_s = start.elapsed().as_secs_f64();
    r
}

/// Rows per second the service sustains closed loop: the same rows offered
/// `batch_max` at a time, each batch drained before the next is offered.
/// Queue pressure then stays below the first degrade threshold, so every
/// window is scored at ladder level 0.
fn saturation(ladder: &Ladder, samples: Vec<Sample>) -> f64 {
    let config = config();
    let batch = config.batch_max;
    let rows = samples.len();
    let service = ScoringService::new(config, DetectorBank::new(ladder.clone()));
    let mut samples = samples.into_iter().peekable();
    let start = Instant::now();
    while samples.peek().is_some() {
        for sample in samples.by_ref().take(batch) {
            service.try_ingest(sample);
        }
        service.drain_cycle();
    }
    rows as f64 / start.elapsed().as_secs_f64()
}

/// Checks the verdict log against the windows the rows complete and the
/// unwrapped ladder's own scores. Returns (problems, verdict digest,
/// flagged windows).
pub fn check_verdicts(
    log: &[Verdict],
    windows: &BTreeMap<u64, Window>,
    ladder: &[Arc<dyn AnomalyDetector>],
) -> (Vec<String>, u64, u64) {
    let mut problems = Vec::new();
    let mut sorted: Vec<Verdict> = log.to_vec();
    sorted.sort_unstable();
    let mut seen = std::collections::BTreeSet::new();
    let mut flagged = 0;
    let mut mismatches = 0;
    for &(digest, level, verdict) in &sorted {
        if !seen.insert(digest) {
            problems.push(format!("window {digest:016x} verdicted twice"));
            continue;
        }
        let Some(window) = windows.get(&digest) else {
            problems.push(format!("window {digest:016x} is not one the rows complete"));
            continue;
        };
        let Some(detector) = ladder.get(level as usize) else {
            problems.push(format!("level {level} is not on the ladder"));
            continue;
        };
        if (detector.score(window) > 0.0) != verdict {
            mismatches += 1;
        }
        flagged += u64::from(verdict);
    }
    if mismatches > 0 {
        problems.push(format!(
            "{mismatches} verdict(s) differ from the ladder's own score"
        ));
    }
    let digest = sorted
        .iter()
        .fold(Fnv::default(), |h, &(d, l, v)| {
            h.u64(d).u64(u64::from(l)).u64(u64::from(v))
        })
        .finish();
    (problems, digest, flagged)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (stream, setup_s) = repeated_setup(SETUP_REPS, || setup(args));
    let Stream {
        ladder,
        samples,
        completes,
        windows,
    } = stream;
    let layers = Arc::new(Layers::default());
    let log: Arc<Mutex<Vec<Verdict>>> = Arc::new(Mutex::new(Vec::new()));
    const SCORE_KEYS: [(&str, &str); 3] = [
        ("detect.level0.score", "detect.level0.windows"),
        ("detect.level1.score", "detect.level1.windows"),
        ("detect.level2.score", "detect.level2.windows"),
    ];
    let levels: Vec<Arc<dyn AnomalyDetector>> = ladder
        .iter()
        .enumerate()
        .map(|(i, d)| {
            let d = Arc::clone(d);
            let log = Arc::clone(&log);
            if args.trace {
                let (secs, count) = SCORE_KEYS[i];
                let timed = Arc::new(TimedDetector::new(d, Arc::clone(&layers), secs, count));
                Arc::new(VerdictRecorder::new(timed, i as u8, log)) as Arc<dyn AnomalyDetector>
            } else {
                Arc::new(VerdictRecorder::new(d, i as u8, log))
            }
        })
        .collect();
    let expected_windows = completes.iter().filter(|&&c| c).count() as u64;
    let offered = samples.len();
    let closed_loop = if args.trace {
        samples.clone()
    } else {
        Vec::new()
    };
    let service = ScoringService::new(config(), DetectorBank::new(levels));
    let r = replay(&service, samples, &completes);
    let report = service.report();
    let s = &report.stats;
    let log = std::mem::take(&mut *log.lock().unwrap_or_else(PoisonError::into_inner));

    out.attempted = expected_windows;
    out.failed = expected_windows.saturating_sub(s.windows_scored)
        + s.panics
        + report.watchdog.deadline_misses;
    out.check(
        "ingested_equals_drained",
        s.ingested == s.drained && s.ingested + s.rejected == offered as u64,
        format!(
            "offered {offered}, ingested {}, rejected {}, drained {}",
            s.ingested, s.rejected, s.drained
        ),
    );
    out.check(
        "emitted_equals_scored_plus_shed",
        s.windows_emitted == s.windows_scored + s.windows_shed
            && s.windows_emitted == expected_windows
            && r.emitted_seen == s.windows_emitted
            && r.mapping_errors == 0,
        format!(
            "expected {expected_windows}, emitted {}, scored {}, shed {}, row mapping errors {}",
            s.windows_emitted, s.windows_scored, s.windows_shed, r.mapping_errors
        ),
    );
    let (problems, digest, flagged) = check_verdicts(&log, &windows, &ladder);
    out.check(
        "verdicts_match_ladder",
        problems.is_empty() && log.len() as u64 == s.windows_scored && flagged == s.anomalies,
        format!(
            "{} verdicts logged, {} scored, {flagged} flagged vs {} anomalies; {}",
            log.len(),
            s.windows_scored,
            s.anomalies,
            problems.join("; ")
        ),
    );
    let primary = if s.windows_emitted == 0 {
        0.0
    } else {
        s.level_windows.first().copied().unwrap_or(0) as f64 / s.windows_emitted as f64
    };
    out.info("verdict_digest", json_str(&format!("{digest:016x}")));
    out.info("service_report", report.to_json());
    out.info("offered_rows_per_s", json_f64(RATE_ROWS_PER_S));
    out.info("windows", r.latencies_ms.len().to_string());
    out.info("serve_primary_frac", json_f64(primary));
    out.info("generator_lag_p99_ms", json_f64(quantile(&r.lags_ms, 0.99)));
    let p99 = quantile(&r.latencies_ms, 0.99);
    out.info("latency_p99_ms", json_f64(p99));
    out.info("busy_s", json_f64(r.ingest_s + r.drain_s));
    out.info("wait_p50_ms", json_f64(quantile(&r.waits_ms, 0.5)));
    // Scoring-cycle seconds per 1000 windows, at the median cycle. A host
    // stall lands in single cycles; the mean over all cycles (kept in the
    // record) spread 11 % from seed to seed over five runs, the median 6 %.
    let per_window: Vec<f64> = r
        .scoring_cycles
        .iter()
        .map(|&(secs, windows)| secs / windows as f64 * 1000.0)
        .collect();
    let work_s = median(&per_window);
    let cycle_s: f64 = r.scoring_cycles.iter().map(|&(secs, _)| secs).sum();
    out.info(
        "mean_work_s",
        json_f64(cycle_s / r.emitted_seen.max(1) as f64 * 1000.0),
    );
    if !args.trace {
        out.metric("setup_s", setup_s, "s");
        out.metric("work_s", work_s, "s");
        out.metric("latency_p50_ms", quantile(&r.latencies_ms, 0.5), "ms");
        return out;
    }
    out.info("traced_work_s", json_f64(work_s));
    let per_window_us = |(secs, count): (&str, &str)| {
        let n = layers.counted(count);
        if n == 0 {
            0.0
        } else {
            layers.secs(secs) / n as f64 * 1e6
        }
    };
    let level = |i: usize| s.level_windows.get(i).copied().unwrap_or(0) as f64;
    out.metric("serve.ingest_s", r.ingest_s, "s");
    out.metric("serve.drain_cycle_s", r.drain_s, "s");
    out.metric("serve.cycles", r.cycles as f64, "count");
    out.metric(
        "serve.windows_per_cycle",
        if r.scoring_cycles.is_empty() {
            0.0
        } else {
            r.emitted_seen as f64 / r.scoring_cycles.len() as f64
        },
        "count",
    );
    let saturation = saturation(&ladder, closed_loop);
    out.info(
        "offered_fraction_of_saturation",
        json_f64(RATE_ROWS_PER_S / saturation),
    );
    out.metric("serve.saturation_rows_per_s", saturation, "rows/s");
    out.metric("serve.wait_p50_ms", quantile(&r.waits_ms, 0.5), "ms");
    out.metric("serve.wait_p99_ms", quantile(&r.waits_ms, 0.99), "ms");
    out.metric("serve.latency_p99_ms", p99, "ms");
    out.metric("detect.level0.score_us", per_window_us(SCORE_KEYS[0]), "us");
    out.metric("detect.level1.score_us", per_window_us(SCORE_KEYS[1]), "us");
    out.metric("detect.level2.score_us", per_window_us(SCORE_KEYS[2]), "us");
    out.metric("serve.level0_windows", level(0), "count");
    out.metric("serve.level1_windows", level(1), "count");
    out.metric("serve.level2_windows", level(2), "count");
    out.metric("serve.windows_shed", s.windows_shed as f64, "count");
    out.metric("serve.degraded_cycles", s.degraded_cycles as f64, "count");
    out.metric("serve.primary_frac", primary, "ratio");
    out.metric(
        "serve.watchdog.misses",
        report.watchdog.deadline_misses as f64,
        "count",
    );
    out.metric(
        "serve.watchdog.retries",
        report.watchdog.retries as f64,
        "count",
    );
    out.metric(
        "bench.generator_lag_p99_ms",
        quantile(&r.lags_ms, 0.99),
        "ms",
    );
    out.metric("bench.idle_s", r.idle_s, "s");
    out.metric(
        "unattributed_s",
        r.wall_s - r.ingest_s - r.drain_s - r.idle_s,
        "s",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Flags windows whose mean first feature exceeds a threshold.
    struct Threshold(f64);

    impl AnomalyDetector for Threshold {
        fn name(&self) -> &str {
            "threshold"
        }

        fn score(&self, w: &Window) -> f64 {
            w.iter().map(|r| r[0]).sum::<f64>() / w.len() as f64 - self.0
        }
    }

    /// A verdict log, the windows it covers, and the two-level ladder.
    type Fixture = (
        Vec<Verdict>,
        BTreeMap<u64, Window>,
        Vec<Arc<dyn AnomalyDetector>>,
    );

    fn fixture() -> Fixture {
        let ladder: Vec<Arc<dyn AnomalyDetector>> =
            vec![Arc::new(Threshold(5.0)), Arc::new(Threshold(50.0))];
        let windows: BTreeMap<u64, Window> = (0..10)
            .map(|i| {
                let w: Window = vec![vec![f64::from(i) * 2.0, 1.0]; 3];
                (window_digest(&w), w)
            })
            .collect();
        let log = windows
            .iter()
            .enumerate()
            .map(|(i, (&d, w))| {
                let level = (i % 2) as u8;
                (d, level, ladder[level as usize].score(w) > 0.0)
            })
            .collect();
        (log, windows, ladder)
    }

    #[test]
    fn verdict_check_accepts_the_service_log() {
        let (log, windows, ladder) = fixture();
        let (problems, digest, flagged) = check_verdicts(&log, &windows, &ladder);
        assert!(problems.is_empty(), "{problems:?}");
        assert_eq!(flagged, log.iter().filter(|v| v.2).count() as u64);
        // The digest ignores arrival order but not content.
        let mut reversed = log.clone();
        reversed.reverse();
        assert_eq!(check_verdicts(&reversed, &windows, &ladder).1, digest);
    }

    #[test]
    fn verdict_check_rejects_perturbed_logs() {
        let (log, windows, ladder) = fixture();
        let (_, digest, _) = check_verdicts(&log, &windows, &ladder);

        let mut flipped = log.clone();
        flipped[3].2 = !flipped[3].2;
        let (problems, other, _) = check_verdicts(&flipped, &windows, &ladder);
        assert_eq!(problems.len(), 1);
        assert_ne!(other, digest);

        let mut twice = log.clone();
        twice.push(log[0]);
        assert_eq!(check_verdicts(&twice, &windows, &ladder).0.len(), 1);

        let mut unknown = log.clone();
        unknown[0].0 ^= 1;
        assert_eq!(check_verdicts(&unknown, &windows, &ladder).0.len(), 1);
    }

    #[test]
    fn generated_rows_complete_the_service_windows() {
        let config = config();
        let (samples, completes, windows) = generate(5, 0.2, &config);
        assert_eq!(samples.len(), (RATE_ROWS_PER_S * 0.2).ceil() as usize);
        assert_eq!(completes.iter().filter(|&&c| c).count(), windows.len());
        // Replaying the rows through the service's state machines emits
        // exactly the windows generation predicted.
        let mut states: BTreeMap<u64, lgo::serve::PatientState> = BTreeMap::new();
        for (s, &done) in samples.iter().zip(&completes) {
            let st = states
                .entry(s.patient)
                .or_insert_with(|| lgo::serve::PatientState::new(config.seq_len, config.stride));
            let emitted = st.push(s.row.clone());
            assert_eq!(emitted.is_some(), done);
            if let Some(w) = emitted {
                assert!(windows.contains_key(&window_digest(&w)));
            }
        }
    }
}
