//! Online serving robustness benchmark — `lgo-serve` under hostile load.
//!
//! Drives a large synthetic cohort (streamed lazily from `lgo-glucosim`,
//! one deterministic `split_seed` patient at a time) through the scoring
//! service while injecting the failure modes a production BGMS must
//! survive: producers that outrun scoring (backpressure + load-shedding),
//! detectors that stall mid-call (watchdog deadlines), and poisoned
//! patient streams that panic the model (quarantine). The process must
//! finish alive, with bounded memory, and account for every sample.
//!
//! Results go to `results/BENCH_serve.json`: sustained throughput, micro-batch
//! tail latency, and the shed/degrade/quarantine counters.
//!
//! ```text
//! LGO_SCALE=fast LGO_SERVE_PATIENTS=300 \
//!     cargo run -p lgo-bench --release --bin bench_serve
//! ```
//!
//! Knobs (see EXPERIMENTS.md): `LGO_SERVE_PATIENTS`, `LGO_SERVE_SAMPLES`,
//! `LGO_SERVE_PRODUCERS`, plus the `ServeConfig::from_env` set
//! (`LGO_SERVE_CAPACITY`, `LGO_SERVE_BATCH`, `LGO_SERVE_DEADLINE_MS`,
//! `LGO_SERVE_RETRIES`, `LGO_SERVE_BACKOFF_MS`, `LGO_SERVE_MAX_WEDGED`,
//! `LGO_SERVE_SHED`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lgo_bench::{detector_configs, write_trace, Scale};
use lgo_core::pipeline::benign_windows;
use lgo_core::selective::{try_train_detector, DetectorKind};
use lgo_detect::{AnomalyDetector, Window};
use lgo_forecast::FEATURES;
use lgo_glucosim::CohortStream;
use lgo_serve::{
    DetectorBank, PanickingDetector, Sample, ScoringService, ServeConfig, StallingDetector,
    POISON,
};

/// Base seed of the synthetic cohort (and, split per index, of every
/// patient in it).
const BASE_SEED: u64 = 0x5EED_CAFE;

/// Every `POISON_PERIOD`-th patient streams poisoned rows.
const POISON_PERIOD: u64 = 97;

fn env_u64(key: &str, default: u64) -> u64 {
    match std::env::var(key) {
        Ok(v) => v.trim().parse().unwrap_or(default),
        Err(_) => default,
    }
}

/// Trains the MAD-GAN → OC-SVM → kNN ladder on benign windows from the
/// twelve archetype patients, then wraps it with the fault injectors.
fn build_ladder(config: &ServeConfig) -> DetectorBank {
    // Deliberately the smoke-scale detector configs at every LGO_SCALE:
    // this bench measures the serving layer, not detector quality, and
    // cohort size is the axis that should grow with scale.
    let cfgs = detector_configs(Scale::Fast);
    let mut benign: Vec<Window> = Vec::new();
    for p in CohortStream::new(4, 1, BASE_SEED) {
        benign.extend(benign_windows(&p.series, config.seq_len, config.stride));
    }
    // Synthetic malicious windows for the supervised kNN: spoofed CGM
    // readings shifted far out of the benign band.
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
    let deadline = config.deadline.unwrap_or(Duration::from_millis(250));
    let stall_period = env_u64("LGO_SERVE_STALL_PERIOD", 40);
    let mut levels: Vec<Arc<dyn AnomalyDetector>> = Vec::new();
    for kind in [DetectorKind::MadGan, DetectorKind::OcSvm, DetectorKind::Knn] {
        let trained = try_train_detector(kind, &benign, &malicious, &cfgs)
            .unwrap_or_else(|e| panic!("training {} failed: {e}", kind.name()));
        // Every level panics on poisoned windows (a crash does not care
        // which model it crashes); only the expensive primary stalls.
        let panicking = PanickingDetector::new(trained);
        if kind == DetectorKind::MadGan {
            levels.push(Arc::new(StallingDetector::new(
                panicking,
                stall_period,
                deadline.saturating_mul(2),
            )));
        } else {
            levels.push(Arc::new(panicking));
        }
    }
    DetectorBank::new(levels)
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() - 1) as f64 * p).round() as usize;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

fn main() {
    let scale = Scale::from_env();
    let patients = env_u64(
        "LGO_SERVE_PATIENTS",
        match scale {
            Scale::Fast => 300,
            Scale::Mid => 10_000,
            Scale::Paper => 100_000,
        },
    );
    let samples_per_patient = env_u64("LGO_SERVE_SAMPLES", 24).max(1);
    let producers = env_u64("LGO_SERVE_PRODUCERS", 4).max(1) as usize;
    let mut config = ServeConfig::from_env();
    if std::env::var("LGO_SERVE_DEADLINE_MS").is_err() {
        // The bench exercises the watchdog by default; tests that need
        // determinism ask for inline mode explicitly.
        config.deadline = Some(Duration::from_millis(250));
    }

    eprintln!("bench_serve — online scoring under backpressure (scale: {})", scale.name());
    eprintln!(
        "cohort: {patients} patients x {samples_per_patient} samples, {producers} producer(s), \
         queue capacity {}, batch {}, deadline {:?}",
        config.capacity, config.batch_max, config.deadline
    );

    let t_train = Instant::now();
    let bank = build_ladder(&config);
    eprintln!(
        "ladder trained in {:.1} s: {}",
        t_train.elapsed().as_secs_f64(),
        bank.names().join(" -> ")
    );

    // The injected per-patient crashes are expected by the thousands at
    // paper scale; keep their backtraces off stderr while leaving every
    // other panic's report intact.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|s| s.contains("poisoned window"))
            || info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|s| s.contains("poisoned window"));
        if !injected {
            default_hook(info);
        }
    }));

    let days = (samples_per_patient as usize).div_ceil(lgo_glucosim::SAMPLES_PER_DAY);
    let service = Arc::new(ScoringService::new(config.clone(), bank));
    let producer_dropped = Arc::new(AtomicU64::new(0));

    // Producers partition the patient index space; each regenerates its
    // patients lazily from the shared base seed, so total producer memory
    // is one patient's series per thread, regardless of cohort size.
    let t0 = Instant::now();
    let mut handles = Vec::new();
    for shard in 0..producers as u64 {
        let svc = Arc::clone(&service);
        let dropped = Arc::clone(&producer_dropped);
        handles.push(std::thread::spawn(move || {
            let stream = CohortStream::new(patients, days, BASE_SEED);
            let mut idx = shard;
            while idx < patients {
                let patient = stream.patient(idx);
                let rows = patient.series.select(&FEATURES);
                let poisoned = idx.is_multiple_of(POISON_PERIOD);
                for row in rows.rows().iter().take(samples_per_patient as usize) {
                    let mut row = row.clone();
                    if poisoned {
                        row[0] = POISON;
                    }
                    let sample = Sample { patient: idx, row };
                    // Bounded retry against backpressure, then the
                    // producer owns the loss.
                    let mut delivered = false;
                    for _ in 0..50 {
                        if svc.try_ingest(sample.clone()) {
                            delivered = true;
                            break;
                        }
                        std::thread::sleep(Duration::from_micros(200));
                    }
                    if !delivered {
                        dropped.fetch_add(1, Ordering::Relaxed);
                    }
                }
                idx += producers as u64;
            }
        }));
    }

    // Scoring loop on this thread: drain until the producers are done and
    // the queue is dry. Per-cycle wall time is the micro-batch latency.
    let mut latencies_ms: Vec<f64> = Vec::new();
    loop {
        let cycle_start = Instant::now();
        let outcome = service.drain_cycle();
        if outcome.drained > 0 {
            latencies_ms.push(cycle_start.elapsed().as_secs_f64() * 1e3);
        } else {
            let producers_done = handles.iter().all(std::thread::JoinHandle::is_finished);
            if producers_done && service.is_drained() {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    for h in handles {
        let _ = h.join();
    }
    let elapsed = t0.elapsed().as_secs_f64();

    let report = service.report();
    let s = &report.stats;
    let dropped = producer_dropped.load(Ordering::Relaxed);
    latencies_ms.sort_by(f64::total_cmp);
    let throughput = s.drained as f64 / elapsed;

    println!("\nsustained throughput: {throughput:.0} samples/s over {elapsed:.1} s");
    println!(
        "micro-batch latency ms: p50 {:.2}  p95 {:.2}  p99 {:.2}  max {:.2}",
        percentile(&latencies_ms, 0.50),
        percentile(&latencies_ms, 0.95),
        percentile(&latencies_ms, 0.99),
        percentile(&latencies_ms, 1.0),
    );
    println!(
        "ingested {} rejected {} drained {} producer-dropped {dropped}",
        s.ingested, s.rejected, s.drained
    );
    println!(
        "windows: emitted {} scored {} shed {} anomalies {} per-level {:?}",
        s.windows_emitted, s.windows_scored, s.windows_shed, s.anomalies, s.level_windows
    );
    println!(
        "cycles: {} degraded {} shed {}; watchdog: misses {} retries {} gave-up {}",
        s.cycles,
        s.degraded_cycles,
        s.shed_cycles,
        report.watchdog.deadline_misses,
        report.watchdog.retries,
        report.watchdog.gave_up
    );
    println!(
        "quarantined {} patient(s) after {} captured panic(s)",
        report.quarantined.len(),
        s.panics
    );

    let json = format!(
        "{{\n  \"scale\": \"{}\",\n  \"patients\": {patients},\n  \"samples_per_patient\": {samples_per_patient},\n  \"producers\": {producers},\n  \"elapsed_seconds\": {elapsed:.3},\n  \"throughput_samples_per_sec\": {throughput:.1},\n  \"latency_ms\": {{\"p50\": {:.3}, \"p95\": {:.3}, \"p99\": {:.3}, \"max\": {:.3}}},\n  \"producer_dropped\": {dropped},\n  \"report\": {}\n}}\n",
        scale.name(),
        percentile(&latencies_ms, 0.50),
        percentile(&latencies_ms, 0.95),
        percentile(&latencies_ms, 0.99),
        percentile(&latencies_ms, 1.0),
        report.to_json(),
    );
    if let Err(e) = std::fs::create_dir_all("results") {
        eprintln!("warning: create results/: {e}");
    }
    std::fs::write("results/BENCH_serve.json", &json)
        .unwrap_or_else(|e| eprintln!("could not write results/BENCH_serve.json: {e}"));
    println!("\nwrote results/BENCH_serve.json");

    // The robustness contract this bench exists to demonstrate: injected
    // panics quarantined streams instead of killing the process, and
    // every sample is accounted for.
    assert!(s.panics > 0, "poison injection produced no captured panics");
    assert!(
        !report.quarantined.is_empty(),
        "captured panics must quarantine patients"
    );
    assert_eq!(
        s.ingested,
        s.drained,
        "accepted samples must all be drained"
    );
    write_trace("serve");
}
