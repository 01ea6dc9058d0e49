//! Runtime scaling curve — pipeline wall-clock vs `LGO_THREADS`.
//!
//! Runs the full five-step pipeline at thread counts 1, 2, 4 and 8 in
//! [`ROUNDS`] interleaved rounds (each round visits every count, starting
//! one count later than the round before), measures wall-clock time per
//! run, and verifies the determinism contract: the canonical export of
//! every multi-threaded run must be **byte-identical** to the
//! single-threaded one. Each count reports the median, minimum and maximum
//! of its rounds, and its speedup is the ratio of medians, so one noisy run
//! cannot bend the curve. Results (including the machine's actual core
//! count — speedup is bounded by physical cores, so a reader must be able
//! to judge the curve against the hardware that produced it) are written
//! to `results/BENCH_scaling.json`.
//!
//! ```text
//! LGO_SCALE=fast cargo run -p lgo-bench --release --bin exp_scaling
//! ```

use std::time::Instant;

use lgo_core::error::LgoError;
use lgo_core::export::canonical_json;
use lgo_core::pipeline::try_run_pipeline;
use lgo_series::stats::BoxStats;

use lgo_bench::{pipeline_config, write_trace, Scale};

/// Interleaved rounds per thread count; `seconds` is their median.
const ROUNDS: usize = 5;

fn main() -> Result<(), LgoError> {
    let scale = Scale::from_env();
    // Progress goes to stderr; stdout carries the JSON document, which is
    // also written to results/BENCH_scaling.json.
    eprintln!(
        "Scaling — pipeline wall-clock vs thread count (scale: {})",
        scale.name()
    );
    let config = pipeline_config(scale);
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    // The ambient LGO_THREADS setting (overridden per run below, but
    // recorded so a speedup-below-1 curve on a small container is
    // interpretable PR over PR).
    let threads_env = std::env::var("LGO_THREADS").ok();
    eprintln!(
        "machine reports {cores} available core(s); LGO_THREADS={}",
        threads_env.as_deref().unwrap_or("<unset>")
    );

    // Warm-up: first run pays one-off costs (pool spawn, page faults)
    // that would otherwise be charged to whichever thread count runs
    // first.
    lgo_runtime::set_threads(Some(1));
    let _ = try_run_pipeline(&config)?;

    let thread_counts = [1usize, 2, 4, 8];
    let mut seconds = vec![Vec::with_capacity(ROUNDS); thread_counts.len()];
    let mut reference: Option<String> = None;
    let mut identical_by_count = thread_counts.map(|_| true);
    for round in 0..ROUNDS {
        for k in (0..thread_counts.len()).map(|k| (k + round) % thread_counts.len()) {
            let t = thread_counts[k];
            lgo_runtime::set_threads(Some(t));
            let start = Instant::now();
            let report = try_run_pipeline(&config)?;
            let secs = start.elapsed().as_secs_f64();
            let export = canonical_json(&report);
            let identical = match &reference {
                None => {
                    reference = Some(export);
                    true
                }
                Some(r) => r == &export,
            };
            identical_by_count[k] &= identical;
            eprintln!(
                "round {round}, threads {t}: {secs:.3} s, export identical to serial: {identical}"
            );
            seconds[k].push(secs);
        }
    }
    lgo_runtime::set_threads(None);
    let all_identical = identical_by_count.iter().all(|&i| i);

    let stats: Vec<BoxStats> = seconds
        .iter()
        .map(|s| BoxStats::from_values(s).expect("every count ran ROUNDS > 0 times"))
        .collect();
    let rows: Vec<String> = thread_counts
        .iter()
        .zip(&stats)
        .zip(identical_by_count)
        .map(|((t, b), identical)| {
            format!(
                "    {{\"threads\": {t}, \"seconds\": {:.4}, \"min_s\": {:.4}, \"max_s\": {:.4}, \"speedup\": {:.3}, \"identical_output\": {identical}}}",
                b.median,
                b.min,
                b.max,
                stats[0].median / b.median
            )
        })
        .collect();
    let threads_field = match &threads_env {
        Some(v) => format!("\"{}\"", v.replace('"', "")),
        None => "null".to_string(),
    };
    let json = format!(
        "{{\n  \"scale\": \"{}\",\n  \"rounds\": {ROUNDS},\n  \"available_cores\": {cores},\n  \"lgo_threads_env\": {threads_field},\n  \"deterministic\": {all_identical},\n  \"runs\": [\n{}\n  ]\n}}\n",
        scale.name(),
        rows.join(",\n")
    );
    print!("{json}");
    if let Err(e) = std::fs::create_dir_all("results") {
        eprintln!("warning: create results/: {e}");
    }
    std::fs::write("results/BENCH_scaling.json", &json)
        .unwrap_or_else(|e| eprintln!("could not write results/BENCH_scaling.json: {e}"));

    assert!(
        all_identical,
        "determinism violation: multi-threaded export differs from serial"
    );
    write_trace("exp_scaling");
    Ok(())
}
