//! lgo-perfbench: the repository's end-to-end benchmark.
//!
//! ```text
//! lgo-perfbench --workload <profile-cohort|defense-grid|serve-stream>
//!               --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the untraced build and prints the end-to-end metrics;
//! `--trace 1` runs the `trace`-feature build and prints the per-layer
//! metrics. Each build refuses the other mode. The last stdout line is
//! the result object; the line before it is the run record (provenance,
//! output checks, workload details). `run.py` builds both variants and
//! fills in `trace_overhead_s`.

mod adapters;
mod cohort;
mod defense_grid;
mod layers;
mod profile_cohort;
mod report;
mod serve_stream;

use std::process::ExitCode;

use report::{peak_rss_mb, Args, Workload};

/// End-to-end metrics every untraced run prints.
const END_TO_END: [&str; 4] = ["setup_s", "peak_rss_mb", "work_s", "latency_p50_ms"];

/// Per-layer metrics every traced run prints: a layer the workload does
/// not touch reads 0.
const PER_LAYER: [(&str, &str); 53] = [
    ("forecast.train_s", "s"),
    ("forecast.train_samples", "count"),
    ("attack.campaign_s", "s"),
    ("attack.windows", "count"),
    ("attack.queries", "count"),
    ("attack.success_ratio", "ratio"),
    ("cluster.s", "s"),
    ("cluster.dtw_cells", "count"),
    ("runtime.tasks", "count"),
    ("runtime.steals", "count"),
    ("runtime.parks", "count"),
    ("detect.madgan.fit_s", "s"),
    ("detect.ocsvm.fit_s", "s"),
    ("detect.knn.fit_s", "s"),
    ("detect.madgan.fit_windows", "count"),
    ("detect.ocsvm.fit_windows", "count"),
    ("detect.knn.fit_windows", "count"),
    ("detect.ocsvm.smo_iterations", "count"),
    ("detect.madgan.score_s", "s"),
    ("detect.ocsvm.score_s", "s"),
    ("detect.knn.score_s", "s"),
    ("detect.madgan.windows_scored", "count"),
    ("detect.ocsvm.windows_scored", "count"),
    ("detect.knn.windows_scored", "count"),
    ("detect.kernel_cache.hits", "count"),
    ("detect.kernel_cache.misses", "count"),
    ("defense.craft_s", "s"),
    ("defense.crafted_windows", "count"),
    ("defense.grid_recall", "ratio"),
    ("defense.grid_fpr", "ratio"),
    ("serve.ingest_s", "s"),
    ("serve.drain_cycle_s", "s"),
    ("serve.cycles", "count"),
    ("serve.windows_per_cycle", "count"),
    ("serve.saturation_rows_per_s", "rows/s"),
    ("serve.wait_p50_ms", "ms"),
    ("serve.wait_p99_ms", "ms"),
    ("serve.latency_p99_ms", "ms"),
    ("detect.level0.score_us", "us"),
    ("detect.level1.score_us", "us"),
    ("detect.level2.score_us", "us"),
    ("serve.level0_windows", "count"),
    ("serve.level1_windows", "count"),
    ("serve.level2_windows", "count"),
    ("serve.windows_shed", "count"),
    ("serve.degraded_cycles", "count"),
    ("serve.primary_frac", "ratio"),
    ("serve.watchdog.misses", "count"),
    ("serve.watchdog.retries", "count"),
    ("bench.generator_lag_p99_ms", "ms"),
    ("bench.idle_s", "s"),
    ("unattributed_s", "s"),
    ("trace_overhead_s", "s"),
];

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lgo-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.trace != cfg!(feature = "trace") {
        eprintln!(
            "lgo-perfbench: --trace {} needs the {} build; end-to-end numbers never come from a traced build",
            u8::from(args.trace),
            if args.trace { "`--features trace`" } else { "untraced" },
        );
        return ExitCode::from(2);
    }
    lgo::runtime::set_threads(Some(report::POOL_THREADS));
    lgo::trace::set_enabled(Some(args.trace));

    let mut outcome = match args.workload {
        Workload::ProfileCohort => profile_cohort::run(&args),
        Workload::DefenseGrid => defense_grid::run(&args),
        Workload::ServeStream => serve_stream::run(&args),
    };

    if args.trace {
        for (name, unit) in PER_LAYER {
            if !outcome.metrics.iter().any(|m| m.name == name) {
                outcome.metric(name, 0.0, unit);
            }
        }
    } else {
        outcome.metric("peak_rss_mb", peak_rss_mb().unwrap_or(0.0), "MB");
        for name in END_TO_END {
            assert!(
                outcome.metrics.iter().any(|m| m.name == name),
                "{} did not measure {name}",
                args.workload.name()
            );
        }
    }
    println!("{}", outcome.record_line(&args));
    println!("{}", outcome.result_line());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric object in one section of
    /// BENCHMARK.json (a flat list of `{"name": ..., "unit": ...}` objects).
    fn section(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section closes")];
        let field = |obj: &str, name: &str| {
            let at = obj.find(&format!("\"{name}\": \"")).expect("field present") + name.len() + 5;
            obj[at..at + obj[at..].find('"').expect("string closes")].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    #[test]
    fn metric_lists_match_the_benchmark_definition() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let e2e: Vec<String> = section(&json, "end_to_end")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(e2e, END_TO_END);
        let layers = section(&json, "per_layer");
        let ours: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
            .collect();
        assert_eq!(layers, ours);
    }
}
