//! The reproduction harness: every table and figure of the paper's
//! evaluation (plus the ROC extension, the two clustering ablations, the
//! adaptive re-profiling study and the sensor-fault sweep) is one named
//! section, and the sections that read steps 1–5 share one pipeline run.
//!
//! ```text
//! LGO_SCALE=paper cargo run -p lgo-bench --release --bin repro_all
//! LGO_SCALE=fast  cargo run -p lgo-bench --release --bin repro_all -- table2 fig7
//! ```
//!
//! With no argument every section runs in paper order; arguments select
//! sections by name (an unknown name exits non-zero and lists the valid
//! ones). The shared pipeline's steps 1–4 and its step-5 grid each run at
//! most once per process, on the first section that reads them, so a
//! section that reads only steps 1–4 trains no detector grid. Figures 4
//! and 5 need the full cohort: Figure 4 simulates its own, and Figure 5
//! reads the shared steps 1–4 where they cover the full cohort (mid and
//! paper scale) and profiles the full cohort itself at fast scale.
//! Sections print to stdout, which is deterministic; timing goes to
//! stderr.

mod detection;
mod extensions;
mod profiling;
mod samples;

use std::cell::OnceCell;
use std::time::Instant;

use lgo_bench::{banner, pipeline_config, write_trace, Scale};
use lgo_core::pipeline::{
    simulate_cohort, try_evaluate_grid, try_profile_cohort, CohortProfiles, PipelineConfig,
};
use lgo_core::selective::StrategyEvaluation;

/// What every section reads: the scale, the shared pipeline configuration
/// and the data computed on demand for more than one section.
struct Ctx {
    scale: Scale,
    config: PipelineConfig,
    profiled: OnceCell<CohortProfiles>,
    evaluations: OnceCell<Vec<StrategyEvaluation>>,
    subset_a: OnceCell<samples::SubsetACampaigns>,
}

/// Steps 1–4 over `config`'s cohort.
fn profile_cohort(config: &PipelineConfig) -> CohortProfiles {
    let t0 = Instant::now();
    let profiled = try_profile_cohort(config, simulate_cohort(config))
        .unwrap_or_else(|e| panic!("steps 1-4: {e}"));
    eprintln!("steps 1-4 completed in {:?}", t0.elapsed());
    profiled
}

impl Ctx {
    /// The shared pipeline's steps 1–4 over the scale's cohort, run on
    /// first use.
    fn profiled(&self) -> &CohortProfiles {
        self.profiled.get_or_init(|| profile_cohort(&self.config))
    }

    /// The shared pipeline's step 5 (all strategies × all detectors) over
    /// [`Self::profiled`], run on first use.
    fn evaluations(&self) -> &[StrategyEvaluation] {
        self.evaluations.get_or_init(|| {
            let profiled = self.profiled();
            let t0 = Instant::now();
            let evaluations =
                try_evaluate_grid(&self.config, profiled).unwrap_or_else(|e| panic!("step 5: {e}"));
            eprintln!("step 5 completed in {:?}", t0.elapsed());
            evaluations
        })
    }

    /// The Subset-A personalized and aggregate campaigns behind Figures 9
    /// and 10, run on first use.
    fn subset_a(&self) -> &samples::SubsetACampaigns {
        self.subset_a
            .get_or_init(|| samples::SubsetACampaigns::run(self.scale))
    }
}

/// One report section: its name on the command line, its banner (title and
/// paper reference) and the function that prints its body.
type Section = (&'static str, &'static str, &'static str, fn(&Ctx));

/// Every section: the paper's tables and figures in paper order, then the
/// extensions and ablations.
#[rustfmt::skip]
const SECTIONS: &[Section] = &[
    ("table1", "Table I", "severity coefficients per state transition", profiling::table1),
    ("table2", "Table II", "clusters of patient vulnerability", profiling::table2),
    ("fig3", "Figure 3", "risk profiles + dendrograms per subset", profiling::fig3),
    ("fig4", "Figure 4", "benign normal:abnormal ratio per patient", samples::fig4),
    ("fig5", "Figure 5", "kNN sample flags on A_5 vs A_2, indiscriminate training", detection::fig5),
    ("fig6", "Figure 6", "quadrant taxonomy of glucose samples", samples::fig6),
    ("fig7", "Figure 7", "recall per detector x training strategy", detection::fig7),
    ("fig8", "Figure 8", "precision per detector x training strategy", detection::fig8),
    ("fig9", "Figure 9", "normal -> hyper misdiagnosis %, Subset A", samples::fig9),
    ("fig10", "Figure 10", "hypo -> hyper misdiagnosis %, Subset A", samples::fig10),
    ("fig11", "Figure 11", "F1-score per detector x training strategy", detection::fig11),
    ("appendix-d", "Appendix D", "generalization of LV-trained detectors", detection::appendix_d),
    ("roc", "Extension", "ROC/AUC under LV vs All training", detection::roc),
    ("ablation-linkage", "Ablation", "linkage sensitivity of the clusters", profiling::ablation_linkage),
    ("ablation-severity", "Ablation", "severity-coefficient sensitivity of the clusters", profiling::ablation_severity),
    ("adaptive", "Extension", "adaptive risk profiling under concept drift", extensions::adaptive),
    ("fault-robustness", "Extension", "detector metrics vs train-time sensor-fault rate", extensions::fault_robustness),
];

fn main() {
    let t0 = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let selected: Vec<&Section> = if args.is_empty() {
        SECTIONS.iter().collect()
    } else {
        args.iter()
            .map(|arg| match SECTIONS.iter().find(|s| s.0 == arg) {
                Some(s) => s,
                None => {
                    let names: Vec<&str> = SECTIONS.iter().map(|s| s.0).collect();
                    eprintln!(
                        "repro_all: unknown section {arg:?}; valid sections: {}",
                        names.join(", ")
                    );
                    std::process::exit(2);
                }
            })
            .collect()
    };

    let scale = Scale::from_env();
    let ctx = Ctx {
        scale,
        config: pipeline_config(scale),
        profiled: OnceCell::new(),
        evaluations: OnceCell::new(),
        subset_a: OnceCell::new(),
    };
    for &(_, title, paper_ref, run) in selected {
        banner(title, paper_ref, scale);
        run(&ctx);
    }
    write_trace("repro_all");
    eprintln!("\ntotal wall time: {:?}", t0.elapsed());
}
