//! Golden-file tests for the lint engine.
//!
//! Each fixture under `tests/fixtures/` is a plain Rust source file (never
//! compiled) that declares its own expected findings with trailing
//! `//~ <RULE>` markers, compiletest-style. The harness lexes and analyzes
//! the fixture text, then diffs the `(line, rule)` set against the markers,
//! so a fixture documents the analyzer's exact behaviour line by line.

use lgo_analyze::{analyze_files_with_consumers, analyze_source, FileInput, FileScope};

/// `(line, rule)` pairs declared by `//~` markers in the fixture text.
fn expected_findings(src: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (idx, line) in src.lines().enumerate() {
        if let Some(pos) = line.find("//~") {
            for rule in line[pos + 3..].split_whitespace() {
                out.push((idx + 1, rule.to_string()));
            }
        }
    }
    out.sort();
    out
}

fn check_fixture(name: &str, scope: FileScope) {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading fixture {name}: {e}"));
    let mut found: Vec<(usize, String)> = analyze_source(name, &src, scope)
        .into_iter()
        .map(|f| (f.line, f.rule.to_string()))
        .collect();
    found.sort();
    assert_eq!(
        found,
        expected_findings(&src),
        "fixture {name}: analyzer findings (left) disagree with //~ markers (right)"
    );
}

#[test]
fn l1_panic_sites() {
    check_fixture("l1_sites.rs", FileScope { l1: true, ..FileScope::none() });
}

#[test]
fn l2_float_ordering() {
    check_fixture("l2_float_order.rs", FileScope { l2: true, ..FileScope::none() });
}

#[test]
fn l3_try_twins() {
    // L1 + L3 together, as in the real lib-crate scope, so that allow(L1)
    // directives are consumed exactly like they are in the workspace.
    check_fixture("l3_twins.rs", FileScope { l1: true, l3: true, ..FileScope::none() });
}

#[test]
fn l3_trait_impl_methods() {
    // Trait-impl methods of workspace-defined pub traits are public API
    // surface too: a panicking impl of a pub trait needs a try_ twin just
    // like a free pub fn. (The old token engine only saw `pub fn`.)
    check_fixture("l3_trait_impl.rs", FileScope { l1: true, l3: true, ..FileScope::none() });
}

#[test]
fn l4_float_literal_equality() {
    check_fixture("l4_float_eq.rs", FileScope { l4: true, ..FileScope::none() });
}

#[test]
fn l5_missing_docs() {
    check_fixture("l5_docs.rs", FileScope { l5: true, ..FileScope::none() });
}

#[test]
fn l6_lock_results() {
    check_fixture("l6_locks.rs", FileScope { l6: true, ..FileScope::none() });
}

#[test]
fn l7_library_prints() {
    check_fixture("l7_prints.rs", FileScope { l7: true, ..FileScope::none() });
}

#[test]
fn l8_thread_sleeps() {
    check_fixture("l8_sleeps.rs", FileScope { l8: true, ..FileScope::none() });
}

#[test]
fn l9_hash_containers() {
    check_fixture("l9_hash.rs", FileScope { l9_hash: true, ..FileScope::none() });
}

#[test]
fn l9_time_and_rng() {
    check_fixture(
        "l9_time_rng.rs",
        FileScope { l9_time: true, l9_rng: true, ..FileScope::none() },
    );
}

#[test]
fn l10_parallel_closures() {
    check_fixture("l10_par_closures.rs", FileScope { l10: true, ..FileScope::none() });
}

#[test]
fn l11_panic_reachability() {
    check_fixture("l11_panic_reach.rs", FileScope { l11: true, ..FileScope::none() });
}

#[test]
fn l12_lock_order() {
    check_fixture("l12_lock_order.rs", FileScope { l12: true, ..FileScope::none() });
}

#[test]
fn l13_nn_loop_products() {
    check_fixture("l13_nn_loops.rs", FileScope { l13: true, ..FileScope::none() });
}

#[test]
fn l14_unconsumed_pub_fns() {
    check_fixture("l14_unconsumed.rs", FileScope { l14: true, ..FileScope::none() });
}

#[test]
fn l14_reads_consumer_files_for_names_only() {
    let lib = || FileInput {
        path: "crates/demo/src/lib.rs".to_string(),
        src: "pub fn helper() -> u8 { 1 }\n".to_string(),
        scope: FileScope { l14: true, ..FileScope::none() },
    };
    let flagged = |consumer: &str| -> usize {
        analyze_files_with_consumers(&[lib()], &[consumer.to_string()]).len()
    };
    // A consumer's use item and comments do not keep `helper` alive...
    assert_eq!(flagged("use demo::helper;\n/// calls helper()\nfn main() {}\n"), 1);
    // ...a call does, and the consumer itself is never linted.
    assert_eq!(flagged("fn main() { let _ = demo::helper(); }\npub fn unused() {}\n"), 0);
}

#[test]
fn allowlist_hygiene() {
    check_fixture("allow_hygiene.rs", FileScope::all());
}

#[test]
fn clean_file_reports_nothing() {
    check_fixture("clean.rs", FileScope::all());
}

#[test]
fn fixture_trees_are_out_of_scope() {
    assert_eq!(
        FileScope::for_path("crates/analyze/tests/fixtures/l1_sites.rs"),
        None
    );
    assert_eq!(FileScope::for_path("vendor/rand/src/lib.rs"), None);
}

#[test]
fn workspace_path_scoping() {
    let core = FileScope::for_path("crates/core/src/risk.rs").unwrap();
    assert!(core.l1 && core.l3 && core.l5);
    let bench_bin = FileScope::for_path("crates/bench/src/bin/exp_fig4.rs").unwrap();
    assert!(!bench_bin.l1 && bench_bin.l2 && bench_bin.l4 && !bench_bin.l5);
    let test_file = FileScope::for_path("crates/detect/tests/integration.rs").unwrap();
    assert!(!test_file.l1 && !test_file.l2 && !test_file.l4 && !test_file.l6);
    // lgo-runtime owns the synchronization internals, so L6 is off there
    // but on everywhere else outside test trees.
    let runtime = FileScope::for_path("crates/runtime/src/pool.rs").unwrap();
    assert!(!runtime.l6);
    assert!(core.l6);
    // L7 covers library sources everywhere except the two presentation
    // crates; binaries, tests and benches stay free to print.
    assert!(core.l7 && runtime.l7);
    assert!(FileScope::for_path("crates/trace/src/lib.rs").unwrap().l7);
    assert!(!bench_bin.l7);
    assert!(!test_file.l7);
    assert!(!FileScope::for_path("crates/bench/src/lib.rs").unwrap().l7);
    assert!(!FileScope::for_path("crates/analyze/src/rules.rs").unwrap().l7);
    assert!(!FileScope::for_path("crates/trace/src/bin/trace_schema.rs").unwrap().l7);
    // L8 exempts the two crates that legitimately own timing — the runtime
    // pool and the serving stack's watchdog/backoff — and, as with every
    // rule, binaries and test trees.
    assert!(core.l8);
    assert!(FileScope::for_path("crates/detect/src/madgan.rs").unwrap().l8);
    assert!(!runtime.l8);
    assert!(!FileScope::for_path("crates/serve/src/watchdog.rs").unwrap().l8);
    assert!(!bench_bin.l8);
    assert!(!test_file.l8);
    // L9's three sub-checks: hash-order and RNG discipline hold across all
    // library code; wall-clock reads are legitimate only inside the
    // runtime/trace/serve timing seams.
    assert!(core.l9_hash && core.l9_time && core.l9_rng);
    assert!(runtime.l9_hash && runtime.l9_rng);
    assert!(!runtime.l9_time);
    assert!(!FileScope::for_path("crates/trace/src/lib.rs").unwrap().l9_time);
    assert!(!FileScope::for_path("crates/serve/src/inject.rs").unwrap().l9_time);
    assert!(!bench_bin.l9_hash && !bench_bin.l9_time && !bench_bin.l9_rng);
    assert!(!test_file.l9_hash);
    // L10 follows L2/L4: everywhere outside test trees (bins included —
    // a schedule-dependent experiment binary is just as wrong).
    assert!(core.l10 && runtime.l10 && bench_bin.l10);
    assert!(!test_file.l10);
    // L11 shares L3's scope: the defense-crate public API.
    assert!(core.l11);
    assert!(!runtime.l11 && !bench_bin.l11 && !test_file.l11);
    // L12 is owned by the two lock-holding crates.
    assert!(runtime.l12);
    assert!(FileScope::for_path("crates/serve/src/watchdog.rs").unwrap().l12);
    assert!(!core.l12);
    assert!(!FileScope::for_path("crates/runtime/tests/pool.rs").unwrap().l12);
    // L13 is owned by the recurrent-cell crate: nn library sources only.
    assert!(FileScope::for_path("crates/nn/src/lstm.rs").unwrap().l13);
    assert!(!core.l13);
    assert!(!FileScope::for_path("crates/tensor/src/block.rs").unwrap().l13);
    assert!(!FileScope::for_path("crates/nn/tests/lstm_golden.rs").unwrap().l13);
    // L14 covers the library sources of every crate except the two leaf
    // crates; binaries, test trees and the facade are consumers only.
    assert!(core.l14 && runtime.l14);
    assert!(!bench_bin.l14 && !test_file.l14);
    assert!(!FileScope::for_path("crates/bench/src/lib.rs").unwrap().l14);
    assert!(!FileScope::for_path("crates/analyze/src/rules.rs").unwrap().l14);
    assert!(!FileScope::for_path("src/lib.rs").unwrap().l14);
}

/// The whole point of the crate: the workspace itself stays lint-clean.
/// This pins the invariant into `cargo test` as well as `scripts/check.sh`.
#[test]
fn workspace_is_lint_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crate dir has a workspace root two levels up")
        .to_path_buf();
    let findings = lgo_analyze::analyze_workspace(&root).expect("workspace walk");
    let rendered: Vec<String> = findings.iter().map(|f| f.render()).collect();
    assert!(
        findings.is_empty(),
        "workspace has lint findings:\n{}",
        rendered.join("\n")
    );
}
