//! `lgo-analyze` — offline static analysis for the lgo workspace.
//!
//! The BGMS defense stack sits in a safety-critical loop (CGM → anomaly
//! detector → BiLSTM forecaster → dosing). A silent NaN in a risk profile,
//! a `partial_cmp` that misorders NaN scores, a stray `unwrap()` in a
//! per-patient stage, or a `HashMap` iteration that reorders exported risk
//! profiles between runs corrupts exactly the quantities the
//! selective-training defense depends on. This crate enforces the repo
//! conventions that guard against that, as a build gate
//! (`scripts/check.sh`) with no external dependencies so it runs in the
//! same offline environment as the rest of the workspace.
//!
//! * [`lexer`] — hand-rolled Rust tokenizer;
//! * [`parser`] — dependency-free recursive-descent parser producing the
//!   lightweight [`ast`] (item tree + flat per-body node lists);
//! * [`resolve`] — scope-aware symbol table: `use` aliases, struct field
//!   types, per-function local type environments;
//! * [`callgraph`] — workspace call graph and the interprocedural rules
//!   (L3 twins, L11 panic reachability, L12 lock order);
//! * [`rules`] — the lint catalog (L1–L14) and the two-pass engine;
//! * [`allow`] — `// lint: allow(<rule>): <why>` suppression directives;
//! * [`report`] — findings plus text/JSON rendering;
//! * [`walk`] — workspace file discovery: the files linted, and the
//!   wider set read for the names it mentions (L14's consumers).
//!
//! ```
//! use lgo_analyze::{analyze_source, FileScope};
//!
//! let src = "fn f(xs: &[f64]) -> f64 { *xs.first().unwrap() }\n";
//! let findings = analyze_source("demo.rs", src, FileScope::all());
//! assert_eq!(findings.len(), 1);
//! assert_eq!(findings[0].rule, "L1");
//! ```

pub mod allow;
pub mod ast;
pub mod callgraph;
pub mod lexer;
pub mod parser;
pub mod report;
pub mod resolve;
pub mod rules;
pub mod walk;

pub use report::{render_json, Finding};
pub use rules::{
    analyze_files, analyze_files_with_consumers, analyze_source, FileInput, FileScope,
};

use std::path::Path;

/// Scans the workspace rooted at `root`, applying path-derived rule scopes.
/// All files are analyzed as one batch so the interprocedural rules
/// (L3/L11/L12) see the whole call graph. Every other file of
/// [`walk::consumer_files`] is read for L14's name mentions only.
///
/// # Errors
///
/// Returns any I/O error from walking or reading source files.
pub fn analyze_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let linted = walk::workspace_files(root)?;
    let mut consumers = Vec::new();
    for path in walk::consumer_files(root)? {
        if linted.binary_search(&path).is_err() {
            consumers.push(std::fs::read_to_string(&path)?);
        }
    }
    let mut inputs = Vec::new();
    for path in linted {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let Some(scope) = FileScope::for_path(&rel) else {
            continue;
        };
        let src = std::fs::read_to_string(&path)?;
        inputs.push(FileInput { path: rel, src, scope });
    }
    Ok(analyze_files_with_consumers(&inputs, &consumers))
}
