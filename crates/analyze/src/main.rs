//! CLI for the lgo workspace lint engine.
//!
//! ```text
//! lgo-analyze --workspace [--root DIR] [--json]   # scan the whole repo
//! lgo-analyze FILE...     [--json]                # scan files, all rules on
//! lgo-analyze --list-rules                        # print the lint catalog
//! ```
//!
//! Exits 0 when clean, 1 on findings, 2 on usage or I/O errors.

use std::path::PathBuf;
use std::process::ExitCode;

use lgo_analyze::{analyze_files, analyze_workspace, render_json, FileInput, FileScope, Finding};

const RULE_CATALOG: &str = "\
L1  no .unwrap()/.expect()/panic!/unreachable!/todo!/unimplemented! in non-test
    library code of the defense crates (core, detect, forecast, nn, tensor,
    series, cluster); allow with `// lint: allow(L1): <why>`
L2  no partial_cmp / raw </> comparator closures on floats; use f64::total_cmp
L3  a pub fn that can panic must return Result or have a try_ twin
L4  no ==/!= against float literals; compare with an epsilon
L5  every pub item in lgo-core carries a doc comment
L6  no bare .unwrap()/.expect() on lock()/read()/write()/join() results
    outside lgo-runtime internals; recover from poisoning or allow with
    `/ lint: allow(L6): <why>`
L7  no bare println!/eprintln!/print!/eprint! in non-test library code (any
    crate except lgo-bench and lgo-analyze); record through lgo-trace or
    allow with `// lint: allow(L7): <why>`
L8  no bare thread::sleep in non-test library code (any crate except
    lgo-runtime and lgo-serve); sleep-based waits hide stalls and break
    determinism — wait on a Condvar / deadline or allow with
    `// lint: allow(L8): <why>`
L9  determinism dataflow: no HashMap/HashSet declarations or storage-order
    iteration in library code (use BTreeMap/BTreeSet, an order-insensitive
    reduction, or an explicit sort); no Instant::now/SystemTime outside the
    runtime/trace/serve timing seams; no RNG not derived from
    lgo_runtime::split_seed (entropy sources and constant seeds)
L10 closures passed to par_map/par_chunks/scope (and their
    try_ twins) must not mutate captured shared state (Mutex/RefCell/atomic
    writes); index-addressed slots and closure-owned locals are allowed
L11 a pub defense-crate fn must not transitively reach a panic through the
    workspace call graph without a Result return or a try_ twin somewhere
    on the path
L12 lock-order consistency in lgo-runtime/lgo-serve: no pair of locks
    acquired in both orders anywhere in the (interprocedural) hold graph
L13 no per-timestep .matvec()/.matmul() inside a loop body in lgo-nn
    library code; batch through matmul_nt or a flat-trace forward_rows step
L14 no pub fn in library code (every crate except lgo-bench and
    lgo-analyze) whose name is mentioned nowhere but its own definition and
    its own file's tests; comments and use items do not count, mentions in
    tests/, examples/, binaries and perfbench/src do; a try_x whose x is
    used is exempt
A0  lint directives must be well-formed and carry a justification
A1  lint directives must suppress at least one finding";

struct Args {
    workspace: bool,
    json: bool,
    list_rules: bool,
    root: PathBuf,
    files: Vec<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workspace: false,
        json: false,
        list_rules: false,
        root: PathBuf::from("."),
        files: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workspace" => args.workspace = true,
            "--json" => args.json = true,
            "--list-rules" => args.list_rules = true,
            "--root" => {
                args.root = PathBuf::from(
                    it.next().ok_or_else(|| "--root requires a directory".to_string())?,
                );
            }
            "-h" | "--help" => return Err(String::new()),
            other if other.starts_with('-') => {
                return Err(format!("unknown flag `{other}`"));
            }
            file => args.files.push(PathBuf::from(file)),
        }
    }
    if !args.list_rules && !args.workspace && args.files.is_empty() {
        return Err("nothing to do: pass --workspace or file paths".to_string());
    }
    Ok(args)
}

fn run(args: &Args) -> std::io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    if args.workspace {
        findings.extend(analyze_workspace(&args.root)?);
    }
    // Explicit files are scanned with every rule enabled: used for fixture
    // tests and for checking a file before it lands in a scoped crate. They
    // go through as one batch so L3/L11/L12 see calls across the set.
    let mut inputs = Vec::new();
    for path in &args.files {
        inputs.push(FileInput {
            path: path.to_string_lossy().into_owned(),
            src: std::fs::read_to_string(path)?,
            scope: FileScope::all(),
        });
    }
    findings.extend(analyze_files(&inputs));
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(findings)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("lgo-analyze: {msg}");
            }
            eprintln!(
                "usage: lgo-analyze --workspace [--root DIR] [--json] | FILE... | --list-rules"
            );
            return ExitCode::from(2);
        }
    };
    if args.list_rules {
        println!("{RULE_CATALOG}");
        return ExitCode::SUCCESS;
    }
    let findings = match run(&args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("lgo-analyze: {e}");
            return ExitCode::from(2);
        }
    };
    if args.json {
        print!("{}", render_json(&findings));
    } else {
        for f in &findings {
            println!("{}", f.render());
        }
        if findings.is_empty() {
            println!("lgo-analyze: workspace clean");
        } else {
            println!("lgo-analyze: {} finding(s)", findings.len());
        }
    }
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::RULE_CATALOG;
    use lgo_analyze::allow::KNOWN_RULES;

    #[test]
    fn catalog_lists_every_known_rule() {
        // Entry lines start with the rule id; continuation lines are indented.
        let ids: Vec<&str> = RULE_CATALOG
            .lines()
            .filter(|l| !l.starts_with(' '))
            .filter_map(|l| l.split_whitespace().next())
            .collect();
        for rule in KNOWN_RULES {
            assert!(ids.contains(rule), "--list-rules lacks {rule}");
        }
    }
}
