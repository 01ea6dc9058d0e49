//! The lint rules and the two-pass analysis engine.
//!
//! | ID  | Enforced on | Violation |
//! |-----|-------------|-----------|
//! | L1  | non-test library code of the seven defense crates | `.unwrap()`, `.expect()`, `panic!`, `unreachable!`, `todo!`, `unimplemented!` |
//! | L2  | whole workspace (non-test) | `partial_cmp` on floats / raw `<` `>` inside comparator closures — use `f64::total_cmp` |
//! | L3  | error-layer crates | public API fn (free, inherent, or workspace-trait impl) that can panic without a `try_` twin or `Result` return |
//! | L4  | whole workspace (non-test) | `==` / `!=` against a float literal |
//! | L5  | `lgo-core` | `pub` item without a doc comment |
//! | L6  | whole workspace (non-test) except `lgo-runtime` internals | bare `.unwrap()`/`.expect()` on `lock()`/`read()`/`write()`/`join()` results |
//! | L7  | non-test library code of every crate except `lgo-bench` / `lgo-analyze` | bare `println!` / `eprintln!` — report through lgo-trace or return data |
//! | L8  | non-test library code of every crate except `lgo-runtime` / `lgo-serve` | `std::thread::sleep` — sleep-based waits hide stalls and break determinism |
//! | L9  | non-test library code (timing seams exempt per sub-check) | hash-ordered containers / wall-clock reads / RNG not derived from `split_seed` |
//! | L10 | whole workspace (non-test) | closure passed to a `par_*`/`scope` adapter mutates captured shared state |
//! | L11 | error-layer crates | `pub` API fn *transitively* reaches a panic through the call graph with no absorption point |
//! | L12 | `lgo-runtime` / `lgo-serve` library code | a pair of locks acquired in both orders |
//! | L13 | `lgo-nn` library code | per-timestep `.matvec()` / `.matmul()` inside a loop body — batch through `matmul_nt` or a flat-trace `forward_rows` step |
//! | L14 | library code of every crate except `lgo-bench` / `lgo-analyze` | `pub fn` whose name is mentioned nowhere but its own definition and its own file's tests |
//!
//! L1–L8 are single-pass token rules from the original engine; L9/L10 run
//! on the [`crate::ast`] produced by [`crate::parser`] with type evidence
//! from [`crate::resolve`]; L3/L11/L12 are workspace-level passes over the
//! call graph in [`crate::callgraph`]; L14 counts name mentions across the
//! linted files and any read-only consumer files. Test code (`#[cfg(test)]` items,
//! `#[test]` fns) is masked out first. Findings can be suppressed with a
//! trailing `// lint: allow(<rule>): <why>` comment — see [`crate::allow`].

use std::collections::{BTreeMap, BTreeSet};

use crate::allow::parse_allows;
use crate::ast::{self, ItemKind, Node};
use crate::callgraph;
use crate::lexer::{tokenize, TokenKind};
use crate::parser::{panic_site, parse_file, test_mask, Cursor};
use crate::report::Finding;
use crate::resolve::{self, FieldTypes, TypeEnv, UseMap};

/// Which rules apply to a given file; derived from its workspace path by
/// [`FileScope::for_path`], or use [`FileScope::all`] to enforce everything
/// (explicit-file mode, fixtures). L9 splits into three independently
/// scoped sub-checks because their exemption sets differ (the timing seams
/// legitimately read clocks; nothing legitimately iterates a HashMap into
/// exported output).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileScope {
    pub l1: bool,
    pub l2: bool,
    pub l3: bool,
    pub l4: bool,
    pub l5: bool,
    pub l6: bool,
    pub l7: bool,
    pub l8: bool,
    /// L9: hash-ordered container declarations and iteration.
    pub l9_hash: bool,
    /// L9: `Instant::now` / `SystemTime` wall-clock reads.
    pub l9_time: bool,
    /// L9: RNG construction not derived from `lgo_runtime::split_seed`.
    pub l9_rng: bool,
    pub l10: bool,
    pub l11: bool,
    pub l12: bool,
    /// L13: per-timestep dense products inside nn loop bodies.
    pub l13: bool,
    /// L14: `pub fn`s nothing outside their own file's tests mentions.
    pub l14: bool,
}

/// The defense-stack library crates where a stray panic corrupts risk
/// profiles silently (L1/L3/L11 scope).
pub const LIB_CRATES: &[&str] = &[
    "core", "detect", "forecast", "nn", "tensor", "series", "cluster",
];

impl FileScope {
    /// Every rule enabled.
    pub fn all() -> Self {
        FileScope {
            l1: true,
            l2: true,
            l3: true,
            l4: true,
            l5: true,
            l6: true,
            l7: true,
            l8: true,
            l9_hash: true,
            l9_time: true,
            l9_rng: true,
            l10: true,
            l11: true,
            l12: true,
            l13: true,
            l14: true,
        }
    }

    /// Every rule disabled — combine with struct update syntax to enable
    /// exactly the rules a fixture exercises.
    pub fn none() -> Self {
        FileScope {
            l1: false,
            l2: false,
            l3: false,
            l4: false,
            l5: false,
            l6: false,
            l7: false,
            l8: false,
            l9_hash: false,
            l9_time: false,
            l9_rng: false,
            l10: false,
            l11: false,
            l12: false,
            l13: false,
            l14: false,
        }
    }

    /// Scope for a workspace-relative path (`crates/core/src/risk.rs`).
    ///
    /// Returns `None` for files the analyzer should not scan at all
    /// (vendored dependencies, fixture trees).
    pub fn for_path(rel: &str) -> Option<Self> {
        let rel = rel.replace('\\', "/");
        if rel.starts_with("vendor/") || rel.contains("/fixtures/") || rel.starts_with("target/") {
            return None;
        }
        let krate = rel
            .strip_prefix("crates/")
            .and_then(|r| r.split('/').next())
            .unwrap_or("");
        // Library source excludes binaries, integration tests and benches.
        let in_lib_src = rel.contains("/src/") && !rel.contains("/src/bin/");
        let is_test_file = rel.contains("/tests/") || rel.contains("/benches/");
        let lib_crate = LIB_CRATES.contains(&krate);
        Some(FileScope {
            l1: lib_crate && in_lib_src && !is_test_file,
            l2: !is_test_file,
            l3: lib_crate && in_lib_src && !is_test_file,
            l4: !is_test_file,
            l5: krate == "core" && in_lib_src && !is_test_file,
            // The runtime's pool internals recover from poisoning by
            // design; everywhere else a poisoned-lock panic would bypass
            // the error layer.
            l6: krate != "runtime" && !is_test_file,
            // Library code reports through lgo-trace or returns data; stdout
            // belongs to the experiment binaries (and lgo-bench / lgo-analyze
            // are presentation layers by design).
            l7: in_lib_src && !is_test_file && !matches!(krate, "bench" | "analyze"),
            // Sleep-based waiting belongs to the scheduling layers: the
            // runtime's pool and the serving stack's watchdog/backoff own
            // their timing; everywhere else a sleep hides a missing
            // condition variable and perturbs determinism.
            l8: in_lib_src && !is_test_file && !matches!(krate, "runtime" | "serve"),
            // Hash-ordered iteration leaks `RandomState` seeding into any
            // ordered or exported output; library code uses BTree
            // containers (or sorts explicitly) everywhere.
            l9_hash: in_lib_src && !is_test_file,
            // Wall-clock reads belong to the timing seams the trace layer
            // already masks under `timing`; everywhere else they are
            // nondeterminism that byte-identity tests cannot see.
            l9_time: in_lib_src && !is_test_file && !matches!(krate, "runtime" | "trace" | "serve"),
            // Every random stream derives from `lgo_runtime::split_seed`;
            // entropy-seeded or constant-seeded generators in library code
            // break per-task stream independence.
            l9_rng: in_lib_src && !is_test_file,
            l10: !is_test_file,
            l11: lib_crate && in_lib_src && !is_test_file,
            // Lock-order discipline is owned by the two crates that hold
            // locks across work: the runtime pool and the serving stack.
            l12: matches!(krate, "runtime" | "serve") && in_lib_src && !is_test_file,
            // Recurrent cells are the one place a per-timestep matvec in a
            // loop silently costs a batched-matmul's worth of throughput;
            // the batched forward paths exist precisely to avoid it.
            l13: krate == "nn" && in_lib_src && !is_test_file,
            // Surface without a consumer is code to maintain for nothing.
            // The experiment binaries and the analyzer are leaf crates whose
            // public fns exist for their own binaries and tests.
            l14: !krate.is_empty()
                && in_lib_src
                && !is_test_file
                && !matches!(krate, "bench" | "analyze"),
        })
    }
}

/// One file queued for analysis: its workspace-relative path, source text,
/// and rule scope.
pub struct FileInput {
    pub path: String,
    pub src: String,
    pub scope: FileScope,
}

/// Runs every in-scope rule over one file's source text. Single-file
/// convenience over [`analyze_files`]; interprocedural rules (L3/L11/L12)
/// see only this file's call graph, and L14 only this file's mentions.
pub fn analyze_source(file: &str, src: &str, scope: FileScope) -> Vec<Finding> {
    analyze_files(&[FileInput {
        path: file.to_string(),
        src: src.to_string(),
        scope,
    }])
}

/// The two-pass engine. Pass 1 walks each file independently: token rules
/// (L1/L2/L4/L6/L7/L8), doc rule (L5), AST determinism rules (L9/L10), and
/// fact collection for the call graph. Pass 2 runs the workspace-level
/// rules (L3 with trait impls, L11 panic reachability, L12 lock order)
/// over the combined facts, then applies each file's allow directives and
/// the allowlist hygiene rules (A0/A1). L14's consumers are `inputs`
/// alone; see [`analyze_files_with_consumers`].
pub fn analyze_files(inputs: &[FileInput]) -> Vec<Finding> {
    analyze_files_with_consumers(inputs, &[])
}

/// [`analyze_files`] with extra `consumers`: source texts that are never
/// linted but whose identifier mentions count as uses for L14 (integration
/// tests, examples, the benchmark harness).
pub fn analyze_files_with_consumers(inputs: &[FileInput], consumers: &[String]) -> Vec<Finding> {
    let tokenized: Vec<_> = inputs.iter().map(|f| tokenize(&f.src)).collect();

    let mut raw: Vec<Finding> = Vec::new();
    let mut facts: Vec<callgraph::FnFact> = Vec::new();
    let mut traits: BTreeSet<String> = BTreeSet::new();
    let mut allows_by_file = Vec::with_capacity(inputs.len());
    let mut l3_files: BTreeSet<usize> = BTreeSet::new();
    let mut l11_files: BTreeSet<usize> = BTreeSet::new();
    let mut l12_files: BTreeSet<usize> = BTreeSet::new();
    let mut mentions = Mentions::default();
    let mut l14_files: Vec<L14File> = Vec::new();

    for (idx, input) in inputs.iter().enumerate() {
        let tokens = &tokenized[idx];
        let (file_ast, cur) = parse_file(tokens);
        let mask = test_mask(&cur);
        let allows = parse_allows(tokens);
        let scope = input.scope;
        let path = input.path.as_str();

        site_rules(path, &cur, &mask, scope, &mut raw);
        if scope.l5 {
            rule_l5(path, &cur, &mask, &mut raw);
        }
        if scope.l9_hash {
            rule_l9_hash(path, &cur, &file_ast, &mask, &mut raw);
        }
        if scope.l10 {
            rule_l10(path, &cur, &file_ast, &mask, &mut raw);
        }
        callgraph::collect_facts(idx, path, &file_ast, &cur, &mask, &allows, &mut facts);
        callgraph::pub_traits(&file_ast, &mut traits);
        if scope.l3 {
            l3_files.insert(idx);
        }
        if scope.l11 {
            l11_files.insert(idx);
        }
        if scope.l12 {
            l12_files.insert(idx);
        }
        let mut in_tests = Mentions::default();
        for_each_mention(&cur, |i, name| {
            mentions.add(name);
            if scope.l14 && mask[i] {
                in_tests.add(name);
            }
        });
        if scope.l14 {
            l14_files.push(L14File::new(path, &file_ast, &mask, in_tests));
        }
        allows_by_file.push(allows);
    }
    for src in consumers {
        let tokens = tokenize(src);
        for_each_mention(&Cursor::new(&tokens), |_, name| mentions.add(name));
    }
    for file in &l14_files {
        rule_l14(file, &mentions, &mut raw);
    }

    let graph = callgraph::CallGraph::build(&facts);
    callgraph::rule_l3(&graph, &l3_files, &traits, &mut raw);
    callgraph::rule_l11(&graph, &l11_files, &mut raw);
    callgraph::rule_l12(&graph, &l12_files, &mut raw);

    // Apply the allowlists: a finding survives unless a directive on its
    // line (in its file) names its rule. Identical (file, line, rule)
    // findings collapse to the first.
    let path_index: BTreeMap<&str, usize> = inputs
        .iter()
        .enumerate()
        .map(|(i, f)| (f.path.as_str(), i))
        .collect();
    let mut findings: Vec<Finding> = Vec::new();
    let mut seen: BTreeSet<(String, usize, &'static str)> = BTreeSet::new();
    for f in raw {
        let mut suppressed = false;
        if let Some(&idx) = path_index.get(f.file.as_str()) {
            for a in allows_by_file[idx].iter_mut() {
                if a.covers(f.rule, f.line) {
                    a.used = true;
                    suppressed = true;
                }
            }
        }
        if !suppressed && seen.insert((f.file.clone(), f.line, f.rule)) {
            findings.push(f);
        }
    }
    // Allowlist hygiene.
    for (idx, allows) in allows_by_file.iter().enumerate() {
        let path = inputs[idx].path.as_str();
        for a in allows {
            if a.malformed {
                findings.push(Finding {
                    file: path.to_string(),
                    line: a.line,
                    rule: "A0",
                    message: "malformed lint directive; expected `// lint: allow(L<n>): <why>`"
                        .to_string(),
                });
            } else if a.justification.is_empty() {
                findings.push(Finding {
                    file: path.to_string(),
                    line: a.line,
                    rule: "A0",
                    message: format!(
                        "allow({}) directive is missing its mandatory justification",
                        a.rules.join(", ")
                    ),
                });
            } else if !a.used {
                findings.push(Finding {
                    file: path.to_string(),
                    line: a.line,
                    rule: "A1",
                    message: format!(
                        "allow({}) directive suppresses nothing; remove it",
                        a.rules.join(", ")
                    ),
                });
            }
        }
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    findings
}

/// Identifier mention counts by name.
#[derive(Default)]
struct Mentions(BTreeMap<String, usize>);

impl Mentions {
    fn add(&mut self, name: &str) {
        match self.0.get_mut(name) {
            Some(n) => *n += 1,
            None => {
                self.0.insert(name.to_string(), 1);
            }
        }
    }

    fn get(&self, name: &str) -> usize {
        self.0.get(name).copied().unwrap_or(0)
    }
}

/// Calls `f(sig_index, name)` for every identifier token that counts as a
/// use of a fn by that name: anything outside a `use` item except the name
/// a `fn` keyword defines. Comments are not significant tokens, so doc
/// mentions never count. Inside a `use` item only a renamed import
/// (`x as y`) counts for `x`, because callers then mention `y` alone.
/// Counting bare names, not resolved paths, means a fn sharing its name
/// with anything mentioned elsewhere counts as used: L14 may miss dead
/// code but never flags live code.
fn for_each_mention(cur: &Cursor, mut f: impl FnMut(usize, &str)) {
    let mut i = 0;
    while i < cur.n() {
        let t = cur.tok(i);
        if t.kind == TokenKind::Ident && t.text == "use" && cur.text_at(i as isize + 1) != "<" {
            // A `use` / `pub use` item, braced trees included, ends at the
            // first `;` outside braces.
            let mut depth = 0isize;
            while i < cur.n() {
                match cur.text(i) {
                    "{" => depth += 1,
                    "}" => depth -= 1,
                    ";" if depth <= 0 => break,
                    name if cur.text_at(i as isize + 1) == "as" => f(i, name),
                    _ => {}
                }
                i += 1;
            }
        } else if t.kind == TokenKind::Ident && cur.text_at(i as isize - 1) != "fn" {
            f(i, &t.text);
        }
        i += 1;
    }
}

/// One L14-scoped file: its `pub fn` candidates and the mentions that sit
/// in its own test code.
struct L14File {
    path: String,
    /// `(name, line)` of every non-test `pub fn` outside trait impls.
    pub_fns: Vec<(String, usize)>,
    /// Names of every fn the file defines (for the `try_` twin exemption).
    defined: BTreeSet<String>,
    in_tests: Mentions,
}

impl L14File {
    fn new(path: &str, file_ast: &ast::File, mask: &[bool], in_tests: Mentions) -> Self {
        let mut pub_fns = Vec::new();
        let mut defined = BTreeSet::new();
        for (im, f) in file_ast.all_fns() {
            defined.insert(f.name.clone());
            let in_test = f.body.as_ref().is_some_and(|b| mask[b.span.start]);
            let trait_impl = im.is_some_and(|i| i.trait_name.is_some());
            if f.vis == ast::Vis::Pub && !in_test && !trait_impl {
                pub_fns.push((f.name.clone(), f.line));
            }
        }
        L14File { path: path.to_string(), pub_fns, defined, in_tests }
    }

    /// Mentions of `name` anywhere except this file's test code.
    fn uses(&self, name: &str, mentions: &Mentions) -> usize {
        mentions.get(name) - self.in_tests.get(name)
    }
}

/// L14: a `pub fn` whose name no consumer mentions is surface kept alive
/// by its own tests alone. Exempt: a `try_x` whose panicking twin `x` in
/// the same file is consumed, since L3 demands the pair.
fn rule_l14(file: &L14File, mentions: &Mentions, out: &mut Vec<Finding>) {
    for (name, line) in &file.pub_fns {
        if file.uses(name, mentions) > 0 {
            continue;
        }
        let twin_used = name
            .strip_prefix("try_")
            .is_some_and(|x| file.defined.contains(x) && file.uses(x, mentions) > 0);
        if twin_used {
            continue;
        }
        out.push(Finding {
            file: file.path.clone(),
            line: *line,
            rule: "L14",
            message: format!(
                "pub fn `{name}` is mentioned nowhere but its definition and this file's \
                 tests; delete it with its tests, or drop `pub` if the tests need it \
                 (or justify with `// lint: allow(L14): <why>`)"
            ),
        });
    }
}

/// Comparator-style adapters whose closure must not use raw `<` / `>`.
const COMPARATOR_FNS: &[&str] = &[
    "sort_by",
    "sort_unstable_by",
    "min_by",
    "max_by",
    "binary_search_by",
];

/// Marks every significant-token index lexically inside a `for` / `while` /
/// `loop` body (headers — the iterated expression or condition — are not
/// marked). `impl Trait for Type` and HRTB `for<'a>` are excluded by
/// requiring a depth-0 `in` between `for` and its body brace. Nested loops
/// union their ranges, and tokens inside closures within a loop body count
/// as in-loop: the products still run once per iteration.
fn loop_body_mask(cur: &Cursor) -> Vec<bool> {
    let mut mask = vec![false; cur.n()];
    for i in 0..cur.n() {
        let open = match cur.text(i) {
            "loop" if cur.text_at(i as isize + 1) == "{" => Some(i + 1),
            kw @ ("for" | "while") => loop_header_end(cur, i, kw == "for"),
            _ => None,
        };
        if let Some(open) = open {
            let close = cur.match_brace(open);
            for m in &mut mask[open + 1..close] {
                *m = true;
            }
        }
    }
    mask
}

/// From a `for` / `while` keyword at `kw`, the index of the body `{`: the
/// first depth-0 brace, provided a depth-0 `in` was seen first when
/// `needs_in` (distinguishing a for-loop from `impl .. for ..` and
/// `for<'a>` bounds). `None` when the header is not a loop header.
fn loop_header_end(cur: &Cursor, kw: usize, needs_in: bool) -> Option<usize> {
    let mut depth = 0isize;
    let mut saw_in = false;
    for j in kw + 1..cur.n() {
        match cur.text(j) {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "in" if depth == 0 => saw_in = true,
            ";" if depth == 0 => return None,
            "{" if depth == 0 => return (saw_in || !needs_in).then_some(j),
            _ => {}
        }
    }
    None
}

/// Single pass emitting the site-local token rules: L1, L2, L4, L6, L7,
/// L8, L13, and L9's wall-clock / RNG sub-checks.
fn site_rules(
    file: &str,
    cur: &Cursor,
    test_mask: &[bool],
    scope: FileScope,
    out: &mut Vec<Finding>,
) {
    let n = cur.n();
    let in_loop = if scope.l13 { loop_body_mask(cur) } else { Vec::new() };
    for (i, &masked) in test_mask.iter().enumerate() {
        if masked {
            continue;
        }
        let t = cur.tok(i);
        // L1: panic-family call sites.
        if scope.l1 {
            if let Some(name) = panic_site(cur, i) {
                out.push(Finding {
                    file: file.to_string(),
                    line: t.line,
                    rule: "L1",
                    message: format!(
                        "found `{name}` in library code; return a Result through the error \
                         layer (or justify with `// lint: allow(L1): <why>`)"
                    ),
                });
            }
        }
        // L2: NaN-unsound float ordering.
        if scope.l2 && t.kind == TokenKind::Ident {
            if t.text == "partial_cmp" {
                out.push(Finding {
                    file: file.to_string(),
                    line: t.line,
                    rule: "L2",
                    message: "`partial_cmp` on floats is NaN-unsound; use `f64::total_cmp` \
                              (or `Ord::cmp` for non-float keys)"
                        .to_string(),
                });
            } else if COMPARATOR_FNS.contains(&t.text.as_str())
                && cur.text_at(i as isize + 1) == "("
                && cur.text_at(i as isize + 2) == "|"
            {
                let close = cur.match_paren(i + 1);
                for j in i + 2..close {
                    let op = cur.text(j);
                    if matches!(op, "<" | ">" | "<=" | ">=") && cur.text_at(j as isize - 1) != "::"
                    {
                        out.push(Finding {
                            file: file.to_string(),
                            line: cur.tok(j).line,
                            rule: "L2",
                            message: format!(
                                "raw `{op}` inside a `{}` comparator is NaN-unsound; \
                                 use `total_cmp`/`cmp`",
                                t.text
                            ),
                        });
                    }
                }
            }
        }
        // L6: panicking on synchronization results. A poisoned Mutex or a
        // panicked worker thread surfaces as an Err, and a bare unwrap
        // turns one task's failure into a process abort; recover with
        // `PoisonError::into_inner` or route through the error layer.
        if scope.l6 {
            if let Some(name) = panic_site(cur, i) {
                let method = cur.text_at(i as isize - 4);
                if (name == ".unwrap()" || name == ".expect()")
                    && cur.text_at(i as isize - 2) == ")"
                    && cur.text_at(i as isize - 3) == "("
                    && matches!(method, "lock" | "read" | "write" | "join")
                    && cur.text_at(i as isize - 5) == "."
                {
                    out.push(Finding {
                        file: file.to_string(),
                        line: t.line,
                        rule: "L6",
                        message: format!(
                            "bare `{name}` on a `.{method}()` result panics on lock \
                             poisoning / thread panic; recover (e.g. \
                             `PoisonError::into_inner`) or justify with \
                             `// lint: allow(L6): <why>`"
                        ),
                    });
                }
            }
        }
        // L7: stdout/stderr noise in library code. Defense-crate libraries
        // run inside parallel pipelines; prints interleave across workers
        // and bypass the structured trace layer. (`::println!` from a macro
        // path is not a bare call site and is left alone, like `::panic!`
        // in L1.)
        if scope.l7
            && t.kind == TokenKind::Ident
            && matches!(t.text.as_str(), "println" | "eprintln" | "print" | "eprint")
            && cur.text_at(i as isize + 1) == "!"
            && cur.text_at(i as isize - 1) != "::"
        {
            out.push(Finding {
                file: file.to_string(),
                line: t.line,
                rule: "L7",
                message: format!(
                    "bare `{}!` in library code; record through lgo-trace (or justify \
                     with `// lint: allow(L7): <why>`)",
                    t.text
                ),
            });
        }
        // L8: sleep-based waits in library code. A sleep is either a
        // disguised synchronization primitive (use a Condvar or the
        // runtime's watchdog machinery) or a tuning hack that stalls
        // differently on every machine; both hide real stalls from the
        // deadline/trace layers. Covers `thread::sleep(...)` (qualified)
        // and a bare imported `sleep(...)` call; `.sleep()` methods and
        // `fn sleep` definitions are not thread sleeps.
        if scope.l8 && t.kind == TokenKind::Ident && t.text == "sleep"
            && cur.text_at(i as isize + 1) == "("
        {
            let prev = cur.text_at(i as isize - 1);
            let qualified = prev == "::" && cur.text_at(i as isize - 2) == "thread";
            let bare = !matches!(prev, "::" | "." | "fn");
            if qualified || bare {
                out.push(Finding {
                    file: file.to_string(),
                    line: t.line,
                    rule: "L8",
                    message: "`thread::sleep` in library code hides stalls and breaks \
                              determinism; wait on a Condvar / deadline instead (or \
                              justify with `// lint: allow(L8): <why>`)"
                        .to_string(),
                });
            }
        }
        // L13: per-timestep dense products in recurrent loops. A
        // `.matvec(..)` (or square `.matmul(..)`) inside a loop body
        // re-walks the whole weight matrix once per timestep and allocates
        // its output; `matmul_nt` batches many rows in one tiled call, and
        // the LSTM's flat-trace `forward_rows` writes each step's dot
        // products straight into its trace, both bitwise identical. Only
        // the exact method names are flagged — `matmul_nt` /
        // `matvec_transpose` and the other non-matching names pass.
        if scope.l13
            && t.kind == TokenKind::Ident
            && matches!(t.text.as_str(), "matvec" | "matmul")
            && cur.text_at(i as isize + 1) == "("
            && cur.text_at(i as isize - 1) == "."
            && in_loop.get(i).copied().unwrap_or(false)
        {
            out.push(Finding {
                file: file.to_string(),
                line: t.line,
                rule: "L13",
                message: format!(
                    "`.{}()` inside a loop re-walks the weight matrix every \
                     timestep; batch the products through `matmul_nt`, step \
                     a flat trace as `LstmCell::forward_rows` does, or \
                     justify with `// lint: allow(L13): <why>`",
                    t.text
                ),
            });
        }
        // L9 (time): wall-clock reads outside the timing seams. Catches
        // both the call form `Instant::now()` and the fn-pointer form
        // `.then(Instant::now)`.
        if scope.l9_time && t.kind == TokenKind::Ident {
            if t.text == "Instant"
                && cur.text_at(i as isize + 1) == "::"
                && cur.text_at(i as isize + 2) == "now"
            {
                out.push(Finding {
                    file: file.to_string(),
                    line: t.line,
                    rule: "L9",
                    message: "`Instant::now` outside the runtime/trace/serve timing seams; \
                              wall-clock reads are nondeterministic — measure in the trace \
                              layer (or justify with `// lint: allow(L9): <why>`)"
                        .to_string(),
                });
            } else if t.text == "SystemTime" && cur.text_at(i as isize + 1) == "::" {
                out.push(Finding {
                    file: file.to_string(),
                    line: t.line,
                    rule: "L9",
                    message: "`SystemTime` outside the runtime/trace/serve timing seams; \
                              wall-clock reads are nondeterministic (or justify with \
                              `// lint: allow(L9): <why>`)"
                        .to_string(),
                });
            }
        }
        // L9 (rng): generators not derived from `lgo_runtime::split_seed`.
        // Entropy sources are nondeterministic outright; a *constant* seed
        // in library code collapses every task onto one stream, breaking
        // the per-task independence `split_seed` provides.
        if scope.l9_rng && t.kind == TokenKind::Ident && cur.text_at(i as isize + 1) == "(" {
            match t.text.as_str() {
                "thread_rng" | "from_entropy" => {
                    out.push(Finding {
                        file: file.to_string(),
                        line: t.line,
                        rule: "L9",
                        message: format!(
                            "`{}` is an entropy-seeded RNG; derive every stream from \
                             `lgo_runtime::split_seed` (or justify with \
                             `// lint: allow(L9): <why>`)",
                            t.text
                        ),
                    });
                }
                "seed_from_u64" | "from_seed" => {
                    let close = cur.match_paren(i + 1);
                    let all_literal = (i + 2..close).all(|j| {
                        matches!(cur.tok(j).kind, TokenKind::NumLit { .. })
                            || matches!(cur.text(j), "," | "(" | ")" | "[" | "]" | "-" | "+")
                    }) && (i + 2..close)
                        .any(|j| matches!(cur.tok(j).kind, TokenKind::NumLit { .. }));
                    if all_literal {
                        out.push(Finding {
                            file: file.to_string(),
                            line: t.line,
                            rule: "L9",
                            message: format!(
                                "`{}` with a constant seed in library code; derive the \
                                 seed from `lgo_runtime::split_seed(base, index)` so \
                                 streams stay per-task independent (or justify with \
                                 `// lint: allow(L9): <why>`)",
                                t.text
                            ),
                        });
                    }
                }
                _ => {}
            }
        }
        // L4: float literal equality.
        if scope.l4 && t.kind == TokenKind::Op && (t.text == "==" || t.text == "!=") {
            let float_neighbor = |j: isize| -> bool {
                if j < 0 || j as usize >= n {
                    return false;
                }
                matches!(cur.tok(j as usize).kind, TokenKind::NumLit { is_float: true })
            };
            if float_neighbor(i as isize - 1) || float_neighbor(i as isize + 1) {
                out.push(Finding {
                    file: file.to_string(),
                    line: t.line,
                    rule: "L4",
                    message: format!(
                        "`{}` against a float literal; compare with an epsilon or justify \
                         exact comparison with `// lint: allow(L4): <why>`",
                        t.text
                    ),
                });
            }
        }
    }
}

/// Methods that iterate a container in storage order.
const ITER_METHODS: &[&str] = &[
    "iter", "iter_mut", "into_iter", "keys", "values", "values_mut", "into_keys",
    "into_values", "drain", "retain",
];

/// Chain terminals whose result is independent of iteration order.
const ORDER_INSENSITIVE: &[&str] = &[
    "sum", "product", "count", "len", "max", "min", "max_by", "max_by_key", "min_by",
    "min_by_key", "all", "any",
];

/// Sorting methods that launder iteration order out of a collected Vec.
const SORTS: &[&str] = &["sort", "sort_by", "sort_unstable", "sort_unstable_by", "sort_by_key"];

/// L9 (hash): hash-ordered containers in deterministic library code.
///
/// Two prongs. *Declarations*: a `let` binding or struct field typed (or
/// constructor-inferred) as `HashMap`/`HashSet` — storage whose order can
/// leak into exported output one refactor later; require BTree containers.
/// *Iteration*: any in-order walk (`iter`/`keys`/`for`) of a hash-typed
/// value — parameters and fields included — unless the chain terminates
/// order-insensitively (`sum`, `count`, ...), collects back into a keyed
/// container, or the collected Vec is explicitly sorted afterwards.
fn rule_l9_hash(
    file: &str,
    cur: &Cursor,
    file_ast: &ast::File,
    test_mask: &[bool],
    out: &mut Vec<Finding>,
) {
    let uses = UseMap::from_file(file_ast);
    let fields = FieldTypes::from_file(file_ast);
    let is_hash = |ty: &str| -> bool {
        ty.split(|c: char| !c.is_alphanumeric() && c != '_')
            .any(|w| !w.is_empty() && uses.is_hash_alias(w))
    };
    let masked = |idx: usize| *test_mask.get(idx).unwrap_or(&false);

    // Declarations: struct fields.
    declaration_scan(&file_ast.items, &is_hash, &mut |line, span_start, field, ty| {
        if !masked(span_start) {
            out.push(Finding {
                file: file.to_string(),
                line,
                rule: "L9",
                message: format!(
                    "field `{field}: {ty}` is hash-ordered; iteration order is \
                     nondeterministic across runs — use BTreeMap/BTreeSet (or justify \
                     with `// lint: allow(L9): <why>`)",
                    ty = compact_ty(ty),
                ),
            });
        }
    });

    for (im, f) in file_ast.all_fns() {
        let Some(body) = &f.body else { continue };
        if masked(body.span.start) {
            continue;
        }
        let env = TypeEnv::for_fn(cur, f, im);
        // Declarations: let bindings (annotated or constructor-inferred).
        for node in &body.nodes {
            let Node::Let { name, ty, init, line, .. } = node else { continue };
            if masked(init.start.min(cur.n().saturating_sub(1))) {
                continue;
            }
            let effective = if !ty.is_empty() {
                ty.clone()
            } else {
                resolve::infer_init_type(cur, *init).unwrap_or_default()
            };
            if is_hash(&effective) {
                let what = if name.is_empty() { "binding" } else { name.as_str() };
                out.push(Finding {
                    file: file.to_string(),
                    line: *line,
                    rule: "L9",
                    message: format!(
                        "`{what}` is a hash-ordered container ({}); use BTreeMap/BTreeSet \
                         or sort before anything order-dependent (or justify with \
                         `// lint: allow(L9): <why>`)",
                        compact_ty(&effective),
                    ),
                });
            }
        }
        // Iteration: method walks and for-loops over hash-typed values.
        let hash_recv = |recv: &str, at: usize| -> bool {
            let r = recv.trim_start_matches('&');
            if let Some(field) = r.strip_prefix("self.") {
                if !field.contains('.') && !field.contains('(') {
                    if let Some(ty) = im.and_then(|i| fields.field_type(&i.self_ty, field)) {
                        return is_hash(ty);
                    }
                }
                return false;
            }
            if r.chars().all(|c| c.is_alphanumeric() || c == '_') {
                return env.type_of(r, at).is_some_and(&is_hash);
            }
            false
        };
        for node in &body.nodes {
            match node {
                Node::MethodCall { recv, name, span, line, .. } => {
                    if !ITER_METHODS.contains(&name.as_str())
                        || masked(span.start)
                        || !hash_recv(recv, span.start)
                    {
                        continue;
                    }
                    if iteration_excused(cur, &body.nodes, span, &uses) {
                        continue;
                    }
                    out.push(Finding {
                        file: file.to_string(),
                        line: *line,
                        rule: "L9",
                        message: format!(
                            "`.{name}()` iterates a hash-ordered container in storage \
                             order; the order differs across runs — use a BTree container \
                             or an order-insensitive reduction (or justify with \
                             `// lint: allow(L9): <why>`)"
                        ),
                    });
                }
                Node::For { iter_text, iter, line, .. } => {
                    if masked(iter.start) {
                        continue;
                    }
                    let t = iter_text.trim_start_matches('&');
                    let t = t.strip_prefix("mut").unwrap_or(t);
                    if hash_recv(t, iter.start) {
                        out.push(Finding {
                            file: file.to_string(),
                            line: *line,
                            rule: "L9",
                            message: format!(
                                "`for` loop over hash-ordered `{t}`; iteration order \
                                 differs across runs — use a BTree container (or justify \
                                 with `// lint: allow(L9): <why>`)"
                            ),
                        });
                    }
                }
                _ => {}
            }
        }
    }
}

/// Walks items collecting hash-typed struct fields.
fn declaration_scan(
    items: &[ast::Item],
    is_hash: &dyn Fn(&str) -> bool,
    emit: &mut dyn FnMut(usize, usize, &str, &str),
) {
    for item in items {
        match &item.kind {
            ItemKind::Struct(s) => {
                for (field, ty) in &s.fields {
                    if is_hash(ty) {
                        emit(item.line, item.span.start, field, ty);
                    }
                }
            }
            ItemKind::Mod(m) => declaration_scan(&m.items, is_hash, emit),
            _ => {}
        }
    }
}

/// Whether a hash-iteration chain is excused: terminated by an
/// order-insensitive reduction, collected back into a keyed container, or
/// bound to a Vec that is explicitly sorted later in the body.
fn iteration_excused(
    cur: &Cursor,
    nodes: &[Node],
    iter_span: &ast::Span,
    uses: &UseMap,
) -> bool {
    for node in nodes {
        let Node::MethodCall { name, span, args, .. } = node else { continue };
        if !span.contains(*iter_span) || span == iter_span {
            continue;
        }
        if ORDER_INSENSITIVE.contains(&name.as_str()) {
            return true;
        }
        if name == "collect" {
            // The turbofish (or the binding's annotation, handled by the
            // declaration prong) names the target; keyed containers
            // (BTree* re-sorts, Hash* stays unordered) are both fine here.
            for i in span.start..args.start {
                let t = cur.text(i);
                if t.starts_with("BTree") || uses.is_hash_alias(t) {
                    return true;
                }
            }
        }
    }
    // Sorted-Vec laundering: `let v = m.iter()...collect(); v.sort();`.
    for node in nodes {
        let Node::Let { name, init, scope_end, .. } = node else { continue };
        if name.is_empty() || !init.contains(*iter_span) {
            continue;
        }
        let sorted = nodes.iter().any(|n| {
            matches!(
                n,
                Node::MethodCall { recv_base, name: m, span, .. }
                    if recv_base == name
                        && SORTS.contains(&m.as_str())
                        && span.start > init.end
                        && span.end <= *scope_end
            )
        });
        if sorted {
            return true;
        }
    }
    false
}

fn compact_ty(ty: &str) -> String {
    ty.split_whitespace().collect::<Vec<_>>().join("")
}

/// Deterministic-parallelism adapters whose closures L10 inspects.
const PAR_ADAPTERS: &[&str] = &[
    "par_map",
    "try_par_map",
    "par_map_indexed",
    "try_par_map_indexed",
    "par_chunks",
    "try_par_chunks",
    "scope",
    "try_scope",
];

/// Methods that mutate (or expose mutation of) shared state from inside a
/// parallel closure.
const MUT_METHODS: &[&str] = &[
    "lock",
    "borrow_mut",
    "write",
    "store",
    "swap",
    "set",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
    "get_mut",
];

/// L10: a closure passed to a `par_*`/`scope` adapter must not touch
/// captured shared mutable state — the interleaving of those touches is
/// schedule-dependent even when each touch is individually synchronized.
/// The two blessed patterns pass: *index-addressed slots* (`slots[i]` —
/// each task owns its slot, so order cannot matter) and state the closure
/// owns (its parameters, or locals declared inside it).
fn rule_l10(
    file: &str,
    cur: &Cursor,
    file_ast: &ast::File,
    test_mask: &[bool],
    out: &mut Vec<Finding>,
) {
    let masked = |idx: usize| *test_mask.get(idx).unwrap_or(&false);
    for (_, f) in file_ast.all_fns() {
        let Some(body) = &f.body else { continue };
        if masked(body.span.start) {
            continue;
        }
        // Argument spans of every par-adapter call in this body.
        let mut adapter_args: Vec<(ast::Span, String)> = Vec::new();
        for node in &body.nodes {
            match node {
                Node::MethodCall { name, args, span, .. }
                    if PAR_ADAPTERS.contains(&name.as_str()) && !masked(span.start) =>
                {
                    adapter_args.push((*args, name.clone()));
                }
                Node::Call { path, args, span, .. } if !masked(span.start) => {
                    if let Some(last) = path.last() {
                        if PAR_ADAPTERS.contains(&last.as_str()) {
                            adapter_args.push((*args, last.clone()));
                        }
                    }
                }
                _ => {}
            }
        }
        if adapter_args.is_empty() {
            continue;
        }
        for (args, adapter) in &adapter_args {
            for node in &body.nodes {
                let Node::Closure { params, body: cbody, span, .. } = node else { continue };
                if !args.contains(*span) {
                    continue;
                }
                let own_params = resolve::closure_param_names(params);
                for inner in &body.nodes {
                    let Node::MethodCall { recv, recv_base, name, span: mspan, line, .. } = inner
                    else {
                        continue;
                    };
                    if !cbody.contains(*mspan)
                        || !MUT_METHODS.contains(&name.as_str())
                        || masked(mspan.start)
                    {
                        continue;
                    }
                    // Index-addressed slot: each task writes its own cell.
                    if recv.contains("[_]") {
                        continue;
                    }
                    // State the closure owns: a parameter, or a local
                    // declared inside the closure body.
                    if own_params.iter().any(|p| p == recv_base) {
                        continue;
                    }
                    let local = body.nodes.iter().any(|n| {
                        matches!(
                            n,
                            Node::Let { name: ln, init, .. }
                                if ln == recv_base && cbody.contains_idx(init.start)
                        )
                    });
                    if local {
                        continue;
                    }
                    let target = if recv.is_empty() { recv_base } else { recv };
                    out.push(Finding {
                        file: file.to_string(),
                        line: *line,
                        rule: "L10",
                        message: format!(
                            "closure passed to `{adapter}` calls `.{name}()` on captured \
                             `{target}`; shared-state mutation is schedule-dependent — \
                             use index-addressed slots or reduce over returned values \
                             (or justify with `// lint: allow(L10): <why>`)"
                        ),
                    });
                }
            }
        }
        let _ = cur;
    }
}

/// Item keywords L5 requires documentation on.
const DOC_ITEMS: &[&str] = &[
    "fn", "struct", "enum", "trait", "type", "mod", "static", "const", "union",
];

/// L5: every `pub` item in `lgo-core` carries a doc comment.
fn rule_l5(file: &str, cur: &Cursor, test_mask: &[bool], out: &mut Vec<Finding>) {
    let n = cur.n();
    for (i, &masked) in test_mask.iter().enumerate() {
        if masked || cur.text(i) != "pub" {
            continue;
        }
        if cur.text_at(i as isize + 1) == "(" {
            continue; // pub(crate) / pub(super)
        }
        // Find the item keyword, skipping qualifiers.
        let mut j = i + 1;
        while j < n
            && (matches!(cur.text(j), "async" | "unsafe" | "extern")
                || cur.tok(j).kind == TokenKind::StrLit)
        {
            j += 1;
        }
        let Some(kw) = (j < n).then(|| cur.text(j)) else {
            continue;
        };
        // `pub const fn` -> fn; `pub const NAME` -> const.
        let kw = if kw == "const" && cur.text_at(j as isize + 1) == "fn" { "fn" } else { kw };
        if !DOC_ITEMS.contains(&kw) {
            continue; // `pub use` re-exports, struct fields, enum variants...
        }
        let name = if j + 1 < n && cur.tok(j + 1).kind == TokenKind::Ident {
            cur.text(j + 1).to_string()
        } else {
            kw.to_string()
        };
        if !has_doc_before(cur, i) {
            out.push(Finding {
                file: file.to_string(),
                line: cur.tok(i).line,
                rule: "L5",
                message: format!("public item `{name}` lacks a doc comment (`///`)"),
            });
        }
    }
}

/// Walks backwards from the `pub` at sig index `i`, skipping attributes and
/// plain comments, looking for a doc comment.
fn has_doc_before(cur: &Cursor, i: usize) -> bool {
    // Position in the full (comment-bearing) token stream.
    let mut f = cur.sig[i];
    while f > 0 {
        f -= 1;
        let t = &cur.tokens[f];
        match t.kind {
            // Inner docs (`//!`, `/*!`) document the enclosing module, not
            // the item that happens to follow them.
            TokenKind::DocComment => {
                if t.text.starts_with("//!") || t.text.starts_with("/*!") {
                    continue;
                }
                return true;
            }
            TokenKind::LineComment | TokenKind::BlockComment => continue,
            TokenKind::Op if t.text == "]" => {
                // Skip an attribute `#[ ... ]` (or inner `#![ ... ]`).
                let mut depth = 1isize;
                while f > 0 && depth > 0 {
                    f -= 1;
                    match cur.tokens[f].text.as_str() {
                        "]" => depth += 1,
                        "[" => depth -= 1,
                        _ => {}
                    }
                }
                if f > 0 && cur.tokens[f - 1].text == "!" {
                    f -= 1;
                }
                if f > 0 && cur.tokens[f - 1].text == "#" {
                    f -= 1;
                }
            }
            _ => return false,
        }
    }
    false
}
