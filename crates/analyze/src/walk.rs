//! Workspace file discovery.

use std::fs;
use std::path::{Path, PathBuf};

/// Directory names never descended into: build output, vendored
/// third-party stand-ins, test fixtures with deliberate violations, and
/// test/bench trees (test code is out of scope for every rule).
const SKIP_DIRS: &[&str] = &["target", "vendor", "fixtures", "tests", "benches", ".git"];

/// Collects every `.rs` file under `root` that the workspace scan should
/// lint, sorted for deterministic output. Returns workspace-relative paths.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    // The facade crate's `src/` plus everything under `crates/`.
    files_under(root, &["src", "crates"], SKIP_DIRS)
}

/// Every `.rs` file whose mentions can keep a library `pub fn` alive (L14):
/// the linted trees plus integration tests, binaries, examples and the
/// benchmark harness. Only fixtures, build output and vendored code are
/// left out. Sorted like [`workspace_files`].
pub fn consumer_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    files_under(
        root,
        &["src", "crates", "tests", "examples", "perfbench/src"],
        &["target", "vendor", "fixtures", ".git"],
    )
}

fn files_under(root: &Path, tops: &[&str], skip: &[&str]) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    for top in tops {
        let dir = root.join(top);
        if dir.is_dir() {
            collect(&dir, skip, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn collect(dir: &Path, skip: &[&str], out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if skip.contains(&name.as_ref()) {
                continue;
            }
            collect(&path, skip, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}
