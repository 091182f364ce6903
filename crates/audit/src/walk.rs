//! Workspace file discovery.
//!
//! Scans the first-party source roots (`crates/`, `src/`, `tests/`) under
//! the workspace root. `target/` output, rule fixtures, and the `shims/`
//! tree (vendored stand-ins for external crates, not first-party code) are
//! excluded. Results are sorted so every run visits files in the same order.
//! `examples/` and `e2ebench/src` are listed separately: they are read only
//! as consumers of the workspace's `pub` items (MCPB017), never linted.

use std::io;
use std::path::{Path, PathBuf};

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", "fixtures", ".git", "shims", "node_modules"];

/// Source roots scanned, relative to the workspace root.
const SCAN_ROOTS: &[&str] = &["crates", "src", "tests"];

/// Roots read only for their references to workspace items.
const CONSUMER_ROOTS: &[&str] = &["examples", "e2ebench/src"];

/// Returns every first-party `.rs` file under `root`, workspace-relative,
/// sorted.
pub fn workspace_sources(root: &Path) -> io::Result<Vec<PathBuf>> {
    sources_under(root, SCAN_ROOTS)
}

/// Returns the `.rs` files under `examples/` and `e2ebench/src`,
/// workspace-relative, sorted.
pub fn consumer_sources(root: &Path) -> io::Result<Vec<PathBuf>> {
    sources_under(root, CONSUMER_ROOTS)
}

fn sources_under(root: &Path, roots: &[&str]) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for scan_root in roots {
        let dir = root.join(scan_root);
        if dir.is_dir() {
            collect(&dir, &mut files)?;
        }
    }
    let mut rel: Vec<PathBuf> = files
        .into_iter()
        .filter_map(|f| f.strip_prefix(root).ok().map(Path::to_path_buf))
        .collect();
    rel.sort();
    Ok(rel)
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?.collect::<io::Result<_>>()?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) {
                collect(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Normalizes a workspace-relative path to `/` separators for use as a
/// stable baseline key.
pub fn path_key(rel: &Path) -> String {
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Finds the workspace root: the nearest ancestor of `start` whose
/// `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_this_workspace() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root");
        assert!(root.join("Cargo.toml").is_file());
        let files = workspace_sources(&root).expect("walk");
        assert!(files
            .iter()
            .any(|f| path_key(f) == "crates/audit/src/walk.rs"));
        assert!(files.iter().all(|f| !path_key(f).contains("fixtures/")));
        assert!(files.iter().all(|f| !path_key(f).starts_with("shims/")));
        let mut sorted = files.clone();
        sorted.sort();
        assert_eq!(files, sorted, "deterministic order");
    }
}
