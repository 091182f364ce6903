//! MCPB017 `unreferenced-pub-item`: the one workspace-level rule.
//!
//! rustc's `dead_code` lint is silent on `pub` items, so a `pub fn` that
//! nothing calls any more lives on until review happens to notice it. This
//! pass finds such items by name over every file the gate loads:
//!
//! - a *declaration* is a `pub` `fn`/`struct`/`enum`/`trait`/`type`/
//!   `const`/`static` in non-test code under `crates/*/src`. `pub(crate)`
//!   and friends are left to rustc, and items inside `extern` blocks are
//!   foreign symbols, not ours to delete;
//! - a *reference* is an identifier token in non-test code anywhere the
//!   gate reads: `crates/*/src` outside `#[cfg(test)]`, `crates/*/benches`,
//!   the root `src/`, `examples/` and `e2ebench/src`. Tokens inside `use`
//!   declarations, comments, string literals and `tests/` directories are
//!   not references, and neither is the name token of a declaration.
//!
//! An item whose name no reference spells is flagged. The match is by name
//! only, so a dead item whose name collides with a live one (`new`,
//! `eval`) goes unseen; the rule can miss dead code but never calls live
//! code dead. An item that only a root `tests/` file or another test needs
//! is waived with `// audit:allow(MCPB017) <reason>` on or just above its
//! declaration line; unlike the generic waiver, this one must give a
//! reason.

use std::collections::BTreeSet;

use crate::lexer::{Token, TokenKind};
use crate::rules::Finding;
use crate::source::SourceFile;

/// Item keywords whose next identifier is a declared name, not a reference.
const ITEM_KEYWORDS: &[&str] = &[
    "fn", "struct", "enum", "trait", "type", "const", "static", "union", "mod",
];

/// Item kinds MCPB017 flags when they are `pub`.
const FLAGGED_KINDS: &[&str] = &["fn", "struct", "enum", "trait", "type", "const", "static"];

/// Runs MCPB017 over every loaded file at once.
pub fn scan_workspace(files: &[SourceFile]) -> Vec<Finding> {
    let mut referenced: BTreeSet<&str> = BTreeSet::new();
    for file in files.iter().filter(|f| is_consumer(&f.rel_path)) {
        let code = code_tokens(file);
        let mut k = 0;
        while k < code.len() {
            let tok = code[k];
            let text = tok.text(&file.text);
            if tok.kind == TokenKind::Ident && text == "use" {
                // Skip the whole use tree: `use a::{b, c};`.
                while k < code.len() && code[k].text(&file.text) != ";" {
                    k += 1;
                }
                continue;
            }
            let before = |back: usize| k.checked_sub(back).map_or("", |i| code[i].text(&file.text));
            let declared_name =
                ITEM_KEYWORDS.contains(&before(1)) || before(1) == "mut" && before(2) == "static";
            if tok.kind == TokenKind::Ident
                && !declared_name
                && !file.in_test_region.get(tok.line).copied().unwrap_or(false)
            {
                referenced.insert(text);
            }
            k += 1;
        }
    }

    let mut findings = Vec::new();
    for file in files.iter().filter(|f| is_declaring(&f.rel_path)) {
        for name in pub_items(file) {
            let line = name.line;
            if referenced.contains(name.text(&file.text))
                || file.in_test_region.get(line).copied().unwrap_or(false)
                || reasoned_waiver(file, line)
            {
                continue;
            }
            findings.push(Finding {
                rule: "MCPB017",
                file: file.rel_path.clone(),
                line: line + 1,
                col: file.col_of(line, name.start),
                snippet: file
                    .raw_lines
                    .get(line)
                    .map(|l| l.trim().to_owned())
                    .unwrap_or_default(),
            });
        }
    }
    findings
}

/// Non-trivia tokens of `file`, in order.
fn code_tokens(file: &SourceFile) -> Vec<&Token> {
    file.code_indices()
        .into_iter()
        .map(|i| &file.tokens[i])
        .collect()
}

/// The name tokens of the flagged `pub` items declared in `file`, outside
/// `extern` blocks.
fn pub_items(file: &SourceFile) -> Vec<&Token> {
    let code = code_tokens(file);
    let txt = |k: usize| code.get(k).map(|t| t.text(&file.text)).unwrap_or("");
    let mut names = Vec::new();
    // One frame per open brace: true when it opened an `extern` block.
    let mut externs: Vec<bool> = Vec::new();
    let mut extern_pending = false;
    for k in 0..code.len() {
        match txt(k) {
            "extern" => extern_pending = true,
            "fn" | "crate" | ";" => extern_pending = false,
            "{" => externs.push(std::mem::take(&mut extern_pending)),
            "}" => {
                externs.pop();
            }
            _ => {}
        }
        if txt(k) != "pub" || externs.iter().any(|&e| e) {
            continue;
        }
        let mut j = k + 1;
        loop {
            match txt(j) {
                "unsafe" | "async" => j += 1,
                "const" if matches!(txt(j + 1), "fn" | "unsafe" | "async" | "extern") => j += 1,
                "extern" if code.get(j + 1).is_some_and(|t| t.kind == TokenKind::Str) => j += 2,
                "extern" => j += 1,
                _ => break,
            }
        }
        // Fields, `pub mod`, `pub use` and `pub(crate)` (rustc sees those
        // restricted items itself) end here.
        if !FLAGGED_KINDS.contains(&txt(j)) {
            continue;
        }
        if txt(j) == "static" && txt(j + 1) == "mut" {
            j += 1;
        }
        if let Some(name) = code.get(j + 1).filter(|t| t.kind == TokenKind::Ident) {
            names.push(*name);
        }
    }
    names
}

/// True for a path whose code counts as a reference: not under a `tests/`
/// or `fixtures/` directory.
fn is_consumer(rel_path: &str) -> bool {
    !rel_path
        .split('/')
        .any(|part| matches!(part, "tests" | "fixtures"))
}

/// True for a `crates/<name>/src/...` path outside any test directory.
fn is_declaring(rel_path: &str) -> bool {
    let parts: Vec<&str> = rel_path.split('/').collect();
    parts.len() > 3 && parts[0] == "crates" && parts[2] == "src" && is_consumer(rel_path)
}

/// True when 0-based `line` or the line above carries
/// `audit:allow(... MCPB017 ...)` followed by a non-empty reason.
fn reasoned_waiver(file: &SourceFile, line: usize) -> bool {
    file.tokens
        .iter()
        .filter(|t| {
            matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment)
                && (t.line == line || t.line + 1 == line)
        })
        .any(|t| {
            let comment = t.text(&file.text);
            let Some(at) = comment.find("audit:allow(") else {
                return false;
            };
            let rest = &comment[at + "audit:allow(".len()..];
            let Some(end) = rest.find(')') else {
                return false;
            };
            let reason = rest[end + 1..].trim_matches(|c: char| {
                c.is_whitespace() || matches!(c, '-' | '—' | ':' | '*' | '/')
            });
            rest[..end].split(',').any(|r| r.trim() == "MCPB017") && !reason.is_empty()
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(files: &[(&str, &str)]) -> Vec<(String, usize)> {
        let files: Vec<SourceFile> = files
            .iter()
            .map(|(path, src)| SourceFile::parse(path, src))
            .collect();
        scan_workspace(&files)
            .into_iter()
            .map(|f| (f.file, f.line))
            .collect()
    }

    #[test]
    fn a_reference_in_another_crate_keeps_an_item() {
        let lib = "pub fn used() {}\npub fn unused() {}\n";
        let user = "fn main() { mcpb_x::used(); }\n";
        let found = scan(&[("crates/x/src/lib.rs", lib), ("src/main.rs", user)]);
        assert_eq!(found, vec![("crates/x/src/lib.rs".to_owned(), 2)]);
    }

    #[test]
    fn test_directories_are_not_consumers_and_declare_nothing() {
        let lib = "pub fn only_tested() {}\n";
        let test = "pub fn helper() {}\n#[test]\nfn t() { only_tested(); }\n";
        let found = scan(&[
            ("crates/x/src/lib.rs", lib),
            ("crates/x/tests/it.rs", test),
            ("e2ebench/src/main.rs", "fn main() {}\n"),
        ]);
        assert_eq!(found, vec![("crates/x/src/lib.rs".to_owned(), 1)]);
    }

    #[test]
    fn benches_examples_and_e2ebench_are_consumers() {
        let lib = "pub fn a() {}\npub fn b() {}\npub fn c() {}\n";
        let found = scan(&[
            ("crates/x/src/lib.rs", lib),
            ("crates/x/benches/k.rs", "fn main() { a(); }\n"),
            ("examples/tour.rs", "fn main() { b(); }\n"),
            ("e2ebench/src/main.rs", "fn main() { c(); }\n"),
        ]);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn qualifiers_and_restricted_visibility() {
        let lib = "pub const fn k() -> u8 { 0 }\npub unsafe extern \"C\" fn x() {}\n\
                   pub(crate) fn inner() {}\npub static mut S: u8 = 0;\n\
                   pub struct W { pub field: u8 }\n";
        let found = scan(&[("crates/x/src/lib.rs", lib)]);
        let lines: Vec<usize> = found.iter().map(|(_, l)| *l).collect();
        assert_eq!(lines, vec![1, 2, 4, 5]);
    }

    #[test]
    fn a_waiver_needs_a_reason() {
        let lib = "// audit:allow(MCPB017) root tests call it\npub fn a() {}\n\
                   // audit:allow(MCPB017)\npub fn b() {}\n";
        let found = scan(&[("crates/x/src/lib.rs", lib)]);
        assert_eq!(found, vec![("crates/x/src/lib.rs".to_owned(), 4)]);
    }
}
