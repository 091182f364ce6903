//! Source preprocessing for the rule scanners, built on the lossless lexer.
//!
//! Every file is lexed once ([`crate::lexer`]); from the token stream this
//! module derives everything the rules consume:
//!
//! - a *sanitized* line view in which comment and string-literal contents are
//!   blanked (byte positions preserved), so line-oriented token patterns like
//!   `.unwrap()` inside a doc comment or error message can never fire;
//! - the raw token stream plus a [`ScopeMap`], so token-oriented rules can
//!   reason about *where* a pattern occurs (e.g. inside a loop body);
//! - side tables for `audit:allow(RULE)` waivers, `audit: relaxed-ok(reason)`
//!   concurrency annotations, `audit: deadline-ok(reason)` blocking-I/O
//!   annotations, and `#[cfg(test)]` region tracking.

use std::path::Path;

use crate::lexer::{self, Token, TokenKind};
use crate::syntax::ScopeMap;

/// One preprocessed source file, ready for rule scanning.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators (stable across platforms,
    /// used as the baseline key).
    pub rel_path: String,
    /// The full raw text (token spans index into this).
    pub text: String,
    /// The lossless token stream of `text`.
    pub tokens: Vec<Token>,
    /// Scope annotations parallel to `tokens` (loop depth, fn bodies).
    pub scopes: ScopeMap,
    /// Raw line text, used for snippets and for rules that must look inside
    /// string literals (e.g. distinguishing documented `.expect()` calls).
    pub raw_lines: Vec<String>,
    /// Sanitized line text: comments and literal contents blanked.
    pub lines: Vec<String>,
    /// True when the whole file is test/bench/example code by location.
    pub is_test_file: bool,
    /// Per line: true inside a `#[cfg(test)]` item's braces.
    pub in_test_region: Vec<bool>,
    /// Per line: rule ids waived via `audit:allow(...)` comments.
    pub allowed: Vec<Vec<String>>,
    /// Per line: an `audit: relaxed-ok(reason)` annotation with a non-empty
    /// reason covers this line (MCPB012's dedicated allowlist).
    pub relaxed_ok: Vec<bool>,
    /// Per line: an `audit: deadline-ok(reason)` annotation with a non-empty
    /// reason covers this line (MCPB016's dedicated allowlist for blocking
    /// reads that provably carry a timeout).
    pub deadline_ok: Vec<bool>,
}

impl SourceFile {
    /// Preprocesses `text` as the contents of `rel_path`.
    pub fn parse(rel_path: &str, text: &str) -> SourceFile {
        let tokens = lexer::lex(text);
        let scopes = ScopeMap::build(text, &tokens);
        let raw_lines: Vec<String> = text.lines().map(str::to_owned).collect();
        let n_lines = raw_lines.len();

        let sanitized = sanitize(text, &tokens);
        let lines: Vec<String> = sanitized.lines().map(str::to_owned).collect();
        debug_assert_eq!(lines.len(), n_lines);

        let mut allowed = vec![Vec::new(); n_lines + 1];
        let mut relaxed_ok = vec![false; n_lines + 1];
        let mut deadline_ok = vec![false; n_lines + 1];
        for tok in &tokens {
            if !matches!(tok.kind, TokenKind::LineComment | TokenKind::BlockComment) {
                continue;
            }
            let comment = tok.text(text);
            for rule in parse_allow_markers(comment) {
                // A waiver covers its own line and the next one, so both
                // trailing (`stmt // audit:allow(X)`) and standalone
                // (`// audit:allow(X)` above the statement) styles work.
                allowed[tok.line].push(rule.clone());
                if tok.line + 1 < allowed.len() {
                    allowed[tok.line + 1].push(rule);
                }
            }
            if has_reasoned_marker(comment, "relaxed-ok(") {
                relaxed_ok[tok.line] = true;
                if tok.line + 1 < relaxed_ok.len() {
                    relaxed_ok[tok.line + 1] = true;
                }
            }
            if has_reasoned_marker(comment, "deadline-ok(") {
                deadline_ok[tok.line] = true;
                if tok.line + 1 < deadline_ok.len() {
                    deadline_ok[tok.line + 1] = true;
                }
            }
        }
        allowed.truncate(n_lines);
        relaxed_ok.truncate(n_lines);
        deadline_ok.truncate(n_lines);

        SourceFile {
            rel_path: rel_path.to_owned(),
            is_test_file: path_is_test_code(rel_path),
            in_test_region: test_regions(&lines),
            text: text.to_owned(),
            tokens,
            scopes,
            raw_lines,
            lines,
            allowed,
            relaxed_ok,
            deadline_ok,
        }
    }

    /// Reads and preprocesses a file from disk.
    pub fn load(path: &Path, rel_path: &str) -> std::io::Result<SourceFile> {
        let text = std::fs::read_to_string(path)?;
        Ok(SourceFile::parse(rel_path, &text))
    }

    /// True when `rule` must not fire on 0-based `line`: the file or region
    /// is test code, or a waiver names the rule.
    pub fn is_exempt(&self, line: usize, rule: &str) -> bool {
        self.is_test_file
            || self.in_test_region.get(line).copied().unwrap_or(false)
            || self
                .allowed
                .get(line)
                .is_some_and(|rules| rules.iter().any(|r| r == rule))
    }

    /// Indices of the non-trivia tokens (no whitespace, no comments), so
    /// rules can match adjacent-token sequences.
    pub fn code_indices(&self) -> Vec<usize> {
        (0..self.tokens.len())
            .filter(|&i| {
                !matches!(
                    self.tokens[i].kind,
                    TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
                )
            })
            .collect()
    }

    /// True when 0-based `line` carries a `audit: relaxed-ok(reason)` waiver.
    pub fn has_relaxed_waiver(&self, line: usize) -> bool {
        self.relaxed_ok.get(line).copied().unwrap_or(false)
    }

    /// True when 0-based `line` carries a `audit: deadline-ok(reason)` waiver.
    pub fn has_deadline_waiver(&self, line: usize) -> bool {
        self.deadline_ok.get(line).copied().unwrap_or(false)
    }

    /// 1-based column of byte offset `at` on 0-based `line` (byte columns —
    /// the raw and sanitized views agree because sanitization is in-place).
    pub fn col_of(&self, line: usize, at: usize) -> usize {
        let line_start: usize = self
            .text
            .lines()
            .take(line)
            .map(|l| l.len() + 1)
            .sum::<usize>();
        at.saturating_sub(line_start) + 1
    }
}

/// True for paths whose code is test/bench/example-only by convention.
fn path_is_test_code(rel_path: &str) -> bool {
    rel_path
        .split('/')
        .any(|part| matches!(part, "tests" | "benches" | "examples" | "fixtures"))
}

/// Blanks comment and literal contents in `text`, byte for byte: newlines
/// survive, delimiters (quotes, raw-string prefixes/hashes) survive, and
/// every interior byte becomes a space. The result has identical length and
/// line structure to the input.
fn sanitize(text: &str, tokens: &[Token]) -> String {
    let mut out = text.as_bytes().to_vec();
    let blank = |out: &mut [u8], range: core::ops::Range<usize>| {
        for b in &mut out[range] {
            if *b != b'\n' {
                *b = b' ';
            }
        }
    };
    for tok in tokens {
        match tok.kind {
            TokenKind::LineComment | TokenKind::BlockComment => {
                blank(&mut out, tok.start..tok.end);
            }
            TokenKind::Str => {
                let bytes = &text.as_bytes()[tok.start..tok.end];
                let open = bytes.iter().position(|&b| b == b'"');
                let close = bytes.iter().rposition(|&b| b == b'"');
                match (open, close) {
                    (Some(o), Some(c)) if c > o => {
                        blank(&mut out, tok.start + o + 1..tok.start + c);
                    }
                    (Some(o), _) => blank(&mut out, tok.start + o + 1..tok.end),
                    _ => {}
                }
            }
            TokenKind::Char => {
                // Keep the quotes, blank the interior ('x' might be 'FIRE'
                // bait inside fixtures; also keeps escape bytes out).
                if tok.end - tok.start > 2 {
                    let last = if text.as_bytes()[tok.end - 1] == b'\'' {
                        tok.end - 1
                    } else {
                        tok.end
                    };
                    let first = text.as_bytes()[tok.start..tok.end]
                        .iter()
                        .position(|&b| b == b'\'')
                        .map(|p| tok.start + p)
                        .unwrap_or(tok.start);
                    if last > first + 1 {
                        blank(&mut out, first + 1..last);
                    }
                }
            }
            _ => {}
        }
    }
    String::from_utf8(out).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

/// Extracts rule ids from `audit:allow(RULE)` / `audit:allow(R1, R2)`.
fn parse_allow_markers(comment: &str) -> Vec<String> {
    let mut rules = Vec::new();
    let mut rest = comment;
    while let Some(idx) = rest.find("audit:allow(") {
        rest = &rest[idx + "audit:allow(".len()..];
        if let Some(end) = rest.find(')') {
            for rule in rest[..end].split(',') {
                let rule = rule.trim();
                if !rule.is_empty() {
                    rules.push(rule.to_owned());
                }
            }
            rest = &rest[end + 1..];
        } else {
            break;
        }
    }
    rules
}

/// True when the comment carries `<marker><non-empty reason>)` — the shape
/// shared by the MCPB012 annotation `// audit: relaxed-ok(counter, no data
/// gated)` and the MCPB016 annotation `// audit: deadline-ok(read timeout
/// set at accept time)`. An empty reason does not waive.
fn has_reasoned_marker(comment: &str, marker: &str) -> bool {
    let Some(idx) = comment.find(marker) else {
        return false;
    };
    let rest = &comment[idx + marker.len()..];
    rest.find(')')
        .map(|end| !rest[..end].trim().is_empty())
        .unwrap_or(false)
}

/// Marks lines inside `#[cfg(test)]` items by tracking brace depth on
/// sanitized text. An attribute arms a pending flag; the next `{` opens a
/// test frame (a `;` first disarms it — `#[cfg(test)] use ...;`).
fn test_regions(lines: &[String]) -> Vec<bool> {
    let mut in_test = vec![false; lines.len()];
    let mut stack: Vec<bool> = Vec::new();
    let mut pending = false;
    for (lineno, line) in lines.iter().enumerate() {
        let mut rest: &str = line;
        while let Some(idx) = rest.find("#[cfg(test)]") {
            pending = true;
            rest = &rest[idx + 1..];
        }
        let any_test = stack.iter().any(|&t| t);
        in_test[lineno] = any_test || pending && line.contains('{');
        for ch in line.chars() {
            match ch {
                '{' => {
                    stack.push(pending);
                    pending = false;
                }
                '}' => {
                    stack.pop();
                }
                ';' if stack.iter().all(|&t| !t) => pending = false,
                _ => {}
            }
        }
        if stack.iter().any(|&t| t) {
            in_test[lineno] = true;
        }
    }
    in_test
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_blanked() {
        let src = "let x = \"call .unwrap() now\"; // panic! here\nlet y = 1;\n";
        let f = SourceFile::parse("crates/foo/src/lib.rs", src);
        assert!(!f.lines[0].contains("unwrap"));
        assert!(!f.lines[0].contains("panic!"));
        assert!(f.lines[1].contains("let y = 1;"));
        assert!(f.raw_lines[0].contains(".unwrap()"));
    }

    #[test]
    fn sanitization_preserves_byte_positions() {
        let src = "let x = \"abc\"; call();\n";
        let f = SourceFile::parse("crates/foo/src/lib.rs", src);
        // The sanitized line has the same length and `call` at the same col.
        assert_eq!(f.lines[0].len(), f.raw_lines[0].len());
        assert_eq!(f.lines[0].find("call"), f.raw_lines[0].find("call"));
    }

    #[test]
    fn block_comments_preserve_lines() {
        let src = "a\n/* x\n y */ b\nc\n";
        let f = SourceFile::parse("crates/foo/src/lib.rs", src);
        assert_eq!(f.lines.len(), 4);
        assert!(f.lines[2].contains('b'));
        assert!(!f.lines[1].contains('y'));
    }

    #[test]
    fn raw_strings_are_blanked() {
        let src = "let p = r#\"thread_rng()\"#;\nlet q = 0;\n";
        let f = SourceFile::parse("crates/foo/src/lib.rs", src);
        assert!(!f.lines[0].contains("thread_rng"));
    }

    #[test]
    fn lifetimes_do_not_open_strings() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x }\nlet c = 'y';\nlet d = 1;\n";
        let f = SourceFile::parse("crates/foo/src/lib.rs", src);
        assert!(f.lines[0].contains("fn f<'a>"));
        assert!(!f.lines[1].contains('y'));
        assert!(f.lines[2].contains("let d = 1;"));
    }

    #[test]
    fn allow_markers_cover_their_line_and_the_next() {
        let src = "// audit:allow(MCPB001)\nfoo.unwrap();\nbar.unwrap();\n";
        let f = SourceFile::parse("crates/foo/src/lib.rs", src);
        assert!(f.is_exempt(1, "MCPB001"));
        assert!(!f.is_exempt(2, "MCPB001"));
        assert!(!f.is_exempt(1, "MCPB002"));
    }

    #[test]
    fn relaxed_ok_markers_require_a_reason() {
        let src = "// audit: relaxed-ok(pure counter)\na();\n// audit: relaxed-ok()\nb();\n";
        let f = SourceFile::parse("crates/foo/src/lib.rs", src);
        assert!(f.has_relaxed_waiver(0));
        assert!(f.has_relaxed_waiver(1));
        assert!(!f.has_relaxed_waiver(2), "empty reason must not waive");
        assert!(!f.has_relaxed_waiver(3));
    }

    #[test]
    fn deadline_ok_markers_cover_their_line_and_the_next() {
        let src =
            "// audit: deadline-ok(read timeout set)\na();\nb();\n// audit: deadline-ok()\nc();\n";
        let f = SourceFile::parse("crates/foo/src/lib.rs", src);
        assert!(f.has_deadline_waiver(0));
        assert!(f.has_deadline_waiver(1));
        assert!(!f.has_deadline_waiver(2));
        assert!(!f.has_deadline_waiver(4), "empty reason must not waive");
        // The two marker families do not leak into each other.
        assert!(!f.has_relaxed_waiver(0));
    }

    #[test]
    fn cfg_test_regions_are_tracked() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn lib2() {}\n";
        let f = SourceFile::parse("crates/foo/src/lib.rs", src);
        assert!(!f.is_exempt(0, "MCPB001"));
        assert!(f.is_exempt(3, "MCPB001"));
        assert!(!f.is_exempt(5, "MCPB001"));
    }

    #[test]
    fn cfg_test_on_use_item_does_not_leak() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn lib() {\n    body();\n}\n";
        let f = SourceFile::parse("crates/foo/src/lib.rs", src);
        assert!(!f.is_exempt(3, "MCPB001"));
    }

    #[test]
    fn test_paths_are_exempt_everywhere() {
        let f = SourceFile::parse("crates/foo/tests/it.rs", "x.unwrap();\n");
        assert!(f.is_exempt(0, "MCPB001"));
    }

    #[test]
    fn col_of_reports_byte_columns() {
        let src = "ab\ncdef\n";
        let f = SourceFile::parse("crates/foo/src/lib.rs", src);
        assert_eq!(f.col_of(1, 3), 1); // 'c' at offset 3
        assert_eq!(f.col_of(1, 5), 3); // 'e' at offset 5
    }
}
