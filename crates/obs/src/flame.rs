//! Folded-stack flamegraph exporter: `mcpbench obs flame`.
//!
//! Emits the `flamegraph.pl` / speedscope "folded" text format: one line
//! per span path, frames joined with `;`, followed by a space and the
//! span's **self**-time in nanoseconds. Because every line carries
//! self-time (not total), summing a subtree in the visualizer reproduces
//! the subtree's total time without double counting.
//!
//! [`parse_flame`] is the inverse, used by the round-trip tests: it
//! restores the `/`-separated span paths and their self-time weights.

use crate::model::RunModel;
use std::collections::BTreeMap;

/// Renders the run as folded-stack lines, sorted by path. Spans with zero
/// self-time are skipped (they would render as invisible frames anyway and
/// would not survive a round-trip through weight-based tooling).
pub fn render_flame(model: &RunModel) -> String {
    let mut lines: Vec<(String, u64)> = model
        .spans
        .iter()
        .filter(|s| s.self_nanos > 0)
        .map(|s| (s.path.replace('/', ";"), s.self_nanos))
        .collect();
    lines.sort();
    let mut out = String::with_capacity(lines.len() * 48);
    for (stack, weight) in lines {
        out.push_str(&stack);
        out.push(' ');
        out.push_str(&weight.to_string());
        out.push('\n');
    }
    out
}

/// Parses folded-stack text back into `span path -> self nanoseconds`.
/// Duplicate stacks accumulate, matching flamegraph semantics. Blank lines
/// are skipped; a malformed line (no weight, or a non-integer weight) is an
/// error naming the 1-based line number.
// audit:allow(MCPB017) tests/obs_tools.rs round-trips the flame exporter through it
pub fn parse_flame(text: &str) -> Result<BTreeMap<String, u64>, String> {
    let mut stacks = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let Some((stack, weight)) = line.rsplit_once(' ') else {
            return Err(format!("flame line {}: missing weight", i + 1));
        };
        let weight: u64 = weight
            .parse()
            .map_err(|_| format!("flame line {}: bad weight {weight:?}", i + 1))?;
        *stacks.entry(stack.replace(';', "/")).or_insert(0) += weight;
    }
    Ok(stacks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SpanAgg;

    fn model(spans: &[(&str, u64)]) -> RunModel {
        RunModel {
            label: "f".into(),
            spans: spans
                .iter()
                .map(|(p, s)| SpanAgg {
                    path: p.to_string(),
                    calls: 1,
                    total_nanos: *s,
                    self_nanos: *s,
                    heap_peak_bytes: 0,
                })
                .collect(),
            ..RunModel::default()
        }
    }

    #[test]
    fn folded_lines_round_trip_the_span_paths() {
        let m = model(&[
            ("sweep.mcp/LazyGreedy", 500),
            ("sweep.mcp", 100),
            ("train", 7),
        ]);
        let text = render_flame(&m);
        assert!(text.contains("sweep.mcp;LazyGreedy 500\n"), "{text}");
        let parsed = parse_flame(&text).expect("round trip");
        assert_eq!(parsed.get("sweep.mcp/LazyGreedy"), Some(&500));
        assert_eq!(parsed.get("sweep.mcp"), Some(&100));
        assert_eq!(parsed.get("train"), Some(&7));
        assert_eq!(parsed.len(), 3);
    }

    #[test]
    fn zero_self_time_spans_are_skipped() {
        let mut m = model(&[("pure_parent", 0), ("pure_parent/leaf", 10)]);
        m.spans[0].total_nanos = 10;
        let text = render_flame(&m);
        assert!(!text.contains("pure_parent 0"), "{text}");
        assert_eq!(parse_flame(&text).unwrap().len(), 1);
    }

    #[test]
    fn malformed_lines_error_with_position() {
        assert!(parse_flame("a;b notanumber")
            .unwrap_err()
            .contains("line 1"));
        assert!(parse_flame("noweight").unwrap_err().contains("line 1"));
        assert!(parse_flame("ok 5\n\nbad").unwrap_err().contains("line 3"));
    }

    #[test]
    fn duplicate_stacks_accumulate() {
        let parsed = parse_flame("a;b 3\na;b 4\n").unwrap();
        assert_eq!(parsed.get("a/b"), Some(&7));
    }
}
