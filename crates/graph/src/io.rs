//! Text edge-list serialization in the SNAP style used by the paper's
//! dataset pipeline.
//!
//! Format: one edge per line, `src dst [weight]`, whitespace separated.
//! Lines starting with `#` or `%` are comments. Node count is inferred as
//! `max id + 1` unless a `# nodes: N` header is present.

use crate::csr::{Edge, Graph, GraphError};
use std::io::{BufRead, BufReader, Read, Write as IoWrite};

/// Parses a SNAP-style edge list from a reader.
// audit:allow(MCPB017) tests/failure_injection.rs fuzzes the parser through it
pub fn read_edge_list<R: Read>(reader: R) -> Result<Graph, GraphError> {
    let reader = BufReader::new(reader);
    let mut edges: Vec<Edge> = Vec::new();
    let mut declared_nodes: Option<usize> = None;
    let mut max_id: u64 = 0;
    let mut saw_edge = false;

    for (idx, line) in reader.lines().enumerate() {
        let lineno = idx + 1;
        let line = line.map_err(|e| GraphError::Parse {
            line: lineno,
            column: 0,
            message: format!("io error: {e}"),
        })?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if let Some(rest) = trimmed
            .strip_prefix('#')
            .or_else(|| trimmed.strip_prefix('%'))
        {
            if let Some(ns) = rest.trim().strip_prefix("nodes:") {
                declared_nodes = ns.trim().parse::<usize>().ok();
            }
            continue;
        }
        let mut parts = tokens_with_columns(&line);
        let src: u32 = parse_field(parts.next(), lineno, line.len() + 1, "src")?;
        let dst: u32 = parse_field(parts.next(), lineno, line.len() + 1, "dst")?;
        let weight: f32 = match parts.next() {
            Some((col, w)) => w.parse().map_err(|_| GraphError::Parse {
                line: lineno,
                column: col,
                message: format!("invalid weight {w:?}"),
            })?,
            None => 1.0,
        };
        max_id = max_id.max(src as u64).max(dst as u64);
        saw_edge = true;
        edges.push(Edge::new(src, dst, weight));
    }

    let inferred = if saw_edge { max_id as usize + 1 } else { 0 };
    let n = declared_nodes.unwrap_or(inferred).max(inferred);
    Graph::from_edges(n, &edges)
}

/// Writes a graph as a SNAP-style edge list with a node-count header so
/// isolated trailing nodes survive a round trip.
pub fn write_edge_list<W: IoWrite>(graph: &Graph, mut writer: W) -> std::io::Result<()> {
    writeln!(writer, "# nodes: {}", graph.num_nodes())?;
    for e in graph.edges() {
        if (e.weight - 1.0).abs() < f32::EPSILON {
            writeln!(writer, "{} {}", e.src, e.dst)?;
        } else {
            writeln!(writer, "{} {} {}", e.src, e.dst, e.weight)?;
        }
    }
    Ok(())
}

/// Whitespace tokens of `line` paired with their 1-based byte columns.
/// `split_whitespace` yields subslices of `line`, so each token's offset is
/// recovered from its pointer without a second scan.
fn tokens_with_columns(line: &str) -> impl Iterator<Item = (usize, &str)> {
    line.split_whitespace()
        .map(move |tok| (tok.as_ptr() as usize - line.as_ptr() as usize + 1, tok))
}

fn parse_field(
    field: Option<(usize, &str)>,
    line: usize,
    end_column: usize,
    what: &str,
) -> Result<u32, GraphError> {
    let (column, raw) = field.ok_or_else(|| GraphError::Parse {
        line,
        column: end_column,
        message: format!("missing {what}"),
    })?;
    raw.parse().map_err(|_| GraphError::Parse {
        line,
        column,
        message: format!("invalid {what} {raw:?}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_basic_edge_list() {
        let text = "# a comment\n% another\n0 1\n1 2 0.5\n\n2 0\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.out_weights(1), &[0.5]);
        assert_eq!(g.out_weights(0), &[1.0]);
    }

    #[test]
    fn honors_node_header_for_isolated_tail() {
        let text = "# nodes: 10\n0 1\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_nodes(), 10);
    }

    #[test]
    fn header_smaller_than_max_id_is_overridden() {
        let text = "# nodes: 2\n0 7\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_nodes(), 8);
    }

    #[test]
    fn rejects_garbage_with_line_and_column() {
        let err = read_edge_list("0 x\n".as_bytes()).unwrap_err();
        assert!(matches!(
            err,
            GraphError::Parse {
                line: 1,
                column: 3,
                ..
            }
        ));
        let err = read_edge_list("0\n".as_bytes()).unwrap_err();
        assert!(matches!(
            err,
            GraphError::Parse {
                line: 1,
                column: 2,
                ..
            }
        ));
        let err = read_edge_list("0 1\n2 3 oops\n".as_bytes()).unwrap_err();
        match err {
            GraphError::Parse {
                line: 2,
                column: 5,
                ref message,
            } => assert!(message.contains("oops"), "{message}"),
            other => panic!("expected weight error, got {other:?}"),
        }
        let rendered = err.to_string();
        assert!(
            rendered.contains("line 2, column 5"),
            "position must render: {rendered}"
        );
    }

    #[test]
    fn round_trip_preserves_graph() {
        let text = "# nodes: 5\n0 1 0.25\n3 4\n4 0 0.125\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(buf.as_slice()).unwrap();
        assert_eq!(g2.num_nodes(), g.num_nodes());
        assert_eq!(g2.num_edges(), g.num_edges());
        let e1: Vec<_> = g.edges().collect();
        let e2: Vec<_> = g2.edges().collect();
        assert_eq!(e1, e2);
    }

    #[test]
    fn empty_input_gives_empty_graph() {
        let g = read_edge_list("".as_bytes()).unwrap();
        assert_eq!(g.num_nodes(), 0);
    }
}
