//! Integration tests for the `mcpb-obs` trace-analysis toolkit: the
//! committed golden trace must round-trip through every exporter, and
//! `obs diff` must attribute an injected stall to the faulted sweep cell.

use std::path::Path;

use mcpb_obs::{
    diff_runs, parse_flame, render_chrome, render_flame, render_report, validate_chrome, RunKind,
    RunModel,
};

fn golden_path() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_trace.jsonl")
}

fn golden_model() -> RunModel {
    RunModel::load(&golden_path()).expect("golden trace fixture loads")
}

/// Every line of the committed fixture must still parse as a wire event —
/// this pins the fixture to the `Event::from_json` format so a format
/// change that forgets the fixture fails here, not in a downstream tool.
#[test]
fn golden_trace_lines_parse_as_events() {
    let text = std::fs::read_to_string(golden_path()).expect("fixture readable");
    let mut lines = 0;
    for (i, line) in text.lines().filter(|l| !l.trim().is_empty()).enumerate() {
        mcpb_trace::Event::from_json(line)
            .unwrap_or_else(|e| panic!("fixture line {}: {e:?}", i + 1));
        lines += 1;
    }
    assert_eq!(lines, 20, "fixture grew or shrank; update this pin");
}

#[test]
fn golden_trace_builds_the_expected_model() {
    let m = golden_model();
    assert_eq!(m.kind, Some(RunKind::Trace));
    assert_eq!(m.episodes, 2);
    assert_eq!(m.sweep_points, 2);
    assert_eq!(m.spans.len(), 6);
    assert!(!m.torn_tail);

    let cell = m
        .cells
        .iter()
        .find(|c| !c.ok)
        .expect("failed cell ingested");
    assert_eq!(cell.key, "mcp|NormalGreedy|BrightKite|5");
    assert_eq!(cell.attempts, 2);

    // span_stat rows are authoritative: nested self-times survive.
    let fwd = m.span("train.S2V-DQN/nn.forward").expect("nested span");
    assert_eq!(fwd.self_nanos, 6_000_000);
    assert_eq!(fwd.heap_peak_bytes, 32_768);

    let report = render_report(&m, 10);
    for needle in [
        "Top self-time spans",
        "train.S2V-DQN/nn.forward",
        "mcp|NormalGreedy|BrightKite|5",
        "sweep.query_secs/LazyGreedy",
    ] {
        assert!(
            report.contains(needle),
            "report missing {needle:?}:\n{report}"
        );
    }
}

#[test]
fn golden_trace_round_trips_through_chrome_exporter() {
    let m = golden_model();
    let json = render_chrome(&m);
    assert_eq!(validate_chrome(&json).expect("self-check"), m.spans.len());

    // Round-trip: every span path appears exactly once in the export with
    // its real aggregate duration.
    let v: serde_json::Value = serde_json::from_str(&json).expect("parses");
    let arr = v.as_array().expect("array");
    for span in &m.spans {
        let hits: Vec<_> = arr
            .iter()
            .filter(|e| {
                e.get("args")
                    .and_then(|a| a.get("path"))
                    .and_then(|p| p.as_str())
                    == Some(span.path.as_str())
            })
            .collect();
        assert_eq!(hits.len(), 1, "one event per span path {}", span.path);
        let dur = hits[0].get("dur").and_then(|d| d.as_f64()).expect("dur");
        assert!(
            (dur - span.total_nanos as f64 / 1e3).abs() < 1e-9,
            "duration for {} is the aggregate total",
            span.path
        );
    }
}

#[test]
fn golden_trace_round_trips_through_flame_exporter() {
    let m = golden_model();
    let folded = render_flame(&m);
    let parsed = parse_flame(&folded).expect("own output parses");
    let expected: std::collections::BTreeMap<String, u64> = m
        .spans
        .iter()
        .filter(|s| s.self_nanos > 0)
        .map(|s| (s.path.clone(), s.self_nanos))
        .collect();
    assert_eq!(parsed, expected, "folded stacks lose or distort spans");
}

/// End-to-end regression attribution: record a tiny MCP sweep twice, the
/// second time with a deterministic `MCPB_FAULTS` stall injected into the
/// first grid cell (LazyGreedy — faults arm in the sequential plan pass,
/// so the occurrence index is thread-count independent). `obs diff` must
/// rank the stalled cell's span path as the top regression.
///
/// One `#[test]` fn on purpose: the trace collector and fault plan are
/// process-global, so the before/after recordings must not interleave
/// with each other or with other collector users.
#[test]
fn stall_attribution_ranks_faulted_span_as_top_regression() {
    use mcpb_bench::registry::{McpMethodKind, Scale};
    use mcpb_bench::run_mcp_sweep;
    use mcpb_graph::catalog;
    use mcpb_resilience::{fault, FaultPlan};

    let mut ds = catalog::require("Damascus").expect("Damascus ships in the catalog");
    ds.nodes = 200;
    let datasets = [ds];
    let train = mcpb_graph::generators::barabasi_albert(100, 3, 0);
    let methods = [McpMethodKind::LazyGreedy, McpMethodKind::TopDegree];

    let dir = std::env::temp_dir().join(format!("mcpb-obs-attrib-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path_a = dir.join("before.jsonl");
    let path_b = dir.join("after.jsonl");

    mcpb_par::set_thread_override(Some(1));

    // Baseline recording.
    mcpb_trace::reset();
    mcpb_trace::set_jsonl_path(path_a.to_str().expect("utf-8 tmp path")).expect("sink A");
    mcpb_trace::set_enabled(true);
    let clean = run_mcp_sweep(&methods, &datasets, &[3], &train, Scale::Quick, 7);
    mcpb_trace::flush_summary();

    // Stalled recording: 80 ms dwarfs the honest per-cell work at this
    // scale, so the ranking is stable under CI timing noise.
    mcpb_trace::reset();
    mcpb_trace::set_jsonl_path(path_b.to_str().expect("utf-8 tmp path")).expect("sink B");
    fault::install(FaultPlan::parse("stall@sweep.cell:1=0.08").expect("plan parses"));
    let stalled = run_mcp_sweep(&methods, &datasets, &[3], &train, Scale::Quick, 7);
    fault::clear();
    mcpb_trace::flush_summary();
    mcpb_trace::set_enabled(false);
    mcpb_trace::reset();
    mcpb_par::set_thread_override(None);

    // The stall only delays the cell — both grids complete identically.
    assert_eq!(clean.len(), 2);
    assert_eq!(stalled.len(), 2);

    let before = RunModel::load(&path_a).expect("baseline trace loads");
    let after = RunModel::load(&path_b).expect("stalled trace loads");
    assert!(
        before.span("sweep.mcp/LazyGreedy").is_some(),
        "cell spans recorded: {:?}",
        before.spans.iter().map(|s| &s.path).collect::<Vec<_>>()
    );

    let diff = diff_runs(&before, &after, 0.05);
    let top = diff
        .top_regression()
        .expect("stall produces at least one regression");
    assert_eq!(
        top.path,
        "sweep.mcp/LazyGreedy",
        "stalled cell must rank first; full diff:\n{}",
        mcpb_obs::render_diff(&diff)
    );
    assert!(
        top.delta_self_nanos >= 60_000_000,
        "stall self-time should surface (~80ms), got {}ns",
        top.delta_self_nanos
    );

    let _ = std::fs::remove_dir_all(&dir);
}
