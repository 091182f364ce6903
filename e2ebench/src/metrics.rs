//! The benchmark's metric catalogue and its one-line JSON result.
//!
//! The two tables below are the single source of the metric names and
//! units; `BENCHMARK.json` at the repository root must list the same ones
//! (`tests/smoke.rs` compares them).

use std::fmt::Write as _;

/// One named metric and its unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name, `[A-Za-z0-9][A-Za-z0-9_.-]*`, at most 64 characters.
    pub name: &'static str,
    /// Unit, e.g. `s`, `ms`, `MB`, `count`, `share`.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// What a user of the system waits for or gets, reported by every
/// workload from the untraced run.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("wall_s", "s"),
    m("query_s", "s"),
    m("peak_mb", "MB"),
    m("quality", "share"),
];

/// Single-layer figures, reported by the traced run. A metric that does
/// not apply to a workload reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    // Workload-specific end-to-end figures (not every workload has them).
    m("train_s", "s"),
    m("req_per_s", "1/s"),
    m("req_ms.p50", "ms"),
    m("req_ms.p99", "ms"),
    m("fail_share", "share"),
    m("degraded_share", "share"),
    // graph
    m("graph.load_ms", "ms"),
    m("graph.weights_ms", "ms"),
    m("graph.stream_build_ms", "ms"),
    m("graph.cache_save_ms", "ms"),
    m("graph.cache_load_ms", "ms"),
    m("graph.validate_ms", "ms"),
    m("graph.bytes", "B"),
    m("graph.sample_subgraph.self_ms", "ms"),
    // drl / nn / gnn / rl
    m("drl.train_ms.s2v_dqn", "ms"),
    m("drl.train_ms.gcomb", "ms"),
    m("drl.infer_ms.s2v_dqn", "ms"),
    m("drl.infer_ms.gcomb", "ms"),
    m("drl.train_loop.self_ms", "ms"),
    m("nn.forward.self_ms", "ms"),
    m("nn.backward.self_ms", "ms"),
    m("nn.forward.calls", "count"),
    // mcp
    m("mcp.score_ms", "ms"),
    m("mcp.lazy_greedy.self_ms", "ms"),
    // im
    m("im.prepare_ms", "ms"),
    m("im.solve_ms.imm", "ms"),
    m("im.solve_ms.opim", "ms"),
    m("im.score_ms", "ms"),
    m("bench.scorer_ms", "ms"),
    m("im.rr_sample_ms", "ms"),
    m("im.rr_greedy_ms", "ms"),
    m("im.rr_set_nodes", "count"),
    m("im.ic_mc_ms", "ms"),
    m("im.rr_shards", "count"),
    m("im.rr_shard_peak_bytes", "B"),
    m("im.rr_sample.self_ms", "ms"),
    m("im.rr_greedy.self_ms", "ms"),
    m("im.imm.self_ms", "ms"),
    m("im.opim.self_ms", "ms"),
    m("im.rr_sets_sampled", "count"),
    // serve / resilience
    m("serve.preload_ms", "ms"),
    m("serve.gen_log_ms", "ms"),
    m("serve.replay_ms", "ms"),
    m("serve.journal_bytes", "B"),
    m("serve.req_ms.p50.served", "ms"),
    m("serve.req_ms.p99.served", "ms"),
    m("serve.req_ms.p50.degraded", "ms"),
    m("serve.req_ms.p99.degraded", "ms"),
    m("serve.req_ms.p50.shed", "ms"),
    m("serve.req_ms.p99.shed", "ms"),
    m("serve.req_ms.p50.error", "ms"),
    m("serve.req_ms.p99.error", "ms"),
    m("serve.cache_hit_share", "share"),
    m("serve.served", "count"),
    m("serve.degraded", "count"),
    m("serve.shed", "count"),
    m("serve.errors", "count"),
    m("serve.lost", "count"),
    m("serve.duplicated", "count"),
    m("serve.served_share", "share"),
    m("serve.shed_share", "share"),
    m("serve.error_share", "share"),
    m("serve.replay.self_ms", "ms"),
    m("serve.mean_cost", "units"),
    m("serve.drain_per_step", "units"),
    // process, measured by the benchmark
    m("alloc.calls.setup", "count"),
    m("alloc.calls.train", "count"),
    m("alloc.calls.query", "count"),
    m("proc.sys_share", "share"),
    m("par.threads", "count"),
    m("bench.cycles", "count"),
    m("bench.cycle_spread", "share"),
    // trace
    m("trace.overhead", "ratio"),
];

/// True when `name` is 1 to 64 characters of `[A-Za-z0-9_.-]` starting
/// with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let first_ok = chars.next().is_some_and(|c| c.is_ascii_alphanumeric());
    first_ok
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// True when `unit` is 1 to 16 characters of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// One reported value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric definition.
    pub def: MetricDef,
    /// Measured value, finite.
    pub value: f64,
}

/// The run's result line.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted (solves, samplings, requests).
    pub attempted: u64,
    /// Operations that failed a check or panicked.
    pub failed: u64,
    /// The reported metrics, in catalogue order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Renders the result as one JSON object on one line. Values print
    /// with every digit Rust's shortest round-trip form gives them.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.def.name, value, m.def.unit
            );
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_charset() {
        assert!(valid_name("req_ms.p99"));
        assert!(valid_name("9lives-ok_x.y"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("_x"));
        assert!(!valid_name("a b"));
        assert!(!valid_name("a/b"));
        assert!(!valid_name("drl.train_ms.{s2v_dqn,gcomb}"));
        assert!(!valid_name(&"a".repeat(65)));
        assert!(valid_name(&"a".repeat(64)));
    }

    #[test]
    fn catalogue_names_and_units_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(d.name), "bad name {}", d.name);
            assert!(valid_unit(d.unit), "bad unit {} of {}", d.unit, d.name);
            assert!(seen.insert(d.name), "duplicate {}", d.name);
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    fn outcome_json_shape() {
        let o = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![Metric {
                def: END_TO_END[0],
                value: 0.8125,
            }],
        };
        assert_eq!(
            o.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8125, \"unit\": \"s\"}}}"
        );
    }
}
