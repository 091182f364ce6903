//! The `serve` perf area: query latency quantiles and shed overhead.
//!
//! Unlike the kernel areas, the interesting numbers here are *derived
//! statistics* of a replayed load mix, not raw loop timings, so the area
//! synthesizes [`Summary`] rows directly: the `*_nanos` fields of
//! `serve/query_p50` and `serve/query_p99` carry the latency quantile in
//! nanoseconds, and `serve/shed_per_1000` carries the number of shed
//! requests per 1000 (a dimensionless rate in the nanos slot — the
//! ratchet only compares magnitudes). The replayed log is seeded and
//! includes a burst window, so run-to-run variance comes only from the
//! machine, matching the other areas' contract.

use mcpb_bench::perf::{AreaReport, Summary};

use crate::engine::{replay, EngineOptions};
use crate::loadgen::{generate_log, LoadGenConfig};
use crate::state::{preload, ServeConfig};

fn stat_summary(id: &str, samples: usize, value: f64) -> Summary {
    let nanos = if value.is_finite() && value > 0.0 {
        value as u128
    } else {
        0
    };
    Summary {
        id: id.to_string(),
        samples,
        min_nanos: nanos,
        median_nanos: nanos,
        mean_nanos: nanos,
    }
}

/// Runs the serve latency benchmark and returns its area report; `quick`
/// replays a shorter log.
pub fn serve_area(quick: bool) -> AreaReport {
    let cfg = ServeConfig {
        datasets: vec!["Damascus".to_string()],
        mcp_solvers: vec![
            mcpb_bench::McpMethodKind::LazyGreedy,
            mcpb_bench::McpMethodKind::TopDegree,
        ],
        im_solvers: vec![mcpb_bench::ImMethodKind::DDiscount],
        rr_sets: 500,
        ..ServeConfig::default()
    };
    let (state, mut pool) = preload(&cfg).expect("invariant: default serve preload succeeds");
    let requests = if quick { 150 } else { 400 };
    let log = generate_log(
        &state,
        &LoadGenConfig {
            requests,
            seed: 20_240_817,
            burst: true,
        },
    );
    let opts = EngineOptions {
        label: "serve-bench".to_string(),
        ..EngineOptions::default()
    };
    let report = replay(&state, &mut pool, log.as_bytes(), &opts);
    let shed_per_1000 = (report.shed as f64) * 1000.0 / (report.requests.max(1) as f64);
    let benches = vec![
        stat_summary("serve/query_p50", report.requests, report.p50_ms * 1.0e6),
        stat_summary("serve/query_p99", report.requests, report.p99_ms * 1.0e6),
        stat_summary("serve/shed_per_1000", report.requests, shed_per_1000),
    ];
    AreaReport {
        area: "serve",
        benches,
        speedups: Vec::new(),
        extras: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_area_reports_three_stats() {
        let _g = crate::test_serial();
        let area = serve_area(true);
        assert_eq!(area.area, "serve");
        let ids: Vec<&str> = area.benches.iter().map(|s| s.id.as_str()).collect();
        assert_eq!(
            ids,
            ["serve/query_p50", "serve/query_p99", "serve/shed_per_1000"]
        );
        assert!(area.benches.iter().all(|s| s.samples > 0));
    }
}
