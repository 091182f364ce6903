//! Tiny-size runs of every workload: each reports every named metric,
//! passes its output checks, and gives the same answers at pool widths 1
//! and 2. One test, because runs share the process-wide trace collector
//! and pool setting.

use mcpb_e2ebench::metrics::{END_TO_END, PER_LAYER};
use mcpb_e2ebench::workloads::{run, Options, RunReport, Size, Workload};
use std::path::PathBuf;

fn tiny(workload: Workload, trace: bool, threads: usize) -> RunReport {
    let opts = Options {
        workload,
        seed: 3,
        seconds: 0.0,
        trace,
        threads,
        size: Size::Tiny,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("e2ebench-smoke"),
    };
    run(&opts).unwrap_or_else(|e| panic!("{}: {e}", workload.name()))
}

fn value(report: &RunReport, name: &str) -> f64 {
    report
        .outcome
        .metrics
        .iter()
        .find(|m| m.def.name == name)
        .unwrap_or_else(|| panic!("{name} missing"))
        .value
}

#[test]
fn every_workload_reports_every_metric_and_repeats_its_answers() {
    for workload in Workload::ALL {
        let name = workload.name();
        let untraced = tiny(workload, false, 2);
        let traced = tiny(workload, true, 2);
        let narrow = tiny(workload, false, 1);
        for (report, defs) in [(&untraced, END_TO_END), (&traced, PER_LAYER)] {
            assert!(report.outcome.correct, "{name}: {:?}", report.failures);
            assert_eq!(report.outcome.failed, 0, "{name}");
            assert!(report.outcome.attempted >= 1, "{name}");
            let names: Vec<&str> = report.outcome.metrics.iter().map(|m| m.def.name).collect();
            let expected: Vec<&str> = defs.iter().map(|d| d.name).collect();
            assert_eq!(names, expected, "{name}");
            assert!(
                report.outcome.metrics.iter().all(|m| m.value.is_finite()),
                "{name}"
            );
            assert!(report.outcome.to_json().starts_with("{\"correct\": true"));
        }
        for metric in ["setup_s", "wall_s", "query_s", "peak_mb", "quality"] {
            assert!(value(&untraced, metric) > 0.0, "{name}: {metric} is 0");
        }
        assert!(value(&traced, "trace.overhead") > 0.0, "{name}");
        assert!(
            traced.trace_file.as_ref().is_some_and(|p| p.exists()),
            "{name}"
        );
        // Answers do not depend on the pool width or on tracing.
        assert_eq!(untraced.digest, narrow.digest, "{name}: width 1 vs 2");
        assert_eq!(untraced.digest, traced.digest, "{name}: traced");
        assert_eq!(
            value(&untraced, "quality"),
            value(&narrow, "quality"),
            "{name}"
        );
        assert_eq!(value(&traced, "par.threads"), 2.0, "{name}");
    }
}

#[test]
fn benchmark_json_lists_the_catalogue() {
    let text = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));
    let json: serde::Value = serde_json::from_str(text).expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<(String, String)> {
        json.get(key)
            .and_then(serde::Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(serde::Value::as_str)
                        .expect(f)
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    };
    let ours = |defs: &[mcpb_e2ebench::metrics::MetricDef]| -> Vec<(String, String)> {
        defs.iter()
            .map(|d| (d.name.to_string(), d.unit.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), ours(END_TO_END));
    assert_eq!(listed("per_layer"), ours(PER_LAYER));
    let workloads: Vec<&str> = json
        .get("workloads")
        .and_then(serde::Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(serde::Value::as_str).expect("name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}
