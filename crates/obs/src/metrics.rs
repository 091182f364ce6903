//! Prometheus-style text exposition: the metrics surface a future
//! `mcpb-serve` can scrape (ROADMAP item 1), rendered today by
//! `mcpbench obs metrics`.
//!
//! A [`MetricsRegistry`] is an ordered set of metric families built from an
//! ingested [`RunModel`]. The
//! renderer follows the Prometheus [text exposition format]: `# HELP` /
//! `# TYPE` headers, sanitized metric names, escaped label values, and
//! quantile series for histogram summaries.
//!
//! [text exposition format]: https://prometheus.io/docs/instrumenting/exposition_formats/

use crate::model::RunModel;

/// The Prometheus metric type of a family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricType {
    /// Monotonically increasing value.
    Counter,
    /// Point-in-time value.
    Gauge,
    /// Pre-computed quantiles (`{quantile="0.5"}` series plus `_count`
    /// and a mean gauge).
    Summary,
}

impl MetricType {
    fn as_str(self) -> &'static str {
        match self {
            MetricType::Counter => "counter",
            MetricType::Gauge => "gauge",
            MetricType::Summary => "summary",
        }
    }
}

/// One sample: optional `(label, value)` pairs and a number.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Label pairs, already in render order.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

/// One metric family: a name, help text, a type, and its samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Family {
    /// Raw (unsanitized) family name.
    pub name: String,
    /// `# HELP` text.
    pub help: String,
    /// Family type.
    pub kind: MetricType,
    /// Samples in render order. The optional suffix (e.g. `_count`) is
    /// appended to the sanitized family name.
    pub samples: Vec<(Option<&'static str>, Sample)>,
}

/// An ordered collection of metric families.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    families: Vec<Family>,
}

/// Sanitizes a metric name to `[a-zA-Z_:][a-zA-Z0-9_:]*`: every other
/// character maps to `_`, and a leading digit gains a `_` prefix.
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphanumeric() || c == '_' || c == ':';
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
        }
        out.push(if ok { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Escapes a label value per the exposition format (`\\`, `\"`, `\n`).
fn escape_label_value(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of families registered.
    pub fn len(&self) -> usize {
        self.families.len()
    }

    /// True when no families are registered.
    pub fn is_empty(&self) -> bool {
        self.families.is_empty()
    }

    /// Adds a single-sample family with no labels.
    pub fn push_scalar(&mut self, name: &str, help: &str, kind: MetricType, value: f64) {
        self.families.push(Family {
            name: name.to_string(),
            help: help.to_string(),
            kind,
            samples: vec![(
                None,
                Sample {
                    labels: Vec::new(),
                    value,
                },
            )],
        });
    }

    /// Adds a whole family.
    pub fn push_family(&mut self, family: Family) {
        self.families.push(family);
    }

    /// Builds the registry from an ingested run: counters become `counter`
    /// families, span self-time/calls become labelled gauges, histograms
    /// become `summary` quantile series, plus run-level throughput gauges.
    pub fn from_model(model: &RunModel) -> Self {
        let mut reg = Self::new();
        for (name, value) in &model.counters {
            reg.push_scalar(
                &format!("mcpb_{name}_total"),
                "Accumulated trace counter.",
                MetricType::Counter,
                *value as f64,
            );
        }
        if !model.spans.is_empty() {
            let mk = |suffix: &str, help: &str, f: &dyn Fn(&crate::model::SpanAgg) -> f64| Family {
                name: format!("mcpb_span_{suffix}"),
                help: help.to_string(),
                kind: MetricType::Gauge,
                samples: model
                    .spans
                    .iter()
                    .map(|s| {
                        (
                            None,
                            Sample {
                                labels: vec![("path".to_string(), s.path.clone())],
                                value: f(s),
                            },
                        )
                    })
                    .collect(),
            };
            reg.push_family(mk("self_seconds", "Span self-time in seconds.", &|s| {
                s.self_nanos as f64 / 1e9
            }));
            reg.push_family(mk("calls", "Span close count.", &|s| s.calls as f64));
            reg.push_family(mk(
                "heap_peak_bytes",
                "Largest peak-heap delta observed for the span.",
                &|s| s.heap_peak_bytes as f64,
            ));
        }
        for h in &model.histograms {
            reg.push_family(summary_family(
                &format!("mcpb_hist_{}", h.name),
                h.count,
                h.mean,
                &[(0.5, h.p50), (0.9, h.p90), (0.99, h.p99)],
            ));
        }
        if model.episodes > 0 {
            reg.push_scalar(
                "mcpb_train_episodes_total",
                "Training episodes recorded in the run.",
                MetricType::Counter,
                model.episodes as f64,
            );
        }
        if model.sweep_points > 0 {
            reg.push_scalar(
                "mcpb_sweep_points_total",
                "Sweep cells recorded in the run.",
                MetricType::Counter,
                model.sweep_points as f64,
            );
        }
        for (name, value) in &model.last_metrics {
            reg.push_scalar(
                &format!("mcpb_{name}"),
                "Last value of a heartbeat metric.",
                MetricType::Gauge,
                *value,
            );
        }
        reg
    }

    /// Renders the registry in the Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for fam in &self.families {
            let name = sanitize_metric_name(&fam.name);
            let _ = writeln!(out, "# HELP {name} {}", fam.help.replace('\n', " "));
            let _ = writeln!(out, "# TYPE {name} {}", fam.kind.as_str());
            for (suffix, sample) in &fam.samples {
                out.push_str(&name);
                if let Some(suffix) = suffix {
                    out.push_str(suffix);
                }
                if !sample.labels.is_empty() {
                    out.push('{');
                    for (i, (k, v)) in sample.labels.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        let _ = write!(
                            out,
                            "{}=\"{}\"",
                            sanitize_metric_name(k),
                            escape_label_value(v)
                        );
                    }
                    out.push('}');
                }
                let _ = writeln!(out, " {}", fmt_value(sample.value));
            }
        }
        out
    }
}

/// Builds a `summary`-typed family from pre-computed quantiles.
fn summary_family(name: &str, count: u64, mean: f64, quantiles: &[(f64, f64)]) -> Family {
    let mut samples: Vec<(Option<&'static str>, Sample)> = quantiles
        .iter()
        .map(|(q, v)| {
            (
                None,
                Sample {
                    labels: vec![("quantile".to_string(), format!("{q}"))],
                    value: *v,
                },
            )
        })
        .collect();
    samples.push((
        None,
        Sample {
            labels: vec![("quantile".to_string(), "mean".to_string())],
            value: mean,
        },
    ));
    samples.push((
        Some("_count"),
        Sample {
            labels: Vec::new(),
            value: count as f64,
        },
    ));
    Family {
        name: name.to_string(),
        help: "Histogram quantile summary.".to_string(),
        kind: MetricType::Summary,
        samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{HistRow, SpanAgg};

    #[test]
    fn names_are_sanitized() {
        assert_eq!(sanitize_metric_name("a.b/c-d"), "a_b_c_d");
        assert_eq!(sanitize_metric_name("7start"), "_7start");
        assert_eq!(sanitize_metric_name("ok_name:x"), "ok_name:x");
        assert_eq!(sanitize_metric_name(""), "_");
    }

    #[test]
    fn model_exposition_has_help_type_and_labels() {
        let model = RunModel {
            label: "m".into(),
            spans: vec![SpanAgg {
                path: "sweep.mcp/LazyGreedy".into(),
                calls: 3,
                total_nanos: 2_000_000_000,
                self_nanos: 1_500_000_000,
                heap_peak_bytes: 64,
            }],
            counters: vec![("sweep.cells".into(), 4)],
            histograms: vec![HistRow {
                name: "query_secs".into(),
                count: 4,
                mean: 0.1,
                p50: 0.09,
                p90: 0.2,
                p99: 0.21,
                min: 0.01,
                max: 0.22,
            }],
            episodes: 12,
            last_metrics: vec![("sweep.eta_secs".into(), 1.5)],
            ..RunModel::default()
        };
        let text = MetricsRegistry::from_model(&model).render_prometheus();
        for needle in [
            "# HELP mcpb_sweep_cells_total",
            "# TYPE mcpb_sweep_cells_total counter",
            "mcpb_sweep_cells_total 4",
            "# TYPE mcpb_span_self_seconds gauge",
            "mcpb_span_self_seconds{path=\"sweep.mcp/LazyGreedy\"} 1.5",
            "mcpb_span_calls{path=\"sweep.mcp/LazyGreedy\"} 3",
            "# TYPE mcpb_hist_query_secs summary",
            "mcpb_hist_query_secs{quantile=\"0.5\"} 0.09",
            "mcpb_hist_query_secs_count 4",
            "mcpb_train_episodes_total 12",
            "mcpb_sweep_eta_secs 1.5",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn label_values_are_escaped_and_specials_rendered() {
        let mut reg = MetricsRegistry::new();
        reg.push_family(Family {
            name: "weird".into(),
            help: "multi\nline help".into(),
            kind: MetricType::Gauge,
            samples: vec![(
                None,
                Sample {
                    labels: vec![("path".to_string(), "a\"b\\c\nd".to_string())],
                    value: f64::INFINITY,
                },
            )],
        });
        let text = reg.render_prometheus();
        assert!(text.contains("# HELP weird multi line help"), "{text}");
        assert!(
            text.contains("weird{path=\"a\\\"b\\\\c\\nd\"} +Inf"),
            "{text}"
        );
    }

    #[test]
    fn empty_registry_renders_nothing() {
        assert!(MetricsRegistry::new().render_prometheus().is_empty());
        assert!(MetricsRegistry::new().is_empty());
        assert_eq!(MetricsRegistry::new().len(), 0);
    }
}
