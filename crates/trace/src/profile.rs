//! Owned snapshots of the collector: the span-tree profile, counter values,
//! and histogram summaries, plus a plain-text renderer for terminals.

use crate::metrics::HistogramSummary;

/// Aggregated timing of one span path.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanProfile {
    /// Full `/`-separated path (`"train/nn.forward"`).
    pub path: String,
    /// Number of times the span closed.
    pub calls: u64,
    /// Total wall-clock nanoseconds across calls.
    pub total_nanos: u64,
    /// Total minus direct children's total: time spent in the span's own
    /// code.
    pub self_nanos: u64,
    /// Largest peak-heap delta observed across calls (0 when the tracking
    /// allocator is not installed).
    pub heap_peak_bytes: usize,
}

impl SpanProfile {
    /// Nesting depth (0 for roots).
    pub fn depth(&self) -> usize {
        self.path.matches('/').count()
    }

    /// Final path segment.
    pub fn name(&self) -> &str {
        self.path.rsplit('/').next().unwrap_or(&self.path)
    }
}

/// One counter's value at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Counter name.
    pub name: String,
    /// Accumulated value.
    pub value: u64,
}

/// Everything the collector accumulated, in deterministic (sorted) order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSummary {
    /// Span-tree profile, sorted by path (parents precede children).
    pub spans: Vec<SpanProfile>,
    /// Counters, sorted by name.
    pub counters: Vec<CounterSnapshot>,
    /// Histogram summaries, sorted by name.
    pub histograms: Vec<HistogramSummary>,
}

/// Formats nanoseconds compactly for profile tables.
pub fn fmt_nanos(nanos: u64) -> String {
    let n = nanos as f64;
    if n < 1e3 {
        format!("{nanos}ns")
    } else if n < 1e6 {
        format!("{:.1}us", n / 1e3)
    } else if n < 1e9 {
        format!("{:.1}ms", n / 1e6)
    } else {
        format!("{:.2}s", n / 1e9)
    }
}

impl TraceSummary {
    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Looks up a span profile by full path.
    pub fn span(&self, path: &str) -> Option<&SpanProfile> {
        self.spans.iter().find(|s| s.path == path)
    }

    /// Looks up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_and_name_come_from_the_path() {
        let s = SpanProfile {
            path: "a/b/c".into(),
            calls: 1,
            total_nanos: 10,
            self_nanos: 5,
            heap_peak_bytes: 0,
        };
        assert_eq!(s.depth(), 2);
        assert_eq!(s.name(), "c");
    }

    #[test]
    fn fmt_nanos_picks_units() {
        assert_eq!(fmt_nanos(12), "12ns");
        assert!(fmt_nanos(12_000).ends_with("us"));
        assert!(fmt_nanos(12_000_000).ends_with("ms"));
        assert!(fmt_nanos(12_000_000_000).ends_with('s'));
    }

    #[test]
    fn lookups_find_spans_and_counters() {
        let summary = TraceSummary {
            spans: vec![SpanProfile {
                path: "root".into(),
                calls: 2,
                total_nanos: 1_500,
                self_nanos: 1_500,
                heap_peak_bytes: 64,
            }],
            counters: vec![CounterSnapshot {
                name: "widgets".into(),
                value: 7,
            }],
            histograms: Vec::new(),
        };
        assert!(!summary.is_empty());
        assert_eq!(summary.counter("widgets"), Some(7));
        assert!(summary.span("root").is_some());
    }
}
