//! # mcpb-trace
//!
//! Zero-dependency observability substrate for the benchmark workspace:
//!
//! - **Spans** ([`span`]): RAII guards that nest through a
//!   thread-local stack and aggregate into a span-tree profile with call
//!   counts, total/self time, and peak-heap deltas (via the tracking
//!   allocator in [`alloc`]).
//! - **Counters & histograms** ([`counter_add`], [`observe`]): monotonic
//!   counters and log-bucketed value/latency histograms with p50/p90/p99.
//! - **Event stream** ([`emit`], [`Event`]): typed records (per-episode
//!   training telemetry, sweep points, root-span closes) kept in a bounded
//!   ring buffer and optionally appended to a JSONL file.
//!
//! The collector is **off by default**: every instrumented site starts with
//! one relaxed atomic load and bails, so release hot paths are effectively
//! free until `MCPB_TRACE` (see [`init_from_env`]) or [`set_enabled`] turns
//! recording on. Recording never touches solver RNG streams or results —
//! enabling tracing must not (and, per the determinism tests in
//! `crates/drl`, does not) perturb seeded solver output.
//!
//! ```
//! mcpb_trace::set_enabled(true);
//! {
//!     let _train = mcpb_trace::span("train");
//!     let _fw = mcpb_trace::span("nn.forward");
//!     mcpb_trace::counter_add("batches", 1);
//!     mcpb_trace::observe("loss", 0.25);
//! }
//! let profile = mcpb_trace::snapshot();
//! assert!(profile.span("train/nn.forward").is_some());
//! mcpb_trace::set_enabled(false);
//! mcpb_trace::reset();
//! ```

#![warn(missing_docs)]

pub mod alloc;
pub mod clock;
pub mod collector;
pub mod event;
pub mod metrics;
pub mod profile;
mod span;

pub use clock::Stopwatch;
pub use collector::{
    counter_add, emit, events_seen, flush, flush_summary, init_from_env, is_enabled, observe,
    recent_events, reset, set_enabled, set_jsonl_path, snapshot,
};
pub use event::Event;
pub use metrics::{Histogram, HistogramSummary};
pub use profile::{fmt_nanos, CounterSnapshot, SpanProfile, TraceSummary};
pub use span::{span, span_named, Span};

/// Serializes tests that toggle the process-global collector. Tests within
/// one binary run on parallel threads; anything that calls `set_enabled` /
/// `reset` must hold this for its whole body.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    match LOCK.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_histograms_aggregate() {
        let _g = test_lock();
        set_enabled(true);
        reset();
        counter_add("items", 3);
        counter_add("items", 4);
        observe("value", 10.0);
        observe("value", 20.0);
        set_enabled(false);
        let s = snapshot();
        assert_eq!(s.counter("items"), Some(7));
        let h = &s.histograms[0];
        assert_eq!((h.name.as_str(), h.count), ("value", 2));
        assert!((h.mean - 15.0).abs() < 1e-9);
        reset();
    }

    #[test]
    fn disabled_collector_is_inert() {
        let _g = test_lock();
        set_enabled(false);
        reset();
        counter_add("nope", 1);
        observe("nope", 1.0);
        emit(Event::Metric {
            name: "nope".into(),
            value: 0.0,
        });
        assert!(snapshot().is_empty());
        assert_eq!(events_seen(), 0);
    }

    #[test]
    fn ring_buffer_keeps_the_tail() {
        let _g = test_lock();
        set_enabled(true);
        reset();
        let n = collector::DEFAULT_RING_CAPACITY + 10;
        for i in 0..n {
            emit(Event::Metric {
                name: "m".into(),
                value: i as f64,
            });
        }
        set_enabled(false);
        assert_eq!(events_seen(), n as u64);
        let recent = recent_events(usize::MAX);
        assert_eq!(recent.len(), collector::DEFAULT_RING_CAPACITY);
        match recent.last() {
            Some(Event::Metric { value, .. }) => {
                assert!((value - (n - 1) as f64).abs() < 1e-9);
            }
            other => panic!("unexpected tail {other:?}"),
        }
        reset();
    }

    #[test]
    fn flush_summary_emits_sorted_rows_once() {
        let _g = test_lock();
        set_enabled(true);
        reset();
        {
            let _outer = span("outer");
            let _inner = span("leaf");
        }
        counter_add("widgets", 3);
        observe("lat", 2.0);
        let rows = flush_summary();
        // 2 span paths + 1 counter + 1 histogram.
        assert_eq!(rows, 4);
        set_enabled(false);
        let events = recent_events(usize::MAX);
        let stats: Vec<&Event> = events
            .iter()
            .filter(|e| matches!(e, Event::SpanStat { .. }))
            .collect();
        assert_eq!(stats.len(), 2, "nested path reaches the stream: {events:?}");
        match stats[1] {
            Event::SpanStat { path, calls, .. } => {
                assert_eq!(path, "outer/leaf");
                assert_eq!(*calls, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(events.iter().any(
            |e| matches!(e, Event::Counter { name, value } if name == "widgets" && *value == 3)
        ));
        assert!(events.iter().any(
            |e| matches!(e, Event::HistSummary { name, count, .. } if name == "lat" && *count == 1)
        ));
        reset();
        // Disabled flushes are inert.
        assert_eq!(flush_summary(), 0);
    }

    #[test]
    fn jsonl_sink_round_trips() {
        let _g = test_lock();
        let path = std::env::temp_dir().join("mcpb_trace_roundtrip.jsonl");
        let path_str = path.to_string_lossy().to_string();
        set_enabled(true);
        reset();
        set_jsonl_path(&path_str).expect("open jsonl");
        let sent = vec![
            Event::EpisodeEnd {
                solver: "S2V-DQN".into(),
                episode: 1,
                loss: 0.5,
                epsilon: 0.9,
                reward: 0.25,
            },
            Event::SweepPoint {
                method: "IMM".into(),
                dataset: "BrightKite".into(),
                budget: 10,
                quality: 0.8,
                runtime: 0.004,
            },
        ];
        for e in &sent {
            emit(e.clone());
        }
        flush();
        set_enabled(false);
        let text = std::fs::read_to_string(&path).expect("read back");
        let parsed: Vec<Event> = text
            .lines()
            .map(|l| Event::from_json(l).expect("valid line"))
            .collect();
        assert_eq!(parsed, sent);
        reset();
        let _ = std::fs::remove_file(&path);
    }
}
