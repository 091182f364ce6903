//! Hierarchical RAII spans.
//!
//! A [`Span`] measures the wall-clock time (and, when the tracking
//! allocator is installed, the peak heap delta) between its creation and
//! drop. The heap peak is the span's own: each span is a peak window
//! (`alloc::open_peak_window`), so a span does not inherit a peak from
//! memory freed before it opened, and closing it hands the enclosing
//! window's peak back. Spans nest through a thread-local stack: a span
//! opened while another is live becomes its child, and the profile
//! aggregates by the full `/`-separated path — so `"train/nn.forward"` and
//! `"sweep/nn.forward"` stay distinct while recursive or repeated entries
//! of the same site merge into one row with a call count.
//!
//! Self time is total time minus the total time of *direct* children,
//! accumulated at child close. When the collector is disabled,
//! [`span`] costs one relaxed atomic load and returns an inert guard.

use crate::alloc;
use crate::clock::Stopwatch;
use crate::collector;
use crate::event::Event;
use std::borrow::Cow;
use std::cell::RefCell;

struct Frame {
    name: Cow<'static, str>,
    watch: Stopwatch,
    child_nanos: u64,
    live_at_open: usize,
    /// The enclosing window's running peak, restored at close.
    outer_peak: usize,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// An open span; closes (and records itself) on drop.
#[must_use = "a span measures the scope it is bound to; dropping it immediately records nothing"]
pub struct Span {
    armed: bool,
}

/// Opens a span named `name`. Inert (single atomic load) when the collector
/// is disabled.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !collector::is_enabled() {
        return Span { armed: false };
    }
    open(Cow::Borrowed(name))
}

/// Opens a span with a runtime-constructed name. Prefer [`span`] on hot
/// paths; use this for low-frequency call sites that need dynamic labels
/// (e.g. one span per solver in a sweep). Callers should gate the name
/// construction on [`crate::is_enabled`] to keep the disabled path free.
pub fn span_named(name: impl Into<Cow<'static, str>>) -> Span {
    if !collector::is_enabled() {
        return Span { armed: false };
    }
    open(name.into())
}

fn open(name: Cow<'static, str>) -> Span {
    STACK.with(|stack| {
        stack.borrow_mut().push(Frame {
            name,
            watch: Stopwatch::start(),
            child_nanos: 0,
            live_at_open: alloc::live_bytes(),
            outer_peak: alloc::open_peak_window(),
        });
    });
    Span { armed: true }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let Some(frame) = stack.pop() else {
                // Guards are dropped in LIFO order within a thread, so the
                // stack cannot underflow unless a guard crossed threads;
                // ignore rather than corrupt sibling frames.
                return;
            };
            let elapsed = frame.watch.elapsed_nanos();
            let self_nanos = elapsed.saturating_sub(frame.child_nanos);
            let heap_peak =
                alloc::close_peak_window(frame.outer_peak).saturating_sub(frame.live_at_open);
            let path = if stack.is_empty() {
                frame.name.to_string()
            } else {
                let mut p = String::with_capacity(64);
                for parent in stack.iter() {
                    p.push_str(&parent.name);
                    p.push('/');
                }
                p.push_str(&frame.name);
                p
            };
            if let Some(parent) = stack.last_mut() {
                parent.child_nanos = parent.child_nanos.saturating_add(elapsed);
            }
            collector::record_span(&path, elapsed, self_nanos, heap_peak);
            if stack.is_empty() {
                collector::emit(Event::SpanClose {
                    path,
                    nanos: elapsed,
                });
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock;

    fn spin(n: u64) -> u64 {
        let mut acc = 0u64;
        for i in 0..n {
            acc = acc.wrapping_add(i * i);
        }
        std::hint::black_box(acc)
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = test_lock();
        collector::set_enabled(false);
        collector::reset();
        {
            let _s = span("outer");
            spin(1000);
        }
        assert!(collector::snapshot().spans.is_empty());
    }

    #[test]
    fn nested_spans_build_paths_and_self_time() {
        let _g = test_lock();
        collector::set_enabled(true);
        collector::reset();
        {
            let _outer = span("outer");
            spin(20_000);
            {
                let _inner = span("inner");
                spin(20_000);
            }
            {
                let _inner = span("inner");
                spin(20_000);
            }
        }
        collector::set_enabled(false);
        let summary = collector::snapshot();
        let outer = summary.span("outer").expect("outer recorded");
        let inner = summary.span("outer/inner").expect("inner recorded");
        assert_eq!(outer.calls, 1);
        assert_eq!(inner.calls, 2, "same-path spans merge");
        assert!(outer.total_nanos >= inner.total_nanos);
        // Outer self time excludes the two inner spans.
        assert!(outer.self_nanos <= outer.total_nanos - inner.total_nanos + 1_000);
        assert!(inner.self_nanos > 0);
        collector::reset();
    }

    #[test]
    fn root_span_close_emits_event() {
        let _g = test_lock();
        collector::set_enabled(true);
        collector::reset();
        {
            let _root = span("rooty");
            let _child = span("leaf");
        }
        collector::set_enabled(false);
        let events = collector::recent_events(16);
        let roots: Vec<_> = events
            .iter()
            .filter(|e| matches!(e, Event::SpanClose { path, .. } if path == "rooty"))
            .collect();
        assert_eq!(roots.len(), 1, "only the root close is an event");
        assert_eq!(events.len(), 1, "child closes aggregate silently");
        collector::reset();
    }
}
