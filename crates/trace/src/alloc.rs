//! Peak-memory tracking via a counting global allocator.
//!
//! The paper reports OS-level peak memory per solver run; portable Rust has
//! no per-scope RSS probe, so we substitute a counting global allocator:
//! install [`TrackingAllocator`] as `#[global_allocator]` in a binary or
//! bench target and wrap each solver call in [`measure_peak`]. Library
//! tests that run under the default allocator simply observe zero deltas —
//! the API degrades gracefully rather than failing, and
//! [`tracking_installed`] lets callers distinguish "not installed" from
//! "genuinely zero allocation".
//!
//! This lived in `bench-core::alloc` originally; it moved here so the span
//! layer can attribute heap deltas to spans without a dependency cycle
//! (`bench-core` re-exports it for compatibility).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// Monotonic count of allocation calls routed through the tracking
/// allocator. Only [`TrackingAllocator::alloc`] ever increments it, which
/// makes installation detection exact: force one allocation and see whether
/// the counter moved.
static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

/// A [`System`]-backed allocator that tracks live and peak bytes.
pub struct TrackingAllocator;

// SAFETY: delegates every allocation to `System`, only adding atomic
// bookkeeping around it.
unsafe impl GlobalAlloc for TrackingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed); // audit: relaxed-ok(pure call counter)
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) // audit: relaxed-ok(byte counter, gates no data)
                + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed); // audit: relaxed-ok(monotonic max, gates no data)
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed); // audit: relaxed-ok(byte counter, gates no data)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            if new_size >= layout.size() {
                let live = LIVE.fetch_add(new_size - layout.size(), Ordering::Relaxed) // audit: relaxed-ok(byte counter, gates no data)
                    + new_size
                    - layout.size();
                PEAK.fetch_max(live, Ordering::Relaxed); // audit: relaxed-ok(monotonic max, gates no data)
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed); // audit: relaxed-ok(byte counter, gates no data)
            }
        }
        new_ptr
    }
}

/// Currently live tracked bytes (0 unless the tracking allocator is the
/// global allocator).
pub fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed) // audit: relaxed-ok(statistics read, no synchronization implied)
}

/// Peak tracked bytes since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed) // audit: relaxed-ok(statistics read, no synchronization implied)
}

/// Resets the peak to the current live level.
///
/// Lock-free but race-safe: a plain `store` here could erase a higher peak
/// published by a concurrent `alloc` between our `LIVE` read and the write
/// (and worse, leave `PEAK < LIVE` forever if that allocation stays live).
/// Instead the peak is only ever lowered via compare-exchange to a level we
/// just observed, then repaired upward with `fetch_max` until the invariant
/// `PEAK >= LIVE` is stably re-established.
pub fn reset_peak() {
    let observed_live = LIVE.load(Ordering::Relaxed); // audit: relaxed-ok(repair loop below restores PEAK >= LIVE)
    let mut current = PEAK.load(Ordering::Relaxed); // audit: relaxed-ok(CAS loop re-reads on failure)
    while current > observed_live {
        match PEAK.compare_exchange_weak(
            current,
            observed_live,
            Ordering::Relaxed, // audit: relaxed-ok(counter-only CAS, no data gated)
            Ordering::Relaxed, // audit: relaxed-ok(failure ordering of the same CAS)
        ) {
            Ok(_) => break,
            Err(now) => current = now,
        }
    }
    // Concurrent allocations may have raised LIVE past the level we just
    // stored; repair until the peak again dominates the live count.
    loop {
        let live = LIVE.load(Ordering::Relaxed); // audit: relaxed-ok(repair loop converges regardless of order)
        if PEAK.fetch_max(live, Ordering::Relaxed) >= live {
            // audit: relaxed-ok(monotonic max, gates no data)
            break;
        }
    }
}

/// Monotonic count of allocation calls since process start (0 unless the
/// tracking allocator is installed). Deltas of this counter are the
/// alloc-regression probe: a loop that performs zero heap allocation leaves
/// it unchanged, regardless of allocation *size*.
pub fn alloc_calls() -> u64 {
    ALLOC_CALLS.load(Ordering::Relaxed) // audit: relaxed-ok(statistics read, no synchronization implied)
}

/// True when [`TrackingAllocator`] is this process's global allocator.
///
/// Detection is exact, not heuristic: the probe heap-allocates, and only
/// the tracking allocator bumps `ALLOC_CALLS`, so under the default
/// allocator the counter can never move. The result cannot change over a
/// process lifetime (`#[global_allocator]` is a link-time choice), so it is
/// computed once.
pub fn tracking_installed() -> bool {
    use std::sync::OnceLock;
    static INSTALLED: OnceLock<bool> = OnceLock::new();
    *INSTALLED.get_or_init(|| {
        let before = ALLOC_CALLS.load(Ordering::Relaxed); // audit: relaxed-ok(same-thread probe, no cross-thread data)
        let probe = std::hint::black_box(Box::new(0xA110C8u64));
        drop(probe);
        ALLOC_CALLS.load(Ordering::Relaxed) > before // audit: relaxed-ok(same-thread probe, no cross-thread data)
    })
}

/// Runs `f`, returning its result plus the peak *additional* bytes
/// allocated while it ran (0 when tracking is inactive). Single-threaded
/// accounting: concurrent allocations from other threads are attributed to
/// whatever measurement window is open.
pub fn measure_peak<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let baseline = live_bytes();
    reset_peak();
    let out = f();
    let peak = peak_bytes().saturating_sub(baseline);
    (out, peak)
}

#[cfg(test)]
mod tests {
    use super::*;

    // NOTE: these tests run under the default allocator (the tracking
    // allocator is only installed in bench binaries), so they validate the
    // graceful-degradation contract and the bookkeeping API shape.

    #[test]
    fn measure_returns_function_result() {
        let (value, peak) = measure_peak(|| 21 * 2);
        assert_eq!(value, 42);
        // Under the default allocator no bytes are tracked.
        let _ = peak;
    }

    #[test]
    fn counters_are_consistent() {
        reset_peak();
        assert!(peak_bytes() >= live_bytes().saturating_sub(1));
    }

    #[test]
    fn nested_measurements_do_not_panic() {
        let ((a, _), _) = measure_peak(|| measure_peak(|| vec![0u8; 1024].len()));
        assert_eq!(a, 1024);
    }

    #[test]
    fn detection_is_stable_and_matches_test_harness() {
        // cargo test links the default allocator, so detection must say
        // "not installed" — and repeat calls must agree.
        assert!(!tracking_installed());
        assert!(!tracking_installed());
    }
}
