//! Per-span heap peaks under the real [`TrackingAllocator`] (integration
//! tests are separate binaries, so the `#[global_allocator]` is local to
//! this file).
//!
//! A span's heap peak is its own: memory a finished span freed must not
//! reach the next span's peak, a child's peak must reach its parent's, and
//! after every window has closed the running peak must still be the
//! largest level the process reached. One test function drives all of it,
//! because the collector and the allocator counters are process-global.

use mcpb_trace::alloc::{
    live_bytes, measure_peak, peak_bytes, reset_peak, tracking_installed, TrackingAllocator,
};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

const MIB: usize = 1 << 20;
/// Room for the harness's own allocations on other threads.
const SLACK: usize = 256 << 10;

/// Allocates and touches `bytes`, keeping the buffer live until dropped.
fn hold(bytes: usize) -> Vec<u8> {
    std::hint::black_box(vec![1u8; bytes])
}

fn assert_near(what: &str, got: usize, want: usize) {
    assert!(
        got + SLACK >= want && got <= want + SLACK,
        "{what}: {got} bytes, want {want} ± {SLACK}"
    );
}

#[test]
fn sequential_and_nested_windows_report_their_own_peaks() {
    assert!(tracking_installed(), "tracking allocator must be linked in");
    mcpb_trace::set_enabled(true);
    mcpb_trace::reset();
    reset_peak();
    let start = live_bytes();

    {
        let _first = mcpb_trace::span("first");
        drop(hold(16 * MIB));
    }
    {
        let _second = mcpb_trace::span("second");
        let kept = hold(2 * MIB);
        {
            let _inner = mcpb_trace::span("inner");
            drop(hold(4 * MIB));
        }
        {
            let _later = mcpb_trace::span("later");
            drop(hold(MIB));
        }
        drop(kept);
    }
    let ((_, inner), outer) = measure_peak(|| {
        drop(hold(8 * MIB));
        measure_peak(|| drop(hold(MIB)))
    });
    let running = peak_bytes();
    mcpb_trace::set_enabled(false);
    let summary = mcpb_trace::snapshot();
    mcpb_trace::reset();

    let span_peak = |path: &str| {
        summary
            .span(path)
            .unwrap_or_else(|| panic!("span {path} missing"))
            .heap_peak_bytes as usize
    };
    assert_near("first", span_peak("first"), 16 * MIB);
    // `first` freed its 16 MiB before `second` opened.
    assert_near("second", span_peak("second"), 6 * MIB);
    assert_near("second/inner", span_peak("second/inner"), 4 * MIB);
    // `later` opened after `inner` freed its 4 MiB; 2 MiB were live.
    assert_near("second/later", span_peak("second/later"), MIB);
    assert_near("nested measure_peak", inner, MIB);
    assert_near("outer measure_peak", outer, 8 * MIB);
    assert!(
        running + SLACK >= start + 16 * MIB,
        "running peak {running} lost the 16 MiB high-water mark above {start}"
    );
}
