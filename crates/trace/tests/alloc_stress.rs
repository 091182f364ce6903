//! Regression test for the `reset_peak` race.
//!
//! The old implementation was `PEAK.store(LIVE.load())`: a concurrent
//! allocation between the load and the store could publish a higher peak
//! via `fetch_max` and have it erased — and if that allocation stayed
//! live, the tracker was left with `PEAK < LIVE`, an impossible state that
//! made `measure_peak` report negative (saturated-to-zero) deltas.
//!
//! The test drives [`TrackingAllocator`]'s methods directly (it need not be
//! the global allocator for its bookkeeping to run) from several allocator
//! threads while a dedicated thread hammers `reset_peak`, then checks the
//! invariant `peak_bytes() >= live_bytes()` holds once the dust settles.
//! A barrier holds the workers until the resetter has reset once, so the
//! resetter runs however the threads are scheduled.

use mcpb_trace::alloc::{live_bytes, peak_bytes, reset_peak, TrackingAllocator};
use std::alloc::{GlobalAlloc, Layout};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

const THREADS: usize = 8;
const ROUNDS: usize = 400;
const BLOCK: usize = 4096;

#[test]
fn reset_peak_never_leaves_peak_below_live() {
    let stop = AtomicBool::new(false);
    let first_reset = Barrier::new(THREADS + 1);
    let layout = Layout::from_size_align(BLOCK, 8).expect("valid layout");

    std::thread::scope(|scope| {
        let mut workers = Vec::with_capacity(THREADS);
        for _ in 0..THREADS {
            workers.push(scope.spawn(|| {
                first_reset.wait();
                let mut held: Vec<*mut u8> = Vec::with_capacity(ROUNDS);
                for round in 0..ROUNDS {
                    // SAFETY: alloc/dealloc are paired with the same layout.
                    unsafe {
                        let ptr = TrackingAllocator.alloc(layout);
                        assert!(!ptr.is_null());
                        held.push(ptr);
                        if round % 3 == 0 {
                            if let Some(old) = held.pop() {
                                TrackingAllocator.dealloc(old, layout);
                            }
                        }
                    }
                }
                // SAFETY: every held pointer came from the paired alloc.
                unsafe {
                    for ptr in held {
                        TrackingAllocator.dealloc(ptr, layout);
                    }
                }
            }));
        }
        let resetter = scope.spawn(|| {
            let mut resets = 0u64;
            while !stop.load(Ordering::Relaxed) {
                reset_peak();
                resets += 1;
                // The reset itself must restore the invariant before it
                // returns. Read live first: any allocation raising LIVE
                // before this read has either already published its peak
                // (visible to the later peak read) or is one of at most
                // THREADS in-flight `fetch_add`/`fetch_max` pairs.
                let live = live_bytes();
                let peak = peak_bytes();
                assert!(
                    peak + THREADS * BLOCK >= live,
                    "reset left peak below live: peak={peak} live={live} (reset #{resets})"
                );
                if resets == 1 {
                    first_reset.wait();
                }
                std::hint::spin_loop();
            }
            resets
        });
        for worker in workers {
            worker.join().expect("allocator thread panicked");
        }
        stop.store(true, Ordering::Relaxed);
        let resets = resetter.join().expect("resetter thread panicked");
        assert!(resets > 0, "resetter never ran");
    });

    // All test allocations were released; after a final reset the peak must
    // dominate the (possibly nonzero, from other process machinery) live
    // level — the exact state the old racy store could violate.
    reset_peak();
    assert!(
        peak_bytes() >= live_bytes(),
        "invariant violated after quiesce: peak={} live={}",
        peak_bytes(),
        live_bytes()
    );
}
