//! Alloc-regression gate: after a warmup pass, the IC and LT cascade inner
//! loops must not touch the heap at all. This binary installs the real
//! [`TrackingAllocator`] (integration tests are separate binaries, so the
//! `#[global_allocator]` choice is local to this file) and asserts a zero
//! delta of `alloc_calls()` across thousands of warmed simulations.
//!
//! Everything lives in ONE `#[test]` — the counter is process-global, and a
//! sibling test allocating concurrently would produce false positives.

use mcpb_graph::generators::barabasi_albert;
use mcpb_graph::weights::{assign_weights, WeightModel};
use mcpb_im::cascade::simulate_ic_into;
use mcpb_im::lt::simulate_lt_into;
use mcpb_im::CascadeScratch;
use mcpb_trace::alloc::{alloc_calls, tracking_installed, TrackingAllocator};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

#[test]
fn warmed_cascade_inner_loops_do_not_allocate() {
    assert!(
        tracking_installed(),
        "this test binary installs the tracking allocator; detection must see it"
    );

    let graph = assign_weights(
        &barabasi_albert(800, 4, 0xA110C),
        WeightModel::WeightedCascade,
        1,
    );
    let n = graph.num_nodes();
    let seeds = [0u32, 13, 250, 700];
    let mut rng = ChaCha8Rng::seed_from_u64(77);

    // --- IC: caller-held scratch, warmed by one pass. ---
    let mut visited = vec![0u32; n];
    let mut frontier = Vec::with_capacity(n);
    let mut stamp = 0u32;
    let warm =
        |rng: &mut ChaCha8Rng, visited: &mut [u32], frontier: &mut Vec<u32>, stamp: &mut u32| {
            *stamp += 1;
            simulate_ic_into(&graph, &seeds, rng, visited, *stamp, frontier, &mut 0)
        };
    warm(&mut rng, &mut visited, &mut frontier, &mut stamp);

    let before = alloc_calls();
    let mut activated = 0usize;
    for _ in 0..2000 {
        activated += warm(&mut rng, &mut visited, &mut frontier, &mut stamp);
    }
    let ic_delta = alloc_calls() - before;
    assert!(activated > 0, "cascades must actually run");
    assert_eq!(
        ic_delta, 0,
        "IC inner loop allocated {ic_delta} times after warmup"
    );

    // --- LT: the shared CascadeScratch, warmed the same way. ---
    let mut scratch = CascadeScratch::default();
    simulate_lt_into(&graph, &seeds, &mut rng, &mut scratch, &mut 0);

    let before = alloc_calls();
    let mut activated = 0usize;
    for _ in 0..2000 {
        activated += simulate_lt_into(&graph, &seeds, &mut rng, &mut scratch, &mut 0);
    }
    let lt_delta = alloc_calls() - before;
    assert!(activated > 0, "LT cascades must actually run");
    assert_eq!(
        lt_delta, 0,
        "LT inner loop allocated {lt_delta} times after warmup"
    );
}
