//! Memory ceiling for the million-node tier, pinned by the
//! [`TrackingAllocator`] (integration tests are separate binaries, so the
//! `#[global_allocator]` choice is local to this file).
//!
//! Two ceilings, both against the documented per-shard budget
//! [`mcpb_im::shard::SHARD_PEAK_BUDGET_BYTES`] (also recorded in
//! `BENCH_large.json`):
//!
//! * the streamed compact build must peak within one budget *above* the
//!   finished graph — materializing the 16M-arc edge list (~192 MiB)
//!   would blow this immediately, so the bound is what "streamed" means;
//! * every sampling shard's scratch (reported through the `mcpb-trace`
//!   histograms by [`mcpb_im::shard`]) and the whole single-threaded
//!   sampling phase must stay under the budget.

use mcpb_im::shard::SHARD_PEAK_BUDGET_BYTES;
use mcpb_trace::alloc::{measure_peak, tracking_installed, TrackingAllocator};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

#[test]
fn million_node_build_and_sampling_stay_under_budget() {
    assert!(tracking_installed(), "tracking allocator must be linked in");
    let cfg = mcpb_graph::large_config("ba-1m").expect("ba-1m is in the catalog");

    let (g, build_peak) = measure_peak(|| cfg.build().expect("build ba-1m"));
    assert_eq!(g.num_nodes(), 1_000_000);
    assert!(
        build_peak <= g.memory_bytes() + SHARD_PEAK_BUDGET_BYTES,
        "streamed build peaked at {build_peak} bytes for a {} byte graph — \
         more than one shard budget ({SHARD_PEAK_BUDGET_BYTES}) of transient state",
        g.memory_bytes()
    );

    // Single lane + a clean trace window: the allocator peak below is the
    // sampling phase's whole footprint, and the histograms record each
    // shard's scratch exactly once per shard.
    mcpb_par::set_thread_override(Some(1));
    let was_enabled = mcpb_trace::is_enabled();
    mcpb_trace::set_enabled(true);
    mcpb_trace::reset();
    let seeds = [0u32, 3, 11, 42, 117];
    let (spreads, sampling_peak) = measure_peak(|| {
        let rr = mcpb_im::sample_collection(&g, 2_048, 131);
        let ic = mcpb_im::influence_mc(&g, &seeds, 256, 137);
        let lt = mcpb_im::influence_mc_lt(&g, &seeds, 8, 139);
        (rr.len(), ic, lt)
    });
    let summary = mcpb_trace::snapshot();
    mcpb_trace::set_enabled(was_enabled);
    mcpb_par::set_thread_override(None);

    assert_eq!(spreads.0, 2_048);
    assert!(spreads.1 > 0.0 && spreads.2 > 0.0);
    assert!(
        sampling_peak <= SHARD_PEAK_BUDGET_BYTES,
        "single-threaded sampling peaked at {sampling_peak} bytes, \
         budget is {SHARD_PEAK_BUDGET_BYTES}"
    );

    for name in ["im.rr_shard_peak_bytes", "im.mc_shard_peak_bytes"] {
        let h = summary
            .histograms
            .iter()
            .find(|h| h.name == name)
            .unwrap_or_else(|| panic!("{name} histogram missing"));
        assert!(h.count > 0, "{name} recorded no shards");
        assert!(
            h.max <= SHARD_PEAK_BUDGET_BYTES as f64,
            "{name} peaked at {} bytes, budget is {SHARD_PEAK_BUDGET_BYTES}",
            h.max
        );
    }
    let shards = |name: &str| {
        summary
            .counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    };
    assert!(shards("im.rr_shards") > 0, "RR sampling reported no shards");
    assert!(
        shards("im.mc_shards") > 0,
        "MC estimation reported no shards"
    );
}
