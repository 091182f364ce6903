//! Memory ceiling for the million-node tier, pinned by the
//! [`TrackingAllocator`] (integration tests are separate binaries, so the
//! `#[global_allocator]` choice is local to this file).
//!
//! Two ceilings against the documented per-shard budget
//! [`mcpb_im::shard::SHARD_PEAK_BUDGET_BYTES`] (which `mcpbench
//! large-smoke` also checks, as its journal's `within_budget`):
//!
//! * the streamed compact build must peak within one budget *above* the
//!   finished graph — materializing the 16M-arc edge list (~192 MiB)
//!   would blow this immediately, so the bound is what "streamed" means;
//! * every sampling shard's scratch (reported through the `mcpb-trace`
//!   histograms by [`mcpb_im::shard`]) and the whole single-threaded
//!   sampling phase must stay under the budget.
//!
//! And two for the cache round trip the tier runs before sampling:
//!
//! * `diskcache::save` writes from the graph's own arrays, so it may
//!   allocate at most 1 MiB, however large the graph;
//! * `validate()` on the mmap-loaded graph holds only its counting
//!   transpose, `8m + 4(n + 1)` bytes, so it may peak at `8m + 4n` plus
//!   1 MiB.

use mcpb_graph::diskcache;
use mcpb_im::shard::SHARD_PEAK_BUDGET_BYTES;
use mcpb_trace::alloc::{measure_peak, tracking_installed, TrackingAllocator};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

const MIB: usize = 1 << 20;

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

    let dir = std::env::temp_dir().join(format!("mcpb-large-memory-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create cache dir");
    let path = cfg.cache_path(&dir);
    let (saved, save_peak) = measure_peak(|| diskcache::save(&g, cfg.config_hash(), &path));
    let mapped = saved.and_then(|()| diskcache::load(&path, cfg.config_hash()));
    // A mapping outlives its directory entry, so the 252 MiB file goes
    // before any assertion below can fail and leave it behind.
    let _ = std::fs::remove_dir_all(&dir);
    let mapped = mapped.expect("save and load ba-1m");
    assert!(
        save_peak <= MIB,
        "diskcache::save allocated {save_peak} bytes; it must stream from the graph's arrays"
    );
    let (n, m) = (mapped.num_nodes(), mapped.num_edges());
    let (valid, validate_peak) = measure_peak(|| mapped.validate());
    valid.expect("mapped ba-1m validates");
    assert!(
        validate_peak <= 8 * m + 4 * n + MIB,
        "validate() on the mapped graph peaked at {validate_peak} bytes; \
         the counting transpose needs 8m + 4(n + 1) = {}",
        8 * m + 4 * (n + 1)
    );
    drop(mapped);

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
