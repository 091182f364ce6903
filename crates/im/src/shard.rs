//! Degree-aware shard planning and per-shard peak-memory accounting for the
//! two hot sampling consumers (RR-set sampling, IC/LT Monte-Carlo).
//!
//! ## Determinism contract
//!
//! Shard (chunk) widths here are **pure functions of the graph** — keyed
//! off the graph's average degree, never the thread count — and the consumers
//! keep the PR-5 rules (randomness derived from global item/base-chunk
//! index, results concatenated/summed in fixed chunk order). Together that
//! makes every result bit-identical at any thread count *and* at any shard
//! width: RR sampling seeds per global set index, so any partition yields
//! the same arena; MC seeds per fixed 64-trial base block ([`MC_BASE`]) and
//! shard widths are multiples of it, so widening a shard never moves a
//! random draw; the per-shard `u64` spread sums combine by integer
//! addition, which is associative.
//!
//! ## Memory accounting
//!
//! Each shard reports its scratch footprint (computed from buffer
//! capacities — exact for the `Vec`-backed scratch, and thread-count
//! independent per shard, unlike a process-global allocator peak) through
//! [`mcpb_trace`] histograms (`im.rr_shard_peak_bytes`,
//! `im.mc_shard_peak_bytes`), which `mcpb-obs` renders and
//! `BENCH_large.json` records next to the documented ceiling
//! [`SHARD_PEAK_BUDGET_BYTES`]. The memory-ceiling test in
//! `crates/im/tests/large_memory.rs` pins the budget with the real
//! [`mcpb_trace::alloc`] TrackingAllocator.

use mcpb_graph::Graph;

/// Documented per-shard peak-memory budget for `large`-tier sampling: the
/// scratch one worker lane may hold while sampling one shard (visited
/// stamps, frontier, LT state, plus the shard's output buffers). 64 MiB
/// comfortably holds the ~17 MiB a 1M-node LT shard needs while staying far
/// below any per-core share of commodity memory; the `large_memory` test
/// and `BENCH_large.json` both pin it.
pub const SHARD_PEAK_BUDGET_BYTES: usize = 64 << 20;

/// MC base block: the RNG-grouping width of the spread estimators. One
/// ChaCha8 stream covers one base block of trials; shard widths are always
/// multiples of this, so sharding can never regroup random draws. Equals
/// [`mcpb_par::DEFAULT_CHUNK`] and must never change with thread count.
pub const MC_BASE: usize = mcpb_par::DEFAULT_CHUNK;

/// Per-shard work target (in expected arc touches). One shard should cost
/// roughly this much so that cheap items get wide shards (less scheduling
/// and scratch-warmup overhead) while expensive items keep narrow ones
/// (load balance). Pure tuning constant — results are shard-width
/// invariant.
const TARGET_SHARD_COST: f64 = 4096.0;

/// Shard width (in RR sets) for sampling over `g`: scales inversely with
/// average degree, always a multiple of [`mcpb_par::DEFAULT_CHUNK`], and a
/// pure function of the graph.
pub fn rr_chunk(g: &Graph) -> usize {
    mcpb_par::cost_scaled_chunk(
        mcpb_par::DEFAULT_CHUNK,
        avg_degree(g).max(1.0),
        TARGET_SHARD_COST,
    )
}

/// Shard width (in MC trials) for spread estimation over `g`: a multiple of
/// [`MC_BASE`] so base-block RNG grouping is preserved, scaled inversely
/// with average degree, and a pure function of the graph.
pub fn mc_chunk(g: &Graph) -> usize {
    mcpb_par::cost_scaled_chunk(MC_BASE, avg_degree(g).max(1.0), TARGET_SHARD_COST)
}

/// Mean out-degree (equals mean in-degree): `arcs / nodes`, and `0.0` on an
/// empty graph.
fn avg_degree(g: &Graph) -> f64 {
    let n = g.num_nodes();
    if n == 0 {
        0.0
    } else {
        g.num_edges() as f64 / n as f64
    }
}

/// Records one RR-sampling shard's peak scratch footprint.
pub fn record_rr_shard(bytes: usize) {
    mcpb_trace::counter_add("im.rr_shards", 1);
    mcpb_trace::observe("im.rr_shard_peak_bytes", bytes as f64);
}

/// Records one MC-simulation shard's peak scratch footprint.
pub fn record_mc_shard(bytes: usize) {
    mcpb_trace::counter_add("im.mc_shards", 1);
    mcpb_trace::observe("im.mc_shard_peak_bytes", bytes as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcpb_graph::generators;

    #[test]
    fn chunks_are_multiples_of_their_base() {
        let g = generators::barabasi_albert(500, 3, 1);
        assert_eq!(rr_chunk(&g) % mcpb_par::DEFAULT_CHUNK, 0);
        assert_eq!(mc_chunk(&g) % MC_BASE, 0);
        assert!(rr_chunk(&g) >= mcpb_par::DEFAULT_CHUNK);
    }

    #[test]
    fn sparser_graphs_get_wider_shards() {
        let sparse = generators::erdos_renyi(2_000, 2_000, 3);
        let dense = generators::erdos_renyi(2_000, 40_000, 3);
        assert!(rr_chunk(&sparse) >= rr_chunk(&dense));
        assert!(mc_chunk(&sparse) >= mc_chunk(&dense));
    }

    #[test]
    fn chunk_ignores_thread_count() {
        let g = generators::barabasi_albert(300, 3, 2);
        let mut widths = Vec::new();
        for t in [1, 2, 8] {
            mcpb_par::set_thread_override(Some(t));
            widths.push((rr_chunk(&g), mc_chunk(&g)));
        }
        mcpb_par::set_thread_override(None);
        assert_eq!(widths[0], widths[1]);
        assert_eq!(widths[1], widths[2]);
    }
}
