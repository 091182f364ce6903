//! Scale invariance for the sharded `large`-tier consumers.
//!
//! The tentpole contract: degree-aware sharding ([`mcpb_im::shard`]) may
//! pick any chunk width, and the pool may run any thread count, without
//! moving a single random draw. These tests pin that against the frozen
//! single-threaded references in [`mcpb_im::reference`] — which predate
//! the sharding layer — with exact (`to_bits` / set-by-set) comparisons, on
//! a mid-size graph built by the `large` tier's streamed path. They also pin
//! that a graph's backing never matters: the same graph owned in memory
//! and mmap-loaded from the disk cache gives bit-identical results through
//! the samplers, the estimators and the ordinary solver APIs. Together that
//! is what makes the 1M-node tier's journals comparable to mid-size golden
//! results.

use mcpb_graph::{diskcache, CompactWeights, Graph, LargeConfig, StreamFamily, StreamSpec};
use mcpb_im::{
    influence_mc, influence_mc_lt, reference, sample_collection, ImSolution, ImSolver, Imm, Opim,
};
use mcpb_mcp::{LazyGreedy, McpSolver};
use mcpb_par::set_thread_override;
use std::sync::{Mutex, MutexGuard};

/// The thread override is process-global; tests serialize around it.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    set_thread_override(Some(threads));
    let out = f();
    set_thread_override(None);
    out
}

/// A 10K-node BA tier config under Weighted Cascade weights.
fn config() -> LargeConfig {
    LargeConfig {
        name: "si-test",
        spec: StreamSpec {
            family: StreamFamily::BarabasiAlbert { m_attach: 4 },
            n: 10_000,
            seed: 17,
        },
        weights: CompactWeights::WeightedCascade,
    }
}

/// The config's graph, built edge-block by edge-block into owned arrays.
fn graph() -> Graph {
    config().build().expect("streamed build")
}

/// The same graph twice: owned from the streamed build, and loaded back
/// from a disk-cache file (mmap-backed where the platform allows). The
/// mapping outlives the file, so the file is removed before returning.
fn owned_and_mapped() -> (Graph, Graph) {
    let cfg = config();
    let owned = graph();
    let dir = std::env::temp_dir().join(format!("mcpb-si-mapped-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = cfg.cache_path(&dir);
    diskcache::save(&owned, cfg.config_hash(), &path).expect("save");
    let mapped = diskcache::load(&path, cfg.config_hash()).expect("load");
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
    assert!(!owned.is_mapped());
    assert_eq!(mapped.is_mapped(), cfg!(unix));
    (owned, mapped)
}

#[test]
fn sharded_rr_sampling_matches_reference_at_any_thread_count() {
    let _g = serial();
    let graph = graph();
    let base = reference::sample_collection(&graph, 3_000, 42);
    for threads in [1, 2, 8] {
        let sharded = with_threads(threads, || sample_collection(&graph, 3_000, 42));
        assert_eq!(base.len(), sharded.len(), "at {threads} threads");
        for (i, expected) in base.sets().iter().enumerate() {
            assert_eq!(
                expected.as_slice(),
                sharded.set(i),
                "RR set {i} diverged from the reference at {threads} threads"
            );
        }
    }
}

#[test]
fn sharded_ic_mc_matches_reference_at_any_thread_count() {
    let _g = serial();
    let graph = graph();
    let seeds = [0u32, 7, 19, 123, 4_567];
    let base = reference::influence_mc(&graph, &seeds, 2_048, 99);
    for threads in [1, 2, 8] {
        let sharded = with_threads(threads, || influence_mc(&graph, &seeds, 2_048, 99));
        assert_eq!(
            base.to_bits(),
            sharded.to_bits(),
            "IC spread diverged from the reference at {threads} threads"
        );
    }
}

#[test]
fn sharded_lt_mc_matches_reference_at_any_thread_count() {
    let _g = serial();
    let graph = graph();
    let seeds = [1u32, 8, 21, 377];
    let base = reference::influence_mc_lt(&graph, &seeds, 512, 7);
    for threads in [1, 2, 8] {
        let sharded = with_threads(threads, || influence_mc_lt(&graph, &seeds, 512, 7));
        assert_eq!(
            base.to_bits(),
            sharded.to_bits(),
            "LT spread diverged from the reference at {threads} threads"
        );
    }
}

#[test]
fn owned_and_mapped_graphs_give_identical_results() {
    let _g = serial();
    let (owned, mapped) = owned_and_mapped();

    let rr_owned = sample_collection(&owned, 3_000, 42);
    let rr_mapped = sample_collection(&mapped, 3_000, 42);
    assert_eq!(rr_owned.sets(), rr_mapped.sets(), "RR sets");
    assert_eq!(
        rr_owned.greedy_max_coverage(20),
        rr_mapped.greedy_max_coverage(20),
        "RR greedy"
    );

    let seeds = [0u32, 7, 19, 123, 4_567];
    assert_eq!(
        influence_mc(&owned, &seeds, 1_024, 99).to_bits(),
        influence_mc(&mapped, &seeds, 1_024, 99).to_bits(),
        "IC spread"
    );
    assert_eq!(
        influence_mc_lt(&owned, &seeds, 256, 7).to_bits(),
        influence_mc_lt(&mapped, &seeds, 256, 7).to_bits(),
        "LT spread"
    );

    let same = |label: &str, a: ImSolution, b: ImSolution| {
        assert_eq!(a.seeds, b.seeds, "{label} seeds");
        assert_eq!(
            a.spread_estimate.to_bits(),
            b.spread_estimate.to_bits(),
            "{label} spread estimate"
        );
    };
    let imm = Imm::paper_default(3);
    same(
        "IMM",
        imm.clone().solve(&owned, 10),
        imm.clone().solve(&mapped, 10),
    );
    let opim = Opim::paper_default(5);
    same(
        "OPIM",
        opim.clone().solve(&owned, 10),
        opim.clone().solve(&mapped, 10),
    );

    let a = LazyGreedy.solve(&owned, 25);
    let b = LazyGreedy.solve(&mapped, 25);
    assert_eq!(a.seeds, b.seeds, "LazyGreedy seeds");
    assert_eq!(a.covered, b.covered, "LazyGreedy coverage");
}

#[test]
fn shard_widths_are_thread_invariant() {
    let _g = serial();
    let graph = graph();
    // The RR chunk picker is a pure function of the graph; a
    // thread-dependent width would change how sets are grouped into shards.
    // (MC shards are one `MC_BASE` block, a constant.)
    let rr = with_threads(1, || mcpb_im::shard::rr_chunk(&graph));
    for threads in [2, 8] {
        assert_eq!(
            rr,
            with_threads(threads, || mcpb_im::shard::rr_chunk(&graph))
        );
    }
}
