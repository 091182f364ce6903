//! Thread-count invariance: every parallel estimator in this crate must be
//! bit-identical at `MCPB_THREADS=1`, `2`, and `8`.
//!
//! Determinism is by construction, not by luck: each RR set / trial derives
//! its RNG from the item (or fixed-size chunk) index, and reductions fold
//! fixed-size chunk partials in chunk order — so the schedule the pool
//! happens to pick can never leak into a result. These tests pin that
//! contract with exact (`to_bits`) comparisons.

use mcpb_graph::generators::barabasi_albert;
use mcpb_graph::weights::{assign_weights, WeightModel};
use mcpb_im::lt::sample_collection_lt;
use mcpb_im::{influence_mc, influence_mc_lt, sample_collection};
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

fn ic_graph() -> mcpb_graph::Graph {
    assign_weights(
        &barabasi_albert(400, 3, 7),
        WeightModel::WeightedCascade,
        0xF00D,
    )
}

#[test]
fn rr_set_collections_are_bit_identical_across_thread_counts() {
    let _g = serial();
    let graph = ic_graph();
    let base = with_threads(1, || sample_collection(&graph, 3000, 42));
    for threads in [2, 8] {
        let par = with_threads(threads, || sample_collection(&graph, 3000, 42));
        assert_eq!(base.len(), par.len(), "at {threads} threads");
        assert_eq!(
            base.sets(),
            par.sets(),
            "RR sets diverged at {threads} threads"
        );
    }
}

#[test]
fn ic_spread_estimates_are_bit_identical_across_thread_counts() {
    let _g = serial();
    let graph = ic_graph();
    let seeds = [0u32, 7, 19, 123];
    let base = with_threads(1, || influence_mc(&graph, &seeds, 4000, 99));
    for threads in [2, 8] {
        let par = with_threads(threads, || influence_mc(&graph, &seeds, 4000, 99));
        assert_eq!(
            base.to_bits(),
            par.to_bits(),
            "IC estimate diverged at {threads} threads: {base} vs {par}"
        );
    }
}

#[test]
fn lt_spread_estimates_are_bit_identical_across_thread_counts() {
    let _g = serial();
    let graph = ic_graph();
    let seeds = [1u32, 5, 42];
    let base = with_threads(1, || influence_mc_lt(&graph, &seeds, 4000, 31));
    for threads in [2, 8] {
        let par = with_threads(threads, || influence_mc_lt(&graph, &seeds, 4000, 31));
        assert_eq!(
            base.to_bits(),
            par.to_bits(),
            "LT estimate diverged at {threads} threads: {base} vs {par}"
        );
    }
}

#[test]
fn lt_rr_collections_are_bit_identical_across_thread_counts() {
    let _g = serial();
    let graph = ic_graph();
    let base = with_threads(1, || sample_collection_lt(&graph, 2000, 17));
    for threads in [2, 8] {
        let par = with_threads(threads, || sample_collection_lt(&graph, 2000, 17));
        assert_eq!(
            base.sets(),
            par.sets(),
            "LT RR sets diverged at {threads} threads"
        );
    }
}

#[test]
fn incremental_extension_matches_one_shot_sampling_at_any_thread_count() {
    let _g = serial();
    let graph = ic_graph();
    // extend_to must append index-seeded sets, so growing 1000 -> 3000 at 8
    // threads equals sampling 3000 outright at 1 thread.
    let one_shot = with_threads(1, || sample_collection(&graph, 3000, 5));
    let grown = with_threads(8, || {
        let mut coll = sample_collection(&graph, 1000, 5);
        coll.extend_to(&graph, 3000, 5);
        coll
    });
    assert_eq!(one_shot.sets(), grown.sets());
}

/// The arc-scan work counters are sums of per-set and per-trial counts, so
/// they are identical at any width too.
#[test]
fn arc_scan_counters_are_identical_across_thread_counts() {
    let _g = serial();
    let graph = ic_graph();
    let counts = |threads| {
        with_threads(threads, || {
            mcpb_trace::reset();
            mcpb_trace::set_enabled(true);
            let rr = sample_collection(&graph, 3000, 42);
            let ic_rr = mcpb_trace::snapshot().counter("im.rr_arcs_scanned");
            sample_collection_lt(&graph, 2000, 17);
            influence_mc(&graph, &[0, 7, 19, 123], 1000, 99);
            influence_mc_lt(&graph, &[1, 5, 42], 1000, 31);
            mcpb_trace::set_enabled(false);
            let all = mcpb_trace::snapshot();
            (
                rr,
                ic_rr,
                all.counter("im.rr_arcs_scanned"),
                all.counter("im.mc_arcs_scanned"),
            )
        })
    };
    let (rr, ic_rr, rr_arcs, mc_arcs) = counts(1);
    // An IC RR set scans every in-arc of each of its members once.
    let members: u64 = rr
        .sets()
        .iter()
        .flatten()
        .map(|&v| graph.in_degree(v) as u64)
        .sum();
    assert_eq!(ic_rr, Some(members));
    assert!(rr_arcs > ic_rr, "LT RR sets scanned no arc");
    assert!(mc_arcs > Some(0), "Monte Carlo scanned no arc");
    for threads in [2, 8] {
        let (_, i, r, m) = counts(threads);
        assert_eq!((i, r, m), (ic_rr, rr_arcs, mc_arcs), "at {threads} threads");
    }
}
