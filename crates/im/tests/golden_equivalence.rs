//! Golden equivalence: the arena/scratch-based hot paths must reproduce the
//! pre-PR implementations in `mcpb_im::reference` bit-for-bit — same RR
//! sets in the same order, same index rows, same greedy selections, and
//! `f64::to_bits`-identical spread estimates — at 1, 2, and 8 threads.
//!
//! Both sides run on `mcpb-par` but split the work differently (fresh
//! buffers per task in the references, per-lane scratch and shard-sized
//! chunks in the optimized paths), so agreement across thread overrides
//! also re-checks that neither schedule leaks into a result.

use mcpb_graph::generators::barabasi_albert;
use mcpb_graph::weights::{assign_weights, WeightModel};
use mcpb_im::{influence_mc, influence_mc_lt, reference, sample_collection};
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

fn wc_graph() -> mcpb_graph::Graph {
    assign_weights(
        &barabasi_albert(400, 3, 0xFEED),
        WeightModel::WeightedCascade,
        3,
    )
}

#[test]
fn arena_rr_collection_matches_nested_vec_reference() {
    let _g = serial();
    let graph = wc_graph();
    let expected = reference::sample_collection(&graph, 2500, 42);
    for threads in [1usize, 2, 8] {
        let arena = with_threads(threads, || sample_collection(&graph, 2500, 42));
        assert_eq!(arena.len(), expected.len(), "at {threads} threads");
        // Same sets, same order, same element order within each set.
        for (i, set) in expected.sets().iter().enumerate() {
            assert_eq!(
                arena.set(i),
                set.as_slice(),
                "RR set {i} diverged at {threads} threads"
            );
        }
        // Same per-node membership rows (the reference builds them in set-id
        // order, which is ascending — exactly the arena's contract).
        for v in 0..graph.num_nodes() as u32 {
            assert_eq!(
                arena.sets_containing(v),
                expected.sets_containing(v),
                "index row of node {v} diverged at {threads} threads"
            );
        }
        // Same greedy selection and coverage on top.
        assert_eq!(
            arena.greedy_max_coverage(20),
            expected.greedy_max_coverage(20),
            "greedy diverged at {threads} threads"
        );
        let probe = [0u32, 5, 77];
        assert_eq!(arena.coverage(&probe), expected.coverage(&probe));
    }
}

#[test]
fn incremental_growth_matches_reference_one_shot() {
    let _g = serial();
    let graph = wc_graph();
    let expected = reference::sample_collection(&graph, 1800, 7);
    let mut grown = mcpb_im::RrCollection::new(graph.num_nodes());
    for target in [300usize, 900, 1800] {
        grown.extend_to(&graph, target, 7);
    }
    assert_eq!(grown.len(), expected.len());
    for (i, set) in expected.sets().iter().enumerate() {
        assert_eq!(grown.set(i), set.as_slice(), "RR set {i}");
    }
}

#[test]
fn scratch_ic_spread_matches_allocating_reference() {
    let _g = serial();
    let graph = wc_graph();
    let seeds = [0u32, 9, 33, 210];
    let expected = reference::influence_mc(&graph, &seeds, 4000, 99);
    for threads in [1usize, 2, 8] {
        let got = with_threads(threads, || influence_mc(&graph, &seeds, 4000, 99));
        assert_eq!(
            got.to_bits(),
            expected.to_bits(),
            "IC spread diverged at {threads} threads: {got} vs {expected}"
        );
    }
}

#[test]
fn scratch_lt_spread_matches_allocating_reference() {
    let _g = serial();
    let graph = assign_weights(&barabasi_albert(350, 3, 0xAB), WeightModel::TriValency, 11);
    let seeds = [1u32, 40, 222];
    let expected = reference::influence_mc_lt(&graph, &seeds, 3000, 5);
    for threads in [1usize, 2, 8] {
        let got = with_threads(threads, || influence_mc_lt(&graph, &seeds, 3000, 5));
        assert_eq!(
            got.to_bits(),
            expected.to_bits(),
            "LT spread diverged at {threads} threads: {got} vs {expected}"
        );
    }
}

#[test]
fn single_trial_cascades_match_references() {
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    let graph = wc_graph();
    let seeds = [3u32, 17];
    for trial in 0..50u64 {
        let mut a = ChaCha8Rng::seed_from_u64(trial);
        let mut b = ChaCha8Rng::seed_from_u64(trial);
        assert_eq!(
            mcpb_im::simulate_ic(&graph, &seeds, &mut a),
            {
                // Reference IC is simulate_ic_into with fresh buffers; the
                // optimized path reuses per-lane scratch. Same RNG stream.
                let mut visited = vec![0u32; graph.num_nodes()];
                let mut frontier = Vec::new();
                mcpb_im::cascade::simulate_ic_into(
                    &graph,
                    &seeds,
                    &mut b,
                    &mut visited,
                    1,
                    &mut frontier,
                )
            },
            "IC trial {trial}"
        );
        let mut c = ChaCha8Rng::seed_from_u64(trial ^ 0x55);
        let mut d = ChaCha8Rng::seed_from_u64(trial ^ 0x55);
        assert_eq!(
            mcpb_im::simulate_lt(&graph, &seeds, &mut c),
            reference::simulate_lt(&graph, &seeds, &mut d),
            "LT trial {trial}"
        );
    }
}
