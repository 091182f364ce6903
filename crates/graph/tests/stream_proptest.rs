//! Property tests for the streamed `large`-tier generators: node/edge
//! counts agree across every replay surface, the streamed build upholds the
//! sorted-CSR invariant, degree statistics land where the family's math
//! says they must, replays are bit-deterministic, and ids that cannot fit
//! the u32 space are rejected up front (never silently truncated).

use mcpb_graph::{CompactWeights, Graph, StreamFamily, StreamSpec};
use proptest::prelude::*;

fn ba(m_attach: usize, n: usize, seed: u64) -> StreamSpec {
    StreamSpec {
        family: StreamFamily::BarabasiAlbert { m_attach },
        n,
        seed,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `for_each_edge` and `for_each_edge_block` are two views of one
    /// stream; the streamed build's arc count is exactly twice the
    /// undirected edge count.
    #[test]
    fn every_replay_surface_agrees_on_counts(
        n in 50usize..1200,
        m_attach in 1usize..5,
        seed in 0u64..500,
    ) {
        let spec = ba(m_attach, n, seed);
        let mut counted = 0u64;
        spec.for_each_edge(|_, _| counted += 1).unwrap();
        let mut blocked = 0u64;
        spec.for_each_edge_block(|block| blocked += block.len() as u64).unwrap();
        prop_assert_eq!(counted, blocked);

        let g = Graph::build_streamed(&spec, CompactWeights::Uniform).unwrap();
        prop_assert_eq!(g.num_nodes(), n);
        prop_assert_eq!(g.num_edges() as u64, 2 * counted);
    }

    /// The cache-blocked scatter must leave every adjacency row sorted and
    /// in bounds — the invariant `Graph`'s binary searches and the on-disk
    /// format both rely on. `validate` re-checks this; the explicit loop
    /// keeps the failure message local to the offending row.
    #[test]
    fn compact_rows_are_sorted_and_in_bounds(
        n in 50usize..1000,
        m_attach in 1usize..5,
        seed in 0u64..500,
    ) {
        let spec = ba(m_attach, n, seed);
        let g = Graph::build_streamed(&spec, CompactWeights::WeightedCascade).unwrap();
        g.validate().unwrap();
        for v in 0..n as u32 {
            let row = g.out_neighbors(v);
            prop_assert!(row.windows(2).all(|w| w[0] <= w[1]), "row {} unsorted", v);
            prop_assert!(row.iter().all(|&u| (u as usize) < n), "row {} out of bounds", v);
            prop_assert_eq!(row.len(), g.out_weights(v).len());
        }
    }

    /// Family-level degree statistics: BA emits exactly the clique plus
    /// `m_attach` edges per later node (so the mean degree is pinned), and
    /// the degree sum always equals the arc count.
    #[test]
    fn degree_statistics_match_the_family(
        n in 100usize..1500,
        m_attach in 1usize..5,
        seed in 0u64..500,
    ) {
        let spec = ba(m_attach, n, seed);
        let g = Graph::build_streamed(&spec, CompactWeights::Uniform).unwrap();
        let m0 = m_attach + 1;
        let expected_edges = (m0 * (m0 - 1) / 2 + (n - m0) * m_attach) as u64;
        prop_assert_eq!(g.num_edges() as u64, 2 * expected_edges);
        let degree_sum: u64 = (0..n as u32).map(|v| g.out_degree(v) as u64).sum();
        prop_assert_eq!(degree_sum, g.num_edges() as u64);
        // Preferential attachment: the clique-era nodes must collectively
        // out-attract a same-size cohort of latecomers.
        let early: u64 = (0..m0 as u32).map(|v| g.out_degree(v) as u64).sum();
        let late: u64 = ((n - m0) as u32..n as u32).map(|v| g.out_degree(v) as u64).sum();
        prop_assert!(early >= late, "no preferential attachment: {} < {}", early, late);
    }

    /// Two replays of one spec are bit-identical end to end: same blocks,
    /// same arrays, same weights.
    #[test]
    fn replays_are_deterministic(
        n in 50usize..800,
        m_attach in 1usize..5,
        seed in 0u64..500,
    ) {
        let spec = ba(m_attach, n, seed);
        let collect = || {
            let mut edges = Vec::new();
            spec.for_each_edge(|u, v| edges.push((u, v))).unwrap();
            edges
        };
        prop_assert_eq!(collect(), collect());
        let a = Graph::build_streamed(&spec, CompactWeights::WeightedCascade).unwrap();
        let b = Graph::build_streamed(&spec, CompactWeights::WeightedCascade).unwrap();
        for v in 0..n as u32 {
            prop_assert_eq!(a.out_neighbors(v), b.out_neighbors(v));
            prop_assert_eq!(a.out_weights(v), b.out_weights(v));
        }
    }
}

/// Ids past the u32 boundary: any node count above `u32::MAX` fails the
/// typed `node_count` guard before a single edge is drawn — never a
/// wrapped id. (`u32::MAX` itself is in range; generating that stream is a
/// release-scale job, so the boundary's accept side is pinned by the
/// `convert` unit tests instead.)
#[test]
fn u32_boundary_ids_are_rejected_up_front() {
    for n in [u32::MAX as usize + 1, u32::MAX as usize + 2, usize::MAX / 2] {
        let spec = ba(1, n, 1);
        assert!(spec.for_each_edge(|_, _| ()).is_err(), "n = {n} accepted");
        assert!(
            Graph::build_streamed(&spec, CompactWeights::Uniform).is_err(),
            "build accepted n = {n}"
        );
    }
}
