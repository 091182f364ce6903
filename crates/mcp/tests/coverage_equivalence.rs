//! Golden equivalence: the word-level popcount [`CoverageOracle`] must
//! report exactly the gains and covered counts of the pre-PR per-node walk
//! ([`mcpb_mcp::reference::CoverageOracle`]) over arbitrary seed sequences.
//! Coverage is integral, so "equivalence" here is plain equality on every
//! query — no tolerance anywhere.

use mcpb_graph::{generators, Edge, Graph};
use mcpb_mcp::reference::CoverageOracle as WalkOracle;
use mcpb_mcp::CoverageOracle;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn lockstep(g: &Graph, seeds: &[u32]) {
    let n = g.num_nodes() as u32;
    let mut fast = CoverageOracle::new(g);
    let mut slow = WalkOracle::new(g);
    for (step, &s) in seeds.iter().enumerate() {
        // Every node's marginal gain must agree before and after each add.
        for v in 0..n {
            assert_eq!(
                fast.marginal_gain(v),
                slow.marginal_gain(v),
                "gain({v}) diverged at step {step}"
            );
        }
        assert_eq!(fast.add_seed(s), slow.add_seed(s), "add_seed({s}) gain");
        assert_eq!(
            fast.covered_count(),
            slow.covered_count(),
            "covered_count after step {step}"
        );
        assert_eq!(fast.seeds(), slow.seeds(), "seed lists after step {step}");
    }
}

#[test]
fn word_level_oracle_matches_walk_on_ba_graph() {
    let g = generators::barabasi_albert(500, 3, 0xC0FE);
    lockstep(&g, &[0, 499, 17, 17, 250, 3]);
}

#[test]
fn word_level_oracle_matches_walk_on_random_seed_sequences() {
    let g = generators::erdos_renyi(300, 1800, 0xBEE);
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    for round in 0..5 {
        let seeds: Vec<u32> = (0..12).map(|_| rng.gen_range(0..300)).collect();
        let mut fast = CoverageOracle::new(&g);
        let mut slow = WalkOracle::new(&g);
        for &s in &seeds {
            assert_eq!(fast.add_seed(s), slow.add_seed(s), "round {round}");
        }
        assert_eq!(fast.covered_count(), slow.covered_count(), "round {round}");
    }
}

#[test]
fn word_boundary_nodes_count_once() {
    // Nodes 63/64/127/128 sit on u64 word boundaries; a star graph centred
    // there exercises carry across words and duplicate marking (the centre
    // also appears as every spoke's neighbor).
    let mut edges = Vec::new();
    for hub in [63u32, 64, 127, 128] {
        for v in 0..200u32 {
            if v != hub && v % 5 == 0 {
                edges.push(Edge::new(hub, v, 1.0));
            }
        }
    }
    let g = Graph::from_edges(200, &edges).expect("valid edges");
    lockstep(&g, &[63, 64, 127, 128, 0]);
}
