//! The §5.1 question, interactively: *can you tell whether a test graph
//! matches the training distribution before running the model?*
//!
//! Probes a pair of graphs with every similarity signal the paper
//! examines — cheap topology statistics, then the expensive trio
//! (community structure, WL kernel, PageRank profiles) — and times each
//! against an OPIM query, reproducing Tab. 6's punchline that the useful
//! metrics cost more than just answering the query.
//!
//! ```sh
//! cargo run --release --example distribution_probe
//! ```

use mcp_benchmark::prelude::*;
use mcpb_graph::louvain::{community_profile_distance, louvain};
use mcpb_graph::pagerank::{pagerank, pagerank_profile_distance};
use mcpb_graph::wl::wl_kernel;
use std::time::Instant;

fn main() {
    // "Training" graph: a power-law social stand-in.
    let train = graph::generators::barabasi_albert(2_000, 3, 1);
    // Candidate A: same family, different seed. Candidate B: small world.
    let same = graph::generators::barabasi_albert(2_000, 3, 2);
    let different = graph::generators::watts_strogatz(2_000, 3, 0.05, 3);

    println!("probe: is the test graph 'the same distribution' as training?\n");
    for (name, g) in [("same-family", &same), ("different-family", &different)] {
        println!("--- candidate: {name} ---");
        let s_train = graph::stats::graph_stats(&train, 16, 0);
        let s_g = graph::stats::graph_stats(g, 16, 0);
        println!(
            "  cheap stats   density {:.2} vs {:.2}   clustering {:.3} vs {:.3}",
            s_g.density,
            s_train.density,
            s_g.clustering_coefficient,
            s_train.clustering_coefficient
        );

        let t = Instant::now();
        let p1 = louvain(&train, 4);
        let p2 = louvain(g, 4);
        let community = community_profile_distance(&p1, &p2, 8);
        let community_time = t.elapsed();

        let t = Instant::now();
        let wl = wl_kernel(&train, g, 3);
        let wl_time = t.elapsed();

        let t = Instant::now();
        let pr1 = pagerank(&train);
        let pr2 = pagerank(g);
        let pr = pagerank_profile_distance(&pr1, &pr2, 64);
        let pr_time = t.elapsed();

        println!("  community distance {community:.3}  ({community_time:.2?})");
        println!("  WL kernel          {wl:.3}  ({wl_time:.2?})");
        println!("  pagerank distance  {pr:.4}  ({pr_time:.2?})");
    }

    // The Tab. 6 punchline: one OPIM query for comparison.
    let weighted = graph::weights::assign_weights(&same, WeightModel::WeightedCascade, 0);
    let t = Instant::now();
    let (sol, _) = im::Opim::paper_default(0).run(&weighted, 50);
    println!(
        "\nOPIM query (k=50) answered in {:.2?} with {} seeds —\n\
         when checking similarity costs more than this, just run the query.",
        t.elapsed(),
        sol.seeds.len()
    );
}
