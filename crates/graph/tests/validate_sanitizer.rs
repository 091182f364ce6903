//! Property tests for the CSR invariant checker: every graph the
//! generators and the dataset catalog can produce must pass
//! [`Graph::validate`], and the undirected generators must additionally
//! pass [`Graph::validate_undirected`]. This is the contract that lets
//! `debug_validated()` run unconditionally at construction sites.

use mcpb_graph::catalog;
use mcpb_graph::generators;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn erdos_renyi_always_validates(n in 2usize..80, m in 0usize..200, seed in 0u64..1000) {
        let g = generators::erdos_renyi(n, m, seed);
        g.validate().unwrap();
        g.validate_undirected().unwrap();
    }

    #[test]
    fn barabasi_albert_always_validates(n in 3usize..120, m in 1usize..4, seed in 0u64..1000) {
        let g = generators::barabasi_albert(n, m, seed);
        g.validate().unwrap();
        g.validate_undirected().unwrap();
    }

    #[test]
    fn watts_strogatz_always_validates(
        k in 1usize..4,
        extra in 0usize..40,
        beta in 0.0f64..1.0,
        seed in 0u64..1000,
    ) {
        let n = 2 * k + 1 + extra;
        let g = generators::watts_strogatz(n, k, beta, seed);
        g.validate().unwrap();
    }

    #[test]
    fn sbm_always_validates(
        n in 4usize..60,
        blocks in 1usize..5,
        p_in in 0.0f64..0.5,
        p_out in 0.0f64..0.2,
        seed in 0u64..1000,
    ) {
        let g = generators::stochastic_block_model(n, blocks, p_in, p_out, seed);
        g.validate().unwrap();
        g.validate_undirected().unwrap();
    }

    #[test]
    fn hub_graph_always_validates(
        hubs in 1usize..4,
        extra in 2usize..60,
        p in 0.0f64..1.0,
        seed in 0u64..1000,
    ) {
        let g = generators::hub_graph(hubs + extra, hubs, p, seed);
        g.validate().unwrap();
    }
}

#[test]
fn every_catalog_dataset_validates() {
    for d in catalog::catalog() {
        let g = d.load();
        g.validate()
            .unwrap_or_else(|e| panic!("{} fails validation: {e}", d.name));
    }
}
