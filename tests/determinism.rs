//! Determinism contract: every component of the benchmark is ChaCha-seeded
//! and must reproduce bit-for-bit across runs — the property that makes the
//! regenerated tables citable.

use mcp_benchmark::prelude::*;

fn test_graph() -> graph::Graph {
    graph::weights::assign_weights(
        &graph::generators::barabasi_albert(200, 3, 11),
        WeightModel::WeightedCascade,
        0,
    )
}

#[test]
fn traditional_solvers_are_deterministic() {
    let g = test_graph();
    assert_eq!(
        mcp::LazyGreedy::run(&g, 10).seeds,
        mcp::LazyGreedy::run(&g, 10).seeds
    );
    assert_eq!(
        im::Imm::paper_default(5).run(&g, 8).0.seeds,
        im::Imm::paper_default(5).run(&g, 8).0.seeds
    );
    assert_eq!(
        im::Opim::paper_default(5).run(&g, 8).0.seeds,
        im::Opim::paper_default(5).run(&g, 8).0.seeds
    );
    assert_eq!(
        im::SimulatedAnnealing::with_seed(5).run(&g, 8).seeds,
        im::SimulatedAnnealing::with_seed(5).run(&g, 8).seeds
    );
}

#[test]
fn rr_sampling_is_deterministic_and_parallel_safe() {
    // Parallel sampling (mcpb-par) must still be order-deterministic.
    let g = test_graph();
    let a = im::sample_collection(&g, 5_000, 9);
    let b = im::sample_collection(&g, 5_000, 9);
    assert_eq!(a.sets(), b.sets());
}

#[test]
fn monte_carlo_is_deterministic() {
    let g = test_graph();
    let a = im::influence_mc(&g, &[0, 1, 2], 3_000, 13);
    let b = im::influence_mc(&g, &[0, 1, 2], 3_000, 13);
    assert_eq!(a, b);
    let c = im::influence_mc_lt(&g, &[0, 1, 2], 3_000, 13);
    let d = im::influence_mc_lt(&g, &[0, 1, 2], 3_000, 13);
    assert_eq!(c, d);
}

/// FNV-1a digest of everything a training run decides: each checkpoint's
/// epoch, validation score and loss bits, the recovery count, and the seed
/// set the trained model infers.
fn training_digest(report: &drl::TrainReport, seeds: &[graph::NodeId]) -> u64 {
    let mut bytes = Vec::new();
    for cp in &report.checkpoints {
        bytes.extend((cp.epoch as u64).to_le_bytes());
        bytes.extend(cp.validation_score.to_bits().to_le_bytes());
        bytes.extend(cp.loss.to_bits().to_le_bytes());
    }
    bytes.extend(report.recoveries.to_le_bytes());
    bytes.extend((seeds.len() as u64).to_le_bytes());
    for &s in seeds {
        bytes.extend(s.to_le_bytes());
    }
    mcpb_resilience::fnv1a64(&bytes)
}

/// A graph too small to train on: episodes drawn on it are skipped, and a
/// skipped episode must also skip its validation checkpoint.
fn too_small() -> graph::Graph {
    graph::Graph::from_edges(1, &[]).unwrap()
}

/// Golden pin: each DRL method trained at a tiny fixed config must
/// reproduce its digest bit for bit, at any thread count. Seven episodes
/// with `validate_every: 3` cover the periodic and the last-episode
/// checkpoint. A refactor of the training loops must leave every constant
/// unchanged; a change that moves results on purpose re-pins them in its
/// own reviewable hunk.
#[test]
fn deep_rl_training_is_deterministic() {
    let train = graph::generators::barabasi_albert(150, 3, 17);
    let im = |seed| {
        graph::weights::assign_weights(
            &graph::generators::barabasi_albert(40, 2, seed),
            WeightModel::Constant,
            0,
        )
    };
    let k = 5;
    let cases: Vec<(&str, u64, Box<dyn Fn() -> u64>)> = vec![
        (
            "S2V-DQN",
            0x4eeb_3be4_56df_f4e2,
            Box::new(|| {
                let mut model = drl::S2vDqn::new(drl::S2vDqnConfig {
                    episodes: 7,
                    train_subgraph_nodes: 20,
                    train_budget: 3,
                    validate_every: 3,
                    seed: 21,
                    ..drl::S2vDqnConfig::default()
                });
                let report = model.train(&train);
                training_digest(&report, &model.infer(&train, k))
            }),
        ),
        (
            // 60-node subgraphs push every update's gradient norm past
            // Adam's clip (5.0), and `clip_scale` sums squared gradients in
            // tape-leaf order: this row moves if S2V registers its
            // parameters in another order. The 20-node row above clips too
            // but happens not to move.
            "S2V-DQN (clipped)",
            0x7e09_b856_bc47_5a53,
            Box::new(|| {
                let mut model = drl::S2vDqn::new(drl::S2vDqnConfig {
                    episodes: 7,
                    train_subgraph_nodes: 60,
                    train_budget: 6,
                    validate_every: 3,
                    seed: 21,
                    ..drl::S2vDqnConfig::default()
                });
                let report = model.train(&train);
                training_digest(&report, &model.infer(&train, k))
            }),
        ),
        (
            "GCOMB",
            0xb10e_78af_d5bb_f453,
            Box::new(|| {
                let mut model = drl::Gcomb::new(drl::GcombConfig {
                    supervised_epochs: 10,
                    prob_greedy_runs: 3,
                    train_subgraph_nodes: 60,
                    noise_budgets: vec![2, 5],
                    rl_episodes: 7,
                    train_budget: 3,
                    validate_every: 3,
                    seed: 3,
                    ..drl::GcombConfig::default()
                });
                let report = model.train(&train);
                training_digest(&report, &model.infer(&train, k))
            }),
        ),
        (
            "RL4IM",
            0xade5_ec94_9fe2_6748,
            Box::new(|| {
                let pool = vec![im(1), too_small(), im(2), im(3)];
                let mut model = drl::Rl4Im::new(drl::Rl4ImConfig {
                    embed_dim: 8,
                    episodes: 7,
                    train_budget: 3,
                    eps_decay_steps: 30,
                    validate_every: 3,
                    task: drl::Task::Im { rr_sets: 200 },
                    seed: 5,
                    ..drl::Rl4ImConfig::default()
                });
                let report = model.train(&pool);
                training_digest(&report, &model.infer(&pool[0], k))
            }),
        ),
        (
            "Geometric-QN",
            0xc3df_b0af_138f_be3f,
            Box::new(|| {
                // Episode e trains on graph e % 4: episodes 3 and 7 land on
                // the too-small graph, so checkpoints 3 and 7 are skipped.
                let graphs = vec![im(4), im(5), too_small(), im(6)];
                let mut model = drl::GeometricQn::new(drl::GeometricQnConfig {
                    episodes: 7,
                    explore_steps: 4,
                    train_budget: 3,
                    validate_every: 3,
                    task: drl::Task::Im { rr_sets: 200 },
                    seed: 7,
                    ..drl::GeometricQnConfig::default()
                });
                let report = model.train(&graphs);
                training_digest(&report, &model.infer(&graphs[0], k))
            }),
        ),
        (
            "LeNSE",
            0x7968_6825_f39c_18f9,
            Box::new(|| {
                let mut model = drl::Lense::new(drl::LenseConfig {
                    subgraph_size: 20,
                    num_labeled: 6,
                    encoder_epochs: 10,
                    nav_episodes: 7,
                    nav_steps: 4,
                    train_budget: 3,
                    validate_every: 3,
                    seed: 13,
                    ..drl::LenseConfig::default()
                });
                let report = model.train(&train);
                training_digest(&report, &model.infer(&train, k))
            }),
        ),
    ];
    let mut wrong = Vec::new();
    for (method, pinned, run) in &cases {
        let got = run();
        if got != *pinned {
            wrong.push(format!("{method}: got {got:#018x}, pinned {pinned:#018x}"));
        }
    }
    assert!(
        wrong.is_empty(),
        "training digests moved:\n{}",
        wrong.join("\n")
    );
}

#[test]
fn catalog_and_weights_are_deterministic() {
    for name in ["BrightKite", "WikiTalk", "CondMat"] {
        let d = graph::catalog::by_name(name).unwrap();
        let a = d.load();
        let b = d.load();
        assert_eq!(a.edges().collect::<Vec<_>>(), b.edges().collect::<Vec<_>>());
    }
    let g = graph::generators::barabasi_albert(100, 2, 3);
    for model in WeightModel::all() {
        let a = graph::weights::assign_weights(&g, model, 7);
        let b = graph::weights::assign_weights(&g, model, 7);
        assert_eq!(
            a.edges().collect::<Vec<_>>(),
            b.edges().collect::<Vec<_>>(),
            "{model}"
        );
    }
}

#[test]
fn full_benchmark_records_reproduce() {
    use mcpb_bench::registry::McpMethodKind;
    let mut spec = BenchmarkSpec::quick_mcp(&["Damascus"], &[4]);
    spec.mcp_methods = vec![McpMethodKind::LazyGreedy, McpMethodKind::Gcomb];
    let a = run_benchmark(&spec);
    let b = run_benchmark(&spec);
    for (ra, rb) in a.records.iter().zip(&b.records) {
        assert_eq!(ra.method, rb.method);
        assert_eq!(ra.quality, rb.quality, "{}", ra.method);
        assert_eq!(ra.absolute, rb.absolute);
    }
}
