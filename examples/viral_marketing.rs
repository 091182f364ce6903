//! Viral marketing scenario (the paper's motivating IM application): pick
//! `k` seed users on a social network so a campaign under the Independent
//! Cascade model reaches as many users as possible, and compare every
//! solver family — theoretically sound (IMM, OPIM), heuristic (Degree /
//! Single Discount), and Deep-RL (RL4IM) — with a *common* RIS scorer, the
//! protocol of Fig. 2.
//!
//! ```sh
//! cargo run --release --example viral_marketing
//! ```

use mcp_benchmark::prelude::*;
use mcpb_im::solver::ImSolver;
use std::time::Instant;

fn main() {
    // A social-network stand-in under the Weighted Cascade model — the
    // setting where the paper found the largest gap in favour of the
    // traditional algorithms.
    let dataset = graph::catalog::by_name("Gowalla").expect("catalog dataset");
    let g = graph::weights::assign_weights(&dataset.load(), WeightModel::WeightedCascade, 0);
    let k = 25;
    println!(
        "Campaign on {} ({} users, {} follow edges), budget {k} seeds\n",
        dataset.name,
        g.num_nodes(),
        g.num_edges()
    );

    // Common scorer: every seed set is judged by the same RR-set estimator.
    let scorer = bench::ImScorer::new(&g, 20_000, 99);

    // Train RL4IM on synthetic power-law graphs, per its paper's protocol.
    println!("training RL4IM on synthetic power-law graphs...");
    let pool = drl::synthetic_training_pool(8, 60, WeightModel::WeightedCascade, 1);
    let mut rl4im = drl::Rl4Im::new(drl::Rl4ImConfig {
        episodes: 40,
        train_budget: 5,
        task: drl::Task::Im { rr_sets: 500 },
        seed: 1,
        ..drl::Rl4ImConfig::default()
    });
    rl4im.train(&pool);

    let mut solvers: Vec<(&str, Box<dyn ImSolver>)> = vec![
        ("IMM", Box::new(im::Imm::paper_default(7))),
        ("OPIM", Box::new(im::Opim::paper_default(7))),
        ("DDiscount", Box::new(im::DegreeDiscount)),
        ("SDiscount", Box::new(im::SingleDiscount)),
        ("RL4IM", Box::new(rl4im)),
    ];

    println!("{:<12} {:>12} {:>12}", "method", "spread", "runtime");
    println!("{}", "-".repeat(38));
    let mut rows: Vec<(&str, f64, f64)> = Vec::new();
    for (label, solver) in solvers.iter_mut() {
        let t = Instant::now();
        let sol = solver.solve(&g, k);
        let secs = t.elapsed().as_secs_f64();
        let spread = scorer.spread(&sol.seeds);
        println!("{:<12} {:>12.1} {:>11.3}s", label, spread, secs);
        rows.push((label, spread, secs));
    }

    let best = rows
        .iter()
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
        .expect("non-empty");
    println!(
        "\nBest spread: {} ({:.1}). On WC-weighted graphs the paper finds\n\
         IMM/OPIM on top with the discount heuristics close behind at a\n\
         fraction of the cost; when the spread barely grows with the budget\n\
         (hub-dominated instances like this one) the methods bunch together —\n\
         the \"atypical case\" discussed in §4.3.",
        best.0, best.1
    );
}
