//! `im-solve`: IMM and OPIM (`paper_default`) on Pokec and Orkut under
//! weighted-cascade weights, scored by one common `ImScorer` per graph.
//!
//! The graphs and the solvers' seeds are fixed; the run seed drives the
//! common scorer's RR sampling. IMM and OPIM grow their RR-set count in
//! doubling rounds, so another solver seed can double their work: fixing
//! it keeps runs with different run seeds comparable.

use super::{derive, Bench, Options, Size};
use crate::check;
use crate::record::{Phase, Recorder};
use mcpb_bench::{prepare_im, ImMethodKind, ImScorer, Scale};
use mcpb_graph::catalog::{self, Dataset};
use mcpb_graph::weights::assign_weights;
use mcpb_graph::{Graph, WeightModel};

const SOLVERS: [(ImMethodKind, &str); 2] = [
    (ImMethodKind::Imm, "im.solve_ms.imm"),
    (ImMethodKind::Opim, "im.solve_ms.opim"),
];

const WEIGHTS: WeightModel = WeightModel::WeightedCascade;

/// Seed of the weights and of both solvers.
const FIXED_SEED: u64 = 42;

pub(super) struct ImSolve {
    datasets: Vec<Dataset>,
    budgets: Vec<usize>,
    scorer_rr_sets: usize,
    scorer_seed: u64,
}

pub(super) struct State {
    graphs: Vec<(&'static str, Graph, ImScorer)>,
}

impl ImSolve {
    pub(super) fn new(opts: &Options) -> Self {
        let (names, budgets, scorer_rr_sets) = match opts.size {
            Size::Full => (&["Pokec", "Orkut"][..], vec![10, 50, 100, 200], 20_000),
            Size::Tiny => (&["Damascus"][..], vec![5], 500),
        };
        ImSolve {
            datasets: names
                .iter()
                .map(|n| {
                    catalog::by_name(n).expect("invariant: the benchmark names catalog datasets")
                })
                .collect(),
            budgets,
            scorer_rr_sets,
            scorer_seed: derive(opts.seed, 2),
        }
    }
}

impl Bench for ImSolve {
    type State = State;

    fn setup(&self, rec: &mut Recorder) -> Result<State, String> {
        let graphs = self
            .datasets
            .iter()
            .map(|d| {
                let g = rec.time("graph.load_ms", Phase::Setup, || d.load());
                let w = rec.time("graph.weights_ms", Phase::Setup, || {
                    assign_weights(&g, WEIGHTS, FIXED_SEED)
                });
                let scorer = rec.time("bench.scorer_ms", Phase::Setup, || {
                    ImScorer::new(&w, self.scorer_rr_sets, self.scorer_seed)
                });
                (d.name, w, scorer)
            })
            .collect();
        Ok(State { graphs })
    }

    fn cycle(&self, st: &mut State, rec: &mut Recorder) {
        for (kind, metric) in SOLVERS {
            let mut solver = rec.time("im.prepare_ms", Phase::Train, || {
                prepare_im(kind, &st.graphs[0].1, WEIGHTS, Scale::Quick, FIXED_SEED)
            });
            for (name, g, scorer) in &st.graphs {
                for &k in &self.budgets {
                    let what = || format!("{} on {name} at k={k}", kind.name());
                    let Some(sol) = rec.attempt(metric, Phase::Query, what, || solver.solve(g, k))
                    else {
                        continue;
                    };
                    rec.check(what, check::seed_set(&sol.seeds, g.num_nodes(), k));
                    let q = rec.time("im.score_ms", Phase::Score, || {
                        scorer.normalized(&sol.seeds)
                    });
                    rec.check(what, check::unit_share(q));
                    rec.quality.push(q);
                    rec.digest.str(kind.name());
                    rec.digest.str(name);
                    rec.digest.u64(k as u64);
                    rec.digest.seeds(&sol.seeds);
                }
            }
        }
    }
}
