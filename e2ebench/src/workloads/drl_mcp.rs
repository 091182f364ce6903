//! `drl-mcp`: S2V-DQN and GCOMB are trained on BrightKite, then answer
//! MCP queries on Gowalla and Pokec, scored by the common `McpScorer`.
//!
//! As in the paper, the model is trained once on a fixed graph: BrightKite
//! and the training seed do not depend on the run seed, which picks the
//! query graphs' generator seeds.

use super::{derive, Bench, Options, Size};
use crate::check;
use crate::record::{Phase, Recorder};
use mcpb_bench::{prepare_mcp, McpMethodKind, McpScorer, Scale};
use mcpb_graph::catalog::{self, Dataset};
use mcpb_graph::Graph;

/// Seed of DRL training.
const TRAIN_SEED: u64 = 42;

/// Solver, its training metric and its inference metric.
const SOLVERS: [(McpMethodKind, &str, &str); 2] = [
    (
        McpMethodKind::S2vDqn,
        "drl.train_ms.s2v_dqn",
        "drl.infer_ms.s2v_dqn",
    ),
    (
        McpMethodKind::Gcomb,
        "drl.train_ms.gcomb",
        "drl.infer_ms.gcomb",
    ),
];

pub(super) struct DrlMcp {
    train: Dataset,
    tests: Vec<Dataset>,
    scale: Scale,
    budgets: Vec<usize>,
}

pub(super) struct State {
    train: Graph,
    tests: Vec<(&'static str, Graph)>,
}

fn dataset(name: &str) -> Dataset {
    catalog::by_name(name).expect("invariant: the benchmark names catalog datasets")
}

/// A catalog dataset whose generator seed comes from the run seed.
fn seeded(name: &str, seed: u64) -> Dataset {
    let mut d = dataset(name);
    d.seed = derive(seed, d.seed);
    d
}

impl DrlMcp {
    pub(super) fn new(opts: &Options) -> Self {
        let (train, tests, scale, budgets) = match opts.size {
            Size::Full => (
                "BrightKite",
                &["Gowalla", "Pokec"][..],
                Scale::Extended,
                vec![10, 50, 100],
            ),
            Size::Tiny => ("Damascus", &["Israel"][..], Scale::Quick, vec![5]),
        };
        DrlMcp {
            train: dataset(train),
            tests: tests.iter().map(|n| seeded(n, opts.seed)).collect(),
            scale,
            budgets,
        }
    }
}

impl Bench for DrlMcp {
    type State = State;

    /// One cycle takes most of a run's seconds, and its time varies most
    /// from cycle to cycle: about a third of it is system time spent on
    /// page faults. Five cycles keep the median off the slow ones.
    const MIN_CYCLES: usize = 5;

    fn setup(&self, rec: &mut Recorder) -> Result<State, String> {
        let train = rec.time("graph.load_ms", Phase::Setup, || self.train.load());
        let tests = self
            .tests
            .iter()
            .map(|d| (d.name, rec.time("graph.load_ms", Phase::Setup, || d.load())))
            .collect();
        Ok(State { train, tests })
    }

    fn cycle(&self, st: &mut State, rec: &mut Recorder) {
        for (kind, train_metric, infer_metric) in SOLVERS {
            let mut solver = rec.time(train_metric, Phase::Train, || {
                prepare_mcp(kind, &st.train, self.scale, TRAIN_SEED)
            });
            for (name, g) in &st.tests {
                for &k in &self.budgets {
                    let what = || format!("{} on {name} at k={k}", kind.name());
                    let Some(sol) =
                        rec.attempt(infer_metric, Phase::Query, what, || solver.solve(g, k))
                    else {
                        continue;
                    };
                    rec.check(what, check::seed_set(&sol.seeds, g.num_nodes(), k));
                    let q = rec.time("mcp.score_ms", Phase::Score, || {
                        McpScorer.score(g, &sol.seeds)
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
