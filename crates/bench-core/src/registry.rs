//! The solver registry of the benchmarking framework (Fig. 2): uniform
//! construction, training, and invocation of every MCP and IM method.

use mcpb_drl::prelude::*;
use mcpb_graph::{Graph, WeightModel};
use mcpb_im::prelude::*;
use mcpb_mcp::prelude::*;
use serde::{Deserialize, Serialize};

/// How much compute to spend preparing (training) Deep-RL solvers.
/// `Quick` keeps experiment drivers runnable inside tests; `Full` is the
/// bench-harness setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scale {
    /// Seconds-scale training, for tests and smoke runs.
    Quick,
    /// Minutes-scale training, for the bench harness.
    Full,
    /// Heavily extended training, used where the *ratio* of training time
    /// to query time is itself the measurement (Tab. 2). The paper trains
    /// for hours on a GPU; this is the closest CPU-scale analogue.
    Extended,
}

impl Scale {
    fn mult(self) -> usize {
        match self {
            Scale::Quick => 1,
            Scale::Full => 4,
            Scale::Extended => 40,
        }
    }
}

/// Every MCP method of §4.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum McpMethodKind {
    /// Normal Greedy.
    NormalGreedy,
    /// Lazy Greedy (CELF).
    LazyGreedy,
    /// Top-degree baseline.
    TopDegree,
    /// Uniform-random baseline.
    Random,
    /// S2V-DQN (Deep-RL).
    S2vDqn,
    /// GCOMB (Deep-RL).
    Gcomb,
    /// LeNSE (Deep-RL).
    Lense,
}

impl McpMethodKind {
    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            McpMethodKind::NormalGreedy => "NormalGreedy",
            McpMethodKind::LazyGreedy => "LazyGreedy",
            McpMethodKind::TopDegree => "TopDegree",
            McpMethodKind::Random => "Random",
            McpMethodKind::S2vDqn => "S2V-DQN",
            McpMethodKind::Gcomb => "GCOMB",
            McpMethodKind::Lense => "LeNSE",
        }
    }

    /// Whether this is one of the Deep-RL methods (needs training).
    pub fn is_deep_rl(self) -> bool {
        matches!(
            self,
            McpMethodKind::S2vDqn | McpMethodKind::Gcomb | McpMethodKind::Lense
        )
    }

    /// The methods Fig. 4 compares.
    pub fn benchmark_set() -> Vec<McpMethodKind> {
        vec![
            McpMethodKind::NormalGreedy,
            McpMethodKind::LazyGreedy,
            McpMethodKind::S2vDqn,
            McpMethodKind::Gcomb,
            McpMethodKind::Lense,
        ]
    }
}

/// Every IM method of §4.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ImMethodKind {
    /// IMM (Tang et al. 2015).
    Imm,
    /// OPIM-C (Tang et al. 2018).
    Opim,
    /// Degree Discount heuristic.
    DDiscount,
    /// Single Discount heuristic.
    SDiscount,
    /// CELF greedy with RIS oracle.
    CelfRis,
    /// CHANGE sampling baseline.
    Change,
    /// GCOMB (Deep-RL).
    Gcomb,
    /// RL4IM (Deep-RL).
    Rl4Im,
    /// Geometric-QN (Deep-RL).
    GeometricQn,
    /// LeNSE (Deep-RL).
    Lense,
    /// TIM+ (Tang et al. 2014) — extension beyond the paper's lineup.
    TimPlus,
    /// CELF++ (Goyal et al. 2011) — extension beyond the paper's lineup.
    CelfPlusPlus,
    /// Simulated annealing (Jiang et al. 2011) — extension.
    SimulatedAnnealing,
}

impl ImMethodKind {
    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            ImMethodKind::Imm => "IMM",
            ImMethodKind::Opim => "OPIM",
            ImMethodKind::DDiscount => "DDiscount",
            ImMethodKind::SDiscount => "SDiscount",
            ImMethodKind::CelfRis => "CELF-RIS",
            ImMethodKind::Change => "CHANGE",
            ImMethodKind::Gcomb => "GCOMB",
            ImMethodKind::Rl4Im => "RL4IM",
            ImMethodKind::GeometricQn => "Geometric-QN",
            ImMethodKind::Lense => "LeNSE",
            ImMethodKind::TimPlus => "TIM+",
            ImMethodKind::CelfPlusPlus => "CELF++",
            ImMethodKind::SimulatedAnnealing => "SA",
        }
    }

    /// Whether this method requires training.
    pub fn is_deep_rl(self) -> bool {
        matches!(
            self,
            ImMethodKind::Gcomb
                | ImMethodKind::Rl4Im
                | ImMethodKind::GeometricQn
                | ImMethodKind::Lense
        )
    }

    /// The methods Fig. 5/6 compare (Geometric-QN excluded for
    /// scalability, as in the paper).
    pub fn benchmark_set() -> Vec<ImMethodKind> {
        vec![
            ImMethodKind::Imm,
            ImMethodKind::Opim,
            ImMethodKind::DDiscount,
            ImMethodKind::SDiscount,
            ImMethodKind::Gcomb,
            ImMethodKind::Rl4Im,
            ImMethodKind::Lense,
        ]
    }
}

/// Counts trainings that hit their divergence-recovery budget on the trace
/// collector, so a sweep summary can surface "this model is partial"
/// without failing the preparation (the best checkpoint is still usable).
fn note_train_health(name: &str, report: &Option<TrainReport>) {
    if !mcpb_trace::is_enabled() {
        return;
    }
    if let Some(r) = report {
        if r.error.is_some() {
            mcpb_trace::counter_add(&format!("train.diverged/{name}"), 1);
        }
        if r.recoveries > 0 {
            mcpb_trace::counter_add(&format!("train.recovered_runs/{name}"), 1);
        }
    }
}

/// GCOMB's registry config at scale multiplier `m`; MCP and IM differ
/// only in `task`.
fn gcomb_config(m: usize, seed: u64, task: Task) -> GcombConfig {
    GcombConfig {
        supervised_epochs: 30 * m,
        prob_greedy_runs: 4 + m,
        train_subgraph_nodes: 100,
        rl_episodes: 10 * m,
        train_budget: 5,
        validate_every: 5 * m,
        seed,
        task,
        ..GcombConfig::default()
    }
}

/// LeNSE's registry config at scale multiplier `m`; MCP and IM differ
/// only in `task`.
fn lense_config(m: usize, seed: u64, task: Task) -> LenseConfig {
    LenseConfig {
        subgraph_size: 40,
        num_labeled: 8 * m,
        encoder_epochs: 30 * m,
        nav_episodes: 6 * m,
        nav_steps: 6,
        train_budget: 5,
        validate_every: 3 * m,
        seed,
        task,
        ..LenseConfig::default()
    }
}

/// A prepared (trained where applicable) MCP solver.
pub struct PreparedMcpSolver {
    /// Method identity.
    pub kind: McpMethodKind,
    solver: Box<dyn McpSolver + Send>,
    /// Training report for Deep-RL methods (None for traditional solvers).
    pub train_report: Option<TrainReport>,
}

impl PreparedMcpSolver {
    /// Solver display name.
    pub fn name(&self) -> &'static str {
        self.kind.name()
    }

    /// Answers one MCP query.
    pub fn solve(&mut self, graph: &Graph, k: usize) -> McpSolution {
        self.solver.solve(graph, k)
    }
}

/// Prepares an MCP solver: Deep-RL methods are trained on `train_graph`
/// (the paper trains MCP models on BrightKite).
pub fn prepare_mcp(
    kind: McpMethodKind,
    train_graph: &Graph,
    scale: Scale,
    seed: u64,
) -> PreparedMcpSolver {
    let m = scale.mult();
    let (solver, train_report): (Box<dyn McpSolver + Send>, Option<TrainReport>) = match kind {
        McpMethodKind::NormalGreedy => (Box::new(NormalGreedy), None),
        McpMethodKind::LazyGreedy => (Box::new(LazyGreedy), None),
        McpMethodKind::TopDegree => (Box::new(TopDegree), None),
        McpMethodKind::Random => (Box::new(RandomSeeds::new(seed)), None),
        McpMethodKind::S2vDqn => {
            let mut model = S2vDqn::new(S2vDqnConfig {
                episodes: 20 * m,
                train_subgraph_nodes: 40,
                train_budget: 5,
                validate_every: 5 * m,
                eps_decay_steps: 40 * m,
                seed,
                task: Task::Mcp,
                ..S2vDqnConfig::default()
            });
            let report = model.train(train_graph);
            (Box::new(model), Some(report))
        }
        McpMethodKind::Gcomb => {
            let mut model = Gcomb::new(gcomb_config(m, seed, Task::Mcp));
            let report = model.train(train_graph);
            (Box::new(model), Some(report))
        }
        McpMethodKind::Lense => {
            let mut model = Lense::new(lense_config(m, seed, Task::Mcp));
            let report = model.train(train_graph);
            (Box::new(model), Some(report))
        }
    };
    note_train_health(kind.name(), &train_report);
    PreparedMcpSolver {
        kind,
        solver,
        train_report,
    }
}

/// A prepared (trained where applicable) IM solver.
pub struct PreparedImSolver {
    /// Method identity.
    pub kind: ImMethodKind,
    solver: Box<dyn ImSolver + Send>,
    /// Training report for Deep-RL methods.
    pub train_report: Option<TrainReport>,
}

impl PreparedImSolver {
    /// Solver display name.
    pub fn name(&self) -> &'static str {
        self.kind.name()
    }

    /// Answers one IM query on a probability-weighted graph.
    pub fn solve(&mut self, graph: &Graph, k: usize) -> ImSolution {
        self.solver.solve(graph, k)
    }
}

/// Prepares an IM solver. Deep-RL methods train on `train_graph` (the
/// paper's protocol: GCOMB/LeNSE on a Youtube subgraph, RL4IM on synthetic
/// power-law graphs, Geometric-QN on small datasets). `weight_model` drives
/// RL4IM's synthetic pool.
pub fn prepare_im(
    kind: ImMethodKind,
    train_graph: &Graph,
    weight_model: WeightModel,
    scale: Scale,
    seed: u64,
) -> PreparedImSolver {
    let m = scale.mult();
    let rr_task = Task::Im { rr_sets: 1_000 };
    let (solver, train_report): (Box<dyn ImSolver + Send>, Option<TrainReport>) = match kind {
        ImMethodKind::Imm => (Box::new(Imm::paper_default(seed)), None),
        ImMethodKind::Opim => (Box::new(Opim::paper_default(seed)), None),
        ImMethodKind::DDiscount => (Box::new(DegreeDiscount), None),
        ImMethodKind::SDiscount => (Box::new(SingleDiscount), None),
        ImMethodKind::CelfRis => (Box::new(CelfGreedy::ris(5_000, seed)), None),
        ImMethodKind::Change => (Box::new(Change::new(seed)), None),
        ImMethodKind::TimPlus => (Box::new(TimPlus::with_seed(seed)), None),
        ImMethodKind::CelfPlusPlus => (Box::new(CelfPlusPlus::new(5_000, seed)), None),
        ImMethodKind::SimulatedAnnealing => (Box::new(SimulatedAnnealing::with_seed(seed)), None),
        ImMethodKind::Gcomb => {
            let mut model = Gcomb::new(gcomb_config(m, seed, rr_task));
            let report = model.train(train_graph);
            (Box::new(model), Some(report))
        }
        ImMethodKind::Rl4Im => {
            let mut model = Rl4Im::new(Rl4ImConfig {
                episodes: 25 * m,
                train_budget: 5,
                batch_size: 8,
                eps_decay_steps: 50 * m,
                validate_every: 10 * m,
                task: rr_task,
                seed,
                ..Rl4ImConfig::default()
            });
            let pool = synthetic_training_pool(6 + 2 * m, 60, weight_model, seed);
            let report = model.train(&pool);
            (Box::new(model), Some(report))
        }
        ImMethodKind::GeometricQn => {
            let mut model = GeometricQn::new(GeometricQnConfig {
                episodes: 8 * m,
                explore_steps: 8,
                train_budget: 4,
                validate_every: 4 * m,
                task: rr_task,
                seed,
                ..GeometricQnConfig::default()
            });
            let report = model.train(std::slice::from_ref(train_graph));
            (Box::new(model), Some(report))
        }
        ImMethodKind::Lense => {
            let mut model = Lense::new(lense_config(m, seed, rr_task));
            let report = model.train(train_graph);
            (Box::new(model), Some(report))
        }
    };
    note_train_health(kind.name(), &train_report);
    PreparedImSolver {
        kind,
        solver,
        train_report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcpb_graph::generators;
    use mcpb_graph::weights::assign_weights;

    /// Appends one method's name and seeds to the bytes a registry pin
    /// hashes, with unit separators so no two rows can run together.
    fn fold_row(bytes: &mut Vec<u8>, name: &str, seeds: &[mcpb_graph::NodeId]) {
        bytes.extend_from_slice(name.as_bytes());
        bytes.push(0x1f);
        for s in seeds {
            bytes.extend_from_slice(&s.to_le_bytes());
        }
        bytes.push(0x1e);
    }

    /// Also pins the seeds every method answers with, so the config
    /// literals `prepare_mcp` feeds to sweep, serve and e2ebench cannot
    /// drift unnoticed (`tests/determinism.rs` builds its own configs).
    #[test]
    fn every_mcp_method_prepares_and_solves() {
        let train = generators::barabasi_albert(150, 3, 1);
        let test = generators::barabasi_albert(120, 3, 2);
        let mut pin = Vec::new();
        for kind in [
            McpMethodKind::NormalGreedy,
            McpMethodKind::LazyGreedy,
            McpMethodKind::TopDegree,
            McpMethodKind::Random,
            McpMethodKind::S2vDqn,
            McpMethodKind::Gcomb,
            McpMethodKind::Lense,
        ] {
            let mut solver = prepare_mcp(kind, &train, Scale::Quick, 3);
            assert_eq!(solver.kind.is_deep_rl(), solver.train_report.is_some());
            let sol = solver.solve(&test, 4);
            assert!(
                !sol.seeds.is_empty() && sol.seeds.len() <= 4,
                "{}: {:?}",
                kind.name(),
                sol.seeds
            );
            fold_row(&mut pin, kind.name(), &sol.seeds);
        }
        let digest = mcpb_resilience::fnv1a64(&pin);
        assert_eq!(
            digest, 0x06d4_17af_02ca_ecc5,
            "MCP registry pin moved: {digest:#018x}"
        );
    }

    /// Pins the IM registry's answers the same way as the MCP test above.
    #[test]
    fn every_im_method_prepares_and_solves() {
        let train = assign_weights(
            &generators::barabasi_albert(150, 3, 4),
            WeightModel::Constant,
            0,
        );
        let test = assign_weights(
            &generators::barabasi_albert(120, 3, 5),
            WeightModel::Constant,
            0,
        );
        let mut pin = Vec::new();
        for kind in [
            ImMethodKind::Imm,
            ImMethodKind::Opim,
            ImMethodKind::DDiscount,
            ImMethodKind::SDiscount,
            ImMethodKind::CelfRis,
            ImMethodKind::Change,
            ImMethodKind::Gcomb,
            ImMethodKind::Rl4Im,
            ImMethodKind::GeometricQn,
            ImMethodKind::Lense,
        ] {
            let mut solver = prepare_im(kind, &train, WeightModel::Constant, Scale::Quick, 3);
            let sol = solver.solve(&test, 3);
            assert!(
                !sol.seeds.is_empty() && sol.seeds.len() <= 3,
                "{}: {:?}",
                kind.name(),
                sol.seeds
            );
            fold_row(&mut pin, kind.name(), &sol.seeds);
        }
        let digest = mcpb_resilience::fnv1a64(&pin);
        assert_eq!(
            digest, 0x558e_dd6e_3eab_845e,
            "IM registry pin moved: {digest:#018x}"
        );
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(McpMethodKind::LazyGreedy.name(), "LazyGreedy");
        assert_eq!(ImMethodKind::GeometricQn.name(), "Geometric-QN");
        assert_eq!(McpMethodKind::benchmark_set().len(), 5);
        assert_eq!(ImMethodKind::benchmark_set().len(), 7);
    }

    #[test]
    fn extended_solvers_prepare_and_solve() {
        let train = assign_weights(
            &generators::barabasi_albert(100, 3, 9),
            WeightModel::Constant,
            0,
        );
        for kind in [
            ImMethodKind::TimPlus,
            ImMethodKind::CelfPlusPlus,
            ImMethodKind::SimulatedAnnealing,
        ] {
            let mut solver = prepare_im(kind, &train, WeightModel::Constant, Scale::Quick, 1);
            assert!(
                solver.train_report.is_none(),
                "{} is traditional",
                kind.name()
            );
            let sol = solver.solve(&train, 4);
            assert_eq!(sol.seeds.len(), 4, "{}", kind.name());
        }
    }
}
