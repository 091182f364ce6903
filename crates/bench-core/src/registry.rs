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
    /// GCOMB (Deep-RL).
    Gcomb,
    /// RL4IM (Deep-RL).
    Rl4Im,
    /// Geometric-QN (Deep-RL).
    GeometricQn,
    /// LeNSE (Deep-RL).
    Lense,
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
            ImMethodKind::Gcomb => "GCOMB",
            ImMethodKind::Rl4Im => "RL4IM",
            ImMethodKind::GeometricQn => "Geometric-QN",
            ImMethodKind::Lense => "LeNSE",
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

    /// One row of a registry pin: FNV-1a of the method's name and answered
    /// seeds, with unit separators so no two fields can run together.
    fn row_digest(name: &str, seeds: &[mcpb_graph::NodeId]) -> u64 {
        let mut bytes = name.as_bytes().to_vec();
        bytes.push(0x1f);
        for s in seeds {
            bytes.extend_from_slice(&s.to_le_bytes());
        }
        bytes.push(0x1e);
        mcpb_resilience::fnv1a64(&bytes)
    }

    /// Checks every `(name, seeds, pin)` row: 1..=k seeds, and the row's
    /// digest equal to its own pin, so deleting a method drops only its row.
    fn assert_rows(label: &str, k: usize, rows: &[(&str, Vec<mcpb_graph::NodeId>, u64)]) {
        let mut moved = Vec::new();
        for (name, seeds, pin) in rows {
            assert!(!seeds.is_empty() && seeds.len() <= k, "{name}: {seeds:?}");
            let digest = row_digest(name, seeds);
            if digest != *pin {
                moved.push(format!("{name}: {digest:#018x}"));
            }
        }
        assert!(moved.is_empty(), "{label} pin moved: {moved:?}");
    }

    /// Also pins the seeds every method answers with, so the config
    /// literals `prepare_mcp` feeds to sweep, serve and e2ebench cannot
    /// drift unnoticed (`tests/determinism.rs` builds its own configs).
    #[test]
    fn every_mcp_method_prepares_and_solves() {
        let train = generators::barabasi_albert(150, 3, 1);
        let test = generators::barabasi_albert(120, 3, 2);
        let mut rows = Vec::new();
        for (kind, pin) in [
            (McpMethodKind::NormalGreedy, 0x67c2_ec01_fb27_ebed),
            (McpMethodKind::LazyGreedy, 0x9a8f_f36f_700e_eb8c),
            (McpMethodKind::TopDegree, 0xe8a1_1842_69d4_a183),
            (McpMethodKind::S2vDqn, 0xb503_3783_e8d6_ef51),
            (McpMethodKind::Gcomb, 0x19a3_b7ca_ebac_49c0),
            (McpMethodKind::Lense, 0x36ea_347b_07b6_94e5),
        ] {
            let mut solver = prepare_mcp(kind, &train, Scale::Quick, 3);
            assert_eq!(solver.kind.is_deep_rl(), solver.train_report.is_some());
            rows.push((kind.name(), solver.solve(&test, 4).seeds, pin));
        }
        assert_rows("MCP registry", 4, &rows);
    }

    /// Pins the IM registry's answers the same way as the MCP test above,
    /// plus CHANGE, which Fig. 7a, robustness and agreement call directly.
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
        let mut rows = Vec::new();
        for (kind, pin) in [
            (ImMethodKind::Imm, 0x5aa7_459d_ad3a_abe4),
            (ImMethodKind::Opim, 0x49ab_f4ca_61a9_60ae),
            (ImMethodKind::DDiscount, 0x9836_3dfa_a091_3129),
            (ImMethodKind::SDiscount, 0xd563_de83_4c93_6417),
            (ImMethodKind::CelfRis, 0xe9b2_8786_70fb_1dee),
            (ImMethodKind::Gcomb, 0x82a5_f243_c1d6_cdf9),
            (ImMethodKind::Rl4Im, 0x022f_d8d5_12c5_a011),
            (ImMethodKind::GeometricQn, 0xf35f_9bd3_7e19_a287),
            (ImMethodKind::Lense, 0x904f_6af7_84e1_f7f7),
        ] {
            let mut solver = prepare_im(kind, &train, WeightModel::Constant, Scale::Quick, 3);
            rows.push((kind.name(), solver.solve(&test, 3).seeds, pin));
        }
        rows.push((
            "CHANGE",
            Change::new(3).run(&test, 3).seeds,
            0x3589_e088_44d5_29af,
        ));
        assert_rows("IM registry", 3, &rows);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(McpMethodKind::LazyGreedy.name(), "LazyGreedy");
        assert_eq!(ImMethodKind::GeometricQn.name(), "Geometric-QN");
        assert_eq!(McpMethodKind::benchmark_set().len(), 5);
        assert_eq!(ImMethodKind::benchmark_set().len(), 7);
    }

    /// Pins simulated annealing, which robustness and agreement call
    /// directly, the same way as the IM test above.
    #[test]
    fn extended_solvers_prepare_and_solve() {
        let train = assign_weights(
            &generators::barabasi_albert(100, 3, 9),
            WeightModel::Constant,
            0,
        );
        let rows = vec![(
            "SA",
            SimulatedAnnealing::with_seed(1).run(&train, 4).seeds,
            0x47b8_0fc2_93e4_7d2c,
        )];
        for (name, seeds, _) in &rows {
            assert_eq!(seeds.len(), 4, "{name}");
        }
        assert_rows("extended registry", 4, &rows);
    }
}
