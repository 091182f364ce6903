//! Divergence recovery across all five training loops: an injected NaN
//! loss (`nan@train.<solver>` in the fault plan) must trigger a rollback
//! to the last good parameters plus an LR halving — visible as
//! `TrainReport::recoveries` — and training must still finish with usable
//! checkpoints. Exhausting the recovery budget must surface as a typed
//! `TrainError::Diverged`, not a panic.

use std::sync::{Mutex, MutexGuard};

use mcpb_drl::common::{Task, TrainError, TrainReport};
use mcpb_drl::gcomb::{Gcomb, GcombConfig};
use mcpb_drl::geometric_qn::{GeometricQn, GeometricQnConfig};
use mcpb_drl::lense::{Lense, LenseConfig};
use mcpb_drl::rl4im::{Rl4Im, Rl4ImConfig};
use mcpb_drl::s2v_dqn::{S2vDqn, S2vDqnConfig};
use mcpb_graph::generators;
use mcpb_graph::{Graph, NodeId};
use mcpb_resilience::{fault, fnv1a64, FaultPlan};

/// The fault plan is process-global; these tests must not interleave.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

fn train_graph() -> Graph {
    generators::barabasi_albert(120, 3, 7)
}

/// FNV-1a digest of a recovered run: each checkpoint's epoch, validation
/// score and loss bits, the recovery count, and the seeds the model infers
/// afterwards (which pins the rolled-back parameters).
fn digest(report: &TrainReport, seeds: &[NodeId]) -> u64 {
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
    fnv1a64(&bytes)
}

/// Trains `solver` under a one-shot NaN injection at its site and asserts
/// the loop recovered instead of crashing or aborting, bit for bit as
/// pinned by `expected` (a digest of the report and of the seeds inferred
/// at k = 5 on the training graph).
fn assert_recovers(
    site: &str,
    expected: u64,
    train: impl FnOnce(&Graph) -> (TrainReport, Vec<NodeId>),
) {
    fault::install(FaultPlan::parse(&format!("nan@{site}:2")).unwrap());
    let (report, seeds) = train(&train_graph());
    fault::clear();
    assert!(
        report.recoveries >= 1,
        "{site}: injected NaN not recovered (recoveries = {})",
        report.recoveries
    );
    assert!(report.error.is_none(), "{site}: {:?}", report.error);
    assert!(
        !report.checkpoints.is_empty(),
        "{site}: training produced no checkpoints"
    );
    for cp in &report.checkpoints {
        assert!(
            cp.loss.is_finite(),
            "{site}: poisoned loss leaked into checkpoint"
        );
    }
    let got = digest(&report, &seeds);
    assert_eq!(
        got, expected,
        "{site}: recovered run moved: got {got:#018x}, pinned {expected:#018x}"
    );
}

#[test]
fn s2v_dqn_recovers_from_injected_nan() {
    let _g = serial();
    assert_recovers("train.S2V-DQN", 0x2f48_8ad7_1917_d434, |g| {
        let mut model = S2vDqn::new(S2vDqnConfig {
            episodes: 6,
            train_subgraph_nodes: 20,
            train_budget: 3,
            validate_every: 3,
            task: Task::Mcp,
            seed: 11,
            ..S2vDqnConfig::default()
        });
        let report = model.train(g);
        (report, model.infer(g, 5))
    });
}

#[test]
fn gcomb_recovers_from_injected_nan() {
    let _g = serial();
    assert_recovers("train.GCOMB", 0x7bd0_2ada_e33c_c8ec, |g| {
        let mut model = Gcomb::new(GcombConfig {
            supervised_epochs: 10,
            prob_greedy_runs: 3,
            train_subgraph_nodes: 60,
            rl_episodes: 5,
            train_budget: 3,
            validate_every: 2,
            task: Task::Mcp,
            seed: 3,
            ..GcombConfig::default()
        });
        let report = model.train(g);
        (report, model.infer(g, 5))
    });
}

#[test]
fn rl4im_recovers_from_injected_nan() {
    let _g = serial();
    assert_recovers("train.RL4IM", 0x0be7_f382_0cbc_f96b, |g| {
        let mut model = Rl4Im::new(Rl4ImConfig {
            episodes: 6,
            train_budget: 3,
            batch_size: 4,
            eps_decay_steps: 30,
            validate_every: 3,
            task: Task::Mcp,
            seed: 5,
            ..Rl4ImConfig::default()
        });
        let report = model.train(std::slice::from_ref(g));
        (report, model.infer(g, 5))
    });
}

#[test]
fn geometric_qn_recovers_from_injected_nan() {
    let _g = serial();
    assert_recovers("train.Geometric-QN", 0x1499_0f11_5ad0_470f, |g| {
        let mut model = GeometricQn::new(GeometricQnConfig {
            episodes: 6,
            explore_steps: 6,
            train_budget: 3,
            validate_every: 3,
            task: Task::Mcp,
            seed: 7,
            ..GeometricQnConfig::default()
        });
        let report = model.train(std::slice::from_ref(g));
        (report, model.infer(g, 5))
    });
}

#[test]
fn lense_recovers_from_injected_nan() {
    let _g = serial();
    assert_recovers("train.LeNSE", 0x0bd2_1a74_8f20_4562, |g| {
        let mut model = Lense::new(LenseConfig {
            subgraph_size: 40,
            num_labeled: 8,
            encoder_epochs: 10,
            nav_episodes: 6,
            nav_steps: 6,
            train_budget: 3,
            validate_every: 3,
            task: Task::Mcp,
            seed: 13,
            ..LenseConfig::default()
        });
        let report = model.train(g);
        (report, model.infer(g, 5))
    });
}

#[test]
fn s2v_dqn_still_converges_after_recovery() {
    let _g = serial();
    let cfg = S2vDqnConfig {
        episodes: 8,
        train_subgraph_nodes: 20,
        train_budget: 3,
        validate_every: 2,
        task: Task::Mcp,
        seed: 11,
        ..S2vDqnConfig::default()
    };

    fault::install(FaultPlan::parse("nan@train.S2V-DQN:2").unwrap());
    let report = S2vDqn::new(cfg).train(&train_graph());
    fault::clear();

    assert!(report.recoveries >= 1);
    let best = report
        .checkpoints
        .iter()
        .map(|c| c.validation_score)
        .fold(f64::NEG_INFINITY, f64::max);
    assert!(
        best > 0.0,
        "post-recovery training never reached a useful policy (best = {best})"
    );
}

#[test]
fn exhausted_recovery_budget_is_a_typed_error() {
    let _g = serial();
    // Default budget is 3 recoveries; four consecutive poisoned episodes
    // must end the run with a typed error, keeping earlier checkpoints.
    fault::install(
        FaultPlan::parse(
            "nan@train.S2V-DQN:2; nan@train.S2V-DQN:3; \
             nan@train.S2V-DQN:4; nan@train.S2V-DQN:5",
        )
        .unwrap(),
    );
    let report = S2vDqn::new(S2vDqnConfig {
        episodes: 8,
        train_subgraph_nodes: 20,
        train_budget: 3,
        validate_every: 1,
        task: Task::Mcp,
        seed: 11,
        ..S2vDqnConfig::default()
    })
    .train(&train_graph());
    fault::clear();

    match report.error {
        Some(TrainError::Diverged {
            solver,
            episode,
            recoveries,
            ..
        }) => {
            assert_eq!(solver, "S2V-DQN");
            assert_eq!(recoveries, 3, "budget spent before giving up");
            assert!(episode >= 2);
        }
        other => panic!("expected Diverged, got {other:?}"),
    }
    assert!(
        !report.checkpoints.is_empty(),
        "partial results survive a diverged run"
    );
}
