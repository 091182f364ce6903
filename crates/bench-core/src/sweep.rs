//! Shared sweep runner: executes (method x dataset x budget) grids with
//! uniform scoring and instrumentation. Figures 1/4/5/6, Tables 3/7 and the
//! appendix curves are all views over these records.
//!
//! Execution is fault-isolated and resumable: every cell (and every solver
//! preparation) runs under [`mcpb_resilience::run_cell`], so a panicking or
//! overrunning cell becomes a typed [`CellFailure`] record while the rest
//! of the grid completes. With a journal configured, each finished cell is
//! durably appended to a crash-safe JSONL file; a resumed run verifies the
//! header's config hash, replays completed cells from their stored
//! payloads, and reruns only failed or missing cells.
//!
//! Independent cells execute concurrently on the `mcpb-par` pool, yet the
//! grid stays bit-identical at any thread count (see DESIGN.md, "Parallel
//! execution"): each dataset block runs in three phases — a sequential
//! *plan* pass that resolves replays and arms fault-injection sites in grid
//! order, a parallel *execute* pass where each worker lane owns one solver
//! exclusively and answers its budgets in ascending order (so stateful
//! solvers consume their RNG streams exactly as a sequential run would),
//! and a sequential *commit* pass that journals outcomes and emits
//! telemetry in grid order. Solver preparation fans out the same way.

use crate::instrument::{run_measured, Measurement};
use crate::registry::{
    prepare_im, prepare_mcp, ImMethodKind, McpMethodKind, PreparedImSolver, PreparedMcpSolver,
    Scale,
};
use crate::scorer::{ImScorer, McpScorer};
use mcpb_graph::catalog::Dataset;
use mcpb_graph::weights::{assign_weights, WeightModel};
use mcpb_graph::Graph;
use mcpb_resilience::journal::{
    read_journal, EntryStatus, JournalEntry, JournalError, JournalHeader, JournalWriter,
};
use mcpb_resilience::{fault, fnv1a64, run_cell_armed, CellOutcome, CellPolicy, FaultKind};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::path::PathBuf;

/// One sweep cell: a method answering one query on one dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepRecord {
    /// Method name.
    pub method: String,
    /// Dataset name.
    pub dataset: String,
    /// Edge-weight model (IM only).
    pub weight_model: Option<String>,
    /// Budget `k`.
    pub budget: usize,
    /// Normalized objective in `[0, 1]` under the common scorer.
    pub quality: f64,
    /// Absolute objective (covered nodes / estimated spread).
    pub absolute: f64,
    /// Query wall-clock seconds (inference only, matching the paper's
    /// deliberately DRL-favourable protocol).
    pub runtime: f64,
    /// Peak additional heap bytes during the query (`None` when the
    /// tracking allocator is not installed, i.e. memory was not measured).
    pub peak_bytes: Option<usize>,
}

/// One cell (or preparation) that exhausted its retry policy. The sweep
/// records it and keeps going instead of aborting the grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellFailure {
    /// Stable cell key, e.g. `mcp|LazyGreedy|Damascus|5`.
    pub key: String,
    /// Stringified terminal error (panic payload or deadline report).
    pub error: String,
    /// Attempts consumed.
    pub attempts: u32,
    /// Total wall-clock seconds across all attempts.
    pub elapsed_secs: f64,
}

/// Execution options for a resilient sweep.
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Per-cell retry/deadline policy (preparation reuses it without the
    /// deadline — training is expected to be slow).
    pub policy: CellPolicy,
    /// Write a fresh crash-safe journal here (truncates).
    pub journal: Option<PathBuf>,
    /// Resume from this journal: completed cells are replayed from their
    /// stored payloads, failed or missing cells rerun, and new outcomes are
    /// appended to the same file. Takes precedence over `journal`.
    pub resume: Option<PathBuf>,
}

/// Result of a resilient sweep: the partial (usually full) grid plus a
/// summary of everything that failed or was replayed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepOutcome {
    /// Completed cells, in grid order (replayed cells included).
    pub records: Vec<SweepRecord>,
    /// Cells and preparations that exhausted their retry policy.
    pub failures: Vec<CellFailure>,
    /// Cells replayed from the resume journal instead of rerun.
    pub resumed: usize,
}

/// Emits the per-cell telemetry shared by both sweeps: a [`SweepPoint`]
/// event plus a per-method query-latency histogram sample. Gated on the
/// collector so the disabled path stays a single atomic load.
fn record_sweep_cell(rec: &SweepRecord) {
    if !mcpb_trace::is_enabled() {
        return;
    }
    mcpb_trace::emit(mcpb_trace::Event::SweepPoint {
        method: rec.method.clone(),
        dataset: rec.dataset.clone(),
        budget: rec.budget as u64,
        quality: rec.quality,
        runtime: rec.runtime,
    });
    mcpb_trace::observe(&format!("sweep.query_secs/{}", rec.method), rec.runtime);
    mcpb_trace::counter_add("sweep.cells", 1);
}

fn push_joined<T>(spec: &mut String, items: &[T], f: impl Fn(&T) -> String) {
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            spec.push(',');
        }
        spec.push_str(&f(item));
    }
    spec.push(';');
}

/// Canonical config hash for an MCP sweep, stored in the journal header so
/// a resume against a different grid is rejected instead of silently
/// mixing records.
pub fn mcp_config_hash(
    methods: &[McpMethodKind],
    datasets: &[Dataset],
    budgets: &[usize],
    scale: Scale,
    seed: u64,
) -> u64 {
    let mut spec = format!("mcp;scale={scale:?};seed={seed};");
    push_joined(&mut spec, methods, |m| m.name().to_string());
    push_joined(&mut spec, datasets, |d| d.name.to_string());
    push_joined(&mut spec, budgets, |k| k.to_string());
    fnv1a64(spec.as_bytes())
}

/// Canonical config hash for an IM sweep.
pub fn im_config_hash(
    methods: &[ImMethodKind],
    datasets: &[Dataset],
    weight_models: &[WeightModel],
    budgets: &[usize],
    scorer_rr_sets: usize,
    scale: Scale,
    seed: u64,
) -> u64 {
    let mut spec = format!("im;scale={scale:?};seed={seed};rr={scorer_rr_sets};");
    push_joined(&mut spec, methods, |m| m.name().to_string());
    push_joined(&mut spec, datasets, |d| d.name.to_string());
    push_joined(&mut spec, weight_models, |w| w.abbrev().to_string());
    push_joined(&mut spec, budgets, |k| k.to_string());
    fnv1a64(spec.as_bytes())
}

/// Per-run bookkeeping: the optional journal writer, the completed-cell
/// map loaded on resume, the failure accumulator, and the progress clock
/// behind the `sweep.cells_done` / `sweep.eta_secs` heartbeats.
struct SweepSession {
    writer: Option<JournalWriter>,
    completed: HashMap<String, SweepRecord>,
    resumed: usize,
    failures: Vec<CellFailure>,
    planned_cells: usize,
    cells_done: usize,
    watch: mcpb_trace::Stopwatch,
}

impl SweepSession {
    fn open(
        opts: &SweepOptions,
        label: &str,
        seed: u64,
        config_hash: u64,
        planned_cells: usize,
    ) -> Result<SweepSession, JournalError> {
        let mut completed = HashMap::new();
        let writer = if let Some(path) = &opts.resume {
            let journal = read_journal(path)?;
            if journal.header.config_hash != config_hash {
                return Err(JournalError::ConfigMismatch {
                    expected: config_hash,
                    found: journal.header.config_hash,
                });
            }
            for entry in &journal.entries {
                if entry.status != EntryStatus::Completed {
                    continue;
                }
                let Some(payload) = &entry.payload else {
                    continue;
                };
                // An unreadable payload degrades to a rerun of that cell.
                if let Ok(rec) = serde_json::from_str::<SweepRecord>(payload) {
                    completed.insert(entry.cell.clone(), rec);
                }
            }
            Some(JournalWriter::append_to(path)?)
        } else if let Some(path) = &opts.journal {
            let header = JournalHeader {
                seed,
                config_hash,
                label: label.to_string(),
            };
            Some(JournalWriter::create(path, &header)?)
        } else {
            None
        };
        Ok(SweepSession {
            writer,
            completed,
            resumed: 0,
            failures: Vec::new(),
            planned_cells,
            cells_done: 0,
            watch: mcpb_trace::Stopwatch::start(),
        })
    }

    /// Ticks the per-cell progress heartbeat: one `sweep.cells_done` and
    /// one `sweep.eta_secs` Metric event per committed cell (replayed,
    /// completed, or failed), so a live `MCPB_TRACE` tail shows how far
    /// through the planned grid the run is. Gated on the collector so the
    /// disabled path stays a counter bump plus one atomic load.
    fn heartbeat(&mut self) {
        self.cells_done += 1;
        if !mcpb_trace::is_enabled() || self.planned_cells == 0 {
            return;
        }
        mcpb_trace::emit(mcpb_trace::Event::Metric {
            name: "sweep.cells_done".to_string(),
            value: self.cells_done as f64,
        });
        let elapsed = self.watch.elapsed_secs();
        if elapsed > 0.0 {
            let rate = self.cells_done as f64 / elapsed;
            let remaining = self.planned_cells.saturating_sub(self.cells_done);
            mcpb_trace::emit(mcpb_trace::Event::Metric {
                name: "sweep.eta_secs".to_string(),
                value: remaining as f64 / rate,
            });
        }
    }

    /// Replays a completed cell from the resume journal, if present.
    fn replay(&mut self, key: &str) -> Option<SweepRecord> {
        let rec = self.completed.get(key).cloned()?;
        self.resumed += 1;
        Some(rec)
    }

    /// Appends one entry to the journal. A journal write failure must not
    /// kill the sweep: the run degrades to non-resumable and the error is
    /// counted on the trace collector.
    fn journal(&mut self, entry: &JournalEntry) {
        if let Some(w) = &mut self.writer {
            if w.append(entry).is_err() {
                mcpb_trace::counter_add("sweep.journal_errors", 1);
            }
        }
    }

    fn record_ok(&mut self, key: &str, rec: &SweepRecord, attempts: u32, elapsed_secs: f64) {
        let payload = serde_json::to_string(rec).ok();
        self.journal(&JournalEntry {
            cell: key.to_string(),
            status: EntryStatus::Completed,
            attempts,
            elapsed_secs,
            error: None,
            payload,
        });
    }

    fn record_failed(&mut self, key: &str, error: String, attempts: u32, elapsed_secs: f64) {
        if mcpb_trace::is_enabled() {
            mcpb_trace::emit(mcpb_trace::Event::CellFailed {
                key: key.to_string(),
                error: error.clone(),
                attempts: u64::from(attempts),
                elapsed: elapsed_secs,
            });
            mcpb_trace::counter_add("sweep.cells_failed", 1);
        }
        self.journal(&JournalEntry {
            cell: key.to_string(),
            status: EntryStatus::Failed,
            attempts,
            elapsed_secs,
            error: Some(error.clone()),
            payload: None,
        });
        self.failures.push(CellFailure {
            key: key.to_string(),
            error,
            attempts,
            elapsed_secs,
        });
    }
}

/// Preparation policy: the cell policy without its deadline — training is
/// expected to be slow, and a retry covers transient panics.
fn prep_policy(policy: &CellPolicy) -> CellPolicy {
    CellPolicy {
        deadline_secs: None,
        ..*policy
    }
}

/// Prepares every solver lane concurrently. Fault sites are armed
/// sequentially in method order *before* the fan-out, so the
/// `sweep.prepare` occurrence counter advances exactly as in a sequential
/// run; outcomes are committed back in method order afterwards.
fn prepare_lanes<S: Send>(
    session: &mut SweepSession,
    policy: &CellPolicy,
    count: usize,
    key_of: impl Fn(usize) -> String,
    prep: impl Fn(usize) -> S + Sync,
) -> Vec<S> {
    let armed: Vec<Option<FaultKind>> = (0..count).map(|_| fault::arm("sweep.prepare")).collect();
    let armed = &armed;
    let prep = &prep;
    let outcomes = mcpb_par::map_indexed(count, |i| {
        run_cell_armed(policy, armed[i], "sweep.prepare", || prep(i))
    });
    let mut prepared = Vec::with_capacity(count);
    for (i, outcome) in outcomes.into_iter().enumerate() {
        match outcome {
            CellOutcome::Completed { value, .. } => prepared.push(value),
            CellOutcome::Failed {
                error,
                attempts,
                elapsed_secs,
            } => session.record_failed(&key_of(i), error.to_string(), attempts, elapsed_secs),
        }
    }
    prepared
}

/// The plan pass's verdict for one (budget, solver) cell.
enum CellPlan {
    /// Replayed from the resume journal; the solver is not run.
    Replay(SweepRecord),
    /// Run live, with the fault decision pre-armed in grid order.
    Run(Option<FaultKind>),
}

/// Executes one dataset block of the grid — every (budget, solver) cell —
/// with solver lanes running concurrently.
///
/// Three passes keep the result bit-identical at any thread count:
///
/// 1. **Plan** (sequential, grid order — budget-major, solver-minor, same
///    as the historical loop nest): resolve journal replays and arm the
///    `sweep.cell` fault site, so replay counts and fault occurrence
///    counters match a sequential run.
/// 2. **Execute** (parallel): each lane owns one solver exclusively and
///    answers its budgets in ascending order, so a stateful solver
///    consumes its RNG stream exactly as it would sequentially.
/// 3. **Commit** (sequential, grid order): journal entries, telemetry, and
///    `records` are emitted in the same order a sequential run produces.
fn run_grid_block<S: Send>(
    session: &mut SweepSession,
    policy: &CellPolicy,
    budgets: &[usize],
    solvers: &mut [S],
    records: &mut Vec<SweepRecord>,
    key_of: impl Fn(&S, usize) -> String,
    span_of: impl Fn(&S) -> String + Sync,
    cell: impl Fn(&mut S, usize) -> SweepRecord + Sync,
) {
    let mut plans: Vec<Vec<CellPlan>> = Vec::with_capacity(budgets.len());
    for &k in budgets.iter() {
        let mut row = Vec::with_capacity(solvers.len());
        for solver in solvers.iter() {
            let key = key_of(solver, k);
            row.push(match session.replay(&key) {
                Some(rec) => CellPlan::Replay(rec),
                None => CellPlan::Run(fault::arm("sweep.cell")),
            });
        }
        plans.push(row);
    }

    let plans_ref = &plans;
    let cell = &cell;
    let span_of = &span_of;
    let mut outcomes: Vec<Vec<Option<CellOutcome<SweepRecord>>>> =
        mcpb_par::for_each_mut(solvers, |si, solver| {
            budgets
                .iter()
                .enumerate()
                .map(|(ki, &k)| match &plans_ref[ki][si] {
                    CellPlan::Replay(_) => None,
                    CellPlan::Run(armed) => {
                        let _cell_span = if mcpb_trace::is_enabled() {
                            Some(mcpb_trace::span_named(span_of(solver)))
                        } else {
                            None
                        };
                        Some(run_cell_armed(policy, *armed, "sweep.cell", || {
                            cell(solver, k)
                        }))
                    }
                })
                .collect()
        });

    for (ki, row) in plans.into_iter().enumerate() {
        let k = budgets[ki];
        for (si, plan) in row.into_iter().enumerate() {
            session.heartbeat();
            match plan {
                CellPlan::Replay(rec) => records.push(rec),
                CellPlan::Run(_) => {
                    let key = key_of(&solvers[si], k);
                    match outcomes[si][ki].take() {
                        Some(CellOutcome::Completed {
                            value: rec,
                            attempts,
                            elapsed_secs,
                        }) => {
                            session.record_ok(&key, &rec, attempts, elapsed_secs);
                            record_sweep_cell(&rec);
                            records.push(rec);
                        }
                        Some(CellOutcome::Failed {
                            error,
                            attempts,
                            elapsed_secs,
                        }) => {
                            session.record_failed(&key, error.to_string(), attempts, elapsed_secs)
                        }
                        // Unreachable: every planned Run executes exactly once.
                        None => {}
                    }
                }
            }
        }
    }
}

/// The MCP sweep: trains each Deep-RL method once on `train_graph`
/// (BrightKite in the paper), then answers every (dataset, budget) query.
/// Infallible facade over [`run_mcp_sweep_resilient`] with default options
/// (no journal, single attempt, no deadline); failed cells are simply
/// absent from the returned grid.
pub fn run_mcp_sweep(
    methods: &[McpMethodKind],
    datasets: &[Dataset],
    budgets: &[usize],
    train_graph: &Graph,
    scale: Scale,
    seed: u64,
) -> Vec<SweepRecord> {
    match run_mcp_sweep_resilient(
        methods,
        datasets,
        budgets,
        train_graph,
        scale,
        seed,
        &SweepOptions::default(),
    ) {
        Ok(out) => out.records,
        // Unreachable: journal errors require a configured journal.
        Err(_) => Vec::new(),
    }
}

/// The MCP sweep with fault isolation, retries, and an optional crash-safe
/// journal. See [`SweepOptions`] and [`SweepOutcome`].
pub fn run_mcp_sweep_resilient(
    methods: &[McpMethodKind],
    datasets: &[Dataset],
    budgets: &[usize],
    train_graph: &Graph,
    scale: Scale,
    seed: u64,
    opts: &SweepOptions,
) -> Result<SweepOutcome, JournalError> {
    let config_hash = mcp_config_hash(methods, datasets, budgets, scale, seed);
    let planned = methods.len() * datasets.len() * budgets.len();
    let mut session = SweepSession::open(opts, "mcp", seed, config_hash, planned)?;
    let mut records = Vec::new();
    let scorer = McpScorer;
    // A method whose training panics becomes an `mcp|prepare|{name}`
    // failure and is dropped from the grid (its cells are absent, not
    // failed). Preparation is never journaled as completed — models are
    // not serialized, so a resume retrains them.
    let mut prepared: Vec<PreparedMcpSolver> = prepare_lanes(
        &mut session,
        &prep_policy(&opts.policy),
        methods.len(),
        |i| format!("mcp|prepare|{}", methods[i].name()),
        |i| prepare_mcp(methods[i], train_graph, scale, seed),
    );
    for ds in datasets {
        let graph = ds.load();
        run_grid_block(
            &mut session,
            &opts.policy,
            budgets,
            &mut prepared,
            &mut records,
            |solver, k| format!("mcp|{}|{}|{}", solver.name(), ds.name, k),
            |solver| format!("sweep.mcp/{}", solver.name()),
            |solver, k| {
                let name = solver.name().to_string();
                let (sol, m): (_, Measurement) = run_measured(|| solver.solve(&graph, k));
                SweepRecord {
                    method: name,
                    dataset: ds.name.to_string(),
                    weight_model: None,
                    budget: k,
                    quality: scorer.score(&graph, &sol.seeds),
                    absolute: scorer.score_absolute(&graph, &sol.seeds) as f64,
                    runtime: m.seconds,
                    peak_bytes: m.peak_bytes,
                }
            },
        );
    }
    Ok(SweepOutcome {
        records,
        failures: session.failures,
        resumed: session.resumed,
    })
}

/// The IM sweep: per weight model, trains Deep-RL methods on the weighted
/// training graph, scores every solution with a shared [`ImScorer`].
/// Infallible facade over [`run_im_sweep_resilient`], as with
/// [`run_mcp_sweep`].
#[allow(clippy::too_many_arguments)]
pub fn run_im_sweep(
    methods: &[ImMethodKind],
    datasets: &[Dataset],
    weight_models: &[WeightModel],
    budgets: &[usize],
    train_graph: &Graph,
    scorer_rr_sets: usize,
    scale: Scale,
    seed: u64,
) -> Vec<SweepRecord> {
    match run_im_sweep_resilient(
        methods,
        datasets,
        weight_models,
        budgets,
        train_graph,
        scorer_rr_sets,
        scale,
        seed,
        &SweepOptions::default(),
    ) {
        Ok(out) => out.records,
        // Unreachable: journal errors require a configured journal.
        Err(_) => Vec::new(),
    }
}

/// The IM sweep with fault isolation, retries, and an optional crash-safe
/// journal.
#[allow(clippy::too_many_arguments)]
pub fn run_im_sweep_resilient(
    methods: &[ImMethodKind],
    datasets: &[Dataset],
    weight_models: &[WeightModel],
    budgets: &[usize],
    train_graph: &Graph,
    scorer_rr_sets: usize,
    scale: Scale,
    seed: u64,
    opts: &SweepOptions,
) -> Result<SweepOutcome, JournalError> {
    let config_hash = im_config_hash(
        methods,
        datasets,
        weight_models,
        budgets,
        scorer_rr_sets,
        scale,
        seed,
    );
    let planned = weight_models.len() * methods.len() * datasets.len() * budgets.len();
    let mut session = SweepSession::open(opts, "im", seed, config_hash, planned)?;
    let mut records = Vec::new();
    for &wm in weight_models {
        let weighted_train = assign_weights(train_graph, wm, seed);
        let weighted_train = &weighted_train;
        let mut prepared: Vec<PreparedImSolver> = prepare_lanes(
            &mut session,
            &prep_policy(&opts.policy),
            methods.len(),
            |i| format!("im|prepare|{}", methods[i].name()),
            |i| prepare_im(methods[i], weighted_train, wm, scale, seed),
        );
        for ds in datasets {
            let graph = assign_weights(&ds.load(), wm, seed ^ ds.seed);
            let scorer = ImScorer::new(&graph, scorer_rr_sets, seed ^ 0x5c0e);
            run_grid_block(
                &mut session,
                &opts.policy,
                budgets,
                &mut prepared,
                &mut records,
                |solver, k| format!("im|{}|{}|{}|{}", solver.name(), ds.name, wm.abbrev(), k),
                |solver| format!("sweep.im/{}", solver.name()),
                |solver, k| {
                    let name = solver.name().to_string();
                    let (sol, m) = run_measured(|| solver.solve(&graph, k));
                    SweepRecord {
                        method: name,
                        dataset: ds.name.to_string(),
                        weight_model: Some(wm.abbrev().to_string()),
                        budget: k,
                        quality: scorer.normalized(&sol.seeds),
                        absolute: scorer.spread(&sol.seeds),
                        runtime: m.seconds,
                        peak_bytes: m.peak_bytes,
                    }
                },
            );
        }
    }
    Ok(SweepOutcome {
        records,
        failures: session.failures,
        resumed: session.resumed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcpb_graph::catalog;

    fn tiny_dataset() -> Dataset {
        let mut d = catalog::require("Damascus").expect("Damascus ships in the catalog");
        d.nodes = 300;
        d
    }

    #[test]
    fn mcp_sweep_produces_full_grid() {
        let ds = [tiny_dataset()];
        let train = mcpb_graph::generators::barabasi_albert(150, 3, 0);
        let methods = [McpMethodKind::LazyGreedy, McpMethodKind::TopDegree];
        let records = run_mcp_sweep(&methods, &ds, &[3, 6], &train, Scale::Quick, 1);
        assert_eq!(records.len(), 4);
        for r in &records {
            assert!(r.quality > 0.0 && r.quality <= 1.0);
            assert!(r.runtime >= 0.0);
            assert!(r.weight_model.is_none());
        }
        // Lazy greedy never loses to top-degree.
        let total = |method: &str| -> f64 {
            records
                .iter()
                .filter(|r| r.method == method)
                .map(|r| r.quality)
                .sum()
        };
        assert!(total("LazyGreedy") >= total("TopDegree"));
    }

    #[test]
    fn im_sweep_scores_with_common_estimator() {
        let ds = [tiny_dataset()];
        let train = mcpb_graph::generators::barabasi_albert(150, 3, 0);
        let methods = [ImMethodKind::DDiscount, ImMethodKind::Imm];
        let records = run_im_sweep(
            &methods,
            &ds,
            &[WeightModel::Constant],
            &[3],
            &train,
            2_000,
            Scale::Quick,
            1,
        );
        assert_eq!(records.len(), 2);
        for r in &records {
            assert_eq!(r.weight_model.as_deref(), Some("CONST"));
            assert!(r.absolute >= 3.0, "spread at least the seed count");
        }
    }

    #[test]
    fn config_hash_is_order_and_content_sensitive() {
        let ds = [tiny_dataset()];
        let a = mcp_config_hash(
            &[McpMethodKind::LazyGreedy, McpMethodKind::TopDegree],
            &ds,
            &[3, 6],
            Scale::Quick,
            1,
        );
        let b = mcp_config_hash(
            &[McpMethodKind::TopDegree, McpMethodKind::LazyGreedy],
            &ds,
            &[3, 6],
            Scale::Quick,
            1,
        );
        let c = mcp_config_hash(
            &[McpMethodKind::LazyGreedy, McpMethodKind::TopDegree],
            &ds,
            &[3, 6],
            Scale::Quick,
            2,
        );
        assert_ne!(a, b, "method order is part of the config");
        assert_ne!(a, c, "seed is part of the config");
        assert_eq!(
            a,
            mcp_config_hash(
                &[McpMethodKind::LazyGreedy, McpMethodKind::TopDegree],
                &ds,
                &[3, 6],
                Scale::Quick,
                1,
            ),
            "hash is deterministic"
        );
    }

    #[test]
    fn journaled_sweep_round_trips_and_resumes_clean() {
        let dir = std::env::temp_dir().join("mcpb-sweep-journal-test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("mcp.jsonl");
        let ds = [tiny_dataset()];
        let train = mcpb_graph::generators::barabasi_albert(150, 3, 0);
        let methods = [McpMethodKind::LazyGreedy, McpMethodKind::TopDegree];
        let opts = SweepOptions {
            journal: Some(path.clone()),
            ..SweepOptions::default()
        };
        let first = run_mcp_sweep_resilient(&methods, &ds, &[3, 6], &train, Scale::Quick, 1, &opts)
            .expect("journaled run");
        assert_eq!(first.records.len(), 4);
        assert!(first.failures.is_empty());
        assert_eq!(first.resumed, 0);

        // A resume of a fully completed journal replays everything.
        let opts = SweepOptions {
            resume: Some(path.clone()),
            ..SweepOptions::default()
        };
        let second =
            run_mcp_sweep_resilient(&methods, &ds, &[3, 6], &train, Scale::Quick, 1, &opts)
                .expect("resumed run");
        assert_eq!(second.resumed, 4);
        assert_eq!(second.records, first.records, "replayed grid is identical");

        // A resume against a different grid is rejected.
        let opts = SweepOptions {
            resume: Some(path.clone()),
            ..SweepOptions::default()
        };
        let err = run_mcp_sweep_resilient(&methods, &ds, &[3, 7], &train, Scale::Quick, 1, &opts)
            .expect_err("mismatched config must be rejected");
        assert!(matches!(err, JournalError::ConfigMismatch { .. }));
        std::fs::remove_file(&path).ok();
    }
}
