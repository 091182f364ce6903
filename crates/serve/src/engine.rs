//! Request answering: one plan step and one executor, plus the
//! deterministic replay engine built on them.
//!
//! Every request goes through two functions:
//!
//! * `plan_one` parses and validates the line, resolves the dataset and
//!   solver, prices the request ([`default_cost`] unless it sets `cost`),
//!   steps the admission model and *arms* the `serve.query` fault site. It
//!   answers parse errors, unknown names and sheds itself.
//! * `execute` answers what admission let through: the fallback engine for
//!   a degrade, otherwise the requested solver inside [`run_cell_armed`]
//!   under the request's deadline, so a poisoned query becomes a degraded
//!   response, never a dead server.
//!
//! [`replay`] mirrors the sweep driver's discipline so a fixed request log
//! produces a bit-identical response journal at any thread count:
//!
//! 1. **Plan** (sequential, request order): `plan_one` per line, so fault
//!    occurrence counters advance in request order exactly as a sequential
//!    run would see them.
//! 2. **Execute** (parallel): one lane per prepared solver; each lane
//!    answers its requests in request order, so stateful solvers see the
//!    same call sequence at 1 or 8 threads. Lanes keep a budget-ascending
//!    answer cache: for solvers with the greedy prefix property, a request
//!    whose budget is covered by an earlier, larger answer is served from
//!    the cached prefix. The cache never appears in a response body, so
//!    journals are cache-invariant: the unit test
//!    `uncached_answers_match_the_replay_journal` answers a log without it
//!    and compares every body with replay's journal.
//! 3. **Commit** (sequential, request order): responses are journaled and
//!    telemetry emitted in request order.
//!
//! Failures degrade instead of erroring: when the requested solver
//! panics, blows its deadline, or returns a non-finite quality, the
//! request is re-answered by the fallback engine (top-degree for MCP, the
//! preloaded RR sketch for IM) and the response reports the downgrade.

use std::collections::BTreeMap;

use mcpb_bench::{ImMethodKind, McpMethodKind, PreparedImSolver, PreparedMcpSolver};
use mcpb_mcp::prelude::{McpSolver, TopDegree};
use mcpb_resilience::fault::{self, FaultKind};
use mcpb_resilience::journal::{EntryStatus, JournalEntry, JournalHeader};
use mcpb_resilience::{run_cell_armed, CellError, CellOutcome, CellPolicy};
use mcpb_trace::Stopwatch;

use crate::admission::{AdmissionConfig, AdmissionVerdict, LoadModel};
use crate::proto::{parse_request_bytes, QueryTask, Request, Response, Verdict};
use crate::state::{DatasetState, ServeState, SolverPool};

/// The fault-injection site armed once per admitted request, in request
/// order (`MCPB_FAULTS=panic@serve.query:3` fails the 3rd admitted query).
pub const FAULT_SITE: &str = "serve.query";
/// The fault-isolation site wrapping fallback answers (never armed).
pub const FALLBACK_SITE: &str = "serve.fallback";
/// Attempts per query cell (retries cover transient panics).
const MAX_ATTEMPTS: u32 = 2;

/// Replay options.
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Journal-header label.
    pub label: String,
    /// Zero every wall-clock field in the journal, making the response log
    /// byte-identical across runs and thread counts.
    pub deterministic_timing: bool,
    /// Admission thresholds.
    pub admission: AdmissionConfig,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            label: "serve-replay".to_string(),
            deterministic_timing: false,
            admission: AdmissionConfig::default(),
        }
    }
}

/// What a replay did, in aggregate. `journal` is the full response log.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// Request lines answered (non-empty lines in the log).
    pub requests: usize,
    /// Clean serves by the requested solver.
    pub served: usize,
    /// Degraded answers (overload or primary failure).
    pub degraded: usize,
    /// Load-shed refusals.
    pub shed: usize,
    /// Parse/validation error responses.
    pub errors: usize,
    /// Answers taken from the budget-ascending cache.
    pub cache_hits: usize,
    /// Requests that never got a response (must be 0).
    pub lost: usize,
    /// Requests that got more than one response (must be 0).
    pub duplicated: usize,
    /// Median request latency, in milliseconds (wall clock, always real).
    pub p50_ms: f64,
    /// Tail request latency, in milliseconds.
    pub p99_ms: f64,
    /// The response journal text (header + one entry per request).
    pub journal: String,
}

/// Default admission cost of a request, in logical work units: exact
/// solvers are an order of magnitude heavier than degree heuristics, and
/// cost grows with budget.
pub fn default_cost(state: &ServeState, task: QueryTask, lane: usize, budget: usize) -> u64 {
    let base = match task {
        QueryTask::Mcp => match state.mcp_kinds[lane] {
            McpMethodKind::NormalGreedy | McpMethodKind::LazyGreedy => 6,
            McpMethodKind::S2vDqn | McpMethodKind::Gcomb | McpMethodKind::Lense => 4,
            McpMethodKind::TopDegree => 1,
        },
        QueryTask::Im => match state.im_kinds[lane - state.mcp_kinds.len()] {
            ImMethodKind::Imm | ImMethodKind::Opim | ImMethodKind::CelfRis => 8,
            ImMethodKind::Gcomb
            | ImMethodKind::Rl4Im
            | ImMethodKind::GeometricQn
            | ImMethodKind::Lense => 4,
            ImMethodKind::DDiscount | ImMethodKind::SDiscount => 1,
        },
    };
    base + (budget as u64) / 8
}

/// True for solvers with the greedy prefix property: the first `j` seeds
/// of a budget-`k` answer equal the budget-`j` answer, so cached larger
/// answers can serve smaller budgets exactly.
fn prefix_safe(state: &ServeState, task: QueryTask, lane: usize) -> bool {
    match task {
        QueryTask::Mcp => matches!(
            state.mcp_kinds[lane],
            McpMethodKind::NormalGreedy | McpMethodKind::LazyGreedy | McpMethodKind::TopDegree
        ),
        QueryTask::Im => matches!(
            state.im_kinds[lane - state.mcp_kinds.len()],
            ImMethodKind::DDiscount | ImMethodKind::SDiscount
        ),
    }
}

/// A deterministic rendering of a cell error: wall-clock readings are
/// dropped so degraded responses are bit-identical across runs.
fn stable_reason(error: &CellError) -> String {
    match error {
        CellError::Panicked(msg) => format!("panicked: {msg}"),
        CellError::DeadlineExceeded { limit_secs, .. } => {
            format!("deadline exceeded: limit {limit_secs}s")
        }
    }
}

enum ExecMode {
    /// Run the requested solver (fault may be pre-armed, quality may be
    /// poisoned by an armed NaN fault).
    Full {
        armed: Option<FaultKind>,
        poison: bool,
    },
    /// Skip straight to the fallback engine (admission degrade).
    Fallback { reason: String },
}

/// An admitted or degraded request, waiting for [`execute`].
struct ExecItem {
    seq: usize,
    req: Request,
    ds: usize,
    mode: ExecMode,
}

/// What [`plan_one`] decided.
enum Planned {
    /// Fully determined at plan time (parse error, validation error, shed).
    Ready(Response),
    /// Needs the solver lane `.0` to answer.
    Exec(usize, ExecItem),
}

/// One prepared solver, borrowed from the [`SolverPool`].
enum LaneSolver<'p> {
    Mcp(&'p mut PreparedMcpSolver),
    Im(&'p mut PreparedImSolver),
}

impl LaneSolver<'_> {
    fn task(&self) -> QueryTask {
        match self {
            LaneSolver::Mcp(_) => QueryTask::Mcp,
            LaneSolver::Im(_) => QueryTask::Im,
        }
    }

    fn solve(&mut self, ds: &DatasetState, budget: usize) -> Vec<u32> {
        match self {
            LaneSolver::Mcp(s) => s.solve(&ds.mcp_graph, budget).seeds,
            LaneSolver::Im(s) => s.solve(&ds.im_graph, budget).seeds,
        }
    }
}

/// The pool's solvers in lane order: MCP lanes first, then IM lanes.
fn lanes(pool: &mut SolverPool) -> impl Iterator<Item = LaneSolver<'_>> {
    pool.mcp
        .iter_mut()
        .map(LaneSolver::Mcp)
        .chain(pool.im.iter_mut().map(LaneSolver::Im))
}

/// Plans request `seq` from its raw line bytes: parses, validates,
/// resolves the dataset and solver lane, steps `load` with the request's
/// cost and arms [`FAULT_SITE`] for an admitted request. Names that do not
/// resolve are answered before admission, so they use up no capacity.
fn plan_one(state: &ServeState, load: &mut LoadModel, seq: usize, line: &[u8]) -> Planned {
    let req = match parse_request_bytes(line) {
        Ok(req) => req,
        Err(e) => {
            return Planned::Ready(Response::refusal(
                seq,
                None,
                Verdict::Error,
                "?",
                0,
                format!("parse error: {e}"),
            ))
        }
    };
    let Some(ds) = state.dataset_index(&req.dataset) else {
        let reason = format!("unknown dataset `{}`", req.dataset);
        return Planned::Ready(error_response(seq, &req, reason));
    };
    let Some(lane) = state.lane_of(req.task, &req.solver) else {
        let reason = format!("unknown {} solver `{}`", req.task.as_str(), req.solver);
        return Planned::Ready(error_response(seq, &req, reason));
    };
    let cost = req
        .cost
        .unwrap_or_else(|| default_cost(state, req.task, lane, req.budget));
    let mode = match load.step(cost) {
        AdmissionVerdict::Shed => {
            let reason = format!(
                "shed: backlog {} + cost {cost} over queue capacity {}",
                load.backlog(),
                load.config().queue_capacity
            );
            return Planned::Ready(Response::refusal(
                seq,
                Some(req.id),
                Verdict::Shed,
                &req.solver,
                req.budget,
                reason,
            ));
        }
        AdmissionVerdict::Degrade => {
            let reason = format!(
                "overload: backlog {} over degrade threshold {}",
                load.backlog(),
                load.config().degrade_threshold
            );
            ExecMode::Fallback { reason }
        }
        AdmissionVerdict::Admit => {
            let armed = fault::arm(FAULT_SITE);
            let poison = matches!(armed, Some(FaultKind::Nan));
            let armed = if poison { None } else { armed };
            ExecMode::Full { armed, poison }
        }
    };
    Planned::Exec(lane, ExecItem { seq, req, ds, mode })
}

fn error_response(seq: usize, req: &Request, reason: String) -> Response {
    Response::refusal(
        seq,
        Some(req.id),
        Verdict::Error,
        &req.solver,
        req.budget,
        reason,
    )
}

/// Answers one request via the fallback engine, fault-isolated but never
/// armed: top-degree for MCP, greedy over the preloaded RR sketch for IM.
fn fallback_answer(
    state: &ServeState,
    ds: &DatasetState,
    task: QueryTask,
    budget: usize,
) -> (CellOutcome<(Vec<u32>, f64)>, &'static str) {
    let policy = CellPolicy::retrying(1);
    match task {
        QueryTask::Mcp => {
            let outcome = run_cell_armed(&policy, None, FALLBACK_SITE, || {
                let mut td = TopDegree;
                let sol = td.solve(&ds.mcp_graph, budget);
                let quality = state.mcp_scorer.score(&ds.mcp_graph, &sol.seeds);
                (sol.seeds, quality)
            });
            (outcome, "TopDegree (degraded)")
        }
        QueryTask::Im => {
            let outcome = run_cell_armed(&policy, None, FALLBACK_SITE, || {
                let (seeds, _covered) = ds.sketch.greedy_max_coverage(budget);
                let quality = ds.im_scorer.normalized(&seeds);
                (seeds, quality)
            });
            (outcome, "RR-sketch (degraded)")
        }
    }
}

/// Answers one planned item on `solver`, the lane [`plan_one`] chose. A
/// degrade goes straight to the fallback engine; an admitted request runs
/// the solver in a fault cell under its deadline and falls back on a
/// panic, an overrun or a non-finite quality. `cache` is the lane's
/// budget-ascending answer cache (longest answer per dataset), or `None`
/// to always solve. Returns the response, with `runtime_secs` left at 0.0
/// for the caller, and whether its seeds came from the cache.
fn execute(
    state: &ServeState,
    solver: &mut LaneSolver<'_>,
    item: &ExecItem,
    cache: Option<&mut BTreeMap<usize, Vec<u32>>>,
) -> (Response, bool) {
    let ds = &state.datasets[item.ds];
    let task = solver.task();
    let budget = item.req.budget;
    let degrade = |reason: String, attempts: u32| {
        let resp = degraded_response(state, ds, task, item.seq, &item.req, reason, attempts);
        (resp, false)
    };
    let (armed, poison) = match &item.mode {
        ExecMode::Fallback { reason } => return degrade(reason.clone(), 1),
        ExecMode::Full { armed, poison } => (*armed, *poison),
    };
    let policy = match item.req.deadline_ms {
        Some(ms) => CellPolicy::retrying(MAX_ATTEMPTS).with_deadline(ms as f64 / 1000.0),
        None => CellPolicy::retrying(MAX_ATTEMPTS),
    };
    let cached = cache
        .as_ref()
        .and_then(|c| c.get(&item.ds))
        .filter(|s| s.len() >= budget)
        .cloned();
    let outcome = run_cell_armed(&policy, armed, FAULT_SITE, || {
        if let Some(full) = &cached {
            let seeds = full[..budget].to_vec();
            let quality = score(state, ds, task, &seeds);
            return (seeds, quality, true);
        }
        let seeds = solver.solve(ds, budget);
        let quality = score(state, ds, task, &seeds);
        (seeds, quality, false)
    });
    let (seeds, quality, from_cache, attempts) = match outcome {
        CellOutcome::Completed {
            value: (seeds, quality, from_cache),
            attempts,
            ..
        } => (seeds, quality, from_cache, attempts),
        CellOutcome::Failed {
            error, attempts, ..
        } => return degrade(stable_reason(&error), attempts),
    };
    let quality = if poison { f64::NAN } else { quality };
    if !quality.is_finite() {
        return degrade(
            format!("non-finite quality from {}", item.req.solver),
            attempts,
        );
    }
    if let Some(cache) = cache {
        if !from_cache && cache.get(&item.ds).map_or(0, |s| s.len()) < seeds.len() {
            cache.insert(item.ds, seeds.clone());
        }
    }
    let resp = Response {
        seq: item.seq,
        id: Some(item.req.id),
        verdict: Verdict::Served,
        solver: item.req.solver.clone(),
        served_by: Some(item.req.solver.clone()),
        budget,
        seeds,
        quality,
        reason: None,
        attempts,
        runtime_secs: 0.0,
    };
    (resp, from_cache)
}

/// Answers every item of one lane, in request order. Returns
/// `(seq, response, real_latency_secs, was_cache_hit)` per item.
fn run_lane(
    state: &ServeState,
    solver: &mut LaneSolver<'_>,
    work: &[ExecItem],
    opts: &EngineOptions,
    lane_idx: usize,
) -> Vec<(usize, Response, f64, bool)> {
    let mut cache: BTreeMap<usize, Vec<u32>> = BTreeMap::new();
    let cacheable = prefix_safe(state, solver.task(), lane_idx);
    let mut out = Vec::with_capacity(work.len());
    for item in work {
        let sw = Stopwatch::start();
        let (mut response, from_cache) =
            execute(state, solver, item, cacheable.then_some(&mut cache));
        let real_secs = sw.elapsed_secs();
        response.runtime_secs = if opts.deterministic_timing {
            0.0
        } else {
            real_secs
        };
        out.push((item.seq, response, real_secs, from_cache));
    }
    out
}

fn score(state: &ServeState, ds: &DatasetState, task: QueryTask, seeds: &[u32]) -> f64 {
    match task {
        QueryTask::Mcp => state.mcp_scorer.score(&ds.mcp_graph, seeds),
        QueryTask::Im => ds.im_scorer.normalized(seeds),
    }
}

/// Answers a request via the fallback engine and builds the degraded (or,
/// if even the fallback fails, error) response. `runtime_secs` is left at
/// 0.0 for the caller to fill.
fn degraded_response(
    state: &ServeState,
    ds: &DatasetState,
    task: QueryTask,
    seq: usize,
    req: &Request,
    reason: String,
    primary_attempts: u32,
) -> Response {
    let (outcome, engine) = fallback_answer(state, ds, task, req.budget);
    match outcome {
        CellOutcome::Completed {
            value: (seeds, quality),
            ..
        } => Response {
            seq,
            id: Some(req.id),
            verdict: Verdict::Degraded,
            solver: req.solver.clone(),
            served_by: Some(engine.to_string()),
            budget: req.budget,
            seeds,
            quality: if quality.is_finite() { quality } else { 0.0 },
            reason: Some(reason),
            attempts: primary_attempts,
            runtime_secs: 0.0,
        },
        CellOutcome::Failed { error, .. } => error_response(
            seq,
            req,
            format!("{reason}; fallback failed: {}", stable_reason(&error)),
        ),
    }
}

fn quantile_ms(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[pos.min(sorted.len() - 1)]
}

/// Replays a JSONL request log against the preloaded state and returns
/// the aggregate report plus the full response journal. See the module
/// docs for the determinism contract.
pub fn replay(
    state: &ServeState,
    pool: &mut SolverPool,
    log: &[u8],
    opts: &EngineOptions,
) -> EngineReport {
    let _span = mcpb_trace::span("serve.replay");
    // -- plan: sequential, request order --------------------------------
    let mut load = LoadModel::new(opts.admission);
    let mut ready: Vec<(usize, Response)> = Vec::new();
    let mut lane_work: Vec<Vec<ExecItem>> = (0..state.num_lanes()).map(|_| Vec::new()).collect();
    let mut seq = 0usize;
    for line in log.split(|b| *b == b'\n') {
        if line.iter().all(|b| b.is_ascii_whitespace()) {
            continue;
        }
        seq += 1;
        match plan_one(state, &mut load, seq, line) {
            Planned::Ready(resp) => ready.push((seq, resp)),
            Planned::Exec(lane, item) => lane_work[lane].push(item),
        }
    }
    let requests = seq;

    // -- execute: parallel lanes, request order within each lane --------
    let mut lane_jobs: Vec<(LaneSolver<'_>, Vec<ExecItem>)> = lanes(pool).zip(lane_work).collect();
    let lane_results: Vec<Vec<(usize, Response, f64, bool)>> =
        mcpb_par::for_each_mut(&mut lane_jobs, |i, (solver, work)| {
            run_lane(state, solver, work, opts, i)
        });
    // The planned requests are spent: free them before the journal grows.
    drop(lane_jobs);

    // -- commit: sequential, request order ------------------------------
    let mut slots: Vec<Option<(Response, f64, bool)>> = (0..requests).map(|_| None).collect();
    let mut duplicated = 0usize;
    for (seq, resp) in ready {
        if slots[seq - 1].replace((resp, 0.0, false)).is_some() {
            duplicated += 1;
        }
    }
    for (seq, resp, secs, cache_hit) in lane_results.into_iter().flatten() {
        if slots[seq - 1].replace((resp, secs, cache_hit)).is_some() {
            duplicated += 1;
        }
    }

    let header = JournalHeader {
        seed: state.seed,
        config_hash: state.config_hash,
        label: opts.label.clone(),
    };
    let mut journal = header.to_line();
    journal.push('\n');
    let mut report = EngineReport {
        requests,
        served: 0,
        degraded: 0,
        shed: 0,
        errors: 0,
        cache_hits: 0,
        lost: 0,
        duplicated,
        p50_ms: 0.0,
        p99_ms: 0.0,
        journal: String::new(),
    };
    let mut latencies_ms: Vec<f64> = Vec::with_capacity(requests);
    for (i, slot) in slots.into_iter().enumerate() {
        let Some((resp, secs, cache_hit)) = slot else {
            report.lost += 1;
            continue;
        };
        match resp.verdict {
            Verdict::Served => report.served += 1,
            Verdict::Degraded => report.degraded += 1,
            Verdict::Shed => report.shed += 1,
            Verdict::Error => report.errors += 1,
        }
        if cache_hit {
            report.cache_hits += 1;
        }
        let ms = secs * 1_000.0;
        latencies_ms.push(ms);
        if mcpb_trace::is_enabled() {
            mcpb_trace::observe("serve.latency_ms", ms);
            mcpb_trace::counter_add("serve.responses", 1);
        }
        let entry = JournalEntry {
            cell: Response::cell_key(i + 1),
            status: match resp.verdict {
                Verdict::Error => EntryStatus::Failed,
                _ => EntryStatus::Completed,
            },
            attempts: resp.attempts,
            elapsed_secs: if opts.deterministic_timing { 0.0 } else { secs },
            error: match resp.verdict {
                Verdict::Error => resp.reason.clone(),
                _ => None,
            },
            payload: match resp.verdict {
                Verdict::Error => None,
                _ => Some(resp.body_json()),
            },
        };
        journal.push_str(&entry.to_line());
        journal.push('\n');
    }
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("invariant: latencies are finite"));
    report.p50_ms = quantile_ms(&latencies_ms, 0.50);
    report.p99_ms = quantile_ms(&latencies_ms, 0.99);
    report.journal = journal;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::{generate_log, LoadGenConfig};
    use crate::state::{preload, ServeConfig};
    use mcpb_resilience::fault::FaultPlan;
    use mcpb_resilience::journal::parse_journal;
    use mcpb_resilience::normalize_timing;

    fn req(id: u64, task: &str, solver: &str, budget: usize) -> String {
        format!(
            "{{\"id\":{id},\"task\":\"{task}\",\"dataset\":\"Damascus\",\"solver\":\"{solver}\",\"budget\":{budget}}}\n"
        )
    }

    /// Answers each line of `log` in order through [`plan_one`] and
    /// [`execute`] with one load model and no answer cache, and returns the
    /// response bodies.
    fn answer_uncached(
        state: &ServeState,
        pool: &mut SolverPool,
        log: &[u8],
        admission: AdmissionConfig,
    ) -> Vec<String> {
        let mut load = LoadModel::new(admission);
        let mut bodies = Vec::new();
        for line in log.split(|b| *b == b'\n') {
            if line.iter().all(u8::is_ascii_whitespace) {
                continue;
            }
            let resp = match plan_one(state, &mut load, bodies.len() + 1, line) {
                Planned::Ready(resp) => resp,
                Planned::Exec(lane, item) => {
                    let mut solver = lanes(pool)
                        .nth(lane)
                        .expect("invariant: plan_one picks a lane of this pool");
                    execute(state, &mut solver, &item, None).0
                }
            };
            bodies.push(resp.body_json());
        }
        bodies
    }

    /// Asserts that every body equals replay's journal entry for the same
    /// line, wall-clock fields aside. Error entries carry no payload, so
    /// those compare by verdict and reason.
    fn assert_bodies_match_journal(bodies: &[String], journal: &str) {
        let journal = parse_journal(journal).expect("replay journal parses");
        assert_eq!(journal.entries.len(), bodies.len());
        for (i, (body, entry)) in bodies.iter().zip(&journal.entries).enumerate() {
            match &entry.payload {
                Some(payload) => assert_eq!(
                    normalize_timing(body),
                    normalize_timing(payload),
                    "line {} differs",
                    i + 1
                ),
                None => {
                    let v: serde::Value = serde_json::from_str(body).expect("body parses");
                    assert_eq!(
                        v.get("verdict").and_then(|x| x.as_str()),
                        Some("error"),
                        "line {}: {body}",
                        i + 1
                    );
                    assert_eq!(
                        v.get("reason").and_then(|x| x.as_str()),
                        entry.error.as_deref(),
                        "line {}: {body}",
                        i + 1
                    );
                }
            }
        }
    }

    /// Replay's budget-ascending cache never changes a response body: a log
    /// answered line by line without the cache gets replay's journal,
    /// cache hits included, clean and under a fault plan.
    #[test]
    fn uncached_answers_match_the_replay_journal() {
        let _g = crate::test_serial();
        let cfg = ServeConfig {
            datasets: vec!["Damascus".to_string()],
            mcp_solvers: vec![McpMethodKind::LazyGreedy, McpMethodKind::TopDegree],
            im_solvers: vec![ImMethodKind::DDiscount],
            rr_sets: 300,
        };
        let (state, mut pool) = preload(&cfg).expect("preload");
        // A burst log (admit, degrade, shed and malformed lines), then
        // descending budgets on prefix-safe solvers, which replay answers
        // from its cache, then an unknown solver.
        let mut log = generate_log(
            &state,
            &LoadGenConfig {
                requests: 120,
                seed: 5,
                burst: true,
            },
        );
        let mut id = 1_000u64;
        for &b in &[12usize, 8, 4, 2, 6, 10] {
            id += 1;
            log.push_str(&req(id, "mcp", "TopDegree", b));
            id += 1;
            log.push_str(&req(id, "im", "DDiscount", b));
            id += 1;
            log.push_str(&req(id, "mcp", "LazyGreedy", b));
        }
        log.push_str(&req(id + 1, "mcp", "NoSuchSolver", 3));
        let opts = EngineOptions {
            deterministic_timing: true,
            ..EngineOptions::default()
        };

        for plan in [
            None,
            Some("panic@serve.query:2; nan@serve.query:4; chaos@7:10"),
        ] {
            let install = || {
                fault::clear();
                if let Some(plan) = plan {
                    fault::install(FaultPlan::parse(plan).expect("plan"));
                }
            };
            install();
            let report = replay(&state, &mut pool, log.as_bytes(), &opts);
            install();
            let bodies = answer_uncached(&state, &mut pool, log.as_bytes(), opts.admission);
            fault::clear();
            assert!(
                report.cache_hits > 0,
                "descending budgets must hit replay's cache (plan {plan:?})"
            );
            assert!(report.served > 0 && report.degraded > 0 && report.shed > 0);
            assert!(report.errors > 0);
            assert_bodies_match_journal(&bodies, &report.journal);
        }
    }
}
