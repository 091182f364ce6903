//! `serve-replay`: preload the query service with its shipped
//! configuration, then replay a generated request log with a burst under
//! the shipped engine and admission options. The workload is a closed
//! loop over a recorded log: replay answers every line as fast as it can,
//! so the figures are service time, not time spent waiting to be sent.
//! The run seed picks the request log; the preloaded state is the shipped
//! `ServeConfig::default()`.

use super::{derive, Bench, Options, Size};
use crate::check;
use crate::record::{Phase, Recorder};
use crate::stats::{share, tail_percentile};
use mcpb_resilience::journal::{parse_journal, EntryStatus};
use mcpb_serve::engine::default_cost;
use mcpb_serve::proto::QueryTask;
use mcpb_serve::{
    generate_log, parse_request, preload, replay, EngineOptions, LoadGenConfig, ServeConfig,
    ServeState, SolverPool,
};
use serde::Value;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

pub(super) struct ServeReplay {
    config: ServeConfig,
    requests: usize,
    log_seed: u64,
    /// The request log, made once: every set-up preloads the same state.
    log: OnceLock<Log>,
}

struct Log {
    text: String,
    /// Per request line: its task and dataset index, or `None` for a line
    /// the service must answer with an error.
    lines: Vec<Option<(QueryTask, usize)>>,
    /// Mean admission cost of the well-formed lines outside the burst, in
    /// work units.
    mean_cost: f64,
    /// Wall milliseconds `generate_log` took.
    gen_ms: f64,
}

pub(super) struct State {
    state: Arc<ServeState>,
    pool: SolverPool,
}

/// Latency metrics per verdict, as (verdict, p50 metric, p99 metric).
const VERDICTS: [(&str, &str, &str); 4] = [
    (
        "served",
        "serve.req_ms.p50.served",
        "serve.req_ms.p99.served",
    ),
    (
        "degraded",
        "serve.req_ms.p50.degraded",
        "serve.req_ms.p99.degraded",
    ),
    ("shed", "serve.req_ms.p50.shed", "serve.req_ms.p99.shed"),
    ("error", "serve.req_ms.p50.error", "serve.req_ms.p99.error"),
];

impl ServeReplay {
    pub(super) fn new(opts: &Options) -> Self {
        ServeReplay {
            config: ServeConfig::default(),
            requests: match opts.size {
                Size::Full => 200_000,
                Size::Tiny => 2_000,
            },
            log_seed: derive(opts.seed, 8),
            log: OnceLock::new(),
        }
    }
}

/// How the service must read one log line: as a query on a preloaded
/// dataset and solver, or as an error. Also returns the request's default
/// admission cost when the line does not set its own (burst lines do).
fn classify(state: &ServeState, line: &str) -> Option<(QueryTask, usize, Option<u64>)> {
    let req = parse_request(line).ok()?;
    let ds = state.dataset_index(&req.dataset)?;
    let lane = state.lane_of(req.task, &req.solver)?;
    let cost = req
        .cost
        .is_none()
        .then(|| default_cost(state, req.task, lane, req.budget));
    Some((req.task, ds, cost))
}

impl Bench for ServeReplay {
    type State = State;

    fn setup(&self, rec: &mut Recorder) -> Result<State, String> {
        let (state, pool) = rec
            .time("serve.preload_ms", Phase::Setup, || preload(&self.config))
            .map_err(|e| format!("preload: {e}"))?;
        // Made once per run and not part of `setup_s`: the log is the
        // benchmark's input, not something a user of the service waits for.
        let log = self.log.get_or_init(|| {
            let start = Instant::now();
            let text = {
                let _span = mcpb_trace::span("serve.gen_log_ms");
                generate_log(
                    &state,
                    &LoadGenConfig {
                        requests: self.requests,
                        seed: self.log_seed,
                        burst: true,
                        ..LoadGenConfig::default()
                    },
                )
            };
            let gen_ms = start.elapsed().as_secs_f64() * 1e3;
            let classified: Vec<_> = text
                .split('\n')
                .filter(|l| !l.bytes().all(|b| b.is_ascii_whitespace()))
                .map(|l| classify(&state, l))
                .collect();
            let costs: Vec<f64> = classified
                .iter()
                .flatten()
                .filter_map(|c| c.2)
                .map(|c| c as f64)
                .collect();
            Log {
                mean_cost: share(costs.iter().sum(), costs.len() as f64),
                lines: classified
                    .iter()
                    .map(|c| c.map(|(t, ds, _)| (t, ds)))
                    .collect(),
                text,
                gen_ms,
            }
        });
        rec.set("serve.gen_log_ms", log.gen_ms);
        Ok(State { state, pool })
    }

    fn cycle(&self, st: &mut State, rec: &mut Recorder) {
        let log = self.log.get().expect("invariant: set-up made the log");
        let opts = EngineOptions::default();
        let what = || "replay".to_string();
        let Some(report) = rec.attempt("serve.replay_ms", Phase::Query, what, || {
            replay(&st.state, &mut st.pool, log.text.as_bytes(), &opts)
        }) else {
            return;
        };
        // The replay itself is one attempt; each request is one more.
        rec.attempted += report.requests as u64;
        let replay_s = rec.ms["serve.replay_ms"] / 1e3;
        rec.check(what, expect_eq("lost", report.lost, 0));
        rec.check(what, expect_eq("duplicated", report.duplicated, 0));
        rec.check(
            what,
            expect_eq("requests", report.requests, log.lines.len()),
        );
        let journal = match parse_journal(&report.journal) {
            Ok(j) => j,
            Err(e) => {
                rec.failures.push(format!("journal does not parse: {e}"));
                return;
            }
        };
        rec.check(
            what,
            expect_eq("journal entries", journal.entries.len(), log.lines.len()),
        );

        let mut latency: [Vec<f64>; 4] = Default::default();
        let mut quality = Vec::new();
        let mut counts = [0usize; 4];
        for (i, (entry, line)) in journal.entries.iter().zip(&log.lines).enumerate() {
            let seq = i + 1;
            let body = entry.payload.as_deref().and_then(Body::read);
            let verdict = match (&entry.status, &body) {
                (EntryStatus::Failed, _) => "error",
                (EntryStatus::Completed, Some(b)) => b.verdict.as_str(),
                _ => "?",
            };
            let Some(slot) = VERDICTS.iter().position(|(v, _, _)| *v == verdict) else {
                rec.failures
                    .push(format!("request {seq}: unreadable response"));
                continue;
            };
            counts[slot] += 1;
            latency[slot].push(entry.elapsed_secs * 1e3);
            rec.digest.str(verdict);
            match (verdict, line) {
                ("error", None) | ("shed", Some(_)) => {}
                ("error", Some(_)) => {
                    rec.failures
                        .push(format!("request {seq}: error on a well-formed line"));
                }
                (_, None) => {
                    rec.failures
                        .push(format!("request {seq}: malformed line answered {verdict}"));
                }
                (_, Some((task, ds))) => {
                    let b = body
                        .as_ref()
                        .expect("invariant: an answered verdict came from a read body");
                    match answered(&st.state, *task, *ds, b) {
                        Ok(q) => {
                            rec.digest.str(b.served_by.as_deref().unwrap_or(""));
                            rec.digest.seeds(&b.seeds);
                            rec.digest.f64(q);
                            quality.push(q);
                        }
                        Err(e) => rec.failures.push(format!("request {seq}: {e}")),
                    }
                }
            }
        }
        let [served, degraded, shed, errors] = counts;
        rec.check(what, expect_eq("served", served, report.served));
        rec.check(what, expect_eq("degraded", degraded, report.degraded));
        rec.check(what, expect_eq("shed", shed, report.shed));
        rec.check(what, expect_eq("errors", errors, report.errors));
        rec.refused += shed as u64;
        rec.quality = quality;

        let requests = report.requests as f64;
        rec.set("serve.served", served as f64);
        rec.set("serve.degraded", degraded as f64);
        rec.set("serve.shed", shed as f64);
        rec.set("serve.errors", errors as f64);
        rec.set("serve.lost", report.lost as f64);
        rec.set("serve.duplicated", report.duplicated as f64);
        rec.set("serve.journal_bytes", report.journal.len() as f64);
        rec.set("degraded_share", share(degraded as f64, requests));
        rec.set("serve.served_share", share(served as f64, requests));
        rec.set("serve.shed_share", share(shed as f64, requests));
        rec.set("serve.error_share", share(errors as f64, requests));
        rec.set(
            "serve.cache_hit_share",
            share(report.cache_hits as f64, (served + degraded) as f64),
        );
        rec.set("req_per_s", share(requests, replay_s));
        rec.set("serve.mean_cost", log.mean_cost);
        rec.set("serve.drain_per_step", opts.admission.drain_per_step as f64);
        for (lat, (_, p50, p99)) in latency.iter().zip(VERDICTS) {
            rec.set(p50, tail_percentile(lat, 0.50).unwrap_or(0.0));
            rec.set(p99, tail_percentile(lat, 0.99).unwrap_or(0.0));
        }
        let answered_ms: Vec<f64> = latency[0].iter().chain(&latency[1]).copied().collect();
        rec.set(
            "req_ms.p50",
            tail_percentile(&answered_ms, 0.50).unwrap_or(0.0),
        );
        rec.set(
            "req_ms.p99",
            tail_percentile(&answered_ms, 0.99).unwrap_or(0.0),
        );
    }
}

fn expect_eq(what: &str, got: usize, want: usize) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: {got}, expected {want}"))
    }
}

/// The fields of a response body the checks read.
struct Body {
    verdict: String,
    /// `None` for shed and error answers.
    served_by: Option<String>,
    budget: usize,
    seeds: Vec<u32>,
    /// NaN when the body carries no quality.
    quality: f64,
}

impl Body {
    /// Reads a response body; `None` when a field is missing or malformed.
    fn read(text: &str) -> Option<Body> {
        let v: Value = serde_json::from_str(text).ok()?;
        let seeds = v
            .get("seeds")?
            .as_array()?
            .iter()
            .map(|s| u32::try_from(s.as_u64()?).ok())
            .collect::<Option<_>>()?;
        Some(Body {
            verdict: v.get("verdict")?.as_str()?.to_string(),
            served_by: v.get("served_by")?.as_str().map(str::to_string),
            budget: usize::try_from(v.get("budget")?.as_u64()?).ok()?,
            seeds,
            quality: v.get("quality")?.as_f64().unwrap_or(f64::NAN),
        })
    }
}

/// Checks one answered response against its request: a valid seed set
/// within budget, and a quality equal to the common scorer's, which it
/// returns.
fn answered(state: &ServeState, task: QueryTask, ds: usize, body: &Body) -> Result<f64, String> {
    let d = &state.datasets[ds];
    let (n, q) = match task {
        QueryTask::Mcp => (
            d.mcp_graph.num_nodes(),
            state.mcp_scorer.score(&d.mcp_graph, &body.seeds),
        ),
        QueryTask::Im => (d.im_graph.num_nodes(), d.im_scorer.normalized(&body.seeds)),
    };
    check::seed_set(&body.seeds, n, body.budget)?;
    check::unit_share(q)?;
    // Written so that a missing (NaN) quality fails too.
    let agrees = (body.quality - q).abs() <= 1e-9 * q.abs().max(1.0);
    if !agrees {
        return Err(format!("quality {}, common scorer gives {q}", body.quality));
    }
    Ok(q)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_a_canonical_body() {
        let text = "{\"id\":7,\"verdict\":\"degraded\",\"solver\":\"CELF-RIS\",\"served_by\":\"rr-sketch\",\
                    \"budget\":3,\"seeds\":[4,1,9],\"quality\":0.25,\"reason\":\"a, b\",\"runtime\":0.001}";
        let b = Body::read(text).expect("reads");
        assert_eq!(b.verdict, "degraded");
        assert_eq!(b.served_by.as_deref(), Some("rr-sketch"));
        assert_eq!(b.budget, 3);
        assert_eq!(b.seeds, vec![4, 1, 9]);
        assert_eq!(b.quality, 0.25);
        let shed = "{\"id\":1,\"verdict\":\"shed\",\"solver\":\"X\",\"served_by\":null,\
                    \"budget\":2,\"seeds\":[],\"quality\":0,\"reason\":null,\"runtime\":0}";
        let b = Body::read(shed).expect("reads");
        assert_eq!(
            (b.verdict.as_str(), b.served_by, b.seeds.len()),
            ("shed", None, 0)
        );
        assert!(Body::read("{\"id\":1}").is_none());
    }
}
