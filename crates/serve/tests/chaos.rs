//! Chaos suite: the serve engine under fault injection, overload, and
//! varying thread counts.
//!
//! Acceptance criteria from the service's robustness contract:
//!
//! * every request gets exactly one typed response — zero lost, zero
//!   duplicated — even with panics/NaNs/stalls injected via the
//!   `MCPB_FAULTS` plan grammar;
//! * failures degrade (typed `degraded` responses naming the reason)
//!   instead of erroring out or killing the server;
//! * a fixed request log produces a bit-identical response journal at
//!   thread counts 1, 2, and 8 under deterministic timing, with and
//!   without faults;
//! * the live socket answers every line of a log as replay does, with and
//!   without faults, although only replay reuses cached answers.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use mcpb_bench::{ImMethodKind, McpMethodKind};
use mcpb_resilience::fault::{self, FaultPlan};
use mcpb_resilience::journal::parse_journal;
use mcpb_resilience::normalize_timing;
use mcpb_serve::engine::replay;
use mcpb_serve::loadgen::{generate_log, LoadGenConfig};
use mcpb_serve::socket::{serve_listener, SocketConfig};
use mcpb_serve::state::{preload, ServeConfig, ServeState, SolverPool};
use mcpb_serve::EngineOptions;

/// Fault plans and the thread override are process-global; chaos tests
/// must not interleave.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

fn shared() -> &'static (Arc<ServeState>, Mutex<SolverPool>) {
    static SHARED: OnceLock<(Arc<ServeState>, Mutex<SolverPool>)> = OnceLock::new();
    SHARED.get_or_init(|| {
        let cfg = ServeConfig {
            datasets: vec!["Damascus".to_string()],
            mcp_solvers: vec![McpMethodKind::LazyGreedy, McpMethodKind::TopDegree],
            im_solvers: vec![ImMethodKind::DDiscount],
            rr_sets: 300,
            ..ServeConfig::default()
        };
        let (state, pool) = preload(&cfg).expect("preload");
        (state, Mutex::new(pool))
    })
}

fn req(id: u64, task: &str, solver: &str, budget: usize) -> String {
    format!(
        "{{\"id\":{id},\"task\":\"{task}\",\"dataset\":\"Damascus\",\"solver\":\"{solver}\",\"budget\":{budget}}}\n"
    )
}

fn req_deadline(id: u64, task: &str, solver: &str, budget: usize, ms: u64) -> String {
    format!(
        "{{\"id\":{id},\"task\":\"{task}\",\"dataset\":\"Damascus\",\"solver\":\"{solver}\",\"budget\":{budget},\"deadline_ms\":{ms}}}\n"
    )
}

fn det_opts() -> EngineOptions {
    EngineOptions {
        deterministic_timing: true,
        ..EngineOptions::default()
    }
}

/// Parsed (verdict, reason) per journal entry, pulled out of the payload /
/// error fields.
fn verdicts(journal: &str) -> Vec<(String, String)> {
    journal
        .lines()
        .skip(1)
        .map(|line| {
            let v: serde::Value = serde_json::from_str(line).expect("journal line parses");
            if let Some(payload) = v.get("payload") {
                let verdict = payload
                    .get("verdict")
                    .and_then(|x| x.as_str())
                    .expect("payload has verdict")
                    .to_string();
                let reason = payload
                    .get("reason")
                    .and_then(|x| x.as_str())
                    .unwrap_or("")
                    .to_string();
                (verdict, reason)
            } else {
                let reason = v
                    .get("error")
                    .and_then(|x| x.as_str())
                    .unwrap_or("")
                    .to_string();
                ("error".to_string(), reason)
            }
        })
        .collect()
}

#[test]
fn fixed_log_is_bit_identical_across_thread_counts() {
    let _g = serial();
    fault::clear();
    let (state, pool) = shared();
    let log = generate_log(
        state,
        &LoadGenConfig {
            requests: 120,
            seed: 11,
            burst: true,
            ..LoadGenConfig::default()
        },
    );
    let mut journals = Vec::new();
    for threads in [1usize, 2, 8] {
        mcpb_par::set_thread_override(Some(threads));
        let mut pool = pool.lock().unwrap_or_else(|p| p.into_inner());
        let report = replay(state, &mut pool, log.as_bytes(), &det_opts());
        assert_eq!(report.lost, 0, "threads={threads}");
        assert_eq!(report.duplicated, 0, "threads={threads}");
        assert_eq!(
            report.requests,
            report.served + report.degraded + report.shed + report.errors,
            "threads={threads}: every request needs exactly one typed response"
        );
        journals.push(report.journal);
    }
    mcpb_par::set_thread_override(None);
    assert_eq!(journals[0], journals[1], "threads 1 vs 2 differ");
    assert_eq!(journals[0], journals[2], "threads 1 vs 8 differ");
}

#[test]
fn injected_panic_degrades_instead_of_killing() {
    let _g = serial();
    let (state, pool) = shared();
    let log: String = (1..=4).map(|i| req(i, "mcp", "TopDegree", 5)).collect();
    fault::install(FaultPlan::parse("panic@serve.query:2").expect("plan"));
    let report = {
        let mut pool = pool.lock().unwrap_or_else(|p| p.into_inner());
        replay(state, &mut pool, log.as_bytes(), &det_opts())
    };
    fault::clear();
    assert_eq!(report.lost, 0);
    assert_eq!(report.served, 3);
    assert_eq!(report.degraded, 1);
    let vs = verdicts(&report.journal);
    assert_eq!(vs[1].0, "degraded");
    assert!(
        vs[1].1.contains("panicked"),
        "degraded response should carry the panic reason, got `{}`",
        vs[1].1
    );
    assert_eq!(vs[0].0, "served");
    assert_eq!(vs[2].0, "served");
    assert_eq!(vs[3].0, "served");
}

#[test]
fn injected_stall_trips_the_deadline() {
    let _g = serial();
    let (state, pool) = shared();
    let log = req_deadline(1, "mcp", "TopDegree", 5, 10) + &req(2, "mcp", "TopDegree", 5);
    fault::install(FaultPlan::parse("stall@serve.query:1=0.05").expect("plan"));
    let report = {
        let mut pool = pool.lock().unwrap_or_else(|p| p.into_inner());
        replay(state, &mut pool, log.as_bytes(), &det_opts())
    };
    fault::clear();
    assert_eq!(report.lost, 0);
    let vs = verdicts(&report.journal);
    assert_eq!(vs[0].0, "degraded");
    assert!(
        vs[0].1.starts_with("deadline exceeded: limit 0.01s"),
        "stable deadline reason expected, got `{}`",
        vs[0].1
    );
    assert_eq!(vs[1].0, "served");
}

#[test]
fn injected_nan_poisons_quality_and_degrades() {
    let _g = serial();
    let (state, pool) = shared();
    let log = req(1, "im", "DDiscount", 4) + &req(2, "im", "DDiscount", 4);
    fault::install(FaultPlan::parse("nan@serve.query:1").expect("plan"));
    let report = {
        let mut pool = pool.lock().unwrap_or_else(|p| p.into_inner());
        replay(state, &mut pool, log.as_bytes(), &det_opts())
    };
    fault::clear();
    assert_eq!(report.lost, 0);
    let vs = verdicts(&report.journal);
    assert_eq!(vs[0].0, "degraded");
    assert!(
        vs[0].1.contains("non-finite quality"),
        "poisoned quality should degrade, got `{}`",
        vs[0].1
    );
    assert_eq!(vs[1].0, "served");
}

#[test]
fn fault_plan_is_bit_identical_across_thread_counts() {
    let _g = serial();
    let (state, pool) = shared();
    let log: String = (1..=12)
        .map(|i| {
            if i % 3 == 0 {
                req(i, "im", "DDiscount", 4)
            } else {
                req(i, "mcp", "TopDegree", 6)
            }
        })
        .collect();
    let mut journals = Vec::new();
    for threads in [1usize, 2, 8] {
        // Reinstall per run: install() resets the site occurrence counters.
        fault::install(FaultPlan::parse("panic@serve.query:3; nan@serve.query:5").expect("plan"));
        mcpb_par::set_thread_override(Some(threads));
        let mut pool = pool.lock().unwrap_or_else(|p| p.into_inner());
        let report = replay(state, &mut pool, log.as_bytes(), &det_opts());
        assert_eq!(report.lost, 0, "threads={threads}");
        assert_eq!(report.degraded, 2, "threads={threads}");
        journals.push(report.journal);
    }
    fault::clear();
    mcpb_par::set_thread_override(None);
    assert_eq!(journals[0], journals[1]);
    assert_eq!(journals[0], journals[2]);
}

#[test]
fn overload_burst_degrades_and_sheds_without_losing_requests() {
    let _g = serial();
    fault::clear();
    let (state, pool) = shared();
    let log = generate_log(
        state,
        &LoadGenConfig {
            requests: 150,
            seed: 5,
            burst: true,
            ..LoadGenConfig::default()
        },
    );
    let report = {
        let mut pool = pool.lock().unwrap_or_else(|p| p.into_inner());
        replay(state, &mut pool, log.as_bytes(), &det_opts())
    };
    assert_eq!(report.lost, 0);
    assert_eq!(report.duplicated, 0);
    assert!(report.served > 0, "some requests serve cleanly");
    assert!(report.degraded > 0, "the burst must trip degradation");
    assert!(report.shed > 0, "the burst must trip shedding");
    assert!(report.errors > 0, "malformed lines get typed errors");
    assert_eq!(
        report.journal.lines().count(),
        report.requests + 1,
        "header plus one journal line per request"
    );
}

/// Sends each line over one connection, one at a time, to a live server
/// on the shared state and pool, and returns the response bodies.
fn answer_over_socket(lines: &[&str]) -> Vec<String> {
    let (state, pool) = shared();
    let mut pool = pool.lock().unwrap_or_else(|p| p.into_inner());
    let lent = std::mem::replace(
        &mut *pool,
        SolverPool {
            mcp: Vec::new(),
            im: Vec::new(),
        },
    );
    let handle =
        serve_listener(Arc::clone(state), lent, &SocketConfig::default()).expect("server binds");
    let addr = handle
        .endpoint()
        .strip_prefix("tcp:")
        .expect("tcp endpoint");
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("stream clones"));
    let mut bodies = Vec::with_capacity(lines.len());
    for line in lines {
        stream
            .write_all(format!("{line}\n").as_bytes())
            .expect("request line writes");
        let mut body = String::new();
        reader.read_line(&mut body).expect("response line reads");
        bodies.push(body.trim_end().to_string());
    }
    drop((stream, reader));
    let (returned, stats) = handle.shutdown_and_join();
    *pool = returned;
    assert_eq!(stats.requests, lines.len() as u64);
    assert!(stats.drained_clean(), "{stats:?}");
    bodies
}

/// Asserts that every socket body equals replay's journal entry for the
/// same line, wall-clock fields aside. Error entries carry no payload, so
/// those compare by verdict and reason.
fn assert_socket_matches_replay(bodies: &[String], journal: &str) {
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
                let v: serde::Value = serde_json::from_str(body).expect("socket body parses");
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

#[test]
fn socket_and_replay_answer_a_log_identically() {
    let _g = serial();
    let (state, pool) = shared();
    // A burst log (admit, degrade, shed and malformed lines), then
    // descending budgets on prefix-safe solvers, which replay answers from
    // its cache and the socket solves afresh, then an unknown solver.
    let mut log = generate_log(
        state,
        &LoadGenConfig {
            requests: 120,
            seed: 5,
            burst: true,
            ..LoadGenConfig::default()
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
    let lines: Vec<&str> = log.lines().collect();

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
        let report = {
            let mut pool = pool.lock().unwrap_or_else(|p| p.into_inner());
            replay(state, &mut pool, log.as_bytes(), &det_opts())
        };
        install();
        let bodies = answer_over_socket(&lines);
        fault::clear();
        assert!(
            report.cache_hits > 0,
            "descending budgets must hit replay's cache (plan {plan:?})"
        );
        assert!(report.served > 0 && report.degraded > 0 && report.shed > 0);
        assert!(report.errors > 0);
        assert_socket_matches_replay(&bodies, &report.journal);
    }
}
