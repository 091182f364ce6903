//! Deterministic load generator: a seeded JSONL request log for replay,
//! chaos testing, and latency benchmarking.
//!
//! The generator is a pure function of its config — the same seed always
//! yields the same bytes, so a generated log can be replayed at different
//! thread counts (or on different machines) and the response journals
//! diffed bit-for-bit. The mix covers both tasks, every preloaded solver,
//! a spread of budgets, per-request deadlines, and an optional *burst
//! window* of expensive-cost requests that drives the admission ladder
//! through degrade and shed. A small fraction of lines is deliberately
//! malformed so replays also exercise the typed error path.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::proto::MAX_BUDGET;
use crate::state::ServeState;

/// Load-generator knobs.
#[derive(Debug, Clone)]
pub struct LoadGenConfig {
    /// Number of request lines to emit.
    pub requests: usize,
    /// RNG seed; the log is a pure function of the config.
    pub seed: u64,
    /// Emit a mid-log burst of maximum-cost requests that overloads
    /// admission (exercises degrade + shed).
    pub burst: bool,
}

impl Default for LoadGenConfig {
    fn default() -> Self {
        LoadGenConfig {
            requests: 200,
            seed: 7,
            burst: false,
        }
    }
}

/// Probability a line is deliberately malformed (typed-error path).
const MALFORMED_RATE: f64 = 0.03;
/// Probability a request carries a tight deadline.
const DEADLINE_RATE: f64 = 0.10;

/// Generates a JSONL request log against the preloaded `state`. Requests
/// reference only preloaded datasets and solvers (apart from the
/// deliberate malformed fraction).
pub fn generate_log(state: &ServeState, cfg: &LoadGenConfig) -> String {
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let mut out = String::new();
    let burst_lo = cfg.requests / 3;
    let burst_hi = burst_lo + cfg.requests / 4;
    for i in 0..cfg.requests {
        if rng.gen_bool(MALFORMED_RATE) {
            out.push_str(malformed_line(&mut rng));
            out.push('\n');
            continue;
        }
        let in_burst = cfg.burst && i >= burst_lo && i < burst_hi;
        let pick_im =
            !state.im_kinds.is_empty() && (state.mcp_kinds.is_empty() || rng.gen_bool(0.5));
        let (task, solver) = if pick_im {
            let k = rng.gen_range(0..state.im_kinds.len());
            ("im", state.im_kinds[k].name())
        } else {
            let k = rng.gen_range(0..state.mcp_kinds.len());
            ("mcp", state.mcp_kinds[k].name())
        };
        let ds = &state.datasets[rng.gen_range(0..state.datasets.len())].name;
        let budget = rng.gen_range(1..=MAX_BUDGET.min(20));
        out.push_str(&format!(
            "{{\"id\":{id},\"task\":\"{task}\",\"dataset\":\"{ds}\",\"solver\":\"{solver}\",\"budget\":{budget}",
            id = i + 1,
        ));
        if in_burst {
            // Saturate admission: each burst request claims the whole queue
            // budget's worth of work.
            out.push_str(",\"cost\":40");
        }
        if rng.gen_bool(DEADLINE_RATE) {
            let ms = rng.gen_range(50u64..500);
            out.push_str(&format!(",\"deadline_ms\":{ms}"));
        }
        out.push_str("}\n");
    }
    out
}

fn malformed_line(rng: &mut ChaCha8Rng) -> &'static str {
    const BAD: [&str; 6] = [
        "{\"id\":",
        "not json at all",
        "[1,2,3]",
        "{\"id\":1,\"task\":\"mcp\"}",
        "{\"id\":1,\"task\":\"juggling\",\"dataset\":\"Damascus\",\"solver\":\"TopDegree\",\"budget\":5}",
        "{\"id\":1,\"task\":\"mcp\",\"dataset\":\"Damascus\",\"solver\":\"TopDegree\",\"budget\":0}",
    ];
    BAD[rng.gen_range(0..BAD.len())]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{preload, ServeConfig};

    fn tiny_state() -> std::sync::Arc<ServeState> {
        let cfg = ServeConfig {
            datasets: vec!["Damascus".to_string()],
            rr_sets: 200,
            ..ServeConfig::default()
        };
        preload(&cfg).expect("preload").0
    }

    #[test]
    fn same_seed_same_bytes() {
        let state = tiny_state();
        let cfg = LoadGenConfig {
            requests: 120,
            burst: true,
            ..LoadGenConfig::default()
        };
        assert_eq!(generate_log(&state, &cfg), generate_log(&state, &cfg));
        let other = LoadGenConfig {
            seed: cfg.seed + 1,
            ..cfg.clone()
        };
        assert_ne!(generate_log(&state, &cfg), generate_log(&state, &other));
    }

    #[test]
    fn log_parses_apart_from_malformed_fraction() {
        let state = tiny_state();
        let cfg = LoadGenConfig::default();
        let log = generate_log(&state, &cfg);
        let mut ok = 0usize;
        let mut bad = 0usize;
        for line in log.lines() {
            match crate::proto::parse_request(line) {
                Ok(req) => {
                    ok += 1;
                    assert!(state.dataset_index(&req.dataset).is_some());
                    assert!(state.lane_of(req.task, &req.solver).is_some());
                }
                Err(_) => bad += 1,
            }
        }
        assert!(ok > 150, "ok={ok}");
        assert!(bad > 0, "malformed fraction should appear at 3%");
    }
}
