//! The four workloads and the loop that runs one of them.
//!
//! A run sets a workload up at least [`SETUPS`] times, and cheap set-ups
//! until [`SETUP_SECONDS`] have passed, then repeats its cycle at least
//! [`Bench::MIN_CYCLES`] times and until the requested seconds have passed. Times are
//! medians over these passes (see [`typical_s`]). Every cycle must give the
//! same answers; the
//! digest of the first is printed. With tracing asked for, one more set-up
//! and cycle run with `mcpb-trace` on, and the span self-times and counters
//! the program records are folded into the per-layer metrics.

mod drl_mcp;
mod im_solve;
mod large_rr;
mod serve_replay;

use crate::metrics::{Metric, Outcome, END_TO_END, PER_LAYER};
use crate::record::{cpu_ticks, Phase, Recorder};
use crate::stats::{median, relative_spread, share};
use mcpb_trace::TraceSummary;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Fewest set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Cheap set-ups repeat until this much set-up time has passed, so their
/// median rests on more samples.
pub const SETUP_SECONDS: f64 = 2.0;

/// Most set-ups per run.
const MAX_SETUPS: usize = 50;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// S2V-DQN and GCOMB: train, then answer MCP queries.
    DrlMcp,
    /// IMM and OPIM on mid-size catalog graphs.
    ImSolve,
    /// Replay of a generated request log through the query service.
    ServeReplay,
    /// The 1M-node tier: streamed build, disk cache, sharded RR sampling.
    LargeRr,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::DrlMcp,
        Workload::ImSolve,
        Workload::ServeReplay,
        Workload::LargeRr,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DrlMcp => "drl-mcp",
            Workload::ImSolve => "im-solve",
            Workload::ServeReplay => "serve-replay",
            Workload::LargeRr => "large-rr",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: the benchmark's own, or a tiny one for self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` measures.
    Full,
    /// Seconds-scale inputs that reach every code path.
    Tiny,
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Seed every input is made from.
    pub seed: u64,
    /// Seconds to keep repeating the cycle.
    pub seconds: f64,
    /// Add the traced pass and report per-layer metrics.
    pub trace: bool,
    /// `mcpb-par` pool width.
    pub threads: usize,
    /// Input size.
    pub size: Size,
    /// Directory for the disk cache and the trace file.
    pub out_dir: PathBuf,
}

/// What a run produced.
#[derive(Debug)]
pub struct RunReport {
    /// The result line.
    pub outcome: Outcome,
    /// FNV-1a digest of every answer of one cycle.
    pub digest: u64,
    /// One message per failed check.
    pub failures: Vec<String>,
    /// Where the traced pass's spans were written.
    pub trace_file: Option<PathBuf>,
}

/// A workload: a set-up whose result the cycles reuse.
trait Bench {
    type State;
    /// Fewest cycles per run, so a median can set slow cycles aside.
    const MIN_CYCLES: usize = 3;
    /// Builds the state the cycles use; calls into the program go through
    /// `rec` with [`Phase::Setup`].
    fn setup(&self, rec: &mut Recorder) -> Result<Self::State, String>;
    /// Runs the workload once, checking every answer.
    fn cycle(&self, state: &mut Self::State, rec: &mut Recorder);
}

/// Derives an independent seed for one input from the run seed.
pub(crate) fn derive(seed: u64, salt: u64) -> u64 {
    // splitmix64 of the pair.
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Runs one workload as `opts` asks.
pub fn run(opts: &Options) -> Result<RunReport, String> {
    mcpb_par::set_thread_override(Some(opts.threads.max(1)));
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.out_dir.display()))?;
    match opts.workload {
        Workload::DrlMcp => drive(&drl_mcp::DrlMcp::new(opts), opts),
        Workload::ImSolve => drive(&im_solve::ImSolve::new(opts), opts),
        Workload::ServeReplay => drive(&serve_replay::ServeReplay::new(opts), opts),
        Workload::LargeRr => drive(&large_rr::LargeRr::new(opts), opts),
    }
}

fn drive<B: Bench>(bench: &B, opts: &Options) -> Result<RunReport, String> {
    mcpb_trace::set_enabled(false);
    mcpb_trace::reset();
    mcpb_trace::alloc::reset_peak();

    let mut setups: Vec<Recorder> = Vec::new();
    let mut state = None;
    while setups.len() < SETUPS
        || (setups.len() < MAX_SETUPS
            && setups.iter().map(|r| r.wall_s(None)).sum::<f64>() < SETUP_SECONDS)
    {
        drop(state.take());
        let mut rec = Recorder::default();
        state = Some(bench.setup(&mut rec)?);
        setups.push(rec);
    }
    let mut state = state.expect("invariant: at least one set-up ran");

    let cpu_before = cpu_ticks();
    let start = Instant::now();
    let mut cycles: Vec<Recorder> = Vec::new();
    while cycles.len() < B::MIN_CYCLES || start.elapsed().as_secs_f64() < opts.seconds {
        let mut rec = Recorder::default();
        bench.cycle(&mut state, &mut rec);
        if let Some(first) = cycles.first() {
            if first.digest != rec.digest {
                rec.failures.push(format!(
                    "cycle {} answers differ from cycle 1",
                    cycles.len() + 1
                ));
            }
        }
        cycles.push(rec);
    }
    let cpu_after = cpu_ticks();
    drop(state);
    let peak_bytes = mcpb_trace::alloc::peak_bytes();

    let traced = if opts.trace {
        Some(traced_pass(bench, opts)?)
    } else {
        None
    };

    let setup_s = typical_s(&setups, None);
    let wall_s = setup_s + typical_s(&cycles, None);

    let all = || setups.iter().chain(&cycles);
    let attempted: u64 = all().map(|r| r.attempted).sum();
    let refused: u64 = all().map(|r| r.refused).sum();
    let failures: Vec<String> = all().flat_map(|r| r.failures.iter().cloned()).collect();
    let failed = failures.len() as u64;
    let quality = &cycles[0].quality;

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    values.insert("setup_s", setup_s);
    values.insert("wall_s", wall_s);
    values.insert("query_s", typical_s(&cycles, Some(Phase::Query)));
    values.insert("peak_mb", peak_bytes as f64 / (1024.0 * 1024.0));
    values.insert(
        "quality",
        quality.iter().sum::<f64>() / quality.len().max(1) as f64,
    );
    values.insert("train_s", typical_s(&cycles, Some(Phase::Train)));
    values.insert(
        "fail_share",
        share((failed + refused) as f64, attempted as f64),
    );
    for group in [&setups, &cycles] {
        let keys: std::collections::BTreeSet<&'static str> = group
            .iter()
            .flat_map(|r| r.ms.keys().chain(r.values.keys()).copied())
            .collect();
        for key in keys {
            let per_pass: Vec<f64> = group
                .iter()
                .map(|r| r.ms.get(key).or(r.values.get(key)).copied().unwrap_or(0.0))
                .collect();
            values.insert(key, median(&per_pass));
        }
    }
    let allocs = |group: &[Recorder], phase: Phase| {
        let per_pass: Vec<f64> = group
            .iter()
            .map(|r| r.phase_allocs.get(&phase).copied().unwrap_or(0) as f64)
            .collect();
        median(&per_pass)
    };
    values.insert("alloc.calls.setup", allocs(&setups, Phase::Setup));
    values.insert("alloc.calls.train", allocs(&cycles, Phase::Train));
    values.insert("alloc.calls.query", allocs(&cycles, Phase::Query));
    if let (Some((u0, s0)), Some((u1, s1))) = (cpu_before, cpu_after) {
        let (user, sys) = (u1.saturating_sub(u0), s1.saturating_sub(s0));
        values.insert("proc.sys_share", share(sys as f64, (user + sys) as f64));
    }
    values.insert("par.threads", mcpb_par::effective_threads() as f64);
    values.insert("bench.cycles", cycles.len() as f64);
    let cycle_walls: Vec<f64> = cycles.iter().map(|r| r.wall_s(None)).collect();
    values.insert(
        "bench.cycle_spread",
        relative_spread(&cycle_walls).unwrap_or(0.0),
    );

    let mut trace_file = None;
    if let Some((summary, traced_wall_s, path)) = traced {
        fold_trace(&summary, &mut values);
        values.insert("trace.overhead", share(traced_wall_s, wall_s));
        trace_file = Some(path);
    }

    let defs = if opts.trace { PER_LAYER } else { END_TO_END };
    let metrics = defs
        .iter()
        .map(|&def| Metric {
            def,
            value: values.get(def.name).copied().unwrap_or(0.0),
        })
        .collect();
    Ok(RunReport {
        outcome: Outcome {
            correct: failures.is_empty(),
            attempted,
            failed,
            metrics,
        },
        digest: cycles[0].digest.value(),
        failures,
        trace_file,
    })
}

/// One set-up and one cycle with tracing on. Spans stay in memory and are
/// written once, at the end, as `mcpb-trace` JSONL summary rows that
/// `mcpbench obs report` reads.
fn traced_pass<B: Bench>(
    bench: &B,
    opts: &Options,
) -> Result<(TraceSummary, f64, PathBuf), String> {
    mcpb_trace::reset();
    mcpb_trace::set_enabled(true);
    let mut setup = Recorder::default();
    let outcome = bench.setup(&mut setup).map(|mut state| {
        let mut cycle = Recorder::default();
        bench.cycle(&mut state, &mut cycle);
        setup.wall_s(None) + cycle.wall_s(None)
    });
    let summary = mcpb_trace::snapshot();
    let path = trace_path(&opts.out_dir, opts);
    let written =
        mcpb_trace::set_jsonl_path(&path.to_string_lossy()).map(|()| mcpb_trace::flush_summary());
    mcpb_trace::set_enabled(false);
    mcpb_trace::reset();
    let traced_wall_s = outcome?;
    written.map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok((summary, traced_wall_s, path))
}

/// Typical seconds one pass spends in `phase` (or in all phases): the
/// median of each timed call across passes, summed over calls, so a slow
/// moment during one call of one pass moves nothing. Passes whose calls do
/// not line up fall back to the median of their totals.
fn typical_s(passes: &[Recorder], phase: Option<Phase>) -> f64 {
    let first = &passes[0].calls;
    let aligned = passes.iter().all(|r| {
        r.calls.len() == first.len() && r.calls.iter().zip(first).all(|(a, b)| a.0 == b.0)
    });
    if !aligned {
        return median(&passes.iter().map(|r| r.wall_s(phase)).collect::<Vec<_>>());
    }
    (0..first.len())
        .filter(|&i| phase.is_none_or(|want| first[i].0 == want))
        .map(|i| median(&passes.iter().map(|r| r.calls[i].1).collect::<Vec<_>>()))
        .fold(0.0, |acc, secs| acc + secs)
}

fn trace_path(dir: &Path, opts: &Options) -> PathBuf {
    dir.join(format!(
        "trace-{}-seed{}.jsonl",
        opts.workload.name(),
        opts.seed
    ))
}

/// Folds the program's own spans and counters into per-layer metrics:
/// self time summed over every path ending in the span's name.
fn fold_trace(summary: &TraceSummary, values: &mut BTreeMap<&'static str, f64>) {
    let self_ms = |keep: &dyn Fn(&str) -> bool| -> f64 {
        summary
            .spans
            .iter()
            .filter(|s| keep(s.name()))
            .fold(0.0, |acc, s| acc + s.self_nanos as f64 / 1e6)
    };
    for (metric, span) in [
        ("graph.sample_subgraph.self_ms", "graph.sample_subgraph"),
        ("nn.forward.self_ms", "nn.forward"),
        ("nn.backward.self_ms", "nn.backward"),
        ("mcp.lazy_greedy.self_ms", "mcp.lazy_greedy"),
        ("im.rr_sample.self_ms", "im.rr_sample"),
        ("im.rr_greedy.self_ms", "im.rr_greedy"),
        ("im.imm.self_ms", "im.imm"),
        ("im.opim.self_ms", "im.opim"),
        ("serve.replay.self_ms", "serve.replay"),
    ] {
        values.insert(metric, self_ms(&|name| name == span));
    }
    // `train.<solver>`: the training loop's own code — replay, reward
    // oracle and optimiser — outside the nn spans.
    values.insert(
        "drl.train_loop.self_ms",
        self_ms(&|name| name.starts_with("train.")),
    );
    let calls: u64 = summary
        .spans
        .iter()
        .filter(|s| s.name() == "nn.forward")
        .map(|s| s.calls)
        .sum();
    values.insert("nn.forward.calls", calls as f64);
    for name in ["im.rr_sets_sampled", "im.rr_shards"] {
        values.insert(name, summary.counter(name).unwrap_or(0) as f64);
    }
    let shard_peak = summary
        .histograms
        .iter()
        .find(|h| h.name == "im.rr_shard_peak_bytes")
        .map_or(0.0, |h| h.max);
    values.insert("im.rr_shard_peak_bytes", shard_peak);
}
