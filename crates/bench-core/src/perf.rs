//! The recorded perf-trajectory suite behind `mcpbench bench`.
//!
//! Every area is timed through one in-tree timer, [`Timer`], and written as
//! one `BENCH_<area>.json` (schema `mcpb-perf/1`), plus a combined
//! `BENCH_REPORT.md`. The areas:
//!
//! * `nn` — the dense matmul microkernel vs its scalar reference, the
//!   GNN-shaped product, SpMM, and a tape forward+backward pass.
//! * `kernels` — coverage-oracle marginal gains and seed insertion (word
//!   level vs the per-node walk reference) and lazy greedy end-to-end.
//! * `im` — RR-set sampling, IC and LT Monte-Carlo at 1/2/4/8 threads
//!   (the scaling curve), each against its pre-PR reference at 1 thread.
//! * `serve` (`mcpb-serve`) — query latency quantiles of a replayed load mix.
//! * `audit` (`mcpbench bench` itself) — the lint engine's lexer, per-file
//!   scan and full workspace pass.
//!
//! Every `<id>` / `<id>_ref` pair also records a median speedup ratio so
//! the report can state "blocked matmul is N× the naive kernel" from the
//! same run that produced the raw nanoseconds. Regressions are caught by
//! [`compare_benches`], which `scripts/bench-ratchet.sh` runs against the
//! committed baselines.

use mcpb_graph::weights::{assign_weights, WeightModel};
use mcpb_graph::{generators, Graph};
use mcpb_nn::prelude::*;
use mcpb_trace::Stopwatch;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Serialize, Value};
use std::hint::black_box;
use std::path::Path;
use std::time::Duration;

/// The thread counts the scaling benches sweep.
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Timed samples per bench.
const SAMPLES: usize = 10;

/// Largest batch the warmup doubles up to.
const MAX_BATCH: u64 = 1 << 20;

/// One recorded bench: the id and its per-call sample statistics.
#[derive(Debug, Clone)]
pub struct Summary {
    /// The id passed to [`Timer::bench`].
    pub id: String,
    /// Number of timed samples.
    pub samples: usize,
    /// Fastest sample, in nanoseconds.
    pub min_nanos: u128,
    /// Median sample (`sorted[len / 2]`), in nanoseconds.
    pub median_nanos: u128,
    /// Mean over all samples, in nanoseconds.
    pub mean_nanos: u128,
}

/// The wall-clock timer every area records through. Per bench, a warmup
/// doubles the batch (up to 2^20 calls) until one batch takes at least
/// 5 ms (500 µs when `quick`); then 10 batches are timed, each sample
/// being the batch time divided by the batch size.
pub struct Timer {
    /// The shortest batch the warmup sizes toward, in nanoseconds.
    warmup_nanos: u64,
    summaries: Vec<Summary>,
}

/// Nanoseconds `batch` back-to-back calls of `routine` take.
fn time_batch<O>(batch: u64, routine: &mut impl FnMut() -> O) -> u64 {
    let watch = Stopwatch::start();
    for _ in 0..batch {
        black_box(routine());
    }
    watch.elapsed_nanos()
}

impl Timer {
    /// A timer with no recorded benches; `quick` shortens the warmup target.
    pub fn new(quick: bool) -> Timer {
        Timer {
            warmup_nanos: if quick { 500_000 } else { 5_000_000 },
            summaries: Vec::new(),
        }
    }

    /// Times `routine` under `id`, prints a one-line summary and records it.
    pub fn bench<O>(&mut self, id: &str, mut routine: impl FnMut() -> O) {
        let mut batch = 1u64;
        while time_batch(batch, &mut routine) < self.warmup_nanos && batch < MAX_BATCH {
            batch *= 2;
        }
        let mut sorted: Vec<u64> = (0..SAMPLES)
            .map(|_| time_batch(batch, &mut routine) / batch)
            .collect();
        sorted.sort_unstable();
        let min = sorted[0];
        let median = sorted[sorted.len() / 2];
        let mean = sorted.iter().sum::<u64>() / sorted.len() as u64;
        let d = Duration::from_nanos;
        println!(
            "{id:<40} min {:>12?}  median {:>12?}  mean {:>12?}  ({} samples)",
            d(min),
            d(median),
            d(mean),
            sorted.len()
        );
        self.summaries.push(Summary {
            id: id.to_string(),
            samples: sorted.len(),
            min_nanos: min.into(),
            median_nanos: median.into(),
            mean_nanos: mean.into(),
        });
    }

    /// Every recorded summary, in [`Timer::bench`] call order.
    pub fn into_summaries(self) -> Vec<Summary> {
        self.summaries
    }
}

/// A `<id>` vs `<id>_ref` median ratio recorded alongside the raw benches.
#[derive(Debug, Clone)]
pub struct Speedup {
    /// Human name, e.g. `dense matmul 256`.
    pub name: String,
    /// Bench id of the optimized kernel.
    pub optimized: String,
    /// Bench id of the reference kernel.
    pub reference: String,
    /// `reference_median / optimized_median`.
    pub ratio: f64,
}

/// One area's results: raw summaries plus derived speedups.
#[derive(Debug)]
pub struct AreaReport {
    /// Area key; the JSON lands in `BENCH_<area>.json`.
    pub area: &'static str,
    /// Raw bench summaries in run order.
    pub benches: Vec<Summary>,
    /// Derived `optimized` vs `reference` ratios.
    pub speedups: Vec<Speedup>,
    /// Extra top-level JSON fields for this area's document — e.g. the
    /// `large` area's per-shard memory block. [`compare_benches`] ignores
    /// unknown fields, so extras never break the ratchet.
    pub extras: Vec<(String, Value)>,
}

impl AreaReport {
    fn median_of(&self, id: &str) -> Option<u128> {
        self.benches
            .iter()
            .find(|s| s.id == id)
            .map(|s| s.median_nanos)
    }

    fn push_speedup(&mut self, name: &str, optimized: &str, reference: &str) {
        if let (Some(opt), Some(refm)) = (self.median_of(optimized), self.median_of(reference)) {
            self.speedups.push(Speedup {
                name: name.to_string(),
                optimized: optimized.to_string(),
                reference: reference.to_string(),
                ratio: refm as f64 / opt.max(1) as f64,
            });
        }
    }
}

fn random_tensor(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    Tensor::xavier(rows, cols, &mut rng)
}

/// `nn` area: dense matmul (blocked vs naive at a square and a GNN-shaped
/// size), SpMM over a BA adjacency, and an MLP forward+backward pass.
pub fn run_nn(quick: bool) -> AreaReport {
    let mut timer = Timer::new(quick);

    let a256 = random_tensor(256, 256, 11);
    let b256 = random_tensor(256, 256, 13);
    timer.bench("nn/matmul_dense_256", || {
        black_box(a256.matmul(&b256)).data[0]
    });
    timer.bench("nn/matmul_dense_256_ref", || {
        black_box(mcpb_nn::reference::matmul_naive(&a256, &b256)).data[0]
    });

    let ag = random_tensor(4096, 64, 17);
    let bg = random_tensor(64, 64, 19);
    timer.bench("nn/matmul_gnn_4096x64", || {
        black_box(ag.matmul(&bg)).data[0]
    });
    timer.bench("nn/matmul_gnn_4096x64_ref", || {
        black_box(mcpb_nn::reference::matmul_naive(&ag, &bg)).data[0]
    });

    let g = generators::barabasi_albert(20_000, 8, 23);
    let triplets: Vec<(u32, u32, f32)> = g
        .nodes()
        .flat_map(|v| {
            g.out_neighbors(v)
                .iter()
                .map(move |&u| (v, u, 1.0f32))
                .collect::<Vec<_>>()
        })
        .collect();
    let adj = SparseMatrix::from_triplets(20_000, 20_000, &triplets);
    let x = random_tensor(20_000, 64, 29);
    timer.bench("nn/spmm_ba20k_64", || {
        black_box(adj.matmul_dense(&x)).data[0]
    });

    let mut store = ParamStore::new(7);
    let mlp = Mlp::new(&mut store, "perf", &[64, 128, 128, 1], Activation::Relu);
    let batch = random_tensor(256, 64, 31);
    let target = Tensor::zeros(256, 1);
    timer.bench("nn/tape_mlp_fwd_bwd_256x64", || {
        let mut tape = Tape::new();
        let xin = tape.input(batch.clone());
        let y = mlp.forward(&mut tape, &store, xin);
        let loss = tape.mse_loss(y, target.clone());
        tape.backward(loss);
        tape.value(loss).item()
    });

    let mut report = AreaReport {
        area: "nn",
        benches: timer.into_summaries(),
        speedups: Vec::new(),
        extras: Vec::new(),
    };
    report.push_speedup(
        "dense matmul 256x256x256",
        "nn/matmul_dense_256",
        "nn/matmul_dense_256_ref",
    );
    report.push_speedup(
        "GNN-shaped matmul 4096x64x64",
        "nn/matmul_gnn_4096x64",
        "nn/matmul_gnn_4096x64_ref",
    );
    report
}

fn kernels_graph() -> Graph {
    generators::barabasi_albert(20_000, 8, 41)
}

/// `kernels` area: coverage-oracle marginal-gain sweeps and seed insertion
/// (word-level vs walk reference) plus the lazy-greedy end-to-end solve.
pub fn run_kernels(quick: bool) -> AreaReport {
    let g = kernels_graph();
    let n = g.num_nodes() as u32; // audit:allow(MCPB006) — bench graphs are fixed-size
    let mut timer = Timer::new(quick);

    let mut seeded = mcpb_mcp::CoverageOracle::new(&g);
    let mut seeded_ref = mcpb_mcp::reference::CoverageOracle::new(&g);
    for v in (0..n).step_by(97) {
        seeded.add_seed(v);
        seeded_ref.add_seed(v);
    }
    timer.bench("kernels/coverage_gain_sweep", || {
        let mut acc = 0usize;
        for v in 0..n {
            acc += seeded.marginal_gain(v);
        }
        black_box(acc)
    });
    timer.bench("kernels/coverage_gain_sweep_ref", || {
        let mut acc = 0usize;
        for v in 0..n {
            acc += seeded_ref.marginal_gain(v);
        }
        black_box(acc)
    });

    timer.bench("kernels/coverage_add_seeds", || {
        let mut o = mcpb_mcp::CoverageOracle::new(&g);
        for v in (0..n).step_by(37) {
            black_box(o.add_seed(v));
        }
        o.covered_count()
    });
    timer.bench("kernels/coverage_add_seeds_ref", || {
        let mut o = mcpb_mcp::reference::CoverageOracle::new(&g);
        for v in (0..n).step_by(37) {
            black_box(o.add_seed(v));
        }
        o.covered_count()
    });

    let g2k = generators::barabasi_albert(2_000, 4, 43);
    timer.bench("kernels/lazy_greedy_2k_k50", || {
        black_box(mcpb_mcp::LazyGreedy::run(&g2k, 50)).covered
    });

    let mut report = AreaReport {
        area: "kernels",
        benches: timer.into_summaries(),
        speedups: Vec::new(),
        extras: Vec::new(),
    };
    report.push_speedup(
        "coverage gain sweep (20k nodes)",
        "kernels/coverage_gain_sweep",
        "kernels/coverage_gain_sweep_ref",
    );
    report.push_speedup(
        "coverage add-seed sweep",
        "kernels/coverage_add_seeds",
        "kernels/coverage_add_seeds_ref",
    );
    report
}

fn im_graph() -> Graph {
    assign_weights(
        &generators::barabasi_albert(5_000, 4, 47),
        WeightModel::WeightedCascade,
        0,
    )
}

/// `im` area: RR sampling, IC MC, and LT MC at 1/2/4/8 threads (the
/// scaling curve), plus the single-threaded references and RR greedy
/// selection.
pub fn run_im(quick: bool) -> AreaReport {
    let g = im_graph();
    let seeds = [0u32, 3, 11, 42, 117];
    let mut timer = Timer::new(quick);

    for t in THREADS {
        mcpb_par::set_thread_override(Some(t));
        timer.bench(&format!("im/rr_sample_20k_t{t}"), || {
            mcpb_im::sample_collection(&g, 20_000, 71).len()
        });
        mcpb_par::set_thread_override(None);
    }
    mcpb_par::set_thread_override(Some(1));
    timer.bench("im/rr_sample_20k_ref_t1", || {
        mcpb_im::reference::sample_collection(&g, 20_000, 71).len()
    });
    mcpb_par::set_thread_override(None);

    for t in THREADS {
        mcpb_par::set_thread_override(Some(t));
        timer.bench(&format!("im/ic_mc_10k_t{t}"), || {
            mcpb_im::influence_mc(&g, &seeds, 10_000, 73).to_bits()
        });
        mcpb_par::set_thread_override(None);
    }
    mcpb_par::set_thread_override(Some(1));
    timer.bench("im/ic_mc_10k_ref_t1", || {
        mcpb_im::reference::influence_mc(&g, &seeds, 10_000, 73).to_bits()
    });
    mcpb_par::set_thread_override(None);

    for t in THREADS {
        mcpb_par::set_thread_override(Some(t));
        timer.bench(&format!("im/lt_mc_5k_t{t}"), || {
            mcpb_im::influence_mc_lt(&g, &seeds, 5_000, 79).to_bits()
        });
        mcpb_par::set_thread_override(None);
    }
    mcpb_par::set_thread_override(Some(1));
    timer.bench("im/lt_mc_5k_ref_t1", || {
        mcpb_im::reference::influence_mc_lt(&g, &seeds, 5_000, 79).to_bits()
    });
    mcpb_par::set_thread_override(None);

    let rr = mcpb_im::sample_collection(&g, 50_000, 83);
    timer.bench("im/rr_greedy_k50", || {
        black_box(rr.greedy_max_coverage(50)).1
    });

    let mut report = AreaReport {
        area: "im",
        benches: timer.into_summaries(),
        speedups: Vec::new(),
        extras: Vec::new(),
    };
    report.push_speedup(
        "RR sampling 20k sets (1 thread)",
        "im/rr_sample_20k_t1",
        "im/rr_sample_20k_ref_t1",
    );
    report.push_speedup(
        "IC Monte-Carlo 10k trials (1 thread)",
        "im/ic_mc_10k_t1",
        "im/ic_mc_10k_ref_t1",
    );
    report.push_speedup(
        "LT Monte-Carlo 5k trials (1 thread)",
        "im/lt_mc_5k_t1",
        "im/lt_mc_5k_ref_t1",
    );
    report
}

/// Runs the areas defined in this crate (`nn`, `kernels`, `im`). Callers
/// that own additional areas (`mcpb-serve`'s latency suite, the `audit`
/// area) append theirs before [`write_reports`].
pub fn collect_areas(quick: bool) -> Vec<AreaReport> {
    vec![run_nn(quick), run_kernels(quick), run_im(quick)]
}

/// Writes one `BENCH_<area>.json` per report plus the combined
/// `BENCH_REPORT.md` under `root`; `quick` is recorded in each document.
pub fn write_reports(root: &Path, reports: &[AreaReport], quick: bool) -> std::io::Result<()> {
    for r in reports {
        let path = root.join(format!("BENCH_{}.json", r.area));
        std::fs::write(&path, render_json(r, quick))?;
        println!("wrote {}", path.display());
    }
    let report_path = root.join("BENCH_REPORT.md");
    std::fs::write(&report_path, render_markdown(reports))?;
    println!("wrote {}", report_path.display());
    Ok(())
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// Renders one area as a `mcpb-perf/1` JSON document recorded with `quick`.
pub fn render_json(report: &AreaReport, quick: bool) -> String {
    let benches = Value::Array(
        report
            .benches
            .iter()
            .map(|s| {
                obj(vec![
                    ("id", s.id.to_value()),
                    ("samples", (s.samples as u64).to_value()),
                    ("min_nanos", (s.min_nanos as u64).to_value()),
                    ("median_nanos", (s.median_nanos as u64).to_value()),
                    ("mean_nanos", (s.mean_nanos as u64).to_value()),
                ])
            })
            .collect(),
    );
    let speedups = Value::Array(
        report
            .speedups
            .iter()
            .map(|s| {
                obj(vec![
                    ("name", s.name.to_value()),
                    ("optimized", s.optimized.to_value()),
                    ("reference", s.reference.to_value()),
                    ("median_ratio", s.ratio.to_value()),
                ])
            })
            .collect(),
    );
    // Host metadata rides along for attribution; `compare_benches` ignores
    // unknown fields, so older baselines stay comparable.
    let host = obj(vec![
        ("threads", (host_threads() as u64).to_value()),
        ("target_cpu", host_target_cpu().to_value()),
        (
            "thread_override",
            match thread_override() {
                Some(n) => (n as u64).to_value(),
                None => Value::Null,
            },
        ),
    ]);
    let mut fields = vec![
        ("schema", "mcpb-perf/1".to_value()),
        ("area", report.area.to_value()),
        ("quick", quick.to_value()),
        ("host_threads", (host_threads() as u64).to_value()),
        ("host", host),
        (
            "threads",
            Value::Array(THREADS.iter().map(|&t| (t as u64).to_value()).collect()),
        ),
        ("benches", benches),
        ("speedups", speedups),
    ];
    for (key, value) in &report.extras {
        fields.push((key.as_str(), value.clone()));
    }
    let doc = obj(fields);
    // Serializing an in-memory value tree is infallible; this renders a
    // report, it never runs inside a sweep cell.
    // audit:allow(MCPB001, MCPB008)
    serde_json::to_string_pretty(&doc).expect("render perf json") + "\n"
}

/// Hardware threads the recording host exposes — context for reading the
/// thread-scaling curves (flat curves on a 1-core box are expected, not a
/// pool bug).
fn host_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The `-C target-cpu=…` the workspace pins (from `RUSTFLAGS` if set, else
/// the workspace `.cargo/config.toml`), or `"generic"` when neither names
/// one. Recorded so a perf regression between two hosts can be attributed
/// to codegen-floor differences instead of kernel changes.
fn host_target_cpu() -> String {
    fn extract(text: &str) -> Option<String> {
        let start = text.find("target-cpu=")? + "target-cpu=".len();
        let rest = &text[start..];
        let end = rest
            .find(|c: char| c == '"' || c == '\'' || c.is_whitespace() || c == ',' || c == ']')
            .unwrap_or(rest.len());
        Some(rest[..end].to_string()).filter(|s| !s.is_empty())
    }
    if let Some(cpu) = std::env::var("RUSTFLAGS").ok().as_deref().and_then(extract) {
        return cpu;
    }
    // crates/bench-core/ -> workspace root.
    let config = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../.cargo/config.toml");
    if let Some(cpu) = std::fs::read_to_string(config)
        .ok()
        .as_deref()
        .and_then(extract)
    {
        return cpu;
    }
    "generic".to_string()
}

/// The thread-count override in effect while recording, if any:
/// `mcpbench --threads` (programmatic) first, then `MCPB_THREADS`.
fn thread_override() -> Option<usize> {
    mcpb_par::thread_override().or_else(|| {
        std::env::var(mcpb_par::ENV_VAR)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
    })
}

fn fmt_nanos(n: u128) -> String {
    if n >= 1_000_000_000 {
        format!("{:.2} s", n as f64 / 1e9)
    } else if n >= 1_000_000 {
        format!("{:.2} ms", n as f64 / 1e6)
    } else if n >= 1_000 {
        format!("{:.2} µs", n as f64 / 1e3)
    } else {
        format!("{n} ns")
    }
}

/// Renders the combined markdown report with per-area tables, speedup
/// ratios, and thread-scaling curves (ids ending in `_t<n>`).
pub fn render_markdown(reports: &[AreaReport]) -> String {
    let mut out = String::new();
    out.push_str("# Perf trajectory report\n\n");
    out.push_str(
        "Produced by `mcpbench bench`. Medians are wall-clock per call on the \
         recording machine; cross-machine comparisons should use the speedup \
         ratios (optimized vs in-tree reference kernel, same run, same box), \
         which are what the acceptance gates read.\n",
    );
    out.push_str(&format!(
        "\nRecording host exposed {} hardware thread(s) — on a 1-core box \
         the thread-scaling curves below are expected to be flat; the \
         `MCPB_THREADS` invariance suites pin that the *results* stay \
         bit-identical at every thread count regardless.\n",
        host_threads()
    ));
    out.push_str(&format!(
        "\nHost: {} thread(s), `target-cpu={}`, thread override {}.\n",
        host_threads(),
        host_target_cpu(),
        match thread_override() {
            Some(n) => format!("{n}"),
            None => "none".to_string(),
        },
    ));
    for r in reports {
        out.push_str(&format!("\n## Area `{}`\n\n", r.area));
        out.push_str("| bench | samples | min | median | mean |\n");
        out.push_str("|---|---:|---:|---:|---:|\n");
        for s in &r.benches {
            out.push_str(&format!(
                "| `{}` | {} | {} | {} | {} |\n",
                s.id,
                s.samples,
                fmt_nanos(s.min_nanos),
                fmt_nanos(s.median_nanos),
                fmt_nanos(s.mean_nanos),
            ));
        }
        if !r.speedups.is_empty() {
            out.push_str("\n### Speedups vs pre-PR reference kernels\n\n");
            out.push_str("| kernel | reference median | optimized median | speedup |\n");
            out.push_str("|---|---:|---:|---:|\n");
            for sp in &r.speedups {
                let rm = r.median_of(&sp.reference).unwrap_or(0);
                let om = r.median_of(&sp.optimized).unwrap_or(0);
                out.push_str(&format!(
                    "| {} | {} | {} | {:.2}x |\n",
                    sp.name,
                    fmt_nanos(rm),
                    fmt_nanos(om),
                    sp.ratio
                ));
            }
        }
        let scaling = scaling_rows(r);
        if !scaling.is_empty() {
            out.push_str("\n### Thread scaling\n\n");
            out.push_str(&format!(
                "The last column is t1 median / tN median. Rows with more \
                 threads than the host's {} are oversubscribed: their ratio \
                 is not a speedup.\n\n",
                host_threads()
            ));
            out.push_str("| bench | threads | median | t1 median / tN median |\n");
            out.push_str("|---|---:|---:|---:|\n");
            for (base, t, median, ratio) in scaling {
                out.push_str(&format!(
                    "| `{base}` | {t} | {} | {ratio:.2}x |\n",
                    fmt_nanos(median)
                ));
            }
        }
    }
    out
}

/// Extracts `(base_id, threads, median, t1_median / median)` rows from ids
/// of the form `<base>_t<n>`.
fn scaling_rows(report: &AreaReport) -> Vec<(String, usize, u128, f64)> {
    let mut rows = Vec::new();
    for s in &report.benches {
        let Some((base, t)) = s.id.rsplit_once("_t") else {
            continue;
        };
        let Ok(threads) = t.parse::<usize>() else {
            continue;
        };
        if base.ends_with("_ref") {
            continue;
        }
        let t1 = report.median_of(&format!("{base}_t1")).unwrap_or(0);
        let ratio = t1 as f64 / s.median_nanos.max(1) as f64;
        rows.push((base.to_string(), threads, s.median_nanos, ratio));
    }
    rows
}

/// The tolerance [`compare_benches`] judges `current` at. When `current`
/// was recorded in quick mode (`"quick": true` — the few-sample smoke
/// `check.sh` runs), `tolerance` is widened to at least 30%: quick medians
/// are noisy by design, and the smoke gate exists to catch
/// order-of-magnitude regressions, not to re-litigate the committed
/// full-run baselines at precision the sampling can't support.
pub fn applied_tolerance(current: &Value, tolerance: f64) -> f64 {
    if current.get("quick").and_then(|q| q.as_bool()) == Some(true) {
        tolerance.max(0.30)
    } else {
        tolerance
    }
}

/// Compares a current `mcpb-perf/1` document against a committed baseline:
/// any bench whose median regressed by more than `tolerance` (fractional,
/// e.g. `0.10`), or that disappeared, is reported. Returns the list of
/// violations (empty = ratchet holds). It judges at
/// [`applied_tolerance`]`(current, tolerance)`.
pub fn compare_benches(baseline: &Value, current: &Value, tolerance: f64) -> Vec<String> {
    let tolerance = applied_tolerance(current, tolerance);
    let mut violations = Vec::new();
    let area = baseline
        .get("area")
        .and_then(|a| a.as_str())
        .unwrap_or("?")
        .to_string();
    let empty = Vec::new();
    let base_benches = baseline
        .get("benches")
        .and_then(|b| b.as_array())
        .unwrap_or(&empty);
    let cur_benches = current
        .get("benches")
        .and_then(|b| b.as_array())
        .unwrap_or(&empty);
    for b in base_benches {
        let Some(id) = b.get("id").and_then(|v| v.as_str()) else {
            continue;
        };
        let Some(base_median) = b.get("median_nanos").and_then(|v| v.as_u64()) else {
            continue;
        };
        let cur = cur_benches
            .iter()
            .find(|c| c.get("id").and_then(|v| v.as_str()) == Some(id));
        match cur {
            None => violations.push(format!("{area}: bench `{id}` missing from current run")),
            Some(c) => {
                let cur_median = c.get("median_nanos").and_then(|v| v.as_u64()).unwrap_or(0);
                let limit = base_median as f64 * (1.0 + tolerance);
                if cur_median as f64 > limit {
                    violations.push(format!(
                        "{area}: `{id}` median {} exceeds baseline {} by more than {:.0}% \
                         ({:+.1}%)",
                        fmt_nanos(cur_median as u128),
                        fmt_nanos(base_median as u128),
                        tolerance * 100.0,
                        (cur_median as f64 / base_median as f64 - 1.0) * 100.0,
                    ));
                }
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(benches: &[(&str, u64)]) -> Value {
        obj(vec![
            ("schema", "mcpb-perf/1".to_value()),
            ("area", "test".to_value()),
            (
                "benches",
                Value::Array(
                    benches
                        .iter()
                        .map(|(id, median)| {
                            obj(vec![
                                ("id", (*id).to_value()),
                                ("samples", 5u64.to_value()),
                                ("min_nanos", (*median).to_value()),
                                ("median_nanos", (*median).to_value()),
                                ("mean_nanos", (*median).to_value()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    #[test]
    fn timer_records_in_call_order_and_quick_shortens_warmup() {
        // Each call sleeps, so a batch's time grows with its size and the
        // 5 ms full-mode target needs a larger batch than the 500 µs one.
        let calls_under = |quick: bool| {
            let mut calls = 0u64;
            let mut timer = Timer::new(quick);
            timer.bench("timer/sleep", || {
                calls += 1;
                std::thread::sleep(Duration::from_micros(50));
            });
            timer.bench("timer/sum", || (0..100u64).sum::<u64>());
            let summaries = timer.into_summaries();
            let ids: Vec<&str> = summaries.iter().map(|s| s.id.as_str()).collect();
            assert_eq!(ids, ["timer/sleep", "timer/sum"]);
            for s in &summaries {
                assert_eq!(s.samples, SAMPLES);
                assert!(s.min_nanos <= s.median_nanos, "{s:?}");
            }
            calls
        };
        let quick = calls_under(true);
        let full = calls_under(false);
        assert!(quick < full, "quick {quick} calls vs full {full}");
    }

    #[test]
    fn ratchet_accepts_equal_and_faster() {
        let base = doc(&[("a/x", 1000), ("a/y", 2000)]);
        let cur = doc(&[("a/x", 1000), ("a/y", 1500)]);
        assert!(compare_benches(&base, &cur, 0.10).is_empty());
    }

    #[test]
    fn ratchet_flags_regression_beyond_tolerance() {
        let base = doc(&[("a/x", 1000)]);
        let within = doc(&[("a/x", 1099)]);
        let beyond = doc(&[("a/x", 1200)]);
        assert!(compare_benches(&base, &within, 0.10).is_empty());
        let v = compare_benches(&base, &beyond, 0.10);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("a/x"), "{v:?}");
    }

    #[test]
    fn quick_mode_current_widens_tolerance() {
        let base = doc(&[("a/x", 1000)]);
        // 20% over: fails the strict full-run gate, passes the quick smoke.
        let mut fields = match doc(&[("a/x", 1200)]) {
            Value::Object(f) => f,
            _ => unreachable!(),
        };
        fields.push(("quick".into(), Value::Bool(true)));
        let quick_cur = Value::Object(fields);
        assert_eq!(compare_benches(&base, &quick_cur, 0.10).len(), 0);
        assert!((applied_tolerance(&quick_cur, 0.10) - 0.30).abs() < 1e-12);
        assert!((applied_tolerance(&quick_cur, 0.50) - 0.50).abs() < 1e-12);
        assert!((applied_tolerance(&base, 0.10) - 0.10).abs() < 1e-12);
        // 40% over still fails even the widened smoke gate.
        let mut fields = match doc(&[("a/x", 1400)]) {
            Value::Object(f) => f,
            _ => unreachable!(),
        };
        fields.push(("quick".into(), Value::Bool(true)));
        let quick_bad = Value::Object(fields);
        assert_eq!(compare_benches(&base, &quick_bad, 0.10).len(), 1);
    }

    #[test]
    fn ratchet_flags_missing_bench() {
        let base = doc(&[("a/x", 1000), ("a/y", 1000)]);
        let cur = doc(&[("a/x", 1000)]);
        let v = compare_benches(&base, &cur, 0.10);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("a/y"));
    }

    #[test]
    fn new_benches_are_not_violations() {
        let base = doc(&[("a/x", 1000)]);
        let cur = doc(&[("a/x", 900), ("a/z", 5000)]);
        assert!(compare_benches(&base, &cur, 0.10).is_empty());
    }

    #[test]
    fn json_roundtrip_is_ratchet_comparable() {
        let report = AreaReport {
            area: "nn",
            benches: vec![Summary {
                id: "nn/fake".into(),
                samples: 3,
                min_nanos: 10,
                median_nanos: 12,
                mean_nanos: 13,
            }],
            speedups: Vec::new(),
            extras: Vec::new(),
        };
        let text = render_json(&report, false);
        let parsed: Value = serde_json::from_str(&text).expect("parse");
        assert_eq!(
            parsed.get("schema").and_then(|s| s.as_str()),
            Some("mcpb-perf/1")
        );
        assert!(compare_benches(&parsed, &parsed, 0.0).is_empty());
    }

    #[test]
    fn host_metadata_is_recorded_and_ratchet_ignores_it() {
        let report = AreaReport {
            area: "nn",
            benches: Vec::new(),
            speedups: Vec::new(),
            extras: Vec::new(),
        };
        let text = render_json(&report, false);
        let parsed: Value = serde_json::from_str(&text).expect("parse");
        let host = parsed.get("host").expect("host block");
        assert!(host.get("threads").and_then(|v| v.as_u64()).unwrap_or(0) >= 1);
        let cpu = host
            .get("target_cpu")
            .and_then(|v| v.as_str())
            .expect("target_cpu");
        assert!(!cpu.is_empty());
        // The override slot exists even when no override is active.
        assert!(host.get("thread_override").is_some());
        // A baseline without the host block still compares cleanly.
        let bare = doc(&[]);
        assert!(compare_benches(&bare, &parsed, 0.10).is_empty());
        let md = render_markdown(&[report]);
        assert!(md.contains("target-cpu="), "{md}");
    }

    #[test]
    fn target_cpu_extraction_reads_workspace_config() {
        // This workspace pins x86-64-v3 in .cargo/config.toml; RUSTFLAGS
        // (when set by a wrapper) must win instead. Either way the probe
        // returns a non-empty name rather than panicking.
        let cpu = host_target_cpu();
        assert!(!cpu.is_empty());
        if std::env::var("RUSTFLAGS")
            .ok()
            .filter(|f| f.contains("target-cpu="))
            .is_none()
        {
            assert_eq!(cpu, "x86-64-v3");
        }
    }

    #[test]
    fn markdown_report_contains_scaling_and_speedups() {
        let mut report = AreaReport {
            area: "im",
            benches: vec![
                Summary {
                    id: "im/x_t1".into(),
                    samples: 3,
                    min_nanos: 100,
                    median_nanos: 100,
                    mean_nanos: 100,
                },
                Summary {
                    id: "im/x_t4".into(),
                    samples: 3,
                    min_nanos: 30,
                    median_nanos: 30,
                    mean_nanos: 30,
                },
                Summary {
                    id: "im/x_ref_t1".into(),
                    samples: 3,
                    min_nanos: 250,
                    median_nanos: 250,
                    mean_nanos: 250,
                },
            ],
            speedups: Vec::new(),
            extras: Vec::new(),
        };
        report.push_speedup("x", "im/x_t1", "im/x_ref_t1");
        assert!((report.speedups[0].ratio - 2.5).abs() < 1e-9);
        let md = render_markdown(&[report]);
        assert!(md.contains("Thread scaling"), "{md}");
        assert!(md.contains("t1 median / tN median"), "{md}");
        assert!(md.contains("oversubscribed"), "{md}");
        assert!(md.contains("| `im/x` | 4 |"), "{md}");
        assert!(md.contains("2.50x"), "{md}");
    }
}
