//! `mcpbench` — command-line driver that regenerates any table or figure
//! of the paper.
//!
//! ```sh
//! cargo run --release -- list
//! cargo run --release -- tab1 fig4            # quick scale
//! cargo run --release -- --full tab7          # bench scale
//! cargo run --release -- all                  # every experiment (quick)
//! MCPB_TRACE=episodes.jsonl cargo run --release -- fig4   # + telemetry
//! ```
//!
//! Setting `MCPB_TRACE` enables the `mcpb-trace` collector for any
//! invocation: `MCPB_TRACE=1` keeps events in memory and prints the span
//! profile at exit; `MCPB_TRACE=<path>` additionally streams every event to
//! `<path>` as JSONL. `trace-smoke` and `trace-validate` exercise that
//! pipeline end to end.

use mcpb_bench::experiments::{
    ablations, curves, datasets, distribution, memory, noise, overview, small_scale, training,
    ExpConfig,
};
use mcpb_bench::perf::AreaReport;
use mcpb_bench::rating::format_rating_table;
use mcpb_graph::weights::WeightModel;

const EXPERIMENTS: &[(&str, &str)] = &[
    ("tab1", "Table 1: dataset statistics"),
    ("fig1", "Figure 1: coverage/runtime overview (MCP & IM)"),
    ("tab2", "Table 2: training time vs traditional queries"),
    ("tab3", "Table 3: peak memory usage"),
    ("fig4", "Figure 4: MCP coverage & runtime curves"),
    ("fig5", "Figure 5: IM influence curves (CONST/TV/WC)"),
    ("fig6", "Figure 6: IM runtime curves"),
    (
        "fig7",
        "Figure 7: RL4IM/CHANGE/IMM & Geometric-QN small-scale",
    ),
    ("tab4", "Table 4: metric vs coverage-gap correlation"),
    ("tab5", "Table 5: edge-weight-model transfer"),
    ("tab6", "Table 6: similarity-metric cost vs OPIM"),
    ("fig8", "Figure 8: performance vs training duration"),
    ("fig9", "Figure 9: performance vs training-set size"),
    ("tab7", "Table 7: rating scale"),
    ("tab8", "Table 8: noise-predictor training time"),
    ("tab9", "Table 9: good-node proportion"),
    (
        "lnd",
        "Figure 5 (LND panel): starred datasets under learned weights",
    ),
    ("appendix", "Figures 10-17: appendix curves"),
    ("datasets", "export the Table 1 catalog as edge-list files"),
    (
        "agreement",
        "seed-set agreement: diagnose the atypical-case signature",
    ),
    ("robustness", "repeated-query variance per method"),
    (
        "ablations",
        "design-choice ablations: RL4IM tricks, GCOMB pruning, S2V depth, LeNSE navigation",
    ),
];

/// Runs a serialized `BenchmarkSpec` (JSON file) end to end and prints the
/// report — the scripting entry point for custom sweeps.
fn run_spec(path: &str) {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read spec {path:?}: {e}"));
    let spec: mcpb_bench::BenchmarkSpec =
        serde_json::from_str(&text).unwrap_or_else(|e| panic!("invalid spec: {e}"));
    let report = mcpb_bench::run_benchmark(&spec);
    println!("{}", report.quality_table.render());
    println!("{}", report.runtime_table.render());
    println!("{}", format_rating_table(&report.rating));
}

/// When tracing was active, flushes the JSONL sink and prints the
/// aggregated span/counter/histogram profile.
fn finish_trace() {
    if !mcpb_trace::is_enabled() {
        return;
    }
    // Emit the aggregated span/counter/histogram rows into the JSONL stream
    // (so `mcpbench obs` sees nested-span self-time, not just root closes),
    // then flush the sink.
    mcpb_trace::flush_summary();
    let summary = mcpb_trace::snapshot();
    if let Some(table) = mcpb_bench::results::profile_table(&summary) {
        println!("\n{}", table.render());
    }
    println!("trace: {} event(s) recorded", mcpb_trace::events_seen());
}

/// `trace-smoke`: a seconds-scale end-to-end exercise of the telemetry
/// pipeline — a tiny S2V-DQN training run (one EpisodeEnd or Recovery
/// event per episode, `nn.*` and `graph.*` spans) plus a mini MCP sweep
/// (SweepPoint events, `sweep.*` spans) — then prints the profile. Combine
/// with `MCPB_TRACE=<path>` to also produce a JSONL file for
/// `trace-validate`.
fn trace_smoke() {
    use mcpb_drl::s2v_dqn::{S2vDqn, S2vDqnConfig};
    mcpb_trace::set_enabled(true);

    let train_graph = mcpb_graph::generators::barabasi_albert(150, 3, 7);
    let cfg = S2vDqnConfig {
        episodes: 4,
        train_subgraph_nodes: 25,
        train_budget: 3,
        validate_every: 2,
        seed: 7,
        ..S2vDqnConfig::default()
    };
    let episodes = cfg.episodes;
    let report = S2vDqn::new(cfg).train(&train_graph);
    println!(
        "smoke: trained S2V-DQN for {episodes} episodes ({} checkpoints)",
        report.checkpoints.len()
    );

    let exp = ExpConfig::quick();
    let dataset = match mcpb_graph::catalog::require("BrightKite") {
        Ok(d) => exp.scaled(d),
        Err(e) => {
            eprintln!("smoke FAILED: {e}");
            std::process::exit(1);
        }
    };
    let records = mcpb_bench::sweep::run_mcp_sweep(
        &[
            mcpb_bench::registry::McpMethodKind::LazyGreedy,
            mcpb_bench::registry::McpMethodKind::TopDegree,
        ],
        &[dataset],
        &[5, 10],
        &train_graph,
        mcpb_bench::registry::Scale::Quick,
        exp.seed,
    );
    println!("smoke: swept {} (method, budget) cells", records.len());

    let summary = mcpb_trace::snapshot();
    let mut missing = Vec::new();
    for site in ["graph.sample_subgraph", "nn.forward", "nn.backward"] {
        if !summary
            .spans
            .iter()
            .any(|s| s.path.ends_with(site) && s.self_nanos > 0)
        {
            missing.push(site);
        }
    }
    // A rolled-back episode emits a Recovery event instead of EpisodeEnd.
    let episode_ends = mcpb_trace::recent_events(usize::MAX)
        .iter()
        .filter(|e| {
            matches!(
                e,
                mcpb_trace::Event::EpisodeEnd { .. } | mcpb_trace::Event::Recovery { .. }
            )
        })
        .count();
    finish_trace();
    if !missing.is_empty() {
        eprintln!("smoke FAILED: no self-time recorded for {missing:?}");
        std::process::exit(1);
    }
    if episode_ends < episodes {
        eprintln!(
            "smoke FAILED: {episode_ends} EpisodeEnd/Recovery event(s) for {episodes} episodes"
        );
        std::process::exit(1);
    }
    println!("smoke OK: {episode_ends} EpisodeEnd/Recovery event(s), all required spans present");
}

/// `sweep [--journal <path>] [--resume <path>] [--retries <n>]
/// [--deadline <secs>]`: a small fixed MCP sweep (LazyGreedy, NormalGreedy,
/// TopDegree x BrightKite x budgets {5, 10}) under fault isolation — the
/// driver for the resilience smoke and the crash-resume workflow. Combine
/// with `MCPB_FAULTS` (e.g. `panic@sweep.cell:3`) to exercise failure
/// paths; the summary line is machine-greppable.
fn sweep_cmd(args: &[String]) {
    use mcpb_bench::registry::{McpMethodKind, Scale};
    use mcpb_bench::sweep::{run_mcp_sweep_resilient, SweepOptions};
    use mcpb_resilience::CellPolicy;

    fn usage() -> ! {
        eprintln!(
            "usage: mcpbench sweep [--journal <path>] [--resume <path>] \
             [--retries <n>] [--deadline <secs>]"
        );
        std::process::exit(2);
    }
    let mut opts = SweepOptions::default();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let Some(value) = args.get(i + 1) else {
            usage()
        };
        match flag {
            "--journal" => opts.journal = Some(std::path::PathBuf::from(value)),
            "--resume" => opts.resume = Some(std::path::PathBuf::from(value)),
            "--retries" => match value.parse::<u32>() {
                Ok(n) => opts.policy = CellPolicy::retrying(n),
                Err(_) => usage(),
            },
            "--deadline" => match value.parse::<f64>() {
                Ok(secs) => opts.policy.deadline_secs = Some(secs),
                Err(_) => usage(),
            },
            _ => usage(),
        }
        i += 2;
    }

    let exp = ExpConfig::quick();
    let dataset = match mcpb_graph::catalog::require("BrightKite") {
        Ok(d) => exp.scaled(d),
        Err(e) => {
            eprintln!("sweep: {e}");
            std::process::exit(1);
        }
    };
    let train_graph = mcpb_graph::generators::barabasi_albert(150, 3, 7);
    let methods = [
        McpMethodKind::LazyGreedy,
        McpMethodKind::NormalGreedy,
        McpMethodKind::TopDegree,
    ];
    let outcome = match run_mcp_sweep_resilient(
        &methods,
        &[dataset],
        &[5, 10],
        &train_graph,
        Scale::Quick,
        exp.seed,
        &opts,
    ) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("sweep: {e}");
            std::process::exit(1);
        }
    };
    for rec in &outcome.records {
        println!(
            "cell mcp|{}|{}|{}: quality={:.4} runtime={}",
            rec.method,
            rec.dataset,
            rec.budget,
            rec.quality,
            mcpb_bench::results::fmt_secs(rec.runtime)
        );
    }
    if let Some(table) = mcpb_bench::results::failure_table(&outcome.failures) {
        println!("\n{}", table.render());
    }
    println!(
        "sweep summary: cells={} completed={} failed={} resumed={}",
        outcome.records.len() + outcome.failures.len(),
        outcome.records.len(),
        outcome.failures.len(),
        outcome.resumed
    );
}

/// `journal-diff <a> <b>`: compares two sweep journals for equivalence
/// modulo timing (`runtime`, `peak_bytes`, `elapsed_secs` are ignored;
/// everything else must match byte for byte). Exit 0 on equivalence, 1 with
/// one line per difference otherwise — the CI check that a sweep at
/// `MCPB_THREADS=4` reproduced the single-threaded run exactly.
fn journal_diff(path_a: &str, path_b: &str) {
    let read = |path: &str| {
        mcpb_resilience::read_journal(std::path::Path::new(path)).unwrap_or_else(|e| {
            eprintln!("journal-diff: cannot read {path:?}: {e}");
            std::process::exit(2);
        })
    };
    let (a, b) = (read(path_a), read(path_b));
    let diffs = mcpb_resilience::diff_journals_modulo_timing(&a, &b);
    if diffs.is_empty() {
        println!(
            "journal-diff: {path_a} and {path_b} are equivalent \
             ({} entries, modulo timing)",
            a.entries.len()
        );
        return;
    }
    eprintln!("journal-diff: {path_a} and {path_b} differ:");
    for d in &diffs {
        eprintln!("  {d}");
    }
    std::process::exit(1);
}

/// `par-bench [<rr_sets>]`: released-build smoke for the `mcpb-par` pool —
/// samples one RR-set collection sequentially and once at the configured
/// thread count, verifies the collections are bit-identical, and prints the
/// speedup. On a multi-core host with `--release` and `--threads 4` the
/// ratio should clear 1.5x; on a single-core host it reports ~1.0x.
fn par_bench(args: &[String]) {
    let rr_sets = match args.first() {
        Some(v) => v.parse::<usize>().unwrap_or_else(|_| {
            eprintln!("usage: mcpbench par-bench [<rr_sets>]");
            std::process::exit(2);
        }),
        None => 200_000,
    };
    let threads = mcpb_par::effective_threads();
    let graph = mcpb_graph::weights::assign_weights(
        &mcpb_graph::generators::barabasi_albert(3_000, 4, 11),
        WeightModel::WeightedCascade,
        0xBEEF,
    );

    mcpb_par::set_thread_override(Some(1));
    let watch = mcpb_trace::Stopwatch::start();
    let sequential = mcpb_im::sample_collection(&graph, rr_sets, 42);
    let seq_secs = watch.elapsed_secs();

    mcpb_par::set_thread_override(Some(threads));
    let watch = mcpb_trace::Stopwatch::start();
    let parallel = mcpb_im::sample_collection(&graph, rr_sets, 42);
    let par_secs = watch.elapsed_secs();
    mcpb_par::set_thread_override(None);

    if sequential.sets() != parallel.sets() {
        eprintln!("par-bench FAILED: collections diverged between 1 and {threads} thread(s)");
        std::process::exit(1);
    }
    let speedup = if par_secs > 0.0 {
        seq_secs / par_secs
    } else {
        1.0
    };
    println!(
        "par-bench: {rr_sets} RR sets, 1 thread {:.3}s vs {threads} thread(s) {:.3}s \
         -> speedup {speedup:.2}x, results bit-identical",
        seq_secs, par_secs
    );
}

/// `audit …`: mounts the `mcpb-audit` lint gate as a subcommand so CI
/// scripts need only the `mcpbench` binary. Same flags and exit codes as
/// `cargo run -p mcpb-audit` (0 pass, 1 regressions, 2 usage/IO errors).
fn audit_cmd(args: &[String]) {
    let default_root =
        mcpb_audit::cli::detect_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")));
    match mcpb_audit::cli::run(args, default_root.as_deref()) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("mcpbench audit: {e}");
            std::process::exit(2);
        }
    }
}

/// `bench [--quick] [--out-dir <dir>]`: runs the recorded perf
/// suite and writes `BENCH_nn.json`, `BENCH_kernels.json`,
/// `BENCH_im.json`, `BENCH_serve.json`, `BENCH_audit.json`, and
/// `BENCH_REPORT.md` at the workspace root, or under `<dir>` (created if
/// missing) so a check run leaves the committed baselines alone.
/// `--quick` shortens the warmup and the serve replay (problem sizes and
/// thread counts are unchanged, so medians stay comparable — just noisier).
fn bench_cmd(args: &[String]) {
    const USAGE: &str = "usage: mcpbench bench [--quick] [--out-dir <dir>]";
    let mut quick = false;
    let mut out_dir = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out-dir" => match it.next() {
                Some(dir) => out_dir = Some(std::path::PathBuf::from(dir)),
                None => {
                    eprintln!("{USAGE}");
                    std::process::exit(2);
                }
            },
            _ => {
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
        }
    }
    let workspace = mcpb_audit::cli::detect_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
        .unwrap_or_else(|| {
            eprintln!("mcpbench bench: cannot locate workspace root");
            std::process::exit(2);
        });
    let root = match out_dir {
        Some(dir) => {
            if let Err(e) = std::fs::create_dir_all(&dir) {
                eprintln!("mcpbench bench: cannot create {}: {e}", dir.display());
                std::process::exit(1);
            }
            dir
        }
        None => workspace.clone(),
    };
    let mut reports = mcpb_bench::perf::collect_areas(quick);
    reports.push(mcpb_serve::bench::serve_area(quick));
    reports.push(audit_area(&workspace, quick).unwrap_or_else(|e| {
        eprintln!("mcpbench bench: audit area: {e}");
        std::process::exit(1);
    }));
    if let Err(e) = mcpb_bench::perf::write_reports(&root, &reports, quick) {
        eprintln!("mcpbench bench: {e}");
        std::process::exit(1);
    }
    for r in &reports {
        for s in &r.speedups {
            println!("{}: {} is {:.2}x the reference", r.area, s.name, s.ratio);
        }
    }
}

/// The `audit` perf area: the lint engine's lexer alone, lex+scope+scan per
/// file over sources already in memory, and the end-to-end workspace pass
/// (walk + read + scan) that the lint gate pays. The document's extras
/// record how many files and bytes each pass covers.
fn audit_area(workspace: &std::path::Path, quick: bool) -> std::io::Result<AreaReport> {
    use mcpb_audit::{lexer, walk, SourceFile};

    let mut sources = Vec::new();
    for rel in walk::workspace_sources(workspace)? {
        sources.push((
            walk::path_key(&rel),
            std::fs::read_to_string(workspace.join(&rel))?,
        ));
    }
    let source_bytes: usize = sources.iter().map(|(_, text)| text.len()).sum();
    // One untimed pass up front, so an I/O error surfaces here and not as a
    // timed `Err`.
    mcpb_audit::audit_workspace(workspace)?;

    let mut timer = mcpb_bench::perf::Timer::new(quick);
    timer.bench("audit/lex_workspace", || {
        sources
            .iter()
            .map(|(_, text)| lexer::lex(text).len())
            .sum::<usize>()
    });
    timer.bench("audit/scan_workspace_cached_io", || {
        sources
            .iter()
            .map(|(key, text)| mcpb_audit::scan_file(&SourceFile::parse(key, text)).len())
            .sum::<usize>()
    });
    timer.bench("audit/full_pass_with_io", || {
        mcpb_audit::audit_workspace(workspace).map(|r| r.findings.len())
    });
    Ok(AreaReport {
        area: "audit",
        benches: timer.into_summaries(),
        speedups: Vec::new(),
        extras: vec![
            (
                "files_scanned".to_string(),
                serde_json::Value::Number(sources.len() as f64),
            ),
            (
                "source_bytes".to_string(),
                serde_json::Value::Number(source_bytes as f64),
            ),
        ],
    })
}

/// `datasets --large [<name>...]`: materializes the million-node catalog
/// tier as mmap-backed CSR caches under `target/datasets/large/`.
/// With no names, builds every catalog config up to 1M nodes (`ba-1m`;
/// `ba-4m` is opt-in by name, so default runs stay bounded). A second
/// invocation reloads from cache and reports it.
fn datasets_large_cmd(args: &[String]) {
    let mut names: Vec<&str> = Vec::new();
    for a in args {
        match a.as_str() {
            "--large" => {}
            flag if flag.starts_with("--") => {
                eprintln!("usage: mcpbench datasets --large [<name>...]");
                std::process::exit(2);
            }
            name => names.push(name),
        }
    }
    let dir = std::path::Path::new("target/datasets/large");
    let configs: Vec<mcpb_graph::LargeConfig> = if names.is_empty() {
        mcpb_graph::large_catalog()
            .into_iter()
            .filter(|c| c.spec.n <= 1_000_000)
            .collect()
    } else {
        names
            .iter()
            .map(|name| {
                mcpb_graph::large_config(name).unwrap_or_else(|| {
                    eprintln!("mcpbench datasets: unknown large config {name:?}; available:");
                    for c in mcpb_graph::large_catalog() {
                        eprintln!("  {} ({} nodes)", c.name, c.spec.n);
                    }
                    std::process::exit(2);
                })
            })
            .collect()
    };
    for cfg in configs {
        let start = std::time::Instant::now(); // audit:allow(MCPB007) — CLI progress line, not a profile
        let (g, cached) = cfg.load_cached(dir).unwrap_or_else(|e| {
            eprintln!("mcpbench datasets: {}: {e}", cfg.name);
            std::process::exit(1);
        });
        if let Err(e) = g.validate() {
            eprintln!("mcpbench datasets: {} failed validation: {e}", cfg.name);
            std::process::exit(1);
        }
        println!(
            "{}: {} nodes, {} arcs, {:.1} MiB, {} in {:.2}s -> {}",
            cfg.name,
            g.num_nodes(),
            g.num_edges(),
            g.memory_bytes() as f64 / (1024.0 * 1024.0),
            if cached {
                "cache hit"
            } else {
                "built + cached"
            },
            start.elapsed().as_secs_f64(),
            cfg.cache_path(dir).display()
        );
    }
}

/// `large-smoke [--config <name>] [--rr <sets>] [--ic <trials>]
/// [--lt <trials>] [--no-cache] [--out <file>]`: generates (or
/// cache-loads) one `large`-tier graph, runs sharded RR sampling and IC/LT
/// Monte-Carlo over it, and emits a deterministic JSONL journal — config
/// hash, graph shape, an RR-collection digest, the exact spread bits, the
/// shard counts and per-shard peaks (a `shards` line, which follows the
/// shard policy rather than the results) and the memory-budget verdict.
/// Every journal field is a pure function of the
/// config, so two runs at different `--threads` must be byte-identical;
/// `scripts/check.sh` pins that with `cmp`.
fn large_smoke_cmd(args: &[String]) {
    fn usage() -> ! {
        eprintln!(
            "usage: mcpbench large-smoke [--config <name>] [--rr <sets>] [--ic <trials>]\n\
             \u{20}                           [--lt <trials>] [--no-cache] [--out <file>]"
        );
        std::process::exit(2);
    }
    let mut config = "ba-1m".to_string();
    let mut rr_sets = 4_096usize;
    let mut ic_trials = 1_024usize;
    let mut lt_trials = 64usize;
    let mut no_cache = false;
    let mut out: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--config" => config = it.next().cloned().unwrap_or_else(|| usage()),
            "--rr" => {
                rr_sets = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--ic" => {
                ic_trials = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--lt" => {
                lt_trials = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--no-cache" => no_cache = true,
            "--out" => out = it.next().cloned().or_else(|| usage()),
            _ => usage(),
        }
    }
    let cfg = mcpb_graph::large_config(&config).unwrap_or_else(|| {
        eprintln!("mcpbench large-smoke: unknown large config {config:?}");
        std::process::exit(2);
    });

    let start = std::time::Instant::now(); // audit:allow(MCPB007) — CLI progress line, not a profile
    let (g, cached) = if no_cache {
        match cfg.build() {
            Ok(g) => (g, false),
            Err(e) => {
                eprintln!("mcpbench large-smoke: build failed: {e}");
                std::process::exit(1);
            }
        }
    } else {
        match cfg.load_cached(std::path::Path::new("target/datasets/large")) {
            Ok(pair) => pair,
            Err(e) => {
                eprintln!("mcpbench large-smoke: cache load failed: {e}");
                std::process::exit(1);
            }
        }
    };
    if let Err(e) = g.validate() {
        eprintln!("mcpbench large-smoke: {config} failed validation: {e}");
        std::process::exit(1);
    }
    eprintln!(
        "large-smoke: {config} ready in {:.2}s ({}, {} thread(s))",
        start.elapsed().as_secs_f64(),
        if no_cache {
            "built in memory"
        } else if cached {
            "cache hit"
        } else {
            "built + cached"
        },
        mcpb_par::effective_threads(),
    );

    // Shard-level memory accounting flows through the trace histograms;
    // open a clean window over exactly this smoke's shards.
    let was_enabled = mcpb_trace::is_enabled();
    mcpb_trace::set_enabled(true);
    mcpb_trace::reset();

    let mut journal = String::new();
    journal.push_str(&format!(
        "{{\"schema\":\"mcpb-large-smoke/1\",\"config\":\"{}\",\"config_hash\":\"{:016x}\",\
         \"nodes\":{},\"arcs\":{},\"graph_bytes\":{}}}\n",
        cfg.name,
        cfg.config_hash(),
        g.num_nodes(),
        g.num_edges(),
        g.memory_bytes()
    ));

    // FNV-1a over every set length and member: any reordered or altered
    // RR set changes the digest, so the journal pins the full collection
    // without shipping it.
    let rr = mcpb_im::sample_collection(&g, rr_sets, 131);
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut total_nodes = 0u64;
    for set in rr.sets().iter() {
        digest = (digest ^ set.len() as u64).wrapping_mul(0x0000_0100_0000_01b3);
        for &v in set {
            digest = (digest ^ u64::from(v)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        total_nodes += set.len() as u64;
    }
    journal.push_str(&format!(
        "{{\"event\":\"rr\",\"sets\":{},\"seed\":131,\"total_nodes\":{total_nodes},\
         \"digest\":\"{digest:016x}\"}}\n",
        rr.len()
    ));

    let seeds = [0u32, 3, 11, 42, 117];
    let ic = mcpb_im::influence_mc(&g, &seeds, ic_trials, 137);
    journal.push_str(&format!(
        "{{\"event\":\"ic\",\"trials\":{ic_trials},\"seed\":137,\"spread_bits\":\"{:016x}\"}}\n",
        ic.to_bits()
    ));
    let lt = mcpb_im::influence_mc_lt(&g, &seeds, lt_trials, 139);
    journal.push_str(&format!(
        "{{\"event\":\"lt\",\"trials\":{lt_trials},\"seed\":139,\"spread_bits\":\"{:016x}\"}}\n",
        lt.to_bits()
    ));

    let summary = mcpb_trace::snapshot();
    mcpb_trace::set_enabled(was_enabled);
    let counter = |name: &str| {
        summary
            .counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    };
    // Peak bytes are exact integers and shard counts are pure functions of
    // the graph, so both belong in the byte-compared journal; histogram
    // means (f64 sums) do not.
    let peak = |name: &str| {
        summary
            .histograms
            .iter()
            .find(|h| h.name == name)
            .map_or(0u64, |h| h.max as u64)
    };
    let budget = mcpb_im::shard::SHARD_PEAK_BUDGET_BYTES as u64;
    let (rr_peak, mc_peak) = (
        peak("im.rr_shard_peak_bytes"),
        peak("im.mc_shard_peak_bytes"),
    );
    // Shard counts and per-shard peaks follow the shard policy, so they get
    // a line of their own: a cross-commit comparison can drop it and still
    // compare every result line byte for byte.
    journal.push_str(&format!(
        "{{\"event\":\"shards\",\"rr_shards\":{},\"rr_peak_bytes\":{rr_peak},\
         \"mc_shards\":{},\"mc_peak_bytes\":{mc_peak}}}\n",
        counter("im.rr_shards"),
        counter("im.mc_shards"),
    ));
    journal.push_str(&format!(
        "{{\"event\":\"memory\",\"budget_bytes\":{budget},\"within_budget\":{}}}\n",
        rr_peak <= budget && mc_peak <= budget
    ));

    match &out {
        Some(path) => {
            std::fs::write(path, &journal).unwrap_or_else(|e| {
                eprintln!("mcpbench large-smoke: cannot write {path}: {e}");
                std::process::exit(1);
            });
            eprintln!("large-smoke: wrote journal -> {path}");
        }
        None => print!("{journal}"),
    }
    eprintln!(
        "large-smoke: ok ic_spread={ic:.3} lt_spread={lt:.3} ({:.2}s total)",
        start.elapsed().as_secs_f64()
    );
}

/// `serve …`: the online query service. Two modes:
///
/// * `--gen <n>` emits a deterministic JSONL request log (seeded; `--burst`
///   adds a mid-log overload window) for replay and chaos testing;
/// * `--replay <log>` preloads the serving state and replays the log
///   through the fault-isolated engine, printing greppable summary lines
///   and (with `--out`) the response journal — `--det-timing` zeroes
///   wall-clock fields so journals are byte-identical across thread
///   counts.
fn serve_cmd(args: &[String]) {
    use mcpb_serve::{generate_log, preload, replay, EngineOptions, LoadGenConfig, ServeConfig};

    fn usage() -> ! {
        eprintln!(
            "usage: mcpbench serve --gen <n> [--seed <s>] [--burst] [--out <file>]\n\
             \u{20}      mcpbench serve --replay <log> [--out <journal>] [--det-timing]\n\
             \u{20}                     [--label <text>]"
        );
        std::process::exit(2);
    }

    let mut gen_n: Option<usize> = None;
    let mut replay_path: Option<String> = None;
    let mut out: Option<String> = None;
    let mut seed = 7u64;
    let mut burst = false;
    let mut det_timing = false;
    let mut label = "serve-replay".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--gen" => gen_n = it.next().and_then(|v| v.parse().ok()).or_else(|| usage()),
            "--replay" => replay_path = it.next().cloned().or_else(|| usage()),
            "--out" => out = it.next().cloned().or_else(|| usage()),
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--label" => label = it.next().cloned().unwrap_or_else(|| usage()),
            "--burst" => burst = true,
            "--det-timing" => det_timing = true,
            _ => usage(),
        }
    }
    if gen_n.is_some() == replay_path.is_some() {
        usage();
    }

    let cfg = ServeConfig::default();
    let (state, mut pool) = preload(&cfg).unwrap_or_else(|e| {
        eprintln!("mcpbench serve: preload failed: {e}");
        std::process::exit(1);
    });
    println!(
        "serve: preloaded {} dataset(s), {} solver lane(s) (config hash {:016x})",
        state.datasets.len(),
        state.num_lanes(),
        state.config_hash
    );

    if let Some(n) = gen_n {
        let log = generate_log(
            &state,
            &LoadGenConfig {
                requests: n,
                seed,
                burst,
            },
        );
        match &out {
            Some(path) => {
                std::fs::write(path, &log).unwrap_or_else(|e| {
                    eprintln!("mcpbench serve: cannot write {path}: {e}");
                    std::process::exit(1);
                });
                println!("serve: generated {n} request line(s) -> {path}");
            }
            None => print!("{log}"),
        }
        return;
    }

    let path = replay_path.unwrap_or_else(|| usage());
    let log = std::fs::read(&path).unwrap_or_else(|e| {
        eprintln!("mcpbench serve: cannot read {path}: {e}");
        std::process::exit(1);
    });
    let opts = EngineOptions {
        label,
        deterministic_timing: det_timing,
        ..EngineOptions::default()
    };
    let report = replay(&state, &mut pool, &log, &opts);
    let answered = report.served + report.degraded + report.shed + report.errors;
    println!(
        "serve: ok requests={} served={} degraded={} shed={} errors={} cache_hits={}",
        report.requests,
        report.served,
        report.degraded,
        report.shed,
        report.errors,
        report.cache_hits
    );
    let shed_rate = report.shed as f64 / report.requests.max(1) as f64;
    println!(
        "serve: latency p50_ms={:.3} p99_ms={:.3} shed_rate={:.3}",
        report.p50_ms, report.p99_ms, shed_rate
    );
    if let Some(path) = &out {
        std::fs::write(path, &report.journal).unwrap_or_else(|e| {
            eprintln!("mcpbench serve: cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!("serve: wrote response journal -> {path}");
    }
    if report.lost == 0 && report.duplicated == 0 && answered == report.requests {
        println!(
            "serve: drain clean ({answered}/{} responses, 0 lost, 0 duplicated)",
            report.requests
        );
    } else {
        eprintln!(
            "serve: drain FAILED ({answered}/{} responses, {} lost, {} duplicated)",
            report.requests, report.lost, report.duplicated
        );
        std::process::exit(1);
    }
}

/// `bench-check <baseline.json> <current.json> [--tolerance <frac>]`:
/// the perf ratchet. Exits 1 when any bench present in the baseline
/// regressed its median by more than the tolerance (default 10%) or went
/// missing; faster-than-baseline and brand-new benches always pass.
fn bench_check_cmd(args: &[String]) {
    fn usage() -> ! {
        eprintln!(
            "usage: mcpbench bench-check <baseline.json> <current.json> [--tolerance <frac>]"
        );
        std::process::exit(2);
    }
    let mut tolerance = 0.10f64;
    let mut paths: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--tolerance" {
            tolerance = it
                .next()
                .and_then(|v| v.parse::<f64>().ok())
                .filter(|t| t.is_finite() && *t >= 0.0)
                .unwrap_or_else(|| usage());
        } else if a.starts_with("--") {
            usage();
        } else {
            paths.push(a);
        }
    }
    let [base_path, cur_path] = paths.as_slice() else {
        usage();
    };
    let parse = |path: &str| -> serde_json::Value {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("bench-check: cannot read {path}: {e}");
            std::process::exit(2);
        });
        serde_json::from_str(&text).unwrap_or_else(|e| {
            eprintln!("bench-check: cannot parse {path}: {e}");
            std::process::exit(2);
        })
    };
    let baseline = parse(base_path);
    let current = parse(cur_path);
    let violations = mcpb_bench::perf::compare_benches(&baseline, &current, tolerance);
    let applied = mcpb_bench::perf::applied_tolerance(&current, tolerance);
    if violations.is_empty() {
        println!(
            "bench-check: {cur_path} holds the ratchet vs {base_path} (tolerance {:.0}%)",
            applied * 100.0
        );
    } else {
        for v in &violations {
            eprintln!("bench-check: REGRESSION {v}");
        }
        eprintln!("bench-check: applied tolerance {applied:.2}");
        std::process::exit(1);
    }
}

/// `obs <report|diff|chrome|flame> …`: trace analysis over recorded
/// telemetry. Every subcommand ingests a run file — an `MCPB_TRACE` JSONL
/// stream, an `mcpb-resilience` sweep journal, or a `BENCH_*.json`
/// (mcpb-perf/1) record; the format is sniffed — into a unified run model,
/// then renders a profile report, a span-path-aligned regression diff, a
/// Chrome trace-event export, or a folded-stack flamegraph.
fn obs_cmd(args: &[String]) {
    fn usage() -> ! {
        eprintln!(
            "usage: mcpbench obs report <run> [--top <k>]\n\
             \u{20}      mcpbench obs diff   <before> <after> [--noise <frac>]\n\
             \u{20}      mcpbench obs chrome <run> [--out <file>]\n\
             \u{20}      mcpbench obs flame  <run> [--out <file>]\n\
             <run> is an MCPB_TRACE JSONL file, a sweep journal, or a BENCH_*.json record"
        );
        std::process::exit(2);
    }
    fn load(path: &str) -> mcpb_obs::RunModel {
        mcpb_obs::RunModel::load(std::path::Path::new(path)).unwrap_or_else(|e| {
            eprintln!("mcpbench obs: {e}");
            std::process::exit(1);
        })
    }
    fn emit(text: &str, out: Option<&String>) {
        match out {
            Some(path) => {
                std::fs::write(path, text).unwrap_or_else(|e| {
                    eprintln!("mcpbench obs: cannot write {path}: {e}");
                    std::process::exit(1);
                });
                println!("wrote {path}");
            }
            None => print!("{text}"),
        }
    }
    // Split `<paths…>` from `--flag value` pairs (order-insensitive).
    let mut paths: Vec<&String> = Vec::new();
    let mut top_k = mcpb_obs::DEFAULT_TOP_K;
    let mut noise = mcpb_obs::DEFAULT_NOISE;
    let mut out: Option<&String> = None;
    let (Some(sub), rest) = (args.first().map(|s| s.as_str()), &args[args.len().min(1)..]) else {
        usage()
    };
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--top" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(k) if k >= 1 => top_k = k,
                _ => usage(),
            },
            "--noise" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(f) if f.is_finite() && f >= 0.0 => noise = f,
                _ => usage(),
            },
            "--out" => match it.next() {
                Some(p) => out = Some(p),
                None => usage(),
            },
            _ if a.starts_with("--") => usage(),
            _ => paths.push(a),
        }
    }
    match (sub, paths.as_slice()) {
        ("report", [run]) => {
            let model = load(run);
            emit(&mcpb_obs::render_report(&model, top_k), out);
        }
        ("diff", [before, after]) => {
            let diff = mcpb_obs::diff_runs(&load(before), &load(after), noise);
            emit(&mcpb_obs::render_diff(&diff), out);
        }
        ("chrome", [run]) => {
            let json = mcpb_obs::render_chrome(&load(run));
            if let Err(e) = mcpb_obs::validate_chrome(&json) {
                eprintln!("mcpbench obs: chrome export self-check failed: {e}");
                std::process::exit(1);
            }
            emit(&json, out);
        }
        ("flame", [run]) => {
            emit(&mcpb_obs::render_flame(&load(run)), out);
        }
        _ => usage(),
    }
}

/// `trace-validate <file>`: parses every line of a JSONL event file back
/// through the typed decoder; exits non-zero on the first malformed line.
fn trace_validate(path: &str) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("trace-validate: cannot read {path:?}: {e}");
        std::process::exit(1);
    });
    let mut count = 0usize;
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        if let Err(e) = mcpb_trace::Event::from_json(line) {
            eprintln!("trace-validate: {path}:{}: malformed event: {e}", idx + 1);
            std::process::exit(1);
        }
        count += 1;
    }
    if count == 0 {
        eprintln!("trace-validate: {path}: no events");
        std::process::exit(1);
    }
    println!("trace-validate: {path}: {count} valid event(s)");
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // Global `--threads <n>`: overrides MCPB_THREADS for this invocation.
    // Stripped before dispatch so every subcommand inherits it.
    if let Some(pos) = args.iter().position(|a| a == "--threads") {
        let threads = args.get(pos + 1).and_then(|v| v.parse::<usize>().ok());
        match threads {
            Some(n) if n >= 1 => {
                mcpb_par::set_thread_override(Some(n));
                args.drain(pos..=pos + 1);
            }
            _ => {
                eprintln!("mcpbench: --threads requires a positive integer");
                std::process::exit(2);
            }
        }
    }
    let args = args;
    mcpb_trace::init_from_env();
    if let Err(e) = mcpb_resilience::fault::init_from_env() {
        eprintln!("mcpbench: invalid MCPB_FAULTS: {e}");
        std::process::exit(2);
    }
    match args.first().map(|s| s.as_str()) {
        Some("run-spec") => {
            let path = args.get(1).expect("usage: mcpbench run-spec <spec.json>");
            run_spec(path);
            finish_trace();
            return;
        }
        Some("trace-smoke") => {
            trace_smoke();
            return;
        }
        Some("sweep") => {
            sweep_cmd(&args[1..]);
            finish_trace();
            return;
        }
        Some("trace-validate") => {
            let path = args.get(1).unwrap_or_else(|| {
                eprintln!("usage: mcpbench trace-validate <events.jsonl>");
                std::process::exit(2);
            });
            trace_validate(path);
            return;
        }
        Some("journal-diff") => {
            let (Some(a), Some(b)) = (args.get(1), args.get(2)) else {
                eprintln!("usage: mcpbench journal-diff <a.jsonl> <b.jsonl>");
                std::process::exit(2);
            };
            journal_diff(a, b);
            return;
        }
        Some("par-bench") => {
            par_bench(&args[1..]);
            return;
        }
        Some("audit") => {
            audit_cmd(&args[1..]);
            return;
        }
        Some("bench") => {
            bench_cmd(&args[1..]);
            return;
        }
        Some("large-smoke") => {
            large_smoke_cmd(&args[1..]);
            return;
        }
        Some("datasets") if args.iter().any(|a| a == "--large") => {
            datasets_large_cmd(&args[1..]);
            return;
        }
        Some("serve") => {
            serve_cmd(&args[1..]);
            finish_trace();
            return;
        }
        Some("bench-check") => {
            bench_check_cmd(&args[1..]);
            return;
        }
        Some("obs") => {
            obs_cmd(&args[1..]);
            return;
        }
        _ => {}
    }
    let full = args.iter().any(|a| a == "--full");
    let mut ids: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(|s| s.as_str())
        .collect();
    if ids.is_empty() || ids.contains(&"list") {
        println!("usage: mcpbench [--full] <experiment>...\n\nexperiments:");
        for (id, desc) in EXPERIMENTS {
            println!("  {id:<9} {desc}");
        }
        println!("  all       run every experiment");
        println!("\nutilities:");
        println!("  run-spec <spec.json>        run a serialized BenchmarkSpec");
        println!("  trace-smoke                 exercise the telemetry pipeline end to end");
        println!("  trace-validate <file>       check a JSONL event file line by line");
        println!("  sweep [--journal <path>] [--resume <path>] [--retries <n>] [--deadline <s>]");
        println!("                              fault-isolated mini MCP sweep; --resume skips");
        println!("                              cells already completed in a crash-safe journal");
        println!("  journal-diff <a> <b>        compare two sweep journals modulo timing fields");
        println!("  par-bench [<rr_sets>]       time RR sampling at 1 vs N threads; verify");
        println!("                              bit-identical results and report the speedup");
        println!("  audit [--list] [--format text|json|sarif] [--out FILE] [--fix-hints]");
        println!("        [--self-check] [--update-baseline]");
        println!("                              run the workspace lint gate (see audit --help)");
        println!("  bench [--quick] [--out-dir <dir>]");
        println!(
            "                              run the recorded perf suite; writes BENCH_nn.json,"
        );
        println!(
            "                              BENCH_kernels.json, BENCH_im.json + BENCH_REPORT.md"
        );
        println!("                              at the repo root or under <dir>");
        println!("  datasets --large [<name>...]");
        println!("                              build the 1M-node catalog tier as mmap-backed");
        println!("                              CSR caches under target/datasets/large/");
        println!("  large-smoke [--config <name>] [--rr <sets>] [--ic <n>] [--lt <n>] [--out <f>]");
        println!("                              sharded sampling smoke over a large-tier graph;");
        println!("                              emits a thread-invariant JSONL journal");
        println!("  bench-check <base> <cur> [--tolerance <frac>]");
        println!("                              perf ratchet: fail if any baseline bench median");
        println!(
            "                              regressed by more than the tolerance (default 10%)"
        );
        println!("  serve --gen <n> [--seed <s>] [--burst] [--out <file>]");
        println!("                              emit a deterministic JSONL request log");
        println!("  serve --replay <log> [--out <journal>] [--det-timing]");
        println!("                              replay a request log through the query service;");
        println!("                              prints p50/p99 latency and the shed rate");
        println!("  obs report <run> [--top <k>]           per-run profile report");
        println!("  obs diff <before> <after> [--noise <f>] span-aligned regression attribution");
        println!("  obs chrome <run> [--out <file>]        Chrome trace-event JSON export");
        println!("  obs flame <run> [--out <file>]         folded-stack flamegraph text");
        println!(
            "                              <run> = MCPB_TRACE JSONL | sweep journal | BENCH_*.json"
        );
        println!("\nglobal flags: --threads <n> sets the worker-pool size for this invocation");
        println!("set MCPB_THREADS=<n> to control parallelism (default: all cores)");
        println!("set MCPB_TRACE=1 (memory) or MCPB_TRACE=<path> (JSONL) to enable tracing");
        println!("set MCPB_FAULTS (e.g. panic@sweep.cell:3; nan@train.S2V-DQN:2) to inject faults");
        return;
    }
    if ids.contains(&"all") {
        ids = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
    }
    let cfg = if full {
        ExpConfig::full()
    } else {
        ExpConfig::quick()
    };
    println!(
        "# scale: {} (seed {})\n",
        if full { "full" } else { "quick" },
        cfg.seed
    );
    for id in ids {
        run(id, &cfg);
    }
    finish_trace();
}

fn run(id: &str, cfg: &ExpConfig) {
    match id {
        "tab1" => {
            let rows = datasets::tab1_datasets(cfg);
            println!("{}", datasets::render(&rows).render());
        }
        "fig1" => {
            let (mcp, im) = overview::fig1_overview(cfg);
            println!(
                "{}",
                overview::render_overview("Figure 1a", "MCP overview", &mcp).render()
            );
            println!(
                "{}",
                overview::render_overview("Figure 1b", "IM overview", &im).render()
            );
        }
        "tab2" => {
            let rows = training::tab2_training_time(cfg);
            println!("{}", training::render_tab2(&rows).render());
        }
        "tab3" => {
            let (mcp, im) = memory::tab3_memory(cfg);
            println!(
                "{}",
                memory::render("Table 3 (MCP)", "peak memory", &mcp).render()
            );
            println!(
                "{}",
                memory::render("Table 3 (IM)", "peak memory", &im).render()
            );
        }
        "fig4" => {
            let records = curves::fig4_mcp_curves(cfg);
            println!(
                "{}",
                curves::render_quality("Figure 4", "MCP coverage (covered nodes)", &records)
                    .render()
            );
            println!(
                "{}",
                curves::render_runtime("Figure 4", "MCP runtime", &records).render()
            );
        }
        "fig5" | "fig6" => {
            let models = if cfg.is_quick() {
                vec![WeightModel::Constant, WeightModel::WeightedCascade]
            } else {
                vec![
                    WeightModel::Constant,
                    WeightModel::TriValency,
                    WeightModel::WeightedCascade,
                ]
            };
            let records = curves::fig56_im_curves(cfg, &models);
            if id == "fig5" {
                println!(
                    "{}",
                    curves::render_quality("Figure 5", "IM influence spread", &records).render()
                );
            } else {
                println!(
                    "{}",
                    curves::render_runtime("Figure 6", "IM runtime", &records).render()
                );
            }
        }
        "fig7" => {
            let (a, b) = small_scale::fig7_small_scale(cfg);
            println!("{}", small_scale::render_fig7a(&a).render());
            println!("{}", small_scale::render_fig7b(&b).render());
        }
        "tab4" => {
            let cols = distribution::tab4_correlation(cfg);
            println!("{}", distribution::render_tab4(&cols).render());
        }
        "tab5" => {
            let cells = distribution::tab5_weight_transfer(cfg);
            println!("{}", distribution::render_tab5(&cells).render());
        }
        "tab6" => {
            let cells = distribution::tab6_similarity_cost(cfg);
            println!("{}", distribution::render_tab6(&cells).render());
        }
        "fig8" => {
            let curves_ = training::fig8_training_duration(cfg);
            println!("{}", training::render_fig8(&curves_).render());
        }
        "fig9" => {
            let points = training::fig9_training_size(cfg);
            println!("{}", training::render_fig9(&points).render());
        }
        "tab7" => {
            let (mcp, im) = overview::tab7_rating(cfg);
            println!("== Table 7 (MCP) ==\n{}", format_rating_table(&mcp));
            println!("== Table 7 (IM) ==\n{}", format_rating_table(&im));
        }
        "tab8" | "tab9" => {
            let cells = noise::noise_predictor_study(cfg);
            if id == "tab8" {
                println!("{}", noise::render_tab8(&cells).render());
            } else {
                println!("{}", noise::render_tab9(&cells).render());
            }
        }
        "lnd" => {
            let records = curves::fig5_lnd_curves(cfg);
            println!(
                "{}",
                curves::render_quality(
                    "Figure 5 (LND)",
                    "IM influence under learned weights",
                    &records
                )
                .render()
            );
            println!(
                "{}",
                curves::render_runtime(
                    "Figure 5 (LND)",
                    "IM runtime under learned weights",
                    &records
                )
                .render()
            );
        }
        "robustness" => {
            let rows = mcpb_bench::experiments::robustness::robustness_study(cfg);
            println!(
                "{}",
                mcpb_bench::experiments::robustness::render(&rows).render()
            );
        }
        "agreement" => {
            use mcpb_bench::agreement::{pairwise_agreements, summarize, SolverAnswer};
            use mcpb_bench::scorer::ImScorer;
            use mcpb_graph::weights::assign_weights;
            use mcpb_im::prelude::*;
            let k = 8;
            let cases = [
                (
                    "typical (BA + WC)",
                    assign_weights(
                        &mcpb_graph::generators::barabasi_albert(600, 3, cfg.seed),
                        WeightModel::WeightedCascade,
                        0,
                    ),
                ),
                (
                    "atypical (hub + CONST)",
                    assign_weights(
                        &mcpb_graph::generators::hub_graph(600, 4, 0.4, cfg.seed),
                        WeightModel::Constant,
                        0,
                    ),
                ),
            ];
            for (label, g) in cases {
                let scorer = ImScorer::new(&g, 5_000, cfg.seed);
                let mut answers = Vec::new();
                let (imm, _) = Imm::paper_default(cfg.seed).run(&g, k);
                answers.push(SolverAnswer {
                    method: "IMM".into(),
                    quality: scorer.spread(&imm.seeds),
                    seeds: imm.seeds,
                });
                let dd = DegreeDiscount::run(&g, k);
                answers.push(SolverAnswer {
                    method: "DDiscount".into(),
                    quality: scorer.spread(&dd.seeds),
                    seeds: dd.seeds,
                });
                let sa = SimulatedAnnealing::with_seed(cfg.seed).run(&g, k);
                answers.push(SolverAnswer {
                    method: "SA".into(),
                    quality: scorer.spread(&sa.seeds),
                    seeds: sa.seeds,
                });
                let summary = summarize(&pairwise_agreements(&answers));
                println!(
                    "{label}: mean Jaccard {:.3}, mean quality gap {:.3}, atypical = {}",
                    summary.mean_jaccard, summary.mean_quality_gap, summary.atypical
                );
            }
            println!(
                "\nAtypical = solvers agree on spread while disagreeing on seeds —\n\
                 the §4.3 regime where Deep-RL appears to 'match' IMM."
            );
        }
        "datasets" => {
            let dir = std::path::Path::new("target/datasets");
            std::fs::create_dir_all(dir).expect("create target/datasets");
            for ds in mcpb_graph::catalog::catalog() {
                let ds = cfg.scaled(ds);
                let g = ds.load();
                let path = dir.join(format!("{}.txt", ds.name.to_lowercase()));
                let file = std::fs::File::create(&path).expect("create dataset file");
                mcpb_graph::io::write_edge_list(&g, std::io::BufWriter::new(file))
                    .expect("write dataset");
                println!(
                    "wrote {} ({} nodes, {} arcs)",
                    path.display(),
                    g.num_nodes(),
                    g.num_edges()
                );
            }
        }
        "appendix" => {
            let (mcp, im) = curves::appendix_curves(cfg);
            println!(
                "{}",
                curves::render_quality("Figures 10-11", "Appendix MCP coverage", &mcp).render()
            );
            println!(
                "{}",
                curves::render_quality("Figures 12-17", "Appendix IM influence", &im).render()
            );
            println!(
                "{}",
                curves::render_runtime("Figures 11/13/15/17", "Appendix runtimes", &im).render()
            );
        }
        "ablations" => {
            let rows = ablations::all_ablations(cfg);
            println!("{}", ablations::render(&rows).render());
        }
        other => eprintln!("unknown experiment {other:?} — run `mcpbench list`"),
    }
}
