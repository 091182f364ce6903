//! `e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--threads <n>] [--out-dir <dir>]`
//!
//! Prints one `metric` line per reported metric, the answer digest, and as
//! its last line one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Exits 1 when an output check fails and 2 on bad arguments.

use mcpb_e2ebench::workloads::{run, Options, Size, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: e2ebench --workload <drl-mcp|im-solve|serve-replay|large-rr> \
     --seed <n> --seconds <s> --trace <0|1> [--threads <n>] [--out-dir <dir>]";

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut threads = std::thread::available_parallelism().map_or(1, usize::from);
    let mut out_dir = PathBuf::from(".bench_out");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0);
                seconds = Some(s.ok_or_else(bad)?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--threads" => {
                threads = value
                    .parse::<usize>()
                    .ok()
                    .filter(|&t| t > 0)
                    .ok_or_else(bad)?
            }
            "--out-dir" => out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        threads,
        size: Size::Full,
        out_dir,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("e2ebench: {}: {e}", opts.workload.name());
            return ExitCode::from(1);
        }
    };
    for m in &report.outcome.metrics {
        println!("metric {} = {} {}", m.def.name, m.value, m.def.unit);
    }
    println!("digest {} {:016x}", opts.workload.name(), report.digest);
    if let Some(path) = &report.trace_file {
        println!("trace {}", path.display());
    }
    for f in &report.failures {
        eprintln!("e2ebench: check failed: {f}");
    }
    println!("{}", report.outcome.to_json());
    if report.outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
