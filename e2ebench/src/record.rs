//! Per-pass measurement: wall time per layer and phase, allocator calls,
//! answers, and failed checks.

use crate::check::Digest;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Which end-to-end figure a timed call counts towards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Graph load, build or weights, scorer construction, preload.
    Setup,
    /// Solver preparation (DRL training).
    Train,
    /// Answering queries: solves, sampling plus greedy, request replay.
    Query,
    /// Scoring and simulation: part of the workload, neither of the above.
    Score,
}

/// What one set-up or one cycle of a workload did.
#[derive(Debug, Default)]
pub struct Recorder {
    /// Wall milliseconds per layer metric, summed over calls.
    pub ms: BTreeMap<&'static str, f64>,
    /// Counts and figures read off the answers.
    pub values: BTreeMap<&'static str, f64>,
    /// Phase and wall seconds of every timed call, in call order.
    pub calls: Vec<(Phase, f64)>,
    /// Allocator calls per phase.
    pub phase_allocs: BTreeMap<Phase, u64>,
    /// Quality of each answer, from the common scorer.
    pub quality: Vec<f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations refused by design (shed requests): not failures of the
    /// program, but counted in `fail_share`.
    pub refused: u64,
    /// One message per failed check or panicked operation.
    pub failures: Vec<String>,
    /// Digest of every answer.
    pub digest: Digest,
}

impl Recorder {
    /// Runs `f` — one call into the program — inside a trace span named
    /// after `metric`, adding its wall time to `metric` and `phase`.
    pub fn time<R>(&mut self, metric: &'static str, phase: Phase, f: impl FnOnce() -> R) -> R {
        let allocs = mcpb_trace::alloc::alloc_calls();
        let start = Instant::now();
        let out = {
            let _span = mcpb_trace::span(metric);
            f()
        };
        let secs = start.elapsed().as_secs_f64();
        *self.ms.entry(metric).or_default() += secs * 1e3;
        self.calls.push((phase, secs));
        let calls = mcpb_trace::alloc::alloc_calls().saturating_sub(allocs);
        *self.phase_allocs.entry(phase).or_default() += calls;
        out
    }

    /// Like [`Recorder::time`] for one attempted operation, turning a panic
    /// into a recorded failure.
    pub fn attempt<R>(
        &mut self,
        metric: &'static str,
        phase: Phase,
        what: impl FnOnce() -> String,
        f: impl FnOnce() -> R,
    ) -> Option<R> {
        self.attempted += 1;
        match self.time(metric, phase, || catch_unwind(AssertUnwindSafe(f))) {
            Ok(r) => Some(r),
            Err(_) => {
                self.failures.push(format!("{} panicked", what()));
                None
            }
        }
    }

    /// Records a failed check unless `result` is `Ok`.
    pub fn check(&mut self, what: impl FnOnce() -> String, result: Result<(), String>) {
        if let Err(e) = result {
            self.failures.push(format!("{}: {e}", what()));
        }
    }

    /// Sets a count or figure.
    pub fn set(&mut self, key: &'static str, value: f64) {
        self.values.insert(key, value);
    }

    /// Wall seconds of every timed call of `phase`, or of all of them.
    pub fn wall_s(&self, phase: Option<Phase>) -> f64 {
        self.calls
            .iter()
            .filter(|(p, _)| phase.is_none_or(|want| *p == want))
            .fold(0.0, |acc, (_, secs)| acc + secs)
    }
}

/// User and system CPU time of this process, in clock ticks, from
/// `/proc/self/stat`; `None` where that file does not exist.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, so 12th and 13th after it.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime = fields.next()?.parse().ok()?;
    let stime = fields.next()?.parse().ok()?;
    Some((utime, stime))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_calls_add_up_by_metric_and_phase() {
        let mut rec = Recorder::default();
        rec.time("a", Phase::Query, || std::hint::black_box(1 + 1));
        rec.time("a", Phase::Query, || ());
        rec.time("b", Phase::Score, || ());
        assert_eq!(rec.ms.len(), 2);
        assert_eq!(rec.calls.len(), 3);
        let parts = rec.wall_s(Some(Phase::Query)) + rec.wall_s(Some(Phase::Score));
        assert!((rec.wall_s(None) - parts).abs() < 1e-12);
        assert_eq!(rec.wall_s(Some(Phase::Train)), 0.0);
    }

    #[test]
    fn panics_become_failures() {
        let mut rec = Recorder::default();
        let out: Option<()> = rec.attempt("x", Phase::Query, || "boom".into(), || panic!("x"));
        assert!(out.is_none());
        assert_eq!(rec.attempted, 1);
        assert_eq!(rec.failures, vec!["boom panicked".to_string()]);
        rec.check(|| "c".into(), Err("bad".into()));
        assert_eq!(rec.failures.len(), 2);
    }

    #[test]
    fn proc_stat_is_readable_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(cpu_ticks().is_some());
        }
    }
}
