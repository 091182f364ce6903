//! Fault-isolated execution of one unit of work (a "cell").
//!
//! [`run_cell`] wraps a closure in `catch_unwind`, enforces a *soft*
//! wall-clock deadline, and retries with exponential backoff. The deadline
//! is cooperative: the cell runs to completion and is classified as
//! [`CellError::DeadlineExceeded`] after the fact. A hard kill would require
//! `Send + 'static` work, which sweep cells (borrowing prepared solvers)
//! cannot provide — and would leak the runaway thread anyway.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use crate::fault;

/// Retry/deadline policy for one cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellPolicy {
    /// Attempts before giving up (minimum 1).
    pub max_attempts: u32,
    /// Soft wall-clock limit per attempt, in seconds. `None` disables.
    pub deadline_secs: Option<f64>,
    /// Sleep before the first retry, in seconds.
    pub backoff_base_secs: f64,
}

/// Multiplier applied to the backoff after each retry.
const BACKOFF_MULT: f64 = 2.0;

impl Default for CellPolicy {
    fn default() -> Self {
        CellPolicy {
            max_attempts: 1,
            deadline_secs: None,
            backoff_base_secs: 0.0,
        }
    }
}

impl CellPolicy {
    /// Policy with `max_attempts` attempts and a tiny fixed backoff.
    pub fn retrying(max_attempts: u32) -> Self {
        CellPolicy {
            max_attempts: max_attempts.max(1),
            backoff_base_secs: 0.01,
            ..CellPolicy::default()
        }
    }

    /// Sets the soft per-attempt deadline.
    pub fn with_deadline(mut self, secs: f64) -> Self {
        self.deadline_secs = Some(secs);
        self
    }
}

/// Why a cell failed.
#[derive(Debug, Clone, PartialEq)]
pub enum CellError {
    /// The cell panicked; carries the stringified panic payload.
    Panicked(String),
    /// The cell finished but blew its soft deadline.
    DeadlineExceeded {
        /// Configured limit in seconds.
        limit_secs: f64,
        /// Observed duration of the offending attempt.
        elapsed_secs: f64,
    },
}

impl std::fmt::Display for CellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CellError::Panicked(msg) => write!(f, "panicked: {msg}"),
            CellError::DeadlineExceeded {
                limit_secs,
                elapsed_secs,
            } => write!(
                f,
                "deadline exceeded: {elapsed_secs:.3}s > limit {limit_secs:.3}s"
            ),
        }
    }
}

impl std::error::Error for CellError {}

/// Result of running one cell under [`run_cell`].
#[derive(Debug, Clone, PartialEq)]
pub enum CellOutcome<T> {
    /// The cell produced a value within policy.
    Completed {
        /// The cell's return value.
        value: T,
        /// Attempts consumed (1 = first try).
        attempts: u32,
        /// Total wall-clock seconds across all attempts.
        elapsed_secs: f64,
    },
    /// Every attempt failed; the grid records this instead of aborting.
    Failed {
        /// The last attempt's error.
        error: CellError,
        /// Attempts consumed.
        attempts: u32,
        /// Total wall-clock seconds across all attempts.
        elapsed_secs: f64,
    },
}

impl<T> CellOutcome<T> {
    /// The completed value, if any.
    pub fn value(self) -> Option<T> {
        match self {
            CellOutcome::Completed { value, .. } => Some(value),
            CellOutcome::Failed { .. } => None,
        }
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `f` as a fault-isolated cell at the named fault-injection `site`.
///
/// The site is armed once per call — an injected fault applies to *every*
/// attempt of this cell, so a `panic@site:N` entry deterministically turns
/// the N-th cell into a `Failed` record regardless of the retry policy.
/// Panics are caught per attempt; `AssertUnwindSafe` is justified because a
/// failed cell's partial state is only ever reported, never reused.
// audit:allow(MCPB017) the cell tests and crates/par/tests/pool.rs arm their sites through it
pub fn run_cell<T>(policy: &CellPolicy, site: &str, f: impl FnMut() -> T) -> CellOutcome<T> {
    run_cell_armed(policy, fault::arm(site), site, f)
}

/// [`run_cell`] with the fault decision made by the caller.
///
/// Parallel grids arm their cells *sequentially in grid order* before
/// fanning execution out to worker threads, then pass each pre-armed fault
/// here — the site's occurrence counter advances in the same order as a
/// sequential run, so a fault plan like `panic@sweep.cell:3` hits the same
/// logical cell at any thread count.
pub fn run_cell_armed<T>(
    policy: &CellPolicy,
    armed: Option<fault::FaultKind>,
    site: &str,
    mut f: impl FnMut() -> T,
) -> CellOutcome<T> {
    let start = Instant::now();
    let max_attempts = policy.max_attempts.max(1);
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        let attempt_start = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            if let Some(kind) = armed {
                fault::apply_disruptive(kind, site);
            }
            f()
        }));
        let attempt_secs = attempt_start.elapsed().as_secs_f64();
        let error = match result {
            Ok(value) => match policy.deadline_secs {
                Some(limit) if attempt_secs > limit => CellError::DeadlineExceeded {
                    limit_secs: limit,
                    elapsed_secs: attempt_secs,
                },
                _ => {
                    return CellOutcome::Completed {
                        value,
                        attempts,
                        elapsed_secs: start.elapsed().as_secs_f64(),
                    }
                }
            },
            Err(payload) => CellError::Panicked(panic_message(payload)),
        };
        if attempts >= max_attempts {
            return CellOutcome::Failed {
                error,
                attempts,
                elapsed_secs: start.elapsed().as_secs_f64(),
            };
        }
        let backoff = policy.backoff_base_secs * BACKOFF_MULT.powi(attempts as i32 - 1);
        if backoff > 0.0 {
            std::thread::sleep(std::time::Duration::from_secs_f64(backoff));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultKind, FaultPlan};
    use std::sync::{Mutex, MutexGuard};

    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn completes_on_first_try() {
        let out = run_cell(&CellPolicy::default(), "cell.t1", || 41 + 1);
        match out {
            CellOutcome::Completed {
                value,
                attempts,
                elapsed_secs,
            } => {
                assert_eq!(value, 42);
                assert_eq!(attempts, 1);
                assert!(elapsed_secs >= 0.0);
            }
            other => panic!("expected success, got {other:?}"),
        }
    }

    #[test]
    fn catches_panics_and_counts_attempts() {
        let out: CellOutcome<()> =
            run_cell(&CellPolicy::retrying(3), "cell.t2", || panic!("boom {}", 7));
        match out {
            CellOutcome::Failed {
                error: CellError::Panicked(msg),
                attempts,
                ..
            } => {
                assert!(msg.contains("boom 7"), "payload lost: {msg}");
                assert_eq!(attempts, 3);
            }
            other => panic!("expected panic failure, got {other:?}"),
        }
    }

    #[test]
    fn retry_succeeds_after_transient_panic() {
        let mut calls = 0;
        let out = run_cell(&CellPolicy::retrying(2), "cell.t3", || {
            calls += 1;
            if calls == 1 {
                panic!("transient");
            }
            calls
        });
        match out {
            CellOutcome::Completed {
                value, attempts, ..
            } => {
                assert_eq!(value, 2);
                assert_eq!(attempts, 2);
            }
            other => panic!("expected recovery, got {other:?}"),
        }
    }

    #[test]
    fn soft_deadline_classifies_overrun() {
        let policy = CellPolicy::default().with_deadline(0.0);
        let out = run_cell(&policy, "cell.t4", || {
            std::thread::sleep(std::time::Duration::from_millis(5));
            "done"
        });
        match out {
            CellOutcome::Failed {
                error:
                    CellError::DeadlineExceeded {
                        limit_secs,
                        elapsed_secs,
                    },
                attempts: 1,
                ..
            } => {
                assert_eq!(limit_secs, 0.0);
                assert!(elapsed_secs > 0.0);
            }
            other => panic!("expected deadline failure, got {other:?}"),
        }
    }

    #[test]
    fn injected_panic_defeats_retries() {
        let _g = serial();
        crate::fault::install(FaultPlan::parse("panic@cell.t5:2").unwrap());
        let ok = run_cell(&CellPolicy::retrying(3), "cell.t5", || 1);
        assert!(
            !matches!(ok, CellOutcome::Failed { .. }),
            "first cell must pass"
        );
        let hit: CellOutcome<i32> = run_cell(&CellPolicy::retrying(3), "cell.t5", || 1);
        match &hit {
            CellOutcome::Failed {
                error: CellError::Panicked(msg),
                attempts: 3,
                ..
            } => assert!(msg.contains("injected fault")),
            other => panic!("expected injected failure, got {other:?}"),
        }
        crate::fault::clear();
    }

    #[test]
    fn pre_armed_fault_applies_without_arming_the_site() {
        let _g = serial();
        crate::fault::clear();
        let hit: CellOutcome<i32> = run_cell_armed(
            &CellPolicy::default(),
            Some(FaultKind::Panic),
            "cell.t7",
            || 1,
        );
        assert!(
            matches!(
                hit,
                CellOutcome::Failed {
                    error: CellError::Panicked(_),
                    ..
                }
            ),
            "pre-armed panic must fire: {hit:?}"
        );
        let ok = run_cell_armed(&CellPolicy::default(), None, "cell.t7", || 5);
        assert_eq!(ok.value(), Some(5));
    }

    #[test]
    fn injected_stall_trips_deadline() {
        let _g = serial();
        crate::fault::install(FaultPlan::parse("stall@cell.t6:1=0.02").unwrap());
        let out = run_cell(&CellPolicy::default().with_deadline(0.001), "cell.t6", || 9);
        assert!(
            matches!(
                out,
                CellOutcome::Failed {
                    error: CellError::DeadlineExceeded { .. },
                    ..
                }
            ),
            "stall should blow the deadline: {out:?}"
        );
        crate::fault::clear();
    }
}
