//! Wall-clock + memory instrumentation around solver runs.

use mcpb_resilience::{run_cell, CellOutcome, CellPolicy};
use mcpb_trace::alloc::{measure_peak, tracking_installed};
use mcpb_trace::Stopwatch;
use serde::{Deserialize, Serialize};

/// One instrumented run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct Measurement {
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Peak additional heap bytes during the run. `None` when the tracking
    /// allocator is not installed as the global allocator — previously this
    /// was reported as `0`, which was indistinguishable from a genuine
    /// zero-allocation run.
    pub peak_bytes: Option<usize>,
}

/// Runs `f`, measuring wall-clock time and allocator peak.
pub fn run_measured<R>(f: impl FnOnce() -> R) -> (R, Measurement) {
    let watch = Stopwatch::start();
    let (out, peak) = measure_peak(f);
    (
        out,
        Measurement {
            seconds: watch.elapsed_secs(),
            peak_bytes: tracking_installed().then_some(peak),
        },
    )
}

/// Runs `f` as a fault-isolated, instrumented cell: the closure executes
/// under [`run_cell`] (catch_unwind + retry + soft deadline) at the given
/// fault-injection `site`, and each successful attempt carries its own
/// [`Measurement`]. A panicking or overrunning cell becomes a typed
/// [`CellOutcome::Failed`] instead of aborting the sweep.
pub fn run_measured_guarded<R>(
    policy: &CellPolicy,
    site: &str,
    mut f: impl FnMut() -> R,
) -> CellOutcome<(R, Measurement)> {
    run_cell(policy, site, || run_measured(&mut f))
}

/// Mean of a sample.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Population standard deviation of a sample.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|&x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_time() {
        let (v, m) = run_measured(|| {
            let mut acc = 0u64;
            for i in 0..100_000u64 {
                acc = acc.wrapping_add(i * i);
            }
            acc
        });
        assert!(v > 0);
        assert!(m.seconds >= 0.0);
    }

    #[test]
    fn peak_is_none_without_tracking_allocator() {
        // Library tests run under the system allocator, so the measurement
        // must report "unknown" rather than a misleading 0.
        let (_, m) = run_measured(|| vec![0u8; 4096].len());
        assert_eq!(m.peak_bytes, None);
    }

    #[test]
    fn measurement_serializes_optional_peak() {
        let m = Measurement {
            seconds: 1.5,
            peak_bytes: None,
        };
        let json = serde_json::to_string(&m).expect("serialize");
        assert!(json.contains("null"), "None must encode as null: {json}");
        let m2 = Measurement {
            seconds: 1.5,
            peak_bytes: Some(1024),
        };
        let json2 = serde_json::to_string(&m2).expect("serialize");
        assert!(
            json2.contains("1024"),
            "Some must encode the value: {json2}"
        );
    }

    #[test]
    fn guarded_run_isolates_panics_and_measures_successes() {
        let ok = run_measured_guarded(&CellPolicy::default(), "instrument.t1", || 7);
        match ok {
            CellOutcome::Completed {
                value: (v, m),
                attempts: 1,
                ..
            } => {
                assert_eq!(v, 7);
                assert!(m.seconds >= 0.0);
            }
            other => panic!("expected completion, got {other:?}"),
        }
        let bad: CellOutcome<(u32, Measurement)> =
            run_measured_guarded(&CellPolicy::default(), "instrument.t2", || {
                panic!("cell blew up")
            });
        assert!(bad.is_failed());
    }

    #[test]
    fn stats_helpers() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(std_dev(&[5.0]), 0.0);
        let sd = std_dev(&[2.0, 4.0]);
        assert!((sd - 1.0).abs() < 1e-12);
    }
}
