//! Span-path-aligned run diffing: the regression-attribution engine behind
//! `mcpbench obs diff` and the `bench-ratchet.sh` failure diagnostic.
//!
//! Two [`RunModel`]s are joined on span path; each shared path yields a
//! [`DiffRow`] with self-time and peak-heap deltas. Rows whose relative
//! self-time change stays under the noise threshold are suppressed, so the
//! report surfaces *attributable* movement instead of timer jitter.
//! Regressions are ranked by absolute self-time growth — the top row is
//! the answer to "what made this run slower?".

use crate::model::RunModel;

/// Default noise threshold: relative self-time changes under 5% are noise.
pub const DEFAULT_NOISE: f64 = 0.05;
/// Absolute floor: spans that moved by less than this many nanoseconds are
/// never reported, whatever their ratio (sub-microsecond jitter).
pub const MIN_DELTA_NANOS: u64 = 1_000;

/// One span path's before/after comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    /// Full span path (shared by both runs).
    pub path: String,
    /// Self-time nanoseconds in the baseline run.
    pub before_self_nanos: u64,
    /// Self-time nanoseconds in the candidate run.
    pub after_self_nanos: u64,
    /// Signed self-time delta (after − before).
    pub delta_self_nanos: i64,
    /// `after / before` self-time ratio (`inf` when before is 0).
    pub ratio: f64,
    /// Peak-heap bytes in the baseline run.
    pub before_heap_bytes: u64,
    /// Peak-heap bytes in the candidate run.
    pub after_heap_bytes: u64,
}

impl DiffRow {
    /// Signed peak-heap delta (after − before).
    pub fn delta_heap_bytes(&self) -> i64 {
        self.after_heap_bytes as i64 - self.before_heap_bytes as i64
    }
}

/// The full structured diff of two runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunDiff {
    /// Baseline label.
    pub before_label: String,
    /// Candidate label.
    pub after_label: String,
    /// Shared paths that got slower, ranked by absolute self-time growth.
    pub regressions: Vec<DiffRow>,
    /// Shared paths that got faster, ranked by absolute self-time savings.
    pub improvements: Vec<DiffRow>,
    /// Paths only in the candidate run, sorted.
    pub added: Vec<String>,
    /// Paths only in the baseline run, sorted.
    pub removed: Vec<String>,
    /// Shared paths suppressed as noise.
    pub unchanged: usize,
}

impl RunDiff {
    /// The single worst regression, if any — what an attribution check
    /// asserts on.
    // audit:allow(MCPB017) tests/obs_tools.rs checks stall attribution with it
    pub fn top_regression(&self) -> Option<&DiffRow> {
        self.regressions.first()
    }
}

/// Diffs `after` against `before`, suppressing relative self-time changes
/// below `noise` (e.g. `0.05` for 5%) and absolute changes below
/// [`MIN_DELTA_NANOS`].
pub fn diff_runs(before: &RunModel, after: &RunModel, noise: f64) -> RunDiff {
    let noise = if noise.is_finite() && noise >= 0.0 {
        noise
    } else {
        DEFAULT_NOISE
    };
    let mut diff = RunDiff {
        before_label: before.label.clone(),
        after_label: after.label.clone(),
        ..RunDiff::default()
    };
    for b in &before.spans {
        let Some(a) = after.span(&b.path) else {
            diff.removed.push(b.path.clone());
            continue;
        };
        let delta = a.self_nanos as i64 - b.self_nanos as i64;
        let base = b.self_nanos.max(1) as f64;
        let ratio = a.self_nanos as f64 / base;
        let heap_moved = a.heap_peak_bytes != b.heap_peak_bytes;
        let below_noise = (delta.unsigned_abs() < MIN_DELTA_NANOS
            || (delta.abs() as f64) < noise * base.max(a.self_nanos as f64))
            && !heap_moved;
        if below_noise {
            diff.unchanged += 1;
            continue;
        }
        let row = DiffRow {
            path: b.path.clone(),
            before_self_nanos: b.self_nanos,
            after_self_nanos: a.self_nanos,
            delta_self_nanos: delta,
            ratio,
            before_heap_bytes: b.heap_peak_bytes,
            after_heap_bytes: a.heap_peak_bytes,
        };
        if delta > 0 {
            diff.regressions.push(row);
        } else {
            diff.improvements.push(row);
        }
    }
    for a in &after.spans {
        if before.span(&a.path).is_none() {
            diff.added.push(a.path.clone());
        }
    }
    diff.regressions.sort_by(|x, y| {
        y.delta_self_nanos
            .cmp(&x.delta_self_nanos)
            .then(x.path.cmp(&y.path))
    });
    diff.improvements.sort_by(|x, y| {
        x.delta_self_nanos
            .cmp(&y.delta_self_nanos)
            .then(x.path.cmp(&y.path))
    });
    diff
}

/// Formats nanoseconds with a sign, for delta columns.
fn fmt_signed_nanos(delta: i64) -> String {
    let body = mcpb_trace::fmt_nanos(delta.unsigned_abs());
    if delta < 0 {
        format!("-{body}")
    } else {
        format!("+{body}")
    }
}

/// Renders the diff as a compact text report.
pub fn render_diff(diff: &RunDiff) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "run diff: {} -> {}",
        diff.before_label, diff.after_label
    );
    let _ = writeln!(
        out,
        "  {} regression(s), {} improvement(s), {} within noise, {} added, {} removed",
        diff.regressions.len(),
        diff.improvements.len(),
        diff.unchanged,
        diff.added.len(),
        diff.removed.len(),
    );
    let section = |out: &mut String, title: &str, rows: &[DiffRow]| {
        if rows.is_empty() {
            return;
        }
        let _ = writeln!(out, "{title} (self-time before -> after, heap delta):");
        for r in rows {
            let heap = r.delta_heap_bytes();
            let heap_note = if heap == 0 {
                String::new()
            } else {
                format!("  heap {heap:+}B")
            };
            let _ = writeln!(
                out,
                "  {:<44} {:>9} -> {:>9}  ({}, x{:.2}){}",
                r.path,
                mcpb_trace::fmt_nanos(r.before_self_nanos),
                mcpb_trace::fmt_nanos(r.after_self_nanos),
                fmt_signed_nanos(r.delta_self_nanos),
                r.ratio,
                heap_note,
            );
        }
    };
    section(&mut out, "regressions", &diff.regressions);
    section(&mut out, "improvements", &diff.improvements);
    for (title, paths) in [("added", &diff.added), ("removed", &diff.removed)] {
        if !paths.is_empty() {
            let _ = writeln!(out, "{title} span paths:");
            for p in paths {
                let _ = writeln!(out, "  {p}");
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SpanAgg;

    fn model(label: &str, spans: &[(&str, u64, u64)]) -> RunModel {
        RunModel {
            label: label.to_string(),
            spans: spans
                .iter()
                .map(|(p, s, h)| SpanAgg {
                    path: p.to_string(),
                    calls: 1,
                    total_nanos: *s,
                    self_nanos: *s,
                    heap_peak_bytes: *h,
                })
                .collect(),
            ..RunModel::default()
        }
    }

    #[test]
    fn top_regression_is_the_biggest_absolute_growth() {
        let before = model(
            "a",
            &[("x", 1_000_000, 0), ("y", 2_000_000, 0), ("z", 500_000, 0)],
        );
        let after = model(
            "b",
            &[("x", 1_200_000, 0), ("y", 9_000_000, 0), ("z", 100_000, 0)],
        );
        let d = diff_runs(&before, &after, 0.05);
        assert_eq!(d.top_regression().expect("regressed").path, "y");
        assert_eq!(d.regressions.len(), 2);
        assert_eq!(d.improvements.len(), 1);
        assert_eq!(d.improvements[0].path, "z");
        let text = render_diff(&d);
        assert!(text.contains("regressions"), "{text}");
        assert!(text.contains('y'), "{text}");
    }

    #[test]
    fn noise_threshold_suppresses_small_movement() {
        let before = model("a", &[("x", 1_000_000, 0)]);
        let after = model("b", &[("x", 1_020_000, 0)]);
        let d = diff_runs(&before, &after, 0.05);
        assert!(d.regressions.is_empty());
        assert_eq!(d.unchanged, 1);
        // The same movement clears a 1% threshold.
        let d = diff_runs(&before, &after, 0.01);
        assert_eq!(d.regressions.len(), 1);
    }

    #[test]
    fn sub_microsecond_jitter_is_always_suppressed() {
        let before = model("a", &[("x", 100, 0)]);
        let after = model("b", &[("x", 900, 0)]);
        let d = diff_runs(&before, &after, 0.0);
        assert!(d.regressions.is_empty(), "800ns is under MIN_DELTA_NANOS");
    }

    #[test]
    fn heap_movement_survives_the_time_noise_gate() {
        let before = model("a", &[("x", 1_000_000, 1024)]);
        let after = model("b", &[("x", 1_000_000, 9_000_000)]);
        let d = diff_runs(&before, &after, 0.05);
        assert_eq!(d.improvements.len() + d.regressions.len(), 1);
        let row = d
            .improvements
            .first()
            .or_else(|| d.regressions.first())
            .unwrap();
        assert_eq!(row.delta_heap_bytes(), 9_000_000 - 1024);
    }

    #[test]
    fn added_and_removed_paths_are_listed() {
        let before = model("a", &[("gone", 5_000_000, 0)]);
        let after = model("b", &[("new", 5_000_000, 0)]);
        let d = diff_runs(&before, &after, 0.05);
        assert_eq!(d.removed, vec!["gone".to_string()]);
        assert_eq!(d.added, vec!["new".to_string()]);
    }
}
