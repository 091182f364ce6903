//! Resilience primitives for the benchmark harness.
//!
//! The sweep grid and the five DRL training loops are long-running,
//! failure-prone computations: a single panicking solver, one NaN-diverging
//! episode, or a killed process should cost one cell — not the whole run.
//! This crate supplies the three mechanisms the harness builds on, with **no
//! dependencies** (not even the workspace shims) so it can sit below every
//! other crate:
//!
//! - [`cell`]: run a unit of work under `catch_unwind` with a soft
//!   wall-clock deadline and a retry-with-backoff policy, producing a typed
//!   [`CellOutcome`] instead of a process abort.
//! - [`journal`]: an append-only, fsync'd JSONL run journal whose header
//!   records the seed and a config hash, tolerating a torn final line so a
//!   killed process can resume from the last durable cell.
//! - [`fault`]: a deterministic, seed-driven fault-injection plan
//!   (`MCPB_FAULTS`) that fires panics, artificial NaN losses, and deadline
//!   stalls at named sites so every recovery path runs in CI.

pub mod cell;
pub mod fault;
pub mod journal;

pub use cell::{run_cell, run_cell_armed, CellError, CellOutcome, CellPolicy};
pub use fault::{FaultKind, FaultPlan};
pub use journal::{
    diff_journals_modulo_timing, normalize_timing, parse_journal, read_journal, EntryStatus,
    Journal, JournalEntry, JournalError, JournalHeader, JournalWriter,
};

/// FNV-1a 64-bit hash, used for config hashes in journal headers and for
/// the seed-driven chaos schedule. Stable across platforms and runs.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable_and_input_sensitive() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a64(b"a"), fnv1a64(b"b"));
        assert_eq!(fnv1a64(b"sweep"), fnv1a64(b"sweep"));
    }
}
