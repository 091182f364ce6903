#!/usr/bin/env bash
# Local CI: formatting, the mcpb-audit lint gate, and the full test suite.
# Run from anywhere inside the repo; exits non-zero on the first failure.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> script syntax (scripts/*.sh and *.py; coverage.sh and ab.py run nowhere else here)"
for f in scripts/*.sh; do bash -n "$f"; done
# The bytecode cache goes under target/, so the check leaves no file in scripts/.
PYTHONPYCACHEPREFIX=target/pycache python3 -m py_compile scripts/*.py

echo "==> mcpb-audit lint gate"
cargo run -q -p mcpb-audit

echo "==> mcpb-audit self-check (golden fixtures must match their FIRE: tags exactly)"
cargo run -q -- audit --self-check

echo "==> mcpb-audit SARIF export (audit.sarif at the repo root)"
cargo run -q -- audit --format sarif --out audit.sarif

echo "==> settable-value ceiling (a fold lowers it; no change may raise it)"
# The pub fields of *Config/*Params/*Options/*Policy structs that
# scripts/loc.sh counts. A value only one non-test caller uses is a const.
SETTABLE_CEILING=75
settable=$(scripts/loc.sh | awk '/^settable values/ { print $NF }')
echo "    settable values: $settable (ceiling $SETTABLE_CEILING)"
if ! [[ $settable =~ ^[0-9]+$ ]] || (( settable > SETTABLE_CEILING )); then
  echo "FAIL: settable values '$settable' not a count at or below $SETTABLE_CEILING" >&2
  exit 1
fi

echo "==> rustdoc (warnings are errors, so a link to a deleted item fails here)"
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps --offline

echo "==> cargo test (workspace, MCPB_THREADS=1)"
MCPB_THREADS=1 cargo test -q --workspace

echo "==> cargo test (workspace, MCPB_THREADS=4)"
MCPB_THREADS=4 cargo test -q --workspace

echo "==> eval == tape, bit for bit, in the optimized build the benchmark runs"
cargo test -q --release -p mcpb-nn --test eval_equivalence
cargo test -q --release -p mcpb-gnn --test eval_equivalence
cargo test -q --release -p mcpb-rl --lib q_values_match_the_tape

echo "==> benchmark package self-tests (outside the workspace, so --workspace never builds it)"
# --locked: a dependency change must fail here, not silently rewrite the
# benchmark package's committed Cargo.lock.
cargo test -q --offline --locked --manifest-path e2ebench/Cargo.toml

echo "==> trace determinism + collector tests"
cargo test -q -p mcpb-trace
cargo test -q -p mcpb-drl --test trace_determinism

echo "==> telemetry smoke (JSONL must round-trip through the typed decoder)"
TRACE_OUT="target/check-trace-events.jsonl"
rm -f "$TRACE_OUT"
MCPB_TRACE="$TRACE_OUT" cargo run -q -- trace-smoke
cargo run -q -- trace-validate "$TRACE_OUT"

echo "==> telemetry smoke under a training fault (a rolled-back episode still counts)"
MCPB_FAULTS="nan@train.S2V-DQN:2" cargo run -q -- trace-smoke

echo "==> obs smoke (trace a sweep twice; report/diff/chrome/flame must hold together)"
OBS_A="target/check-obs-a.jsonl"
OBS_B="target/check-obs-b.jsonl"
rm -f "$OBS_A" "$OBS_B"
MCPB_TRACE="$OBS_A" cargo run -q -- --threads 1 sweep >/dev/null
MCPB_TRACE="$OBS_B" cargo run -q -- --threads 1 sweep >/dev/null
cargo run -q -- obs report "$OBS_A" | grep -q "Top self-time spans"
cargo run -q -- obs diff "$OBS_A" "$OBS_B" >/dev/null
cargo run -q -- obs chrome "$OBS_A" --out target/check-obs-chrome.json
cargo run -q -- obs flame "$OBS_A" >/dev/null
cargo run -q -- obs metrics "$OBS_A" | grep -q "mcpb_span_self_seconds"

echo "==> resilience tests (journal, fault isolation, divergence recovery)"
cargo test -q -p mcpb-resilience
cargo test -q -p mcpb-bench --test fault_injection
cargo test -q -p mcpb-drl --test divergence_recovery

echo "==> fault-injection smoke (injected panic -> partial grid -> clean resume)"
SWEEP_JOURNAL="target/check-sweep-journal.jsonl"
rm -f "$SWEEP_JOURNAL"
MCPB_FAULTS="panic@sweep.cell:3" cargo run -q -- sweep --journal "$SWEEP_JOURNAL" \
  | tee /dev/stderr | grep -q "failed=1"
cargo run -q -- sweep --resume "$SWEEP_JOURNAL" \
  | tee /dev/stderr | grep -q "failed=0 resumed=5"

echo "==> thread-count invariance smoke (journals at 1 vs 4 threads must diff clean)"
JOURNAL_T1="target/check-sweep-t1.jsonl"
JOURNAL_T4="target/check-sweep-t4.jsonl"
rm -f "$JOURNAL_T1" "$JOURNAL_T4"
cargo run -q -- --threads 1 sweep --journal "$JOURNAL_T1" >/dev/null
cargo run -q -- --threads 4 sweep --journal "$JOURNAL_T4" >/dev/null
cargo run -q -- journal-diff "$JOURNAL_T1" "$JOURNAL_T4"
cargo run -q -- --threads 4 par-bench 50000

echo "==> serve smoke (replay a fixed request log at 1 vs 4 threads; journals must match)"
SERVE_LOG="target/check-serve-requests.jsonl"
SERVE_T1="target/check-serve-t1.jsonl"
SERVE_T4="target/check-serve-t4.jsonl"
rm -f "$SERVE_LOG" "$SERVE_T1" "$SERVE_T4"
cargo run -q -- serve --gen 80 --burst --out "$SERVE_LOG" >/dev/null
MCPB_THREADS=1 cargo run -q -- serve --replay "$SERVE_LOG" --det-timing --out "$SERVE_T1" \
  | tee /dev/stderr | grep -q "serve: drain clean"
MCPB_THREADS=4 cargo run -q -- serve --replay "$SERVE_LOG" --det-timing --out "$SERVE_T4" >/dev/null
cmp "$SERVE_T1" "$SERVE_T4"
cargo run -q -- journal-diff "$SERVE_T1" "$SERVE_T4"

echo "==> serve chaos smoke (injected faults degrade, not kill; journals at 1 vs 4 threads must match)"
SERVE_FAULTS="panic@serve.query:2; stall@serve.query:5=0.02"
SERVE_CHAOS_T1="target/check-serve-chaos-t1.jsonl"
SERVE_CHAOS_T4="target/check-serve-chaos-t4.jsonl"
rm -f "$SERVE_CHAOS_T1" "$SERVE_CHAOS_T4"
MCPB_FAULTS="$SERVE_FAULTS" MCPB_THREADS=1 \
  cargo run -q -- serve --replay "$SERVE_LOG" --det-timing --out "$SERVE_CHAOS_T1" \
  | tee /dev/stderr | grep -q "serve: drain clean"
MCPB_FAULTS="$SERVE_FAULTS" MCPB_THREADS=4 \
  cargo run -q -- serve --replay "$SERVE_LOG" --det-timing --out "$SERVE_CHAOS_T4" >/dev/null
cmp "$SERVE_CHAOS_T1" "$SERVE_CHAOS_T4"

echo "==> large-tier smoke (1M-node sharded sampling; journals at 1 vs 4 threads must match)"
# Release-scale but bounded (~tens of seconds): one streamed 1M-node build
# that lands in the mmap cache, then a cache-hit rerun. MCPB_CHECK_LARGE=0
# skips it when that budget is too rich (e.g. pre-push on a laptop).
if [[ "${MCPB_CHECK_LARGE:-1}" == 0 ]]; then
  echo "    skipped (MCPB_CHECK_LARGE=0)"
else
  LARGE_T1="target/check-large-t1.jsonl"
  LARGE_T4="target/check-large-t4.jsonl"
  rm -f "$LARGE_T1" "$LARGE_T4"
  cargo run -q --release -- --threads 1 large-smoke --out "$LARGE_T1"
  cargo run -q --release -- --threads 4 large-smoke --out "$LARGE_T4"
  cmp "$LARGE_T1" "$LARGE_T4"
fi

echo "==> perf suite smoke (quick mode; writes BENCH_*.json + BENCH_REPORT.md under target/bench/)"
# Start empty so the ratchet compares only files this run wrote.
rm -rf target/bench
cargo run -q --release -- bench --quick --out-dir target/bench

echo "==> perf ratchet (target/bench/BENCH_*.json vs committed baselines, 10% tolerance)"
scripts/bench-ratchet.sh

echo "OK: fmt, audit, tests, telemetry, fault-injection, thread-invariance, and perf smokes all green"
