#!/usr/bin/env bash
# Perf ratchet: compares the BENCH_nn.json / BENCH_kernels.json / BENCH_im.json /
# BENCH_serve.json / BENCH_large.json that `mcpbench bench --out-dir target/bench` wrote
# under target/bench/ against the copies committed at HEAD and fails if any bench median
# regressed by more than the tolerance (default 10%). A missing nn/kernels/im/serve file
# fails the check; a missing BENCH_large.json is skipped, since only `bench --large` writes it.
# BENCH_audit.json is written too but not ratcheted.
# Baselines are the committed files themselves — a deliberate slowdown is landed by
# committing the new numbers, which is what `--rebaseline` does.
#
#   scripts/bench-ratchet.sh               # check target/bench/ vs HEAD
#   scripts/bench-ratchet.sh --tolerance 0.25
#   scripts/bench-ratchet.sh --rebaseline  # re-run the suite, refresh files
#
# Like scripts/rebaseline.sh, --rebaseline refuses a dirty tree: the diff
# must show only the baseline change, reviewable against the code that
# motivated it.
set -euo pipefail

cd "$(dirname "$0")/.."

AREAS=(nn kernels im serve large)
RUN_DIR=target/bench
TOLERANCE=0.10
REBASELINE=0

while [[ $# -gt 0 ]]; do
  case "$1" in
    --tolerance)
      TOLERANCE="${2:?--tolerance needs a value}"
      shift 2
      ;;
    --rebaseline)
      REBASELINE=1
      shift
      ;;
    *)
      echo "usage: scripts/bench-ratchet.sh [--tolerance <frac>] [--rebaseline]" >&2
      exit 2
      ;;
  esac
done

if [[ "$REBASELINE" == 1 ]]; then
  if [[ -n "$(git status --porcelain)" ]]; then
    echo "bench-ratchet: working tree is dirty — commit or stash first, so the" >&2
    echo "baseline diff is reviewable on its own. (git status --porcelain:)" >&2
    git status --porcelain >&2
    exit 1
  fi
  cargo run -q --release -- bench --large
  echo "bench-ratchet: baselines refreshed — review and commit:"
  git --no-pager diff --stat -- BENCH_nn.json BENCH_kernels.json BENCH_im.json BENCH_serve.json \
    BENCH_audit.json BENCH_large.json BENCH_REPORT.md
  exit 0
fi

status=0
for area in "${AREAS[@]}"; do
  name="BENCH_${area}.json"
  file="${RUN_DIR}/${name}"
  if [[ ! -f "$file" ]]; then
    if [[ "$area" == large ]]; then
      echo "bench-ratchet: $file not recorded (needs bench --large) — skipping"
    else
      echo "bench-ratchet: $file missing — run" >&2
      echo "  cargo run --release -- bench --quick --out-dir ${RUN_DIR}" >&2
      status=1
    fi
    continue
  fi
  if ! git cat-file -e "HEAD:$name" 2>/dev/null; then
    echo "bench-ratchet: $name has no committed baseline yet — skipping"
    continue
  fi
  base="$(mktemp "${TMPDIR:-/tmp}/bench-base-${area}.XXXXXX.json")"
  git show "HEAD:$name" > "$base"
  if ! cargo run -q --release -- bench-check "$base" "$file" --tolerance "$TOLERANCE"; then
    status=1
    # Diagnostic only: rank which benches moved, worst first, so the failure
    # message names the culprit without re-running the suite.
    echo "bench-ratchet: per-bench attribution for ${area}:" >&2
    cargo run -q --release -- obs diff "$base" "$file" >&2 || true
  fi
  rm -f "$base"
done

if [[ "$status" != 0 ]]; then
  echo "bench-ratchet: FAILED — a recorded kernel regressed beyond ${TOLERANCE}." >&2
  echo "If the slowdown is intentional, land it via scripts/bench-ratchet.sh --rebaseline." >&2
fi
exit "$status"
