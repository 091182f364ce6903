#!/usr/bin/env bash
# Perf ratchet: compares the BENCH_nn.json / BENCH_kernels.json / BENCH_im.json /
# BENCH_serve.json that `mcpbench bench --out-dir target/bench` wrote under target/bench/
# against the copies committed at HEAD and fails if any bench median regressed by more
# than the tolerance (default 10%; bench-check widens it to 30% for a quick run, and the
# failure line prints the value it applied). A missing file fails the check.
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

AREAS=(nn kernels im serve)
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
  cargo run -q --release -- bench
  echo "bench-ratchet: baselines refreshed — review and commit:"
  git --no-pager diff --stat -- BENCH_nn.json BENCH_kernels.json BENCH_im.json BENCH_serve.json \
    BENCH_audit.json BENCH_REPORT.md
  exit 0
fi

status=0
applied=$TOLERANCE
for area in "${AREAS[@]}"; do
  name="BENCH_${area}.json"
  file="${RUN_DIR}/${name}"
  if [[ ! -f "$file" ]]; then
    echo "bench-ratchet: $file missing — run" >&2
    echo "  cargo run --release -- bench --quick --out-dir ${RUN_DIR}" >&2
    status=1
    continue
  fi
  if ! git cat-file -e "HEAD:$name" 2>/dev/null; then
    echo "bench-ratchet: $name has no committed baseline yet — skipping"
    continue
  fi
  base="$(mktemp "${TMPDIR:-/tmp}/bench-base-${area}.XXXXXX.json")"
  git show "HEAD:$name" > "$base"
  if ! check_out=$(cargo run -q --release -- bench-check "$base" "$file" \
    --tolerance "$TOLERANCE" 2>&1); then
    echo "$check_out" >&2
    status=1
    # bench-check widens the tolerance for quick runs; report what it used.
    applied=$(sed -n 's/^bench-check: applied tolerance //p' <<<"$check_out")
    # Diagnostic only: rank which benches moved, worst first, so the failure
    # message names the culprit without re-running the suite.
    echo "bench-ratchet: per-bench attribution for ${area}:" >&2
    cargo run -q --release -- obs diff "$base" "$file" >&2 || true
  else
    echo "$check_out"
  fi
  rm -f "$base"
done

if [[ "$status" != 0 ]]; then
  echo "bench-ratchet: FAILED — a recorded kernel regressed beyond the applied tolerance ${applied:-$TOLERANCE}." >&2
  echo "If the slowdown is intentional, land it via scripts/bench-ratchet.sh --rebaseline." >&2
fi
exit "$status"
