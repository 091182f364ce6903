#!/usr/bin/env bash
# Function-entry coverage over every run the system makes: lists the
# hand-written `mcpb_*`/`mcpbench` functions that no run of the corpus enters.
#
#   scripts/coverage.sh          # ~25 min on 2 vCPUs (debug build)
#
# 1. Builds mcpbench, mcpb-audit, every example and e2ebench (through its
#    own --locked manifest) in the debug profile with LLVM's SanitizerCoverage
#    at function level (`trace-pc-guard`), plus `-C link-dead-code` so that a
#    function no `main` reaches still lands in the binary and the reference
#    list. `--target` keeps build scripts and proc macros uninstrumented.
# 2. Links a small C callback that records each guard's first caller PC and
#    dumps the PCs at exit into target/coverage/pcs/.
# 3. Runs the corpus: quick `mcpbench all`, every smoke of scripts/check.sh,
#    the audit gate, the four e2ebench workloads at --seconds 1, every
#    example, NaN-fault divergence recovery, a torn-journal resume, and the
#    modes no script runs where they are cheap: `--full tab1`, `serve
#    --listen` (Unix socket), `large-smoke --config`, `datasets --large`,
#    run-spec, bench-check (pass and fail), `obs report` on a journal, audit
#    `--format json`/`--fix-hints`, and `--update-baseline` plus a planted
#    regression on an exported tree.
# 4. Maps each PC to its function with `llvm-nm -n -C --defined-only`,
#    strips the `::h<hash>`, unions the entered names over all binaries and
#    prints every function of mcpbench's symbol table, or of its own crates'
#    rlibs (a codegen unit nothing references is never linked), that none
#    entered.
#    Closures and derived impls (whose source line is a `#[derive(`) are
#    left out of the list but counted.
#
# Leave the sources alone while it runs: the derive check reads them at the end.
# Writes only under target/coverage/: entered.txt (sorted entered names, the
# e2ebench crate's own included), reference.txt (every named function of
# mcpbench) and unentered.txt (the printed list).
set -euo pipefail

cd "$(dirname "$0")/.."
ROOT=$PWD
OUT=$ROOT/target/coverage
TRIPLE=x86_64-unknown-linux-gnu
BUILD=$OUT/build
BIN=$BUILD/$TRIPLE/debug
RUN=$OUT/run
PCS=$OUT/pcs

rm -rf "$RUN" "$PCS"
mkdir -p "$RUN" "$PCS"

echo "==> coverage callback"
cat > "$OUT/guard.c" <<'EOF'
/* SanitizerCoverage trace-pc-guard callback: the first hit of each guard
 * records its caller's PC (inside the instrumented function) and disarms
 * the guard; atexit writes the binary's path and then the PCs, one hex per
 * line, to PC_DIR/<pid>.pcs. */
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <unistd.h>

#define MAX_PCS (1u << 20)
static uintptr_t pcs[MAX_PCS];
static uint32_t n_pcs;

static void dump(void) {
    char path[4096];
    snprintf(path, sizeof path, "%s/%d.pcs", PC_DIR, (int)getpid());
    FILE *f = fopen(path, "w");
    if (!f) return;
    char exe[4096];
    ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
    exe[len > 0 ? len : 0] = 0;
    fprintf(f, "%s\n", exe);
    uint32_t n = __atomic_load_n(&n_pcs, __ATOMIC_ACQUIRE);
    for (uint32_t i = 0; i < n && i < MAX_PCS; i++) fprintf(f, "%lx\n", (unsigned long)pcs[i]);
    fclose(f);
}

void __sanitizer_cov_trace_pc_guard_init(uint32_t *start, uint32_t *stop) {
    static int armed;
    if (start == stop || *start) return;
    for (uint32_t *g = start; g < stop; g++) *g = 1;
    if (!armed) { armed = 1; atexit(dump); }
}

void __sanitizer_cov_trace_pc_guard(uint32_t *guard) {
    /* A plain load first: every later entry of the function stops there. */
    if (!__atomic_load_n(guard, __ATOMIC_RELAXED) || !__atomic_exchange_n(guard, 0, __ATOMIC_RELAXED))
        return;
    uint32_t i = __atomic_fetch_add(&n_pcs, 1, __ATOMIC_ACQ_REL);
    if (i < MAX_PCS) pcs[i] = (uintptr_t)__builtin_return_address(0);
}
EOF
# The object is named by its content, so a changed callback changes
# RUSTFLAGS and cargo relinks every binary against it.
GUARD_O=$OUT/guard-$( (echo "$PCS"; cat "$OUT/guard.c") | sha1sum | cut -c1-12).o
gcc -O1 -c -DPC_DIR="\"$PCS\"" "$OUT/guard.c" -o "$GUARD_O"

echo "==> instrumented debug build (mcpbench, mcpb-audit, examples, e2ebench)"
export RUSTFLAGS="-C passes=sancov-module -C llvm-args=-sanitizer-coverage-level=1 \
-C llvm-args=-sanitizer-coverage-trace-pc-guard -C relocation-model=static \
-C link-dead-code -C link-arg=$GUARD_O"
cargo build -q --offline --target "$TRIPLE" --target-dir "$BUILD" \
  -p mcp-benchmark -p mcpb-audit --bins --examples
cargo build -q --offline --locked --target "$TRIPLE" --target-dir "$BUILD" \
  --manifest-path e2ebench/Cargo.toml
unset RUSTFLAGS

MCPB="$BIN/mcpbench"
# Every leg runs inside target/coverage/run, so relative outputs
# (target/datasets, .bench_out, journals) land there.
cd "$RUN"
leg() {
  local t0=$SECONDS
  if ! "$@" >>"$RUN/legs.log" 2>&1; then
    echo "coverage: leg failed: $* (output in $RUN/legs.log)" >&2
    exit 1
  fi
  echo "    $((SECONDS - t0))s  ${*##*/}"
}
expect_fail() { ! "$@"; }

# serve --listen on a Unix socket: 20 logged requests, then the admin
# shutdown line; fails unless the server drains clean and answers them all.
serve_listen() {
  python3 - "$MCPB" "$RUN/serve.sock" <<'PY'
import socket, subprocess, sys, time
mcpb, path = sys.argv[1:]
server = subprocess.Popen([mcpb, "serve", "--listen", "unix:" + path, "--queue", "8"])
for _ in range(600):
    try:
        conn = socket.socket(socket.AF_UNIX)
        conn.connect(path)
        break
    except OSError:
        time.sleep(0.1)
with open("requests.jsonl", "rb") as fh:
    conn.sendall(b"".join(fh.readlines()[:20]) + b'{"op":"shutdown"}\n')
conn.shutdown(socket.SHUT_WR)
answers = b""
while chunk := conn.recv(65536):
    answers += chunk
sys.exit(server.wait(timeout=600) or answers.count(b"\n") < 20)
PY
}

# The e2ebench workloads and the examples write nothing the mcpbench legs
# read, so they run beside them (about 20 min each way on 2 vCPUs).
side_legs() {
  for w in drl-mcp im-solve serve-replay large-rr; do
    leg "$BIN/e2ebench" --workload "$w" --seed 1 --seconds 1 --trace 0 --out-dir e2e
  done
  for ex in "$ROOT"/examples/*.rs; do
    leg "$BIN/examples/$(basename "$ex" .rs)"
  done
}

echo "==> corpus"
side_legs &
side=$!
leg "$MCPB" all
leg "$MCPB" --full tab1
MCPB_TRACE=trace.jsonl leg "$MCPB" trace-smoke
leg "$MCPB" trace-validate trace.jsonl
MCPB_FAULTS="nan@train.S2V-DQN:2" leg "$MCPB" trace-smoke
MCPB_TRACE=obs-a.jsonl leg "$MCPB" --threads 1 sweep
MCPB_TRACE=obs-b.jsonl leg "$MCPB" --threads 1 sweep
leg "$MCPB" obs report obs-a.jsonl
leg "$MCPB" obs diff obs-a.jsonl obs-b.jsonl
leg "$MCPB" obs chrome obs-a.jsonl --out chrome.json
leg "$MCPB" obs flame obs-a.jsonl
leg "$MCPB" obs metrics obs-a.jsonl
MCPB_FAULTS="panic@sweep.cell:3" leg "$MCPB" sweep --journal sweep.jsonl
leg "$MCPB" sweep --resume sweep.jsonl
# A journal torn mid-line (a crash during a write) resumes from its durable prefix.
head -c -7 sweep.jsonl > torn.jsonl
leg "$MCPB" sweep --resume torn.jsonl
leg "$MCPB" obs report sweep.jsonl
leg "$MCPB" --threads 1 sweep --journal sweep-t1.jsonl
leg "$MCPB" --threads 4 sweep --journal sweep-t4.jsonl
leg "$MCPB" journal-diff sweep-t1.jsonl sweep-t4.jsonl
leg "$MCPB" --threads 4 par-bench 50000
leg "$MCPB" serve --gen 80 --burst --out requests.jsonl
MCPB_THREADS=1 leg "$MCPB" serve --replay requests.jsonl --det-timing --out serve-t1.jsonl
MCPB_THREADS=4 leg "$MCPB" serve --replay requests.jsonl --det-timing --out serve-t4.jsonl
leg "$MCPB" journal-diff serve-t1.jsonl serve-t4.jsonl
MCPB_FAULTS="panic@serve.query:2; stall@serve.query:5=0.02" \
  leg "$MCPB" serve --replay requests.jsonl --det-timing --out serve-chaos.jsonl
leg serve_listen
# Divergence recovery of all five DRL methods (check.sh's faulted trace-smoke enters only S2V-DQN's).
MCPB_FAULTS="nan@train.S2V-DQN:2; nan@train.GCOMB:2; nan@train.LeNSE:2; nan@train.RL4IM:2; \
nan@train.Geometric-QN:2" leg "$MCPB" fig1 fig7
(cd "$ROOT" && leg "$BIN/mcpb-audit")
(cd "$ROOT" && leg "$MCPB" audit --self-check)
(cd "$ROOT" && leg "$MCPB" audit --format sarif --out "$RUN/audit.sarif")
(cd "$ROOT" && leg "$MCPB" audit --format json --out "$RUN/audit.json")
(cd "$ROOT" && leg "$MCPB" audit --fix-hints)
mkdir -p tree && git -C "$ROOT" archive HEAD | tar -x -C tree
leg "$BIN/mcpb-audit" --root tree --update-baseline
# A planted float equality must fail the gate on the exported tree.
echo 'fn _planted(a: f64) -> bool { a == 0.25 }' >> tree/crates/graph/src/lib.rs
leg expect_fail "$BIN/mcpb-audit" --root tree
leg "$MCPB" --threads 1 large-smoke --out large-t1.jsonl
leg "$MCPB" --threads 4 large-smoke --out large-t4.jsonl
leg "$MCPB" large-smoke --config ba-1m --rr 256 --ic 16 --lt 4 --out large-small.jsonl
leg "$MCPB" datasets --large ba-1m
leg "$MCPB" bench --quick --out-dir bench
leg "$MCPB" bench-check "$ROOT/BENCH_kernels.json" "$ROOT/BENCH_kernels.json"
sed -E 's/("median_nanos": *)([0-9]+)/\1\20/' "$ROOT/BENCH_kernels.json" > slow.json
leg expect_fail "$MCPB" bench-check "$ROOT/BENCH_kernels.json" slow.json
leg "$MCPB" obs report bench/BENCH_im.json
cat > spec.json <<'JSON'
{"problem": "Mcp", "datasets": ["Damascus"], "budgets": [3], "mcp_methods": ["LazyGreedy"],
 "im_methods": [], "weight_models": [], "scale": "Quick", "scorer_rr_sets": 1000, "seed": 1}
JSON
leg "$MCPB" run-spec spec.json
leg "$MCPB" list
if ! wait "$side"; then
  echo "coverage: an e2ebench or example leg failed (output in $RUN/legs.log)" >&2
  exit 1
fi
cd "$ROOT"

echo "==> symbolize"
python3 - "$OUT" "$PCS" "$BIN" <<'EOF'
import bisect, glob, os, re, subprocess, sys

out, pcs_dir, bin_dir = sys.argv[1:]
HASH = re.compile(r"::h[0-9a-f]{16}$")
OWN = re.compile(r"^<?(mcpb_[a-z_]+|mcpbench|mcp_benchmark)::")
ESCAPES = {"SP": "@", "BP": "*", "RF": "&", "LT": "<", "GT": ">", "LP": "(", "RP": ")", "C": ","}


def demangle(name):
    """Finishes the legacy demangling LLVM 14's nm leaves half done
    (`_$LT$a..B$u20$as$u20$c..D$GT$::f` -> `<a::B as c::D>::f`)."""
    name = re.sub(r"(^|::)_(?=\$)", r"\1", name).replace("..", "::")
    return re.sub(r"\$(u[0-9a-f]{2}|[A-Z]{1,2})\$",
                  lambda m: chr(int(m[1][1:], 16)) if m[1][0] == "u" else ESCAPES.get(m[1], m[0]), name)


def symbols(path):
    """(sorted start addresses, demangled names without hash) of `path`."""
    text = subprocess.run(["llvm-nm", "-n", "-C", "--defined-only", path],
                          check=True, capture_output=True, text=True).stdout
    addrs, names = [], []
    for line in text.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[1] in "tTwW":
            addrs.append(int(parts[0], 16))
            names.append(demangle(HASH.sub("", parts[2])))
    return addrs, names


# Each <pid>.pcs file starts with the path of the binary that wrote it
# (non-PIE, so its PCs are link-time addresses of that binary).
tables, entered = {}, set()
for f in sorted(glob.glob(os.path.join(pcs_dir, "*.pcs"))):
    with open(f) as fh:
        exe, *file_pcs = fh.read().split()
    if exe not in tables:
        tables[exe] = symbols(exe)
    addrs, names = tables[exe]
    for pc in file_pcs:
        i = bisect.bisect_right(addrs, int(pc, 16)) - 1
        if i >= 0:
            entered.add(names[i])

# The reference list: every own function of the mcpbench binary, plus
# those of the newest rlib of each own crate. A static link pulls in only
# the object files something references, so a function alone in an
# unreferenced codegen unit is missing from the binary even with
# -C link-dead-code.
ref_addrs, ref_names = symbols(os.path.join(bin_dir, "mcpbench"))
rlibs = {}
for f in glob.glob(os.path.join(bin_dir, "deps", "lib*.rlib")):
    crate = os.path.basename(f)[3:].rsplit("-", 1)[0]
    if crate not in rlibs or os.path.getmtime(f) > os.path.getmtime(rlibs[crate]):
        rlibs[crate] = f
rlib_names = set()
for crate, f in rlibs.items():
    if OWN.match(crate + "::"):
        rlib_names.update(symbols(f)[1])
own = lambda n: OWN.match(n) and "{{closure}}" not in n
reference = sorted({n for n in ref_names if own(n)} | {n for n in rlib_names if own(n)})
own_entered = sorted(n for n in entered if OWN.match(n))
unentered = [n for n in reference if n not in entered]

# Derived impls: the function's source line is the `#[derive(...)]` line.
# A function only an rlib holds has no address to look up; a derivable
# trait's method there counts as derived.
DERIVABLE = re.compile(r" as core::(clone::Clone|cmp::(Partial)?(Eq|Ord)|fmt::Debug|hash::Hash|"
                       r"default::Default)>::|as serde::(Serialize|Deserialize)>::")
first_addr = {}
for a, n in zip(ref_addrs, ref_names):
    first_addr.setdefault(n, a)
linked = [n for n in unentered if n in first_addr]
query = "\n".join(hex(first_addr[n]) for n in linked)
lines = subprocess.run(["llvm-addr2line", "-e", os.path.join(bin_dir, "mcpbench")],
                       input=query, check=True, capture_output=True, text=True).stdout.splitlines()
derived = [n for n in unentered if n not in first_addr and DERIVABLE.search(n)]
listed = [n for n in unentered if n not in first_addr and not DERIVABLE.search(n)]
for n, loc in zip(linked, lines):
    path, _, line = loc.rpartition(":")
    line = line.split(" ")[0]
    src = ""
    if os.path.isfile(path) and line.isdigit():
        with open(path) as fh:
            all_lines = fh.readlines()
        if 0 < int(line) <= len(all_lines):
            src = all_lines[int(line) - 1]
    (derived if "derive(" in src else listed).append(n)
listed.sort()

for name, rows in (("entered.txt", own_entered), ("reference.txt", reference),
                   ("unentered.txt", listed)):
    with open(os.path.join(out, name), "w") as fh:
        fh.writelines(r + "\n" for r in rows)
print(f"coverage: {len(reference)} named functions in mcpbench and its crates, "
      f"{len(reference) - len(unentered)} "
      f"entered, {len(unentered)} not entered ({len(derived)} derived impls, {len(listed)} listed "
      "below)")
for n in listed:
    print(n)
EOF
