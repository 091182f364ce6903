#!/usr/bin/env python3
"""Paired A/B run of the end-to-end benchmark: a parent revision against the
working tree, on the same host and with the same settings.

Usage, from the repository root:
    python3 scripts/ab.py --parent REV [--pairs N] [--seeds LO-HI] [workload ...]

Steps:
1. Exports REV with `git archive` into target/ab/<sha>/ and
   builds its e2ebench there; builds the working tree's e2ebench into
   target/ab/change-target/. Both builds run `cargo build --release
   --offline`. An export that already exists is reused.
2. Runs N pairs (default 10) per workload (default: every workload in
   BENCHMARK.json). Pair i uses the i-th seed of LO-HI (default 101-110),
   wrapping around, and alternates which side runs first. Each run is the
   BENCHMARK.json invocation with --seconds set to its run_seconds and
   --trace 0; each side writes its --out-dir under target/ab/.
3. Prints, per end-to-end metric of BENCHMARK.json, both sides' medians and
   quartiles, the change's wins (ties count for neither side) and two
   verdicts: `gain` when the change wins at least 9 of every 10 pairs and
   the medians differ, in the metric's better direction, by more than the
   parent's interquartile range; `bound` when the change's median is no
   worse than the parent's by more than the metric's bound.
4. Compares the two sides' answer digests seed by seed.

Exits 1 when a run fails or any digest differs. Writes nothing outside
target/, leaves e2ebench/ unchanged and only calls the two binaries.
"""
import json
import os
import statistics
import subprocess
import sys

AB = os.path.join("target", "ab")


def sh(cmd, **kw):
    return subprocess.run(cmd, check=True, capture_output=True, text=True, **kw).stdout.strip()


def build(root, target_dir):
    """Builds `root`'s e2ebench into `target_dir`; returns the binary path."""
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.abspath(target_dir))
    manifest = os.path.join(root, "e2ebench", "Cargo.toml")
    subprocess.run(["cargo", "build", "--release", "--offline", "--quiet",
                    "--manifest-path", manifest], check=True, env=env)
    return os.path.abspath(os.path.join(target_dir, "release", "e2ebench"))


def export(rev):
    """Exports `rev` under target/ab/<sha>/ (once); returns its root."""
    sha = sh(["git", "rev-parse", "--short", rev + "^{commit}"])
    root = os.path.join(AB, sha)
    if not os.path.isdir(root):
        os.makedirs(root + ".tmp", exist_ok=True)
        archive = subprocess.Popen(["git", "archive", sha], stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", root + ".tmp"], stdin=archive.stdout, check=True)
        if archive.wait() != 0:
            sys.exit(f"git archive {sha} failed")
        os.rename(root + ".tmp", root)
    return sha, root


def run(side, binary, cwd, workload, seed, seconds):
    """One benchmark run; returns (metrics, digest)."""
    out_dir = os.path.abspath(os.path.join(AB, "out-" + side))
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", seconds,
           "--trace", "0", "--out-dir", out_dir]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{side} {workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    digest = next((ln.split()[-1] for ln in lines if ln.startswith("digest ")), None)
    metrics = {k: m["value"] for k, m in json.loads(lines[-1])["metrics"].items()}
    return metrics, digest


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def main(argv):
    bench = json.load(open("BENCHMARK.json"))
    parent, pairs, seeds, seconds = None, 10, range(101, 111), str(bench["run_seconds"])
    workloads = []
    it = iter(argv)
    for arg in it:
        if arg == "--parent":
            parent = next(it)
        elif arg == "--pairs":
            pairs = int(next(it))
        elif arg == "--seeds":
            lo, hi = next(it).split("-")
            seeds = range(int(lo), int(hi) + 1)
        elif arg.startswith("--"):
            sys.exit(__doc__)
        else:
            workloads.append(arg)
    if parent is None:
        sys.exit(__doc__)
    workloads = workloads or [w["name"] for w in bench["workloads"]]
    sha, parent_root = export(parent)
    sides = {
        "parent": (build(parent_root, os.path.join(AB, sha + "-target")), parent_root),
        "change": (build(".", os.path.join(AB, "change-target")), "."),
    }
    failed = False
    for w in workloads:
        values = {"parent": [], "change": []}
        digests_differ = []
        for i in range(pairs):
            seed = seeds[i % len(seeds)]
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            digest = {}
            for side in order:
                binary, cwd = sides[side]
                metrics, digest[side] = run(side, binary, cwd, w, seed, seconds)
                values[side].append(metrics)
            if digest["parent"] != digest["change"]:
                digests_differ.append(seed)
        print(f"== {w}: {pairs} pairs, parent {sha} vs working tree, seeds "
              f"{seeds[0]}-{seeds[-1]}, --seconds {seconds}")
        for m in bench["end_to_end"]:
            name, lower = m["name"], m["better"] == "lower"
            p = [v[name] for v in values["parent"]]
            c = [v[name] for v in values["change"]]
            wins = sum((cv < pv) if lower else (cv > pv) for pv, cv in zip(p, c))
            pm, cm = statistics.median(p), statistics.median(c)
            (p1, p3), (c1, c3) = quartiles(p), quartiles(c)
            gap = (pm - cm) if lower else (cm - pm)
            gain = wins * 10 >= 9 * pairs and gap > p3 - p1
            worse = -gap / abs(pm) if pm else 0.0
            print(f"  {name:9} parent {pm:<10.5g} [{p1:.5g}, {p3:.5g}]  "
                  f"change {cm:<10.5g} [{c1:.5g}, {c3:.5g}]  wins {wins}/{pairs}  "
                  f"gain {'yes' if gain else 'no'}  "
                  f"bound {'ok' if worse <= m['bound'] else 'EXCEEDED'} "
                  f"(change better by {-worse:+.1%})")
        if digests_differ:
            failed = True
            print(f"  digest DIFFERS on seeds {digests_differ}")
        else:
            print(f"  digest equal on all {pairs} pairs")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main(sys.argv[1:])
