#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

Usage, from the repository root:
    python3 e2ebench/spread.py [--seeds 1-10] [--repeat N] [--trace 0|1] [--seconds S]
                               [--raw] [workload ...]

Runs the command in BENCHMARK.json once per seed and workload, then prints
for every metric its median and the distance between the first and third
quartile (statistics.quantiles, n=4) as a share of the median, next to a
third of the metric's bound. Any run that exits non-zero is reported and
stops the script. `--repeat N` runs every seed N times, which separates
run-to-run noise from seed-to-seed variation; `--raw` prints every value.
"""
import json
import statistics
import subprocess
import sys


def main(argv):
    bench = json.load(open("BENCHMARK.json"))
    seeds, trace, seconds, workloads = range(1, 11), "0", str(bench["run_seconds"]), []
    repeat, raw = 1, False
    it = iter(argv)
    for arg in it:
        if arg == "--seeds":
            lo, hi = next(it).split("-")
            seeds = range(int(lo), int(hi) + 1)
        elif arg == "--trace":
            trace = next(it)
        elif arg == "--seconds":
            seconds = next(it)
        elif arg == "--repeat":
            repeat = int(next(it))
        elif arg == "--raw":
            raw = True
        else:
            workloads.append(arg)
    workloads = workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    for w in workloads:
        values = {}
        for seed in [s for s in seeds for _ in range(repeat)]:
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", seconds, "--trace", trace]
            run = subprocess.run(cmd, capture_output=True, text=True)
            if run.returncode != 0:
                sys.exit(f"{w} seed {seed}: exit {run.returncode}\n{run.stderr[-2000:]}")
            result = json.loads(run.stdout.strip().splitlines()[-1])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {w} ({len(seeds)} seeds x {repeat})")
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = bounds.get(name)
            limit = f"  limit {bound / 3:.4f}" if bound else ""
            print(f"  {name:34} median {med:<14.6g} spread {spread:.4f}{limit}")
            if raw:
                print("    " + " ".join(f"{v:.6g}" for v in vs))


if __name__ == "__main__":
    main(sys.argv[1:])
