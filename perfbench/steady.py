#!/usr/bin/env python3
"""Steadiness report for the perfbench benchmark.

Runs each named workload once per seed, each run a separate process as
the benchmark's command line runs it, and prints for every metric the
median, the quartiles (statistics.quantiles, n=4) and the spread: the
distance between the quartiles as a share of the median. Metrics whose
spread exceeds a third of their bound in BENCHMARK.json are marked.
Run it from the repository root:

    python3 perfbench/steady.py --seeds 10 --seconds 20 fleet-warm store-churn
"""
import argparse
import json
import statistics
import subprocess
import sys


def cpu_jiffies():
    """Returns (steal, total) jiffies of all CPUs, or None off Linux."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except OSError:
        return None
    return fields[7], sum(fields)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workloads", nargs="+")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--raw", action="store_true", help="also print every run's value")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    failed = False
    for w in args.workloads:
        values = {}
        steal = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            before = cpu_jiffies()
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(seconds), "--trace", str(args.trace)]
            res = subprocess.run(cmd, capture_output=True, text=True)
            after = cpu_jiffies()
            if before and after and after[1] > before[1]:
                steal.append((after[0] - before[0]) / (after[1] - before[1]))
            lines = res.stdout.strip().splitlines()
            if res.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {res.returncode}\n{res.stderr}", file=sys.stderr)
                failed = True
                continue
            doc = json.loads(lines[-1])
            if not doc["correct"] or doc["failed"]:
                failed = True
            for name, m in doc["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{w}: {args.seeds} seeds x {seconds}s")
        if steal:
            # CPU time the host took from this machine while the runs
            # ran; wall-clock metrics worsen with it.
            print("  host steal per run: " + " ".join(f"{x:.1%}" for x in steal))
        print(f"  {'metric':32} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}")
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
            spread = (q3 - q1) / med if med else float("nan")
            mark = ""
            b = bounds.get(name)
            if b and name != "setup_s" and spread > b / 3:
                mark = f"  > bound/3 ({b / 3:.3f})"
            print(f"  {name:32} {med:14.4f} {q1:14.4f} {q3:14.4f} {spread:8.4f}{mark}")
            if args.raw:
                print("    " + " ".join(f"{v:.4f}" for v in vs))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
