#!/usr/bin/env python3
"""Run one rmabench workload k times and summarise every metric.

Usage (from the repository root):
    python3 rmabench/repeat.py --workload kv-zipf --seeds 1-10 \
        [--seconds 10] [--trace 0]
    python3 rmabench/repeat.py --workload kv-zipf --seeds 7 --runs 5

--seeds takes a list ("1,4,9"), a range ("1-10") or one seed; with one seed,
--runs repeats it. Each run goes through run.py. For every metric the tool
prints the median, first and third quartiles (statistics.quantiles, n=4)
and the spread (Q3 - Q1) / median, and flags:
  * an end-to-end metric whose spread exceeds its BENCHMARK.json bound;
  * a virtual-time metric or exact count that differs between runs of the
    same seed (units "s", "req/s", "MB" and "host_*" are host measurements;
    every other unit must repeat bit for bit).
Exits 1 if anything is flagged or a run fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HOST_UNITS = {"s", "req/s", "MB"}


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def is_host(unit):
    return unit in HOST_UNITS or unit.startswith("host_")


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        print("repeat.py: run with seed %d failed (exit %d)"
              % (seed, proc.returncode), file=sys.stderr)
        sys.exit(1)
    return json.loads(proc.stdout.splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--runs", type=int, default=1,
                        help="repetitions of each seed")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = []  # (seed, result)
    for seed in parse_seeds(args.seeds):
        for _ in range(args.runs):
            result = run_once(args.workload, seed, seconds, args.trace)
            runs.append((seed, result))
            print("seed %d: attempted %d failed %d" %
                  (seed, result["attempted"], result["failed"]),
                  file=sys.stderr)

    flagged = []
    names = list(runs[0][1]["metrics"])
    print("%-38s %14s %14s %14s %8s %6s  %s" %
          ("metric", "median", "q1", "q3", "spread", "bound", "unit"))
    for name in names:
        unit = runs[0][1]["metrics"][name]["unit"]
        values = [r["metrics"][name]["value"] for _, r in runs]
        med = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (values[0], None, values[0]))
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        note = ""
        if bound is not None and spread > bound:
            note = "  SPREAD ABOVE BOUND"
            flagged.append(name)
        if not is_host(unit):
            by_seed = {}
            for seed, r in runs:
                by_seed.setdefault(seed, set()).add(r["metrics"][name]["value"])
            if any(len(v) > 1 for v in by_seed.values()):
                note += "  NOT EXACTLY REPEATED"
                flagged.append(name)
        print("%-38s %14.6g %14.6g %14.6g %8.4f %6s  %s%s" %
              (name, med, q1, q3, spread,
               "" if bound is None else "%.3g" % bound, unit, note))
    if flagged:
        print("flagged: " + ", ".join(flagged))
        return 1
    print("no metric flagged (%d runs)" % len(runs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
