#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload <name> [--seeds 1-10] [--seconds S]
                                [--out values.json]

Runs perfbench/run.py once per seed (untraced) from the checkout root and
prints, for every end-to-end metric, the median of the runs and the
distance between the first and third quartile (Python's
statistics.quantiles(values, n=4)) as a share of that median, next to
the metric's bound from BENCHMARK.json. A spread above a third of the
bound is flagged; setup_s is flagged only for information, since its
bound applies to the shift of its median, not to its spread.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    if "-" in text:
        low, high = text.split("-", 1)
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--out", help="also write every run's values here")
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in parse_seeds(args.seeds):
        start = time.monotonic()
        run = subprocess.run(
            [sys.executable, os.path.join(root, "perfbench", "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=root, capture_output=True, text=True)
        lines = run.stdout.strip().splitlines()
        if run.returncode != 0 or not lines:
            sys.stderr.write(run.stdout + run.stderr)
            print(f"seed {seed}: failed with exit code {run.returncode}")
            return 1
        result = json.loads(lines[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect output")
            return 1
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: {time.monotonic() - start:.1f} s, serve_rps "
              f"{result['metrics']['serve_rps']['value']:.1f}", flush=True)

    if args.out:
        with open(args.out, "w") as f:
            json.dump(values, f, indent=1)
    print(f"\n{args.workload}: {len(values['setup_s'])} runs")
    print(f"{'metric':<20} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}")
    for metric in bench["end_to_end"]:
        v = values[metric["name"]]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        flag = "" if spread < metric["bound"] / 3 else "  <-- above bound/3"
        print(f"{metric['name']:<20} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
              f"{spread:>8.4f} {metric['bound']:>6}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
