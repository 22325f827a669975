#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload <name> [--runs 10] [--first-seed 1]

Run it from the repository root.  It runs perfbench/run.py once per seed
(first-seed, first-seed + 1, ...) and prints, for each end-to-end metric,
its median over the runs and its spread: the interquartile range as a share
of the median, with quartiles as statistics.quantiles(values, n=4) gives
them.  Next to each spread it prints the metric's bound from BENCHMARK.json
and flags a spread above a third of the bound.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text())
    runner = Path(__file__).resolve().parent / "run.py"
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, str(runner), "--workload", args.workload,
               "--seed", str(seed), "--trace", "0"]
        if args.seconds:
            cmd += ["--seconds", str(args.seconds)]
        r = subprocess.run(cmd, capture_output=True, text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stderr)
            print(f"seed {seed}: run.py exited with {r.returncode}")
            return 1
        result = json.loads(r.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} "
                  f"checks failed")
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
            flush=True)

    print(f"\n{args.workload}: {args.runs} runs")
    print(f"{'metric':<18} {'median':>14} {'spread':>8} {'bound':>6}")
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        spread = stats.relative_spread(v)
        flag = "" if spread <= m["bound"] / 3 else "  above bound/3"
        print(f"{m['name']:<18} {stats.median(v):>14.6g} {spread:>8.4f} "
              f"{m['bound']:>6}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
