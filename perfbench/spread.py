#!/usr/bin/env python3
"""Steadiness check: run the benchmark once per seed on one workload and
print each metric's median and quartile spread, (q3 - q1) / median with
Python's statistics.quantiles, over the seeds.

    python3 perfbench/spread.py --workload trained-s --seeds 1-10

Run from the repository root. The command and run length come from
BENCHMARK.json; --seconds and --trace override them.
"""

import argparse
import json
import statistics
import subprocess


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    first, last = (int(s) for s in args.seeds.split("-"))
    values = {}
    for seed in range(first, last + 1):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", args.trace,
        ]
        out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            raise SystemExit(f"seed {seed}: {result}")
        metrics = result["metrics"]
        for name, m in metrics.items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(f"{k} {m['value']:.6g}" for k, m in metrics.items()),
              flush=True)
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:<28} median {med:<12.6g} spread {spread:.4f} (n={len(vs)})")


if __name__ == "__main__":
    main()
