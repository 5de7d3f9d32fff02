#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command in BENCHMARK.json once per seed for each workload, and
prints, per metric, the median and the quartile spread (Q3 - Q1) / median
that the acceptance rule uses, against a third of the metric's bound.

    python3 perfbench/spread.py --workload sort --seeds 5
    python3 perfbench/spread.py --all --seeds 10 --first-seed 100

Run it from the repository root. It exits 1 if any run fails or is
incorrect, or if any spread (other than setup_s's) reaches a third of its
bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", "0",
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", default=[])
    ap.add_argument("--all", action="store_true", help="every workload")
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]] if args.all else args.workload
    if not workloads:
        ap.error("name a --workload or pass --all")

    ok = True
    for workload in workloads:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result = run_once(bench, workload, seed)
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: incorrect result {result}")
                ok = False
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={v[-1]:.4g}" for n, v in values.items()), flush=True)
        for m in bench["end_to_end"]:
            vals = values[m["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            limit = m["bound"] / 3
            steady = spread < limit or m["name"] == "setup_s"
            ok &= steady
            print(f"  {workload:<14} {m['name']:<12} median {med:>14.4f} {m['unit']:<5} "
                  f"spread {spread:.4f} (limit {limit:.4f}) {'ok' if steady else 'WIDE'}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
