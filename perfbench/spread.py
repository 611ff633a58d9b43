#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports, per workload and
end-to-end metric, the median and the quartile spread: the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of the median, next to the metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py --runs 10 --seconds 10
    python3 perfbench/spread.py --runs 5 --workloads serve-chaos
    python3 perfbench/spread.py --runs 10 --write perfbench/reference.json

``--write`` stores the medians with the machine record: this is how the
reference numbers in perfbench/reference.json are refreshed. Run from the
repository root; each run is one ``run.py`` process.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed (exit {proc.returncode}):\n"
                 + proc.stdout + proc.stderr)
    machine = next(json.loads(line[len("machine "):]) for line in lines
                   if line.startswith("machine "))
    return machine, json.loads(lines[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--write", help="store medians + machine as JSON")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    reference = {"runs": args.runs, "seconds": args.seconds, "workloads": {}}
    worst = 0.0
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            machine, result = run(workload, seed, args.seconds)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        reference["machine"] = {k: v for k, v in machine.items()
                                if k != "seed"}
        reference["workloads"][workload] = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            reference["workloads"][workload][name] = statistics.median(vals)
            print(f"{workload:12s} {name:14s} median {statistics.median(vals):12.6g}"
                  f"  spread {spread:7.4f}  bound {bounds[name]:.2f}"
                  f"  ({spread / bounds[name]:.2f} of bound)")
    print(f"largest spread / bound (setup_s excluded): {worst:.2f}")
    if args.write:
        Path(args.write).write_text(json.dumps(reference, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
