#!/usr/bin/env python3
"""Write a perf baseline as the per-metric median of several BENCH_perf.json
runs. The machine and build fields (hardware_concurrency, cpu_model,
build_type, git_sha) are taken from the first run.

Usage: median_perf_baseline.py OUTPUT RUN.json [RUN.json ...]

Every run must come from the same mode on the same machine, and a refresh
counts only if every run exited 0 (see README "Performance tracking").
"""
import json
import statistics
import sys


def main() -> int:
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    runs = []
    for path in sys.argv[2:]:
        with open(path) as f:
            runs.append(json.load(f))
    first = runs[0]
    names = list(first["metrics"])
    for path, run in zip(sys.argv[2:], runs):
        if run.get("mode") != first.get("mode") or list(run["metrics"]) != names:
            sys.exit(f"error: {path} differs from {sys.argv[2]} in mode or "
                     "metric set")

    lines = ["{"]
    for key in ("bench", "mode", "hardware_concurrency", "cpu_model",
                "build_type", "git_sha"):
        if key in first:
            lines.append(f'  "{key}": {json.dumps(first[key])},')
    lines.append('  "metrics": {')
    for i, name in enumerate(names):
        median = statistics.median(r["metrics"][name]["value"] for r in runs)
        higher = "true" if first["metrics"][name]["higher_is_better"] else "false"
        comma = "," if i + 1 < len(names) else ""
        lines.append(f'    "{name}": {{"value": {median:.6g}, '
                     f'"higher_is_better": {higher}}}{comma}')
    lines += ["  }", "}"]
    with open(sys.argv[1], "w") as f:
        f.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
