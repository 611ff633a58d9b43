#!/usr/bin/env python3
"""Guard the perf trajectory: compare a fresh BENCH_perf.json against the
committed baseline and fail on any metric that regressed by more than the
given factor (default 2x, direction-aware via each metric's
higher_is_better flag).

Two absolute gates ride along. When the current run has more than one
hardware thread, a single-core baseline is a hard failure (a multi-core
runner must not be anchored to a starved baseline; refresh it instead).
When it has >= 8 hardware threads, serve_all_speedup_8t must reach 1.5x.

Usage: check_perf_regression.py CURRENT BASELINE [--factor 2.0]

The metric key sets must match: a metric present in only one of the files
fails the check with the missing/extra names listed (a new metric needs a
baseline refresh in the same change; a retired one needs cleanup), so a
silently renamed metric can never sail through unenforced.
"""
import argparse
import json
import os
import sys


def load_doc(path: str, role: str) -> dict:
    """Reads {"metrics": {name: {"value": ...}}} with clear errors instead
    of KeyError tracebacks on malformed files."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        sys.exit(f"error: cannot read {role} file {path}: {err}")
    if (not isinstance(doc, dict) or "metrics" not in doc
            or not isinstance(doc["metrics"], dict)):
        sys.exit(f"error: {role} file {path} has no top-level \"metrics\" "
                 "object (is it a BENCH_perf.json?)")
    metrics = doc["metrics"]
    for name, entry in metrics.items():
        if (not isinstance(entry, dict) or "value" not in entry
                or isinstance(entry["value"], bool)
                or not isinstance(entry["value"], (int, float))):
            sys.exit(f"error: {role} metric \"{name}\" in {path} has no "
                     "numeric \"value\" field")
    return doc


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", help="freshly produced BENCH_perf.json")
    parser.add_argument("baseline", help="committed perf_baseline.json")
    parser.add_argument("--factor", type=float, default=2.0,
                        help="allowed slowdown factor (default 2.0)")
    args = parser.parse_args()

    current_doc = load_doc(args.current, "current")
    baseline_doc = load_doc(args.baseline, "baseline")
    current = current_doc["metrics"]
    baseline = baseline_doc["metrics"]

    hard_failures = []

    # A single-core baseline cannot anchor the threaded-speedup metrics:
    # serve_all_speedup_* degenerates to ~1x however good the sharded loop
    # is. On a single-core runner the best we can do is warn so a baseline
    # refreshed on a starved machine is caught at review; once the current
    # run actually has cores to compare against, a stale single-core
    # baseline silently lowers the bar for every threaded metric, so it
    # escalates to a hard failure. The warning is emitted as a GitHub
    # Actions annotation (::warning::) so it surfaces on the run summary
    # and the PR checks page, not just in the job log.
    current_threads = current_doc.get("hardware_concurrency")
    if baseline_doc.get("hardware_concurrency") == 1:
        message = ("baseline was recorded with hardware_concurrency=1 "
                   "(single-core machine); threaded speedup metrics are "
                   "meaningless at this concurrency — refresh "
                   "bench/baselines/perf_baseline.json on a multi-core "
                   "machine when one is available")
        if isinstance(current_threads, int) and current_threads > 1:
            hard_failures.append(
                f"single-core baseline on a {current_threads}-thread "
                "runner: " + message)
        else:
            if os.environ.get("GITHUB_ACTIONS") == "true":
                print(f"::warning title=Single-core perf baseline::{message}")
            print(f"warning: {message}", file=sys.stderr)

    # Absolute multi-core scaling floor: with 8+ hardware threads the
    # 8-shard ServeAll must beat the single-shard wall by at least 1.5x.
    # Relative-to-baseline checks can never catch a scaling collapse that
    # was already baked into the baseline, hence an absolute gate.
    if isinstance(current_threads, int) and current_threads >= 8:
        speedup = current.get("serve_all_speedup_8t", {}).get("value")
        if speedup is None:
            hard_failures.append(
                "current run has >= 8 hardware threads but no "
                "serve_all_speedup_8t metric")
        elif speedup < 1.5:
            hard_failures.append(
                f"serve_all_speedup_8t = {speedup:.3g} < 1.5 on a "
                f"{current_threads}-thread runner")

    missing_from_current = sorted(set(baseline) - set(current))
    missing_from_baseline = sorted(set(current) - set(baseline))

    failures = []
    print(f"{'metric':40} {'baseline':>12} {'current':>12}  verdict")
    for name in sorted(set(current) & set(baseline)):
        base = baseline[name]["value"]
        cur = current[name]["value"]
        higher = baseline[name].get("higher_is_better", True)
        if base <= 0:
            verdict = "skipped (non-positive baseline)"
        elif not higher and cur <= 0:
            # A zero wall-clock can only be timer resolution on a
            # degenerate run — never a regression, never divide by it.
            verdict = "skipped (non-positive current)"
        elif higher and cur < base / args.factor:
            verdict = f"FAIL (<{1 / args.factor:.2g}x baseline)"
            failures.append(name)
        elif not higher and cur > base * args.factor:
            verdict = f"FAIL (>{args.factor:.2g}x baseline)"
            failures.append(name)
        else:
            ratio = cur / base if higher else base / cur
            verdict = f"ok ({ratio:.2f}x)"
        print(f"{name:40} {base:12.6g} {cur:12.6g}  {verdict}")

    status = 0
    if missing_from_current or missing_from_baseline:
        print("\nmetric key sets diverge between baseline and current:",
              file=sys.stderr)
        if missing_from_current:
            print("  missing from current (retired? clean the baseline): "
                  + ", ".join(missing_from_current), file=sys.stderr)
        if missing_from_baseline:
            print("  missing from baseline (new? refresh "
                  "bench/baselines/perf_baseline.json from this run): "
                  + ", ".join(missing_from_baseline), file=sys.stderr)
        status = 1
    if failures:
        print(f"\nperf regression in: {', '.join(failures)}", file=sys.stderr)
        status = 1
    for message in hard_failures:
        print(f"\nhard gate failure: {message}", file=sys.stderr)
        status = 1
    if status == 0:
        print("\nno perf regressions")
    return status


if __name__ == "__main__":
    sys.exit(main())
