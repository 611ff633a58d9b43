#!/usr/bin/env python3
"""Kairos repository benchmark: builds the benchmark binary from this source
tree, runs one workload, and prints its metrics.

    python3 perfbench/run.py --workload plan --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 25

Run from the repository root. The first run configures and builds
``perfbench/`` (which pulls in the library from ``src/``) under
``$CARGO_TARGET_DIR/perfbench`` (default ``.bench_build/perfbench``).

Output: a machine record line, one ``report`` line per metric, and, as the
last line, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--trace 0`` reports the end-to-end metrics
(tracing off); ``--trace 1`` reports the per-layer metrics of the traced
run. The exit code is non-zero when a correctness check fails, and no
result is printed when the build fails. ``--all`` runs every workload in
both modes and prints every metric of each, one process per run. See
README.md.
"""

import argparse
import fcntl
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["plan", "serve", "serve-chaos", "stream"]
RUN_TIMEOUT_S = 170


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    return target / "perfbench"


def build(out_dir):
    """Configures and builds kairos_perfbench; returns its path or None."""
    out_dir.mkdir(parents=True, exist_ok=True)
    log_path = out_dir / "build.log"
    with open(out_dir / "build.lock", "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [
            ["cmake", "-S", str(HERE), "-B", str(out_dir),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            ["cmake", "--build", str(out_dir), "--target", "kairos_perfbench",
             "-j", str(min(4, len(os.sched_getaffinity(0))))],
        ]
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-20:]
                print("build failed (" + " ".join(step) + "):", file=sys.stderr)
                print("\n".join(tail), file=sys.stderr)
                return None
    return out_dir / "kairos_perfbench"


def source_digest():
    """Content hash of the library and benchmark sources: identifies the
    program measured when the checkout is not a git repository."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            if path.suffix in (".cc", ".h", ".txt", ".py"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine(build_type, seed):
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
            "build_type": build_type, "git_sha": git_sha(),
            "source_digest": source_digest(), "seed": seed}


def run_once(binary, workload, seed, seconds, trace):
    """Runs kairos_perfbench once; returns its parsed result dict or None."""
    work = binary.parent / "work"
    work.mkdir(exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", str(work)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        print(f"{workload}: timed out after {RUN_TIMEOUT_S} s", file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr)
    for line in proc.stdout.splitlines():
        if line.startswith("KBENCH_RESULT "):
            return json.loads(line[len("KBENCH_RESULT "):])
    print(f"{workload}: no result (exit {proc.returncode})", file=sys.stderr)
    return None


def report(workload, trace, result):
    print("machine " + json.dumps(result["machine"], sort_keys=True))
    mode = "traced" if trace else "untraced"
    for name, metric in result["metrics"].items():
        print(f"report {workload} {mode} {name} = {metric['value']:.9g} "
              f"{metric['unit']}")
    for failure in result["failures"]:
        print(f"FAILED {workload} {mode}: {failure}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not args.all and args.workload is None:
        parser.error("give --workload or --all")

    binary = build(build_dir())
    if binary is None:
        return 2
    runs = ([(w, t) for w in WORKLOADS for t in (0, 1)] if args.all
            else [(args.workload, args.trace)])
    results = []
    for workload, trace in runs:
        result = run_once(binary, workload, args.seed, args.seconds, trace)
        if result is None:
            return 3
        result["machine"] = machine(result.pop("build_type"), args.seed)
        report(workload, trace, result)
        results.append(result)

    correct = all(r["correct"] for r in results)
    if not args.all:
        # The last line carries exactly the metrics BENCHMARK.json declares;
        # a run that failed a check reports correct: false with what it has.
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        result = results[0]
        wanted = [m["name"] for m in
                  spec["per_layer" if args.trace else "end_to_end"]]
        missing = [m for m in wanted if m not in result["metrics"]]
        if missing and correct:
            print("missing metrics: " + ", ".join(missing), file=sys.stderr)
            return 3
        print(json.dumps({
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {m: result["metrics"][m] for m in wanted
                        if m in result["metrics"]},
        }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
