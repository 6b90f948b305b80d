#!/usr/bin/env python3
"""Build and run one workload of the amix benchmark.

Usage, from the root of the repository:

    python3 amixbench/run.py --workload cold-build|warm-session|serve-churn \
        --seed N --seconds S --trace 0|1

Builds amix and the amixbench program (amixbench/CMakeLists.txt, Release) into
$CARGO_TARGET_DIR/amixbench (default .bench_build/amixbench), runs the
workload in its own process, relays its table, and prints as the last line
one JSON object {correct, attempted, failed, metrics}. Exits non-zero,
without a result line, when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("cold-build", "warm-session", "serve-churn")
RUN_TIMEOUT_S = 170


def build(build_dir: Path) -> Path:
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "-S", str(HERE), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir / "amixbench"


def result_line(line: str) -> dict:
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("unexpected result keys")
    for metric in result["metrics"].values():
        if set(metric) != {"value", "unit"}:
            raise ValueError("unexpected metric keys")
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--perturb", choices=("answer", "replay"),
                    help="test hook: corrupt one answer or wire byte")
    args = ap.parse_args()

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(build_dir / "amixbench")
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"amixbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.perturb:
        cmd += ["--perturb", args.perturb]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("amixbench: run timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        print(f"amixbench: run failed (exit {proc.returncode})", file=sys.stderr)
        return 1
    try:
        result = result_line(lines[-1])
    except ValueError as e:
        print(f"amixbench: bad result line: {e}", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
