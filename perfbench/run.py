#!/usr/bin/env python3
"""Builds and runs the repository benchmark (perfbench).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload release-cold --seed 1 --seconds 30 \
        --trace 0 [--out results.jsonl]

The first run configures and builds perfbench/CMakeLists.txt (the privsan
library from src/ plus the perfbench binary) into .bench_build/perfbench;
later runs rebuild incrementally. The binary's stdout is passed through; its
last line is the result object {"correct", "attempted", "failed",
"metrics"}. With --out, one JSON record per run (fingerprint, result and the
detail figures) is appended to that file for perfbench/compare.py.

Exit codes: 0 ok, 1 a correctness check failed (the result is still
printed), 2 bad arguments, 3 build failed, 4 the binary crashed or printed no
result.
"""

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("release-cold", "sweep-warm", "serve-mixed")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def source_id():
    """A digest of the sources the binary is built from, plus the git sha
    when the checkout is a git repository."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.is_file() and path.suffix in (".cc", ".h", ".txt"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    sha = "none"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                capture_output=True, text=True, timeout=30,
                check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = "unknown"
    return f"git:{sha} src:{digest.hexdigest()[:12]}"


def build():
    if not (ROOT / "src" / "core" / "session.h").is_file():
        log(f"privsan sources not found under {ROOT / 'src'}")
        return False
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", "4"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log(f"build step failed: {' '.join(step)}")
            return False
    return (BUILD_DIR / "perfbench").is_file()


def parse_result(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return result


def comment_json(stdout, tag):
    prefix = f"# {tag}: "
    for line in stdout.splitlines():
        if line.startswith(prefix):
            return json.loads(line[len(prefix):])
    return {}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--out", help="append a JSON record to this file")
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not build():
        return 3
    command = [str(BUILD_DIR / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--source-id", source_id()]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 4
    result = parse_result(done.stdout)
    if done.returncode not in (0, 1) or result is None:
        sys.stdout.write("".join(line + "\n" for line in
                                 done.stdout.splitlines()
                                 if line.startswith("#")))
        log(f"perfbench exited {done.returncode} without a result")
        return 4
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if args.out:
        record = {
            "fingerprint": comment_json(done.stdout, "fingerprint"),
            "detail": comment_json(done.stdout, "detail"),
            "result": result,
        }
        with open(args.out, "a", encoding="utf-8") as out:
            out.write(json.dumps(record) + "\n")
    return 0 if result["correct"] and done.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
