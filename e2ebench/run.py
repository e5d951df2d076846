#!/usr/bin/env python3
"""Build and run the end-to-end Scenario benchmark.

    python3 e2ebench/run.py --workload paper-sort --seed 1 --seconds 40 --trace 0

Configures e2ebench/ (a CMake package that compiles ../src) as a Release
build in .bench_build/e2ebench under the repository root, builds the
e2e_bench program, prints provenance, runs it with the same arguments
and exits with its status. Build output appears, on stderr, only when a
step fails; the last stdout line is e2e_bench's JSON result. Exits non-zero without a result when the
simulator sources are missing or the build fails.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "e2ebench"
WORKLOADS = ("paper-sort", "nutch-leafspine-flap", "sort-leafspine")
# A run lasts about --seconds (at most 120); anything far beyond that is a
# hang.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"e2ebench: {msg}", file=sys.stderr)
    sys.exit(1)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not 1 <= args.seconds <= 120:
        p.error("--seconds must be within 1..120")
    return args


def run_step(cmd):
    """Runs a build step with its output on stderr; fails on error."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"build step failed ({proc.returncode}): {' '.join(cmd)}")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            cmd += ["-G", "Ninja"]
        run_step(cmd)
    jobs = str(min(4, os.cpu_count() or 1))
    run_step(["cmake", "--build", str(BUILD), "--target", "e2e_bench",
              "-j", jobs])
    exe = BUILD / "e2e_bench"
    if not exe.is_file():
        fail(f"build produced no {exe}")
    return exe


def source_digest():
    """SHA-256 over the simulator and benchmark sources (path + content),
    so results from a checkout without git history are still traceable."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "none"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def main():
    args = parse_args()
    exe = build()
    print(f"provenance: commit={git_commit()} source_sha256={source_digest()}",
          flush=True)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"e2e_bench exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
