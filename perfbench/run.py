#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload {fleet,train,surrogate} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout. The script configures and builds
perfbench/ (which pulls in the library from the enclosing tree) into
.bench_build/, then runs the perfbench driver. Build output goes to
stderr; the driver's standard output is passed through, and its last
line is the JSON result. Any build or run failure exits non-zero
without printing a result.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def source_id():
    """The commit when the checkout is a git repository, else a digest
    of the sources that make up the benchmarked program."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        base = ROOT / top
        files = [base] if base.is_file() else sorted(
            p for p in base.rglob("*") if p.is_file())
        for p in files:
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return "tree-sha256:" + h.hexdigest()[:16]


def build(out):
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not (out / "CMakeCache.txt").exists():
        cfg = subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                              "-DCMAKE_BUILD_TYPE=Release"],
                             stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            return False
    res = subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                         stdout=sys.stderr, stderr=sys.stderr)
    return res.returncode == 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["fleet", "train", "surrogate"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test sizes (not a measurement)")
    ap.add_argument("--force-digest-mismatch", action="store_true",
                    help="corrupt one repetition's digest (smoke test)")
    args = ap.parse_args()

    out = build_dir()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 2

    scratch = out / f"run-{args.workload}-{os.getpid()}"
    cmd = [str(out / "perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--scratch", str(scratch),
           "--trace-out",
           str(out / f"trace-{args.workload}-seed{args.seed}.json"),
           "--source", source_id()]
    if args.tiny:
        cmd.append("--tiny")
    if args.force_digest_mismatch:
        cmd.append("--force-digest-mismatch")
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.stdout.write(res.stdout)
    sys.stdout.flush()
    return res.returncode


if __name__ == "__main__":
    sys.exit(main())
