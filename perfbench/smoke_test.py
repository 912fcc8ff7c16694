#!/usr/bin/env python3
"""Smoke test of the repo benchmark.

    python3 perfbench/smoke_test.py

Runs every workload at smoke-test size (--tiny), untraced and traced,
and checks that the last output line carries exactly the result keys
and every metric BENCHMARK.json names, with its unit, and that nothing
failed. Then forces a sim_digest mismatch between repetitions and
checks that it is counted as a failure. Exits non-zero on any problem.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload, trace, *extra):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--tiny", *extra]
    res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         timeout=600)
    lines = res.stdout.strip().splitlines()
    if not lines:
        raise AssertionError(f"{cmd}: no output (exit {res.returncode})")
    return res.returncode, json.loads(lines[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for w in (x["name"] for x in spec["workloads"]):
        for trace in (0, 1):
            rc, out = run(w, trace)
            tag = f"{w} trace={trace}"
            if rc != 0:
                problems.append(f"{tag}: exit code {rc}")
            if set(out) != RESULT_KEYS:
                problems.append(f"{tag}: result keys {sorted(out)}")
            got = {k: v.get("unit") for k, v in out.get("metrics", {}).items()}
            if got != wanted[trace]:
                problems.append(f"{tag}: metrics {got} != {wanted[trace]}")
            if not out.get("correct") or out.get("failed") != 0:
                problems.append(f"{tag}: correct={out.get('correct')} "
                                f"failed={out.get('failed')}")
        rc, out = run(w, 0, "--force-digest-mismatch")
        if out.get("correct") or out.get("failed", 0) < 1:
            problems.append(f"{w}: forced digest mismatch not counted "
                            f"(correct={out.get('correct')}, "
                            f"failed={out.get('failed')})")
    for p in problems:
        print("FAIL:", p)
    print("smoke test:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
