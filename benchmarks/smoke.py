"""Smoke test of the benchmark itself.

Runs every workload of BENCHMARK.json for a few ops, untraced and traced,
and checks that each run exits 0, that its last stdout line is the result
object, and that every named metric prints with its unit.  From the root
of a checkout:

    python3 benchmarks/smoke.py

Takes one to two minutes (certify's ops are 10-14 s each); exits 1 if
any check fails.
"""

import json
import os
import subprocess
import sys

SECONDS = "1"  # a few ops per phase; certify runs one


def check(workload: str, trace: int, spec: dict) -> list[str]:
    cmd = [sys.executable, *spec["command"][1:], "--workload", workload,
           "--seed", "0", "--seconds", SECONDS, "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("attempted", 0) < 1:
        problems.append("no op attempted")
    names = spec["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in names}:
        problems.append(f"metric names {sorted(metrics)}")
    for m in names:
        got = metrics.get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{m['name']}: {got}")
        printed = any(ln.split()[:1] == [m["name"]] and ln.split()[-1] == m["unit"] for ln in lines)
        if not printed:
            problems.append(f"{m['name']} not printed with unit {m['unit']}")
    if not trace and not any(
        ln.split()[:1] == ["fail_ratio"] and ln.split()[-1] == "ratio" for ln in lines
    ):
        problems.append("fail_ratio not printed")
    return problems


def main() -> int:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    if not os.path.isdir("src"):
        print("run from the root of a loopbraid checkout", file=sys.stderr)
        return 2
    bad = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            problems = check(w["name"], trace, spec)
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"{w['name']:12s} trace={trace} {status}", flush=True)
            bad += bool(problems)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
