"""loopbraid benchmark: CLI workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload extend --seed 0 --seconds 25 --trace 0

Each run starts fresh worker processes (benchmarks/worker.py) with ``src``
on PYTHONPATH and one BLAS thread.  With ``--trace 0`` it prints the
end-to-end metrics, in seconds at a reference machine speed (see
calibrate.py); set-up is timed in SETUP_PROCESSES fresh processes and
reported as their median.  With ``--trace 1`` one worker runs the traced
phase and it prints the per-layer metrics; the spans, the per-layer
summary and the tracing overhead go to benchmarks/out/<workload>/.  The
last line of stdout is always one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

from mpmath import betainc  # a dependency of sympy, so of loopbraid
from tracing import PER_LAYER  # the script's directory is on sys.path

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("certify", "extend", "extend-n60", "analyze")
SETUP_PROCESSES = 3
BLAS_THREADS = 1  # one core per worker; must stay <= nproc
DEADLINE_S = 160  # workers end by then; provenance takes at most 10 s more
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "peak_rss_mb": "MB",
}


def fail(msg: str) -> int:
    print(f"benchmark: {msg}", file=sys.stderr)
    return 2


def provenance(root: str) -> dict:
    """Where and on what the numbers were taken."""
    src = os.path.join(root, "src", "loopbraid")
    h = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    commit = None  # an exported checkout is not a git repository
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    numpy_v = sympy_v = blas_name = blas_v = None
    try:
        versions = subprocess.run(
            [sys.executable, "-c", (
                "import json, numpy, sympy; "
                "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']; "
                "print(json.dumps([numpy.__version__, sympy.__version__, "
                "blas.get('name'), blas.get('version')]))"
            )],
            capture_output=True, text=True, timeout=10, env=worker_env(root), check=True,
        )
        numpy_v, sympy_v, blas_name, blas_v = json.loads(versions.stdout)
    except (OSError, subprocess.SubprocessError, ValueError):
        pass  # versions stay unknown rather than failing the run
    return {
        "git_commit": commit,
        "src_sha256": h.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_v,
        "sympy": sympy_v,
        "blas": f"{blas_name} {blas_v}",
        "blas_threads": BLAS_THREADS,
    }


def worker_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("LOOPBRAID_SEED", None)  # every seed is passed explicitly
    return env


def quantile(ranked: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of sorted values.

    A mean of all order statistics, weighted by a Beta((n+1)p, (n+1)(1-p))
    distribution over their ranks.  The sample quantile is one order
    statistic: when latencies cluster by kind of input, as on `analyze`,
    it jumps between clusters as a few op times move.  This estimate
    moves smoothly.
    """
    n = len(ranked)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [float(betainc(a, b, 0, i / n, regularized=True)) for i in range(n + 1)]
    return math.fsum((hi - lo) * x for lo, hi, x in zip(cdf, cdf[1:], ranked))


def run_worker(root: str, out: str, args, extra: list[str], deadline: float) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out, *extra,
    ]
    proc = subprocess.run(
        cmd, cwd=root, env=worker_env(root), capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "loopbraid", "cli.py")):
        return fail("src/loopbraid not found; run from the root of a loopbraid checkout")
    out = os.path.join(HERE, "out", args.workload)
    os.makedirs(out, exist_ok=True)
    # byte-compile first, so no set-up probe pays for compiling the sources
    for tree in (os.path.join(root, "src"), HERE):
        if not compileall.compile_dir(tree, quiet=1):
            return fail(f"cannot compile {tree}")

    try:
        probes = [] if args.trace else [
            run_worker(root, out, args, ["--setup-only"], deadline)
            for _ in range(SETUP_PROCESSES - 1)
        ]
        res = run_worker(root, out, args, [], deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        return fail(str(exc))
    phases = [res["untraced"], res["traced"]] if args.trace else [res["timed"]]
    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    wrong = sum(p["wrong_output"] for p in phases)
    setup = [p["setup_s"] for p in (*probes, res)]
    correct = wrong == 0 and res["repeat_identical"] and res["warmup_ok"]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": {
            "ops": [p["attempted"] for p in phases],
            "timed_s": [p["elapsed_s"] for p in phases],
            "setup_processes": len(setup),
        },
        "fail_ratio": {"value": failed / attempted, "unit": "ratio"},
        "digest": {"sha256": phases[0]["digest"], "first_ops": phases[0]["digest_ops"]},
        "repeat_identical": res["repeat_identical"],
        "errors": [e for p in phases for e in p["errors"]],
        "mix": res["mix"],
        "provenance": provenance(root),
    }
    if args.trace:
        metrics = {
            name: {"value": res["per_layer"][name], "unit": unit}
            for name, (unit, _) in PER_LAYER.items()
        }
        detail["tracing_overhead"] = res["overhead"]
        detail["spans"] = res["spans"]
    else:
        timed = res["timed"]
        lat, ok = timed.pop("latencies"), timed.pop("ok")
        # a failed op counts as the slowest: it misses any latency limit
        ranked = sorted(t for t, good in zip(lat, ok) if good) + [max(lat)] * ok.count(False)
        values = {
            "setup_s": statistics.median(setup),
            "ops_per_s": timed["ops_per_s"],
            "op_p50_s": quantile(ranked, 0.5),
            "op_p90_s": quantile(ranked, 0.9),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        detail["setup_s_each"] = setup
        # the same figures uncalibrated, as the wall clock read them
        detail["wall"] = {
            "setup_s": statistics.median(p["setup_wall_s"] for p in (*probes, res)),
            "timed_s": timed["wall_s"],
            "ops_per_s": (attempted - failed) / timed["wall_s"],
        }
    with open(os.path.join(out, f"result-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({"detail": detail, "metrics": metrics}, fh, indent=2, sort_keys=True)

    for name, m in [*metrics.items(), ("fail_ratio", detail["fail_ratio"])]:
        print(f"{name:32s} {m['value']:>14.6g} {m['unit']}")
    print(
        f"samples: {' + '.join(map(str, detail['samples']['ops']))} ops in "
        f"{' + '.join(f'{t:.1f}' for t in detail['samples']['timed_s'])} s; "
        f"setup over {len(setup)} processes; digest {phases[0]['digest'][:16]} "
        f"of the first {phases[0]['digest_ops']} ops"
    )
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
