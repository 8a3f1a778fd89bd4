"""One workload process: set up, run the timed phase, print one JSON line.

Started by run.py as a fresh interpreter with ``src`` on PYTHONPATH and
the BLAS thread count fixed.  ``--setup-only`` stops once the process is
ready, so run.py can time set-up in several fresh processes.  With
``--trace 1`` the same ops run twice, untraced and traced, with half of
``--seconds`` each, which gives the tracing overhead from one process and
one input pool.
"""

import time

T0 = time.perf_counter()  # set-up is timed from here, before any loopbraid import

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


# the digest covers this many first ops (fewer only when the pool is smaller)
DIGEST_OPS = 20


def timed_phase(wl, n_ops: int, tracer=None, cal=None) -> dict:
    """The first n_ops ops in pool order, closed loop.

    The op count is fixed per workload and ``--seconds`` (see
    ``Workload.op_count``) and the pool's order does not depend on the
    seed, so every run attempts the same ops and any op that fails, fails
    in every run.  With a calibrator, op times are in reference-speed
    seconds (see calibrate.py), so a slow spell of the machine stretches
    the run but leaves its figures unchanged.  The pool interleaves its
    kinds, so any prefix of it is near the pool's mix; a run that
    outlasts the pool starts it again.  The first DIGEST_OPS reports
    give the digest.
    """
    lat, ok, wrong, errors = [], [], 0, {}
    digest = hashlib.sha256()
    digest_ops = min(DIGEST_OPS, len(wl.pool))
    clock = time.perf_counter
    if cal is not None:
        cal.start()
    start = clock()
    try:
        for n in range(n_ops):
            index, pass_no = n % len(wl.pool), n // len(wl.pool)
            if tracer is not None:
                tracer.op = n
            t = clock()
            res = wl.run(index, pass_no)
            dt = clock() - t
            if cal is not None:
                dt = (dt - cal.spent(t)) * cal.scale(t)
            lat.append(dt)
            ok.append(res.ok)
            wrong += res.wrong_output
            if res.error:
                errors.setdefault(res.error, wl.pool[index].label)
            if n < digest_ops:
                digest.update(res.reports)
    finally:
        if cal is not None:
            cal.stop()
    wall = clock() - start
    elapsed = sum(lat)
    return {
        "elapsed_s": elapsed,
        "wall_s": wall,
        "attempted": len(lat),
        "failed": ok.count(False),
        "wrong_output": wrong,
        "ops_per_s": ok.count(True) / elapsed,
        "latencies": lat,
        "ok": ok,
        "digest": digest.hexdigest(),
        "digest_ops": min(digest_ops, len(lat)),
        "errors": [{"error": e, "first_input": lab} for e, lab in errors.items()],
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process.

    VmHWM starts afresh at exec.  ru_maxrss does not: it also keeps the
    resident set of run.py at the fork that started this process.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", required=True, help="directory for inputs, reports, spans")
    args = ap.parse_args()

    import calibrate  # the script's directory is on sys.path
    import workloads

    kind = workloads.WORKLOADS[args.workload]
    cal = calibrate.Calibrator(kind.calibration)
    cal.start(setup=True)
    wl = kind(args.seed, os.path.join(args.out, "work"))
    warm = wl.warmup()
    setup_wall_s = time.perf_counter() - T0
    cal.stop()
    setup = {
        "setup_s": (setup_wall_s - cal.spent(T0)) * cal.scale(T0),
        "setup_wall_s": setup_wall_s,
    }
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    n_ops = wl.op_count(args.seconds / 2 if args.trace else args.seconds)
    result = {**setup, "mix": wl.mix(n_ops), "warmup_ok": warm.ok}
    if args.trace:
        import tracing

        result["untraced"] = timed_phase(wl, n_ops)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            t_start = time.perf_counter()
            phase = timed_phase(wl, n_ops, tracer)
        finally:
            tracer.uninstall()
        result["traced"] = phase
        result["per_layer"] = tracer.metrics()
        # both phases run the same ops
        traced, untraced = phase.pop("latencies"), result["untraced"].pop("latencies")
        result["overhead"] = sum(traced) / sum(untraced) - 1
        tracer.write_spans(os.path.join(args.out, "spans.csv"), t_start)
        with open(os.path.join(args.out, "layers.json"), "w") as fh:
            summary = {
                "per_layer": result["per_layer"],
                "tracing_overhead": result["overhead"],
                "untraced_ops_per_s": result["untraced"]["ops_per_s"],
                "traced_ops_per_s": phase["ops_per_s"],
                "spans": len(tracer.spans),
                "layers": tracer.layer_summary(),
            }
            json.dump(summary, fh, indent=2, sort_keys=True)
        result["spans"] = len(tracer.spans)
    else:
        result["timed"] = timed_phase(wl, n_ops, cal=cal)
    # the warm-up op again, after the timed phase: reports must be byte-identical
    again = wl.warmup()
    result["repeat_identical"] = warm.ok and again.ok and again.reports == warm.reports
    result["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
