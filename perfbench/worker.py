"""One round: a fresh interpreter runs a job list in a closed loop.

Reads a JSON spec on stdin: {"src": dir, "jobs": [...], "trace": bool,
"spans_path": path or null}.  Imports heptalift from `src` (never from
anywhere else), prepares batch inputs, then runs the jobs one after another,
each starting when the previous one returns.  Prints one JSON object with
each job's latency, CPU time, exit code and output, the calibrations, the
round's peak RSS (its own and its largest child's, such as a census pool
worker) and, when traced, the tracer's counters.

Calibration: the box's speed drifts by 25% or more within a minute, and
every piece of code slows down with it.  Between jobs the worker times a
fixed calibration loop that does not touch the package, spending about
CALIB_SHARE of the round's job time on it, spread over the round, and
records with each job how many calibrations preceded it.  The parent turns
their mean into the round's speed factor, and the ones around each job
into that job's.  Calibration time is outside every job's latency.

Run by run.py; not meant to be started by hand.
"""

import contextlib
import gc
import io
import json
import os
import resource
import sys
import time
from fractions import Fraction

CALIB_NOMINAL_S = 0.05  # the calibration loop's typical time on the 2-CPU box
CALIB_SHARE = 0.06


def calibrate():
    """Seconds for a fixed loop of the kinds of work the package does:
    Fraction arithmetic, dict updates and big-integer products.  The cyclic
    garbage collector is paused, so the loop's time does not depend on how
    many objects the jobs before it left alive."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = Fraction(0)
        d = {}
        for i in range(1, 10000):
            acc += Fraction(i % 97 + 1, i % 89 + 1)
            d[i % 1024] = d.get(i % 1024, 0) + i * i
        x, m = 3 ** 3000, 7 ** 2000 + 1
        for _ in range(150):
            x = (x * x) % m
        return time.perf_counter() - t0
    finally:
        gc.enable()


def _cpu():
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def _import_package(src):
    sys.path.insert(0, src)
    import heptalift

    where = os.path.realpath(heptalift.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise ImportError("heptalift imported from %s, not from %s" % (where, src))
    return heptalift


def _run_cli(main, argv, stdin):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin if stdin is not None else "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            rc = main(argv)
            dt = time.perf_counter() - t0
    finally:
        sys.stdin = saved
    return rc, dt, out.getvalue(), err.getvalue()


def run_round(spec):
    _import_package(spec["src"])
    from heptalift import cli

    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, here)
    import batches

    prepared = []
    for job in spec["jobs"]:
        if job["kind"] == "batch":
            prepared.append(batches.PREPARE[job["fn"]](job["args"]))
        else:
            prepared.append(None)
    tracer = None
    if spec.get("trace"):
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    main = cli.main
    results = []
    calibs = [calibrate()]
    busy = 0.0
    for job, prep in zip(spec["jobs"], prepared):
        n_calibs = len(calibs)
        c0 = _cpu()
        if job["kind"] == "cli":
            rc, dt, out, err = _run_cli(main, job["argv"], job["stdin"])
            res = {"rc": rc, "seconds": dt, "output": out, "stderr": err[-2000:]}
        else:
            t0 = time.perf_counter()
            try:
                value = batches.RUN[job["fn"]](prep)
                rc, err = 0, ""
            except Exception as exc:  # a failed batch is a failed job, not a crash
                value, rc, err = None, 1, "%s: %s" % (type(exc).__name__, exc)
            dt = time.perf_counter() - t0
            res = {"rc": rc, "seconds": dt, "value": value, "stderr": err}
        res["cpu_s"] = _cpu() - c0
        res["calibs_before"] = n_calibs
        results.append(res)
        busy += dt
        while len(calibs) * CALIB_NOMINAL_S < CALIB_SHARE * busy:
            calibs.append(calibrate())
    calibs.append(calibrate())
    for r in results:
        if "value" in r:
            r["output"] = json.dumps(r.pop("value"), sort_keys=True)
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    maxrss_children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    summary = None
    if tracer is not None:
        tracer.uninstall()
        summary = tracer.summary()
        if spec.get("spans_path"):
            with open(spec["spans_path"], "w") as fh:
                for rec in tracer.span_records():
                    fh.write(json.dumps(rec) + "\n")
    return {"jobs": results, "calibs": calibs, "maxrss_kb": maxrss_kb,
            "maxrss_children_kb": maxrss_children_kb, "trace": summary}


def main():
    spec = json.load(sys.stdin)
    result = run_round(spec)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
