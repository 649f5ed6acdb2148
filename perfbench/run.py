"""heptalift benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload period --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  The run measures set-up (median time of
`import heptalift` in fresh interpreters), generates the seed's job list,
then runs rounds of that list until --seconds have been spent.  Each round
is a fresh interpreter (perfbench/worker.py) that runs the jobs in a closed
loop, so lazy first-call work is paid in every round, as CLI users pay it.
Every output is checked (perfbench/checks.py).

Times are normalized for machine speed.  A fixed calibration loop that
does not touch the package runs between the jobs of every round (see
worker.py).  A round's speed factor is CALIB_NOMINAL_S over the mean of
that round's calibrations, and the round's wall and CPU times are
multiplied by it, so they read as seconds on a box whose calibration loop
takes CALIB_NOMINAL_S.  Each job's latency is scaled the same way by the
calibrations taken right before and after it (job_speeds).  Set-up
samples are normalized by calibrations taken in this process just before
and after each of them.  Raw times and calibrations are kept in the full
record.

--trace 0 reports the end-to-end metrics from untraced rounds.  --trace 1
first times the acceptance gates once, then alternates untraced and traced
rounds and reports the per-layer metrics of BENCHMARK.json.  A gate that
fails its assertion or raises counts as a failed item of that run; one that
only misses its wall-clock budget does not.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A full record (every metric, sample counts,
machine facts, failures) is written to .perfbench_out/ in the checkout.
Exits 2 without a result when the package source is not in the checkout.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from worker import CALIB_NOMINAL_S, calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
REFERENCE = os.path.join(HERE, "reference.json")

TIME_LIMIT_S = 170  # the whole run, set-up and gates included
SETUP_SAMPLES = 15
SETUP_ENV = {"OPENBLAS_NUM_THREADS": "1"}
COVERAGE_TOLERANCE = 0.10  # traced self times must cover 90..110% of wall

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("job_p50_ms", "ms"),
    ("job_tail_ms", "ms"), ("peak_rss_mb", "MB"),
)


def per_layer_names():
    sys.path.insert(0, HERE)
    import tracing

    names = []
    for layer in tracing.LAYERS:
        names.append((layer + ".self_s", "s"))
    names += [
        ("cayley.mul.calls", "count"), ("cayley.norm.calls", "count"),
        ("jordan.calls", "count"), ("jordan.qq.calls", "count"),
        ("padic.reduce_at.calls", "count"), ("padic.factorize.calls", "count"),
        ("density.beta_exps.calls", "count"),
        ("siegel.f_poly.calls", "count"), ("siegel.f_poly.repeat_ratio", "ratio"),
        ("genfun.lambda_p.calls", "count"),
        ("exactnum.poly_mul.calls", "count"), ("exactnum.bigfloat.calls", "count"),
        ("lift.local_factor.calls", "count"),
        ("lift.local_factor.repeat_ratio", "ratio"), ("lift.tau_table.s", "s"),
        ("lvalue.sym2_lvalue.calls", "count"),
        ("lvalue.sym2_lvalue.repeat_ratio", "ratio"),
        ("census.census_f2.calls", "count"), ("cli.out_bytes", "bytes"),
    ]
    names += [(layer + ".failed", "count") for layer in tracing.LAYERS]
    names += [("trace.overhead_ratio", "ratio"), ("trace.coverage", "ratio"),
              ("failed_frac", "ratio"), ("bound_slack_digits", "digits")]
    names += [("acceptance.%s.s" % slug, "s") for slug in ACCEPTANCE_SLUGS]
    return names


ACCEPTANCE_SLUGS = (
    "algebra-laws", "jordan-identities", "census-oracle", "igusa-consistency",
    "beta-recursions", "siegel-series", "hp-identity", "residue-algebra",
    "mass-formula", "lift-coefficients", "reduction-round-trip",
    "period-pipeline",
)


class BenchError(Exception):
    """The run cannot produce a result; exit 2 without printing one."""


def _python(args, stdin=None, timeout=None, env_extra=None):
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env.update(env_extra or {})
    proc = subprocess.run(
        [sys.executable] + args, input=stdin, capture_output=True, text=True,
        timeout=timeout, env=env, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise BenchError("%s exited %d: %s" % (
            " ".join(args[:2]), proc.returncode, proc.stderr.strip()[-1500:]))
    return proc.stdout.strip().splitlines()[-1]


def machine_facts():
    import mpmath
    import numpy

    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "loadavg_start": list(os.getloadavg()),
        "HEPTALIFT_THREADS": os.environ.get("HEPTALIFT_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "setup_env": SETUP_ENV,
    }


def measure_setup(samples, deadline):
    """(import times, calibrations): a calibration is taken in this process
    before each timed import and after the last one, so set-up is normalized
    by the box's speed while set-up ran.

    Importing numpy starts OpenBLAS's thread pool, whose start-up time
    follows how busy the box's other CPUs are, not this package: on a
    2-CPU box it moved the import by a third within half an hour while the
    calibration loop held steady.  The timed imports therefore run with
    SETUP_ENV (one BLAS thread); the rounds keep the default."""
    code = (
        "import sys, time; sys.path.insert(0, %r); t = time.perf_counter(); "
        "import heptalift; print(time.perf_counter() - t)" % SRC
    )
    _python(["-c", code], timeout=60, env_extra=SETUP_ENV)  # writes bytecode caches; not timed
    values, calibs = [], [calibrate()]
    for _ in range(samples):
        values.append(float(_python(["-c", code], timeout=60, env_extra=SETUP_ENV)))
        calibs.append(calibrate())
    if time.perf_counter() > deadline:
        raise BenchError("set-up alone exceeded the time limit")
    return values, calibs


def run_gates(deadline):
    left = deadline - time.perf_counter()
    return json.loads(_python([os.path.join(HERE, "gates.py"), SRC], timeout=left))


def run_round(jobs, traced, deadline, spans_path=None):
    """One round in a fresh worker; adds the round's busy time (the sum of
    its job latencies) and CPU time."""
    spec = {"src": SRC, "jobs": jobs, "trace": traced, "spans_path": spans_path}
    left = deadline - time.perf_counter()
    if left <= 0:
        raise BenchError("no time left for a round")
    r = json.loads(_python([os.path.join(HERE, "worker.py")],
                           stdin=json.dumps(spec), timeout=left))
    r["speed"] = CALIB_NOMINAL_S / statistics.mean(r["calibs"])
    r["job_speed"] = job_speeds(r["calibs"], [j["calibs_before"] for j in r["jobs"]])
    r["wall_s"] = sum(j["seconds"] for j in r["jobs"])
    r["cpu_s"] = sum(j["cpu_s"] for j in r["jobs"])
    return r


def job_speeds(calibs, before):
    """Per-job speed factors for job latencies.  Job j is scaled by the
    calibrations in the gaps on either side of it (before[j] is how many
    calibrations had been taken when it started); an empty gap lends its
    nearest calibration.  Short jobs follow the box's speed at their own
    moment better than with the round's mean factor."""
    ends = before[1:] + [len(calibs)]
    starts = [0] + before[:-1]
    out = []
    for lo, mid, hi in zip(starts, before, ends):
        near = (calibs[lo:mid] or [calibs[mid - 1]]) + (calibs[mid:hi] or [calibs[mid]])
        out.append(CALIB_NOMINAL_S / statistics.mean(near))
    return out


def tail(values):
    """(value, percentile, jobs beyond): the latency at the highest
    percentile with at least 10 jobs beyond it, or the maximum when there
    are too few jobs for that."""
    xs = sorted(values)
    n = len(xs)
    if n > 10:
        return xs[n - 11], 100.0 * (n - 10) / n, 10
    return xs[-1], 100.0, 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny job list, one round of each kind; for tests")
    ap.add_argument("--out", default=None, help="also write the full record here")
    args = ap.parse_args(argv)
    try:
        record = run(args)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        sys.stderr.write("perfbench: %s\n" % (exc,))
        return 2
    print_result(record, args.trace)
    return 0


def run(args):
    t_start = time.perf_counter()
    deadline = t_start + TIME_LIMIT_S
    if not os.path.isfile(os.path.join(SRC, "heptalift", "__init__.py")):
        raise BenchError("no package source at %s" % SRC)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import checks
    import jobs as joblists

    if args.workload not in joblists.WORKLOADS:
        raise BenchError("unknown workload %r" % args.workload)
    facts = machine_facts()
    # --trace 1 reports no set-up figure; a few samples keep the record whole
    quick = args.smoke or args.trace
    setup, setup_calibs = measure_setup(3 if quick else SETUP_SAMPLES, deadline)
    jobs = joblists.build(args.workload, args.seed, smoke=args.smoke)
    with open(REFERENCE) as fh:
        checker = checks.Checker(json.load(fh))

    gates = run_gates(deadline) if args.trace and not args.smoke else None
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = "%s-%d-trace%d" % (args.workload, args.seed, args.trace)
    spans_path = os.path.join(OUT_DIR, "spans-%s.jsonl" % tag)

    # rounds: untraced only, or alternating untraced / traced
    kinds = [False, True] if args.trace else [False]
    min_rounds = 1 if (args.smoke or args.trace) else 2
    rounds = {False: [], True: []}
    t0 = time.perf_counter()
    budget = args.seconds - (t0 - t_start)  # set-up and gates count too
    longest = 0.0
    i = 0
    while True:
        traced = kinds[i % len(kinds)]
        done_min = all(len(rounds[k]) >= min_rounds for k in kinds)
        spent = time.perf_counter() - t0
        if done_min and spent + longest > budget:
            break
        r0 = time.perf_counter()
        r = run_round(jobs, traced, deadline, spans_path if traced else None)
        rounds[traced].append(r)
        longest = max(longest, time.perf_counter() - r0)
        i += 1

    record = summarize(args, jobs, rounds, checker, setup, gates, setup_calibs)
    record["facts"] = facts
    record["elapsed_s"] = time.perf_counter() - t_start
    with open(os.path.join(OUT_DIR, "result-%s.json" % tag), "w") as fh:
        json.dump(record, fh, indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
    return record


def summarize(args, jobs, rounds, checker, setup, gates, setup_calibs):
    attempted = failed = 0
    failures = []
    slack = []
    import checks

    for traced, rs in rounds.items():
        for r in rs:
            for j, (job, res) in enumerate(zip(jobs, r["jobs"])):
                attempted += 1
                ok, why, samples = checker.check(job, res["rc"], res["output"])
                if ok and traced:
                    # tracing must not change a single output byte
                    base = rounds[False][0]["jobs"][j]["output"]
                    ok = checks.normalize(job, base) == checks.normalize(job, res["output"])
                    why = "" if ok else "traced output differs from untraced"
                if not ok:
                    failed += 1
                    failures.append({"job": job["id"], "argv": job.get("argv"),
                                     "traced": traced, "reason": why,
                                     "stderr": res["stderr"][-300:]})
                if not traced:
                    slack += samples
    for g in gates or ():
        # a gate's budget miss is timing noise, not a wrong result
        attempted += 1
        if not g["ok"] and not g["budget_exceeded"]:
            failed += 1
            failures.append({"gate": g["slug"], "reason": g["detail"]})

    plain = rounds[False]
    # each set-up sample is normalized by the calibrations on either side
    setup_norm = [v * 2 * CALIB_NOMINAL_S / (c0 + c1)
                  for v, c0, c1 in zip(setup, setup_calibs, setup_calibs[1:])]
    per_job = [statistics.median(r["jobs"][j]["seconds"] * r["job_speed"][j] for r in plain)
               for j in range(len(jobs))]
    tail_v, tail_pct, beyond = tail(per_job)
    slack_runs = len(plain)
    raw_setup = statistics.median(setup)
    e2e = {
        "setup_s": statistics.median(setup_norm),
        "wall_s": statistics.median(r["wall_s"] * r["speed"] for r in plain),
        "cpu_s": statistics.median(r["cpu_s"] * r["speed"] for r in plain),
        "job_p50_ms": 1000 * statistics.median(per_job),
        "job_tail_ms": 1000 * tail_v,
        "peak_rss_mb": statistics.median(
            max(r["maxrss_kb"], r["maxrss_children_kb"]) for r in plain) / 1024,
    }
    raw = {
        "setup_s": raw_setup,
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "cpu_s": statistics.median(r["cpu_s"] for r in plain),
        "setup_calib_s": setup_calibs,
        "round_maxrss_kb": [[r["maxrss_kb"], r["maxrss_children_kb"]] for r in plain],
        "round_speed": [r["speed"] for r in plain],
        "round_job_speed": [r["job_speed"] for r in plain],
        "round_calib_s": [r["calibs"] for r in plain],
        "round_wall_s": [r["wall_s"] for r in plain],
        "round_job_s": [[j["seconds"] for j in r["jobs"]] for r in plain],
    }
    extra = {
        "failed_frac": failed / attempted if attempted else None,
        "bound_slack_digits": statistics.median(slack) if slack else 0.0,
    }
    samples = {
        "setup_s": len(setup), "wall_s": len(plain), "cpu_s": len(plain),
        "job_p50_ms": len(jobs) * len(plain), "job_tail_ms": len(jobs) * len(plain),
        "peak_rss_mb": len(plain), "failed_frac": attempted,
        "bound_slack_digits": len(slack) // max(slack_runs, 1),
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "end_to_end": e2e, "raw": raw, "extra": extra, "samples": samples,
        "job_tail": {"percentile": tail_pct, "jobs_beyond": beyond,
                     "job_count": len(jobs)},
        "rounds": {"untraced": len(plain), "traced": len(rounds[True])},
        "failures": failures[:50],
    }
    if rounds[True]:
        record["per_layer"] = layer_record(jobs, rounds, extra, gates, record)
    return record


def layer_record(jobs, rounds, extra, gates, record):
    import tracing

    traced = rounds[True]
    per_round = [tracing.layer_metrics(r["trace"]) for r in traced]
    out = {name: statistics.median(m[name] for m, _ in per_round)
           for name in per_round[0][0]}
    unmeasured = set().union(*(u for _, u in per_round))
    out_bytes = [sum(len(res["output"].encode()) for job, res in zip(jobs, r["jobs"])
                     if job["kind"] == "cli") for r in traced]
    out["cli.out_bytes"] = statistics.median(out_bytes)
    t_wall = statistics.median(r["wall_s"] * r["speed"] for r in traced)
    u_wall = statistics.median(r["wall_s"] * r["speed"] for r in rounds[False])
    out["trace.overhead_ratio"] = t_wall / u_wall
    covered = [sum(v for v in r["trace"]["self_s"].values()) / r["wall_s"] for r in traced]
    out["trace.coverage"] = statistics.median(covered)
    out.update(extra)
    if record["samples"]["bound_slack_digits"] == 0:
        unmeasured.add("bound_slack_digits")
    record["trace_missing_targets"] = traced[0]["trace"]["missing"]
    record["spans"] = traced[0]["trace"]["spans"]
    record["coverage_within_tolerance"] = abs(out["trace.coverage"] - 1) <= COVERAGE_TOLERANCE
    if gates is not None:
        record["gates"] = [dict(g, margin=g["budget_seconds"] / g["seconds"]) for g in gates]
        for g in gates:
            out["acceptance.%s.s" % g["slug"]] = g["seconds"]
    record["per_layer_unmeasured"] = sorted(unmeasured)
    return out


def result_metrics(record, trace):
    """(the `metrics` object of the result line, unmeasured names).

    Every metric carries exactly a number and its unit.  One that could not
    be measured (a vanished target, a ratio over no calls, no L-value to
    check, no gate report) reads 0 and is named in `unmeasured`, which is
    printed on a comment line and kept in the record, never in the result."""
    if trace:
        names, values = per_layer_names(), record.get("per_layer", {})
        unmeasured = set(record.get("per_layer_unmeasured", ()))
    else:
        names, values = END_TO_END, record["end_to_end"]
        unmeasured = set()
    metrics = {}
    for name, unit in names:
        v = values.get(name)
        if v is None:
            v = 0
            unmeasured.add(name)
        metrics[name] = {"value": v, "unit": unit}
    return metrics, sorted(unmeasured)


def print_result(record, trace):
    units = dict(END_TO_END)
    facts = record["facts"]
    sys.stdout.write("# %s seed %d: %d rounds, %d jobs attempted, %d failed; "
                     "nproc %d, python %s, mpmath %s (%s)\n" % (
                         record["workload"], record["seed"],
                         record["rounds"]["untraced"] + record["rounds"]["traced"],
                         record["attempted"], record["failed"], facts["nproc"],
                         facts["python"], facts["mpmath"], facts["mpmath_backend"]))
    for name, v in record["end_to_end"].items():
        raw = record["raw"].get(name)
        sys.stdout.write("# %-20s %14.6f %-3s (n=%d)%s\n" % (
            name, v, units[name], record["samples"][name],
            "" if raw is None else "  raw %.6f" % raw))
    metrics, unmeasured = result_metrics(record, trace)
    if unmeasured:
        sys.stdout.write("# unmeasured, reported as 0: %s\n" % " ".join(unmeasured))
    result = {"correct": record["correct"], "attempted": record["attempted"],
              "failed": record["failed"], "metrics": metrics}
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    sys.exit(main())
