"""Run every workload at one seed and print every end-to-end metric, or
compare two saved sets of results.

    python3 perfbench/report.py --seed 1 [--seconds 30] [--save DIR]
    python3 perfbench/report.py --compare DIR_A DIR_B

The first form runs `period`, `tables` and `algebra` untraced, one after
another, and prints each metric with its unit and sample count, including
failed_frac and bound_slack_digits (which BENCHMARK.json carries among the
per-layer metrics, since they can be zero or exist on one workload only).
With --save, the full records are kept as DIR/<workload>-<seed>.json.

The second form reads records saved that way from two checkouts (say the
parent commit and a change, each run over the same seeds) and prints, per
workload and metric, each side's median and quartiles and the change in
the median.
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("period", "tables", "algebra")
UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "job_p50_ms": "ms",
         "job_tail_ms": "ms", "peak_rss_mb": "MB", "failed_frac": "ratio",
         "bound_slack_digits": "digits"}


def metrics_of(record):
    out = dict(record["end_to_end"])
    out.update(record["extra"])
    return out


def run_all(seed, seconds, save):
    os.makedirs(save, exist_ok=True)
    records = {}
    for w in WORKLOADS:
        path = os.path.join(save, "%s-%d.json" % (w, seed))
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
             "--out", path],
            capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit("workload %s failed to run" % w)
        with open(path) as fh:
            records[w] = json.load(fh)
    return records


def print_records(records):
    print("%-8s %-19s %14s %-6s %s" % ("workload", "metric", "value", "unit", "samples"))
    for w, rec in records.items():
        for name, value in metrics_of(rec).items():
            shown = "missing" if value is None else "%.6g" % value
            n = rec["samples"][name]
            note = ""
            if name == "job_tail_ms":
                t = rec["job_tail"]
                note = " (p%.1f of %d jobs, %d beyond)" % (
                    t["percentile"], t["job_count"], t["jobs_beyond"])
            print("%-8s %-19s %14s %-6s %d%s" % (w, name, shown, UNITS[name], n, note))
        print("%-8s %-19s %14s" % (w, "correct", rec["correct"]))


def load_dir(d):
    out = {}
    for path in sorted(glob.glob(os.path.join(d, "*.json"))):
        with open(path) as fh:
            rec = json.load(fh)
        out.setdefault(rec["workload"], []).append(metrics_of(rec))
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(dir_a, dir_b):
    a, b = load_dir(dir_a), load_dir(dir_b)
    print("%-8s %-19s %-32s %-32s %s" % ("workload", "metric", "A q1/median/q3",
                                          "B q1/median/q3", "B/A median"))
    for w in WORKLOADS:
        if w not in a or w not in b:
            continue
        for name in UNITS:
            va = [m[name] for m in a[w] if m.get(name) is not None]
            vb = [m[name] for m in b[w] if m.get(name) is not None]
            if not va or not vb:
                continue
            qa, qb = quartiles(va), quartiles(vb)
            ratio = qb[1] / qa[1] if qa[1] else float("nan")
            print("%-8s %-19s %-32s %-32s %.4f  (n=%d/%d)" % (
                w, name, "%.4g/%.4g/%.4g" % qa, "%.4g/%.4g/%.4g" % qb,
                ratio, len(va), len(vb)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--save", default=None)
    ap.add_argument("--compare", nargs=2, metavar=("DIR_A", "DIR_B"))
    args = ap.parse_args()
    if args.compare:
        compare(*args.compare)
        return
    if args.save:
        records = run_all(args.seed, args.seconds, args.save)
    else:
        with tempfile.TemporaryDirectory(dir=os.path.dirname(HERE)) as tmp:
            records = run_all(args.seed, args.seconds, tmp)
    print_records(records)


if __name__ == "__main__":
    main()
