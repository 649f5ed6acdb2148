"""Does the calibration loop read the same on a large heap as on a fresh one?

    python3 perfbench/calib_heap.py --workload tables --pairs 40

Every time of the benchmark is divided by calibrate() (worker.py), timed in
the same interpreter as the jobs.  If a package that keeps a large heap
alive (a memo cache, say) slowed the loop down, its times would read too
fast.  This script starts two interpreters and keeps both alive:

- fresh: imports heptalift and does nothing else;
- heap:  imports heptalift, runs one round of the workload's job list at
  seed 1 keeping every output alive, then fills a memo-like dict of
  --memo-entries Fraction values keyed by tuples.

It then asks them in turn to time the loop, --pairs times each, so the two
readings of a pair are a fraction of a second apart and the box's drift
cancels.  It prints the median ratio heap / fresh over the pairs and its
quartiles.  A ratio near 1 means the heap leaves the normalization alone.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)


def child(kind, workload, memo_entries):
    import worker

    worker._import_package(SRC)
    keep = None
    if kind == "heap":
        import jobs as joblists

        spec = {"src": SRC, "jobs": joblists.build(workload, 1), "trace": False}
        keep = [worker.run_round(spec)]
        keep.append({(i, i % 7, i % 11): Fraction(i, i % 97 + 1)
                     for i in range(memo_entries)})
    print("ready", flush=True)
    for _ in sys.stdin:
        print(json.dumps(worker.calibrate()), flush=True)
    return keep


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="tables")
    ap.add_argument("--pairs", type=int, default=40)
    ap.add_argument("--memo-entries", type=int, default=300000)
    ap.add_argument("--child", choices=("fresh", "heap"), help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        child(args.child, args.workload, args.memo_entries)
        return

    procs = {}
    for kind in ("fresh", "heap"):
        procs[kind] = subprocess.Popen(
            [sys.executable, __file__, "--child", kind, "--workload", args.workload,
             "--memo-entries", str(args.memo_entries)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        for p in procs.values():
            if p.stdout.readline().strip() != "ready":
                raise SystemExit("a child failed to start")

        def reading(kind):
            p = procs[kind]
            p.stdin.write("c\n")
            p.stdin.flush()
            return float(p.stdout.readline())

        ratios = []
        for i in range(args.pairs):
            order = ("fresh", "heap") if i % 2 == 0 else ("heap", "fresh")
            t = {kind: reading(kind) for kind in order}
            ratios.append(t["heap"] / t["fresh"])
    finally:
        for p in procs.values():
            p.stdin.close()
            p.wait()
    q1, q2, q3 = statistics.quantiles(ratios, n=4)
    print("calibration heap / fresh: median %.4f, quartiles %.4f..%.4f over %d pairs "
          "(%s round, %d memo entries)" % (q2, q1, q3, len(ratios), args.workload,
                                           args.memo_entries))


if __name__ == "__main__":
    main()
