"""Regenerate perfbench/reference.json from the package in this checkout.

    python3 perfbench/make_reference.py

Computes the 50-digit L-values and period with their bounds, records the
pinned probe rationals and census counts, then runs one untraced round of
every workload at the default seed, checks every output independently of
any stored hash, and stores the SHA-256 of each output.  Run it only when
an output change is intended, and say why in the change that commits it.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402

DEFAULT_SEED = 1


def main():
    sys.path.insert(0, bench.SRC)
    import mpmath

    from heptalift import census_f2, eigen_delta, gamma_k, period_report
    from heptalift.exactnum import frac_str

    import checks
    import jobs as joblists

    report = period_report(10, eigen_delta(80 * 50), digits=50)

    def enc(bf):
        return [mpmath.nstr(bf.value, 65), mpmath.nstr(bf.err, 6)]

    ref = {
        "default_seed": DEFAULT_SEED,
        "lvalues_50": {str(s): enc(lv) for s, lv in zip((1, 5, 9), report["lvalues"])},
        "period_50": enc(report["value"]),
        "probe": {"r5": "2/12285", "r9": "256/14582602125"},
        "gamma_k_10": frac_str(gamma_k(10)),
        "census": {"counts": census_f2(1), "beta": "197358525/268435456"},
        "hashes": {},
    }
    checker = checks.Checker(ref)
    hashes = {}
    deadline = bench.time.perf_counter() + 3600
    for workload in joblists.WORKLOADS:
        jobs = joblists.build(workload, DEFAULT_SEED)
        result = bench.run_round(jobs, False, deadline)
        for job, res in zip(jobs, result["jobs"]):
            ok, why, _ = checker.check(job, res["rc"], res["output"])
            if not ok:
                raise SystemExit("%s %s fails its check: %s" % (job["id"], job.get("argv"), why))
            hashes[job["key"]] = checks.digest(job, res["output"])
    ref["hashes"] = dict(sorted(hashes.items()))
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %d output hashes" % len(hashes))


if __name__ == "__main__":
    main()
