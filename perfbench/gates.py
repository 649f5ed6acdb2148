"""Gate report: time each of the package's acceptance criteria once.

Runs in its own fresh interpreter, untraced and outside the timed rounds.
Prints one JSON list with each criterion's slug, seconds, budget, pass
flag and detail.  A criterion that only missed its wall-clock budget is
reported as such and is not a failed job of the benchmark; one that fails
its assertion or raises is.  An exception is caught per criterion, so one
broken gate does not hide the others.

Run by run.py as `python3 perfbench/gates.py SRC_DIR`.
"""

import json
import sys
import time


def main(src):
    sys.path.insert(0, src)
    from heptalift import acceptance

    out = []
    for criterion in acceptance.CRITERIA:
        t0 = time.perf_counter()
        try:
            r = acceptance.run(criterion)
            seconds, ok, detail = r.seconds, r.ok, r.detail
        except Exception as exc:
            seconds, ok = time.perf_counter() - t0, False
            detail = "raised %s: %s" % (type(exc).__name__, exc)
        out.append({
            "slug": criterion.slug,
            "seconds": seconds,
            "budget_seconds": criterion.budget_seconds,
            "ok": ok,
            "budget_exceeded": detail.startswith("budget exceeded"),
            "detail": detail[-300:],
        })
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main(sys.argv[1])
