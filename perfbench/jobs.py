"""Seeded job lists for the three workloads.

A job is either a CLI request, run in-process through heptalift.cli.main
with the generated argv (and element JSON on stdin), or a batch of library
calls where no subcommand exposes the operation.  Every job carries what
its output check needs.  The job list of a round is fixed by the workload
and the seed; inputs are generated here, before any timing starts.

Seeded choices are made so that a round's total cost and the shape of its
latency distribution do not depend on the seed: cost-varying draws come in
pairs whose costs add up to a constant (see `_period_pair`), and each job
type appears the same number of times in every round.  The counts place the
median job and the tail job (the 11th slowest) in the middle of a band of
jobs of one type, so that neither statistic jumps between job types when
the seed changes:

- period: the median falls between `period --digits 30` and the probe;
  the tail is the slowest job, `period --digits 50`.
- tables: the median falls among the 12 `siegel` jobs (16 faster jobs
  below, 16 slower above); the tail among the 9 `rs-euler` jobs.
- algebra: the median falls among the 20 octonion batches (31 jobs below,
  31 above); the tail among the 20 rational Jordan batches.
"""

import hashlib
import json
import random
from fractions import Fraction
from functools import lru_cache

from heptalift import JordanElement, Octonion, QQ, ZZ, apply_word

WORKLOADS = ("period", "tables", "algebra")

# relative cost of CLI `period` by requested digits: seconds measured on a
# 2-CPU box, interpolated linearly between the rows
_PERIOD_COST = ((10, 0.44), (20, 0.96), (30, 2.07), (40, 3.39), (50, 5.15))


def _cli(argv, check, stdin=None):
    return {"kind": "cli", "argv": [str(a) for a in argv], "stdin": stdin,
            "check": check}


def _batch(fn, args, check):
    return {"kind": "batch", "fn": fn, "args": args, "check": check}


def qstr(v):
    """An int or Fraction as the package prints it: 'n' or 'num/den'."""
    v = Fraction(v)
    return str(v.numerator) if v.denominator == 1 else "%d/%d" % (
        v.numerator, v.denominator)


def _cost(d):
    for (d0, c0), (d1, c1) in zip(_PERIOD_COST, _PERIOD_COST[1:]):
        if d0 <= d <= d1:
            return c0 + (c1 - c0) * (d - d0) / (d1 - d0)
    raise ValueError(d)


def _period_pair(rng):
    """(d_a, d_b): d_a drawn from 10..22, d_b in 37..42 chosen so that the
    pair costs what (10, 42) costs, keeping the round's cost seed-free.
    d_a stays cheaper than `period --digits 30` and d_b dearer than the
    probe, so the round's median job is always the same pair of jobs."""
    d_a = rng.randint(10, 22)
    want = _cost(10) + _cost(42) - _cost(d_a)
    d_b = min(range(10, 51), key=lambda d: abs(_cost(d) - want))
    return d_a, d_b


# ---------------------------------------------------------------------------
# period


def period_jobs(rng, smoke=False):
    if smoke:
        return [
            _cli(["period", "--k", 10, "--digits", 12], {"type": "period"}),
            _batch("period_unrounded", {"digits": 10}, {"type": "period_unrounded"}),
            _cli(["probe", "--k", 10, "--digits", "10,12"], {"type": "probe"}),
        ]
    d_a, d_b = _period_pair(rng)
    return [
        _cli(["period", "--k", 10, "--digits", 20], {"type": "period"}),
        _cli(["period", "--k", 10, "--digits", 30], {"type": "period"}),
        _cli(["probe", "--k", 10, "--digits", "20,30"],
             {"type": "probe", "pinned": True}),
        _cli(["period", "--k", 10, "--digits", 50], {"type": "period"}),
        _batch("period_unrounded", {"digits": d_a}, {"type": "period_unrounded"}),
        _cli(["period", "--k", 10, "--digits", d_b], {"type": "period"}),
    ]


# ---------------------------------------------------------------------------
# tables

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


def _siegel_job(rng):
    p = rng.choice(_SMALL_PRIMES)
    while True:
        m1, m2, m3 = rng.randint(0, 2), rng.randint(0, 5), rng.randint(0, 6)
        if m2 <= m3 and 3 * m1 + m2 + m3 <= 9:
            break
    x = Fraction(rng.randint(-7, 7), rng.randint(1, 9))
    return _cli(["siegel", "--prime", p, "--m", "%d,%d,%d" % (m1, m2, m3),
                 "--eval", "X=" + qstr(x)], {"type": "siegel"})


def _density_job(rng):
    p = rng.choice(_SMALL_PRIMES)
    exps = sorted(rng.randint(0, 6) for _ in range(3))
    return _cli(["density", "--prime", p, "--divisors",
                 ",".join(str(e) for e in exps)], {"type": "density"})


def tables_jobs(rng, smoke=False):
    if smoke:
        return [
            _cli(["lift-table", "--k", 10, "--max-det", 12], {"type": "lift_table"}),
            _cli(["hp-verify", "--prime", 2, "--tmax", 3], {"type": "ok"}),
            _cli(["igusa-verify", "--prime", 3, "--order", 4], {"type": "igusa"}),
            _siegel_job(rng),
            _density_job(rng),
            _cli(["gamma-k", "--k", 10, "--derived"], {"type": "gamma_k"}),
            _cli(["rs-euler", "--prime", 3], {"type": "rs_euler"}),
        ]
    d_a = rng.randint(50, 100)
    jobs = [
        _cli(["lift-table", "--k", 10, "--max-det", 200], {"type": "lift_table"}),
        _cli(["lift-table", "--k", 10, "--max-det", d_a], {"type": "lift_table"}),
        _cli(["lift-table", "--k", 10, "--max-det", 150 - d_a],
             {"type": "lift_table"}),
    ]
    primes = [2, 3, 5, 7]
    rng.shuffle(primes)
    routed = rng.choice(primes)
    for p in primes:
        argv = ["hp-verify", "--prime", p, "--tmax", 10]
        if p == routed:
            argv.append("--table-route")
        jobs.append(_cli(argv, {"type": "ok"}))
    small = []
    for _ in range(6):
        small.append(_cli(["igusa-verify", "--prime", rng.choice(_SMALL_PRIMES),
                           "--order", rng.randint(4, 12)], {"type": "igusa"}))
    small += [_siegel_job(rng) for _ in range(12)]
    small += [_density_job(rng) for _ in range(6)]
    for _ in range(4):
        small.append(_cli(["gamma-k", "--k", rng.randint(10, 15), "--derived"],
                          {"type": "gamma_k"}))
    for _ in range(9):
        small.append(_cli(["rs-euler", "--prime",
                           rng.choice((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31))],
                          {"type": "rs_euler"}))
    rng.shuffle(small)
    # big and small jobs interleave in a seeded but cost-neutral order
    out = []
    stride = len(small) // len(jobs)
    for i, job in enumerate(jobs):
        out.append(job)
        out += small[i * stride:(i + 1) * stride]
    out += small[len(jobs) * stride:]
    return out


# ---------------------------------------------------------------------------
# algebra


def _rand_oct(rng, bound, ring=ZZ):
    if ring is QQ:
        return Octonion(QQ, [Fraction(rng.randint(-bound, bound), rng.randint(1, 3))
                             for _ in range(8)])
    return Octonion(ring, [rng.randint(-bound, bound) for _ in range(8)])


def _unit_word(rng, length):
    """Integrally invertible tokens; the det multiplier is +-1."""
    word = []
    for _ in range(length):
        kind = rng.randrange(4)
        if kind == 0:
            i, j = rng.sample([1, 2, 3], 2)
            word.append(("m", _rand_oct(rng, 2), i, j))
        elif kind == 1:
            sigma = [1, 2, 3]
            rng.shuffle(sigma)
            word.append(("perm", tuple(sigma)))
        elif kind == 2:
            word.append(("theta", tuple(rng.choice([1, -1]) for _ in range(3))))
        else:
            word.append(("gamma", rng.choice([1, -1])))
    return word


def _rational_word(rng, length):
    word = []
    for _ in range(length):
        kind = rng.randrange(3)
        if kind == 0:
            i, j = rng.sample([1, 2, 3], 2)
            word.append(("m", _rand_oct(rng, 2, QQ), i, j))
        elif kind == 1:
            word.append(("theta", tuple(
                Fraction(rng.choice([1, 2, 3, -1, -2]), rng.choice([1, 2, 3]))
                for _ in range(3))))
        else:
            word.append(("gamma", rng.choice([1, -1])))
    return word


def _positive_word(rng, length):
    """Congruences only (m and perm tokens), so positivity is kept."""
    word = []
    for _ in range(length):
        if rng.random() < 0.75:
            i, j = rng.sample([1, 2, 3], 2)
            word.append(("m", _rand_oct(rng, 2), i, j))
        else:
            sigma = [1, 2, 3]
            rng.shuffle(sigma)
            word.append(("perm", tuple(sigma)))
    return word


def _rand_jordan(rng, ring):
    if ring is QQ:
        d = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3)]
    else:
        d = [rng.randint(-3, 3) for _ in range(3)]
    return JordanElement(ring, *d, *(_rand_oct(rng, 2, ring) for _ in range(3)))


def enc_oct(o):
    return [qstr(v) for v in o.co]


def enc_jordan(X):
    return {"diag": [qstr(v) for v in (X.a, X.b, X.c)],
            "x": enc_oct(X.x), "y": enc_oct(X.y), "z": enc_oct(X.z)}


def enc_word(word):
    out = []
    for tok in word:
        if tok[0] == "m":
            out.append(["m", enc_oct(tok[1]), tok[2], tok[3]])
        elif tok[0] == "theta":
            out.append(["theta", [qstr(v) for v in tok[1]]])
        else:
            out.append([tok[0], tok[1] if tok[0] == "gamma" else list(tok[1])])
    return out


def _primes_upto(n):
    sieve = bytearray([1]) * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, int(n ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(sieve[i * i::i]))
    return [i for i in range(n + 1) if sieve[i]]


@lru_cache(maxsize=None)
def _primes_between(lo, hi):
    return tuple(p for p in _primes_upto(hi) if p >= lo)


def _big_prime(rng, lo, hi):
    return rng.choice(_primes_between(lo, hi))


def _reduce_job(rng):
    p = _big_prime(rng, 2, 10 ** 4)
    exps = tuple(sorted(rng.randint(0, 12) for _ in range(3)))
    X = JordanElement.diag(*(p ** e for e in exps))
    Y = apply_word(X, _unit_word(rng, rng.randint(2, 5)))
    return _cli(["reduce", "--prime", p, "--input", "-"],
                {"type": "reduce", "exps": list(exps)},
                stdin=json.dumps(Y.to_json()))


def _positive_element(rng, q, r):
    """Scrambled diag(1, q^a, q^b r) for primes q > 100 and r < 100.

    The caller draws q and r without replacement over the round, so no two
    elements share a prime and no local computation (`f_poly`,
    `local_factor`, `beta_p`) repeats an argument within a round."""
    a, b = rng.choice(((0, 1), (0, 2), (1, 1), (1, 2)))
    diag = (1, q ** a, q ** b * r)
    T = apply_word(JordanElement.diag(*diag), _positive_word(rng, rng.randint(2, 5)))
    return diag, json.dumps(T.to_json())


def algebra_jobs(rng, smoke=False):
    n_laws, n_words, n_qq, n_red, n_lift, n_mass = (
        (1, 1, 1, 2, 1, 1) if smoke else (20, 10, 20, 20, 5, 6))
    pairs_per_batch = 40 if smoke else 400
    jobs = []
    for _ in range(n_laws):
        bound = rng.randint(30, 60)
        pairs = [[enc_oct(_rand_oct(rng, bound)), enc_oct(_rand_oct(rng, bound))]
                 for _ in range(pairs_per_batch)]
        jobs.append(_batch("octonion_laws", {"pairs": pairs},
                           {"type": "octonion_laws"}))
    for _ in range(n_words):
        items = []
        for n in range(8 if smoke else 40):
            if n % 10 < 7:
                X, word, ring = _rand_jordan(rng, ZZ), _unit_word(rng, rng.randint(1, 4)), "ZZ"
            else:
                X, word, ring = _rand_jordan(rng, QQ), _rational_word(rng, rng.randint(1, 3)), "QQ"
            items.append({"ring": ring, "X": enc_jordan(X), "word": enc_word(word)})
        jobs.append(_batch("det_multiplier", {"items": items},
                           {"type": "det_multiplier"}))
    for _ in range(n_qq):
        pairs = [[enc_jordan(_rand_jordan(rng, QQ)), enc_jordan(_rand_jordan(rng, QQ))]
                 for _ in range(1 if smoke else 3)]
        jobs.append(_batch("jordan_qq", {"pairs": pairs}, {"type": "jordan_qq"}))
    jobs += [_reduce_job(rng) for _ in range(n_red)]
    qs = rng.sample(_primes_between(101, 400), n_lift + n_mass)
    rs = rng.sample(_primes_between(11, 97), n_lift + n_mass)
    for q, r in zip(qs[:n_lift], rs[:n_lift]):
        diag, text = _positive_element(rng, q, r)
        jobs.append(_cli(["lift-coeff", "--k", 10, "--input", "-"],
                         {"type": "lift_coeff", "diag": list(diag)}, stdin=text))
    for q, r in zip(qs[n_lift:], rs[n_lift:]):
        diag, text = _positive_element(rng, q, r)
        jobs.append(_cli(["mass", "--input", "-"],
                         {"type": "mass", "diag": list(diag)}, stdin=text))
    rng.shuffle(jobs)
    if not smoke:
        jobs.insert(len(jobs) // 2, _cli(["census"], {"type": "census"}))
    return jobs


def build(workload, seed, smoke=False):
    """The job list of one round of `workload` at `seed`."""
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r" % (workload,))
    rng = random.Random("%s:%d" % (workload, seed))
    make = {"period": period_jobs, "tables": tables_jobs,
            "algebra": algebra_jobs}[workload]
    jobs = make(rng, smoke)
    for i, job in enumerate(jobs):
        job["id"] = "%s-%03d" % (workload, i)
        job["key"] = job_key(job)
    return jobs


def job_key(job):
    """Stable digest of a job's input, used to look up reference hashes."""
    if job["kind"] == "cli":
        text = " ".join(job["argv"])
        if job["stdin"] is not None:
            text += " <" + job["stdin"]
    else:
        text = job["fn"] + " " + json.dumps(job["args"], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:24]
