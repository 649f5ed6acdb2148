"""Acceptance suite: twelve machine-checkable gates over the whole stack.

Each criterion function re-derives its inputs from scratch, checks an exact
identity (or a pinned tolerance where floats are unavoidable) and returns a
short detail string; failures raise AssertionError or let the underlying
module error propagate.  run() executes one criterion and enforces its
wall-clock budget, so a regression in speed fails the same gate as a
regression in correctness.  The CLI selftest and the test suite both walk
CRITERIA, keeping the two entry points identical.
"""

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .cayley import Octonion, QQ, ZZ, gram_det, structure_constants
from .census import beta_from_census, census_f2
from .density import MASS_CONSTANT, beta_exps, igusa_verify, mass
from .genfun import H_verify, gamma_k, gamma_k_derived
from .jordan import JordanElement, apply_word, word_multiplier
from .lift import eigen_delta, fourier_coeff, tau_table
from .lvalue import _kernels, period_report, rationality_probe, sym2_dirichlet_sum, sym2_lvalue
from .padic import reduce_at
from .siegel import f_poly, f_poly_oracle, tilde_f


@dataclass(frozen=True)
class Criterion:
    number: int
    slug: str
    budget_seconds: float
    fn: object


@dataclass(frozen=True)
class CriterionResult:
    number: int
    slug: str
    ok: bool
    seconds: float
    detail: str


def _draws(rng, bound, count):
    """count values of rng.randint(-bound, bound), as the same stream.

    Draws k-bit integers and rejects those >= 2 bound + 1, the loop that
    Random._randbelow runs under randint, without its per-call overhead.
    """
    n = 2 * bound + 1
    k = n.bit_length()
    getrandbits = rng.getrandbits
    out = []
    while len(out) < count:
        r = getrandbits(k)
        if r < n:
            out.append(r - bound)
    return out


def _rand_oct(rng, bound=2, ring=ZZ):
    return Octonion(ring, _draws(rng, bound, 8))


def _rand_jordan(rng, bound=3, ring=ZZ):
    a, b, c = _draws(rng, bound, 3)
    x, y, z = (_rand_oct(rng, 2, ring) for _ in range(3))
    return JordanElement(ring, a, b, c, x, y, z)


def _unit_word(rng, length):
    """Word of integrally invertible tokens; det multiplier is +-1."""
    word = []
    for _ in range(length):
        kind = rng.randrange(4)
        if kind == 0:
            i, j = rng.sample([1, 2, 3], 2)
            word.append(("m", _rand_oct(rng), i, j))
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
    """Word over Q whose theta tokens carry nonunit rational scalings."""
    word = []
    for _ in range(length):
        kind = rng.randrange(3)
        if kind == 0:
            i, j = rng.sample([1, 2, 3], 2)
            word.append(("m", _rand_oct(rng, 2, QQ), i, j))
        elif kind == 1:
            rs = tuple(
                Fraction(rng.choice([1, 2, 3, -1, -2]), rng.choice([1, 2, 3]))
                for _ in range(3)
            )
            word.append(("theta", rs))
        else:
            word.append(("gamma", rng.choice([1, -1])))
    return word


def _c1_algebra_laws():
    basis = [Octonion.basis(i) for i in range(8)]
    for x in basis:
        xx = x * x
        for y in basis:
            xy = x * y
            assert xy.norm() == x.norm() * y.norm()
            assert x * xy == xx * y
            assert (y * x) * x == y * xx
    for row in structure_constants():
        for col in row:
            assert all(isinstance(v, int) for v in col)
    rng = random.Random(1001)
    for _ in range(10 ** 4):
        x, y = _rand_oct(rng, 4), _rand_oct(rng, 4)
        xy = x * y
        xx = x * x
        assert xy.norm() == x.norm() * y.norm()
        assert x * xy == xx * y
        assert (y * x) * x == y * xx
        assert all(isinstance(v, int) for v in xy.co)
    assert gram_det() == 1
    return "composition/alternativity on 64 basis pairs + 10^4 random; Gram det 1"


def _c2_jordan_identities():
    rng = random.Random(1002)
    for n in range(1000):
        if n % 10 < 7:
            X = _rand_jordan(rng)
            word = _unit_word(rng, rng.randint(1, 4))
            nu = word_multiplier(word, ZZ)
        else:
            X = _rand_jordan(rng, ring=QQ)
            word = _rational_word(rng, rng.randint(1, 3))
            nu = word_multiplier(word, QQ)
        assert apply_word(X, word).det() == nu * X.det()
    for _ in range(1000):
        X, Y = _rand_jordan(rng), _rand_jordan(rng)
        d = X.det_expansion(Y)
        assert d[1] == X.adj().inner(Y)
        for t in (1, 2, 3):
            want = d[0] + d[1] * t + d[2] * t ** 2 + d[3] * t ** 3
            assert (X + Y.scale(t)).det() == want
    return "det multiplier on 1000 words; derivative cubic on 1000 pairs"


def _c3_census():
    counts = census_f2()
    want = 2 ** 12 * (2 - 1) * (2 ** 5 - 1) * (2 ** 9 - 1)
    assert counts["rank3"] == want == 64884736
    assert sum(counts.values()) == 2 ** 27
    got = beta_from_census(counts)
    assert got == beta_exps(2, (0, 0, 0))
    return "rank3 = 64884736 over 2^27 elements; beta_2(0,0,0) bridged exactly"


def _c4_igusa():
    for p in (2, 3, 5):
        ok, rows = igusa_verify(p, 12)
        assert ok, rows
        assert len(rows) == 13 and all(r["equal"] for r in rows)
    return "series identity coefficients 0..12 equal for p in {2,3,5}"


def _c5_beta_recursions():
    checked = 0
    for p in (2, 3, 5):
        for a1 in range(7):
            for a2 in range(a1, 7):
                for a3 in range(a2, 7):
                    b = beta_exps(p, (a1, a2, a3))
                    assert beta_exps(p, (a1 + 1, a2 + 1, a3 + 1)) == p ** 27 * b
                    s = a1 + a2 + a3
                    adj = (a1 + a2, a1 + a3, a2 + a3)
                    assert beta_exps(p, adj) == p ** (9 * s) * b
                    checked += 1
        for a2 in range(7):
            for a3 in range(a2 + 1, 7):
                assert beta_exps(p, (0, a2, a3 + 1)) == p * beta_exps(p, (0, a2, a3))
                checked += 1
    return "scaling/adjoint/step rules on %d cases, a3 <= 6, p in {2,3,5}" % checked


def _c6_siegel():
    checked = 0
    for p in (2, 3, 5):
        for m1 in range(4):
            for m2 in range(10):
                for m3 in range(m2, 10):
                    if 3 * m1 + m2 + m3 > 9:
                        continue
                    f = f_poly(p, m1, m2, m3)
                    g = f_poly_oracle(p, m1, m2, m3)
                    assert f.poly == g.poly
                    assert f.weight == 3 * m1 + m2 + m3
                    assert f.evaluate(0) == 1
                    assert all(c.denominator == 1 for c in f.coeffs())
                    t = tilde_f(f)
                    assert t == t.subst_inverse()
                    checked += 1
    return "closed form = recursion oracle + palindromy on %d triples" % checked


def _c7_hp_identity():
    for p in (2, 3, 5):
        ok, report = H_verify(p, 10)
        assert ok, report
    return "product form matches orbit sum through t^10 for p in {2,3,5}"


def _c8_residue_algebra():
    for k in range(10, 16):
        assert gamma_k_derived(k) == gamma_k(k)
    want = Fraction(
        691 * math.factorial(19) * math.factorial(15) * math.factorial(11),
        2 ** 113 * 3 ** 3 * 5 * 7 ** 2 * 13,
    )
    assert gamma_k(10) == want
    return "derived = closed form for k in 10..15; k=10 value pinned"


def _c9_mass():
    one = JordanElement.diag(1, 1, 1)
    two = JordanElement.diag(2, 2, 2)
    assert mass(one) == MASS_CONSTANT
    assert mass(one) == Fraction(691, 2 ** 15 * 3 ** 6 * 5 ** 2 * 7 ** 2 * 13)
    assert mass(two) == mass(one)
    return "mass(1_3) = 691/(2^15 3^6 5^2 7^2 13), scale invariant"


def _c10_lift_coefficients():
    eigen = eigen_delta(10)
    taus = tau_table(10)
    assert taus[0] == 1
    assert taus[5] == taus[1] * taus[2]
    assert fourier_coeff(JordanElement.diag(1, 1, 1), eigen) == 1
    assert fourier_coeff(JordanElement.diag(1, 1, 2), eigen) == taus[1] == -24
    assert fourier_coeff(JordanElement.diag(1, 1, 4), eigen) == taus[3] == -1472
    for p in (2, 3):
        tower = [
            fourier_coeff(JordanElement.diag(1, 1, p ** m), eigen) for m in range(6)
        ]
        for m in range(1, 5):
            assert tower[m + 1] == eigen.a(p) * tower[m] - p ** 11 * tower[m - 1]
    return "a(1_3)=1, a(diag(1,1,2))=-24, a(diag(1,1,4))=-1472; Hecke towers"


def _c11_reduction_round_trip():
    rng = random.Random(1011)
    for p in (2, 3, 5):
        for _ in range(200):
            exps = tuple(sorted(rng.randint(0, 4) for _ in range(3)))
            X = JordanElement.diag(*(p ** e for e in exps))
            Y = apply_word(X, _unit_word(rng, rng.randint(2, 5)))
            r = reduce_at(Y, p)
            assert r.divisors.exps == exps
            det = Y.det()
            v = 0
            while det % p == 0:
                det //= p
                v += 1
            assert r.divisors.total == sum(exps) == v
    return "600 scrambled diagonals recovered; valuation sum rule on each"


def _c12_period_pipeline():
    eigen = eigen_delta(2000)
    smoothed = sym2_lvalue(eigen, 9, digits=20)
    plain = sym2_dirichlet_sum(eigen, 9, 400, digits=20)
    diff = abs(smoothed.value - plain.value)
    assert diff < mpmath.mpf("1e-10") * abs(smoothed.value)

    r1 = period_report(10, eigen, digits=20)
    # the rerun rebuilds its kernels, so it compares two independent builds
    _kernels.cache_clear()
    r2 = period_report(10, eigen, digits=20)
    assert r1["value"].value == r2["value"].value
    assert r1["value"].err == r2["value"].err

    probe = rationality_probe(eigen, 10, digits=(20, 30))
    assert probe["r5"] == Fraction(2, 12285)
    assert probe["r9"] == Fraction(256, 14582602125)
    return "two-method s=9 agreement; bit-identical reruns; probe stabilized"


CRITERIA = (
    Criterion(1, "algebra-laws", 1.0, _c1_algebra_laws),
    Criterion(2, "jordan-identities", 10.0, _c2_jordan_identities),
    Criterion(3, "census-oracle", 300.0, _c3_census),
    Criterion(4, "igusa-consistency", 1.0, _c4_igusa),
    Criterion(5, "beta-recursions", 1.0, _c5_beta_recursions),
    Criterion(6, "siegel-series", 30.0, _c6_siegel),
    Criterion(7, "hp-identity", 120.0, _c7_hp_identity),
    Criterion(8, "residue-algebra", 1.0, _c8_residue_algebra),
    Criterion(9, "mass-formula", 1.0, _c9_mass),
    Criterion(10, "lift-coefficients", 5.0, _c10_lift_coefficients),
    Criterion(11, "reduction-round-trip", 60.0, _c11_reduction_round_trip),
    Criterion(12, "period-pipeline", 300.0, _c12_period_pipeline),
)


def run(criterion: Criterion) -> CriterionResult:
    t0 = time.perf_counter()
    try:
        detail = criterion.fn()
        ok = True
    except AssertionError as exc:
        detail = "assertion failed: %s" % (exc,)
        ok = False
    elapsed = time.perf_counter() - t0
    if ok and elapsed > criterion.budget_seconds:
        ok = False
        detail = "budget exceeded: %.2fs > %.0fs (%s)" % (
            elapsed,
            criterion.budget_seconds,
            detail,
        )
    return CriterionResult(criterion.number, criterion.slug, ok, elapsed, detail)

