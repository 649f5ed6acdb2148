"""Symmetric-square L-values, the period, and the rationality probe.

The frozen decimals and rationals below come from direct high-precision
runs cross-checked at two precisions; the Petersson-norm anchor is the
classical weight-12 value known from the literature.
"""

import hashlib
import random
from collections import Counter
from fractions import Fraction
from itertools import islice
from math import prod

import mpmath
import mpmath.ctx_mp_python
import pytest
from mpmath.libmp import from_man_exp

from heptalift import lvalue
from heptalift.cli import MAX_GAMMA_K
from heptalift.exactnum import BigFloat
from heptalift.genfun import gamma_k
from heptalift.lift import eigen_delta, eigen_from_rows, sym2_coeffs, tau_table
from heptalift.lvalue import (
    CRITICAL_POINTS,
    GUARD_BITS,
    MAX_DIGITS,
    _coefficients,
    _contour,
    _gdiv,
    _gmul,
    _Kernel,
    _NodeSource,
    _joint_series,
    _kernels,
    _local_series,
    _rising,
    _step_sums,
    gamma_infinity,
    period_report,
    rationality_probe,
    reconstruct_ratio,
    sym2_dirichlet_coeffs,
    sym2_dirichlet_sum,
    sym2_lvalue,
    sym2_lvalues,
    triple_divisor_count,
)
from heptalift.padic import factorize

EIGEN = eigen_delta(12000)


def eigen_delta_e4(max_prime=256):
    """EigenData (k = 12) of Delta E_4, the normalized cusp form of weight 16
    (S_16 is one-dimensional, so it is the eigenform): its q-coefficients are
    the exact convolution of tau(n) with E_4 = 1 + 240 sum sigma_3(n) q^n."""
    taus = tau_table(max_prime)
    e4 = [1] + [240 * sum(d ** 3 for d in range(1, m + 1) if m % d == 0)
                for m in range(1, max_prime)]
    primes = [p for p in range(2, max_prime + 1) if all(p % q for q in range(2, p))]
    return eigen_from_rows(12, [(p, sum(taus[p - m - 1] * e4[m] for m in range(p)))
                                for p in primes])


EIGEN16 = eigen_delta_e4()

RHO5 = Fraction(2, 12285)
RHO9 = Fraction(256, 14582602125)
PETERSSON_DELTA = "1.0353620568043209223e-6"


@pytest.fixture(autouse=True)
def fresh_kernels():
    # tests that spy on kernel builds must see them built, not read from the
    # memo another test filled
    _kernels.cache_clear()
    yield
    _kernels.cache_clear()


def test_triple_divisor_count():
    assert triple_divisor_count(1) == 1
    assert [triple_divisor_count(p) for p in (2, 3, 5)] == [3, 3, 3]
    # brute force: d_3(n) = sum over d | n of d_2(n/d), divisors by a sieve
    N = 3000
    divisors = [[] for _ in range(N)]
    for d in range(1, N):
        for n in range(d, N, d):
            divisors[n].append(d)
    for n in range(1, N):
        brute = sum(len(divisors[n // d]) for d in divisors[n])
        assert triple_divisor_count(n) == brute
    with pytest.raises(ValueError):
        triple_divisor_count(0)


def local_series_reference(eigen, p, emax):
    """Oracle: b(p^e) by the three-term recurrence of the inverse local
    factor 1 - s1 u + s1 u^2 - u^3, s1 = a_p^2 / p^(2k-9) - 1."""
    _, c1, c2, c3 = sym2_coeffs(eigen.a(p), p, eigen.k)
    out = [Fraction(1)]
    for e in range(1, emax + 1):
        v = -c1 * out[e - 1]
        if e >= 2:
            v -= c2 * out[e - 2]
        if e >= 3:
            v -= c3 * out[e - 3]
        out.append(v)
    return out


@pytest.mark.parametrize("eigen, p", [
    (EIGEN, 2), (EIGEN, 3), (EIGEN, 5), (EIGEN, 101),
    (eigen_from_rows(12, [(7, Fraction(-3, 2) * 7 ** 7)]), 7),
], ids=["k10-2", "k10-3", "k10-5", "k10-101", "k12-7-rational"])
def test_local_series_matches_recurrence(eigen, p):
    got = _local_series(eigen, p, 12)
    assert got == local_series_reference(eigen, p, 12)
    assert all(isinstance(v, Fraction) for v in got[1:])


def test_coefficient_stream_reads_each_prime_when_n_reaches_it():
    # b(n) against the products of the recurrence oracle over the prime
    # powers of n, d_3(n) against triple_divisor_count, and a_p read first
    # at n = p
    reads, primes = set(), set()

    class Spy:
        k = EIGEN.k

        def a(self, p):
            reads.add(p)
            return EIGEN.a(p)

    for n, (b, d3) in enumerate(islice(_coefficients(Spy()), 600), 1):
        fac = factorize(n)
        assert b == prod(local_series_reference(EIGEN, p, e)[e] for p, e in fac.items())
        assert d3 == triple_divisor_count(n)
        if fac == {n: 1}:
            primes.add(n)
        assert reads == primes, n


def test_coeffs_first_values():
    bs = sym2_dirichlet_coeffs(EIGEN, 30)
    assert bs[0] == 1
    for p, tau in ((2, -24), (3, 252), (5, 4830)):
        assert bs[p - 1] == Fraction(tau * tau, p ** 11) - 1
    assert bs[1] == Fraction(-23, 32)
    # multiplicativity and the prime-power recurrence
    assert bs[5] == bs[1] * bs[2]
    s1 = bs[1]
    assert bs[3] == s1 * s1 - s1
    assert bs[7] == s1 * bs[3] - s1 * bs[1] + 1


def test_coeffs_d3_bound():
    bs = sym2_dirichlet_coeffs(EIGEN, 1000)
    for n in range(1, 1001):
        assert abs(bs[n - 1]) <= triple_divisor_count(n)


def test_coeffs_missing_prime():
    small = eigen_delta(10)
    with pytest.raises(KeyError):
        sym2_dirichlet_coeffs(small, 30)
    with pytest.raises(ValueError):
        sym2_dirichlet_coeffs(EIGEN, 0)


def test_gamma_infinity_closed_form():
    with mpmath.workdps(40):
        got = gamma_infinity(1, 10)
        want = (
            mpmath.pi ** mpmath.mpf(-1)
            * 2
            * (2 * mpmath.pi) ** mpmath.mpf(-12)
            * mpmath.factorial(11)
        )
        assert abs(got - want) < mpmath.mpf(10) ** -45
        # duplication: GammaC(z) = GammaR(z) GammaR(z+1) splits the factor
        s = mpmath.mpf("2.3")
        gr = lambda z: mpmath.pi ** (-z / 2) * mpmath.gamma(z / 2)
        split = gr(s + 1) * gr(s + 11) * gr(s + 12)
        assert abs(gamma_infinity(s, 10) - split) < mpmath.mpf(10) ** -38


def test_kernel_contour_invariance():
    with mpmath.workdps(40):
        base = _Kernel(9, 10, 20)
        moved = _Kernel(9, 10, 20, c0=9.5)
        for n in (1, 2, 7, 50):
            a, b = (ker.finish(n, mpmath.log(n), _step_sums([ker], n)[0])
                    for ker in (base, moved))
            assert abs(a.value - b.value) <= a.err + b.err


def test_two_method_agreement_s9():
    smoothed = sym2_lvalue(EIGEN, 9, 20)
    plain = sym2_dirichlet_sum(EIGEN, 9, 10 ** 4, 25)
    diff = abs(smoothed.value - plain.value)
    assert diff < mpmath.mpf(10) ** -10 * abs(plain.value)
    assert diff <= smoothed.err + plain.err


def test_two_method_agreement_s5():
    smoothed = sym2_lvalue(EIGEN, 5, 20)
    plain = sym2_dirichlet_sum(EIGEN, 5, 10 ** 4, 25)
    assert abs(smoothed.value - plain.value) < mpmath.mpf(10) ** -8


def test_s1_stability_and_nesting():
    coarse = sym2_lvalue(EIGEN, 1, 12)
    fine = sym2_lvalue(EIGEN, 1, 24)
    # the finer value lies inside the coarse interval
    assert abs(coarse.value - fine.value) < coarse.err
    assert fine.err < coarse.err


def test_monotone_error():
    errs = [sym2_lvalue(EIGEN, 9, d).err for d in (10, 16, 22)]
    assert errs[0] > errs[1] > errs[2]


def _exact_mpc(g):
    """The Gaussian mantissa (re, im, e), (re + i im) 2^e, as an mpc, exactly."""
    re, im, e = g
    return mpmath.mp.make_mpc((from_man_exp(re, e), from_man_exp(im, e)))


def _spy_nodes(monkeypatch):
    """Record each kernel's node table, converted exactly to mpcs, as it is
    rounded to integers."""
    nodes = {}
    fix = _Kernel._fix

    def spy(ker, table, *rest):
        nodes[ker] = [_exact_mpc(g) for g in table]
        fix(ker, table, *rest)

    monkeypatch.setattr(_Kernel, "_fix", spy)
    return nodes


def _mpc_oracle(nodes, h, n):
    """Re(G_0/2 + sum_j G_j r^j) by rounded complex products r^j = r^{j-1} r,
    the mpc route, in 80 extra bits: the exact sum over the given nodes to far
    below the fixed-point rounding term."""
    with mpmath.extraprec(80):
        r = mpmath.expj(-h * mpmath.log(n))
        rp = mpmath.mpc(1)
        acc = nodes[0].real / 2
        for g in nodes[1:]:
            rp *= r
            acc += (g * rp).real
    return acc


@pytest.mark.parametrize("digits", [12, 30, 50])
def test_fixed_point_sums_match_mpc_oracle(monkeypatch, digits):
    # every kernel of a joint pass: the integer sum lies within the stated
    # rounding term 2^(1-F) sum_j j|G_j| + 2^(1-S)(J+1), plus its final
    # rounding, of the exact sum, with F = working precision + guard bits and
    # S sized from the largest node
    nodes = _spy_nodes(monkeypatch)
    with mpmath.workdps(digits + 18):
        series = _joint_series(CRITICAL_POINTS, 10, digits)
        kernels = list(dict.fromkeys(ker for sr in series for ker in (sr.ker_s, sr.ker_r)))
        assert len(kernels) == 6
        prec = mpmath.mp.prec
        frac = prec + GUARD_BITS
        term = {}
        for ker in kernels:
            table = nodes[ker]
            top = max(mpmath.mag(c) for g in table for c in (g.real, g.imag) if c)
            assert ker.frac == frac and ker.scale == frac - top
            term[ker] = (
                mpmath.ldexp(mpmath.fsum(j * abs(g) for j, g in enumerate(table)), 1 - frac)
                + mpmath.ldexp(len(table), 1 - ker.scale))
            assert ker.round_err >= term[ker]
        steps = {}
        for ker in kernels:
            steps.setdefault(ker.h, []).append(ker)
        assert len(steps) == 2
        for n in (1, 2, 17, 154):
            lnn = mpmath.log(n)
            for group in steps.values():
                for ker, acc in zip(group, _step_sums(group, n)):
                    fixed = mpmath.mp.make_mpf(acc)
                    exact = _mpc_oracle(nodes[ker], ker.h, n)
                    ulp = mpmath.ldexp(abs(fixed), 1 - prec)
                    assert abs(fixed - exact) <= term[ker] + ulp
                    # the bound of J(z, n) carries the term, scaled like the sum
                    # (up to the rounding of that sum)
                    factor = ker.weight * mpmath.exp(ker.decay * lnn)
                    err = ker.finish(n, lnn, acc).err
                    extra = err - ker.base_err * mpmath.mpf(n) ** ker.n_pow
                    assert extra >= factor * term[ker] - mpmath.ldexp(err, 1 - prec)


@pytest.mark.parametrize("k", [10, 12])
def test_shift_rule_nodes_match_direct_gamma(monkeypatch, k):
    # lines 11 and 15 (the J(s) kernels of s = 5, 9) come from line 7, and
    # the line 18.5 of c0 = 9.5 from line 6.5; every node agrees with
    # gamma_infinity(z + w_j) / w_j, evaluated directly 60 bits finer (at the
    # working precision the direct value itself is off by up to ~50 ulps at
    # large t), to a few ulps
    assert [_contour(z, c0)[2:] for z, c0 in ((1, None), (5, None), (9, None), (9, 9.5))] == [
        (7, 0), (7, 2), (7, 4), (6.5, 6)]
    nodes = _spy_nodes(monkeypatch)
    with mpmath.workdps(38):
        for z, c0 in ((5, None), (9, None), (9, 9.5)):
            ker = _Kernel(z, k, 20, c0=c0)
            for j, g in enumerate(nodes[ker]):
                w = mpmath.mpc(ker.c0, j * ker.h)
                tol = mpmath.ldexp(1, 4 - mpmath.mp.prec)
                with mpmath.extraprec(60):
                    direct = gamma_infinity(ker.z + w, k) / w
                    assert abs(g - direct) <= tol * abs(direct)


@pytest.mark.parametrize("k, digits, c0", [
    (10, 12, None), (10, 30, None), (10, 50, None),
    (12, 12, None), (12, 30, None), (12, 50, None),
    (10, 20, 9.5),
])
def test_kernel_nodes_match_gamma_oracle(monkeypatch, k, digits, c0):
    # every kernel of a joint pass (lines 6, 7, 11, 15; line 6 from line 7's
    # Gamma pairs by the duplication formula), or the kernel on line 18.5
    # from base line 6.5: every 5th node lies within 4 units of
    # 2^-prec max_j |G_j| of gamma_infinity(z + w_j) / w_j evaluated 60 bits
    # finer at the same rounded w_j = c0 + i j h
    nodes = _spy_nodes(monkeypatch)
    with mpmath.workdps(digits + 18):
        if c0 is None:
            _joint_series(CRITICAL_POINTS, k, digits)
            assert len(nodes) == 6
        else:
            _Kernel(9, k, digits, c0=c0)
        for ker, table in nodes.items():
            tol = mpmath.ldexp(max(abs(g) for g in table), 2 - mpmath.mp.prec)
            for j in range(0, len(table), 5):
                w = mpmath.mpc(ker.c0, j * ker.h)
                with mpmath.extraprec(60):
                    want = gamma_infinity(ker.z + w, k) / w
                    assert abs(table[j] - want) <= tol


@pytest.mark.parametrize("k, digits, counts", [
    (10, 50, [350, 344, 370, 292, 390, 293]),
    (12, 20, [115, 113, 123, 96, 131, 97]),
    (10, 100, [1024, 1012, 1070, 858, 1112, 859]),
])
def test_kernel_node_counts(monkeypatch, k, digits, counts):
    # J + 1 nodes of the kernels z = 1, 0, 5, -4, 9, -8: the truncation point
    # sets base_err, so a moved count moves every error bound
    calls, logs = [], []
    gamma = mpmath.gamma
    monkeypatch.setattr(mpmath, "gamma", lambda z: calls.append(z) or gamma(z))
    point = _NodeSource._logs
    monkeypatch.setattr(_NodeSource, "_logs", lambda src, t: logs.append(t) or point(src, t))
    # the complex functions of mpmath's raw layer, as lvalue and the mpc
    # type's operators (product, quotient, abs) call them
    complex_calls = Counter()
    for module in (lvalue, mpmath.ctx_mp_python):
        for name in dir(module):
            if name.startswith("mpc_"):
                monkeypatch.setattr(module, name, lambda *a, _f=getattr(module, name), _n=name:
                                    complex_calls.update([_n]) or _f(*a))
    with mpmath.workdps(digits + 18):
        series = _joint_series(CRITICAL_POINTS, k, digits)
    kernels = {int(ker.z): ker for sr in series for ker in (sr.ker_s, sr.ker_r)}
    assert [len(kernels[z].re) + 1 for z in (1, 0, 5, -4, 9, -8)] == counts
    # one Stirling evaluation per grid point, and no complex Gamma from
    # mpmath (the real ones are gamma_infinity(s) of the three points): line
    # 7's points at strip 5.5 serve lines 6, 7, 11 and 15, and at strip 6.5
    # both kernels on line 6
    points = max(counts[0], counts[1], counts[2], counts[4]) + max(counts[3], counts[5])
    assert len(logs) == points
    assert not any(isinstance(z, mpmath.mpc) for z in calls)
    # one complex log per point and one complex exp per row (line 7 rows for
    # lines 7, 11, 15, line 6 rows for J(0), and at strip 6.5 line 6 rows);
    # the rest of each node runs in integers
    rows = max(counts[0], counts[2], counts[4]) + counts[1] + max(counts[3], counts[5])
    assert complex_calls == Counter(mpc_log=points, mpc_exp=rows)


def test_kernel_nodes_at_the_largest_weight(monkeypatch):
    # k = MAX_GAMMA_K at 12 digits, where the largest nodes lie near 2^3630
    # to 2^3690, far past a double's range: the node counts hold, and every
    # 10th node lies within 4 units of 2^-prec max_j |G_j| of
    # gamma_infinity(z + w_j) / w_j evaluated 60 bits finer
    nodes = _spy_nodes(monkeypatch)
    with mpmath.workdps(12 + 18):
        series = _joint_series(CRITICAL_POINTS, MAX_GAMMA_K, 12)
        kernels = {int(ker.z): ker for sr in series for ker in (sr.ker_s, sr.ker_r)}
        assert [len(kernels[z].re) + 1 for z in (1, 0, 5, -4, 9, -8)] == [
            126, 124, 135, 106, 142, 107]
        for ker, table in nodes.items():
            tol = mpmath.ldexp(max(abs(g) for g in table), 2 - mpmath.mp.prec)
            for j in range(0, len(table), 10):
                w = mpmath.mpc(ker.c0, j * ker.h)
                with mpmath.extraprec(60):
                    want = gamma_infinity(ker.z + w, MAX_GAMMA_K) / w
                    assert abs(table[j] - want) <= tol


@pytest.mark.parametrize("digits", [12, 20, 50])
def test_joint_pass_matches_one_point(digits):
    # the joint pass shares rotation powers between kernels of one step; a
    # wrong grouping changes bits that the one-point pass, whose two kernels
    # have different steps, keeps (both read the same memoized kernels, which
    # test_memoized_kernels_match_kernels_built_alone checks)
    joint = period_report(10, EIGEN, digits)["lvalues"]
    for s, lv in zip((1, 5, 9), joint):
        alone = sym2_lvalue(EIGEN, s, digits)
        assert lv.value == alone.value
        assert lv.err == alone.err
    reordered = sym2_lvalues(EIGEN, (9, 1), digits)
    assert [lv.value for lv in reordered] == [joint[2].value, joint[0].value]


KERNEL_FIELDS = ("head", "re", "im", "scale", "frac", "base_err", "round_err", "h")


@pytest.mark.parametrize("k, digits", [(10, 12), (10, 30), (10, 50), (12, 20)])
def test_memoized_kernels_match_kernels_built_alone(k, digits):
    # the memo's kernels, built source by source, equal field by field a
    # kernel built on its own source with the memo cleared
    with mpmath.workdps(digits + 18):
        memo = _kernels(k, digits, mpmath.mp.prec)
        assert sorted(memo) == [-8, -4, 0, 1, 5, 9]
        assert all(type(memo[z].re) is tuple and type(memo[z].im) is tuple for z in memo)
        _kernels.cache_clear()
        for z, ker in memo.items():
            alone = _Kernel(z, k, digits)
            for field in KERNEL_FIELDS:
                assert getattr(ker, field) == getattr(alone, field), (z, field)
    assert _kernels.cache_info().currsize == 0


def test_kernel_memo_is_keyed_on_the_working_precision():
    # the same (k, digits) one bit finer is a miss, with kernels of that precision
    with mpmath.workdps(38):
        first = _joint_series((9,), 10, 20)[0].ker_s
        assert _joint_series((9,), 10, 20)[0].ker_s is first
        with mpmath.workprec(mpmath.mp.prec + 1):
            other = _joint_series((9,), 10, 20)[0].ker_s
    info = _kernels.cache_info()
    assert (info.hits, info.misses) == (1, 2)
    assert other is not first and other.frac != first.frac


def test_lvalues_bit_identical_on_memo_hit_and_miss():
    miss = sym2_lvalues(EIGEN, (1, 5, 9), 20)
    assert _kernels.cache_info().misses == 1
    hit = sym2_lvalues(EIGEN, (1, 5, 9), 20)
    alone = sym2_lvalue(EIGEN, 9, 20)
    assert _kernels.cache_info().hits == 2
    for a, b in zip(miss, hit):
        assert (a.value, a.err) == (b.value, b.err)
    assert (alone.value, alone.err) == (miss[2].value, miss[2].err)


@pytest.mark.parametrize("digits", [12, 30, 50])
def test_kernels_agree_with_finer_grids(digits):
    # two routes for every kernel of a build: J(z, n) agrees, within the sum
    # of the two bounds, with the same kernel on a grid of half its step, and
    # J(-4), J(-8) (strip 6.5) also with the grid of the strip 5.5 of J(s)
    # and J(0)
    assert [_contour(z)[1] for z in (1, 0, 5, 9, -4, -8)] == [5.5] * 4 + [6.5] * 2
    with mpmath.workdps(digits + 18):
        kernels = _kernels(10, digits, mpmath.mp.prec)
        line = mpmath.mpf(7)
        routes = []
        for z, ker in kernels.items():
            half = _NodeSource(line, _contour(z)[1] / 2, 10, digits)
            assert ker.h == 2 * half.h
            routes.append((ker, _Kernel(z, 10, digits, source=half)))
        narrow = _NodeSource(line, 5.5, 10, digits)
        routes += [(kernels[z], _Kernel(z, 10, digits, source=narrow)) for z in (-4, -8)]
        for n in (1, 2, 17, 154):
            lnn = mpmath.log(n)
            for ker, other in routes:
                a, b = (k.finish(n, lnn, _step_sums([k], n)[0]) for k in (ker, other))
                assert abs(a.value - b.value) <= a.err + b.err, (ker.z, other.h, n)


@pytest.mark.parametrize("k, x0", [(10, 7), (12, 7.5)])
def test_stirling_rows_match_gamma_at_max_digits(k, x0):
    # both lines of a node source at MAX_DIGITS, out past the last node of
    # every kernel (there |arg Z| is near pi/2, where the sec factor of
    # Stirling's remainder bound is largest): every 20th row lies within 4
    # units of 2^-wp of gamma_infinity evaluated 60 bits finer
    with mpmath.workdps(MAX_DIGITS + 18):
        src = _NodeSource(mpmath.mpf(x0), 5.5, k, MAX_DIGITS)
        for x in (src.x0, src.x0 - 1):
            src.node(1200, x, 0, mpmath.mpf(1))
            for t, (g, *_) in src.rows[x][::20]:
                with mpmath.extraprec(60):
                    want = gamma_infinity(mpmath.mpc(x, mpmath.ldexp(t, -src.frac)), k)
                    assert abs(_exact_mpc(g) - want) <= mpmath.ldexp(abs(want), 2 - src.wp)


def _gauss(g):
    """The Gaussian mantissa (re, im, e) as an exact pair of Fractions."""
    re, im, e = g
    return Fraction(re) * Fraction(2) ** e, Fraction(im) * Fraction(2) ** e


def _gauss_mul(p, q):
    return p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0]


def _within(got, want, units, frac):
    """|got - want| <= units sqrt(2) 2^(1 - frac) |want|: each truncation to
    frac bits leaves both parts less than one unit of the last bit, sqrt(2)
    2^(1 - frac) relative, and the relative errors of a chain add."""
    d2 = (got[0] - want[0]) ** 2 + (got[1] - want[1]) ** 2
    return d2 <= 2 * (units * Fraction(2) ** (1 - frac)) ** 2 * (want[0] ** 2 + want[1] ** 2)


@pytest.mark.parametrize("frac", [64, 200])
def test_gaussian_mantissa_helpers_match_exact_arithmetic(frac):
    # _rising, _gmul and _gdiv against exact Fraction arithmetic: within one
    # unit of the frac-th bit, in each part, per truncated operation
    rng = random.Random(frac)

    def part(bits):
        return rng.randrange(-(1 << bits), 1 << bits)

    for trial in range(60):
        zero_im = trial % 3 == 0
        acc = (part(frac), 0 if zero_im else part(frac), rng.randrange(-80, 80))
        x, y = part(frac + 6), 0 if zero_im else part(frac + 6)
        for n in (0, 1, 50):
            offsets = [rng.randrange(-40, 40) for _ in range(n)]
            got = _rising(acc, x, y, offsets, frac)
            want = _gauss(acc)
            for c in offsets:
                want = _gauss_mul(want, (Fraction(x, 1 << frac) + c, Fraction(y, 1 << frac)))
            if n == 0:
                assert got == acc
            assert max(abs(got[0]), abs(got[1])).bit_length() <= frac
            assert _within(_gauss(got), want, n, frac)
            if zero_im:
                assert got[1] == 0
        p = (part(frac), part(frac), rng.randrange(-80, 80))
        q = (part(frac + 9), 0 if zero_im else part(frac - 9), rng.randrange(-80, 80))
        assert _within(_gauss(_gmul(p, q, frac)), _gauss_mul(_gauss(p), _gauss(q)), 1, frac)
        qr, qi = _gauss(q)
        n2 = qr * qr + qi * qi
        want = _gauss_mul(_gauss(p), (qr / n2, -qi / n2))
        assert _within(_gauss(_gdiv(p, q, frac)), want, 1, frac)


@pytest.mark.parametrize("k, digits", [(10, 20), (12, 50), (MAX_GAMMA_K, 12)])
def test_shift_products_match_exact_products(k, digits):
    # each shift step multiplies by (8 pi^3)^-1, held to 2^(1 - F) relative,
    # and by three factors x + c + it, with four truncations to F bits: the
    # values on the lines x + 2m, m = 1..6, lie within m 2^-(F - 4) of the
    # exact products of the row's value with the same constant and factors,
    # relative
    with mpmath.workdps(digits + 18):
        src = _NodeSource(mpmath.mpf(7), 5.5, k, digits)
    frac, w = src.frac, src.w
    inv_cube = _gauss(src.inv_cube)
    with mpmath.workprec(frac + 30):
        exact = 1 / (8 * mpmath.pi ** 3)
        assert abs(_exact_mpc(src.inv_cube) - exact) <= mpmath.ldexp(exact, 1 - frac)
    for x in (src.x0, src.x0 - 1):
        for j in range(0, 200, 9):
            src.node(j, x, 6, mpmath.mpf(6))
            t, vals = src.rows[x][j]
            assert len(vals) == 7
            want = _gauss(vals[0])
            for m in range(1, 7):
                want = _gauss_mul(want, inv_cube)
                for c in (2 * m - 1, 2 * m - 2 + w, 2 * m - 1 + w):
                    want = _gauss_mul(want, (int(x) + c, Fraction(t, 1 << frac)))
                got = _gauss(vals[m])
                d2 = (got[0] - want[0]) ** 2 + (got[1] - want[1]) ** 2
                assert d2 <= (m * Fraction(2) ** (4 - frac)) ** 2 * (want[0] ** 2 + want[1] ** 2)


def test_delta_e4_eigenvalues():
    # the weight-16 eigenvalues of Delta E_4: a(2) = 216, a(3) = -3348, and
    # the Hecke relation a(4) = a(2)^2 - 2^15 on the coefficients themselves
    assert (EIGEN16.a(2), EIGEN16.a(3), EIGEN16.a(5)) == (216, -3348, 52110)
    assert max(EIGEN16.table) == 251 and len(EIGEN16.table) == 54
    taus = tau_table(4)
    a4 = taus[3] + 240 * (taus[2] + 9 * taus[1] + 28 * taus[0])
    assert a4 == 216 ** 2 - 2 ** 15


@pytest.mark.parametrize("digits", [10, 20, 30, 50])
def test_error_bounds_enclose_finer_value_k12(digits):
    # k = 12 on Delta E_4: a run 25 digits finer lands inside both intervals
    coarse = sym2_lvalues(EIGEN16, (1, 5, 9), digits)
    fine = sym2_lvalues(EIGEN16, (1, 5, 9), digits + 25)
    with mpmath.workdps(80):
        for c, f in zip(coarse, fine):
            assert abs(c.value - f.value) <= c.err + f.err
            assert f.err < c.err


def test_two_method_agreement_s9_k12():
    smoothed = sym2_lvalue(EIGEN16, 9, 20)
    plain = sym2_dirichlet_sum(EIGEN16, 9, 256, 25)
    diff = abs(smoothed.value - plain.value)
    assert diff < mpmath.mpf(10) ** -15 * abs(plain.value)
    assert diff <= smoothed.err + plain.err


@pytest.mark.parametrize("digits", [10, 20, 30, 50])
def test_error_bounds_enclose_finer_value(digits):
    # a run 25 digits finer lands inside both intervals
    coarse = sym2_lvalues(EIGEN, (1, 5, 9), digits)
    fine = sym2_lvalues(EIGEN, (1, 5, 9), digits + 25)
    with mpmath.workdps(80):
        for c, f in zip(coarse, fine):
            assert abs(c.value - f.value) <= c.err + f.err
            assert f.err < c.err


# SHA-256 of the period and its three L-values at digits + 15 significant
# digits with their bounds to 6, the output of the benchmark's
# period_unrounded batch; the low digits move with any change to how the
# kernels round
UNROUNDED_SHA256 = {
    10: "295dc37909cd5e73d9b0c60e7b829c8512b694eb318aa1a1ff1ab90d78567e73",
    14: "060575182d0aba4127551bbc3d8d3d6894a21def7a7ba9c112aa3b210515c080",
    18: "2d79293ee606695a37d9ca71f4979f5c0602081e80f0954346b0b071fca9f98a",
    22: "e2924480434ffa3c098646551c1d8028eca28fd09bc001edcdb26c6ad25f7d71",
}


@pytest.mark.parametrize("digits", sorted(UNROUNDED_SHA256))
def test_unrounded_period_digest(digits):
    rep = period_report(10, eigen_delta(80 * digits), digits)
    text = " ".join(f"{mpmath.nstr(bf.value, digits + 15)} {mpmath.nstr(bf.err, 6)}"
                    for bf in (rep["value"], *rep["lvalues"]))
    assert hashlib.sha256(text.encode()).hexdigest() == UNROUNDED_SHA256[digits]


def test_lvalue_preconditions():
    with pytest.raises(ValueError):
        sym2_lvalue(EIGEN, 3, 20)
    with pytest.raises(ValueError):
        sym2_lvalue(EIGEN, 9, 101)
    with pytest.raises(ValueError):
        sym2_lvalues(EIGEN, (1, 3), 20)
    with pytest.raises(ValueError):
        period_report(11, EIGEN, 10)
    small = eigen_delta(20)
    with pytest.raises(KeyError, match="prime 23"):
        sym2_lvalue(small, 9, 20)


def test_period_value_and_determinism():
    rep = period_report(10, EIGEN, 20)
    value = rep["value"]
    assert value.value > 0
    assert rep["pi_power"] == -63
    assert rep["gamma_k"] == gamma_k(10)
    assert len(rep["lvalues"]) == 3
    frozen = mpmath.mpf("1.4464530543341911305e-31")
    assert abs(value.value - frozen) < mpmath.mpf(10) ** -45
    again = period_report(10, EIGEN, 20)["value"]
    assert again.value == value.value
    assert again.err == value.err


def test_petersson_norm_anchor():
    # the classical symmetric-square expression of the weight-12 Petersson
    # norm: Gamma(12) / (2^23 pi^13) * L(1) -- an external numeric anchor
    with mpmath.workdps(40):
        l1 = sym2_lvalue(EIGEN, 1, 25)
        norm = mpmath.gamma(12) / (2 ** 23 * mpmath.pi ** 13) * l1.value
        anchor = mpmath.mpf(PETERSSON_DELTA)
        assert abs(norm / anchor - 1) < mpmath.mpf(10) ** -18


def test_probe_stabilizes():
    probe = rationality_probe(EIGEN, 10, (20, 30))
    assert probe["r5"] == RHO5
    assert probe["r9"] == RHO9


def test_probe_negative_control():
    # nudging L(1) by 1e-6 must break the two-precision agreement gate
    cands = []
    for d in (20, 30):
        with mpmath.workdps(d + 20):
            l1 = sym2_lvalue(EIGEN, 1, d)
            l5 = sym2_lvalue(EIGEN, 5, d)
            bad = BigFloat(l1.value + mpmath.mpf(10) ** -6, l1.err)
            pw = mpmath.pi ** 8
            den = bad * BigFloat(pw, pw * mpmath.mpf(2) ** (-mpmath.mp.prec + 4))
            cands.append(reconstruct_ratio(l5 / den, d))
    q20, q30 = cands
    assert not (q20 is not None and q20 == q30)
    # the unperturbed value still reconstructs
    with mpmath.workdps(50):
        true = mpmath.mpf(RHO5.numerator) / RHO5.denominator
        q = reconstruct_ratio(BigFloat(true, mpmath.mpf(10) ** -24), 20)
    assert q == RHO5
