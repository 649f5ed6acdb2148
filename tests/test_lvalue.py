"""Symmetric-square L-values, the period, and the rationality probe.

The frozen decimals and rationals below come from direct high-precision
runs cross-checked at two precisions; the Petersson-norm anchor is the
classical weight-12 value known from the literature.
"""

from fractions import Fraction

import mpmath
import pytest

from heptalift.exactnum import BigFloat
from heptalift.genfun import gamma_k
from heptalift.lift import eigen_delta
from heptalift.lvalue import (
    _Kernel,
    gamma_infinity,
    period,
    period_report,
    rationality_probe,
    reconstruct_ratio,
    sym2_dirichlet_coeffs,
    sym2_dirichlet_sum,
    sym2_lvalue,
    sym2_lvalues,
    triple_divisor_count,
)

EIGEN = eigen_delta(12000)

RHO5 = Fraction(2, 12285)
RHO9 = Fraction(256, 14582602125)
PETERSSON_DELTA = "1.0353620568043209223e-6"


def test_triple_divisor_count():
    assert triple_divisor_count(1) == 1
    assert [triple_divisor_count(p) for p in (2, 3, 5)] == [3, 3, 3]
    for n in range(1, 61):
        brute = sum(
            1
            for d1 in range(1, n + 1)
            for d2 in range(1, n + 1)
            if n % d1 == 0 and (n // d1) % d2 == 0
        )
        assert triple_divisor_count(n) == brute
    with pytest.raises(ValueError):
        triple_divisor_count(0)


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
            a, b = base(n), moved(n)
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


@pytest.mark.parametrize("digits", [12, 20])
def test_joint_pass_matches_one_point(digits):
    # the joint pass shares rotation powers between kernels of one step and
    # gamma_infinity values between kernels of one argument; a wrong grouping
    # changes bits that the one-point pass, with nothing to share, keeps
    joint = period_report(10, EIGEN, digits)["lvalues"]
    for s, lv in zip((1, 5, 9), joint):
        alone = sym2_lvalue(EIGEN, s, digits)
        assert lv.value == alone.value
        assert lv.err == alone.err
    reordered = sym2_lvalues(EIGEN, (9, 1), digits)
    assert [lv.value for lv in reordered] == [joint[2].value, joint[0].value]


@pytest.mark.parametrize("digits", [10, 20])
def test_error_bounds_enclose_finer_value(digits):
    # a run 25 digits finer lands inside both intervals; 50 + 25 digits
    # would exceed the supported maximum
    coarse = sym2_lvalues(EIGEN, (1, 5, 9), digits)
    fine = sym2_lvalues(EIGEN, (1, 5, 9), digits + 25)
    with mpmath.workdps(80):
        for c, f in zip(coarse, fine):
            assert abs(c.value - f.value) <= c.err + f.err
            assert f.err < c.err


def test_lvalue_preconditions():
    with pytest.raises(ValueError):
        sym2_lvalue(EIGEN, 3, 20)
    with pytest.raises(ValueError):
        sym2_lvalue(EIGEN, 9, 60)
    with pytest.raises(ValueError):
        sym2_lvalues(EIGEN, (1, 3), 20)
    with pytest.raises(ValueError):
        period(11, EIGEN, 10)
    small = eigen_delta(20)
    with pytest.raises(ValueError, match="need more eigenvalues"):
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
    again = period(10, EIGEN, 20)
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
