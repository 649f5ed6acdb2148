"""Lift coefficients: eigen data, power sums, Fourier values, L-factors."""

import hashlib
import math
import random
import time
from fractions import Fraction

import pytest

from heptalift.jordan import JordanElement, apply_word
from heptalift.lift import (
    EigenData,
    eigen_delta,
    eigen_from_csv,
    eigen_from_rows,
    fourier_coeff,
    local_factor,
    satake_power_sums,
    sym2_coeffs,
    tau_table,
)
from heptalift.lift import _trunc_sqr
from heptalift.padic import is_prime

from test_padic import unit_word

TAU_FIRST_TEN = (1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643, -115920)


def sigma(n, e):
    return sum(d ** e for d in range(1, n + 1) if n % d == 0)


def test_tau_first_values():
    assert tau_table(10) == TAU_FIRST_TEN
    assert tau_table(1)[0] == 1


def test_tau_multiplicative_and_congruent():
    taus = tau_table(400)
    rng = random.Random(7)
    for _ in range(40):
        m = rng.randrange(2, 20)
        n = rng.randrange(2, 20)
        if any(m % p == 0 and n % p == 0 for p in (2, 3, 5, 7, 11, 13, 17, 19)):
            continue
        assert taus[m * n - 1] == taus[m - 1] * taus[n - 1]
    for n in range(1, 200):
        assert (taus[n - 1] - sigma(n, 11)) % 691 == 0


def test_tau_rejects():
    with pytest.raises(ValueError):
        tau_table(0)


def test_eigen_delta_and_bound():
    e = eigen_delta(50)
    assert e.k == 10
    assert e.a(2) == -24 and e.a(3) == 252 and e.a(47) == 2687348496
    for p, a in e.table.items():
        assert a * a <= 4 * p ** 11
    with pytest.raises(KeyError):
        e.a(53)
    bad = dict(e.table)
    bad[2] = 91
    with pytest.raises(ValueError):
        EigenData(10, bad)
    with pytest.raises(ValueError):
        EigenData(9, {})


def test_eigen_delta_table_is_pinned():
    # sha256 of repr(sorted(items)) for the 303 primes up to 2000, recorded
    # when the primes were still found by trial division
    t = eigen_delta(2000).table
    assert len(t) == 303 and max(t) == 1999
    assert t[1999] == -1159913672832202000
    digest = hashlib.sha256(repr(sorted(t.items())).encode()).hexdigest()
    assert digest == "c3f6521ade11e06471e9172ebe750508d5603a099c1961281d1f718b58524c57"


def test_eigen_delta_primes_are_the_is_prime_filter():
    assert list(eigen_delta(29000).table) == [p for p in range(29001) if is_prime(p)]


def test_tau_table_is_pinned():
    # sha256 of repr(tau_table(10 ** 4)), recorded from the three-product
    # packed squaring that the single signed squaring replaced
    digest = hashlib.sha256(repr(tau_table(10 ** 4)).encode()).hexdigest()
    assert digest == "fb297e4fc060f4ae64b6ec80eb5f94a6f25d7f485d8a844448c79cfc76942580"


def test_eigen_csv_roundtrip(tmp_path):
    path = tmp_path / "eigen.csv"
    path.write_text("p,a_p\n2,-24\n3,252\n5,4830\n")
    e = eigen_from_csv(str(path), 10)
    assert e.table == {2: -24, 3: 252, 5: 4830}
    bad = tmp_path / "bad.csv"
    bad.write_text("prime,value\n2,-24\n")
    with pytest.raises(ValueError):
        eigen_from_csv(str(bad), 10)


def test_eigen_rows_refuse_a_repeated_prime(tmp_path):
    # a later row must not silently replace an earlier one
    with pytest.raises(ValueError, match="prime 2 is listed twice"):
        eigen_from_rows(10, [(2, -24), (3, 252), (2, 0)])
    dup = tmp_path / "dup.csv"
    dup.write_text("p,a_p\n2,-24\n02,0\n")
    with pytest.raises(ValueError, match="prime 2 is listed twice"):
        eigen_from_csv(str(dup), 10)


def test_eigen_rows_refuse_a_p_that_is_not_prime():
    # a composite p would be stored and never read, hiding a mistyped prime
    for p in (4, 9, 1, 0, -3):
        with pytest.raises(ValueError, match="p = %d is not a prime" % p):
            eigen_from_rows(10, [(2, -24), (p, 1)])


def test_satake_power_sums():
    ts = satake_power_sums(-24, 2, 10, 4)
    assert ts[0] == 2 and ts[1] == -24
    assert ts[2] == (-24) ** 2 - 2 * 2 ** 11
    taus = tau_table(100)
    for p in (2, 3, 5):
        full = satake_power_sums(taus[p - 1], p, 10, 8)
        q = p ** 11
        for j in range(1, 5):
            assert full[j] ** 2 == full[2 * j] + 2 * q ** j
    with pytest.raises(ValueError):
        satake_power_sums(1, 2, 10, -1)


def test_fourier_identity_and_rank_one_tower():
    e = eigen_delta(50)
    taus = tau_table(30)
    assert fourier_coeff(JordanElement.diag(1, 1, 1), e) == 1
    for n in range(1, 25):
        a = fourier_coeff(JordanElement.diag(1, 1, n), e)
        assert isinstance(a, int)
        assert a == taus[n - 1]


def test_fourier_hecke_recurrence():
    e = eigen_delta(10)
    for p in (2, 3):
        tower = [fourier_coeff(JordanElement.diag(1, 1, p ** m), e) for m in range(6)]
        for m in range(1, 5):
            assert tower[m + 1] == e.a(p) * tower[m] - p ** 11 * tower[m - 1]


def test_fourier_genus_invariance():
    e = eigen_delta(10)
    rng = random.Random(2027)
    for base in ((1, 1, 2), (1, 2, 3), (1, 1, 12), (2, 3, 4)):
        T = JordanElement.diag(*base)
        want = fourier_coeff(T, e)
        for _ in range(6):
            S = apply_word(T, unit_word(rng, 5))
            if S.is_positive():
                assert fourier_coeff(S, e) == want


def test_fourier_rejects_indefinite():
    e = eigen_delta(10)
    with pytest.raises(ValueError):
        fourier_coeff(JordanElement.diag(1, 1, -1), e)


def test_local_factor_multiprime_split():
    e = eigen_delta(10)
    taus = tau_table(40)
    assert local_factor(2, (0, 0, 1), e) == taus[1]
    assert local_factor(2, (0, 0, 2), e) == taus[3]
    assert local_factor(3, (0, 0, 1), e) == taus[2]
    assert fourier_coeff(JordanElement.diag(1, 1, 36), e) == local_factor(
        2, (0, 0, 2), e
    ) * local_factor(3, (0, 0, 2), e)


def test_sym2_factor():
    assert sym2_coeffs(-24, 2, 10) == [
        Fraction(1),
        Fraction(23, 32),
        Fraction(-23, 32),
        Fraction(-1),
    ]
    # s1 = 3 is the unitary collapse point: the factor becomes (1 - u)^3
    a, p, k = 2, 2, 10
    s1 = Fraction(a * a, p ** (2 * k - 9)) - 1
    collapse = [Fraction(1), -s1, s1, Fraction(-1)]
    assert sym2_coeffs(a, p, k) == collapse


def test_trunc_sqr_against_naive():
    rng = random.Random(23)
    cases = [[0], [0, 0, 0], [-1], [2 ** 64, -(2 ** 64) - 1, 3]]
    # order 0 with a negative entry, and one nonzero coefficient in the last place
    cases += [[-(2 ** 40)], [-5, 3], [0, 0, 0, -5], [0, 0, 7]]
    for _ in range(60):
        n = rng.randint(1, 40)
        cases.append([rng.randint(-10 ** 30, 10 ** 30) for _ in range(n)])
        cases.append([-rng.randint(1, 10 ** 30) for _ in range(n)])
    # +-(2^k - 1) fill the slots tightly: without the two spare bits of the
    # slot width the middle coefficient 3 * 7^2 = 147 already overflows
    for n in (3, 15, 40):
        for k in range(1, 12):
            v = 2 ** k - 1
            cases += [[v] * n, [-v] * n, [(-1) ** i * v for i in range(n)]]
    for c in cases:
        square = [0] * (2 * len(c) - 1)
        for i, x in enumerate(c):
            for j, y in enumerate(c):
                square[i + j] += x * y
        for order in {0, len(c) - 1, 2 * len(c) - 2, 2 * len(c) + 3, rng.randint(0, 2 * len(c))}:
            want = (square + [0] * (order + 1))[: order + 1]
            assert _trunc_sqr(c, order) == want


@pytest.mark.parametrize("k", [10, 11, 13, 20, 101, 1000])
def test_eigen_bound_matches_the_exact_comparison(k):
    # the bit-length shortcuts settle most entries; around isqrt(4 p^w) only
    # the exact power does, for int and Fraction eigenvalues alike
    w = 2 * k - 9
    for p in (2, 3, 5, 97, 1009, 2 ** 61 - 1):
        edge = math.isqrt(4 * p ** w)
        edge3 = math.isqrt(36 * p ** w)
        values = [0, 1, -1, edge // 2, 2 * edge, 2 ** (w * p.bit_length() + 8)]
        values += [s * (edge + e) for s in (1, -1) for e in (-1, 0, 1)]
        values += [Fraction(s * (edge3 + e), 3) for s in (1, -1) for e in (-1, 0, 1)]
        values += [Fraction(edge3 + 2, 9), Fraction(1, 2 ** (w * p.bit_length()))]
        for a in values:
            within = a * a <= 4 * p ** w
            try:
                EigenData(k, {p: a})
                assert within, (k, p, a)
            except ValueError:
                assert not within, (k, p, a)
        assert edge * edge <= 4 * p ** w < (edge + 1) ** 2


def test_eigen_bound_at_a_large_weight_needs_no_power():
    # a 303-prime tau table at k = 10^5 (the bound p^199991 has up to
    # 2.2 million bits per prime); every prime is settled by bit lengths
    table = eigen_delta(2000).table
    assert len(table) == 303
    t0 = time.perf_counter()
    assert EigenData(10 ** 5, table).table == table
    assert time.perf_counter() - t0 < 0.5
    bad = dict(table)
    bad[1999] = 1999 ** 100000
    with pytest.raises(ValueError, match="p=1999"):
        EigenData(10 ** 5, bad)
