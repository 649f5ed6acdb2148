"""Local density closed form: pinned values, scaling rules, Igusa check, mass."""

import random
from fractions import Fraction

import pytest

from heptalift import density
from heptalift.exactnum import frac_str
from heptalift.density import (
    MASS_CONSTANT,
    beta_exps,
    beta_p,
    constants,
    igusa_lhs_coeff,
    igusa_verify,
    mass,
)
from heptalift.jordan import JordanElement, apply_word


def frac_prod(p, ks):
    out = Fraction(1)
    for k in ks:
        out *= 1 - Fraction(1, p ** k)
    return out


def test_constants_values_and_invariants():
    for p in (2, 3, 5, 7):
        k = constants(p)
        assert k.c1 == frac_prod(p, (2, 6, 8, 12))
        assert k.c2 == frac_prod(p, (2, 4, 6, 8))
        assert k.c3 == frac_prod(p, (2, 4, 4, 6))
        assert k.delta == frac_prod(p, (2, 5, 6, 8, 9, 12))
        assert k.delta / k.c1 == frac_prod(p, (5, 9))
        # delta equals the F_p point-count density of the multiplier-1 group,
        # |M'(F_p)| = p^36 prod (p^e - 1) / (p - 1)
        order = p ** 36
        for e in (12, 9, 8, 6, 5, 2, 1):
            order *= p ** e - 1
        assert k.delta == Fraction(order // (p - 1), p ** 78)


def test_beta_pinned_values():
    for p in (2, 3, 5):
        k = constants(p)
        assert beta_exps(p, (0, 0, 0)) == k.c1
        assert beta_exps(p, (0, 0, 1)) == p * k.c2
        assert beta_exps(p, (0, 1, 2)) == p ** 11 * k.c3
        assert beta_exps(p, (0, 1, 1)) == p ** 10 * k.c2


def test_beta_scaling_rule():
    rng = random.Random(1)
    for _ in range(60):
        p = rng.choice([2, 3, 5])
        e = sorted(rng.randint(0, 4) for _ in range(3))
        bumped = tuple(a + 1 for a in e)
        assert beta_exps(p, bumped) == p ** 27 * beta_exps(p, e)


def test_beta_adjoint_rule():
    rng = random.Random(2)
    for _ in range(60):
        p = rng.choice([2, 3, 5])
        a1, a2, a3 = sorted(rng.randint(0, 4) for _ in range(3))
        adj = (a1 + a2, a1 + a3, a2 + a3)
        assert beta_exps(p, adj) == p ** (9 * (a1 + a2 + a3)) * beta_exps(p, (a1, a2, a3))


def test_beta_step_rule():
    for p in (2, 3, 5):
        for a2 in (1, 2, 3):
            for a3 in range(a2 + 1, a2 + 4):
                assert beta_exps(p, (0, a2, a3 + 1)) == p * beta_exps(p, (0, a2, a3))


def test_beta_rank3_orbit_interpretation():
    # delta_p (1 - 1/p) p^27 over the count of nonsingular elements mod p
    for p in (2, 3, 5, 7):
        k = constants(p)
        nonsingular = p ** 12 * (p - 1) * (p ** 5 - 1) * (p ** 9 - 1)
        assert k.delta * (1 - Fraction(1, p)) * p ** 27 / nonsingular == k.c1


def igusa_rhs_reference(p, m):
    """Oracle: the u^m coefficient of 1/(c1 (1-u/p)(1-u/p^5)(1-u/p^9)) as
    the plain double sum over i + j + k = m of p^-(i + 5j + 9k)."""
    out = Fraction(0)
    for i in range(m + 1):
        for j in range(m - i + 1):
            k = m - i - j
            out += Fraction(1, p ** (i + 5 * j + 9 * k))
    return out / constants(p).c1


def test_igusa_low_coefficients():
    for p in (2, 3, 5):
        k = constants(p)
        _, rows = igusa_verify(p, 1)
        assert igusa_lhs_coeff(p, 0) == 1 / k.c1 == rows[0]["rhs"]
        u1 = Fraction(1, p) + Fraction(1, p ** 5) + Fraction(1, p ** 9)
        assert rows[1]["rhs"] == u1 / k.c1
        assert igusa_lhs_coeff(p, 1) == 1 / (p * k.c2)
        assert rows[1]["lhs"] == igusa_lhs_coeff(p, 1) == rows[1]["rhs"]


@pytest.mark.parametrize("p, order", [(2, 40), (3, 40), (5, 40), (97, 40), (1000003, 20)])
def test_igusa_rhs_matches_double_sum(p, order):
    ok, rows = igusa_verify(p, order)
    assert ok and [r["m"] for r in rows] == list(range(order + 1))
    assert [r["rhs"] for r in rows] == [igusa_rhs_reference(p, m) for m in range(order + 1)]


def test_igusa_refuses_unprintable_rows_before_the_left_side(monkeypatch):
    # at (1000003, 94) a right-hand denominator has 5,027 digits
    def lhs_must_not_run(p, m):
        raise AssertionError("left-hand side computed")

    monkeypatch.setattr(density, "igusa_lhs_coeff", lhs_must_not_run)
    with pytest.raises(ValueError, match="4300 digits"):
        igusa_verify(1000003, 94)


def test_igusa_refuses_before_the_series_where_p_settles_it(monkeypatch):
    # at P = 1000003 the u^m denominator holds P^(9m - 28): P^719 has 4,314
    # digits, so order 83 is refused before the expansion; orders 81 and 82
    # pass that test and are refused once the series is built; 80 prints
    P = 1000003
    expanded = []
    expand = density.ratfun_expand
    monkeypatch.setattr(density, "ratfun_expand", lambda *a: expanded.append(a) or expand(*a))
    monkeypatch.setattr(density, "igusa_lhs_coeff", lambda p, m: Fraction(0))
    rows = igusa_verify(P, 80)[1]
    assert [frac_str(r["rhs"]) for r in rows] and len(expanded) == 1
    for order, built in ((81, 2), (82, 3), (83, 3), (94, 3)):
        with pytest.raises(ValueError, match=r"through u\^%d exceeds 4300 digits" % order):
            igusa_verify(P, order)
        assert len(expanded) == built
    # u^0 has numerator p^28, so a prime of 512 bits or more is refused at
    # every order without a series
    for p in (2 ** 521 - 1, 2 ** 1023 + 1155):
        for order in (0, 10, 94):
            with pytest.raises(ValueError, match=r"through u\^%d exceeds" % order):
                igusa_verify(p, order)
    assert len(expanded) == 3


@pytest.mark.parametrize("p", [2, 3, 97, 1000003])
def test_igusa_rhs_valuation_is_28_minus_9m(monkeypatch, p):
    # the proof in igusa_verify's docstring, on the integer series it expands
    # in v = u/p^9: each N_m is 1 mod p, so the u^m row N_m/(c1 p^(9m)) has
    # p-valuation exactly 28 - 9m (at P = 1000003 orders past 80 are refused)
    def vp(v):
        k = 0
        while v % p == 0:
            v, k = v // p, k + 1
        return k

    seen = []
    expand = density.ratfun_expand
    monkeypatch.setattr(density, "ratfun_expand", lambda *a: seen.append(expand(*a)) or seen[-1])
    monkeypatch.setattr(density, "igusa_lhs_coeff", lambda p, m: Fraction(0))
    order = 80 if p == 1000003 else 94
    rows = igusa_verify(p, order)[1]
    (series,) = seen
    for m, row in enumerate(rows):
        n_m = series.coeff(m)
        assert type(n_m) is int and n_m % p == 1, m
        assert row["rhs"] == Fraction(n_m, p ** (9 * m)) / constants(p).c1
        assert vp(row["rhs"].numerator) - vp(row["rhs"].denominator) == 28 - 9 * m, m
    assert len(rows) == order + 1


def test_igusa_verify_deep():
    ok, rows = igusa_verify(2, 12)
    assert ok and len(rows) == 13
    assert all(r["equal"] for r in rows)
    assert igusa_verify(3, 8)[0]
    assert igusa_verify(5, 6)[0]


def test_mass_identity_element():
    assert mass(JordanElement.diag(1, 1, 1)) == MASS_CONSTANT
    assert MASS_CONSTANT == Fraction(691, 2 ** 15 * 3 ** 6 * 5 ** 2 * 7 ** 2 * 13)


def test_mass_scale_invariance():
    for m in (2, 3):
        assert mass(JordanElement.diag(1, 1, 1).scale(m)) == MASS_CONSTANT
    T = JordanElement.diag(1, 1, 2)
    for m in (2, 3):
        assert mass(T.scale(m)) == mass(T)


def test_mass_pinned_example():
    k = constants(2)
    expect = MASS_CONSTANT * 2 ** 9 * k.c1 / (2 * k.c2)
    assert mass(JordanElement.diag(1, 1, 2)) == expect
    assert expect == MASS_CONSTANT * 273


def test_mass_invariant_under_unit_words():
    # mass only sees the genus, so multiplier +-1 scrambles cannot move it
    from test_padic import unit_word

    rng = random.Random(3)
    T = JordanElement.diag(1, 2, 4)
    base = mass(T)
    for _ in range(10):
        S = apply_word(T, unit_word(rng, 4))
        if S.is_positive():
            assert mass(S) == base


def test_mass_rejects_indefinite():
    with pytest.raises(ValueError):
        mass(JordanElement.diag(1, -1, 1))
