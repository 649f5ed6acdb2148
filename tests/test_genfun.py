"""Generating-function layer: lambda sums, P(A,B,C,t), H_p routes, residues."""

import json
import math
from fractions import Fraction
from functools import reduce
from operator import mul

import pytest

from heptalift import cli, genfun, siegel
from heptalift.density import MASS_CONSTANT, beta_exps, constants, exponent_triples
from heptalift.exactnum import LaurentPoly, SpecialValue, ratfun_expand, zeta_special
from heptalift.genfun import (
    H_verify,
    gamma_RS,
    gamma_k,
    gamma_k_derived,
    hp_closed_form,
    hp_table_route,
    lambda_p,
    mass_archimedean_constant,
    rs_closed_residue,
    rs_euler_factors,
)
from heptalift.siegel import f_poly, f_poly_oracle, tilde_f


def sym_ABC():
    """A, B, C as independent symbols via nested Laurent polynomials."""
    A = LaurentPoly("C", {0: LaurentPoly("B", {0: LaurentPoly("A", {1: 1})})})
    B = LaurentPoly("C", {0: LaurentPoly("B", {1: 1})})
    C = LaurentPoly("C", {1: 1})
    return A, B, C


def test_exponent_triples():
    assert list(exponent_triples(0)) == [(0, 0, 0)]
    assert list(exponent_triples(1)) == [(0, 0, 1)]
    assert list(exponent_triples(2)) == [(0, 0, 2), (0, 1, 1)]
    assert list(exponent_triples(3)) == [(0, 0, 3), (0, 1, 2), (1, 1, 1)]
    for m in range(12):
        for a1, a2, a3 in exponent_triples(m):
            assert 0 <= a1 <= a2 <= a3 and a1 + a2 + a3 == m
    with pytest.raises(ValueError):
        list(exponent_triples(-1))


def test_lambda_low_orders():
    for p in (2, 3, 5):
        cs = constants(p)
        assert lambda_p(p, 0) == Fraction(1) / cs.c1
        sq = LaurentPoly("X", {1: 1, -1: 1}) ** 2
        assert lambda_p(p, 1) == sq.map_coeffs(lambda v: Fraction(v, p) / cs.c2)
        expect2 = LaurentPoly.zero("X")
        for exps in ((0, 0, 2), (0, 1, 1)):
            tf = tilde_f(f_poly(p, exps[0], exps[1] - exps[0], exps[2] - exps[0]))
            w = Fraction(1) / beta_exps(p, exps)
            expect2 = expect2 + (tf * tf).map_coeffs(lambda v, w=w: v * w)
        assert lambda_p(p, 2) == expect2


def P_closed(p, A, B, C, order):
    """P(A,B,C,t) through t^order, for monomials A, B, C in X given as
    (coefficient, exponent) pairs, from the integer series in u = t/p^9 that
    hp_table_route sums, rescaled coefficientwise."""
    ser = genfun._P_in_u(p, A, B, C, order)
    c1 = constants(p).c1
    return LaurentPoly("t", {m: LaurentPoly("X", v) * (Fraction(1, p ** (9 * m)) / c1) for m, v in enumerate(ser)})


def P_closed_symbolic(p, order):
    """P_closed with A, B, C encoded as X, X^D and X^(D^2), D = 3 order + 1,
    and each X-exponent decoded back to A^a B^b C^c in sym_ABC's symbols.
    Through u^order, a <= order/3 and b <= order/2 stay below D, so the
    base-D digits of an exponent are (a, b, c) with no carry."""
    D = 3 * order + 1
    A, B, C = sym_ABC()
    out = {}
    for m, v in P_closed(p, (1, 1), (1, D), (1, D * D), order).c.items():
        acc = LaurentPoly.zero("C")
        for e, w in v.c.items():
            c, rest = divmod(e, D * D)
            b, a = divmod(rest, D)
            acc = acc + w * A ** a * B ** b * C ** c
        out[m] = acc
    return LaurentPoly("t", out)


def P_direct(p, A, B, C, order):
    """P(A,B,C,t) through t^order as its defining sum over the triples
    (m1, m1+m2, m1+m3) of t^{3m1+m2+m3} A^m1 B^m2 C^m3 / beta_p."""
    out = {}
    for w in range(order + 1):
        acc = 0
        for m1 in range(w // 3 + 1):
            r = w - 3 * m1
            for m2 in range(r // 2 + 1):
                m3 = r - m2
                coeff = Fraction(1) / beta_exps(p, (m1, m1 + m2, m1 + m3))
                acc = acc + coeff * A ** m1 * B ** m2 * C ** m3
        out[w] = acc
    return LaurentPoly("t", out)


def test_P_closed_vs_direct_symbolic():
    A, B, C = sym_ABC()
    for p in (2, 3):
        closed = P_closed_symbolic(p, 6)
        direct = P_direct(p, A, B, C, 6)
        assert closed == direct
        assert direct.coeff(0) == Fraction(1) / beta_exps(p, (0, 0, 0))
        assert direct.coeff(1) == C.map_coeffs(
            lambda v: v * Fraction(1) / beta_exps(p, (0, 0, 1))
        )


def test_P_scalar_specialization():
    for p in (2, 3, 5):
        for a, b, c in [(1, 1, 1), (2, -3, 5)]:
            closed = P_closed(p, (a, 0), (b, 0), (c, 0), 5)
            want = P_direct(p, a, b, c, 5)
            assert {m: v.coeff(0) for m, v in closed.c.items()} == want.c


def test_hp_closed_low_coefficients():
    for p in (2, 3, 5):
        cs = constants(p)
        ser = hp_closed_form(p).expand(1)
        assert ser.coeff(0) == Fraction(1) / cs.c1
        sq = LaurentPoly("X", {1: 1, -1: 1}) ** 2
        w = Fraction(1, p) + Fraction(1, p ** 5) + Fraction(1, p ** 9)
        assert ser.coeff(1) == sq.map_coeffs(lambda v: v * w / cs.c1)
        assert ser.coeff(1) == lambda_p(p, 1)


def t_factor(c, n=1, x=0):
    """1 - c X^x t^n over Q."""
    return LaurentPoly("t", {0: 1, n: -c if x == 0 else LaurentPoly.monomial(-c, x, "X")})


def rational_closed_form(p, order):
    """Oracle: the product form of hp_closed_form's docstring, written in t
    with Fraction coefficients and expanded over Q,
    c1^{-1} (1-p^{-14}t^2)(1+p^{-5}t)(1+p^{-9}t) / (1-p^{-1}t)
    / prod_{i=1..3} (1-p^{3-4i}t)(1-p^{3-4i}X^{-2}t)(1-p^{3-4i}X^2 t)."""
    q = lambda e: Fraction(1, p ** e)
    num = [t_factor(q(14), 2), t_factor(-q(5)), t_factor(-q(9))]
    den = [t_factor(q(1))] + [t_factor(q(4 * i - 3), 1, x) for i in (1, 2, 3) for x in (0, -2, 2)]
    return ratfun_expand(reduce(mul, num, LaurentPoly.const(1 / constants(p).c1, "t")), den, order)


def rational_lambda(p, m, beta=beta_exps):
    """Oracle: lambda_p as the plain Fraction sum of tilde_f^2 / beta_p."""
    total = LaurentPoly.zero("X")
    for a1, a2, a3 in exponent_triples(m):
        tf = tilde_f(f_poly(p, a1, a2 - a1, a3 - a1))
        w = Fraction(1) / beta(p, (a1, a2, a3))
        total = total + (tf * tf).map_coeffs(lambda v, w=w: v * w)
    return total


@pytest.mark.parametrize("p", [2, 3, 5, 97])
def test_closed_form_matches_rational_expansion(p):
    for order in range(9):
        got, want = hp_closed_form(p).expand(order), rational_closed_form(p, order)
        assert got == want
        assert repr(got) == repr(want)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_lambda_matches_rational_sum(p):
    for m in range(9):
        got, want = lambda_p(p, m), rational_lambda(p, m)
        assert got == want
        assert repr(got) == repr(want)


def _beta_off_at_112(p, exps):
    """beta_p with the triple (1, 1, 2) at p = 3 off by a factor p."""
    b = beta_exps(p, exps)
    return b * p if (p, tuple(exps)) == (3, (1, 1, 2)) else b


def test_one_wrong_beta_fails_the_closed_form_route(monkeypatch, capsys):
    monkeypatch.setattr(genfun, "beta_exps", _beta_off_at_112)
    ok, report = H_verify(3, 6)
    assert not ok
    lam_bad = rational_lambda(3, 4, _beta_off_at_112)
    assert lam_bad != rational_lambda(3, 4)
    want = {
        "t_power": 4,
        "route": "closed_form",
        "lambda_sum": repr(lam_bad),
        "closed_form": repr(rational_closed_form(3, 4).coeff(4)),
    }
    assert report == want
    code = cli.dispatch(["hp-verify", "--prime", "3", "--tmax", "6"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1 and not payload["ok"]
    assert payload["first_discrepancy"] == want
    # the public Laurent form of Fractions, not the integers summed over Z
    for key in ("lambda_sum", "closed_form"):
        assert "/" in payload["first_discrepancy"][key]


def f_from_table(p, m1, m2, m3):
    """Oracle: f as the plain sum of siegel's eight closed-form terms
    N cof x^m1 y^m2 z^m3, each monomial raised to its power on its own,
    divided exactly by the common denominator."""
    if m1 < 0 or m2 < 0 or m3 < m2:
        raise ValueError("need m1 >= 0 and 0 <= m2 <= m3")
    terms, full = siegel._closed_form_terms(p)
    mono = lambda ce: LaurentPoly.monomial(ce[0], ce[1], "X")
    acc = LaurentPoly.zero("X")
    for cof, n, x, y, z in terms:
        acc = acc + mono(n) * cof * mono(x) ** m1 * mono(y) ** m2 * mono(z) ** m3
    return acc.divide_exact(full)


def test_table_reproduces_tilde():
    # criterion 6's profile grid (weight at most 9) plus weight 10, which
    # holds (2, 1, 3): every (m1, m2, m3) with 3 m1 + m2 + m3 <= 10; the
    # table's f matches both routes, and so does its image under siegel's map
    for p in (2, 3, 5):
        for m1 in range(4):
            for m2 in range(11):
                for m3 in range(m2, 11 - 3 * m1 - m2):
                    want = f_poly_oracle(p, m1, m2, m3)
                    got = f_from_table(p, m1, m2, m3)
                    assert got == f_poly(p, m1, m2, m3).poly == want.poly
                    assert siegel._tilde(got, want.weight) == tilde_f(want)
    with pytest.raises(ValueError):
        f_from_table(2, 0, 2, 1)


def test_hp_identity_deep_p2():
    ok, report = H_verify(2, 10)
    assert ok, report


def test_three_routes_agree():
    for p in (2, 3, 5):
        ok, report = H_verify(p, 8, table_route=True)
        assert ok, report


def test_table_route_runs_in_z():
    # the weights W_i = N_i cof_i and the common denominator full are int
    # polynomials, and full is primitive, so Gauss's lemma applies to full^2
    for p in (2, 3, 5, 7):
        terms, full = siegel._closed_form_terms(p)
        weights = [LaurentPoly.monomial(c, e, "X") * cof for cof, (c, e), *_ in terms]
        for poly in weights + [full]:
            assert all(type(v) is int for v in poly.c.values())
        assert math.gcd(*full.c.values()) == 1
    for p in (7, 11):
        ok, report = H_verify(p, 10, table_route=True)
        assert ok, report


def _int_coeffs(poly):
    return all(type(w) is int for v in poly.c.values()
               for w in (v.c.values() if isinstance(v, LaurentPoly) else (v,)))


def test_rational_routes_run_in_z(monkeypatch):
    seen = []

    def spy(*args):
        seen.append(ratfun_expand(*args))
        return seen[-1]

    monkeypatch.setattr(genfun, "ratfun_expand", spy)
    for p in (2, 3, 5, 97):
        seen.clear()
        hp_closed_form(p).expand(8)
        (ser,) = seen
        assert ser.var == "u" and _int_coeffs(ser)
        c1 = constants(p).c1
        for m in range(9):
            total, d = genfun._lambda_in_z(p, m)
            assert type(d) is int and p ** round(math.log(d, p)) == d  # a power of p
            assert _int_coeffs(total)
            assert total * (1 / (c1 * d)) == lambda_p(p, m)


def test_wrong_cleared_factor_raises_in_table_routes(monkeypatch):
    # p^4 - X becomes p^4 + 1 - X; the table route sums f_poly's terms
    monkeypatch.setattr(
        siegel, "_p4_minus_x", lambda p: LaurentPoly("X", {0: p ** 4 + 1, 1: -1})
    )
    memos = (f_poly, siegel._closed_form_terms)
    for memo in memos:
        memo.cache_clear()
    try:
        for p in (2, 3):
            for m in [(0, 0, 0), (0, 1, 1), (1, 0, 2), (2, 1, 3)]:
                with pytest.raises(ArithmeticError):
                    f_from_table(p, *m)
                with pytest.raises(ArithmeticError):
                    f_poly(p, *m)
                with pytest.raises(ArithmeticError):
                    f_poly_oracle(p, *m)
            with pytest.raises(ArithmeticError):
                hp_table_route(p, 4)
    finally:
        monkeypatch.undo()
        for memo in memos:
            memo.cache_clear()


def ordered_table_route(p, tmax):
    """Oracle: the table route as the plain sum over all 64 ordered pairs of
    siegel's eight terms, in f, each t^m coefficient taken to X^{2m} g(X^-2)."""
    terms, full = siegel._closed_form_terms(p)
    mono = lambda ce: LaurentPoly.monomial(ce[0], ce[1], "X")
    times = lambda u, v: (u[0] * v[0], u[1] + v[1])
    table = [(mono(n) * cof, x, y, z) for cof, n, x, y, z in terms]
    coeffs = [LaurentPoly.zero("X") for _ in range(tmax + 1)]
    for wi, xi, yi, zi in table:
        for wj, xj, yj, zj in table:
            ser = genfun._P_in_u(p, times(xi, xj), times(yi, yj), times(zi, zj), tmax)
            for m, cm in enumerate(ser):
                coeffs[m] = coeffs[m] + wi * wj * LaurentPoly("X", cm)
    c1 = constants(p).c1
    return [c.divide_exact(full * full).subst_power(-2).shift(2 * m) * (Fraction(1, p ** (9 * m)) / c1)
            for m, c in enumerate(coeffs)]


@pytest.mark.parametrize("p", [2, 3])
def test_table_route_matches_ordered_pair_sum(p):
    got, want = hp_table_route(p, 6), ordered_table_route(p, 6)
    assert got == want
    assert repr(got) == repr(want)


def test_hp_verify_rejects_bad_order():
    with pytest.raises(ValueError):
        H_verify(2, 0)


def test_rs_euler_rewrite():
    for p in (2, 3, 5):
        fac = rs_euler_factors(p)
        assert fac["consistent"]
        assert len(fac["t2_numerators"]) == 3
        assert len(fac["zeta_denominators"]) == 3
        assert [len(tri) for tri in fac["sym2_denominators"]] == [3, 3, 3]
        assert fac["prefactor"] == Fraction(1) / constants(p).c1


def _spy_certificate(monkeypatch, mutate=None):
    """Record the factor lists handed to the rs-euler certificate, after
    mutate(lhs, rhs) has had a chance to change them."""
    seen = []
    certify = genfun._same_product

    def spy(lhs, rhs):
        lhs, rhs = list(lhs), list(rhs)
        if mutate:
            mutate(lhs, rhs)
        seen.append((lhs, rhs))
        return certify(lhs, rhs)

    monkeypatch.setattr(genfun, "_same_product", spy)
    return seen


def _bump_exponent(f, p):
    """1 - c X^x u^n  ->  1 - (c p) X^x u^n: an off-by-one in p's exponent."""
    return LaurentPoly(f.var, {e: v * p if e else v for e, v in f.c.items()})


@pytest.mark.parametrize("p", [2, 3, 5, 31])
def test_rs_euler_certificate_agrees_with_rational_products(monkeypatch, p):
    seen = _spy_certificate(monkeypatch)
    fac = rs_euler_factors(p)
    assert fac["consistent"] is True
    ((lhs, rhs),) = seen
    assert len(lhs) == 15 and len(rhs) == 13
    assert all(f.var == "u" and _int_coeffs(f) for f in lhs + rhs)
    assert reduce(mul, lhs) == reduce(mul, rhs)
    # the factor lists are the certified u-factors at u = t/p^9, and they are
    # the t-factors of rs_euler_factors' docstring, written over Q
    in_t = lambda fs: [genfun._in_t(p, f) for f in fs]
    q = lambda e: Fraction(1, p ** e)
    assert fac["t2_numerators"] == in_t(rhs[:3]) == [t_factor(q(4 * i + 6), 2) for i in (1, 2, 3)]
    assert fac["zeta_denominators"] == in_t(lhs[3:6]) == [t_factor(q(4 * i - 3)) for i in (1, 2, 3)]
    sym2 = [t_factor(q(4 * i - 3), 1, x) for i in (1, 2, 3) for x in (2, 0, -2)]
    assert [f for tri in fac["sym2_denominators"] for f in tri] == in_t(lhs[6:]) == sym2
    assert reduce(mul, in_t(lhs)) == reduce(mul, in_t(rhs))


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("side", [0, 1])
def test_rs_euler_certificate_catches_one_wrong_factor(monkeypatch, p, side):
    for i in range((15, 13)[side]):
        def mutate(lhs, rhs, i=i):
            fs = (lhs, rhs)[side]
            fs[i] = _bump_exponent(fs[i], p)

        seen = _spy_certificate(monkeypatch, mutate)
        assert rs_euler_factors(p)["consistent"] is False
        ((lhs, rhs),) = seen
        assert reduce(mul, lhs) != reduce(mul, rhs)
        monkeypatch.undo()


def _multiset_cases():
    f = genfun._u_factor(4)
    g = genfun._u_factor(2, 1, 2)
    a, b = genfun._u_factor(3), genfun._u_factor(-3)
    ab = genfun._u_factor(9, 2)  # (1 - 3u)(1 + 3u)
    one = LaurentPoly.const(1, "u")
    zero = LaurentPoly.zero("u")
    return [
        # a factor repeated on one side more often than on the other
        ([f, f, a, b], [f, f, ab], True),
        ([f, f, f, a, b], [f, f, ab], False),
        ([f, f, f, g], [g, f, f, f], True),
        # sides that cancel to nothing, or to nothing against a unit
        ([f, g], [g, f], True),
        ([], [], True),
        ([f, one], [f], True),
        ([f, g], [g], False),
        # products that differ only in a repeated factor
        ([f, f, g], [f, g, g], False),
        ([a, a, b], [a, b, b], False),
        # a zero factor is never cancelled, so both products stay zero
        ([zero, a], [zero, b], True),
    ]


@pytest.mark.parametrize("case", range(10))
def test_same_product_cancels_as_a_multiset(case):
    lhs, rhs, expected = _multiset_cases()[case]
    plain = lambda fs: reduce(mul, fs, LaurentPoly.const(1, "u"))
    assert (plain(lhs) == plain(rhs)) is expected
    assert genfun._same_product(lhs, rhs) is expected
    assert genfun._same_product(rhs, lhs) is expected


def test_rs_euler_certificate_multiplies_out_only_the_factors_that_differ(monkeypatch):
    # 11 factors cancel on each side; (1 -+ p^4 u)(1 -+ u) is left against
    # (1 - p^8 u^2)(1 - u^2), and only those are multiplied out over Z
    p = 3
    seen = _spy_certificate(monkeypatch)
    factors = []
    monkeypatch.setattr(genfun, "mul", lambda a, b: factors.append(b) or a * b)
    assert rs_euler_factors(p)["consistent"] is True
    ((lhs, rhs),) = seen
    assert all(_int_coeffs(f) for f in lhs + rhs)
    u = genfun._u_factor
    left = [u(p ** 4), u(-p ** 4), u(1), u(-1)]
    right = [u(p ** 8, 2), u(1, 2)]
    assert sorted(map(repr, factors)) == sorted(map(repr, left + right))
    assert reduce(mul, left) == reduce(mul, right) == LaurentPoly("u", {0: 1, 2: -1 - p ** 8, 4: p ** 8})


def test_mass_constant_against_even_zetas():
    v = mass_archimedean_constant()
    for n in (2, 6, 8, 12):
        v = v * zeta_special(n)
    assert v == SpecialValue(MASS_CONSTANT)


def test_rs_closed_residue_structure():
    v = rs_closed_residue(10)
    assert v.pi_half == -84
    assert dict(v.symbols) == {"zeta5": 1, "zeta9": 1, "symsq1": 1, "symsq5": 1, "symsq9": 1}
    assert v.coeff > 0
    assert rs_closed_residue(12) == v


def test_gamma_k_closed_values():
    assert gamma_k(10) == Fraction(
        691 * math.factorial(19) * math.factorial(15) * math.factorial(11),
        2 ** 113 * 3 ** 3 * 5 * 7 ** 2 * 13,
    )
    for k in range(10, 16):
        fac = math.factorial(2 * k - 1) * math.factorial(2 * k - 5) * math.factorial(2 * k - 9)
        assert gamma_k(k) == MASS_CONSTANT * Fraction(3 ** 3 * 5 * fac, 2 ** (12 * k - 22))
    with pytest.raises(ValueError):
        gamma_k(9)


def test_gamma_k_derived_matches_closed():
    for k in range(10, 16):
        assert gamma_k_derived(k) == gamma_k(k)


def test_gamma_RS_values():
    assert gamma_RS(9).as_rational_pi_power() == (
        Fraction(math.factorial(8) * math.factorial(4), 2 ** 54),
        -30,
    )
    assert gamma_RS(20).as_rational_pi_power() == (
        Fraction(math.factorial(19) * math.factorial(15) * math.factorial(11), 2 ** 120),
        -96,
    )
    for s in (9, 10, 13, 20):
        _, pi_half = gamma_RS(s).as_rational_pi_power()
        assert pi_half == 24 - 6 * s
    coeff, pi_half = gamma_RS(Fraction(19, 2)).as_rational_pi_power()
    assert pi_half == 24 - 57 + 3 and coeff > 0
    with pytest.raises(ValueError):
        gamma_RS(8)
    with pytest.raises(ValueError):
        gamma_RS(Fraction(17, 3))
