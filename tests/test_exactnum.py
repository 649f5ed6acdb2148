import operator
import random
from fractions import Fraction
from math import comb

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from heptalift.exactnum import (
    BigFloat,
    LaurentPoly,
    SpecialValue,
    bernoulli,
    frac_str,
    gamma_half_special,
    ratfun_expand,
    rational_reconstruct,
    zeta_even_pi_coeff,
    zeta_special,
)


def rand_laurent(rng, var="X", nterms=4, erange=(-4, 4), crange=(-9, 9)):
    c = {}
    for _ in range(rng.randint(0, nterms)):
        c[rng.randint(*erange)] = Fraction(rng.randint(*crange), rng.randint(1, 5))
    return LaurentPoly(var, c)


def series_coeffs(s, order):
    assert all(0 <= e <= order for e in s.c)
    return [s.coeff(n) for n in range(order + 1)]


def test_geometric_series_expansion():
    # 1/((1-t)(1-2t)) has closed form sum (2^(n+1)-1) t^n
    s = ratfun_expand(1, [{0: 1, 1: -1}, {0: 1, 1: -2}], 2)
    assert series_coeffs(s, 2) == [1, 3, 7]
    s = ratfun_expand(1, [{0: 1, 1: -1}, {0: 1, 1: -2}], 8)
    assert series_coeffs(s, 8) == [2 ** (n + 1) - 1 for n in range(9)]


def test_expand_with_numerator():
    s = ratfun_expand({0: 1, 1: 1}, [{0: 1, 1: -1}], 2)
    assert series_coeffs(s, 2) == [1, 2, 2]


def test_expand_roundtrip_random():
    rng = random.Random(7)
    for _ in range(200):
        num = {i: rng.randint(-5, 5) for i in range(rng.randint(1, 3))}
        dens = []
        for _ in range(rng.randint(1, 3)):
            d = {0: rng.choice([1, -1, 2])}
            for i in range(1, rng.randint(1, 3) + 1):
                d[i] = rng.randint(-3, 3)
            dens.append(d)
        M = 7
        s = ratfun_expand(num, dens, M)
        back = LaurentPoly("t", num)
        prod = s
        for d in dens:
            prod = prod * LaurentPoly("t", d)
        assert series_coeffs(back, M) == [prod.coeff(n) for n in range(M + 1)]


def test_expand_rejects():
    with pytest.raises(ZeroDivisionError):
        ratfun_expand(1, [{1: 1}], 3)
    with pytest.raises(ZeroDivisionError):
        ratfun_expand(1, [{0: LaurentPoly("X", {1: 1})}], 3)
    with pytest.raises(ValueError):
        ratfun_expand(LaurentPoly("t", {-1: 1}), [1], 3)
    with pytest.raises(ValueError):
        ratfun_expand(1, [{0: 1, -2: 3}], 3)
    with pytest.raises(ValueError):
        ratfun_expand(1, [1], -1)


def test_laurent_ring_axioms():
    rng = random.Random(11)
    for _ in range(300):
        a, b, c = (rand_laurent(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == 0


def test_laurent_inverse_substitution():
    f = LaurentPoly("X", {-2: 3, 0: 1, 5: Fraction(1, 2)})
    g = f.subst_inverse()
    assert g.c == {2: 3, 0: 1, -5: Fraction(1, 2)}
    assert g.subst_inverse() == f


def plain_sum(poly, x):
    """Oracle: sum c_e x^e term by term, each power on its own."""
    return sum((Fraction(v) * Fraction(x) ** e for e, v in poly.c.items()), Fraction(0))


def test_evaluate_matches_plain_sum():
    rng = random.Random(11)
    polys = [
        LaurentPoly.zero(),
        LaurentPoly.const(5),
        LaurentPoly("X", {-3: 2, 0: -1, 4: Fraction(3, 7)}),
        LaurentPoly("X", {-5: Fraction(-1, 2), -2: 1}),
        LaurentPoly("X", {2: 3, 9: -4}),
    ] + [rand_laurent(rng, nterms=6, erange=(-9, 9)) for _ in range(60)]
    xs = [0, 1, -1, 3, -7, 10 ** 30, Fraction(-2, 3), Fraction(7, 2), Fraction(1, 10 ** 20)]
    for poly in polys:
        for x in xs:
            if x == 0 and poly and poly.valuation() < 0:
                with pytest.raises(ZeroDivisionError):
                    poly.evaluate(x)
                continue
            got = poly.evaluate(x)
            assert type(got) is Fraction and got == plain_sum(poly, x), (poly, x)


def test_laurent_exact_division():
    X = LaurentPoly("X", {1: 1})
    f = (1 - X) * (1 + 3 * X + X ** 2)
    q = f.divide_exact(1 - X)
    assert q == 1 + 3 * X + X ** 2
    # Laurent shifts divide out too
    fs = f.shift(-3)
    assert fs.divide_exact((1 - X).shift(-1)) == (1 + 3 * X + X ** 2).shift(-2)
    try:
        (1 + X).divide_exact(1 - X)
        assert False, "expected inexact division to raise"
    except ArithmeticError:
        pass


def test_integer_division_stays_in_z():
    X = LaurentPoly("X", {1: 1})
    q = ((2 * X + 1) * (X - 3)).divide_exact(2 * X + 1)
    assert q == X - 3
    assert all(type(v) is int for v in q.c.values())
    for num, den in [(X ** 2 + 1, 2 * X + 1), (2 * X + 1, 2 * X)]:
        with pytest.raises(ArithmeticError):
            num.divide_exact(den)
    # division is over Z only: a quotient that exists only in Q raises
    half = LaurentPoly("X", {0: Fraction(1), 1: Fraction(2)})
    with pytest.raises(ArithmeticError):
        half.divide_exact(2 * X)


def divide_by_max_rem(num, den):
    """Reference: exact division that takes the top degree of the remainder
    dict afresh at every step."""
    sv, dv = num.valuation(), den.valuation()
    dd = {e - dv: v for e, v in den.c.items()}
    ddeg = max(dd)
    q, rem = {}, {e - sv: v for e, v in num.c.items()}
    while rem:
        rdeg = max(rem)
        if rdeg < ddeg:
            raise ArithmeticError("inexact polynomial division")
        f, r = divmod(rem[rdeg], dd[ddeg])
        if r:
            raise ArithmeticError("inexact polynomial division")
        q[rdeg - ddeg] = f
        for e, v in dd.items():
            w = rem.get(e + rdeg - ddeg, 0) - f * v
            if w:
                rem[e + rdeg - ddeg] = w
            else:
                rem.pop(e + rdeg - ddeg, None)
    return LaurentPoly(num.var, {e + sv - dv: v for e, v in q.items()})


def rand_int_laurent(rng, digits, nterms=6):
    """A Laurent polynomial over Z with exponents in -5..8 and up to nterms
    terms of up to `digits` digits; its leading and its lowest coefficient
    are neither 0 nor +-1."""
    big = lambda: rng.choice([-1, 1]) * rng.randint(2, 10 ** digits)
    c = {rng.randint(-5, 8): rng.randint(-10 ** digits, 10 ** digits) for _ in range(nterms)}
    c[max(c)], c[min(c)] = big(), big()
    return LaurentPoly("X", c)


def test_divide_exact_matches_max_rem_reference():
    rng = random.Random(29)
    for trial in range(300):
        digits = (1, 3, 100)[trial % 3]
        q = rand_int_laurent(rng, digits, rng.randint(1, 6))
        den = rand_int_laurent(rng, digits, rng.randint(1, 6))
        num = q * den
        got = num.divide_exact(den)
        assert got == q == divide_by_max_rem(num, den)
        assert all(type(v) is int for v in got.c.values())


def test_divide_exact_raises_on_any_inexact_step():
    # num = q den plus 1 at the top degree (the leading coefficient of den
    # is not +-1), at the middle quotient step, or at num's lowest degree,
    # below den's degree: every quotient step is then exact and only the
    # last remainder term is not
    rng = random.Random(2029)
    for digits in (1, 3, 100):
        for _ in range(20):
            q = LaurentPoly("X", {e: rng.randint(1, 10 ** digits) for e in range(-3, 5)})
            den = rand_int_laurent(rng, digits)
            if len(den.c) < 2:
                continue
            num = q * den
            mid = 1 + den.degree()  # q's degree 1 lies between -3 and 4
            for e in (num.degree(), mid, num.valuation()):
                bad = num + LaurentPoly("X", {e: 1})
                for divide in (LaurentPoly.divide_exact, divide_by_max_rem):
                    with pytest.raises(ArithmeticError):
                        divide(bad, den)


def test_series_inverse_roundtrip():
    rng = random.Random(13)
    for _ in range(100):
        coeffs = [rng.choice([1, -1, 2, Fraction(1, 3)])] + [
            Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(6)
        ]
        s = LaurentPoly("t", dict(enumerate(coeffs)))
        inv = ratfun_expand(1, [s], 6)
        assert [(s * inv).coeff(n) for n in range(7)] == [1, 0, 0, 0, 0, 0, 0]


def test_bernoulli_classical_values():
    expected = {
        0: Fraction(1),
        1: Fraction(-1, 2),
        2: Fraction(1, 6),
        4: Fraction(-1, 30),
        6: Fraction(1, 42),
        8: Fraction(-1, 30),
        10: Fraction(5, 66),
        12: Fraction(-691, 2730),
    }
    for n, v in expected.items():
        assert bernoulli(n) == v
    assert bernoulli(3) == 0 and bernoulli(7) == 0


def test_bernoulli_satisfies_the_defining_recursion():
    # sum_{k=0}^{n} C(n+1, k) B_k = 0 for every n >= 1
    for n in range(1, 120):
        assert sum(comb(n + 1, k) * bernoulli(k) for k in range(n + 1)) == 0


def test_even_zeta_values():
    assert zeta_even_pi_coeff(2) == Fraction(1, 6)
    assert zeta_even_pi_coeff(6) == Fraction(1, 945)
    assert zeta_even_pi_coeff(8) == Fraction(1, 9450)
    assert zeta_even_pi_coeff(12) == Fraction(691, 638512875)
    assert zeta_even_pi_coeff(10) == Fraction(1, 93555)


def test_special_value_products():
    z2z6 = zeta_special(2) * zeta_special(6)
    c, h = z2z6.as_rational_pi_power()
    assert (c, h) == (Fraction(1, 5670), 16)  # pi^8 / (2 * 3^4 * 5 * 7)

    v = zeta_special(5) * zeta_special(9)
    assert v.coeff == 1 and v.symbols == (("zeta5", 1), ("zeta9", 1))
    w = v / zeta_special(5)
    assert w == zeta_special(9)

    a = SpecialValue(Fraction(2, 3)) * SpecialValue(1, -3)
    b = SpecialValue(1, -3) * SpecialValue(Fraction(2, 3))
    assert a == b
    assert a.serialize() == [{"coeff": "2/3", "pi_half_power": -3, "symbols": {}}]


def rand_monomial(rng):
    names = rng.sample(["zeta3", "zeta5", "zeta9", "symsq1", "symsq5"], rng.randint(0, 3))
    coeff = Fraction(rng.choice([-1, 1]) * rng.randint(1, 50), rng.randint(1, 50))
    return SpecialValue(coeff, rng.randint(-9, 9), [(s, rng.randint(-3, 3)) for s in names])


def test_special_value_monomial_algebra():
    rng = random.Random(12)
    for _ in range(200):
        a, b = rand_monomial(rng), rand_monomial(rng)
        assert (a * b) / b == a
        assert a * b == b * a
        assert a * 3 == 3 * a == a * SpecialValue(3)
    assert SpecialValue(0, 5, [("zeta5", 1)]) == 0
    assert SpecialValue(2, 0, [("zeta5", 0)]) == 2
    assert SpecialValue(1) != "1"
    assert SpecialValue.__eq__(SpecialValue(1), 1.0) is NotImplemented


def test_special_value_rejections():
    v = zeta_special(5) * SpecialValue(1, 4)
    with pytest.raises(ValueError, match="symbols remain"):
        v.as_rational_pi_power()
    assert (v / zeta_special(5)).as_rational_pi_power() == (1, 4)
    with pytest.raises(ZeroDivisionError):
        v / SpecialValue(0, 2, [("zeta5", 1)])
    with pytest.raises(ZeroDivisionError):
        v / 0


def test_special_value_serialize():
    v = SpecialValue(Fraction(-7, 4), -3, [("zeta9", 2), ("symsq1", 1), ("zeta3", 0)])
    out = v.serialize()
    assert len(out) == 1
    assert list(out[0]) == ["coeff", "pi_half_power", "symbols"]
    assert out[0] == {"coeff": "-7/4", "pi_half_power": -3,
                      "symbols": {"symsq1": 1, "zeta9": 2}}
    assert list(out[0]["symbols"]) == ["symsq1", "zeta9"]
    assert SpecialValue(0, 3).serialize() == []


def test_gamma_half_values():
    assert gamma_half_special(2) == SpecialValue(1)       # Gamma(1)
    assert gamma_half_special(8) == SpecialValue(6)       # Gamma(4)
    assert gamma_half_special(1) == SpecialValue(1, 1)    # sqrt(pi)
    assert gamma_half_special(5) == SpecialValue(Fraction(3, 4), 1)
    assert gamma_half_special(9) == SpecialValue(Fraction(105, 16), 1)


def test_gamma_half_matches_mpmath():
    with mpmath.workdps(40):
        for j in range(1, 41):
            c, h = gamma_half_special(j).as_rational_pi_power()
            assert h == j % 2
            got = mpmath.mpf(c.numerator) / c.denominator * mpmath.sqrt(mpmath.pi) ** h
            assert abs(got / mpmath.gamma(mpmath.mpf(j) / 2) - 1) < mpmath.mpf(10) ** -35


def test_rational_reconstruct():
    assert rational_reconstruct("0.333333333333", Fraction(1, 10 ** 10)) == Fraction(1, 3)
    assert rational_reconstruct("0.141592653589", Fraction(1, 10 ** 10), 10 ** 3) is None
    rng = random.Random(17)
    for _ in range(200):
        q = Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))
        dec = f"{q.numerator * 10 ** 30 // q.denominator}"
        x = Fraction(int(dec), 10 ** 30)
        got = rational_reconstruct(x, Fraction(1, 10 ** 25), 10 ** 7)
        assert got == q


def test_frac_serialization_roundtrip():
    for q in [Fraction(3), Fraction(-7, 2), Fraction(0), Fraction(691, 32768)]:
        assert Fraction(frac_str(q)) == q


def test_bigfloat_error_tracking():
    with mpmath.workdps(40):
        a = BigFloat.exact(Fraction(1, 3))
        b = BigFloat.exact(Fraction(2, 7))
        c = a * b + a
        assert abs(c.value - (mpmath.mpf(1) / 3 * 2 / 7 + mpmath.mpf(1) / 3)) < mpmath.mpf(10) ** -35
        assert c.err < mpmath.mpf(10) ** -30


def test_bigfloat_zero_numerator_keeps_error():
    q = BigFloat(0, mpmath.mpf("1e-5")) / BigFloat(2)
    assert q.value == 0 and q.err == mpmath.mpf("1e-5") / 2
    # the bound covers the divisor's whole interval
    q = BigFloat(0, 1) / BigFloat(4, 2)
    assert q.err == mpmath.mpf(1) / 2


def test_bigfloat_quotient_covers_wide_divisor():
    # 1.5 / 0.5 = 3 lies in the inputs' range, so the bound must reach it
    q = BigFloat(1, mpmath.mpf("0.5")) / BigFloat(1, mpmath.mpf("0.5"))
    assert q.value == 1 and q.err >= 2
    q = BigFloat(1, mpmath.mpf("0.01")) / BigFloat(1, mpmath.mpf("0.1"))
    assert q.value + q.err >= mpmath.mpf("1.01") / mpmath.mpf("0.9")


def test_bigfloat_divisor_straddling_zero_raises():
    with pytest.raises(ZeroDivisionError):
        BigFloat(1) / BigFloat(mpmath.mpf("1e-6"), mpmath.mpf("1e-5"))
    with pytest.raises(ZeroDivisionError):
        BigFloat(1) / BigFloat(0)
    assert (BigFloat(1) / BigFloat(2, mpmath.mpf("1e-3"))).value == mpmath.mpf(1) / 2


def exact(v):
    """The mpf v as an exact Fraction."""
    sign, man, exp, _ = v._mpf_
    return (-1) ** sign * Fraction(int(man)) * Fraction(2) ** int(exp)


FLOATS = st.floats(min_value=-1e12, max_value=1e12, allow_nan=False)
ERRORS = st.floats(min_value=0, max_value=1e6, allow_nan=False)
BIGFLOAT_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


@pytest.mark.parametrize("name", sorted(BIGFLOAT_OPS))
@pytest.mark.parametrize("prec", [53, 64])
def test_bigfloat_result_encloses_corners(name, prec):
    """x op y over the input intervals stays within the result's bound.

    The four corners bound the range of + - * /, and they are evaluated in
    exact rational arithmetic: at any finite precision the corner v +- err is
    itself rounded when err is far below the ulp of v.
    """
    op = BIGFLOAT_OPS[name]

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(FLOATS, ERRORS, FLOATS, ERRORS)
    def check(xv, xe, yv, ye):
        with mpmath.workprec(prec):
            x, y = BigFloat(xv, xe), BigFloat(yv, ye)
            try:
                r = op(x, y)
            except ZeroDivisionError:
                assert name == "/" and abs(y.value) <= y.err
                return
        for cx in (exact(x.value) - exact(x.err), exact(x.value) + exact(x.err)):
            for cy in (exact(y.value) - exact(y.err), exact(y.value) + exact(y.err)):
                assert abs(op(cx, cy) - exact(r.value)) <= exact(r.err)

    check()
