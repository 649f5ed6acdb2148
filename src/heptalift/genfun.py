"""Generating-function layer for the local Rankin-Selberg series.

Provides the class sums lambda_p (squared normalized local series weighted
by local densities), the closed triple generating function P(A,B,C,t), the
local series H_p(X,t) with its product form and an exact replication of its
verification, the rewrite of H_p into zeta / symmetric-square local factors,
and the residue algebra that yields the rational period constant gamma_k.

All three routes of the H_p check sum over Z and rescale each coefficient
once.  With t = p^9 u, every factor of the product form and of its
Euler-factor rewrite is an integer polynomial 1 - c X^x u^n with c = +-p^e,
e >= 0 (_u_factor): 1 - p^-14 t^2 is 1 - p^4 u^2, and 1 - p^{3-4i} X^{+-2} t
is 1 - p^{12-4i} X^{+-2} u.  The factors are written once, in u, and the
product form is expanded from them over Z; its u^m coefficient is rescaled
by 1/(c1 p^{9m}).  The lambda sum and the table route work on the Siegel
series f itself: every exponent triple in t^m has weight m, so both sum f^2
terms and map each t^m coefficient g to X^{2m} g(X^-2) once (siegel._tilde),
the map that takes f^2 to tilde_f^2.  The lambda sum multiplies each
triple's f^2 by the int c1 p^{9m}/beta_p (density._weight) and divides by
c1 p^{9m} once.  The table route sums c1 P in u over the 36 unordered
pairs of siegel's eight closed-form terms (the pair sum is symmetric),
where the factor 1 - p^-4 X is already cleared to p^4 - X; its terms are
monomials in X, so the pairs add into one integer dict per u^m, which is
divided by the square of the primitive common denominator, exactly over Z
(Gauss's lemma).  The Euler-factor rewrite is certified on the same
u-factors: the factors the two sides share cancel first, and the integer
products of the factors left are compared.  t appears only at output
(_in_t), so the factors printed are exactly the image of the factors
certified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import mul

from .density import _weight, constants, exponent_triples
from .exactnum import (
    LaurentPoly,
    SpecialValue,
    gamma_half_special,
    ratfun_expand,
    symsq_special,
    zeta_special,
)
from .siegel import _closed_form_terms, _tilde, f_poly

__all__ = [
    "H_verify",
    "gamma_RS",
    "gamma_k",
    "gamma_k_derived",
    "hp_closed_form",
    "lambda_p",
    "rs_closed_residue",
    "rs_euler_factors",
]


def lambda_p(p, m):
    """Coefficient of t^m in H_p(X,t): a Laurent polynomial in X.

    Sums tilde_f(...)^2 / beta_p over the exponent triples of total m; each
    triple carries exactly one unimodular class of that determinant order.
    1/beta_p is w / (c1 p^{9m}) with the int w of density._weight, so the
    sum runs over Z on f^2 times w, is mapped by siegel._tilde once and is
    divided by c1 p^{9m} once.
    """
    total = LaurentPoly.zero("X")
    for a1, a2, a3 in exponent_triples(m):
        f = f_poly(p, a1, a2 - a1, a3 - a1).poly
        total = total + (f * f).map_coeffs(lambda v, w=_weight(p, (a1, a2, a3)): v * w)
    return _tilde(total, 2 * m) * (1 / (constants(p).c1 * p ** (9 * m)))


def _P_in_u(p, A, B, C, order):
    """c1 P(A,B,C,t) at t = p^9 u, expanded in u through u^order, for
    monomials A, B and C in X given as (coefficient, exponent) pairs.

    In u the closed form is
      (1 + (p^4+1) C u + (p^4+1) BC u^2 + p^4 BC^2 u^3)
      / ((1 - A u^3)(1 - p^8 BC u^2)(1 - p^8 C u)),
    so the series has integer coefficients whenever A, B and C do.  The
    three denominators are geometric series in monomials: the u^n
    coefficient of their inverse is the sum of A^i (p^8 BC)^j (p^8 C)^k over
    3i + 2j + k = n, and the numerator's four monomials shift it.  Returns
    one {exponent: int} dict per u^m, m = 0..order.
    """
    p4, p8 = p ** 4, p ** 8
    (a, ae), (b, be), (c, ce) = A, B, C
    # the numerator's monomials (coefficient, X-exponent), at u^0..u^3
    num = [(1, 0), ((p4 + 1) * c, ce), ((p4 + 1) * b * c, be + ce), (p4 * b * c * c, be + 2 * ce)]
    # A^i, (p^8 BC)^j and (p^8 C)^k as far as u^order reaches
    powers = lambda v, e, n: [(v ** i, e * i) for i in range(n + 1)]
    geo_a = powers(a, ae, order // 3)
    geo_bc = powers(p8 * b * c, be + ce, order // 2)
    geo_c = powers(p8 * c, ce, order)
    out = [{} for _ in range(order + 1)]
    for i, (va, ea) in enumerate(geo_a):
        for j, (vb, eb) in enumerate(geo_bc[: (order - 3 * i) // 2 + 1]):
            vab, eab, n0 = va * vb, ea + eb, 3 * i + 2 * j
            for k, (vc, ec) in enumerate(geo_c[: order - n0 + 1]):
                g, eg = vab * vc, eab + ec
                for s, (vn, en) in enumerate(num[: order - n0 - k + 1]):
                    d = out[n0 + k + s]
                    d[eg + en] = d.get(eg + en, 0) + g * vn
    return out


def _u_factor(c, n=1, x=0):
    """1 - c X^x u^n, a polynomial in u = t/p^9 with int c."""
    return LaurentPoly("u", {0: 1, n: -c if x == 0 else LaurentPoly.monomial(-c, x, "X")})


def _in_t(p, f, c=1):
    """c f at u = t/p^9: the u^n coefficient of f, times c / p^{9n}, is the
    t^n coefficient."""
    return LaurentPoly("t", {n: v * Fraction(c, p ** (9 * n)) for n, v in f.c.items()})


@dataclass(frozen=True)
class HpClosedForm:
    """Product form of H_p(X,t): prefactor * prod(num) / prod(den), t = p^9 u.

    Factors are the integer polynomials 1 - c X^x u^n of _u_factor, in
    u = t/p^9, whose coefficients are ints or Laurent polynomials in X over Z.
    """

    p: int
    prefactor: Fraction
    numerator_factors: tuple
    denominator_factors: tuple

    def expand(self, order):
        """Series in t through t^order; coefficients Laurent in X.

        The factors are multiplied and expanded over Z in u = t/p^9, and the
        u^m coefficient is rescaled once, by prefactor / p^{9m} = 1/(c1 p^{9m})
        (_in_t, as in the table route).
        """
        num = reduce(mul, self.numerator_factors)
        ser = ratfun_expand(num, list(self.denominator_factors), order, "u")
        return _in_t(self.p, ser, self.prefactor)


def hp_closed_form(p):
    """The product form of H_p(X,t).

    c1^{-1} (1-p^{-14}t^2)(1+p^{-5}t)(1+p^{-9}t) / (1-p^{-1}t)
    / prod_{i=1..3} (1-p^{3-4i}t)(1-p^{3-4i}X^{-2}t)(1-p^{3-4i}X^2 t),
    stored in u = t/p^9 as
    c1^{-1} (1-p^4 u^2)(1+p^4 u)(1+u) / (1-p^8 u)
    / prod_{i=1..3} (1-p^{12-4i}u)(1-p^{12-4i}X^{-2}u)(1-p^{12-4i}X^2 u).
    """
    num = (_u_factor(p ** 4, 2), _u_factor(-p ** 4), _u_factor(-1))
    den = [_u_factor(p ** 8)]
    den += [_u_factor(p ** (12 - 4 * i), 1, x) for i in (1, 2, 3) for x in (0, -2, 2)]
    return HpClosedForm(p, Fraction(1) / constants(p).c1, num, tuple(den))


# ---------------------------------------------------------------------------
# The pair-sum route over siegel's eight closed-form terms


def hp_table_route(p, tmax):
    """H_p t-coefficients via the pair sum of A_i A_j P(X_iX_j, Y_iY_j, Z_iZ_j, t).

    siegel writes f = sum_i W_i x_i^m1 y_i^m2 z_i^m3 / full over its eight
    terms (_closed_form_terms), W_i = N_i cof_i, all over Z.  So the integer
    series W_i W_j c1 P(x_i x_j, y_i y_j, z_i z_j, t) in u = t/p^9 (_P_in_u)
    sum, at u^m, to c1 p^{9m} full^2 times the f^2 / beta_p sum of t^m.  A
    pair's term is symmetric in (i, j), so the 64 ordered pairs are summed as
    36 unordered ones, each pair with i != j counted twice.  x_i x_j, y_i y_j
    and z_i z_j are monomials, so each pair's u^m coefficient is a few
    monomials; times W_i W_j they are added into one {exponent: int} dict
    per m, and one LaurentPoly per m is built from it.  full^2 is primitive
    (each factor of full has a coefficient +-1), so by Gauss's lemma its
    exact division over Z certifies that the sum collapses to polynomials in
    X; the quotient is mapped by siegel._tilde and rescaled by 1/(c1 p^{9m})
    (_in_t).
    """
    terms, full = _closed_form_terms(p)
    table = [(LaurentPoly.monomial(*n, "X") * cof, x, y, z) for cof, n, x, y, z in terms]
    times = lambda u, v: (u[0] * v[0], u[1] + v[1])
    full2 = full * full
    coeffs = [{} for _ in range(tmax + 1)]
    for i, (wi, xi, yi, zi) in enumerate(table):
        for j, (wj, xj, yj, zj) in enumerate(table[: i + 1]):
            ser = _P_in_u(p, times(xi, xj), times(yi, yj), times(zi, zj), tmax)
            wij = (wi * wj * (1 if i == j else 2)).c.items()
            for acc, cm in zip(coeffs, ser):
                for e, v in cm.items():
                    for ew, w in wij:
                        acc[e + ew] = acc.get(e + ew, 0) + v * w
    quotients = {m: _tilde(LaurentPoly("X", c).divide_exact(full2), 2 * m) for m, c in enumerate(coeffs)}
    series = _in_t(p, LaurentPoly("u", quotients), 1 / constants(p).c1)
    return [series.coeff(m) for m in range(tmax + 1)]


def H_verify(p, tmax, table_route=False):
    """Compare the product form of H_p with the lambda sum, coefficientwise.

    Expands the closed form through t^tmax and checks each coefficient
    against lambda_p(p, m); with table_route=True the table pair sum is
    checked as a third path; each route runs over Z and rescales every
    coefficient once (module docstring).  Returns (ok, report): report is None
    on success and otherwise a first-discrepancy dict of the rational values.
    """
    if tmax < 1:
        raise ValueError("tmax must be >= 1")
    closed = hp_closed_form(p).expand(tmax)
    routes = [("closed_form", [closed.coeff(m) for m in range(tmax + 1)])]
    if table_route:
        routes.append(("table_route", hp_table_route(p, tmax)))
    for m in range(tmax + 1):
        lam = lambda_p(p, m)
        for name, vals in routes:
            if not lam == vals[m]:
                return False, {
                    "t_power": m,
                    "route": name,
                    "lambda_sum": repr(lam),
                    name: repr(vals[m]),
                }
    return True, None


def _same_product(lhs, rhs):
    """Whether prod(lhs) == prod(rhs), for factors with int coefficients.

    Nonzero factors equal on both sides are cancelled first, as a multiset
    (a factor twice on one side and once on the other keeps one copy).  This
    is exact: Z[X, X^-1][u] is an integral domain, so for a product C of
    nonzero factors prod(A) C == prod(B) C exactly when prod(A) == prod(B).
    The factors left are multiplied out over Z on each side (1 for a side
    cancelled to nothing), and the two integer products are compared.
    """
    left, rest = [], list(rhs)
    for f in lhs:
        if f and f in rest:
            rest.remove(f)
        else:
            left.append(f)
    return reduce(mul, left, 1) == reduce(mul, rest, 1)


def rs_euler_factors(p):
    """H_p rewritten into zeta / symmetric-square local-factor shape.

    With t = p^{-(s-2k)} the product form regroups as
      c1^{-1} * prod_{i=1..3} (1 - p^{-4i-6} t^2)
              / prod_{i=1..3} (1 - p^{-4i+3} t)
              / prod_{i=1..3} (1 - p^{-4i+3} X^2 t)(1 - p^{-4i+3} t)(1 - p^{-4i+3} X^{-2} t),
    the three lines being the zeta^{-1} numerators, the zeta factors and the
    symmetric-square factors of the global series.  In u = t/p^9 every
    factor is an integer polynomial (_u_factor): 1 - p^{12-4i} u^2,
    1 - p^{12-4i} u and 1 - p^{12-4i} X^{+-2} u.  The rewrite is certified
    against the product form's u-factors by exact cross-multiplication over
    Z (_same_product).  Equal factors cancel as a multiset: the nine
    symmetric-square factors against the product form's nine denominators
    1 - p^{12-4i} X^{0,+-2} u, the zeta factor 1 - p^8 u against the product
    form's first denominator, and the u^2 numerator 1 - p^4 u^2 against the
    product form's first numerator.  That leaves 4 factors against 2,
    (1 - p^4 u)(1 + p^4 u)(1 - u)(1 + u) against (1 - p^8 u^2)(1 - u^2),
    whose integer products are compared.  "consistent" is the outcome; the
    factor lists are the certified u-factors at u = t/p^9 (_in_t), the
    rational polynomials in t that rs-euler prints.
    """
    h = hp_closed_form(p)
    t2_numerators = [_u_factor(p ** (12 - 4 * i), 2) for i in (1, 2, 3)]
    zeta_denominators = [_u_factor(p ** (12 - 4 * i)) for i in (1, 2, 3)]
    sym2_denominators = [[_u_factor(p ** (12 - 4 * i), 1, x) for x in (2, 0, -2)] for i in (1, 2, 3)]
    lhs = list(h.numerator_factors) + zeta_denominators + [f for tri in sym2_denominators for f in tri]
    rhs = t2_numerators + list(h.denominator_factors)
    in_t = lambda fs: [_in_t(p, f) for f in fs]
    return {
        "p": p,
        "prefactor": h.prefactor,
        "t2_numerators": in_t(t2_numerators),
        "zeta_denominators": in_t(zeta_denominators),
        "sym2_denominators": [in_t(tri) for tri in sym2_denominators],
        "consistent": _same_product(lhs, rhs),
    }


# ---------------------------------------------------------------------------
# Residue algebra and the period constant


def _check_half_weight(k):
    if not isinstance(k, int) or k < 10:
        raise ValueError("k must be an integer >= 10")


def mass_archimedean_constant():
    """The archimedean constant of the mass formula: 5! 7! 11! / (2 pi)^28."""
    r = Fraction(math.factorial(5) * math.factorial(7) * math.factorial(11), 2 ** 28)
    return SpecialValue(r, -56)


def rs_closed_residue(k):
    """Residue at s = 2k of the self Rankin-Selberg series of a lift.

    Assembled from the closed Euler-product form: the mass constant times
    zeta(2)zeta(6)zeta(8)zeta(12) / (zeta(10)zeta(14)zeta(18)) times
    zeta(5)zeta(9) times SymSq(1)SymSq(5)SymSq(9); the zeta factor with its
    pole at s = 2k contributes residue 1.  Independent of k once evaluated;
    k is validated for interface symmetry with gamma_k.
    """
    _check_half_weight(k)
    v = mass_archimedean_constant()
    for n in (2, 6, 8, 12):
        v = v * zeta_special(n)
    for i in (1, 2, 3):
        v = v / zeta_special(4 * i + 6)
    v = v * zeta_special(5) * zeta_special(9)
    for r in (1, 5, 9):
        v = v * symsq_special(r)
    return v


def gamma_k(k):
    """The rational period constant:
    691 (2k-1)! (2k-5)! (2k-9)! / (2^{12k-7} 3^3 5 7^2 13)."""
    _check_half_weight(k)
    num = 691 * math.factorial(2 * k - 1) * math.factorial(2 * k - 5) * math.factorial(2 * k - 9)
    return Fraction(num, 2 ** (12 * k - 7) * 3 ** 3 * 5 * 7 ** 2 * 13)


def _xi_completed(n):
    """Completed zeta xi(n) = pi^{-n/2} Gamma(n/2) zeta(n)."""
    return SpecialValue(1, -n) * gamma_half_special(n) * zeta_special(n)


def gamma_RS(s):
    """The archimedean factor 2^{-6s} pi^{12-3s} Gamma(s)Gamma(s-4)Gamma(s-8),
    exactly, for integer or half-integer s > 8."""
    s = Fraction(s)
    if s.denominator > 2:
        raise ValueError("s must be an integer or a half-integer")
    if s <= 8:
        raise ValueError("Gamma at a non-positive argument")
    out = SpecialValue(Fraction(1, 2 ** int(6 * s)), int(24 - 6 * s))
    for n in range(3):
        out = out * gamma_half_special(int(2 * (s - 4 * n)))
    return out


def gamma_k_derived(k):
    """Solves the residue identity for the period constant, as a rational.

    The self series of a weight-2k lift has residue
    <F,F> / (4 gamma_RS(2k)) * xi(5) xi(9) / (xi(10) xi(14) xi(18))
    at s = 2k.  Dividing the closed-form residue by that prefactor and
    reading off the coefficient of pi^{-6k-3} SymSq(1)SymSq(5)SymSq(9) must
    reproduce gamma_k; all odd zeta symbols have to cancel on the way.
    """
    _check_half_weight(k)
    pre = SpecialValue(Fraction(1, 4)) / gamma_RS(2 * k)
    pre = pre * _xi_completed(5) * _xi_completed(9)
    for n in (10, 14, 18):
        pre = pre / _xi_completed(n)
    inner = rs_closed_residue(k) / pre
    target = SpecialValue(1, -12 * k - 6)
    for r in (1, 5, 9):
        target = target * symsq_special(r)
    ratio = inner / target
    try:
        coeff, pi_half = ratio.as_rational_pi_power()
    except ValueError as exc:
        raise ArithmeticError("residue algebra mismatch: %s" % exc)
    if pi_half != 0:
        raise ArithmeticError("residue algebra mismatch: stray pi power %d/2" % pi_half)
    return coeff
