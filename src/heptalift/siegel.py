"""Local Siegel series polynomials and their Laurent symmetrization.

For the diagonal class p^{m1} | p^{m1+m2} | p^{m1+m3} (0 <= m1,
0 <= m2 <= m3) the series collapses to a polynomial f(X) of degree
m = 3 m1 + m2 + m3 with integer coefficients and constant term 1.  Two
independent routes are implemented:

  * f_poly        eight rational-function terms summed over a common
                  denominator; every pole cancels exactly,
  * f_poly_oracle a two-coefficient recursion in m1 on top of the
                  explicit base polynomial at m1 = 0.

Both routes run on integers only.  The one non-integral denominator factor,
1 - p^-4 X, is cleared to p^4 - X, and the p^4 it gains moves into the
numerators of the terms that carry it (the d7 terms of f_poly, the C1 term
of the oracle), so every division is an exact division over Z that raises
on a remainder.  The eight terms are written once, in the per-prime memo
_closed_form_terms: each is a monomial N x^m1 y^m2 z^m3 over one of three
denominators, stored as (coefficient, exponent) pairs next to the
denominator's cofactor in the common denominator.  f_poly makes one
integer pass: each term, at the given profile, is one int times its
cofactor shifted by one exponent, and the eight are added into a single
{exponent: int} dict before one exact division (LaurentPoly.divide_exact);
genfun's table route sums pairs of the same terms.  f_poly is memoized on
(p, m1, m2, m3) for the life of the process.  The oracle reads neither memo
and sums its own two terms over its own common denominator, so a check of
one route against the other always computes both and shares no step
between them.

SiegelPoly checks f_i = f_{m-i}, the local functional equation, when either
route builds a value.  So tilde(X) = X^m f(X^{-2}) (_tilde) is supported on
{-m, -m+2, ..., m} and is invariant under X -> 1/X; lift and genfun read f
itself and map to tilde once per t-coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .exactnum import LaurentPoly
from .padic import is_prime

__all__ = [
    "SiegelPoly",
    "f_poly",
    "f_poly_oracle",
    "tilde_f",
]


@dataclass(frozen=True)
class SiegelPoly:
    p: int
    m: tuple
    poly: LaurentPoly

    def __post_init__(self):
        m1, m2, m3 = self.m
        if m1 < 0 or not 0 <= m2 <= m3:
            raise ValueError(self.m)
        deg = 3 * m1 + m2 + m3
        if self.poly.valuation() < 0 or self.poly.degree() != deg:
            raise ArithmeticError("closed-form transcription error: degree")
        if self.poly.coeff(0) != 1:
            raise ArithmeticError("closed-form transcription error: f(0) != 1")
        if any(self.poly.coeff(i) != self.poly.coeff(deg - i) for i in range(deg // 2 + 1)):
            raise ArithmeticError("Siegel series is not palindromic")

    @property
    def weight(self):
        """m = 3 m1 + m2 + m3 = ord_p(det)."""
        m1, m2, m3 = self.m
        return 3 * m1 + m2 + m3

    def coeffs(self):
        return [self.poly.coeff(e) for e in range(self.weight + 1)]

    def evaluate(self, x):
        return self.poly.evaluate(x)


def _lin(c):
    """1 - c X."""
    return LaurentPoly("X", {0: 1, 1: -c})


def _mono(coeff, exp):
    return LaurentPoly.monomial(coeff, exp)


def _check_args(p, m1, m2, m3):
    if not is_prime(p):
        raise ValueError("p must be prime: %r" % (p,))
    if m1 < 0 or not 0 <= m2 <= m3:
        raise ValueError((m1, m2, m3))


def _p4_minus_x(p):
    """p^4 - X = p^4 (1 - p^-4 X), the one denominator factor cleared to Z."""
    return LaurentPoly("X", {0: p ** 4, 1: -1})


@lru_cache(maxsize=None)
def _closed_form_terms(p: int):
    """f_poly's eight terms, written once and built once per prime.

    f = sum N x^m1 y^m2 z^m3 / den over the eight terms, with N, x, y and z
    monomials in X given as (coefficient, exponent) pairs.  Two of the last
    four terms sit over d+ = (1-X)(1-p^4 X)(1-p^8 X), one over
    d5 = (1-X)^2 (1-p^4 X) and one over d7 = (1-X)^2 (p^4-X); the first four
    are their mirror images X^m term(1/X), m = 3 m1 + m2 + m3.
    half = (1-X)^2 (1-p^4 X)(1-p^8 X)(p^4-X) is a multiple of d+, d5 and d7,
    and full = half * half(1/X) is a common denominator of all eight.
    Returns ([(cof, N, x, y, z)], full) with cof = full / den, so that
    f = sum(N x^m1 y^m2 z^m3 cof) / full.  The three cofactors half / den
    are exact divisions, so a wrong denominator raises; a term and its
    mirror image share one cofactor up to X -> 1/X.  Callers share the
    returned polynomials and must not mutate them.
    """
    p4, p8 = p ** 4, p ** 8
    p4_x = _p4_minus_x(p)
    d5 = _lin(1) * _lin(1) * _lin(p4)
    half = d5 * _lin(p8) * p4_x
    half_inv = half.subst_inverse()
    # (den, [(N, x, y, z)]) for d+, d5 and d7
    over = [
        (_lin(1) * _lin(p4) * _lin(p8),
         [((1, 0), (1, 0), (1, 0), (1, 0)), ((-p8, 1), (p8, 1), (1, 0), (1, 0))]),
        (d5, [((-p4, 1), (p8, 1), (p4, 1), (1, 0))]),
        # the d7 term carries the p^4 that d7 gained over (1-X)^2 (1-p^-4 X)
        (_lin(1) * _lin(1) * p4_x, [((-p4, 1), (p8, 1), (p4, 0), (1, 1))]),
    ]
    terms, mirrors = [], []
    for den, monos in over:
        cof = half.divide_exact(den) * half_inv
        cof_inv = cof.subst_inverse()
        for t in monos:
            terms.append((cof, *t))
            # X^m = X^{3 m1} X^m2 X^m3 shifts the exponents of N, x, y, z by 0, 3, 1, 1
            mirrors.append((cof_inv, *((c, s - e) for (c, e), s in zip(t, (0, 3, 1, 1)))))
    return tuple(mirrors + terms), half * half_inv


@lru_cache(maxsize=None)
def f_poly(p: int, m1: int, m2: int, m3: int) -> SiegelPoly:
    """Eight-term closed form, summed over one common denominator.

    The terms come from the per-prime memo _closed_form_terms.  At
    (m1, m2, m3) a term's monomial N x^m1 y^m2 z^m3 is one int c and one
    exponent e, so the term adds c times its cofactor, shifted by e, into a
    single {exponent: int} dict; the sum is divided by the common
    denominator once, exactly, so a sum that is not a polynomial raises.
    Memoized on (p, m1, m2, m3); callers share the returned object.
    """
    _check_args(p, m1, m2, m3)
    terms, full = _closed_form_terms(p)
    num = {}
    for cof, (c, e), (xc, xe), (yc, ye), (zc, ze) in terms:
        c *= xc ** m1 * yc ** m2 * zc ** m3
        e += xe * m1 + ye * m2 + ze * m3
        for ce, cv in cof.c.items():
            num[e + ce] = num.get(e + ce, 0) + c * cv
    return SiegelPoly(p, (m1, m2, m3), LaurentPoly("X", num).divide_exact(full))


def _base_poly(p: int, m2: int, m3: int) -> LaurentPoly:
    """sum_k (p^4 X)^k (1 + X + ... + X^{m2+m3-2k}) for k = 0..m2."""
    out = LaurentPoly.zero("X")
    for k in range(m2 + 1):
        n = m2 + m3 + 1 - 2 * k
        geo = LaurentPoly("X", {e: 1 for e in range(n)})
        out = out + _mono(p ** (4 * k), k) * geo
    return out


def f_poly_oracle(p: int, m1: int, m2: int, m3: int) -> SiegelPoly:
    """Recursion route: base polynomial plus the C0/C1 step in m1.

    f = f0(X) (C0(1/X) X^{3m1} + C1(1/X) p^{8m1} X^{2m1}
               + C1(X) p^{8m1} X^{m1} + C0(X)).
    """
    _check_args(p, m1, m2, m3)
    p4, p8 = p ** 4, p ** 8
    f0 = _base_poly(p, m2, m3)
    fm = _base_poly(p, m2 - 1, m3 - 1) if m2 >= 1 else LaurentPoly.zero("X")
    c0_den = _lin(1) * _lin(p4) * _lin(p8) * f0
    c1_num = (f0 - fm.shift(2)) * _lin(p8) - LaurentPoly(
        "X", {0: 1, 1: 1 + p4}
    )
    # C1's factor 1 - X/p^4 is scaled to p^4 - X; its numerators carry the p^4
    p4_x = _p4_minus_x(p)
    c1_den = _lin(p8) * _lin(1) * p4_x * f0
    # a multiple of both C0 and C1 denominators; the minus side uses X -> 1/X
    half = c0_den * p4_x
    half_inv = half.subst_inverse()
    q = p ** (8 * m1 + 4)
    terms = [
        (f0, _mono(1, 3 * m1) * f0, c0_den),
        (
            c1_num * _mono(q, m1) * f0,
            c1_num.subst_inverse() * _mono(q, 2 * m1) * f0,
            c1_den,
        ),
    ]
    # sum(num / den + num_inv / den(1/X)) over half * half(1/X): the
    # cofactors half / den and the final quotient are exact divisions, so a
    # wrong denominator or a sum that is not a polynomial raises
    plus = minus = LaurentPoly.zero("X")
    for num, num_inv, den in terms:
        cof = half.divide_exact(den)
        plus = plus + num * cof
        minus = minus + num_inv * cof.subst_inverse()
    f = (plus * half_inv + minus * half).divide_exact(half * half_inv)
    return SiegelPoly(p, (m1, m2, m3), f)


def _tilde(poly: LaurentPoly, weight: int) -> LaurentPoly:
    """X^weight poly(X^{-2})."""
    return poly.subst_power(-2).shift(weight)


def tilde_f(s: SiegelPoly) -> LaurentPoly:
    """X^m f(X^{-2}); palindromic with support in {-m, ..., m} step 2."""
    return _tilde(s.poly, s.weight)
