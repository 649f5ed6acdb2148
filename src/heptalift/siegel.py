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
numerators of the terms that carry it (the d7 term of f_poly, the C1 term
of the oracle), so every division is an exact division over Z that raises
on a remainder.  f_poly's denominators and their cofactors depend on p
alone, so they are built once per prime (_f_poly_denominators); each call
then adds four monomial pairs over them and makes one exact division.
f_poly is memoized on (p, m1, m2, m3) for the life of the process.  The
oracle reads neither memo and sums its own terms (_sum_symmetric), so a
check of one route against the other always computes both and shares no
step between them.

tilde(X) = X^m f(X^{-2}) is supported on {-m, -m+2, ..., m} and is
invariant under X -> 1/X.
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
    "symmetric_coefficients",
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


def _sum_symmetric(half: LaurentPoly, terms) -> LaurentPoly:
    """sum(num / den + num_inv / den(1/X)) over (num, num_inv, den) in terms.

    Every den divides half, so half * half(1/X) is a common denominator.  The
    cofactors half / den and the final quotient are exact divisions: a wrong
    denominator or a sum that is not a Laurent polynomial raises.
    """
    plus = minus = LaurentPoly.zero("X")
    for num, num_inv, den in terms:
        cof = half.divide_exact(den)
        plus = plus + num * cof
        minus = minus + num_inv * cof.subst_inverse()
    half_inv = half.subst_inverse()
    return (plus * half_inv + minus * half).divide_exact(half * half_inv)


@lru_cache(maxsize=None)
def _f_poly_denominators(p: int):
    """The pieces of f_poly that depend on p alone, built once per prime.

    half = (1-X)^2 (1-p^4 X)(1-p^8 X)(p^4-X) is a multiple of the three
    term denominators d+, d5 and d7, and full = half * half(1/X) is the
    common denominator of all eight terms.  For each den this returns
    (A, A(1/X)) with A = (half / den) * half(1/X), so that
    num / den + num_inv / den(1/X) = (num A + num_inv A(1/X)) / full.
    The cofactors half / den are exact divisions: a wrong denominator raises.
    Callers share the returned polynomials and must not mutate them.
    """
    p4, p8 = p ** 4, p ** 8
    # p^4 - X = p^4 (1 - p^-4 X) keeps every coefficient an integer
    p4_x = LaurentPoly("X", {0: p4, 1: -1})
    d_plus = _lin(1) * _lin(p4) * _lin(p8)
    d5 = _lin(1) * _lin(1) * _lin(p4)
    d7 = _lin(1) * _lin(1) * p4_x
    half = d5 * _lin(p8) * p4_x
    half_inv = half.subst_inverse()
    over = []
    for den in (d_plus, d5, d7):
        a = half.divide_exact(den) * half_inv
        over.append((a, a.subst_inverse()))
    return tuple(over), half * half_inv


@lru_cache(maxsize=None)
def f_poly(p: int, m1: int, m2: int, m3: int) -> SiegelPoly:
    """Eight-term closed form, summed over one common denominator.

    The denominators come from the per-prime memo _f_poly_denominators; each
    call adds its four monomial pairs over them and divides by the common
    denominator once, exactly, so a sum that is not a polynomial raises.
    Memoized on (p, m1, m2, m3); callers share the returned object.
    """
    _check_args(p, m1, m2, m3)
    (over_plus, over5, over7), full = _f_poly_denominators(p)
    a = -(p ** (8 * m1 + 8))
    b = -(p ** (8 * m1 + 4 * (m2 + 1)))
    # the d7 term carries the p^4 that d7 gained over (1-X)^2 (1-p^-4 X)
    c = -(p ** (8 * m1 + 4 * m2 + 4))
    terms = [
        (1, 0, 3 * m1 + m2 + m3, over_plus),
        (a, m1 + 1, 2 * m1 + m2 + m3 - 1, over_plus),
        (b, m1 + m2 + 1, 2 * m1 + m3 - 1, over5),
        (c, m1 + m3 + 1, 2 * m1 + m2 - 1, over7),
    ]
    num = LaurentPoly.zero("X")
    for coeff, e, e_inv, (over, over_inv) in terms:
        num = num + _mono(coeff, e) * over + _mono(coeff, e_inv) * over_inv
    return SiegelPoly(p, (m1, m2, m3), num.divide_exact(full))


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
    p4_x = LaurentPoly("X", {0: p4, 1: -1})
    c1_den = _lin(p8) * _lin(1) * p4_x * f0
    # a multiple of both C0 and C1 denominators; the minus side uses X -> 1/X
    half = c0_den * p4_x
    q = p ** (8 * m1 + 4)
    terms = [
        (f0, _mono(1, 3 * m1) * f0, c0_den),
        (
            c1_num * _mono(q, m1) * f0,
            c1_num.subst_inverse() * _mono(q, 2 * m1) * f0,
            c1_den,
        ),
    ]
    return SiegelPoly(p, (m1, m2, m3), _sum_symmetric(half, terms))


def tilde_f(s: SiegelPoly) -> LaurentPoly:
    """X^m f(X^{-2}); palindromic with support in {-m, ..., m} step 2."""
    t = s.poly.subst_power(-2).shift(s.weight)
    if t != t.subst_inverse():
        raise ArithmeticError("symmetrized series is not palindromic")
    return t


def symmetric_coefficients(t: LaurentPoly, m: int):
    """c_j with t = sum_{j>0} c_j (X^j + X^-j) + [m even] c_0, j = m, m-2, ...

    Returned in descending j order, ending at j = 1 or j = 0.
    """
    if t != t.subst_inverse():
        raise ValueError("not palindromic")
    for e in t.support():
        if (e - m) % 2 or abs(e) > m:
            raise ValueError("support incompatible with weight %d" % m)
    return [t.coeff(j) for j in range(m, -1, -2)]
