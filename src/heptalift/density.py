"""Local densities of integral Jordan elements and the exact mass formula.

For T with elementary divisors a1 <= a2 <= a3 at p the local density has
a four-stratum closed form

    beta_p = p^{27 a1} c1              (a1 = a2 = a3)
           = p^{26 a1 + a3} c2         (a1 = a2 < a3)
           = p^{17 a1 + 10 a3} c2      (a1 < a2 = a3)
           = p^{17 a1 + 9 a2 + a3} c3  (a1 < a2 < a3)

with c1, c2, c3 explicit products of (1 - p^{-k}).  Everything here is
exact rational arithmetic; the mass formula consumes only the rational
constant 691/(2^15 3^6 5^2 7^2 13), never a transcendental value.

The Igusa series identity

    sum_{a1<=a2<=a3} u^{a1+a2+a3} / beta_p = 1 / (c1 (1-u/p)(1-u/p^5)(1-u/p^9))

is checked coefficientwise by two independent routes: the left-hand side
sums 1/beta_p over the exponent triples of each order, and the right-hand
side is one power-series expansion of the rational function, over Z in
v = u/p^9, with each coefficient rescaled once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import prod

from .exactnum import ratfun_expand
from .padic import _MODULUS_BOUND, ElemDivisors, _power_past_bound, genus_invariants, is_prime

__all__ = [
    "MASS_CONSTANT",
    "beta_exps",
    "beta_p",
    "constants",
    "exponent_triples",
    "igusa_verify",
    "mass",
]


def _prod_one_minus(p, ks):
    return prod((1 - Fraction(1, p ** k) for k in ks), start=Fraction(1))


@dataclass(frozen=True)
class DensityConstants:
    p: int
    c1: Fraction
    c2: Fraction
    c3: Fraction
    delta: Fraction

    def __post_init__(self):
        for v in (self.c1, self.c2, self.c3, self.delta):
            if not 0 < v < 1:
                raise ValueError(v)
        if self.delta != self.c1 * _prod_one_minus(self.p, (5, 9)):
            raise ValueError("delta/c1 mismatch")


@lru_cache(maxsize=None)
def constants(p: int) -> DensityConstants:
    if not is_prime(p):
        raise ValueError("p must be prime: %r" % (p,))
    return DensityConstants(
        p=p,
        c1=_prod_one_minus(p, (2, 6, 8, 12)),
        c2=_prod_one_minus(p, (2, 4, 6, 8)),
        c3=_prod_one_minus(p, (2, 4, 4, 6)),
        delta=_prod_one_minus(p, (2, 5, 6, 8, 9, 12)),
    )


def exponent_triples(m):
    """All 0 <= a1 <= a2 <= a3 with a1 + a2 + a3 = m, ascending."""
    if m < 0:
        raise ValueError("m must be >= 0")
    for a1 in range(m // 3 + 1):
        for a2 in range(a1, (m - a1) // 2 + 1):
            yield a1, a2, m - a1 - a2


def beta_exps(p: int, exps) -> Fraction:
    """Closed-form local density for the ascending exponent triple."""
    a1, a2, a3 = exps
    if not 0 <= a1 <= a2 <= a3:
        raise ValueError(exps)
    k = constants(p)
    if a1 == a2 == a3:
        return Fraction(p) ** (27 * a1) * k.c1
    if a1 == a2:
        return Fraction(p) ** (26 * a1 + a3) * k.c2
    if a2 == a3:
        return Fraction(p) ** (17 * a1 + 10 * a3) * k.c2
    return Fraction(p) ** (17 * a1 + 9 * a2 + a3) * k.c3


def beta_p(d: ElemDivisors) -> Fraction:
    return beta_exps(d.p, d.exps)


# ---------------------------------------------------------------------------
# Igusa series consistency:
#   sum over a1<=a2<=a3 of u^{a1+a2+a3} / beta_p  ==  1 / (c1 (1-u/p)(1-u/p^5)(1-u/p^9))


def igusa_lhs_coeff(p: int, m: int) -> Fraction:
    return sum((1 / beta_exps(p, exps) for exps in exponent_triples(m)), Fraction(0))


def igusa_verify(p: int, order: int):
    """Compare both u-series through u^order; returns (ok, rows).

    The right-hand side is expanded over Z in v = u/p^9, where its factors
    are 1 - p^8 v, 1 - p^4 v and 1 - v: the v^m coefficient is the integer
    N_m of the proof below, and the u^m coefficient is N_m/(c1 p^(9m)),
    rescaled once.  A right-hand numerator or denominator over 4300 digits,
    Python's default int-to-str limit, raises ValueError before any
    left-hand coefficient is computed, and before the expansion wherever p
    alone settles it: the u^m coefficient has p-valuation exactly 28 - 9m.

    Proof, for every p and m: 1/c1 = p^28/D with D = (p^2-1)(p^6-1)(p^8-1)
    (p^12-1) prime to p.  The u^m coefficient of 1/((1-u/p)(1-u/p^5)
    (1-u/p^9)) is the sum of p^-(a+5b+9c) over a+b+c = m, that is N_m/p^(9m)
    with N_m the sum of p^(8a+4b); only a = b = 0 gives p^0, so
    N_m = 1 mod p.  Hence the u^0 numerator is p^28, and for m >= 4 the
    reduced u^m denominator holds exactly p^(9m-28).
    """
    c1 = constants(p).c1
    too_long = "a coefficient through u^%d exceeds 4300 digits" % order
    if _power_past_bound(p, max(28, 9 * order - 28)):
        raise ValueError(too_long)
    series = ratfun_expand(1, [[1, -p ** 8], [1, -p ** 4], [1, -1]], order, "v")
    rhs = [series.coeff(m) / (c1 * p ** (9 * m)) for m in range(order + 1)]
    if any(max(abs(v.numerator), v.denominator) >= _MODULUS_BOUND for v in rhs):
        raise ValueError(too_long)
    rows = []
    ok = True
    for m, r in enumerate(rhs):
        lhs = igusa_lhs_coeff(p, m)
        ok = ok and lhs == r
        rows.append({"m": m, "lhs": lhs, "rhs": r, "equal": lhs == r})
    return ok, rows


# ---------------------------------------------------------------------------
# mass formula


MASS_CONSTANT = Fraction(691, 2 ** 15 * 3 ** 6 * 5 ** 2 * 7 ** 2 * 13)


def mass(T) -> Fraction:
    """Exact mass of the genus of a positive definite integral element.

    mass = MASS_CONSTANT (det T)^9 prod_{p | det T} c1(p)/beta_p(T); the
    product of c1 over the remaining primes cancels symbolically against
    the zeta values hidden in MASS_CONSTANT.
    """
    if not T.is_positive():
        raise ValueError("mass needs a positive definite element")
    out = MASS_CONSTANT * Fraction(T.det()) ** 9
    for p, div in genus_invariants(T).items():
        out *= constants(p).c1 / beta_p(div)
    return out
