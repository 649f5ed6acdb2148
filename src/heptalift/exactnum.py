"""Exact scalar arithmetic: Laurent polynomials and their truncated series
expansion, Bernoulli/zeta values, and a small symbolic ring for products of
pi-powers, odd zeta values and symmetric-square L-values.

Everything here is over Q (fractions.Fraction), except exact polynomial
division, which is over Z; nothing floats except the BigFloat carrier at the
bottom, which wraps mpmath with a tracked error bound.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce

import mpmath

__all__ = [
    "BigFloat",
    "LaurentPoly",
    "SpecialValue",
    "bernoulli",
    "frac_str",
    "rational_reconstruct",
    "zeta_special",
]


def frac_str(q) -> str:
    """Serialize a rational as 'num/den' (or 'num' when the denominator is 1)."""
    return str(Fraction(q))


# ---------------------------------------------------------------------------
# Laurent polynomials


def _is_scalar(v):
    return isinstance(v, (int, Fraction))


class LaurentPoly:
    """Laurent polynomial in one variable: dict exponent -> coefficient.

    Coefficients are Fraction/int, or nested LaurentPoly in a different
    variable.  Exponents may be negative.  Zero coefficients are stripped.
    """

    __slots__ = ("var", "c")

    def __init__(self, var="X", coeffs=None):
        self.var = var
        self.c = {}
        if coeffs:
            for e, v in coeffs.items():
                if v:
                    self.c[e] = v

    @classmethod
    def zero(cls, var="X"):
        return cls(var)

    @classmethod
    def const(cls, value, var="X"):
        return cls(var, {0: value})

    @classmethod
    def monomial(cls, coeff, exp, var="X"):
        return cls(var, {exp: coeff})

    def __bool__(self):
        return bool(self.c)

    def is_one(self):
        return set(self.c) == {0} and self.c[0] == 1

    def coeff(self, e):
        return self.c.get(e, 0)

    def support(self):
        return sorted(self.c)

    def valuation(self):
        if not self.c:
            raise ValueError("valuation of zero")
        return min(self.c)

    def degree(self):
        if not self.c:
            raise ValueError("degree of zero")
        return max(self.c)

    def _coerce(self, other):
        if isinstance(other, LaurentPoly):
            return other
        if _is_scalar(other):
            return LaurentPoly.const(other, self.var)
        return None

    def __eq__(self, other):
        if _is_scalar(other):
            if not self.c:
                return other == 0
            return set(self.c) == {0} and self.c[0] == other
        if isinstance(other, LaurentPoly):
            if not self.c and not other.c:
                return True
            return self.var == other.var and self.c == other.c
        return NotImplemented

    def __hash__(self):
        if not self.c:
            return hash(0)
        if set(self.c) == {0} and _is_scalar(self.c[0]):
            return hash(self.c[0])
        return hash((self.var, tuple(sorted((e, str(v)) for e, v in self.c.items()))))

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        c = dict(self.c)
        for e, v in o.c.items():
            w = c.get(e, 0) + v
            if w:
                c[e] = w
            else:
                c.pop(e, None)
        return LaurentPoly(self.var, c)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(self.var, {e: -v for e, v in self.c.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        c = {}
        for e1, v1 in self.c.items():
            for e2, v2 in o.c.items():
                w = v1 * v2
                if w:
                    e = e1 + e2
                    u = c.get(e, 0) + w
                    if u:
                        c[e] = u
                    else:
                        c.pop(e, None)
        return LaurentPoly(self.var, c)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a Laurent polynomial")
        out = LaurentPoly.const(1, self.var)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def shift(self, k):
        """Multiply by var^k."""
        return LaurentPoly(self.var, {e + k: v for e, v in self.c.items()})

    def subst_inverse(self):
        """var -> var^-1."""
        return LaurentPoly(self.var, {-e: v for e, v in self.c.items()})

    def subst_power(self, k):
        """var -> var^k (k nonzero integer, possibly negative)."""
        return LaurentPoly(self.var, {e * k: v for e, v in self.c.items()})

    def map_coeffs(self, f):
        return LaurentPoly(self.var, {e: f(v) for e, v in self.c.items()})

    def evaluate(self, x):
        """Evaluate at a scalar x (Fraction for negative exponents)."""
        total = 0
        for e, v in self.c.items():
            if e >= 0:
                total += v * x ** e
            else:
                total += v * Fraction(1, 1) / Fraction(x) ** (-e)
        return total

    def divide_exact(self, den: "LaurentPoly") -> "LaurentPoly":
        """Exact division over Z by another Laurent polynomial.

        Coefficients must be integers; the quotient must be integral too, and
        a nonzero remainder at any step raises ArithmeticError.
        """
        if not den:
            raise ZeroDivisionError("division by zero polynomial")
        if not self:
            return LaurentPoly.zero(self.var)
        sv, dv = self.valuation(), den.valuation()
        dd = {e - dv: v for e, v in den.c.items()}
        ddeg = max(dd)
        lead = dd[ddeg]
        q = {}
        rem = {e - sv: v for e, v in self.c.items()}
        while rem:
            rdeg = max(rem)
            if rdeg < ddeg:
                raise ArithmeticError("inexact polynomial division")
            f, r = divmod(rem[rdeg], lead)
            if r:
                raise ArithmeticError("inexact polynomial division")
            q[rdeg - ddeg] = f
            for e, v in dd.items():
                ee = e + rdeg - ddeg
                w = rem.get(ee, 0) - f * v
                if w:
                    rem[ee] = w
                else:
                    rem.pop(ee, None)
        return LaurentPoly(self.var, {e + sv - dv: v for e, v in q.items()})

    def __repr__(self):
        if not self.c:
            return "0"
        bits = []
        for e in sorted(self.c):
            v = self.c[e]
            vs = f"({v})" if isinstance(v, LaurentPoly) else str(v)
            if e == 0:
                bits.append(vs)
            elif e == 1:
                bits.append(f"{vs}*{self.var}")
            else:
                bits.append(f"{vs}*{self.var}^{e}")
        return " + ".join(bits)


# ---------------------------------------------------------------------------
# Truncated power series


def ratfun_expand(numerator, denominator_factors, order, var="t"):
    """Expand numerator / prod(denominator_factors) through var^order.

    numerator and each factor may be a scalar, a dict {degree: coeff}, a list
    of coefficients, or a LaurentPoly with nonnegative support; coefficients
    may be Laurent polynomials in another variable.  The factors are
    multiplied into one denominator, which needs an invertible constant term,
    and divided out in ascending order.  Returns a LaurentPoly in var with
    support in [0, order].
    """
    if order < 0:
        raise ValueError("order must be >= 0")

    def as_poly(x):
        if isinstance(x, LaurentPoly):
            x = x.c
        elif isinstance(x, list):
            x = dict(enumerate(x))
        elif not isinstance(x, dict):
            x = {0: x}
        if any(e < 0 and v for e, v in x.items()):
            raise ValueError("negative exponents cannot enter a power series")
        return LaurentPoly(var, x)

    num = as_poly(numerator)
    den = LaurentPoly.const(1, var)
    for f in denominator_factors:
        den = den * as_poly(f)
    c0 = den.coeff(0)
    if isinstance(c0, LaurentPoly):
        if not c0.is_one():
            raise ZeroDivisionError("series constant term not invertible: %r" % (c0,))
        c0inv = 1
    elif c0 == 0:
        raise ZeroDivisionError("series constant term is zero")
    else:
        c0inv = Fraction(1) / Fraction(c0)
    tail = [(j, v) for j, v in den.c.items() if 0 < j <= order]
    out = {}
    for n in range(order + 1):
        acc = num.coeff(n)
        for j, v in tail:
            if j <= n and n - j in out:
                acc = acc - v * out[n - j]
        if acc:
            out[n] = acc * c0inv if c0inv != 1 else acc
    return LaurentPoly(var, out)


# ---------------------------------------------------------------------------
# Bernoulli numbers and zeta values


@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n (B_1 = -1/2 convention)."""
    if n < 0:
        raise ValueError(n)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(-1, 2)
    if n % 2 == 1:
        return Fraction(0)
    # sum_{k=0}^{n} C(n+1,k) B_k = 0
    acc = Fraction(0)
    c = 1  # C(n+1, 0)
    for k in range(n):
        acc += c * bernoulli(k)
        c = c * (n + 1 - k) // (k + 1)
    return -acc / (n + 1)


def zeta_even_pi_coeff(n: int) -> Fraction:
    """zeta(n) = coeff * pi^n for even n >= 2; returns coeff."""
    if n < 2 or n % 2:
        raise ValueError("need an even integer >= 2")
    # zeta(2m) = (-1)^{m+1} B_{2m} (2 pi)^{2m} / (2 (2m)!)
    m = n // 2
    num = (-1) ** (m + 1) * bernoulli(n) * Fraction(2 ** n, 2)
    fact = 1
    for i in range(2, n + 1):
        fact *= i
    return num / fact


# ---------------------------------------------------------------------------
# SpecialValue: exact ring Q[pi^{1/2}, pi^{-1/2}, zeta(odd), L(odd, Sym^2)]


def _symkey(symbols: dict) -> tuple:
    return tuple(sorted((s, e) for s, e in symbols.items() if e))


class SpecialValue:
    """Finite Q-linear combination of monomials pi^(h/2) * prod(symbol^e).

    Symbols are opaque strings ("zeta5", "symsq9", ...).  Even zeta values are
    expanded into pi-powers at construction; odd ones stay symbolic.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for (h, sk), c in terms.items():
                c = Fraction(c)
                if c:
                    self.terms[(h, sk)] = self.terms.get((h, sk), Fraction(0)) + c
            self.terms = {k: v for k, v in self.terms.items() if v}

    @classmethod
    def rational(cls, q):
        return cls({(0, ()): Fraction(q)})

    @classmethod
    def pi_half_power(cls, h, coeff=1):
        return cls({(h, ()): Fraction(coeff)})

    @classmethod
    def symbol(cls, name, coeff=1, pi_half=0):
        return cls({(pi_half, ((name, 1),)): Fraction(coeff)})

    def is_zero(self):
        return not self.terms

    def is_single_term(self):
        return len(self.terms) == 1

    def __eq__(self, other):
        if isinstance(other, SpecialValue):
            return self.terms == other.terms
        return self.terms == SpecialValue.rational(other).terms

    def __add__(self, other):
        if not isinstance(other, SpecialValue):
            other = SpecialValue.rational(other)
        t = dict(self.terms)
        for k, v in other.terms.items():
            w = t.get(k, Fraction(0)) + v
            if w:
                t[k] = w
            else:
                t.pop(k, None)
        return SpecialValue(t)

    __radd__ = __add__

    def __neg__(self):
        return SpecialValue({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, SpecialValue):
            other = SpecialValue.rational(other)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, SpecialValue):
            other = SpecialValue.rational(other)
        t = {}
        for (h1, s1), c1 in self.terms.items():
            for (h2, s2), c2 in other.terms.items():
                syms = dict(s1)
                for name, e in s2:
                    syms[name] = syms.get(name, 0) + e
                k = (h1 + h2, _symkey(syms))
                w = t.get(k, Fraction(0)) + c1 * c2
                if w:
                    t[k] = w
                else:
                    t.pop(k, None)
        return SpecialValue(t)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, SpecialValue):
            other = SpecialValue.rational(other)
        if not other.is_single_term():
            raise ArithmeticError("can only divide by a single-term value")
        ((h, sk), c), = other.terms.items()
        inv = SpecialValue({(-h, tuple((s, -e) for s, e in sk)): 1 / c})
        return self * inv

    def as_rational_pi_power(self):
        """If the value is c * pi^(h/2) with no symbols, return (c, h)."""
        if not self.terms:
            return Fraction(0), 0
        if not self.is_single_term():
            raise ValueError("not a monomial")
        ((h, sk), c), = self.terms.items()
        if sk:
            raise ValueError("symbols remain: %r" % (sk,))
        return c, h

    def serialize(self):
        out = []
        for (h, sk) in sorted(self.terms, key=lambda k: (k[0], k[1])):
            out.append(
                {
                    "coeff": frac_str(self.terms[(h, sk)]),
                    "pi_half_power": h,
                    "symbols": {name: e for name, e in sk},
                }
            )
        return out

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (h, sk), c in sorted(self.terms.items()):
            s = str(c)
            if h:
                s += f" * pi^({h}/2)"
            for name, e in sk:
                s += f" * {name}" + (f"^{e}" if e != 1 else "")
            bits.append(s)
        return " + ".join(bits)


def zeta_special(n: int) -> SpecialValue:
    """zeta(n) as a SpecialValue: pi-monomial for even n, symbol for odd n >= 3."""
    if n % 2 == 0:
        return SpecialValue.pi_half_power(2 * n, zeta_even_pi_coeff(n))
    if n < 3:
        raise ValueError("odd zeta needs n >= 3")
    return SpecialValue.symbol(f"zeta{n}")


def symsq_special(r: int) -> SpecialValue:
    """Symbolic symmetric-square L-value L(r, Sym^2 pi_f)."""
    return SpecialValue.symbol(f"symsq{r}")


def gamma_half_special(j: int) -> SpecialValue:
    """Gamma(j/2) for positive integer j, as an exact SpecialValue."""
    if j <= 0:
        raise ValueError("Gamma at a non-positive argument")
    if j % 2 == 0:
        m = j // 2
        f = 1
        for i in range(2, m):
            f *= i
        return SpecialValue.rational(f if m > 1 else 1)
    # Gamma(1/2) = sqrt(pi); Gamma(j/2) = (j-2)!! / 2^((j-1)/2) * sqrt(pi)
    dd = 1
    k = j - 2
    while k > 1:
        dd *= k
        k -= 2
    return SpecialValue.pi_half_power(1, Fraction(dd, 2 ** ((j - 1) // 2)))


# ---------------------------------------------------------------------------
# Rational reconstruction


def _simplest_between(lo: Fraction, hi: Fraction) -> Fraction:
    """Fraction with the smallest denominator in the closed interval [lo, hi]."""
    if lo > hi:
        lo, hi = hi, lo
    # continued-fraction walk; terminates because the interval has length > 0
    coefs = []
    while True:
        ceil_lo = -((-lo.numerator) // lo.denominator)
        if ceil_lo <= hi:
            coefs.append(ceil_lo)
            break
        fl = lo.numerator // lo.denominator
        coefs.append(fl)
        lo, hi = 1 / (hi - fl), 1 / (lo - fl)
    out = Fraction(coefs[-1])
    for a in reversed(coefs[:-1]):
        out = a + 1 / out
    return out


def rational_reconstruct(x, error_bound, max_denominator=10 ** 12):
    """Simplest rational p/q with |x - p/q| < error_bound and q <= max_denominator.

    Returns None when no such fraction exists.  x may be a Fraction, an int,
    or a decimal string.
    """
    xf = Fraction(x) if not isinstance(x, Fraction) else x
    eb = error_bound if isinstance(error_bound, Fraction) else Fraction(str(error_bound))
    if eb <= 0:
        raise ValueError("error bound must be positive")
    cand = _simplest_between(xf - eb, xf + eb)
    if cand.denominator <= max_denominator and abs(xf - cand) < eb:
        return cand
    return None


def _rounding(v):
    """Bound on the error of v, rounded once at the working precision."""
    return abs(v) * mpmath.mpf(2) ** (-mpmath.mp.prec + 2)


def _up(*terms):
    """Sum of nonnegative error terms, rounded upward."""
    return reduce(lambda s, t: mpmath.fadd(s, t, rounding="u"), terms)


class BigFloat:
    """mpmath value with an absolute error bound covering the input intervals
    and the rounding of the value; bounds are computed with upward rounding."""

    __slots__ = ("value", "err")

    def __init__(self, value, err=0):
        self.value = mpmath.mpf(value) if not isinstance(value, mpmath.mpf) else value
        self.err = mpmath.mpf(err)

    @classmethod
    def exact(cls, q):
        q = Fraction(q)
        v = mpmath.mpf(q.numerator) / q.denominator
        return cls(v, _rounding(v))

    def __add__(self, other):
        o = other if isinstance(other, BigFloat) else BigFloat(other)
        v = self.value + o.value
        return BigFloat(v, _up(self.err, o.err, _rounding(v)))

    __radd__ = __add__

    def __neg__(self):
        return BigFloat(-self.value, self.err)

    def __sub__(self, other):
        o = other if isinstance(other, BigFloat) else BigFloat(other)
        v = self.value - o.value
        return BigFloat(v, _up(self.err, o.err, _rounding(v)))

    def __mul__(self, other):
        o = other if isinstance(other, BigFloat) else BigFloat(other)
        v = self.value * o.value
        err = _up(
            mpmath.fmul(abs(self.value), o.err, rounding="u"),
            mpmath.fmul(abs(o.value), self.err, rounding="u"),
            mpmath.fmul(self.err, o.err, rounding="u"),
            _rounding(v),
        )
        return BigFloat(v, err)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = other if isinstance(other, BigFloat) else BigFloat(other)
        if abs(o.value) <= o.err:
            raise ZeroDivisionError("divisor interval contains zero: %r" % (o,))
        v = self.value / o.value
        r = _rounding(v)
        # x/y - v = (dx - (x/y) dy)/y + (x/y - v), over the whole divisor
        # interval |y| >= |o.value| - o.err, with |x/y| <= |v| + r
        gap = mpmath.fsub(abs(o.value), o.err, rounding="d")
        num = _up(self.err, mpmath.fmul(_up(abs(v), r), o.err, rounding="u"))
        return BigFloat(v, _up(mpmath.fdiv(num, gap, rounding="u"), r))

    def digits(self):
        """Correct decimal digits implied by the tracked bound."""
        if self.err == 0:
            return mpmath.mp.dps
        if self.value == 0:
            return float(-mpmath.log10(self.err))
        return float(mpmath.log10(abs(self.value) / self.err))

    def __repr__(self):
        return f"BigFloat({mpmath.nstr(self.value, 20)}, err={mpmath.nstr(self.err, 3)})"
