"""Exact scalar arithmetic: Laurent polynomials and their truncated series
expansion, Bernoulli/zeta values, and exact monomials in pi^(1/2), odd zeta
values and symmetric-square L-values.

Everything here is over Q (fractions.Fraction), except exact polynomial
division, which is over Z; nothing floats except the BigFloat carrier at the
bottom, which wraps mpmath with a tracked error bound.  mpmath is imported
inside BigFloat's code and bernoulli only, so the exact layers load without it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from math import factorial, prod

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
        """Evaluate at a scalar x, with int or Fraction coefficients.

        With x = a/b in lowest terms and lo, hi the least and greatest
        exponent, one Horner pass over Z sums N = sum c_e a^(e-lo) b^(hi-e),
        and the value is the one Fraction N a^lo / b^hi.  x = 0 raises
        ZeroDivisionError when lo < 0.
        """
        if not self.c:
            return Fraction(0)
        x = Fraction(x)
        a, b = x.numerator, x.denominator
        es = sorted(self.c, reverse=True)
        n, b_pow, prev = 0, 1, es[0]
        for e in es:
            b_pow *= b ** (prev - e)
            n = n * a ** (prev - e) + self.c[e] * b_pow
            prev = e
        if prev < 0:
            return Fraction(n * b ** -prev, b_pow * a ** -prev)
        return Fraction(n * a ** prev, b_pow * b ** prev)

    def divide_exact(self, den: "LaurentPoly") -> "LaurentPoly":
        """Exact division over Z by another Laurent polynomial.

        Coefficients must be integers; the quotient must be integral too, and
        a nonzero remainder at any step raises ArithmeticError.  Both sides
        are shifted to valuation 0 and the remainder, a list indexed by
        degree, is walked down once from the top; whatever is left below the
        divisor's degree must be zero.
        """
        if not den:
            raise ZeroDivisionError("division by zero polynomial")
        if not self:
            return LaurentPoly.zero(self.var)
        sv, dv = self.valuation(), den.valuation()
        dd = [(e - dv, v) for e, v in den.c.items()]
        ddeg, lead = den.degree() - dv, den.c[den.degree()]
        rem = [0] * (self.degree() - sv + 1)
        for e, v in self.c.items():
            rem[e - sv] = v
        q = {}
        for top in range(len(rem) - 1, ddeg - 1, -1):
            if rem[top]:
                f, r = divmod(rem[top], lead)
                if r:
                    raise ArithmeticError("inexact polynomial division")
                k = top - ddeg
                q[k + sv - dv] = f
                for e, v in dd:
                    rem[k + e] -= f * v
        if any(rem[:ddeg]):
            raise ArithmeticError("inexact polynomial division")
        return LaurentPoly(self.var, q)

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
    """Bernoulli number B_n (B_1 = -1/2 convention), exact from mpmath."""
    import mpmath
    if n < 0:
        raise ValueError(n)
    return Fraction(*mpmath.bernfrac(n))


def zeta_even_pi_coeff(n: int) -> Fraction:
    """zeta(n) = coeff * pi^n for even n >= 2; returns coeff."""
    if n < 2 or n % 2:
        raise ValueError("need an even integer >= 2")
    # zeta(2m) = (-1)^{m+1} B_{2m} (2 pi)^{2m} / (2 (2m)!)
    m = n // 2
    return (-1) ** (m + 1) * bernoulli(n) * Fraction(2 ** n, 2) / factorial(n)


# ---------------------------------------------------------------------------
# SpecialValue: exact monomials c * pi^{h/2} * prod(symbol^e)


class SpecialValue:
    """One monomial coeff * pi^(pi_half/2) * prod(symbol^e).

    Symbols are opaque strings ("zeta5", "symsq9", ...), kept as a sorted
    tuple of (name, exponent) pairs with zero exponents dropped; zero is the
    monomial with coeff 0, no pi power and no symbols.  Even zeta values are
    expanded into pi-powers at construction; odd ones stay symbolic.  The
    residue algebra only multiplies and divides, so the values stay monomials.
    """

    __slots__ = ("coeff", "pi_half", "symbols")

    def __init__(self, coeff, pi_half=0, symbols=()):
        self.coeff = Fraction(coeff)
        self.pi_half = pi_half if self.coeff else 0
        self.symbols = tuple(sorted((s, e) for s, e in symbols if e)) if self.coeff else ()

    def __eq__(self, other):
        if _is_scalar(other):
            other = SpecialValue(other)
        if not isinstance(other, SpecialValue):
            return NotImplemented
        return (self.coeff, self.pi_half, self.symbols) == (
            other.coeff, other.pi_half, other.symbols)

    def __mul__(self, other):
        if not isinstance(other, SpecialValue):
            other = SpecialValue(other)
        syms = dict(self.symbols)
        for name, e in other.symbols:
            syms[name] = syms.get(name, 0) + e
        return SpecialValue(self.coeff * other.coeff, self.pi_half + other.pi_half, syms.items())

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, SpecialValue):
            other = SpecialValue(other)
        inv = SpecialValue(1 / other.coeff, -other.pi_half, ((s, -e) for s, e in other.symbols))
        return self * inv

    def as_rational_pi_power(self):
        """If the value is c * pi^(h/2) with no symbols, return (c, h)."""
        if self.symbols:
            raise ValueError("symbols remain: %r" % (self.symbols,))
        return self.coeff, self.pi_half

    def serialize(self):
        """The value as a list of its monomials: one element, or [] for zero."""
        if not self.coeff:
            return []
        return [{"coeff": frac_str(self.coeff), "pi_half_power": self.pi_half,
                 "symbols": dict(self.symbols)}]

    def __repr__(self):
        s = str(self.coeff)
        if self.pi_half:
            s += f" * pi^({self.pi_half}/2)"
        for name, e in self.symbols:
            s += f" * {name}" + (f"^{e}" if e != 1 else "")
        return s


def zeta_special(n: int) -> SpecialValue:
    """zeta(n) as a SpecialValue: pi-monomial for even n, symbol for odd n >= 3."""
    if n % 2 == 0:
        return SpecialValue(zeta_even_pi_coeff(n), 2 * n)
    if n < 3:
        raise ValueError("odd zeta needs n >= 3")
    return SpecialValue(1, 0, ((f"zeta{n}", 1),))


def symsq_special(r: int) -> SpecialValue:
    """Symbolic symmetric-square L-value L(r, Sym^2 pi_f)."""
    return SpecialValue(1, 0, ((f"symsq{r}", 1),))


def gamma_half_special(j: int) -> SpecialValue:
    """Gamma(j/2) for positive integer j, as an exact SpecialValue."""
    if j <= 0:
        raise ValueError("Gamma at a non-positive argument")
    if j % 2 == 0:
        return SpecialValue(factorial(j // 2 - 1))
    # Gamma(1/2) = sqrt(pi); Gamma(j/2) = (j-2)!! / 2^((j-1)/2) * sqrt(pi)
    return SpecialValue(Fraction(prod(range(j - 2, 1, -2)), 2 ** ((j - 1) // 2)), 1)


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
    import mpmath
    return abs(v) * mpmath.mpf(2) ** (-mpmath.mp.prec + 2)


def _up(*terms):
    """Sum of nonnegative error terms, rounded upward."""
    import mpmath
    return reduce(lambda s, t: mpmath.fadd(s, t, rounding="u"), terms)


class BigFloat:
    """mpmath value with an absolute error bound covering the input intervals
    and the rounding of the value; bounds are computed with upward rounding."""

    __slots__ = ("value", "err")

    def __init__(self, value, err=0):
        import mpmath
        self.value = mpmath.mpf(value) if not isinstance(value, mpmath.mpf) else value
        self.err = mpmath.mpf(err)

    @classmethod
    def exact(cls, q):
        import mpmath
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
        import mpmath
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
        import mpmath
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

    def __repr__(self):
        import mpmath
        return f"BigFloat({mpmath.nstr(self.value, 20)}, err={mpmath.nstr(self.err, 3)})"
