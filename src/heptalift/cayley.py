"""Cayley numbers (octonions) with an integral maximal order.

The multiplication table on the standard basis e_0..e_7 uses the Fano lines
{i, i+1, i+3} (indices 1..7 cyclically mod 7) with e_i e_{i+1} = e_{i+3},
each line cyclic, distinct imaginary units anticommuting and e_i^2 = -e_0.

The maximal order is spanned by

    a_0 = e_0, a_1 = e_1, a_2 = e_2, a_3 = -e_4,
    a_4 = (e_1 + e_2 + e_3 - e_4)/2,
    a_5 = (-e_0 - e_1 - e_4 + e_5)/2,
    a_6 = (-e_0 + e_1 - e_2 + e_6)/2,
    a_7 = (-e_0 + e_2 + e_4 + e_7)/2.

Elements are stored by their integer coordinates on a_0..a_7; the trace
pairing on this basis is unimodular (E8), which is checked at import, along
with N(a_i) = 1 and closure of the order under multiplication.  Closure is
checked as integrality of the trace pairings Tr(a_i a_j conj(a_l)): a
unimodular lattice is its own dual, so an octonion lies in the order exactly
when its trace pairing with every a_l is an integer, and the integer
coordinates of a_i a_j then come from those pairings and the inverse Gram.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

__all__ = [
    "Octonion",
    "QQ",
    "ZZ",
    "Zmod",
    "gram_det",
    "structure_constants",
    "trace_pairing_gram",
]


# ---------------------------------------------------------------------------
# rings

class IntegerRing:
    def el(self, v):
        if isinstance(v, Fraction):
            if v.denominator != 1:
                raise ValueError("not an integer: %s" % v)
            return v.numerator
        return int(v)

    def is_unit(self, v):
        return v in (1, -1)

    def inv(self, v):
        if not self.is_unit(v):
            raise ZeroDivisionError("non-unit in Z: %s" % v)
        return v

    def half(self, v):
        if v % 2:
            raise ArithmeticError("result is not integral")
        return v // 2

    def __repr__(self):
        return "Z"


class RationalRing:
    def el(self, v):
        return Fraction(v)

    def is_unit(self, v):
        return v != 0

    def inv(self, v):
        return 1 / Fraction(v)

    def half(self, v):
        return Fraction(v) / 2

    def __repr__(self):
        return "Q"


@dataclass(frozen=True, repr=False)
class Zmod:
    """Z/m with representatives 0..m-1; two rings with the same m are equal."""

    m: int

    def __post_init__(self):
        if self.m < 2:
            raise ValueError(self.m)

    def el(self, v):
        if isinstance(v, Fraction):
            if gcd(v.denominator, self.m) != 1:
                raise ZeroDivisionError("denominator not invertible mod %d" % self.m)
            return v.numerator * pow(v.denominator, -1, self.m) % self.m
        return int(v) % self.m

    def is_unit(self, v):
        return gcd(int(v), self.m) == 1

    def inv(self, v):
        return pow(int(v), -1, self.m)

    def half(self, v):
        if self.m % 2 == 0:
            raise ZeroDivisionError("2 is not invertible mod %d" % self.m)
        return v * pow(2, -1, self.m) % self.m

    def __repr__(self):
        return "Z/%d" % self.m


ZZ = IntegerRing()
QQ = RationalRing()


# ---------------------------------------------------------------------------
# e-basis multiplication table

def _build_e_table():
    """e_i * e_j = (index, sign) for i,j in 0..7."""
    pair = {}
    for i in range(1, 8):
        a, b, c = i, i % 7 + 1, (i + 2) % 7 + 1
        for (u, v, w) in ((a, b, c), (b, c, a), (c, a, b)):
            pair[(u, v)] = (w, 1)
            pair[(v, u)] = (w, -1)
    table = {}
    for i in range(8):
        for j in range(8):
            if i == 0:
                table[(i, j)] = (j, 1)
            elif j == 0:
                table[(i, j)] = (i, 1)
            elif i == j:
                table[(i, j)] = (0, -1)
            else:
                table[(i, j)] = pair[(i, j)]
    return table


_E_TABLE = _build_e_table()


def _e_mul(u, v):
    """Bilinear product of e-coordinate vectors (any scalar type)."""
    out = [0] * 8
    for i, ui in enumerate(u):
        if not ui:
            continue
        for j, vj in enumerate(v):
            if not vj:
                continue
            k, s = _E_TABLE[(i, j)]
            out[k] += ui * vj if s > 0 else -ui * vj
    return out


# doubled e-coordinates of the order basis (rows are 2*a_i)
_ALPHA_2E = (
    (2, 0, 0, 0, 0, 0, 0, 0),
    (0, 2, 0, 0, 0, 0, 0, 0),
    (0, 0, 2, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, -2, 0, 0, 0),
    (0, 1, 1, 1, -1, 0, 0, 0),
    (-1, -1, 0, 0, -1, 1, 0, 0),
    (-1, 1, -1, 0, 0, 0, 1, 0),
    (-1, 0, 1, 0, 1, 0, 0, 1),
)


def _mat_inv_frac(m):
    """Inverse and determinant of a square rational matrix, by one Gauss-Jordan
    elimination; ArithmeticError when it is singular."""
    n = len(m)
    a = [[Fraction(m[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            raise ArithmeticError("singular matrix")
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a], det


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _build_structure(alpha2e, gram_inv):
    """Coordinates of a_i a_j on the basis whose doubled e-coordinates are
    the rows of alpha2e, given the inverse of its trace-pairing Gram G.

    t_l = Tr(a_i a_j conj(a_l)) = (4 a_i a_j) . (2 a_l) / 4 on doubled
    e-coordinates, and a_i a_j = sum_k (t G^-1)_k a_k.  The order is its own
    dual under the trace pairing (G is unimodular), so the product lies in
    the order exactly when every t_l is an integer; closure is checked so.
    """
    cols = tuple(zip(*gram_inv))
    S = []
    for u in alpha2e:
        row = []
        for v in alpha2e:
            prod4 = _e_mul(u, v)  # = 4 a_i a_j
            t4 = [_dot(prod4, w) for w in alpha2e]
            if any(t % 4 for t in t4):
                raise ArithmeticError("order not closed under multiplication")
            row.append(tuple(_dot([t // 4 for t in t4], col) for col in cols))
        S.append(tuple(row))
    return tuple(S)


# Gram of the trace pairing Tr(x conj(y)) = (2x) . (2y) / 2 on doubled coords
_GRAM = tuple(tuple(_dot(u, v) // 2 for v in _ALPHA_2E) for u in _ALPHA_2E)
_GRAM_INV, _GRAM_DET = _mat_inv_frac(_GRAM)


def _check_tables():
    for i in range(8):
        n2 = _dot(_ALPHA_2E[i], _ALPHA_2E[i])
        if n2 != 4:  # N(a_i) = 1 on doubled coordinates
            raise ArithmeticError("basis vector %d has norm %s" % (i, Fraction(n2, 4)))
    if _GRAM_DET != 1:
        raise ArithmeticError("trace pairing Gram determinant is not 1")


_check_tables()
# a unimodular integer matrix has an integer inverse
_S = _build_structure(_ALPHA_2E, [[int(v) for v in row] for row in _GRAM_INV])


def _lin_source(coeffs, names):
    """Source text of sum_j coeffs[j] names[j] for integer coeffs, with zero
    coefficients left out."""
    return "".join(
        ("+" if c > 0 else "-") + ("" if abs(c) == 1 else "%d*" % abs(c)) + name
        for c, name in zip(coeffs, names) if c).lstrip("+") or "0"


def _form_source(rows, names):
    """Source text of sum_i x_i (sum_j rows[i][j] names[j]) for integer rows,
    with zero coefficients left out and each x_i multiplied once."""
    return "+".join("x%d*(%s)" % (i, _lin_source(row, names))
                    for i, row in enumerate(rows) if any(row)) or "0"


_XS = ["x%d" % i for i in range(8)]
_YS = ["y%d" % j for j in range(8)]


def _compile(name, args, expr):
    """Straight-line function `name(*args)` returning the source text `expr`;
    unrolling removes the interpreter loop from the octonion primitives."""
    ns = {}
    exec("def %s(%s):\n    return %s" % (name, ",".join(args), expr), ns)
    return ns[name]


def _build_mul_kernel():
    """Product of two coordinate vectors, generated from _S: every structure
    constant is +-1, so each output coordinate is a sum of x_i times a signed
    sum of y_j."""
    if any(v not in (0, 1, -1) for plane in _S for row in plane for v in row):
        raise AssertionError("structure constants are not all +-1")
    exprs = [_form_source([[_S[i][j][k] for j in range(8)] for i in range(8)], _YS)
             for k in range(8)]
    return _compile("mul", _XS + _YS, "(%s)" % ",".join(exprs))


_MUL_RAW = _build_mul_kernel()

# trace of each basis vector: Tr(x) = x + conj(x) = 2 * (e_0 coefficient)
_TRV = tuple(row[0] for row in _ALPHA_2E)

# N(x) = sum_i x_i (G_ii/2 x_i + sum_{j>i} G_ij x_j)
_NORM_RAW = _compile("norm", _XS, _form_source(
    [[_GRAM[i][i] // 2 if j == i else _GRAM[i][j] if j > i else 0 for j in range(8)]
     for i in range(8)], _XS))
_POLAR_RAW = _compile("polar", _XS + _YS, _form_source(_GRAM, _YS))
_TRACE_RAW = _compile("trace", _XS, _lin_source(_TRV, _XS))
# conj(x) = Tr(x) - x
_CONJ_RAW = _compile("conj", _XS, "(%s)" % ",".join(
    _lin_source([_TRV[j] * (k == 0) - (j == k) for j in range(8)], _XS)
    for k in range(8)))


def structure_constants():
    return _S


def trace_pairing_gram():
    """8x8 integer Gram matrix of (x, y) -> Tr(x conj(y)); determinant 1."""
    return _GRAM


def gram_det() -> int:
    return _GRAM_DET.numerator


# ---------------------------------------------------------------------------
# octonions

class Octonion:
    __slots__ = ("ring", "co")

    def __init__(self, ring, coords):
        self.ring = ring
        co = tuple(coords)
        # plain ints are already canonical in Z
        if ring is not ZZ or not all(type(v) is int for v in co):
            co = tuple(map(ring.el, co))
        self.co = co

    @classmethod
    def _raw(cls, ring, coords):
        """Internal: coords already canonical (Z/Q) or just need a mod reduce."""
        o = cls.__new__(cls)
        o.ring = ring
        if isinstance(ring, Zmod):
            m = ring.m
            o.co = tuple(v % m for v in coords)
        else:
            o.co = tuple(coords)
        return o

    @classmethod
    def zero(cls, ring=ZZ):
        return cls(ring, (0,) * 8)

    @classmethod
    def scalar(cls, v, ring=ZZ):
        return cls(ring, (v, 0, 0, 0, 0, 0, 0, 0))

    @classmethod
    def basis(cls, i, ring=ZZ):
        co = [0] * 8
        co[i] = 1
        return cls(ring, co)

    def is_zero(self):
        return all(not v for v in self.co)

    def __eq__(self, other):
        return (
            isinstance(other, Octonion)
            and self.ring == other.ring
            and self.co == other.co
        )

    def __hash__(self):
        return hash((self.ring, self.co))

    def __add__(self, other):
        return Octonion._raw(self.ring, [a + b for a, b in zip(self.co, other.co)])

    def __sub__(self, other):
        return Octonion._raw(self.ring, [a - b for a, b in zip(self.co, other.co)])

    def __neg__(self):
        return Octonion._raw(self.ring, [-a for a in self.co])

    def __mul__(self, other):
        if isinstance(other, Octonion):
            return Octonion._raw(self.ring, _MUL_RAW(*self.co, *other.co))
        return Octonion._raw(self.ring, [v * other for v in self.co])

    def __rmul__(self, other):
        return Octonion._raw(self.ring, [other * v for v in self.co])

    def conj(self):
        return Octonion._raw(self.ring, _CONJ_RAW(*self.co))

    def half(self):
        return Octonion._raw(self.ring, map(self.ring.half, self.co))

    # plain ints are already canonical in Z, so the forms skip ring.el there

    def trace(self):
        """Tr(x) = x + conj(x), as a ring scalar."""
        acc = _TRACE_RAW(*self.co)
        return acc if self.ring is ZZ else self.ring.el(acc)

    def norm(self):
        """N(x) = x conj(x), as a ring scalar."""
        acc = _NORM_RAW(*self.co)
        return acc if self.ring is ZZ else self.ring.el(acc)

    def norm_polar(self, other):
        """Tr(x conj(y)) = N(x+y) - N(x) - N(y), as a ring scalar."""
        acc = _POLAR_RAW(*self.co, *other.co)
        return acc if self.ring is ZZ else self.ring.el(acc)

    def trace_with(self, other):
        """Tr(x y) = Tr(x conj(conj(y))), as a ring scalar."""
        return self.norm_polar(other.conj())

    def map_ring(self, ring):
        return Octonion(ring, self.co)

    def to_list(self):
        return list(self.co)

    @classmethod
    def from_list(cls, coords, ring=ZZ):
        if len(coords) != 8:
            raise ValueError("octonion needs 8 coordinates")
        return cls(ring, coords)

    def __repr__(self):
        return "Octonion(%r, %s)" % (self.ring, list(self.co))
