"""The exceptional Jordan algebra of 3x3 Hermitian octonion matrices.

An element is

        [ a   x   y ]
    X = [ x~  b   z ]      (~ is octonion conjugation; a, b, c scalars)
        [ y~  z~  c ]

stored as its upper triangle (a, b, c, x, y, z) over a common coefficient
ring; an entry below the diagonal is read as the conjugate of its upper slot,
so every element is Hermitian by construction.  The module provides the
Jordan product, the trace inner product, the cubic determinant
    det X = abc - a N(z) - b N(y) - c N(x) + Tr((x z) y~),
the quadratic adjoint X # X with (X#X)#(X#X) = det(X) X, and the generators
of the integral structure group together with their determinant multipliers.

With Y = (A, B, C, U, V, W) and <u, v> = Tr(u v~), the Jordan product
X o Y = (XY + YX)/2 has the slots
    a-slot  aA + (<x,U> + <y,V>)/2
    b-slot  bB + (<x,U> + <z,W>)/2
    c-slot  cC + (<y,V> + <z,W>)/2
    x-slot  ((a+b)U + (A+B)x + y W~ + V z~)/2
    y-slot  ((a+c)V + (A+C)y + x W + U z)/2
    z-slot  ((b+c)W + (B+C)z + x~ V + U~ y)/2
"""

from __future__ import annotations

from .cayley import Octonion, ZZ, Zmod

__all__ = [
    "JordanElement",
    "apply_word",
    "word_multiplier",
]


class JordanElement:
    __slots__ = ("ring", "a", "b", "c", "x", "y", "z")

    def __init__(self, ring, a, b, c, x, y, z):
        self.ring = ring
        self.a = ring.el(a)
        self.b = ring.el(b)
        self.c = ring.el(c)
        self.x = x if x.ring is ring else x.map_ring(ring)
        self.y = y if y.ring is ring else y.map_ring(ring)
        self.z = z if z.ring is ring else z.map_ring(ring)

    @classmethod
    def diag(cls, a, b, c, ring=ZZ):
        zero = Octonion.zero(ring)
        return cls(ring, a, b, c, zero, zero, zero)

    @classmethod
    def zero(cls, ring=ZZ):
        return cls.diag(0, 0, 0, ring)

    def coords(self):
        """All 27 ring coordinates, diagonal first."""
        return (self.a, self.b, self.c) + self.x.co + self.y.co + self.z.co

    def is_zero(self):
        return all(not v for v in self.coords())

    def __eq__(self, other):
        return (
            isinstance(other, JordanElement)
            and self.ring == other.ring
            and self.coords() == other.coords()
        )

    def __hash__(self):
        return hash((self.ring, self.coords()))

    def __add__(self, other):
        return JordanElement(
            self.ring,
            self.a + other.a, self.b + other.b, self.c + other.c,
            self.x + other.x, self.y + other.y, self.z + other.z,
        )

    def __sub__(self, other):
        return JordanElement(
            self.ring,
            self.a - other.a, self.b - other.b, self.c - other.c,
            self.x - other.x, self.y - other.y, self.z - other.z,
        )

    def __neg__(self):
        return self.scale(-1)

    def scale(self, s):
        return JordanElement(
            self.ring,
            s * self.a, s * self.b, s * self.c,
            s * self.x, s * self.y, s * self.z,
        )

    def map_ring(self, ring):
        return JordanElement(
            ring, self.a, self.b, self.c,
            self.x.map_ring(ring), self.y.map_ring(ring), self.z.map_ring(ring),
        )

    # -- algebra operations ----------------------------------------------

    def det(self):
        a, b, c, x, y, z = self.a, self.b, self.c, self.x, self.y, self.z
        return self.ring.el(
            a * b * c - a * z.norm() - b * y.norm() - c * x.norm()
            + (x * z).norm_polar(y)
        )

    def adj(self):
        """Freudenthal adjoint X # X; integral (no division by 2)."""
        a, b, c, x, y, z = self.a, self.b, self.c, self.x, self.y, self.z
        return JordanElement(
            self.ring,
            b * c - z.norm(),
            a * c - y.norm(),
            a * b - x.norm(),
            y * z.conj() - c * x,
            x * z - b * y,
            x.conj() * y - a * z,
        )

    def circ(self, other):
        """Jordan product (XY + YX)/2, by the slot formulas in the module docstring."""
        R = self.ring
        a, b, c, x, y, z = self.a, self.b, self.c, self.x, self.y, self.z
        A, B, C, U, V, W = other.a, other.b, other.c, other.x, other.y, other.z
        pxu, pyv, pzw = x.norm_polar(U), y.norm_polar(V), z.norm_polar(W)
        return JordanElement(
            R,
            a * A + R.half(pxu + pyv),
            b * B + R.half(pxu + pzw),
            c * C + R.half(pyv + pzw),
            ((A + B) * x + (a + b) * U + y * W.conj() + V * z.conj()).half(),
            ((A + C) * y + (a + c) * V + x * W + U * z).half(),
            ((B + C) * z + (b + c) * W + x.conj() * V + U.conj() * y).half(),
        )

    def inner(self, other):
        """Trace form (X, Y) = Tr(X o Y), computed division-free."""
        return self.ring.el(
            self.a * other.a + self.b * other.b + self.c * other.c
            + self.x.norm_polar(other.x)
            + self.y.norm_polar(other.y)
            + self.z.norm_polar(other.z)
        )

    def cross(self, other):
        """Symmetric bilinear cross product X # Y (polarized adjoint)."""
        d = (self + other).adj() - self.adj() - other.adj()
        h = self.ring.half
        return JordanElement(self.ring, h(d.a), h(d.b), h(d.c), d.x.half(), d.y.half(), d.z.half())

    def det_expansion(self, other):
        """Coefficients [d0, d1, d2, d3] of det(X + t Y)."""
        return [
            self.det(),
            self.adj().inner(other),
            other.adj().inner(self),
            other.det(),
        ]

    def trace(self):
        return self.ring.el(self.a + self.b + self.c)

    def is_positive(self):
        """Membership in the open positivity cone (over Z or Q)."""
        if isinstance(self.ring, Zmod):
            raise TypeError("positivity needs an ordered ring")
        return (
            self.a > 0
            and self.a * self.b - self.x.norm() > 0
            and self.det() > 0
        )

    def rank_mod_p(self):
        """Rank stratum over a prime field: 0, 1, 2 or 3."""
        if self.is_zero():
            return 0
        if self.det():
            return 3
        if self.adj().is_zero():
            return 1
        return 2

    # -- serialization ----------------------------------------------------

    def to_json(self):
        return {
            "diag": [self.a, self.b, self.c],
            "x": self.x.to_list(),
            "y": self.y.to_list(),
            "z": self.z.to_list(),
        }

    @classmethod
    def from_json(cls, d, ring=ZZ):
        """Inverse of to_json.  "diag" must be a list of 3 JSON integers and
        "x", "y", "z" lists of 8; anything else (floats, strings, booleans,
        other lengths, missing keys) raises ValueError."""
        if not isinstance(d, dict):
            raise ValueError("an element is a JSON object")

        def ints(key, n):
            v = d.get(key)
            if type(v) is not list or len(v) != n or any(type(t) is not int for t in v):
                raise ValueError("%r must be a list of %d integers" % (key, n))
            return v

        a, b, c = ints("diag", 3)
        return cls(ring, a, b, c, *(Octonion.from_list(ints(k, 8), ring) for k in "xyz"))

    def __repr__(self):
        return "JordanElement(%r, diag=%r, x=%r, y=%r, z=%r)" % (
            self.ring, [self.a, self.b, self.c],
            list(self.x.co), list(self.y.co), list(self.z.co),
        )


# ---------------------------------------------------------------------------
# integral structure group generators
#
# Tokens:
#   ("gamma", eps)            diag scaling (eps, eps, 1/eps); multiplier eps
#   ("m", w, i, j)            X -> (1 + w~ e_ji) X (1 + w e_ij); multiplier 1
#   ("theta", (r1, r2, r3))   entry (i,j) scaled by r_i r_j; multiplier (r1 r2 r3)^2
#   ("perm", (s1, s2, s3))    simultaneous row/column permutation; multiplier 1


def apply_gamma(X: JordanElement, eps) -> JordanElement:
    R = X.ring
    ei = R.inv(R.el(eps))
    return JordanElement(R, eps * X.a, eps * X.b, ei * X.c, eps * X.x, X.y, X.z)


def _off(X: JordanElement, u: int, v: int) -> Octonion:
    """Off-diagonal X_uv (0-indexed): an upper slot, or the conjugate of one."""
    if u > v:
        return _off(X, v, u).conj()
    return (X.x, X.y, X.z)[u + v - 1]


def apply_m(X: JordanElement, w: Octonion, i: int, j: int) -> JordanElement:
    """X -> (1 + w~ e_ji) X (1 + w e_ij), 1-indexed positions, i != j.

    Only row j and column j change: with k the third index, X_kj gains
    X_ki w, X_ij gains X_ii w, and the (j,j) entry becomes
    X_jj + Tr(X_ji w) + X_ii N(w).  The permutation (i, j, k) -> (1, 2, 3)
    moves X_ii, X_ij, X_jj, X_ki and X_kj to the slots a, x, b, y~ and z~.
    """
    if i == j or not (1 <= i <= 3 and 1 <= j <= 3):
        raise ValueError((i, j))
    sigma = (i, j, 6 - i - j)
    Y = apply_perm(X, sigma)
    a, x, y = Y.a, Y.x, Y.y
    # Tr(x~ w) = <x, w>; the (3,2) entry z~ gains y~ w, so z gains w~ y
    Y = JordanElement(
        Y.ring, a, Y.b + x.norm_polar(w) + a * w.norm(), Y.c,
        x + a * w, y, Y.z + w.conj() * y,
    )
    return apply_perm(Y, tuple(sigma.index(v) + 1 for v in (1, 2, 3)))


def apply_theta(X: JordanElement, r1, r2, r3) -> JordanElement:
    R = X.ring
    for r in (r1, r2, r3):
        if not R.is_unit(R.el(r)):
            raise ZeroDivisionError("theta scale is not a unit: %r" % (r,))
    return JordanElement(
        R,
        r1 * r1 * X.a, r2 * r2 * X.b, r3 * r3 * X.c,
        r1 * r2 * X.x, r1 * r3 * X.y, r2 * r3 * X.z,
    )


def apply_perm(X: JordanElement, sigma) -> JordanElement:
    """Simultaneous row/column permutation; sigma is a tuple image of (1,2,3).

    The new X_uv is X_{sigma(u) sigma(v)}.
    """
    if sorted(sigma) != [1, 2, 3]:
        raise ValueError(sigma)
    diag = (X.a, X.b, X.c)
    s1, s2, s3 = (v - 1 for v in sigma)
    return JordanElement(
        X.ring, diag[s1], diag[s2], diag[s3],
        _off(X, s1, s2), _off(X, s1, s3), _off(X, s2, s3),
    )


def apply_token(X: JordanElement, token) -> JordanElement:
    kind = token[0]
    if kind == "gamma":
        return apply_gamma(X, token[1])
    if kind == "m":
        return apply_m(X, token[1], token[2], token[3])
    if kind == "theta":
        return apply_theta(X, *token[1])
    if kind == "perm":
        return apply_perm(X, token[1])
    raise ValueError(token)


def apply_word(X: JordanElement, word) -> JordanElement:
    for token in word:
        X = apply_token(X, token)
    return X


def word_multiplier(word, ring=ZZ):
    """Product of the det multipliers of the word's tokens."""
    nu = ring.el(1)
    for token in word:
        kind = token[0]
        if kind == "gamma":
            nu = ring.el(nu * token[1])
        elif kind == "theta":
            r1, r2, r3 = token[1]
            nu = ring.el(nu * (r1 * r2 * r3) ** 2)
        elif kind in ("m", "perm"):
            pass
        else:
            raise ValueError(token)
    return nu
