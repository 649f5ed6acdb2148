"""p-adic diagonalization of integral Jordan elements.

Every element with nonzero determinant is equivalent, over the p-adic
integers and under a structure-group word of multiplier 1, to a diagonal
element whose entries are unit multiples of p^a1, p^a2, p^a3 with
a1 <= a2 <= a3.  The ascending exponent triple is the complete local
invariant; this module computes it by explicit pivoting carried out
mod p^N: bring a coordinate of minimal valuation to the diagonal, clear
its row and column, and recurse on the complementary block.

Working mod p^N with N > ord_p(det) loses no information: the clearing
vector w = -pivot^{-1} (offdiag / p^mu) is known mod p^{N-mu} only, but
every place it enters is multiplied by an entry of valuation >= mu, so
all 27 coordinates stay correct mod p^N throughout.

The module also owns primes and factorizations: one sieve for every range
of integers (factor_table), and Miller-Rabin with Brent's rho for single
integers (is_prime, factorize).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .cayley import Octonion, Zmod, ZZ
from .jordan import JordanElement, _off, apply_token

__all__ = [
    "ElemDivisors",
    "Reduction",
    "elementary_divisors",
    "factor_table",
    "factorize",
    "genus_invariants",
    "is_prime",
    "reduce_at",
]


# Python's default limit on int-to-str conversion is 4300 digits:
# igusa_verify refuses a coefficient past it, which could not be printed, and
# reduce_at keeps p^precision below it, as its pinned refusal message says
_MODULUS_BOUND = 10 ** 4300


def _power_past_bound(p, n):
    """Whether p^n >= _MODULUS_BOUND; the first test spares building p^n
    when n is far too large."""
    return n * (p.bit_length() - 1) >= _MODULUS_BOUND.bit_length() or p ** n >= _MODULUS_BOUND


# factorize refuses an integer whose part free of prime factors below 2^10
# has more bits than this, before any primality test or rho step:
# factorize took 0.003-0.090 s on 20 random balanced semiprimes of 64 bits,
# up to 0.16 s at 72 bits and 0.22-0.74 s at 80 bits (rho grows like
# 2^(bits/4)), and one is_prime on a 2048-bit prime took 0.3 s (2-CPU box)
MAX_FACTOR_BITS = 64


def _vp(v, p, cap):
    """Exponent of p in the integer v, or cap when v == 0."""
    v = int(v)
    if v == 0:
        return cap
    k = 0
    while v % p == 0:
        v //= p
        k += 1
        if cap is not None and k >= cap:
            return cap
    return k


@dataclass(frozen=True)
class ElemDivisors:
    """Ascending exponents (a1, a2, a3) of the diagonal form at p."""

    p: int
    exps: tuple

    def __post_init__(self):
        e = tuple(int(v) for v in self.exps)
        if len(e) != 3 or list(e) != sorted(e) or e[0] < 0:
            raise ValueError(self.exps)
        object.__setattr__(self, "exps", e)

    @property
    def total(self):
        """a1 + a2 + a3 = ord_p(det)."""
        return sum(self.exps)


@dataclass(frozen=True)
class Reduction:
    """Result of a local reduction.

    word applies to the input (mapped mod p^precision) and yields
    reduced; it uses only permutation and row-operation tokens, so its
    determinant multiplier is exactly 1.
    """

    divisors: ElemDivisors
    word: tuple
    reduced: JordanElement
    precision: int


class _Reducer:
    """Pivoting mod p^N on the active block k..2, for steps k = 0 and 1.

    One pivot rule serves both steps.  The candidates are the diagonal
    entries k..2, then the upper slots (1,2), (1,3), (2,3) in rows >= k; the
    first of minimal valuation mu wins.  The entry (k, k) is the pivot; an
    entry (k, j) becomes it by ("m", xi, j+1, k+1) with xi from _xi; any
    other entry moves into row k by the transposition of k with its row, and
    the rule runs again.  Clearing then pushes ("m", w, k+1, j+1) for each
    j > k, which zeroes the entry (k, j).
    """

    def __init__(self, X, p, N):
        self.p = p
        self.N = N
        self.ring = Zmod(p ** N)
        self.Y = X.map_ring(self.ring)
        self.word = []

    def push(self, token):
        self.Y = apply_token(self.Y, token)
        self.word.append(token)

    def vp(self, v):
        return _vp(v, self.p, self.N)

    def vo(self, o):
        return min(self.vp(c) for c in o.co)

    # -- pivot placement ---------------------------------------------------

    def place_pivot(self, k):
        """Move a minimal-valuation active coordinate into diagonal slot k."""
        for _ in range(4):
            Y = self.Y
            diag = (Y.a, Y.b, Y.c)
            cands = [(self.vp(diag[r]), r, r) for r in range(k, 3)]
            cands += [(self.vo(_off(Y, r, j)), r, j) for r, j in ((0, 1), (0, 2), (1, 2)) if r >= k]
            mu, r, j = min(cands, key=lambda t: t[0])
            if mu >= self.N:
                raise ArithmeticError("all active coordinates vanish mod p^N")
            if r == j == k:
                return mu
            if r == k:
                self.push(("m", self._xi(diag[k], _off(Y, k, j), diag[j], mu), j + 1, k + 1))
            else:
                sigma = [1, 2, 3]
                sigma[k], sigma[r] = sigma[r], sigma[k]
                self.push(("perm", tuple(sigma)))
        raise ArithmeticError("pivot placement did not terminate")

    def _xi(self, d_pivot, x_off, d_other, mu):
        """xi with ord(d_pivot + Tr(x_off xi) + d_other N(xi)) == mu.

        The row operation with this xi turns the pivot diagonal entry into
        exactly that value.  Both diagonal terms have valuation > mu here,
        so the condition is ord Tr(x_off xi) == mu; the trace pairing is
        unimodular, so some basis vector meets it, and scaling xi by a unit
        never changes whether it does.
        """
        ring = self.ring
        for t in range(8):
            xi = Octonion.basis(t, ring)
            v = ring.el(d_pivot + x_off.trace_with(xi) + d_other * xi.norm())
            if self.vp(v) == mu:
                return xi
        raise ArithmeticError("no clearing vector exists; input corrupt?")

    # -- row/column clearing -----------------------------------------------

    def clear(self, k, mu):
        ring = self.ring
        pm = self.p ** mu
        uinv = pow(int((self.Y.a, self.Y.b, self.Y.c)[k]) // pm, -1, ring.m)
        for j in range(k + 1, 3):
            o = _off(self.Y, k, j)
            if not any(o.co):
                continue
            w = Octonion(ring, [-uinv * (int(cv) // pm) for cv in o.co])
            self.push(("m", w, k + 1, j + 1))
            if any(_off(self.Y, k, j).co):
                raise ArithmeticError("row clearing failed")

    def run(self):
        exps = []
        for k in (0, 1):
            mu = self.place_pivot(k)
            self.clear(k, mu)
            exps.append(mu)
        return exps


def reduce_at(X: JordanElement, p: int, precision=None) -> Reduction:
    """Diagonalize X over Z_p, returning divisors, word and reduced form."""
    if X.ring is not ZZ:
        raise TypeError("reduction expects integer coordinates")
    d = X.det()
    if d == 0:
        raise ValueError("determinant is zero")
    orddet = _vp(abs(d), p, None)
    N = orddet + 1 if precision is None else int(precision)
    if N <= orddet:
        raise ValueError("precision must exceed ord_p(det)")
    if _power_past_bound(p, N):
        raise ValueError("precision must keep p^precision below 10^4300, got %d" % N)
    red = _Reducer(X, p, N)
    a1, a2 = red.run()
    Y = red.Y
    if any(any(o.co) for o in (Y.x, Y.y, Y.z)):
        raise ArithmeticError("off-diagonal residue after reduction")
    a3 = orddet - a1 - a2
    if not a1 <= a2 <= a3:
        raise ArithmeticError("pivot exponents out of order")
    if red.vp(Y.c) != a3:
        raise ArithmeticError("corner valuation disagrees with det")
    return Reduction(ElemDivisors(p, (a1, a2, a3)), tuple(red.word), Y, N)


def elementary_divisors(X: JordanElement, p: int, precision=None) -> ElemDivisors:
    return reduce_at(X, p, precision).divisors


def genus_invariants(X: JordanElement) -> dict:
    """Elementary divisors at every prime dividing det X, as {p: ElemDivisors}."""
    d = X.det()
    if d == 0:
        raise ValueError("determinant is zero")
    return {p: elementary_divisors(X, p) for p in sorted(factorize(abs(d)))}


# ---------------------------------------------------------------------------
# integer factorization (Miller-Rabin + Brent's rho); dets stay modest but
# exactness matters, so no floating point anywhere


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int, rng) -> int:
    while True:
        y, c, m = rng.randrange(1, n), rng.randrange(1, n), 128
        g = r = q = 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def factorize(n: int) -> dict:
    """Prime factorization {p: e} of n >= 1.

    Raises ValueError when the part of n free of prime factors below 2^10
    has more than MAX_FACTOR_BITS bits.
    """
    if n < 1:
        raise ValueError(n)
    out = {}
    # a composite q divides nothing once its prime factors are divided out,
    # and what is left once q * q > n is 1 or a prime
    for q in range(2, 1 << 10):
        if q * q > n:
            break
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
    if n == 1:
        return out
    if n.bit_length() > MAX_FACTOR_BITS:
        raise ValueError("%d bits are left after trial division by the primes below 2^10; "
                         "at most %d bits are factored" % (n.bit_length(), MAX_FACTOR_BITS))
    rng = random.Random(0xFAC)
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = m
        while d == m:
            d = _brent_rho(m, rng)
        stack.append(d)
        stack.append(m // d)
    return out


def factor_table(N: int) -> list:
    """Factorizations of 0..N from one sieve: entry n lists the ascending
    (p, e) pairs of n, and entries 0 and 1 are empty."""
    table = [[] for _ in range(N + 1)]
    for p in range(2, N + 1):
        if table[p]:
            continue
        pair = (p, 1)
        for m in range(p, N + 1, p):
            table[m].append(pair)
        q, e = p * p, 2
        while q <= N:
            pair = (p, e)
            for m in range(q, N + 1, q):
                table[m][-1] = pair
            q, e = q * p, e + 1
    return table
