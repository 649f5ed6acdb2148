"""Exhaustive rank census of the exceptional Jordan algebra over F_2.

An element is packed into 27 bits: bit 0..2 hold the diagonal (a, b, c) and
bits 3..10, 11..18, 19..26 hold the order coordinates of the off-diagonal
octonions x, y, z reduced mod 2, in the layout (a, b, c, x[0..7], y[0..7],
z[0..7]).  The packed index is bijective with J(F_2), so iterating over
range(2^27) enumerates the algebra once.

The mod-2 arithmetic is precompiled from the integral-order structure
constants into lookup tables: a 256 x 256 octonion product table, a
conjugation table, and a norm-bit table.  Addition is XOR, so determinant
and adjoint evaluate as vectorized byte operations; rank classification
follows the generic rule (zero; nonzero with vanishing adjoint; vanishing
determinant; invertible).

The census runs in one process, one z byte at a time: rank 3 from four
block counts of the polar matrix, rank 1 from the few (x, y) pairs that a
vanishing adjoint allows (see `_counts`), and rank 2 as the remainder.

Full enumeration is limited to p = 2; for p = 3 a seeded uniform sampler
reports stratum fractions with a binomial confidence interval as a
statistical consistency check only.
"""

import itertools
import random
from fractions import Fraction
from math import sqrt

import numpy as np

from .cayley import Octonion, ZZ, Zmod
from .density import beta_exps, constants
from .jordan import JordanElement

__all__ = [
    "beta_from_census",
    "census_f2",
    "pack_f2",
    "rank_f2",
    "sample_rank_fractions",
    "unpack_f2",
]

_BITS = 27
_SIZE = 1 << _BITS

_T = None


def _oct_byte(o):
    """Mod-2 coordinate byte of an octonion in the order basis."""
    return sum(((int(v) & 1) << i) for i, v in enumerate(o.co))


def _tables():
    """(MUL2, CONJ2, N2, MC): mod-2 product, conjugation, norm bit, and the
    row-gathered table MC[u, v] = conj(u) * v."""
    global _T
    if _T is None:
        idx = np.arange(256)
        bits = [((idx >> i) & 1).astype(np.uint8) for i in range(8)]
        mul2 = np.zeros((256, 256), np.uint8)
        for i in range(8):
            ei = Octonion.basis(i)
            for j in range(8):
                m = _oct_byte(ei * Octonion.basis(j))
                if m:
                    mul2 ^= (bits[i][:, None] & bits[j][None, :]) * np.uint8(m)
        conj2 = np.zeros(256, np.uint8)
        for i in range(8):
            cb = _oct_byte(Octonion.basis(i).conj())
            if cb:
                conj2 ^= bits[i] * np.uint8(cb)
        n2 = np.array(
            [int(Octonion(ZZ, [(u >> i) & 1 for i in range(8)]).norm()) & 1
             for u in range(256)],
            np.uint8,
        )
        _T = (mul2, conj2, n2, mul2[conj2, :])
    return _T


def pack_f2(X):
    """Packed index of a Jordan element with coordinates reduced mod 2."""
    out = (int(X.a) & 1) | ((int(X.b) & 1) << 1) | ((int(X.c) & 1) << 2)
    for base, o in ((3, X.x), (11, X.y), (19, X.z)):
        out |= _oct_byte(o) << base
    return out


def unpack_f2(idx, ring=None):
    """Jordan element for a packed index; defaults to the field of two
    elements."""
    if not 0 <= idx < _SIZE:
        raise ValueError("packed index out of range")
    if ring is None:
        ring = Zmod(2)
    co = lambda base: [(idx >> (base + i)) & 1 for i in range(8)]
    return JordanElement(
        ring,
        idx & 1, (idx >> 1) & 1, (idx >> 2) & 1,
        Octonion(ring, co(3)), Octonion(ring, co(11)), Octonion(ring, co(19)),
    )


def rank_f2(idx):
    """Rank stratum of a packed index via the table kernel."""
    if not 0 <= idx < _SIZE:
        raise ValueError("packed index out of range")
    if idx == 0:
        return 0
    mul2, conj2, n2, _ = _tables()
    a, b, c = idx & 1, (idx >> 1) & 1, (idx >> 2) & 1
    xb, yb, zb = (idx >> 3) & 255, (idx >> 11) & 255, (idx >> 19) & 255
    nx, ny, nz = int(n2[xb]), int(n2[yb]), int(n2[zb])
    xz = int(mul2[xb, zb])
    det = (
        (a & b & c) ^ (a & nz) ^ (b & ny) ^ (c & nx)
        ^ int(n2[xz ^ yb]) ^ int(n2[xz]) ^ ny
    )
    if det:
        return 3
    adj_zero = (
        ((b & c) ^ nz) == 0
        and ((a & c) ^ ny) == 0
        and ((a & b) ^ nx) == 0
        and int(mul2[yb, int(conj2[zb])]) == (xb if c else 0)
        and xz == (yb if b else 0)
        and int(mul2[int(conj2[xb]), yb]) == (zb if a else 0)
    )
    return 1 if adj_zero else 2


def _rank1_mask(xs, ys, z, a, b, c):
    """Mask of the candidate pairs (xs, ys) for which (a, b, c, x, y, z) has
    vanishing adjoint and determinant; the arrays broadcast together."""
    mul2, conj2, n2, mc = _tables()
    nx, ny = n2[xs], n2[ys]
    xz = mul2[xs, z]
    det = n2[xz ^ ys] ^ n2[xz] ^ ny ^ (b & ny) ^ (c & nx) \
        ^ ((a & b & c) ^ (a & int(n2[z])))
    return (
        (nx == (a & b)) & (ny == (a & c)) & (det == 0)
        & (mul2[ys, int(conj2[z])] == (xs if c else 0))
        & (xz == (ys if b else 0))
        & (mc[xs, ys] == (z if a else 0))
    )


def _counts():
    """(n1, n3): the raw rank-1 count over all of J(F_2), where the zero
    element is counted and fixed up by the caller, and the rank-3 counts
    n3[z][4a + 2b + c] of each z byte and diagonal (a, b, c).

    Rank 3: with x and y sorted by N mod 2, each (N(x), N(y)) class is a
    contiguous block of the polar matrix N(xz + y) + N(xz) + N(y), and the
    diagonal terms of det only flip whole blocks, so four block counts per z
    give the rank-3 count of every (a, b, c).  Rank 1: a vanishing adjoint
    needs x z = b y and y conj(z) = c x, so the candidates are (x, xz) for
    b = 1, (y conj(z), y) for c = 1, and the product of the two annihilators
    for b = c = 0; every condition is then tested on the candidates.
    """
    mul2, conj2, n2, _ = _tables()
    u = np.arange(256, dtype=np.uint8)
    order = np.argsort(n2, kind="stable").astype(np.uint8)
    k0 = 256 - int(n2.sum())
    sizes = (k0, 256 - k0)
    blocks = (slice(None, k0), slice(k0, None))
    polar = n2[u[:, None] ^ order[None, :]] ^ n2[:, None] ^ n2[order][None, :]
    n1 = 0
    n3 = [[0] * 8 for _ in range(256)]
    for z in range(256):
        nz = int(n2[z])
        xz = mul2[:, z]
        yzc = mul2[:, int(conj2[z])]
        pz = polar[xz[order]]
        ones = [[int(np.count_nonzero(pz[r, s])) for s in blocks] for r in blocks]
        for abc, (a, b, c) in enumerate(itertools.product((0, 1), repeat=3)):
            k = (a & b & c) ^ (a & nz)
            for i in (0, 1):
                for j in (0, 1):
                    flip = k ^ (b & j) ^ (c & i)
                    n3[z][abc] += sizes[i] * sizes[j] - ones[i][j] if flip else ones[i][j]
            if (b & c) != nz:
                continue
            if b:
                xs, ys = u, xz
            elif c:
                xs, ys = yzc, u
            else:
                xs, ys = np.flatnonzero(xz == 0)[:, None], np.flatnonzero(yzc == 0)[None, :]
            n1 += int(np.count_nonzero(_rank1_mask(xs, ys, z, a, b, c)))
    return n1, n3


def census_f2():
    """Rank-stratum counts over all 2^27 elements of J(F_2)."""
    n1, by_z = _counts()
    n3 = sum(map(sum, by_z))
    # the zero element has vanishing adjoint but rank 0
    return {"rank0": 1, "rank1": n1 - 1, "rank2": _SIZE - n1 - n3, "rank3": n3}


def beta_from_census(p=2, counts=None):
    """Density of the unit class recovered from the census orbit count.

    Computes delta_2 (1 - 1/2) 2^27 / rank3 and checks it against the
    closed-form density of the unit class; a mismatch is a hard failure.
    """
    if p != 2:
        raise ValueError("full enumeration is only available mod 2")
    if counts is None:
        counts = census_f2()
    got = (
        constants(2).delta
        * Fraction(1, 2)
        * Fraction(2 ** _BITS, counts["rank3"])
    )
    want = beta_exps(2, (0, 0, 0))
    if got != want:
        raise ArithmeticError(
            "census count contradicts the closed-form density: "
            f"{got} != {want}"
        )
    return got


def sample_rank_fractions(p=3, samples=20000, seed=0):
    """Seeded uniform sample of rank strata over F_p (statistical check).

    Returns counts, the sampled rank-3 fraction with a 95% binomial
    confidence interval, and the predicted fraction
    (1 - p^-1)(1 - p^-5)(1 - p^-9).
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = random.Random(seed)
    ring = Zmod(p)
    counts = [0, 0, 0, 0]
    for _ in range(samples):
        X = JordanElement(
            ring,
            rng.randrange(p), rng.randrange(p), rng.randrange(p),
            Octonion(ring, [rng.randrange(p) for _ in range(8)]),
            Octonion(ring, [rng.randrange(p) for _ in range(8)]),
            Octonion(ring, [rng.randrange(p) for _ in range(8)]),
        )
        counts[X.rank_mod_p()] += 1
    phat = counts[3] / samples
    expected = (1 - Fraction(1, p)) * (1 - Fraction(1, p ** 5)) * (1 - Fraction(1, p ** 9))
    half = 1.96 * sqrt(max(phat * (1 - phat), 1e-12) / samples)
    return {
        "p": p,
        "samples": samples,
        "counts": {f"rank{r}": counts[r] for r in range(4)},
        "rank3_fraction": phat,
        "rank3_expected": float(expected),
        "ci95": (phat - half, phat + half),
    }
