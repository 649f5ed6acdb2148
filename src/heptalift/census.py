"""Exhaustive rank census of the exceptional Jordan algebra over F_2.

An element of J(F_2) is its diagonal bits (a, b, c) and three bytes, the
order coordinates of the off-diagonal octonions x, y, z reduced mod 2, so the
algebra has 2^27 elements.  `_counts` never visits them one at a time: it
walks the 256 z bytes and, for each, the 256 x bytes against tables indexed
by N(y) and a byte, which covers every (x, y) pair and all eight diagonals.

The mod-2 arithmetic is precompiled from the integral-order structure
constants into plain-int lookup tables: a 256 x 256 octonion product table,
built by F_2-linearity from the 64 basis products, a conjugation table, and a
norm-bit table.  Addition is XOR; rank classification follows the generic
rule (zero; nonzero with vanishing adjoint; vanishing determinant;
invertible).

The census runs one z byte at a time: rank 3 from four block counts of the
polar form, rank 1 from the few (x, y) pairs that a vanishing adjoint allows
(see `_counts`), and rank 2 as the remainder.

Full enumeration is limited to p = 2; for p = 3 a seeded uniform sampler
reports stratum fractions with a binomial confidence interval as a
statistical consistency check only.
"""

import functools
import itertools
import random
from fractions import Fraction
from math import sqrt

from .cayley import Octonion, ZZ, Zmod
from .density import beta_exps, constants
from .jordan import JordanElement

__all__ = [
    "beta_from_census",
    "census_f2",
    "sample_rank_fractions",
]

_BITS = 27
_SIZE = 1 << _BITS


def _oct_byte(o):
    """Mod-2 coordinate byte of an octonion in the order basis."""
    return sum(((int(v) & 1) << i) for i, v in enumerate(o.co))


def _linear(images):
    """Table over all 256 bytes of the F_2-linear map sending bit i to
    images[i]."""
    t = [0] * 256
    for u in range(1, 256):
        low = u & -u
        t[u] = t[u ^ low] ^ images[low.bit_length() - 1]
    return t


@functools.cache
def _tables():
    """(MUL2, CONJ2, N2, MC): mod-2 product rows MUL2[u][v] = u v, conjugation,
    norm bit, and the rows MC[u][v] = conj(u) v."""
    e = [Octonion.basis(i) for i in range(8)]
    # column j holds u e_j for every u; row u of MUL2 is linear in v
    cols = [_linear([_oct_byte(ei * ej) for ei in e]) for ej in e]
    mul2 = [_linear(images) for images in zip(*cols)]
    conj2 = _linear([_oct_byte(ei.conj()) for ei in e])
    n2 = [Octonion(ZZ, [(u >> i) & 1 for i in range(8)]).norm() & 1
          for u in range(256)]
    return mul2, conj2, n2, [mul2[conj2[u]] for u in range(256)]


def _counts():
    """(n1, n3): the raw rank-1 count over all of J(F_2), where the zero
    element is counted and fixed up by the caller, and the rank-3 counts
    n3[z][4a + 2b + c] of each z byte and diagonal (a, b, c).

    Rank 3: cnt[s][w] counts the y with N(y) = s on which the polar form
    N(w + y) + N(w) + N(y) is 1, so one pass over x per z gives the ones of
    each (N(x), N(y)) block of N(xz + y) + N(xz) + N(y); the diagonal terms of
    det only flip whole blocks, so four block counts per z give the rank-3
    count of every (a, b, c).  Rank 1: a vanishing adjoint needs
    N(z) = bc, N(y) = ac, N(x) = ab, x z = b y, y conj(z) = c x and
    conj(x) y = a z, so the candidates are (x, xz) for b = 1, (y conj(z), y)
    for c = 1 and the product of the two annihilators for b = c = 0, each
    taken only where its norm conditions hold; the remaining conditions are
    tested on the candidates.  Substituting y = xz, or xz = 0, into det leaves
    terms that those tests already decide.
    """
    mul2, conj2, n2, mc = _tables()
    by_norm = ([u for u in range(256) if not n2[u]], [u for u in range(256) if n2[u]])
    sizes = tuple(map(len, by_norm))
    cnt = [[sum(n2[w ^ y] ^ n2[w] ^ s for y in ys) for w in range(256)]
           for s, ys in enumerate(by_norm)]
    n1 = 0
    n3 = [[0] * 8 for _ in range(256)]
    for z in range(256):
        nz = n2[z]
        xz = [row[z] for row in mul2]
        yzc = [row[conj2[z]] for row in mul2]
        ones = [[sum(map(cnt[j].__getitem__, map(xz.__getitem__, xs))) for j in (0, 1)]
                for xs in by_norm]
        for abc, (a, b, c) in enumerate(itertools.product((0, 1), repeat=3)):
            k = (a & b & c) ^ (a & nz)
            for i in (0, 1):
                for j in (0, 1):
                    flip = k ^ (b & j) ^ (c & i)
                    n3[z][abc] += sizes[i] * sizes[j] - ones[i][j] if flip else ones[i][j]
        for a in (0, 1):
            za = z if a else 0
            norm_a = by_norm[a]
            # b = 1, c = N(z): x with N(x) = a, y = xz
            n1 += sum(1 for x, y in zip(norm_a, map(xz.__getitem__, norm_a))
                      if n2[y] == a & nz and yzc[y] == (x if nz else 0) and mc[x][y] == za)
            if not nz:
                # b = 0, c = 1: y with N(y) = a, x = y conj(z)
                n1 += sum(1 for x, y in zip(map(yzc.__getitem__, norm_a), norm_a)
                          if not n2[x] and not xz[x] and mc[x][y] == za)
        if nz:
            continue
        # b = c = 0: N(x) = N(y) = 0, xz = 0, y conj(z) = 0, and conj(x) y is
        # 0 for a = 0 and z for a = 1
        ys = [y for y in by_norm[0] if not yzc[y]]
        for x in by_norm[0]:
            if not xz[x]:
                v = [mc[x][y] for y in ys]
                n1 += v.count(0) + v.count(z)
    return n1, n3


def census_f2():
    """Rank-stratum counts over all 2^27 elements of J(F_2)."""
    n1, by_z = _counts()
    n3 = sum(map(sum, by_z))
    # the zero element has vanishing adjoint but rank 0
    return {"rank0": 1, "rank1": n1 - 1, "rank2": _SIZE - n1 - n3, "rank3": n3}


def beta_from_census(counts):
    """Density at 2 of the unit class, recovered from the census counts.

    counts is a census_f2() result; only its rank3 entry is read.  Computes
    delta_2 (1 - 1/2) 2^27 / rank3 and checks it against the closed-form
    density of the unit class; a mismatch is a hard failure.
    """
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
