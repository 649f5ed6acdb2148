"""Hecke-eigenvalue data, Satake power sums, and Fourier coefficients of the
lifted form, together with its symmetric-square local factor.

The coefficient of a positive definite integral element T is
det(T)^{(2k-9)/2} times a product of local factors, one per prime dividing
det(T).  The half-integral power of p is never evaluated: it is distributed
into the local factor and paired with the parity of the symmetrized Siegel
polynomial, so every exponent is an integer and the arithmetic stays exact.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import prod

from .padic import factor_table, genus_invariants, is_prime
from .siegel import f_poly

__all__ = [
    "EigenData",
    "eigen_delta",
    "eigen_from_csv",
    "eigen_from_rows",
    "fourier_coeff",
    "local_factor",
    "sym2_coeffs",
    "tau_table",
]


# ---------------------------------------------------------------------------
# Coefficients of the weight-12 elliptic generator


def _trunc_sqr(coeffs, order):
    """Truncated square of an integer coefficient list, by one big squaring.

    Kronecker substitution: the signed list is packed little end first into
    one integer (the pack of its positive parts minus the pack of its
    negative parts), and one squaring performs the whole convolution.  The
    slot width bounds every |coefficient| of the square below half a slot, so
    a half-slot bias added to each slot read back makes it a nonnegative
    field that decodes with no carries.
    """
    c = coeffs[: order + 1]
    width = 2 * max(abs(v).bit_length() for v in c) + (order + 1).bit_length() + 2
    wb = (width + 7) // 8
    half = 1 << (8 * wb - 1)

    def pack(a):
        return int.from_bytes(b"".join(v.to_bytes(wb, "little") for v in a), "little")

    x = pack(max(v, 0) for v in c) - pack(max(-v, 0) for v in c)
    b = (x * x + pack([half] * (order + 1))).to_bytes(2 * wb * (order + 1), "little")
    return [int.from_bytes(b[i * wb : (i + 1) * wb], "little") - half for i in range(order + 1)]


@lru_cache(maxsize=8)
def tau_table(N):
    """Coefficients tau(1..N) of the discriminant cusp form, as a tuple.

    The cube of the eta product is the sparse series
    J = sum_{n>=0} (-1)^n (2n+1) q^{n(n+1)/2}, so the q-expansion follows
    from three truncated squarings: Delta / q = J^8.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    order = N - 1
    J = [0] * (order + 1)
    n = 0
    while n * (n + 1) // 2 <= order:
        J[n * (n + 1) // 2] = (2 * n + 1) if n % 2 == 0 else -(2 * n + 1)
        n += 1
    out = J
    for _ in range(3):
        out = _trunc_sqr(out, order)
    return tuple(out)


# ---------------------------------------------------------------------------
# Eigenvalue data


@dataclass(frozen=True)
class EigenData:
    """Eigenvalues a_f(p) of a primitive form of weight 2k - 8.

    k is the half-weight of the lift (the lift has weight 2k); table maps
    each available prime to its exact eigenvalue.  Ingest enforces the
    sharp bound a_f(p)^2 <= 4 p^{2k-9}.
    """

    k: int
    table: dict

    def __post_init__(self):
        if not isinstance(self.k, int) or self.k < 10:
            raise ValueError("k must be an integer >= 10")
        for p, a in self.table.items():
            if not _within_bound(a, p, 2 * self.k - 9):
                raise ValueError("eigenvalue at p=%d violates the coefficient bound" % p)

    def a(self, p):
        if p not in self.table:
            raise KeyError("no eigenvalue ingested for prime %d" % p)
        return self.table[p]


def _within_bound(a, p, w):
    """Whether a^2 <= 4 p^w, for a = n/d any rational (an int, a Fraction).

    With b the bit length, 2^(b(x)-1) <= x < 2^b(x), so bit lengths settle
    n^2 <= 4 p^w d^2 unless 2 b(n) lies strictly between w (b(p) - 1) + 2 b(d)
    and w b(p) + 2 b(d) + 4; only there is p^w formed.
    """
    a = Fraction(a)
    n, d = abs(a.numerator), a.denominator
    floor = p.bit_length() - 1
    if 2 * n.bit_length() <= w * floor + 2 * d.bit_length():
        return True
    if 2 * n.bit_length() >= 4 + w * (floor + 1) + 2 * d.bit_length():
        return False
    return n * n <= 4 * p ** w * d * d


def eigen_delta(max_prime=100):
    """Built-in EigenData for the weight-12 generator (k = 10)."""
    taus = tau_table(max_prime)
    table = {n: taus[n - 1] for n, fac in enumerate(factor_table(max_prime)) if fac == [(n, 1)]}
    return EigenData(10, table)


def eigen_from_rows(k, rows):
    """EigenData from an iterable of (p, a_p) pairs, each p a prime listed once."""
    table = {}
    for p, a in rows:
        p = int(p)
        if not is_prime(p):
            raise ValueError("p = %d is not a prime" % p)
        if p in table:
            raise ValueError("prime %d is listed twice" % p)
        a = Fraction(a) if not isinstance(a, int) else a
        if a == int(a):
            a = int(a)
        table[p] = a
    return EigenData(k, table)


def eigen_from_csv(path, k):
    """EigenData from a CSV file with header 'p,a_p', one prime per row."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or [f.strip() for f in reader.fieldnames] != ["p", "a_p"]:
            raise ValueError("eigenvalue CSV needs the header 'p,a_p'")
        # rows are keyed by the header as written; a header such as 'p, a_p'
        # passes the check above, so key them by the stripped names
        reader.fieldnames = ["p", "a_p"]
        rows = []
        for row in reader:
            if row["p"] is None or row["a_p"] is None:
                raise ValueError("row %d needs both p and a_p" % reader.line_num)
            if None in row:  # DictReader keeps the fields past the header under None
                raise ValueError("row %d has more than the two fields p and a_p" % reader.line_num)
            try:
                rows.append((row["p"], Fraction(row["a_p"])))
            except ZeroDivisionError:
                raise ValueError("row %d: a_p = %r has a zero denominator"
                                 % (reader.line_num, row["a_p"])) from None
    return eigen_from_rows(k, rows)


# ---------------------------------------------------------------------------
# Satake power sums and Fourier coefficients


def satake_power_sums(a_p, p, k, jmax):
    """t_j = p^{j(2k-9)/2} (alpha^j + alpha^{-j}) for j = 0..jmax, exactly.

    t_0 = 2, t_1 = a_p, t_{j+1} = a_p t_j - p^{2k-9} t_{j-1}.
    """
    if jmax < 0:
        raise ValueError("jmax must be >= 0")
    q = p ** (2 * k - 9)
    out = [2]
    if jmax >= 1:
        out.append(a_p)
    for _ in range(2, jmax + 1):
        out.append(a_p * out[-1] - q * out[-2])
    return out


def local_factor(p, exps, eigen):
    """The factor at p of a coefficient with elementary divisors exps at p.

    Equals p^{m(2k-9)/2} tilde_f(alpha_p) for m = sum(exps).  f is
    palindromic, so that is sum_{i <= m/2} f_i p^{i(2k-9)} t_{m-2i} with t_0
    read as 1; m - 2i = m (mod 2) keeps all exponents integral.
    """
    a1, a2, a3 = exps
    m = a1 + a2 + a3
    if m == 0:
        return 1
    f = f_poly(p, a1, a2 - a1, a3 - a1).poly
    ts = satake_power_sums(eigen.a(p), p, eigen.k, m)
    q = p ** (2 * eigen.k - 9)
    return sum(f.coeff(i) * q ** i * (ts[m - 2 * i] if 2 * i < m else 1)
               for i in range(m // 2 + 1))


def fourier_coeff(T, eigen):
    """Coefficient of the lift at a positive definite integral element T.

    Product over p | det(T) of local_factor; exact (an integer whenever the
    eigenvalues are integers).
    """
    if not T.is_positive():
        raise ValueError("T must be positive definite")
    return prod(local_factor(p, div.exps, eigen) for p, div in genus_invariants(T).items())


# ---------------------------------------------------------------------------
# Symmetric-square local factor


def sym2_coeffs(a_p, p, k):
    """Inverse local factor of the symmetric square in u = p^{-s}:
    [1, -s1, s1, -1] with s1 = a_p^2 p^{-(2k-9)} - 1.

    Unitary normalization; rational because only even powers of the Satake
    parameter survive the symmetric-function elimination.
    """
    s1 = Fraction(a_p * a_p, p ** (2 * k - 9)) - 1
    return [Fraction(1), -s1, s1, Fraction(-1)]

