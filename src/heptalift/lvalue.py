"""Numeric symmetric-square L-values, the Petersson-norm period, and the
rationality probe.

The symmetric-square L-function of an eigenform of weight 2k - 8 is taken in
the analytic normalization: the local factor at p is
(1 - alpha_p^2 p^{-s})(1 - p^{-s})(1 - alpha_p^{-2} p^{-s}) with unitary
Satake parameter alpha_p, so the Dirichlet series converges for Re s > 1 and
the functional equation exchanges s and 1 - s.  The argument s here matches
the classical argument s + 2k - 9; the evaluation points s = 1, 5, 9 sit at
or right of the classical center, where smoothed summation converges fast.

The completed function is Lambda(s) = GammaR(s+1) GammaC(s+2k-9) L(s), with
GammaR(s) = pi^{-s/2} Gamma(s/2) and GammaC(s) = 2 (2 pi)^{-s} Gamma(s),
conductor 1 and sign +1.  The archimedean factor is the one analytic input
not pinned by the exact modules; the s = 9 two-method agreement check in the
test suite validates it numerically.

Lambda(s) is evaluated by the smoothed series

    Lambda(s) = sum_n b(n) [J(s, n) + J(1 - s, n)],
    J(z, n)   = (1/2 pi i) int_(c0) gamma_infinity(z + w, k) n^{-(z+w)} dw/w,

obtained by shifting the contour of int Lambda(s + w) dw/w across the pole
at w = 0 and applying the functional equation (Lambda is entire for a level
one cusp form).  Each J is computed by the trapezoid rule on a vertical
line: the integrand is analytic in a strip around the line and decays like
exp(-3 pi |t| / 4), so the rule converges geometrically and one table of
Gamma values G_j serves every n: n enters only through r^j, r = n^{-ih}.

`sym2_lvalues` evaluates several points s in one pass over n, and
`sym2_lvalue` is its one-point case.  Kernels with the same step h share
the powers r^j: the J(s) kernels of s = 1, 5, 9 and J(0) have strip 5.5,
and the J(1 - s) kernels of s = 5 and s = 9 have strip 6.5.

The node sums run in fixed point, with F = working precision + GUARD_BITS.
A kernel holds its nodes as integers at one scale 2^-S, S = F minus the
bit size of its largest node component, rounded to nearest.  At each n the
rotation r is rounded to F fractional bits and r^j = (r^{j-1} r) >> F,
rounded to nearest, is formed once per step h, so |r^j computed - r^j| <=
1.42 j 2^-F.  Each kernel sums Re(G_0/2 + sum_j G_j r^j) exactly as an
integer and rounds it once into an mpf.  Against the exact sum over its
J + 1 nodes that is off by at most

    2^(1-F) sum_j j |G_j| + 2^(1-S) (J + 1)

plus the final rounding; `_Kernel.finish` adds this term, times the
kernel's weight and n^-(z + c0), to its bound.  The final rounding and the
other working-precision errors (every node lies within 0.8 units of
2^-prec max_j |G_j| of gamma_infinity evaluated 60 bits finer, measured
for k = 10, 12 at 12, 30 and 50 digits) stay four digits below
eps = 10^-(digits + 12) and are covered by the factor 100 of the
discretization bound.  A kernel's sum depends on its nodes and n alone, so
sharing the powers changes no bit.

The nodes come from one pair of Gamma values per grid point.  On a line
Re s = x0, at s = x0 + it with t = j h, gamma_infinity(s) is M A B e^(-i
beta t) with A = Gamma((s + 1)/2), B = Gamma(s + w), w = 2k - 9, a real
magnitude M and beta = ln(pi)/2 + ln(2 pi): the complex powers of pi and
2 pi are one rotation.  The line x0 - 1 on the same grid needs no further
Gamma value: the duplication formula Gamma(s/2) Gamma((s + 1)/2) =
2^(1-s) sqrt(pi) Gamma(s) with Gamma(s) = B / prod_{m<w} (s + m) and
Gamma(s - 1 + w) = B / (s - 1 + w) give gamma_infinity(s - 1) from A and
B.  Lines further right follow from the shift rule gamma_infinity(s + 2)
= gamma_infinity(s) (s + 1)(s + w)(s + w + 1) / (8 pi^3): a kernel whose
nodes lie on the line Re = x takes the base line x0 = x - 2 floor((x -
6)/2) in [6, 8) (a line left of 6 is its own base) and moves up (x -
x0)/2 steps, each step continuing the product of the one before.  A base
line from 7 up computes its own pairs; one below 7 takes those of the
line one to its right.  So the J(s) kernels of s = 1, 5, 9 (lines 7, 11,
15) and J(0) (line 6) all come from line 7's pairs at strip 5.5, and the
J(1 - s) kernels of s = 5 and 9 (line 6) from line 7's pairs at strip
6.5; a joint pass computes each pair once and drops a line's pairs once
its kernels exist.  The polynomial factors are exact Gaussian-integer
products, the rest runs NODE_GUARD_BITS above the working precision
(t ulp(beta) would otherwise cost several units at large t), and each node
is rounded once.  A node depends only on (z, c0, k, digits), so a
one-point pass and the joint pass produce the same bits.  Each point
keeps its own stopping rule and stops at the same n as it would alone.

The six kernels of one (k, digits) are built together and kept in a
per-process memo, `_kernels`, keyed on (k, digits, working precision) and
bounded to the eight most recent keys, so `period` and `probe` at the same
digits share one build.  It holds only the kernels: integer node tables,
their scales and the error terms that depend on nothing but the key.  No
eigen table, n-sum or result is kept; the series, its stopping rules and
its error propagation run on every call.  A build reads nothing outside its
key (the precision is set from the key while it runs), and the kernels are
never changed after it (the node tables are tuples), so a hit returns the
bits a fresh build would.

Summation is serial in ascending n, so results are bit-identical across
runs.  Error bounds are conservative but heuristic at the
Gamma-kernel level; they are propagated through BigFloat, not proof-grade
intervals.
"""

from fractions import Fraction
from functools import lru_cache
from math import prod
from operator import mul
from types import MappingProxyType

import mpmath
from mpmath.libmp import (
    from_int, from_man_exp, mpf_cos_sin, mpf_log, mpf_mul, mpf_shift, to_int,
    to_rational,
)

from .exactnum import BigFloat, ratfun_expand, rational_reconstruct
from .genfun import gamma_k
from .lift import sym2_coeffs
from .padic import factor_table, factorize

__all__ = [
    "CRITICAL_POINTS",
    "gamma_infinity",
    "period_report",
    "rationality_probe",
    "reconstruct_ratio",
    "sym2_dirichlet_coeffs",
    "sym2_dirichlet_sum",
    "sym2_lvalue",
    "sym2_lvalues",
    "triple_divisor_count",
]

CRITICAL_POINTS = (1, 5, 9)
MAX_DIGITS = 100
GUARD_BITS = 32
NODE_GUARD_BITS = 16


def triple_divisor_count(n):
    """Number of ordered factorizations n = d1*d2*d3 (the d_3 bound)."""
    return prod((e + 1) * (e + 2) // 2 for e in factorize(n).values())


def _local_series(eigen, p, emax):
    """b(p^0), ..., b(p^emax): inverse of the local symmetric-square factor."""
    ser = ratfun_expand(1, [sym2_coeffs(eigen.a(p), p, eigen.k)], emax)
    return [ser.coeff(e) for e in range(emax + 1)]


def sym2_dirichlet_coeffs(eigen, N):
    """Exact coefficients b(1), ..., b(N) of the symmetric-square series.

    Returned as a list with entry i holding b(i+1).  The coefficients are
    multiplicative with |b(n)| <= d_3(n).  Raises KeyError when the
    eigenvalue table misses a needed prime.
    """
    if N < 1:
        raise ValueError("N must be positive")
    b = [Fraction(1)] * (N + 1)
    local = {}
    for n, fac in enumerate(factor_table(N)[2:], 2):
        p, e = fac[0]
        loc = local.get(p)
        if loc is None or len(loc) <= e:
            loc = _local_series(eigen, p, max(e, 4))
            local[p] = loc
        b[n] = b[n // p ** e] * loc[e]
    return b[1:]


def gamma_infinity(s, k):
    """Archimedean factor GammaR(s+1) GammaC(s+2k-9) as an mpmath value.

    This is the standard completed symmetric-square factor for a level one
    form of weight 2k - 8; accepts real or complex s.
    """
    w = 2 * k - 9
    s = mpmath.mpmathify(s)
    return (
        mpmath.pi ** (-(s + 1) / 2)
        * mpmath.gamma((s + 1) / 2)
        * 2
        * (2 * mpmath.pi) ** (-(s + w))
        * mpmath.gamma(s + w)
    )


def _contour(z, c0=None):
    """The abscissa c0 of J(z, n) (default: the one for z), the half-width
    of the pole-free strip around the line Re w = c0, which sizes the step,
    and the base line x0 of the nodes with the shift count m, z + c0 = x0 + 2m."""
    if c0 is None:
        c0 = max(6, 6 - z)
    c0 = mpmath.mpf(c0)
    x = z + c0
    m = max(0, int(mpmath.floor((x - 6) / 2)))
    return c0, min(float(c0), float(x + 1)) - 0.5, x - 2 * m, m


def _rising(x, t, offsets, acc=(1, 0, 0)):
    """acc times prod_c (x + c + it) over the integer offsets c, exactly in
    Gaussian integers: x and t are dyadic mpfs, and acc = (re, im, e) and the
    result stand for (re + i im) 2^e."""
    (xs, xm, xe, _), (ts, tm, te, _) = x._mpf_, t._mpf_
    e = min(xe, te, 0)
    X, T, one = (-xm if xs else xm) << (xe - e), (-tm if ts else tm) << (te - e), 1 << -e
    re, im, n = acc
    for c in offsets:
        a = X + c * one
        re, im = re * a - im * T, re * T + im * a
    return re, im, n + e * len(offsets)


def _mpc(acc, prec):
    """(re + i im) 2^e rounded to prec bits."""
    re, im, e = acc
    return mpmath.mp.make_mpc((from_man_exp(re, e, prec, "n"), from_man_exp(im, e, prec, "n")))


class _NodeSource:
    """Node values gamma_infinity(x + 2m + it) / (c0 + it) at t = j h on the
    lines x = x0 and x = x0 - 1 (see the module docstring).  At s = x0 + it,
    from A = Gamma((s + 1)/2) and B = Gamma(s + w):

        gamma_infinity(s)     = M  e^(-i beta t) A B,
        gamma_infinity(s - 1) = M' e^(-i (beta + ln 2) t) B^2 / (A (s - 1 + w) prod_{m<w} (s + m)),

    with M = 2 pi^(-(x0+1)/2) (2 pi)^(-(x0+w)), M' = 2^(2-x0) pi^((1-x0)/2)
    (2 pi)^(1-x0-w) and beta = ln(pi)/2 + ln(2 pi).  The step h = 2 pi
    strip / ln(1/eps), eps = 10^-(digits + 12), comes from the half-width of
    the pole-free strip.  `pairs` holds (A, B) per t, `rows` per line and t
    the value and the exact shift products.
    """

    def __init__(self, x0, strip, k, digits):
        self.x0, self.w = x0, 2 * k - 9
        self.eps = mpmath.mpf(10) ** (-(digits + 12))
        self.h = 2 * mpmath.pi * strip / mpmath.log(1 / self.eps)
        self.wp = mpmath.mp.prec + NODE_GUARD_BITS
        self.pairs = []
        self.rows = {x0: [], x0 - 1: []}
        with mpmath.workprec(self.wp):
            pi = mpmath.pi
            beta = mpmath.log(pi) / 2 + mpmath.log(2 * pi)
            self.lines = {
                x0: (2 * pi ** (-(x0 + 1) / 2) * (2 * pi) ** (-(x0 + self.w)), beta),
                x0 - 1: (2 ** (2 - x0) * pi ** ((1 - x0) / 2) * (2 * pi) ** (1 - x0 - self.w),
                         beta + mpmath.ln2),
            }
            self.cube = 8 * pi ** 3
            self.inv_cubes = [mpmath.mpf(1)]

    def node(self, j, x, m, c0):
        """gamma_infinity(x + 2m + it) / (c0 + it) at t = j h, x in {x0, x0 - 1}."""
        rows = self.rows[x]
        while len(rows) <= j:
            rows.append(self._row(len(rows), x))
        g, t, prods = rows[j]
        if m:
            # gamma_infinity(a + 2) = gamma_infinity(a) (a + 1)(a + w)(a + w + 1) / (8 pi^3)
            while len(prods) <= m:
                i = 2 * len(prods) - 2
                prods.append(_rising(x, t, (i + 1, i + self.w, i + self.w + 1), prods[-1]))
            with mpmath.workprec(self.wp):
                while len(self.inv_cubes) <= m:
                    self.inv_cubes.append(self.inv_cubes[-1] / self.cube)
                g = g * _mpc(prods[m], self.wp) * self.inv_cubes[m]
        return g / mpmath.mpc(c0, t)

    def _row(self, j, x):
        """[gamma_infinity(x + it), t, [1]] at t = j h, in the guarded precision;
        the list collects the shift products."""
        t = j * self.h
        w = self.w
        with mpmath.workprec(self.wp):
            # each line's rows are built in order of j, so a missing pair is the next one
            if len(self.pairs) == j:
                self.pairs.append((mpmath.gamma(mpmath.mpc((self.x0 + 1) / 2, t / 2)),
                                   mpmath.gamma(mpmath.mpc(self.x0 + w, t))))
            a, b = self.pairs[j]
            if x == self.x0:
                core = a * b
            else:
                core = b * b / (a * _mpc(_rising(self.x0, t, (w - 1, *range(w))), self.wp))
            mag, beta = self.lines[x]
            return [mag * mpmath.expj(-beta * t) * core, t, [(1, 0, 0)]]


def _pair_line(base):
    """The line whose Gamma pairs give the nodes of a base line: the base line
    itself from 7 up, else the line one to its right."""
    return base if base >= 7 else base + 1


class _Kernel:
    """Trapezoid data for J(z, n) on the vertical line Re w = c0.

    The abscissa keeps Re(z + w) >= 6 (absolute convergence with room) and
    the pole of 1/w at distance >= 6.  The step is sized from the width of
    the pole-free strip; one table of node values G_j serves every n because
    n enters only through the rotation n^{-i j h} = r^j.  The nodes are kept
    as integers at the scale 2^-S (`scale` = S, `frac` = F; see the module
    docstring): `head` = Re(G_0 / 2) at 2^-(S + F), and `re`, `im` for
    j >= 1 at 2^-S.

    The node values and the step come from `source`, a _NodeSource on the
    pair line of the kernel's base line and its strip; `_kernels` hands the
    kernels of one such line and strip one source.
    """

    def __init__(self, z, k, digits, c0=None, source=None):
        self.z = mpmath.mpf(z)
        self.c0, strip, base, shifts = _contour(self.z, c0)
        if strip <= 0:
            raise ValueError("contour abscissa too close to a pole")
        if source is None:
            source = _NodeSource(_pair_line(base), strip, k, digits)
        eps, self.h = source.eps, source.h
        nodes = []
        sizes = []
        gmax = mpmath.mpf(0)
        gsum = mpmath.mpf(0)
        j = 0
        low = 0
        while True:
            g = source.node(j, base, shifts, self.c0)
            nodes.append(g)
            size = abs(g)
            sizes.append(size)
            gsum += size
            gmax = max(gmax, size)
            low = low + 1 if size < gmax * eps else 0
            if low >= 3 and j > 8:
                break
            if j > 200000:
                raise ArithmeticError("kernel quadrature failed to truncate")
            j += 1
        self._fix(nodes, sizes)
        self.weight = self.h / mpmath.pi
        # heuristic discretization + truncation bound with safety factor;
        # the residual n-dependence n^{strip - (z + c0)} is at most n^{1/2}
        self.base_err = 100 * self.weight * gsum * eps
        self.n_pow = strip - float(self.z + self.c0)
        self.decay = -(self.z + self.c0)

    def _fix(self, nodes, sizes):
        """Integer node table at the scale 2^-S and the rounding term
        2^(1-F) sum_j j |G_j| + 2^(1-S) (J + 1) of its sums; sizes[j] = |G_j|."""
        frac = self.frac = mpmath.mp.prec + GUARD_BITS
        top = max(mpmath.mag(c) for g in nodes for c in (g.real, g.imag) if c)
        scale = self.scale = frac - top
        self.head = to_int(mpf_shift(nodes[0].real._mpf_, scale + frac - 1), "n")
        self.re = tuple(to_int(mpf_shift(g.real._mpf_, scale), "n") for g in nodes[1:])
        self.im = tuple(to_int(mpf_shift(g.imag._mpf_, scale), "n") for g in nodes[1:])
        moment = mpmath.fsum(j * size for j, size in enumerate(sizes))
        self.round_err = mpmath.ldexp(moment, 1 - frac) + mpmath.ldexp(len(nodes), 1 - scale)

    def finish(self, n, lnn, acc):
        """J(z, n) from acc = Re(G_0/2 + sum_j G_j r^j), a raw mpf."""
        factor = self.weight * mpmath.exp(self.decay * lnn)
        val = factor * mpmath.mp.make_mpf(acc)
        err = self.base_err * mpmath.mpf(n) ** self.n_pow + factor * self.round_err
        return BigFloat(val, err)


def _step_sums(kernels, n):
    """Re(G_0/2 + sum_j G_j r^j) for kernels that share the step h, as raw mpfs.

    r = n^{-ih} is rounded to F fractional bits and each power r^j is formed
    once, rounded to nearest; each kernel's sum is exact in integers at the
    scale 2^-(S + F) and rounded once to the working precision.
    """
    prec, rnd = mpmath.mp._prec_rounding
    frac = kernels[0].frac
    wp = frac + 10
    theta = mpf_mul(kernels[0].h._mpf_, mpf_log(from_int(n), wp), wp)
    cos, sin = mpf_cos_sin(theta, wp)
    ra = to_int(mpf_shift(cos, frac), "n")
    rb = -to_int(mpf_shift(sin, frac), "n")
    half = 1 << (frac - 1)
    pa, pb = [ra], [rb]
    a, b = ra, rb
    for _ in range(max(len(ker.re) for ker in kernels) - 1):
        a, b = (a * ra - b * rb + half) >> frac, (a * rb + b * ra + half) >> frac
        pa.append(a)
        pb.append(b)
    return [from_man_exp(ker.head + sum(map(mul, ker.re, pa)) - sum(map(mul, ker.im, pb)),
                         -(ker.scale + frac), prec, rnd)
            for ker in kernels]


class _Series:
    """Running smoothed series of Lambda(s) for one point s."""

    def __init__(self, s, k, digits, ker_s, ker_r):
        self.ker_s = ker_s
        self.ker_r = ker_r
        self.gamma = gamma_infinity(s, k)
        self.eps_term = abs(self.gamma) * mpmath.mpf(10) ** (-(digits + 6))
        self.total = BigFloat(0)
        self.calm = 0

    def add_term(self, n, b, d3, js, jr):
        """Add b(n) [J(s, n) + J(1 - s, n)]; True once the series has settled."""
        self.total = self.total + b * (js + jr)
        bound = d3 * (abs(js.value) + js.err + abs(jr.value) + jr.err)
        self.calm = self.calm + 1 if bound < self.eps_term else 0
        return self.calm >= 5 and n >= 8

    def lvalue(self):
        """L(s) = Lambda(s) / gamma_infinity(s) with the truncation allowance."""
        lam = BigFloat(self.total.value, self.total.err + 10 * self.eps_term)
        ulp = abs(self.gamma) * mpmath.mpf(2) ** (-mpmath.mp.prec + 2)
        return lam / BigFloat(self.gamma, ulp)


@lru_cache(maxsize=8)
def _kernels(k, digits, prec):
    """The kernels J(z, .) of z = 1, 0, 5, -4, 9, -8 at working precision
    prec, by z, built source by source: kernels whose nodes come from the
    Gamma pairs of one line and step share them (line 7 with strip 5.5 serves
    the J(s) kernels of s = 1, 5, 9 and J(0) on line 6; line 7 with strip 6.5
    the J(1 - s) kernels of s = 5 and s = 9 on line 6), and a source is
    dropped once its kernels exist.  Memoized; see the module docstring."""
    groups = {}
    for s in CRITICAL_POINTS:
        for z in (s, 1 - s):
            _, strip, base, _ = _contour(z)
            groups.setdefault((_pair_line(base), strip), []).append(z)
    kernels = {}
    with mpmath.workprec(prec):
        for key, zs in groups.items():
            source = _NodeSource(*key, k, digits)
            for z in zs:
                kernels[z] = _Kernel(z, k, digits, source=source)
    return MappingProxyType(kernels)


def _joint_series(points, k, digits):
    """One _Series per point, its kernels J(s, .) and J(1 - s, .) from
    `_kernels` at the current working precision."""
    kernels = _kernels(k, digits, mpmath.mp.prec)
    return [_Series(s, k, digits, kernels[s], kernels[1 - s]) for s in points]


def sym2_lvalues(eigen, points, digits=20):
    """L(s, Sym^2) for every s in points, each in {1, 5, 9}, from one pass
    over n; returns BigFloats with error bounds, in the order of points."""
    points = tuple(points)
    if any(s not in CRITICAL_POINTS for s in points):
        raise ValueError("s must be one of 1, 5, 9")
    if not 1 <= digits <= MAX_DIGITS:
        raise ValueError(f"digits must lie in [1, {MAX_DIGITS}]")
    with mpmath.workdps(digits + 18):
        series = _joint_series(points, eigen.k, digits)
        live = series
        bs = []
        n = 0
        while live:
            n += 1
            if n > len(bs):
                try:
                    bs = sym2_dirichlet_coeffs(eigen, max(2 * len(bs), 64))
                except KeyError as exc:
                    raise ValueError(f"need more eigenvalues: {exc}") from None
            # every live kernel at this n, one rotation sequence per step h
            lnn = mpmath.log(n)
            steps = {}
            for sr in live:
                for ker in (sr.ker_s, sr.ker_r):
                    steps.setdefault(ker.h._mpf_, []).append(ker)
            jn = {}
            for kernels in steps.values():
                for ker, acc in zip(kernels, _step_sums(kernels, n)):
                    jn[ker] = ker.finish(n, lnn, acc)
            b = BigFloat.exact(bs[n - 1])
            d3 = triple_divisor_count(n)
            live = [sr for sr in live
                    if not sr.add_term(n, b, d3, jn[sr.ker_s], jn[sr.ker_r])]
            if live and n > 100000:
                raise ValueError("need more eigenvalues: series did not settle")
        return [sr.lvalue() for sr in series]


def sym2_lvalue(eigen, s, digits=20):
    """L(s, Sym^2) at s in {1, 5, 9} as a BigFloat with an error bound."""
    return sym2_lvalues(eigen, (s,), digits)[0]


def sym2_dirichlet_sum(eigen, s, N, digits=20):
    """Plain truncated sum of b(n) n^{-s} over n <= N, the cross-check route.

    Needs s > 1.  The error slot holds a heuristic tail estimate based on
    the average size d_3(n) ~ (log n)^2 / 2.
    """
    if s <= 1:
        raise ValueError("plain summation needs s > 1")
    with mpmath.workdps(digits + 15):
        bs = sym2_dirichlet_coeffs(eigen, N)
        total = mpmath.mpf(0)
        for n in range(1, N + 1):
            q = bs[n - 1]
            total += mpmath.mpf(q.numerator) / q.denominator / mpmath.mpf(n) ** s
        tail = (
            (mpmath.log(N) + 2) ** 2
            * mpmath.mpf(N) ** (1 - s)
            / (2 * (s - 1))
        )
        out = BigFloat(total, tail)
    return out


def period_report(k, eigen, digits=20):
    """Period and its factors: gamma_k, pi power, and the three L-values."""
    if k != eigen.k:
        raise ValueError("weight parameter does not match the eigenvalue table")
    lvals = sym2_lvalues(eigen, CRITICAL_POINTS, digits)
    g = gamma_k(k)
    with mpmath.workdps(digits + 18):
        pi_pow = mpmath.pi ** (-(6 * k + 3))
        ulp = abs(pi_pow) * mpmath.mpf(2) ** (-mpmath.mp.prec + 4)
        value = BigFloat.exact(g) * BigFloat(pi_pow, ulp)
        for lv in lvals:
            value = value * lv
    return {
        "value": value,
        "gamma_k": g,
        "pi_power": -(6 * k + 3),
        "lvalues": lvals,
    }


def _mpf_fraction(x):
    """Exact Fraction equal to a finite mpf."""
    x = mpmath.mpf(x)
    if not mpmath.isfinite(x):
        raise ValueError("value is not finite")
    return Fraction(*to_rational(x._mpf_))


def reconstruct_ratio(value, digits):
    """Rational candidate for an error-tracked ratio, or None if too fuzzy."""
    x = _mpf_fraction(value.value)
    eb = _mpf_fraction(value.err) if value.err else Fraction(0)
    eb = max(2 * eb, Fraction(1, 10 ** (digits + 2)))
    if eb > Fraction(1, 10 ** 6):
        return None
    return rational_reconstruct(x, eb)


def rationality_probe(eigen, k, digits=(20, 30)):
    """Candidate rationals rho_5 = L(5)/(L(1) pi^8), rho_9 = L(9)/(L(1) pi^16).

    Each ratio is reconstructed at the two working precisions and reported
    only when both reconstructions agree; None marks failure to stabilize.
    """
    if k != eigen.k:
        raise ValueError("weight parameter does not match the eigenvalue table")
    d1, d2 = digits
    cands = {"r5": [], "r9": []}
    for d in (d1, d2):
        with mpmath.workdps(d + 20):
            l1, l5, l9 = sym2_lvalues(eigen, CRITICAL_POINTS, d)
            pairs = (("r5", l5, 8), ("r9", l9, 16))
            for key, lv, h in pairs:
                pw = mpmath.pi ** h
                den = l1 * BigFloat(pw, abs(pw) * mpmath.mpf(2) ** (-mpmath.mp.prec + 4))
                cands[key].append(reconstruct_ratio(lv / den, d))
    out = {}
    for key, (q1, q2) in cands.items():
        out[key] = q1 if (q1 is not None and q1 == q2) else None
    return out
