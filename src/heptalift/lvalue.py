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
bit size of its largest node component: each node arrives from its source
as a Gaussian mantissa of about F bits and is rounded once, to nearest,
into 2^-S.  At each n the
rotation r is rounded to F fractional bits and r^j = (r^{j-1} r) >> F,
rounded to nearest, is formed once per step h, so |r^j computed - r^j| <=
1.42 j 2^-F.  Each kernel sums Re(G_0/2 + sum_j G_j r^j) exactly as an
integer and rounds it once into an mpf.  Against the exact sum over its
J + 1 nodes that is off by at most

    2^(1-F) sum_j j |G_j| + 2^(1-S) (J + 1)

plus the final rounding; `_Kernel.finish` adds this term, times the
kernel's weight and n^-(z + c0), to its bound (|G_j| is the integer square
root of the mantissa's norm, rounded to the working precision).  The final
rounding and the other working-precision errors (every table entry lies
within 4.1e-8 units of 2^-prec max_j |G_j| of gamma_infinity evaluated 60
bits finer for k = 10, 12 at 12, 30 and 50 digits, 2.8e-7 units for k = 343
at 12 and 20 digits) stay four digits below
eps = 10^-(digits + 12) and are covered by the factor 100 of the
discretization bound.  A kernel's sum depends on its nodes and n alone, so
sharing the powers changes no bit.

The nodes come from one evaluation of Stirling's series per grid point
(`_NodeSource`): at s = x0 + it, t = j h, the duplication formula writes
gamma_infinity(s) and gamma_infinity(s - 1) through Gamma at s/2 plus
integers and half-integers, the recurrence moves these to Gamma(Z) and
Gamma(Z + 1/2) for one large Z, and both logs follow from the series at Z
and 2Z; one complex log, Gaussian products and one exp per line remain.
Lines further right follow from the shift rule gamma_infinity(s + 2)
= gamma_infinity(s) (s + 1)(s + w)(s + w + 1) / (8 pi^3): a kernel whose
nodes lie on the line Re = x takes the base line x0 = x - 2 floor((x -
6)/2) in [6, 8) (a line left of 6 is its own base) and moves up (x -
x0)/2 steps, each step continuing the product of the one before.  A base
line from 7 up has its own grid points; one below 7 takes those of the
line one to its right.  So the J(s) kernels of s = 1, 5, 9 (lines 7, 11,
15) and J(0) (line 6) all come from line 7's points at strip 5.5, and the
J(1 - s) kernels of s = 5 and 9 (line 6) from line 7's points at strip
6.5; a joint pass evaluates each point once and drops a line's points once
its kernels exist.  With F = 2 NODE_GUARD_BITS above the working precision,
values are mantissas and logs are fixed point.  A log (ln Z, Stirling's
series, ln pi, each line's exponent) is an integer at the scale 2^-F, so
the exponent, whose imaginary part grows like t ln t, keeps its absolute
accuracy.  A value (a rising product, the exp of an exponent, a row, a
shift step with its (8 pi^3)^-1, a node) is a Gaussian mantissa (re, im,
e), (re + i im) 2^e, truncated to F bits after each product or quotient,
which leaves each part less than one unit of the F-th bit off.  Every row
lies within 0.0072 units of 2^-(prec + NODE_GUARD_BITS) of gamma_infinity
evaluated 60 bits finer, relative (k = 10, 12 and x0 = 7, 7.5 at 100
digits, out past the last node).  A node depends only on (z,
c0, k, digits), so a one-point pass and the joint pass produce the same
bits.  Each point keeps its own stopping rule and stops at the same n as
it would alone.

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
from itertools import count, islice
from math import ceil, hypot, isqrt, log2, prod, sqrt
from operator import mul
from types import MappingProxyType

import mpmath
from mpmath.libmp import (
    from_int, from_man_exp, fzero, mpc_exp, mpc_log, mpf_add, mpf_cos_sin, mpf_log, mpf_lt,
    mpf_mul, mpf_shift, to_fixed, to_int, to_rational,
)

from .exactnum import BigFloat, bernoulli, ratfun_expand, rational_reconstruct
from .genfun import gamma_k
from .lift import sym2_coeffs
from .padic import factorize

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
# Stirling's series is summed at |Z| >= STIRLING_ZMIN F, F its fixed-point scale
STIRLING_ZMIN = 0.2


def triple_divisor_count(n):
    """Number of ordered factorizations n = d1*d2*d3 (the d_3 bound)."""
    return prod((e + 1) * (e + 2) // 2 for e in factorize(n).values())


def _local_series(eigen, p, emax):
    """b(p^0), ..., b(p^emax): inverse of the local symmetric-square factor."""
    ser = ratfun_expand(1, [sym2_coeffs(eigen.a(p), p, eigen.k)], emax)
    return [ser.coeff(e) for e in range(emax + 1)]


def _coefficients(eigen):
    """(b(n), d_3(n)) for n = 1, 2, ..., from one factorization of each n:
    both multiply over the prime powers p^e exactly dividing n, b(p^e) from
    the local series of p (a_p is read at n = p) and d_3(p^e) = (e+1)(e+2)/2."""
    local = {}  # p -> [b(p^0), b(p^1), ...]
    for n in count(1):
        b, d3 = Fraction(1), 1
        for p, e in factorize(n).items():
            if len(local.get(p, ())) <= e:
                local[p] = _local_series(eigen, p, e)
            b, d3 = b * local[p][e], d3 * ((e + 1) * (e + 2) // 2)
        yield b, d3


def sym2_dirichlet_coeffs(eigen, N):
    """Exact coefficients b(1), ..., b(N) of the symmetric-square series.

    Returned as a list with entry i holding b(i+1).  The coefficients are
    multiplicative with |b(n)| <= d_3(n).  Raises KeyError naming the
    smallest prime <= N that the eigenvalue table misses.
    """
    if N < 1:
        raise ValueError("N must be positive")
    return [b for b, _ in islice(_coefficients(eigen), N)]


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


def _rising(acc, x, y, offsets, frac):
    """acc times prod_c (x + c + iy) over the integer offsets c: x and y are
    integers at the scale 2^-frac, and acc = (re, im, e) and the result are
    Gaussian mantissas, (re + i im) 2^e, truncated to at most frac bits after
    each product."""
    re, im, e = acc
    for c in offsets:
        a = x + (c << frac)
        re, im = re * a - im * y, re * y + im * a
        d = max(re.bit_length(), im.bit_length(), frac) - frac
        re, im, e = re >> d, im >> d, e + d - frac
    return re, im, e


def _gmul(p, q, bits):
    """p q for Gaussian mantissas (re, im, e), truncated to at most `bits` bits."""
    (a, b, e), (c, d, f) = p, q
    re, im = a * c - b * d, a * d + b * c
    s = max(re.bit_length(), im.bit_length(), bits) - bits
    return re >> s, im >> s, e + f + s


def _gdiv(p, q, bits):
    """p / q for Gaussian mantissas (re, im, e), p of at most `bits` bits,
    truncated to about `bits` bits."""
    (a, b, e), (c, d, f) = p, q
    n2 = c * c + d * d
    re, im = a * c + b * d, b * c - a * d
    s = bits + n2.bit_length() - max(re.bit_length(), im.bit_length())
    return (re << s) // n2, (im << s) // n2, e - f - s


@lru_cache(maxsize=None)
def _stirling_coeff(m):
    """B_2m / (2m (2m - 1)) and the log2 of its size."""
    b = bernoulli(2 * m) / (2 * m * (2 * m - 1))
    return b, log2(abs(b.numerator)) - log2(b.denominator)


class _NodeSource:
    """Node values gamma_infinity(x + 2m + it) / (c0 + it) at t = j h on the
    lines x = x0 and x = x0 - 1 (see the module docstring).  With v = (x0 +
    it)/2 and a = (w - 1)/2 (w = 2k - 9 is odd),

        gamma_infinity(x0 + it)     = pi^-(3v + w + 1)   Gamma(v + 1/2) Gamma(v + a + 1/2) Gamma(v + a + 1),
        gamma_infinity(x0 - 1 + it) = pi^-(3v + w - 1/2) Gamma(v) Gamma(v + a) Gamma(v + a + 1/2).

    The recurrence moves each Gamma to Gamma(Z) or Gamma(Z + 1/2), Z = v + D
    with |Z| >= STIRLING_ZMIN F and D > a, dividing by Gaussian products
    of v + c and v + 1/2 + c; then ln Gamma(Z) = (Z - 1/2) ln Z - Z +
    ln(2 pi)/2 + S(Z) and, by the duplication formula, ln Gamma(Z + 1/2) =
    Z ln Z - Z + ln(2 pi)/2 + S(2Z) - S(Z), with Stirling's series S(y) =
    sum_m B_2m y^(1-2m) / (2m (2m - 1)).  A grid point takes one log, S at Z
    and 2Z, the products and one exp per line, with F = NODE_GUARD_BITS
    above the guarded precision: the logs are fixed point at the scale 2^-F,
    and the products, rows and nodes Gaussian mantissas (re, im, e) of F
    bits (see the module docstring).  The step h = 2 pi strip / ln(1/eps),
    eps = 10^-(digits + 12), comes from the half-width of the pole-free
    strip.  `points` holds the logs and products per t, `rows` per line and
    t the fixed-point t and the values on the lines x + 2m reached so far.
    """

    def __init__(self, x0, strip, k, digits):
        self.x0, self.w = x0, 2 * k - 9
        self.eps = mpmath.mpf(10) ** (-(digits + 12))
        self.h = 2 * mpmath.pi * strip / mpmath.log(1 / self.eps)
        self.wp = mpmath.mp.prec + NODE_GUARD_BITS
        self.frac = self.wp + NODE_GUARD_BITS
        self.coeffs = [0]  # B_2m / (2m (2m - 1)) at 2^-F by m >= 1
        self.points = []
        self.rows = {x0: [], x0 - 1: []}
        with mpmath.workprec(self.frac + 10):
            ln_pi = mpmath.log(mpmath.pi)
            self.ln_pi, self.ln_2pi = (int(mpmath.ldexp(c, self.frac))
                                       for c in (ln_pi, ln_pi + mpmath.ln2))
            # (8 pi^3)^-1, the factor of each shift step
            self.inv_cube = (int(mpmath.ldexp(mpmath.pi ** -3, self.frac + 5)), 0, -self.frac - 8)

    def node(self, j, x, m, c0):
        """gamma_infinity(x + 2m + it) / (c0 + it) at t = j h, x in {x0, x0 - 1},
        as a Gaussian mantissa (re, im, e) of about F bits."""
        rows = self.rows[x]
        while len(rows) <= j:
            rows.append(self._row(len(rows), x))
        t, vals = rows[j]
        f, w = self.frac, self.w
        # gamma_infinity(a + 2) = gamma_infinity(a) (a + 1)(a + w)(a + w + 1) / (8 pi^3)
        while len(vals) <= m:
            i = 2 * len(vals) - 2
            vals.append(_rising(_gmul(vals[-1], self.inv_cube, f), to_fixed(x._mpf_, f), t,
                                (i + 1, i + w, i + w + 1), f))
        return _gdiv(vals[m], (to_fixed(c0._mpf_, f), t, -f), f)

    def _row(self, j, x):
        """(t, [gamma_infinity(x + it)]) at t = j h, t at 2^-F and the value a
        Gaussian mantissa of about F bits; the list collects the values on the
        lines x + 2m by m."""
        t = j * self.h
        # each line's rows are built in order of j, so a missing point is the next one
        if len(self.points) == j:
            self.points.append(self._logs(t))
        (lr, li), q = self.points[j][x != self.x0]
        f = self.frac
        ez = mpc_exp((from_man_exp(lr, -f), from_man_exp(li, -f)), self.wp + 10)
        e = max(c[2] + c[3] for c in ez if c[1]) - f
        g = _gdiv((to_fixed(ez[0], -e), to_fixed(ez[1], -e), e), q, f)
        return to_fixed(t._mpf_, f), [g]

    def _logs(self, t):
        """(ln, product) at 2^-F of the lines x0 and x0 - 1 at t: each line's
        value is exp(ln) / product."""
        f, w = self.frac, self.w
        a, one = (w - 1) // 2, 1 << f
        vr, vi = (to_fixed(mpf_shift(c._mpf_, -1), f) for c in (self.x0, t))
        zmin = STIRLING_ZMIN * f
        d = max(a + 1, ceil(sqrt(max(0.0, zmin * zmin - (vi / one) ** 2)) - vr / one))
        half = vr + one // 2
        # with Q = prod_{a<=c<d} (v + 1/2 + c) and R = prod_{a<c<d} (v + c),
        # line x0 divides by Q^2 R prod_{c<a} (v + 1/2 + c) and line x0 - 1 by
        # Q (R (v + a))^2 prod_{c<a} (v + c)
        q = _rising((1, 0, 0), half, vi, range(a, d), f)
        r = _rising((1, 0, 0), vr, vi, range(a + 1, d), f)
        ra = _rising(r, vr, vi, (a,), f)
        prod7 = _rising(_gmul(_gmul(q, q, f), r, f), half, vi, range(a), f)
        prod6 = _rising(_gmul(_gmul(ra, ra, f), q, f), vr, vi, range(a), f)
        zr = vr + (d << f)
        lam = mpc_log((from_man_exp(zr, -f), from_man_exp(vi, -f)), f + 10)
        lr, li = (to_fixed(c, f) for c in lam)
        s1r, s1i = self._stirling(zr, vi)
        s2r, s2i = self._stirling(2 * zr, 2 * vi)
        # 3 Z ln Z - 3Z + 3 ln(2 pi)/2 - 3v ln pi + S(2Z), shared by both lines
        cr = ((3 * zr * lr - 3 * vi * li) >> f) - 3 * zr + (3 * self.ln_2pi >> 1) \
            - (3 * vr * self.ln_pi >> f) + s2r
        ci = ((3 * zr * li + 3 * vi * lr) >> f) - 3 * vi - (3 * vi * self.ln_pi >> f) + s2i
        ln7 = (cr - (lr >> 1) + s2r - s1r - (w + 1) * self.ln_pi, ci - (li >> 1) + s2i - s1i)
        ln6 = (cr - lr + s1r - ((2 * w - 1) * self.ln_pi >> 1), ci - li + s1i)
        return (ln7, prod7), (ln6, prod6)

    def _stirling(self, yr, yi):
        """S(y) at 2^-F for y = (yr + i yi) 2^-F, summed until the bound on
        the rest, |B_2m+2| / ((2m + 2)(2m + 1) |y|^(2m+1)) sec^(2m+2)(arg(y)/2),
        falls below 2^-(F + 4)."""
        f = self.frac
        one = 1 << f
        size = hypot(yr / one, yi / one)
        ly, lsec = log2(size), log2(2 * size / (size + yr / one))
        m = 1
        while _stirling_coeff(m + 1)[1] - (2 * m + 1) * ly + (m + 1) * lsec > -f - 4:
            m += 1
            if m > f:
                raise ArithmeticError("Stirling series failed to converge")
        while len(self.coeffs) <= m:
            self.coeffs.append(round(_stirling_coeff(len(self.coeffs))[0] * one))
        n2 = (yr * yr + yi * yi) >> f
        ir, ii = (yr << f) // n2, (-yi << f) // n2
        ur, ui = (ir * ir - ii * ii) >> f, (ir * ii) >> (f - 1)
        sr, si = self.coeffs[m], 0
        for c in reversed(self.coeffs[1:m]):
            sr, si = c + ((sr * ur - si * ui) >> f), (sr * ui + si * ur) >> f
        return (sr * ir - si * ii) >> f, (sr * ii + si * ir) >> f


def _pair_line(base):
    """The line whose grid points give the nodes of a base line: the base line
    itself from 7 up, else the line one to its right."""
    return base if base >= 7 else base + 1


class _Kernel:
    """Trapezoid data for J(z, n) on the vertical line Re w = c0.

    The abscissa keeps Re(z + w) >= 6 (absolute convergence with room) and
    the pole of 1/w at distance >= 6.  The step is sized from the width of
    the pole-free strip; one table of node values G_j serves every n because
    n enters only through the rotation n^{-i j h} = r^j.  The nodes are kept
    as integers at the scale 2^-S (`scale` = S, `frac` = F; see the module
    docstring), each rounded once from the source's Gaussian mantissa:
    `head` = Re(G_0 / 2) at 2^-(S + F), and `re`, `im` for j >= 1 at 2^-S.

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
        prec, rnd = mpmath.mp._prec_rounding
        nodes = []
        sizes = []  # |G_j| in the working precision, raw mpfs
        gmax = gsum = fzero
        j = 0
        low = 0
        while True:
            g = source.node(j, base, shifts, self.c0)
            nodes.append(g)
            re, im, e = g
            size = from_man_exp(isqrt(re * re + im * im), e, prec, rnd)
            sizes.append(size)
            gsum = mpf_add(gsum, size, prec, rnd)
            if mpf_lt(gmax, size):
                gmax = size
            low = low + 1 if mpf_lt(size, mpf_mul(gmax, eps._mpf_, prec, rnd)) else 0
            if low >= 3 and j > 8:
                break
            if j > 200000:
                raise ArithmeticError("kernel quadrature failed to truncate")
            j += 1
        self._fix(nodes, sizes)
        self.weight = self.h / mpmath.pi
        # heuristic discretization + truncation bound with safety factor;
        # the residual n-dependence n^{strip - (z + c0)} is at most n^{1/2}
        self.base_err = 100 * self.weight * mpmath.mp.make_mpf(gsum) * eps
        self.n_pow = strip - float(self.z + self.c0)
        self.decay = -(self.z + self.c0)

    def _fix(self, nodes, sizes):
        """Integer node table at the scale 2^-S, each entry rounded to nearest
        from its Gaussian mantissa (re, im, e), and the rounding term
        2^(1-F) sum_j j |G_j| + 2^(1-S) (J + 1) of its sums; sizes[j] = |G_j|."""
        frac = self.frac = mpmath.mp.prec + GUARD_BITS
        top = max(e + max(re.bit_length(), im.bit_length()) for re, im, e in nodes)
        scale = self.scale = frac - top

        def fixed(c, e, s):
            d = -(e + s)
            return c << -d if d <= 0 else (c + (1 << (d - 1))) >> d

        self.head = fixed(nodes[0][0], nodes[0][2], scale + frac - 1)
        self.re = tuple(fixed(re, e, scale) for re, _, e in nodes[1:])
        self.im = tuple(fixed(im, e, scale) for _, im, e in nodes[1:])
        moment = mpmath.fsum(j * mpmath.mp.make_mpf(size) for j, size in enumerate(sizes))
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
    grid points of one line and step share them (line 7 with strip 5.5 serves
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
    over n; returns BigFloats with error bounds, in the order of points.
    It reads a_p when n reaches p, so the KeyError of `EigenData.a` it lets
    through names the smallest missing prime up to the n where the last point
    settles.  Raises ArithmeticError if not settled after 100000 terms."""
    points = tuple(points)
    if any(s not in CRITICAL_POINTS for s in points):
        raise ValueError("s must be one of 1, 5, 9")
    if not 1 <= digits <= MAX_DIGITS:
        raise ValueError(f"digits must lie in [1, {MAX_DIGITS}]")
    with mpmath.workdps(digits + 18):
        live = series = _joint_series(points, eigen.k, digits)
        coeffs = enumerate(_coefficients(eigen), 1)
        while live:
            n, (b, d3) = next(coeffs)
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
            b = BigFloat.exact(b)
            live = [sr for sr in live
                    if not sr.add_term(n, b, d3, jn[sr.ker_s], jn[sr.ker_r])]
            if live and n > 100000:
                raise ArithmeticError("L-value series did not settle within 100000 terms")
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
