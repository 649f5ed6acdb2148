"""Command-line interface: one binary, subcommand per capability.

All output is JSON with a fixed key order, so identical inputs give
byte-identical bytes on stdout (the census subcommand adds a wall-clock
field, which is the one deliberate exception).  Exact values are emitted
as strings: integers in decimal, rationals as "num/den"; the floating
L-value results carry explicit error-bound strings next to each value.

Exit codes: 0 success, 2 usage error (bad flags, malformed or out-of-domain
input, an eigen table missing a prime the command reads), 1 computational
failure (a verified identity did not hold, or a series did not settle).
Both error paths write a one-object JSON diagnostic to stderr.
"""

import argparse
import contextlib
import functools
import itertools
import json
import os
import sys
import time
from fractions import Fraction
from math import prod

import mpmath

from . import acceptance
from .census import beta_from_census, census_f2
from .density import beta_exps, exponent_triples, igusa_verify, mass
from .exactnum import frac_str
from .genfun import (
    gamma_k,
    gamma_k_derived,
    H_verify,
    rs_closed_residue,
    rs_euler_factors,
)
from .jordan import JordanElement
from .lift import eigen_delta, eigen_from_csv, fourier_coeff, local_factor
from .lvalue import CRITICAL_POINTS, period_report, rationality_probe
from .padic import factor_table, genus_invariants, is_prime, reduce_at
from .siegel import f_poly

# primes of the builtin table for period and probe: at k = 10 the L-value pass
# reads b(n) up to n = 21, 33, 47, 62, 70 and 77 at 10, 20, 30, 40, 45 and 50 digits
_SERIES_PRIMES = 256
# caps on the CLI's inputs; docs/cli.md gives the basis and measurements of each
MAX_DIGITS = 50
MAX_GAMMA_K = 343
MAX_TMAX = 40
MAX_ORDER = 94
MAX_HP_SIZE = 280
MAX_LOCAL_SIZE = 10000
MAX_DET = 29000
MAX_PRIME_BITS = 1024
MAX_RS_EULER_BITS = 510


class UsageError(Exception):
    """Bad invocation or bad input file; maps to exit code 2."""


class ComputeError(Exception):
    """A computation failed or an identity did not verify; exit code 1."""

    def __init__(self, message, payload=None):
        super().__init__(message)
        self.payload = payload


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        _emit_error(message)
        raise SystemExit(2)


def _emit_error(message):
    sys.stderr.write(json.dumps({"error": str(message)}) + "\n")


def _emit(payload, out_path):
    """Write the payload to out_path, or to stdout if there is none; a file
    or a stdout that cannot be written raises UsageError.

    stdout is flushed here, so a failed write surfaces now rather than at
    exit.  After a failure its file descriptor is pointed at os.devnull:
    the bytes left in its buffer would otherwise be retried by the flush at
    interpreter exit, which prints "Exception ignored" and exits 120.
    """
    text = json.dumps(payload, indent=2) + "\n"
    try:
        if out_path:
            with open(out_path, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        if not out_path:
            with contextlib.suppress(OSError, ValueError), open(os.devnull, "w") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        raise UsageError("cannot write %s: %s" % (out_path or "stdout", exc))


# argparse types: a bad value raises UsageError while the arguments are parsed,
# and each is named "int", the name argparse's message for a non-integer gives


def _bounded(flag, least, most=None, below="must be >= %(least)d",
             above="must be <= %(most)d"):
    """The type of an integer flag that takes least..most, or least.. if most is None."""
    def parse(text):
        value = int(text)
        if value < least or most is not None and value > most:
            rule = below if value < least else above
            raise UsageError("%s %s" % (flag, rule % {"least": least, "most": most}))
        return value
    parse.__name__ = "int"
    return parse


def _increasing_pair(flag, item):
    """The type of a flag that takes two increasing comma-separated values."""
    def parse(text):
        pair = tuple(item(v) for v in _int_csv(text, 2, flag))
        if pair[0] >= pair[1]:
            raise UsageError("%s expects an increasing pair" % flag)
        return pair
    return parse


def _prime(text):
    """The type of --prime; the bit-length cap comes first, because the
    primality test's cost grows faster than the square of the bit length."""
    p = int(text)
    if p.bit_length() > MAX_PRIME_BITS:
        raise UsageError("--prime must have at most %d bits" % MAX_PRIME_BITS)
    if not is_prime(p):
        raise UsageError("--prime must be a prime number, got %r" % (p,))
    return p


_prime.__name__ = "int"


def _int_csv(text, n, flag):
    parts = text.split(",")
    if len(parts) != n:
        raise UsageError("%s expects %d comma-separated integers" % (flag, n))
    try:
        return tuple(int(v) for v in parts)
    except ValueError:
        raise UsageError("%s expects integers, got %r" % (flag, text))


def _load_element(path):
    try:
        if path == "-":
            data = json.load(sys.stdin)
        else:
            with open(path) as fh:
                data = json.load(fh)
    except OSError as exc:
        raise UsageError("cannot read %s: %s" % (path, exc))
    except (json.JSONDecodeError, RecursionError) as exc:  # or nested past the decoder's limit
        raise UsageError("malformed JSON in %s: %s" % (path, exc))
    except ValueError as exc:  # a bad encoding, or an integer past 4300 digits
        raise UsageError("cannot read %s: %s" % (path, exc))
    try:
        return JordanElement.from_json(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError("not a valid element description: %s" % (exc,))


def _load_eigen(source, k, max_prime):
    """Eigenvalue table from 'tau' (builtin) or a CSV path."""
    if source == "tau":
        if k != 10:
            raise UsageError("builtin eigen table has weight parameter 10")
        if max_prime > MAX_DET:
            raise UsageError("builtin eigen table caps at primes <= %d" % MAX_DET)
        return eigen_delta(max(100, max_prime))
    try:
        return eigen_from_csv(source, k)
    except OSError as exc:
        raise UsageError("cannot read %s: %s" % (source, exc))
    except ValueError as exc:
        raise UsageError("bad eigen CSV %s: %s" % (source, exc))


# ---------------------------------------------------------------------------
# subcommand handlers; each returns the payload dict in final key order


def _cmd_reduce(args):
    p = args.prime
    T = _load_element(args.input)
    r = reduce_at(T, p, args.precision)
    return {
        "prime": p,
        "divisors": list(r.divisors.exps),
        "precision": r.precision,
        "word_length": len(r.word),
    }


def _check_local_size(weight, of, *numbers):
    """Refuse a siegel or density input, before any work, when its weight
    times the bit length of the longest of its numbers passes MAX_LOCAL_SIZE."""
    if weight * max(abs(v).bit_length() for v in numbers) > MAX_LOCAL_SIZE:
        raise UsageError("the weight %s must be <= %d" % (of, MAX_LOCAL_SIZE))


def _printed(what, values, hint=None):
    """frac_str of each value; one past Python's 4300-digit limit on
    int-to-str conversion exits 2, naming what it is and, if given, a hint."""
    try:
        return [frac_str(v) for v in values]
    except ValueError:
        tail = "; " + hint if hint else ""
        raise UsageError("%s exceeds the 4300-digit print limit%s" % (what, tail))


def _cmd_siegel(args):
    p = args.prime
    m1, m2, m3 = _int_csv(args.m, 3, "--m")
    x = None
    if args.eval is not None:
        name, _, rhs = args.eval.partition("=")
        if name != "X" or not rhs:
            raise UsageError("--eval expects X=<rational>, got %r" % (args.eval,))
        try:
            x = Fraction(rhs)
        except (ValueError, ZeroDivisionError):
            raise UsageError("--eval expects a rational, got %r" % (rhs,))
    numbers = (p,) if x is None else (p, x.numerator, x.denominator)
    _check_local_size(3 * m1 + m2 + m3, "3*m1+m2+m3 times the bit length of --prime "
                      "(or of X's numerator or denominator, if longer)", *numbers)
    try:
        f = f_poly(p, m1, m2, m3)
    except ValueError as exc:
        raise UsageError("bad exponents %r: %s" % (args.m, exc))
    payload = {
        "prime": p,
        "m": [m1, m2, m3],
        "weight": f.weight,
        "coefficients": _printed("a coefficient", f.coeffs(), "lower --m"),
    }
    if x is not None:
        (value,) = _printed("the value at X", [f.evaluate(x)], "lower --m or shorten X")
        payload["eval"] = {"X": frac_str(x), "value": value}
    return payload


def _cmd_density(args):
    p = args.prime
    exps = _int_csv(args.divisors, 3, "--divisors")
    _check_local_size(sum(exps), "a1+a2+a3 times the bit length of --prime", p)
    try:
        beta = beta_exps(p, exps)
    except ValueError as exc:
        raise UsageError("bad divisors %r: %s" % (args.divisors, exc))
    (beta,) = _printed("beta", [beta], "lower --divisors")
    return {"prime": p, "divisors": list(exps), "beta": beta}


def _cmd_mass(args):
    T = _load_element(args.input)
    (det,) = _printed("the det(T) of the element in %s" % args.input, [T.det()])
    (m,) = _printed("the mass of the element in %s" % args.input, [mass(T)])
    return {"det": det, "mass": m}


def _cmd_igusa_verify(args):
    p = args.prime
    ok, rows = igusa_verify(p, args.order)
    payload = {
        "prime": p,
        "order": args.order,
        "ok": ok,
        "rows": [
            {
                "m": r["m"],
                "lhs": frac_str(r["lhs"]),
                "rhs": frac_str(r["rhs"]),
                "equal": r["equal"],
            }
            for r in rows
        ],
    }
    if not ok:
        raise ComputeError("series identity failed for p=%d" % p, payload)
    return payload


def _cmd_hp_verify(args):
    p = args.prime
    if args.tmax * p.bit_length() > MAX_HP_SIZE:
        raise UsageError("--tmax times the bit length of --prime must be <= %d" % MAX_HP_SIZE)
    ok, report = H_verify(p, args.tmax, table_route=args.table_route)
    payload = {"prime": p, "tmax": args.tmax, "ok": ok}
    if not ok:
        payload["first_discrepancy"] = report
        raise ComputeError("generating identity failed for p=%d" % p, payload)
    return payload


def _cmd_gamma_k(args):
    payload = {"k": args.k, "gamma_k": frac_str(gamma_k(args.k))}
    if args.derived:
        payload["derived"] = frac_str(gamma_k_derived(args.k))
        payload["residue"] = rs_closed_residue(args.k).serialize()
    return payload


def _cmd_lift_coeff(args):
    T = _load_element(args.input)
    if not T.is_positive():
        raise UsageError("element must be positive definite")
    (det,) = _printed("the det(T) of the element in %s" % args.input, [T.det()])
    genus = genus_invariants(T)
    max_prime = max(genus, default=2)
    eigen = _load_eigen(args.eigen, args.k, max_prime)
    (a,) = _printed("the coefficient of the element in %s" % args.input, [fourier_coeff(T, eigen)])
    return {
        "k": args.k,
        "det": det,
        "divisors": {str(p): list(d.exps) for p, d in genus.items()},
        "coefficient": a,
    }


def _cmd_lift_table(args):
    eigen = _load_eigen(args.eigen, args.k, args.max_det)
    blocks = {}
    rows = []
    for n, fac in enumerate(factor_table(args.max_det)[1:], 1):
        for p, e in fac:
            if (p, e) not in blocks:
                blocks[p, e] = [(exps, local_factor(p, exps, eigen))
                                for exps in exponent_triples(e)]
        for combo in itertools.product(*(blocks[pe] for pe in fac)):
            (coefficient,) = _printed("the coefficient at det %d" % n, [prod(v for _, v in combo)],
                                      "lower --k or --max-det")
            rows.append({
                "det": str(n),
                "divisors": {str(p): list(exps) for (p, _), (exps, _) in zip(fac, combo)},
                "coefficient": coefficient,
            })
    return {"k": args.k, "max_det": args.max_det, "rows": rows}


def _cmd_rs_euler(args):
    p = args.prime
    if p.bit_length() > MAX_RS_EULER_BITS:
        raise UsageError("rs-euler --prime must have at most %d bits, so that its prefactor "
                         "prints within 4300 digits" % MAX_RS_EULER_BITS)
    r = rs_euler_factors(p)
    payload = {
        "prime": p,
        "prefactor": frac_str(r["prefactor"]),
        "t2_numerators": [repr(f) for f in r["t2_numerators"]],
        "zeta_denominators": [repr(f) for f in r["zeta_denominators"]],
        "sym2_denominators": [[repr(f) for f in tri] for tri in r["sym2_denominators"]],
        "consistent": r["consistent"],
    }
    if not r["consistent"]:
        raise ComputeError("euler factor rewrite failed for p=%d" % p, payload)
    return payload


def _cmd_period(args):
    eigen = _load_eigen(args.eigen, args.k, _SERIES_PRIMES)
    report = period_report(args.k, eigen, digits=args.digits)
    value = report["value"]
    return {
        "k": args.k,
        "digits": args.digits,
        "value": mpmath.nstr(value.value, args.digits),
        "error_bound": mpmath.nstr(value.err, 3),
        "gamma_k": frac_str(report["gamma_k"]),
        "pi_power": report["pi_power"],
        "lvalues": [
            {
                "s": s,
                "value": mpmath.nstr(lv.value, args.digits),
                "error_bound": mpmath.nstr(lv.err, 3),
            }
            for s, lv in zip(CRITICAL_POINTS, report["lvalues"])
        ],
    }


def _cmd_probe(args):
    eigen = _load_eigen(args.eigen, args.k, _SERIES_PRIMES)
    out = rationality_probe(eigen, args.k, digits=args.digits)
    return {
        "k": args.k,
        "digits": list(args.digits),
        "r5": None if out["r5"] is None else frac_str(out["r5"]),
        "r9": None if out["r9"] is None else frac_str(out["r9"]),
    }


def _cmd_census(args):
    if args.prime != 2:
        raise UsageError("the exhaustive census is implemented for --prime 2 only")
    t0 = time.perf_counter()
    counts = census_f2()
    elapsed = time.perf_counter() - t0
    try:
        beta = beta_from_census(counts)
    except ArithmeticError as exc:
        raise ComputeError(str(exc), {"prime": 2, "counts": counts})
    return {
        "prime": 2,
        "counts": counts,
        "beta": frac_str(beta),
        "elapsed_seconds": round(elapsed, 3),
    }


def _cmd_selftest(args):
    results = []
    ok = True
    for criterion in acceptance.CRITERIA:
        r = acceptance.run(criterion)
        ok = ok and r.ok
        sys.stderr.write(
            "criterion %2d %-22s %s (%.2fs)\n"
            % (r.number, r.slug, "PASS" if r.ok else "FAIL", r.seconds)
        )
        results.append(
            {
                "number": r.number,
                "slug": r.slug,
                "ok": r.ok,
                "seconds": round(r.seconds, 2),
                "detail": r.detail,
            }
        )
    payload = {"ok": ok, "criteria": results}
    if not ok:
        raise ComputeError("acceptance criteria failed", payload)
    return payload


# ---------------------------------------------------------------------------
# parser assembly and dispatch


@functools.cache
def build_parser():
    """The argument parser, built once per process; each parse_args call
    returns a fresh Namespace, so requests share no state through it."""
    parser = _Parser(prog="heptalift", description=__doc__.splitlines()[0])
    k_range = _bounded("--k", 10, MAX_GAMMA_K,
                       above="must be <= %(most)d, the largest k whose gamma_k prints")
    between = "must be between %(least)d and %(most)d"
    digits = _bounded("--digits", 1, MAX_DIGITS, below=between, above=between)
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add(name, handler, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(handler=handler)
        sp.add_argument("--out", default=None, help="write JSON here instead of stdout")
        return sp

    sp = add("reduce", _cmd_reduce, "local elementary divisors of an element")
    sp.add_argument("--prime", type=_prime, required=True)
    sp.add_argument("--precision", type=_bounded("--precision", 1), default=None)
    sp.add_argument("--input", required=True, help="element JSON path, or - for stdin")

    sp = add("siegel", _cmd_siegel, "local series polynomial for a divisor profile")
    sp.add_argument("--prime", type=_prime, required=True)
    sp.add_argument("--m", required=True, help="m1,m2,m3")
    sp.add_argument("--eval", default=None, help="X=<rational> to also evaluate")

    sp = add("density", _cmd_density, "local density for a divisor triple")
    sp.add_argument("--prime", type=_prime, required=True)
    sp.add_argument("--divisors", required=True, help="a1,a2,a3")

    sp = add("mass", _cmd_mass, "exact mass of the genus of an element")
    sp.add_argument("--input", required=True, help="element JSON path, or - for stdin")

    sp = add("igusa-verify", _cmd_igusa_verify, "check the density series identity")
    sp.add_argument("--prime", type=_prime, required=True)
    sp.add_argument("--order", type=_bounded("--order", 0, MAX_ORDER), required=True)

    sp = add("hp-verify", _cmd_hp_verify, "check the generating identity through t^M")
    sp.add_argument("--prime", type=_prime, required=True)
    sp.add_argument("--tmax", type=_bounded("--tmax", 1, MAX_TMAX), required=True)
    sp.add_argument("--table-route", action="store_true")

    sp = add("gamma-k", _cmd_gamma_k, "rational period constant")
    sp.add_argument("--k", type=k_range, required=True)
    sp.add_argument("--derived", action="store_true")

    sp = add("lift-coeff", _cmd_lift_coeff, "lift Fourier coefficient at an element")
    sp.add_argument("--k", type=_bounded("--k", 10), required=True)
    sp.add_argument("--eigen", default="tau", help="'tau' or CSV path with p,a_p rows")
    sp.add_argument("--input", required=True, help="element JSON path, or - for stdin")

    sp = add("lift-table", _cmd_lift_table, "coefficients for all profiles up to a det")
    sp.add_argument("--k", type=_bounded("--k", 10), required=True)
    sp.add_argument("--max-det", type=_bounded("--max-det", 1, MAX_DET), required=True)
    sp.add_argument("--eigen", default="tau", help="'tau' or CSV path with p,a_p rows")

    sp = add("rs-euler", _cmd_rs_euler, "euler factor rewrite of the self series")
    sp.add_argument("--prime", type=_prime, required=True)

    sp = add("period", _cmd_period, "Petersson norm of the lift")
    sp.add_argument("--k", type=k_range, required=True)
    sp.add_argument("--digits", type=digits, default=20)
    sp.add_argument("--eigen", default="tau", help="'tau' or CSV path with p,a_p rows")

    sp = add("probe", _cmd_probe, "rationality probe for the L-value ratios")
    sp.add_argument("--k", type=k_range, required=True)
    sp.add_argument("--digits", type=_increasing_pair("--digits", digits), default=(20, 30),
                    help="two increasing digit counts")
    sp.add_argument("--eigen", default="tau", help="'tau' or CSV path with p,a_p rows")

    sp = add("census", _cmd_census, "exhaustive rank census of the 2^27 residue space")
    sp.add_argument("--prime", type=int, default=2)

    add("selftest", _cmd_selftest, "run the full acceptance suite")

    return parser


def dispatch(argv):
    """Parse and run; returns the process exit code.  The payload is written
    only once the run has made it, so a refused run leaves --out untouched."""
    try:
        args = build_parser().parse_args(argv)
        payload, failure = args.handler(args), None
    except SystemExit as exc:  # argparse has written its help or diagnostic
        return exc.code if isinstance(exc.code, int) else 2
    except UsageError as exc:
        _emit_error(exc)
        return 2
    except ComputeError as exc:
        payload, failure = exc.payload, exc
    except KeyError as exc:  # EigenData.a found no eigenvalue for a prime
        _emit_error("eigen table is missing a_p for p = %s" % (exc,))
        return 2
    except (ArithmeticError, AssertionError) as exc:
        _emit_error(exc)
        return 1
    except ValueError as exc:
        _emit_error(exc)
        return 2
    if payload is not None:
        try:
            _emit(payload, args.out)
        except UsageError as exc:
            _emit_error(exc)
            return 2
    if failure is None:
        return 0
    _emit_error(failure)
    return 1


def main(argv=None):
    return dispatch(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
