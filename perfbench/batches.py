"""Library-call batches: the jobs no CLI subcommand covers.

Each batch has a `prepare_<name>(args)` that turns the generated JSON into
package objects before timing starts, and a `run_<name>(prepared)` that is
timed and returns plain JSON data for the output check.  Package functions
are looked up on their modules at call time, so the tracer's wrappers see
these calls.
"""

from fractions import Fraction

import mpmath

from heptalift import JordanElement, Octonion, QQ, ZZ, jordan, lift, lvalue
from jobs import qstr

_RINGS = {"ZZ": ZZ, "QQ": QQ}


def _oct(coords, ring):
    return Octonion(ring, [Fraction(c) if ring is QQ else int(c) for c in coords])


def _jordan(d, ring):
    conv = Fraction if ring is QQ else int
    a, b, c = (conv(v) for v in d["diag"])
    return JordanElement(ring, a, b, c, _oct(d["x"], ring), _oct(d["y"], ring),
                         _oct(d["z"], ring))


def _word(tokens, ring):
    conv = Fraction if ring is QQ else int
    out = []
    for tok in tokens:
        if tok[0] == "m":
            out.append(("m", _oct(tok[1], ring), tok[2], tok[3]))
        elif tok[0] == "theta":
            out.append(("theta", tuple(conv(v) for v in tok[1])))
        elif tok[0] == "perm":
            out.append(("perm", tuple(tok[1])))
        else:
            out.append(("gamma", tok[1]))
    return out


def _jordan_out(X):
    return [qstr(v) for v in (X.a, X.b, X.c)] + [
        [qstr(v) for v in o.co] for o in (X.x, X.y, X.z)]


# -- octonion composition and alternativity ----------------------------------

def prepare_octonion_laws(args):
    return [(_oct(x, ZZ), _oct(y, ZZ)) for x, y in args["pairs"]]


def run_octonion_laws(pairs):
    out = []
    for x, y in pairs:
        xy = x * y
        xx = x * x
        out.append((xy.norm(), x.norm(), y.norm(), (x * xy).co, (xx * y).co,
                    ((y * x) * x).co, (y * xx).co))
    return out


# -- structure-group determinant multiplier ----------------------------------

def prepare_det_multiplier(args):
    out = []
    for item in args["items"]:
        ring = _RINGS[item["ring"]]
        out.append((_jordan(item["X"], ring), _word(item["word"], ring), ring))
    return out


def run_det_multiplier(items):
    out = []
    for X, word, ring in items:
        Y = jordan.apply_word(X, word)
        out.append((qstr(Y.det()), qstr(jordan.word_multiplier(word, ring)), qstr(X.det())))
    return out


# -- rational Jordan products --------------------------------------------------

def prepare_jordan_qq(args):
    return [(_jordan(x, QQ), _jordan(y, QQ)) for x, y in args["pairs"]]


def run_jordan_qq(pairs):
    out = []
    for X, Y in pairs:
        d = X.det_expansion(Y)
        out.append({
            "circ_xy": _jordan_out(X.circ(Y)),
            "circ_yx": _jordan_out(Y.circ(X)),
            "cross": _jordan_out(X.cross(Y)),
            "inner": qstr(X.inner(Y)),
            "det_expansion": [qstr(v) for v in d],
            "det_t1": qstr((X + Y).det()),
            "det_t2": qstr((X + Y.scale(2)).det()),
        })
    return out


# -- the period at full working precision --------------------------------------

def prepare_period_unrounded(args):
    return args["digits"]


def run_period_unrounded(digits):
    """period_report at the CLI's eigen-table size, with unrounded values so
    that the reported error bounds can be compared with the true error."""
    report = lvalue.period_report(10, lift.eigen_delta(80 * digits), digits=digits)
    sig = digits + 15

    def enc(bf):
        return [mpmath.nstr(bf.value, sig), mpmath.nstr(bf.err, 6)]

    return {
        "digits": digits,
        "value": enc(report["value"]),
        "lvalues": [enc(lv) for lv in report["lvalues"]],
    }


PREPARE = {name[len("prepare_"):]: fn for name, fn in globals().items()
           if name.startswith("prepare_")}
RUN = {name[len("run_"):]: fn for name, fn in globals().items()
       if name.startswith("run_")}
