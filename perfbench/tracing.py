"""Per-layer tracing from outside the package.

The tracer wraps public entry points of each heptalift module (the layers)
in timing shims, installed at run time by replacing the attribute on its
module or class and every other module alias of the same object.  Nothing
under src/ is edited.

Each wrapped call either records a span (name, start, end, parent) or, for
the hottest entry points, only a call count and summed time.  Both kinds
feed the layer's self time: the call's duration minus the part covered by
wrapped calls nested inside it.  Spans stay in memory and are written out
after the round.

A target that no longer exists is reported in `missing`.  Every metric
derived from it still gets a number (its present members' sum, 0 when none
is left), and its name is listed as unmeasured next to the values, so a
reader of the record never takes a vanished target for an idle one.
"""

import hashlib
import importlib
import sys
from time import perf_counter

LAYERS = (
    "cayley", "jordan", "padic", "density", "siegel", "genfun",
    "exactnum", "lift", "lvalue", "census", "cli",
)

# (layer, dotted target inside the module, mode); mode "span" records one
# span per call, "count" only counts and sums time (hot entry points).
_OCT = ("__mul__", "__rmul__", "__add__", "__sub__", "__neg__", "__eq__",
        "conj", "trace", "norm", "norm_polar", "trace_with", "map_ring")
_JOR = ("det", "adj", "circ", "inner", "cross", "det_expansion", "scale",
        "is_positive", "rank_mod_p", "entries", "from_entries", "from_json",
        "to_json", "diag", "__add__", "__sub__", "__neg__", "__eq__")
_LP = ("__mul__", "__add__", "__sub__", "__rsub__", "__neg__", "__pow__",
       "__eq__", "shift", "subst_inverse", "subst_power", "map_coeffs",
       "evaluate", "divide_exact")
_TS = ("__mul__", "__add__", "__sub__", "__rsub__", "__neg__", "inverse")
_BF = ("exact", "__add__", "__sub__", "__neg__", "__mul__", "__truediv__")
_SV = ("__add__", "__sub__", "__mul__", "__truediv__", "as_rational_pi_power")

TARGETS = (
    [("cayley", "Octonion." + m, "count") for m in _OCT]
    + [("cayley", f, "span") for f in ("structure_constants", "gram_det")]
    + [("jordan", "JordanElement." + m, "count") for m in _JOR]
    + [("jordan", f, "span") for f in ("apply_word", "word_multiplier")]
    + [("jordan", f, "count") for f in
       ("apply_token", "apply_gamma", "apply_m", "apply_theta", "apply_perm")]
    + [("padic", f, "span") for f in
       ("reduce_at", "elementary_divisors", "genus_invariants", "factorize")]
    + [("padic", "is_prime", "count")]
    + [("density", f, "span") for f in
       ("beta_exps", "beta_p", "alpha_p", "igusa_verify", "group_orders", "mass")]
    + [("density", f, "count") for f in
       ("constants", "igusa_lhs_coeff", "igusa_rhs_coeff")]
    + [("siegel", f, "span") for f in
       ("f_poly", "f_poly_oracle", "tilde_f", "symmetric_coefficients")]
    + [("siegel", "SiegelPoly." + m, "count") for m in ("coeffs", "evaluate")]
    + [("genfun", f, "span") for f in
       ("lambda_p", "P_closed", "P_direct", "hp_closed_form", "hp_table_route",
        "tilde_from_table", "H_verify", "rs_euler_factors", "rs_closed_residue",
        "gamma_k", "gamma_k_derived", "gamma_RS", "HpClosedForm.expand")]
    + [("genfun", "exponent_triples", "count")]
    + [("exactnum", "LaurentPoly." + m, "count") for m in _LP]
    + [("exactnum", "TruncSeries." + m, "count") for m in _TS]
    + [("exactnum", "BigFloat." + m, "count") for m in _BF]
    + [("exactnum", "SpecialValue." + m, "count") for m in _SV]
    + [("exactnum", f, "count") for f in
       ("poly_mul_int", "frac_str", "bernoulli", "rational_reconstruct")]
    + [("exactnum", "ratfun_expand", "span")]
    + [("lift", f, "span") for f in
       ("tau_table", "eigen_delta", "eigen_from_csv", "eigen_from_rows",
        "local_factor", "fourier_coeff")]
    + [("lift", f, "count") for f in ("satake_power_sums", "sym2_coeffs")]
    + [("lvalue", f, "span") for f in
       ("sym2_lvalue", "sym2_dirichlet_coeffs", "sym2_dirichlet_sum",
        "period_report", "period", "rationality_probe", "reconstruct_ratio")]
    + [("lvalue", f, "count") for f in ("gamma_infinity", "triple_divisor_count")]
    + [("census", f, "span") for f in
       ("census_f2", "beta_from_census", "rank_f2", "sample_rank_fractions")]
    + [("cli", "main", "span")]
)

# metric group -> (layer, member targets); a group is missing when any
# member target is missing
GROUPS = {
    "cayley.mul": ("cayley", ("Octonion.__mul__",)),
    "cayley.norm": ("cayley", ("Octonion.norm",)),
    "padic.reduce_at": ("padic", ("reduce_at",)),
    "padic.factorize": ("padic", ("factorize",)),
    "density.beta_exps": ("density", ("beta_exps",)),
    "siegel.f_poly": ("siegel", ("f_poly",)),
    "genfun.lambda_p": ("genfun", ("lambda_p",)),
    "exactnum.poly_mul": ("exactnum", ("LaurentPoly.__mul__",
                                       "TruncSeries.__mul__", "poly_mul_int")),
    "exactnum.bigfloat": ("exactnum", tuple("BigFloat." + m for m in _BF)),
    "lift.local_factor": ("lift", ("local_factor",)),
    "lift.tau_table": ("lift", ("tau_table",)),
    "lvalue.sym2_lvalue": ("lvalue", ("sym2_lvalue",)),
    "census.census_f2": ("census", ("census_f2",)),
}

# targets whose argument tuples are compared for the repeat ratio
REPEAT_KEYED = ("siegel.f_poly", "lift.local_factor", "lvalue.sym2_lvalue")

MAX_SPANS = 400000


class Tracer:
    """Holds the wrappers' counters and spans for one traced round."""

    def __init__(self):
        self.names = []
        self.calls = []
        self.total = []
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.failed = {layer: 0 for layer in LAYERS}
        self.qq_calls = 0
        self.spans = []
        self.spans_dropped = 0
        self.missing = []
        self.seen = {}
        self.repeats = {}
        self._stack = []
        self._fingerprints = {}
        self._restore = []
        self._qq = None

    # -- installation ---------------------------------------------------------

    def install(self, package="heptalift"):
        """Wrap every resolvable target; returns the list of missing ones."""
        layer_mods = {}
        for layer in LAYERS:
            try:  # import every layer first, so no alias binds a shim
                layer_mods[layer] = importlib.import_module(package + "." + layer)
            except ImportError:
                pass
        modules = [mod for name, mod in sys.modules.items()
                   if name == package or name.startswith(package + ".")]
        self._qq = getattr(layer_mods.get("cayley"), "QQ", None)
        for layer, target, mode in TARGETS:
            owner, attr = layer_mods.get(layer), target
            if owner is not None and "." in target:
                cls_name, attr = target.split(".", 1)
                owner = getattr(owner, cls_name, None)
            raw = owner.__dict__.get(attr) if owner is not None else None
            if raw is None:
                self.missing.append(layer + "." + target)
                continue
            tid = len(self.names)
            self.names.append(layer + "." + target)
            self.calls.append(0)
            self.total.append(0.0)
            self._install_one(modules, owner, attr, raw, tid, layer, mode)
        return self.missing

    def _install_one(self, modules, owner, attr, raw, tid, layer, mode):
        kind = None
        fn = raw
        if isinstance(raw, classmethod):
            kind, fn = classmethod, raw.__func__
        elif isinstance(raw, staticmethod):
            kind, fn = staticmethod, raw.__func__
        keyed = self.names[tid] in REPEAT_KEYED
        wrapped = self._wrap(fn, tid, layer, mode == "span", keyed)
        new = kind(wrapped) if kind else wrapped
        self._restore.append((owner, attr, raw))
        setattr(owner, attr, new)
        if isinstance(owner, type):
            return
        # re-point aliases made by `from .x import f` in sibling modules
        for mod in modules:
            for k, v in list(vars(mod).items()):
                if v is raw and mod is not owner:
                    self._restore.append((mod, k, raw))
                    setattr(mod, k, new)

    def uninstall(self):
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore = []

    # -- the shim -------------------------------------------------------------

    def _wrap(self, fn, tid, layer, as_span, keyed):
        stack = self._stack
        calls, total, self_s = self.calls, self.total, self.self_s
        spans = self.spans
        is_jordan = layer == "jordan"
        qq = self._qq
        tracer = self

        def shim(*args, **kwargs):
            t0 = perf_counter()
            parent = stack[-1] if stack else None
            sid = None
            if as_span:
                if len(spans) < MAX_SPANS:
                    sid = len(spans)
                    spans.append(None)  # the slot is filled when the call ends
                else:
                    tracer.spans_dropped += 1
            frame = [0.0, sid if sid is not None else (parent[1] if parent else None)]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                tracer._note_error(exc, layer)
                raise
            finally:
                stack.pop()
                if keyed:
                    tracer._note_args(tid, args, kwargs)
                if is_jordan and args and getattr(args[0], "ring", None) is qq:
                    tracer.qq_calls += 1
                calls[tid] += 1
                t1 = perf_counter()
                dur = t1 - t0
                total[tid] += dur
                self_s[layer] += dur - frame[0]
                if parent is not None:
                    parent[0] += dur
                if sid is not None:
                    spans[sid] = (tid, t0, t1, parent[1] if parent else None)

        shim.__name__ = getattr(fn, "__name__", "shim")
        shim.__qualname__ = getattr(fn, "__qualname__", shim.__name__)
        shim.__doc__ = fn.__doc__
        shim.__wrapped__ = fn
        return shim

    def _note_error(self, exc, layer):
        # count an exception once, at the innermost wrapped call it escapes
        if getattr(exc, "_perfbench_counted", False):
            return
        self.failed[layer] += 1
        try:
            exc._perfbench_counted = True
        except AttributeError:
            pass

    def _freeze(self, v):
        table = getattr(v, "table", None)
        if isinstance(table, dict):
            fp = self._fingerprints.get(id(v))
            if fp is None or fp[0] is not v:
                digest = hashlib.sha256(
                    repr((getattr(v, "k", None), sorted(table.items()))).encode()
                ).hexdigest()
                fp = (v, digest)
                self._fingerprints[id(v)] = fp
            return ("eigen", fp[1])
        if isinstance(v, (list, tuple)):
            return tuple(self._freeze(x) for x in v)
        if isinstance(v, dict):
            return tuple(sorted((k, self._freeze(x)) for k, x in v.items()))
        try:
            hash(v)
            return v
        except TypeError:
            return repr(v)

    def _note_args(self, tid, args, kwargs):
        key = (self._freeze(args), self._freeze(kwargs))
        seen = self.seen.setdefault(tid, set())
        if key in seen:
            self.repeats[tid] = self.repeats.get(tid, 0) + 1
        else:
            seen.add(key)

    # -- results --------------------------------------------------------------

    def summary(self):
        """Counters for one round, as plain data."""
        by_name = {
            name: {"calls": self.calls[i], "seconds": self.total[i],
                   "repeats": self.repeats.get(i, 0)}
            for i, name in enumerate(self.names)
        }
        return {
            "targets": by_name,
            "self_s": dict(self.self_s),
            "failed": dict(self.failed),
            "jordan_qq_calls": self.qq_calls,
            "missing": list(self.missing),
            "spans": len(self.spans),
            "spans_dropped": self.spans_dropped,
        }

    def span_records(self):
        names = self.names
        for tid, t0, t1, parent in self.spans:
            yield {"name": names[tid], "start": t0, "end": t1, "parent": parent}


def layer_metrics(summary):
    """Per-layer metric values from one round's summary.

    Returns ({metric: number}, unmeasured): `unmeasured` names the metrics
    whose number stands in for a value that could not be measured, because
    a member target is missing or a ratio has no calls to divide by.  Those
    read 0 (a sum over no calls, no repeats among no calls).
    """
    targets = summary["targets"]
    missing = set(summary["missing"])
    out, unmeasured = {}, set()
    for layer in LAYERS:
        present = any(n.startswith(layer + ".") for n in targets)
        out[layer + ".self_s"] = summary["self_s"][layer]
        out[layer + ".failed"] = summary["failed"][layer]
        if not present:
            unmeasured.update((layer + ".self_s", layer + ".failed"))

    def group(name):
        layer, members = GROUPS[name]
        full = [layer + "." + m for m in members]
        if any(m in missing for m in full):
            unmeasured.add(name)
        return [targets[m] for m in full if m in targets]

    for name in GROUPS:
        if name == "lift.tau_table":
            continue
        out[name + ".calls"] = sum(t["calls"] for t in group(name))
        if name in unmeasured:
            unmeasured.add(name + ".calls")
    for name in REPEAT_KEYED:
        g = group(name)
        calls = sum(t["calls"] for t in g)
        out[name + ".repeat_ratio"] = sum(t["repeats"] for t in g) / calls if calls else 0.0
        if name in unmeasured or not calls:
            unmeasured.add(name + ".repeat_ratio")
    out["lift.tau_table.s"] = sum(t["seconds"] for t in group("lift.tau_table"))
    if "lift.tau_table" in unmeasured:
        unmeasured.add("lift.tau_table.s")
    jordan = [t for n, t in targets.items() if n.startswith("jordan.")]
    out["jordan.calls"] = sum(t["calls"] for t in jordan)
    out["jordan.qq.calls"] = summary["jordan_qq_calls"]
    if not jordan:
        unmeasured.update(("jordan.calls", "jordan.qq.calls"))
    return out, sorted(unmeasured - set(GROUPS))
