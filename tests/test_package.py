"""The package's public names: one list per module, each name exported once,
and each one used by the package or a demo; every method named outside its
own body; and no module imports a name it never reads."""

import ast
import importlib
from collections import Counter
from pathlib import Path

import heptalift

ROOT = Path(__file__).resolve().parent.parent

PUBLIC = [
    "BigFloat", "CRITICAL_POINTS", "EigenData", "ElemDivisors", "H_verify",
    "JordanElement", "LaurentPoly", "MASS_CONSTANT", "Octonion", "QQ",
    "Reduction", "SiegelPoly", "SpecialValue", "ZZ", "Zmod",
    "apply_word", "bernoulli", "beta_exps", "beta_from_census", "beta_p",
    "census_f2", "constants", "eigen_delta", "eigen_from_csv",
    "eigen_from_rows", "elementary_divisors", "exponent_triples", "f_poly",
    "f_poly_oracle", "factor_table", "factorize", "fourier_coeff",
    "frac_str", "gamma_RS",
    "gamma_infinity", "gamma_k", "gamma_k_derived", "genus_invariants",
    "gram_det", "hp_closed_form", "igusa_verify", "is_prime", "lambda_p",
    "local_factor", "mass", "period_report",
    "rational_reconstruct", "rationality_probe", "reconstruct_ratio",
    "reduce_at", "rs_closed_residue", "rs_euler_factors",
    "sample_rank_fractions", "structure_constants", "sym2_coeffs",
    "sym2_dirichlet_coeffs", "sym2_dirichlet_sum", "sym2_lvalue",
    "sym2_lvalues", "tau_table", "tilde_f",
    "trace_pairing_gram", "triple_divisor_count", "word_multiplier",
    "zeta_special",
]

MODULES = ("cayley", "census", "density", "exactnum", "genfun", "jordan",
           "lift", "lvalue", "padic", "siegel")


def test_public_names_are_pinned():
    assert sorted(heptalift.__all__) == PUBLIC


def test_each_name_is_exported_by_exactly_one_module():
    owners = {}
    for name in MODULES:
        module = importlib.import_module("heptalift." + name)
        for public in module.__all__:
            owners.setdefault(public, []).append(name)
            assert getattr(heptalift, public) is getattr(module, public)
    assert sorted(owners) == PUBLIC
    assert {k: v for k, v in owners.items() if len(v) != 1} == {}


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from heptalift import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == PUBLIC
    for name in PUBLIC:
        assert namespace[name] is getattr(heptalift, name)


def _mentions(tree):
    """Every name a tree mentions as a name, an attribute or an import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def _package_sources():
    """The package modules other than __init__, then the demos."""
    return [p for p in sorted((ROOT / "src" / "heptalift").glob("*.py"))
            if p.name != "__init__.py"] + sorted((ROOT / "demos").glob("*.py"))


def test_every_public_name_has_a_caller():
    # a name counts as used when a module other than __init__ or a demo
    # mentions it as a name, an attribute or an import
    used = set()
    for path in _package_sources():
        used.update(_mentions(ast.parse(path.read_text(), str(path))))
    assert sorted(set(heptalift.__all__) - used) == []


def test_every_module_function_has_a_caller():
    # every module-level function and class of the package is mentioned in
    # the package or a demo outside its own definition, so code that only
    # the tests call lives in the tests
    defined, used = [], set()
    for path in _package_sources():
        for top in ast.parse(path.read_text(), str(path)).body:
            own = None
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                own = top.name
                if path.parent.name == "heptalift":
                    defined.append("%s.%s" % (path.stem, own))
            used.update(name for name in _mentions(top) if name != own)
    assert [d for d in defined if d.split(".", 1)[1] not in used] == []


def test_every_method_has_a_caller():
    # a method of a package class, other than a dunder, is mentioned in the
    # package, a demo or perfbench outside its own body; a method that
    # overrides one of a base class (cli._Parser.error) is called by the base
    paths = (sorted((ROOT / "src" / "heptalift").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
             + sorted((ROOT / "perfbench").rglob("*.py")))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in paths}
    mentioned = Counter(name for tree in trees.values() for name in _mentions(tree))
    unused = []
    for path, tree in trees.items():
        if path.parent.name != "heptalift":
            continue
        for cls in (top for top in tree.body if isinstance(top, ast.ClassDef)):
            bases = getattr(importlib.import_module("heptalift." + path.stem), cls.name).__mro__[1:]
            for fn in cls.body:
                if not isinstance(fn, ast.FunctionDef) or fn.name[:2] == fn.name[-2:] == "__":
                    continue
                if any(hasattr(base, fn.name) for base in bases):
                    continue
                own = sum(name == fn.name for name in _mentions(fn))
                if mentioned[fn.name] == own:
                    unused.append("%s.%s.%s" % (path.stem, cls.name, fn.name))
    assert unused == []


def test_every_import_is_used():
    # a name a module imports must be read in that module; __init__ imports
    # only to re-export, and a __future__ import binds no name
    unused = []
    for path in sorted((ROOT / "src" / "heptalift").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += ["%s:%d %s" % (path.name, line, name)
                   for name, line in bound.items() if name not in read]
    assert unused == []
