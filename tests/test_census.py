"""Exhaustive F_2 census: table kernels, counts, and the density bridge."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from heptalift.cayley import Octonion, ZZ, Zmod
from heptalift.census import (
    _counts,
    _oct_byte,
    _tables,
    beta_from_census,
    census_f2,
    sample_rank_fractions,
)
from heptalift.density import beta_exps
from heptalift.jordan import JordanElement

RANK3_COUNT = 2 ** 12 * (2 - 1) * (2 ** 5 - 1) * (2 ** 9 - 1)
RANK1_COUNT = 139503  # frozen enumeration output, cross-checked by partition


@pytest.fixture(scope="module")
def counts():
    return census_f2()


def test_tables_match_generic_arithmetic():
    mul2, conj2, n2, mc = _tables()
    octs = [Octonion(ZZ, [(u >> i) & 1 for i in range(8)]) for u in range(256)]
    for u, ou in enumerate(octs):
        assert conj2[u] == _oct_byte(ou.conj())
        assert n2[u] == ou.norm() & 1
        assert mul2[u] == [_oct_byte(ou * ov) for ov in octs]
        assert mc[u] == [_oct_byte(ou.conj() * ov) for ov in octs]


def test_import_and_census_leave_numpy_unloaded():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    code = (
        "import sys, heptalift\n"
        "from heptalift import cli\n"
        "assert cli.main(['census']) == 0\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert '"rank3": 64884736' in proc.stdout


def test_census_counts(counts):
    assert counts["rank0"] == 1
    assert counts["rank3"] == RANK3_COUNT
    assert counts["rank1"] == RANK1_COUNT
    assert sum(counts.values()) == 1 << 27
    # fraction identity for the open stratum
    frac = Fraction(counts["rank3"], 1 << 27)
    assert frac == Fraction(1, 2) * (1 - Fraction(1, 2 ** 5)) * (1 - Fraction(1, 2 ** 9))


@pytest.fixture(scope="module")
def rank3_by_z():
    return _counts()[1]


# one z with N(z) = 1 and one with N(z) = 0, each with b != c so that the
# (0, 1) and (1, 0) polar blocks enter with different flips
@pytest.mark.parametrize("z,abc", [(0x5A, (1, 0, 1)), (0x1F, (0, 1, 0))])
def test_rank3_counts_per_z_match_generic_rank(rank3_by_z, z, abc):
    F2 = Zmod(2)
    octs = [Octonion(F2, [(u >> i) & 1 for i in range(8)]) for u in range(256)]
    a, b, c = abc
    generic = sum(
        JordanElement(F2, a, b, c, octs[x], octs[y], octs[z]).rank_mod_p() == 3
        for x in range(256)
        for y in range(256)
    )
    assert rank3_by_z[z][4 * a + 2 * b + c] == generic


def test_beta_from_census(counts):
    got = beta_from_census(counts)
    assert got == beta_exps(2, (0, 0, 0))
    want = Fraction(1)
    for e in (2, 6, 8, 12):
        want *= 1 - Fraction(1, 2 ** e)
    assert got == want
    bad = dict(counts)
    bad["rank3"] -= 1
    with pytest.raises(ArithmeticError):
        beta_from_census(bad)


def test_sampler_p3():
    report = sample_rank_fractions(3, samples=4000, seed=1)
    assert sum(report["counts"].values()) == 4000
    lo, hi = report["ci95"]
    width = hi - lo
    # seeded run: the sampled fraction sits within twice the interval width
    assert abs(report["rank3_fraction"] - report["rank3_expected"]) < 2 * width
    with pytest.raises(ValueError):
        sample_rank_fractions(3, samples=0)
