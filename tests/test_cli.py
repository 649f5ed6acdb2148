"""CLI plumbing: JSON shapes, exit codes, determinism, error channels."""

import argparse
import hashlib
import inspect
import itertools
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from heptalift import acceptance, cli, lvalue
from heptalift.density import MASS_CONSTANT, beta_exps, exponent_triples
from heptalift.exactnum import BigFloat, frac_str
from heptalift.genfun import gamma_k
from heptalift.jordan import JordanElement
from heptalift.lift import eigen_delta, local_factor
from heptalift.padic import factorize, is_prime
from heptalift.siegel import f_poly

ZERO8 = [0] * 8


def run_cli(capsys, *argv):
    code = cli.dispatch(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def element_file(tmp_path, a, b, c):
    path = tmp_path / "elem.json"
    path.write_text(json.dumps(JordanElement.diag(a, b, c).to_json()))
    return str(path)


def test_gamma_k_payload(capsys):
    code, out, err = run_cli(capsys, "gamma-k", "--k", "10", "--derived")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["gamma_k"] == frac_str(gamma_k(10))
    assert payload["derived"] == payload["gamma_k"]
    assert isinstance(payload["residue"], list) and payload["residue"]
    assert {"coeff", "pi_half_power", "symbols"} <= set(payload["residue"][0])


def test_gamma_k_bound(capsys):
    # MAX_GAMMA_K is the last k whose gamma_k fits in 4300 decimal digits
    for k, fits in ((cli.MAX_GAMMA_K, True), (cli.MAX_GAMMA_K + 1, False)):
        q = gamma_k(k)
        assert (max(q.numerator, q.denominator) < 10 ** 4300) == fits
    for extra in ((), ("--derived",)):
        code, out, err = run_cli(capsys, "gamma-k", "--k", "343", *extra)
        assert code == 0 and err == ""
        assert json.loads(out)["gamma_k"] == frac_str(gamma_k(343))
    for extra in ((), ("--derived",)):
        code, out, err = run_cli(capsys, "gamma-k", "--k", "344", *extra)
        assert code == 2 and out == ""
        assert "--k must be <= 343" in json.loads(err)["error"]


def test_gamma_k_rejects_huge_k_fast(capsys):
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "gamma-k", "--k", str(10 ** 6))
    elapsed = time.perf_counter() - t0
    assert code == 2 and out == ""
    assert "--k" in json.loads(err)["error"]
    assert elapsed < 5.0


@pytest.mark.parametrize("argv", [
    ("hp-verify", "--prime", "2", "--tmax", "41", "--table-route"),
    ("hp-verify", "--prime", "97", "--tmax", "200"),
    ("hp-verify", "--prime", "1000003", "--tmax", "40"),
    ("hp-verify", "--prime", "1000000007", "--tmax", "40", "--table-route"),
    ("igusa-verify", "--prime", "2", "--order", "95"),
    ("igusa-verify", "--prime", "97", "--order", "400"),
], ids=lambda a: " ".join(a))
def test_series_order_caps(argv):
    # above its cap a verify command exits 2 before computing anything; the
    # hp-verify size cap refuses large primes at a --tmax small primes reach
    assert (cli.MAX_TMAX, cli.MAX_ORDER, cli.MAX_HP_SIZE) == (40, 94, 280)
    t0 = time.perf_counter()
    proc = run_module(list(argv))
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "must be <=" in json.loads(proc.stderr)["error"]
    assert elapsed < 2.0


_M61 = str(2 ** 61 - 1)


@pytest.mark.parametrize("argv", [
    ("siegel", "--prime", "3", "--m", "0,100000,100000"),
    ("siegel", "--prime", "2", "--m", "0,0,5001"),
    ("siegel", "--prime", "2", "--m", "0,0,1000", "--eval", "X=1/1025"),
    ("siegel", "--prime", "2", "--m", "10,0,0", "--eval", "X=%d" % 2 ** 400),
    ("density", "--prime", "2", "--divisors", "100000,100000,100000"),
    ("density", "--prime", "2", "--divisors", "0,0,5001"),
    ("density", "--prime", _M61, "--divisors", "0,1,163"),
], ids=lambda a: " ".join(a)[:60])
def test_local_size_cap(argv):
    # weight times bit length past the cap exits 2 before f_poly or beta_exps;
    # siegel --prime 3 --m 0,100000,100000 used to run out of memory
    assert cli.MAX_LOCAL_SIZE == 10000
    t0 = time.perf_counter()
    proc = run_module(list(argv))
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    error = json.loads(proc.stderr)["error"]
    assert error.startswith("the weight ") and error.endswith(" must be <= 10000")
    assert elapsed < 2.0


@pytest.mark.parametrize("argv", [
    ("siegel", "--prime", "2", "--m", "0,0,5000"),
    ("siegel", "--prime", "2", "--m", "0,0,1000", "--eval", "X=1/1023"),
    ("siegel", "--prime", _M61, "--m", "0,50,50", "--eval", "X=3"),
    ("density", "--prime", "2", "--divisors", "0,0,5000"),
    ("density", "--prime", _M61, "--divisors", "0,1,162"),
], ids=lambda a: " ".join(a)[:60])
def test_local_size_cap_keeps_sizes_at_the_cap(argv, capsys):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    payload = json.loads(out)
    if argv[0] == "siegel":
        m1, m2, m3 = (int(v) for v in argv[4].split(","))
        assert payload["coefficients"] == [str(c) for c in f_poly(int(argv[2]), m1, m2, m3).coeffs()]
    else:
        exps = tuple(int(v) for v in argv[4].split(","))
        assert payload["beta"] == frac_str(beta_exps(int(argv[2]), exps))


@pytest.mark.parametrize("argv, message", [
    (("siegel", "--prime", _M61, "--m", "33,0,0"),
     "a coefficient exceeds the 4300-digit print limit; lower --m"),
    (("siegel", "--prime", _M61, "--m", "0,50,50", "--eval", "X=" + _M61),
     "the value at X exceeds the 4300-digit print limit; lower --m or shorten X"),
    (("density", "--prime", "2", "--divisors", "1666,1667,1667"),
     "beta exceeds the 4300-digit print limit; lower --divisors"),
], ids=["coefficient", "value", "beta"])
def test_local_outputs_past_the_print_limit(argv, message, capsys):
    # inside the size cap, an output past 4300 digits exits 2 and says so
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    elapsed = time.perf_counter() - t0
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": message}
    assert elapsed < 2.0


def test_hp_verify_size_cap_keeps_small_sizes():
    proc = run_module(["hp-verify", "--prime", "1000003", "--tmax", "10"])
    assert proc.returncode == 0 and json.loads(proc.stdout)["ok"] is True


def test_igusa_rows_past_the_print_limit_exit_2_fast():
    # at p = 1000003 a right-hand denominator through u^94 has 5,027 digits
    t0 = time.perf_counter()
    proc = run_module(["igusa-verify", "--prime", "1000003", "--order", "94"])
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "4300 digits" in json.loads(proc.stderr)["error"]
    assert elapsed < 2.0
    proc = run_module(["igusa-verify", "--prime", "1000003", "--order", "40"])
    assert proc.returncode == 0 and json.loads(proc.stdout)["ok"] is True


def test_igusa_refuses_a_1024_bit_prime_before_the_series():
    # u^0 has numerator p^28, past 4300 digits at 512 bits or more, so the
    # refusal needs no series (building it through u^94 took 35-40 s)
    p = 2 ** 1023 + 1155
    assert is_prime(p)
    t0 = time.perf_counter()
    proc = run_module(["igusa-verify", "--prime", str(p), "--order", "94"])
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 2 and proc.stdout == ""
    assert json.loads(proc.stderr) == {"error": "a coefficient through u^94 exceeds 4300 digits"}
    assert elapsed < 2.0


@pytest.fixture(scope="module")
def tau_files(tmp_path_factory):
    """An eigen CSV of tau at the 303 primes below 2000, and the identity."""
    path = tmp_path_factory.mktemp("edges")
    csv = path / "tau.csv"
    csv.write_text("p,a_p\n" + "".join("%d,%d\n" % pa for pa in sorted(eigen_delta(2000).table.items())))
    elem = path / "one.json"
    elem.write_text(json.dumps(JordanElement.diag(1, 1, 1).to_json()))
    return {"CSV": str(csv), "ELEM": str(elem)}


@pytest.mark.parametrize("code, argv", [
    (0, ("igusa-verify", "--prime", "1000003", "--order", "80")),
    (2, ("igusa-verify", "--prime", "1000003", "--order", "81")),
    (2, ("igusa-verify", "--prime", "1000003", "--order", "82")),
    (2, ("igusa-verify", "--prime", str(2 ** 1023 + 1155), "--order", "94")),
    (0, ("rs-euler", "--prime", str(2 ** 510 - 75))),
    (2, ("siegel", "--prime", "2", "--m", "1666,0,2", "--eval", "X=-1/3")),
    (0, ("hp-verify", "--prime", "2", "--tmax", "40", "--table-route")),
    (0, ("lift-coeff", "--k", "1000000", "--eigen", "CSV", "--input", "ELEM")),
    (2, ("lift-table", "--k", "1000000", "--max-det", "10", "--eigen", "CSV")),
], ids=["igusa-80", "igusa-81", "igusa-82", "igusa-1024-bit", "rs-euler-510-bit",
        "siegel-eval", "hp-verify-table-route", "lift-coeff-huge-k", "lift-table-huge-k"])
def test_edge_inputs_finish_in_bounded_time(tau_files, code, argv):
    # inputs at the edges of the caps, each in a fresh process: the expected
    # exit code within 10 s (0.1-2.0 s each on a 2-CPU box), and on exit 2
    # one JSON error line on stderr, never a traceback
    t0 = time.perf_counter()
    proc = run_module([tau_files.get(a, a) for a in argv])
    elapsed = time.perf_counter() - t0
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == (code != 0)
    assert all(set(json.loads(line)) == {"error"} for line in lines)
    assert (proc.stdout == "") == (code != 0)
    assert elapsed < 10.0


@pytest.mark.parametrize("argv", [
    ("lift-table", "--k", "10", "--max-det", "29001"),
    ("lift-table", "--k", "10", "--max-det", "29001", "--eigen", "CSV"),
    ("lift-coeff", "--k", "10", "--input", "ELEM"),
], ids=["lift-table", "lift-table-csv", "lift-coeff"])
def test_eigen_table_cap(argv, tmp_path):
    # just above the cap: 29009 is the first prime past 29000
    assert cli.MAX_DET == 29000
    csv = tmp_path / "eigen.csv"
    csv.write_text("p,a_p\n2,-24\n3,252\n")
    swap = {"CSV": str(csv), "ELEM": element_file(tmp_path, 1, 1, 29009)}
    t0 = time.perf_counter()
    proc = run_module([swap.get(a, a) for a in argv])
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "29000" in json.loads(proc.stderr)["error"]
    assert elapsed < 2.0


_SEQUENCE_SCRIPT = """
import contextlib, io, json, sys
from heptalift import cli
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def test_requests_in_one_process_match_fresh_processes(tmp_path):
    # one process serves several requests through one parser; each must give
    # the exit code and bytes of a process of its own
    def requests(out_path):
        return [
            ["siegel", "--prime", "2"],
            ["siegel", "--prime", "3", "--m", "2,1,3", "--eval", "X=-2"],
            ["hp-verify", "--prime", "3", "--tmax", "5", "--table-route"],
            ["hp-verify", "--prime", "4", "--tmax", "5"],
            ["gamma-k", "--k", "12", "--derived", "--out", str(out_path)],
            ["rs-euler", "--prime", "5"],
        ]

    shared, fresh = tmp_path / "shared.json", tmp_path / "fresh.json"
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _SEQUENCE_SCRIPT, json.dumps(requests(shared))],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    in_one = json.loads(proc.stdout)
    alone = [run_module(argv) for argv in requests(fresh)]
    assert [r[0] for r in in_one] == [a.returncode for a in alone] == [2, 0, 0, 2, 0, 0]
    for (_, out, err), a in zip(in_one, alone):
        assert (out, err) == (a.stdout, a.stderr)
    assert shared.read_bytes() == fresh.read_bytes()
    assert json.loads(shared.read_text())["k"] == 12


def test_density_payload(capsys):
    code, out, _ = run_cli(capsys, "density", "--prime", "2", "--divisors", "0,0,1")
    assert code == 0
    assert json.loads(out)["beta"] == frac_str(beta_exps(2, (0, 0, 1)))


def test_density_usage_errors(capsys):
    code, _, err = run_cli(capsys, "density", "--prime", "4", "--divisors", "0,0,1")
    assert code == 2 and "error" in json.loads(err)
    code, _, err = run_cli(capsys, "density", "--prime", "2", "--divisors", "2,1,0")
    assert code == 2 and "error" in json.loads(err)


def test_reduce_roundtrip(tmp_path, capsys):
    path = element_file(tmp_path, 1, 2, 12)
    code, out, _ = run_cli(capsys, "reduce", "--prime", "2", "--input", path)
    assert code == 0
    assert json.loads(out)["divisors"] == [0, 1, 2]


def test_reduce_large_prime_finishes_fast(tmp_path, capsys):
    # the clearing vector for x is a basis vector; the search must not scan
    # the p - 1 unit multiples of each basis vector first
    p = 1000003
    path = tmp_path / "elem.json"
    path.write_text(json.dumps(
        {"diag": [p, p, p], "x": [0, 1] + [0] * 6, "y": ZERO8, "z": ZERO8}
    ))
    t0 = time.perf_counter()
    code, out, _ = run_cli(capsys, "reduce", "--prime", str(p), "--input", str(path))
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert json.loads(out) == {
        "prime": p, "divisors": [0, 0, 1], "precision": 2, "word_length": 2,
    }
    assert elapsed <= 3.0


def test_reduce_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code, out, err = run_cli(capsys, "reduce", "--prime", "2", "--input", str(bad))
    assert code == 2 and out == ""
    assert "malformed JSON" in json.loads(err)["error"]


def test_reduce_precision_bound(tmp_path, capsys):
    path = element_file(tmp_path, 1, 1, 1)
    argv = ("reduce", "--prime", "3", "--input", path, "--precision")
    code, out, _ = run_cli(capsys, *argv, "9012")
    assert code == 0 and json.loads(out)["precision"] == 9012
    code, out, err = run_cli(capsys, *argv, "9013")
    assert code == 2 and out == ""
    assert "precision must keep p^precision below 10^4300" in json.loads(err)["error"]


def run_module(argv, stdout=subprocess.PIPE, **env_extra):
    """`python -m heptalift *argv` in a subprocess, on this checkout's src;
    stdout is captured unless a file is given."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, **env_extra)
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return subprocess.run([sys.executable, "-m", "heptalift", *argv], env=env,
                          stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=60)


def test_reduce_huge_precision_fails_fast_without_str_limit(tmp_path):
    # with Python's int-to-str limit lifted, only the bound stops p^N
    argv = ["reduce", "--prime", "3", "--precision", str(10 ** 7),
            "--input", element_file(tmp_path, 1, 1, 1)]
    t0 = time.perf_counter()
    proc = run_module(argv, PYTHONINTMAXSTRDIGITS="0")
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 2 and proc.stdout == ""
    assert "precision" in json.loads(proc.stderr)["error"]
    assert elapsed < 30.0


ZERO8_TEXT = json.dumps(ZERO8)


def _element_text(**fields):
    d = {"diag": "[1, 1, 1]", "x": ZERO8_TEXT, "y": ZERO8_TEXT, "z": ZERO8_TEXT}
    d.update(fields)
    return "{%s}" % ", ".join('"%s": %s' % kv for kv in d.items() if kv[1] is not None)


MALFORMED_ELEMENTS = {
    "float-diag": _element_text(diag="[1.5, 1, 1]"),
    "string-diag": _element_text(diag='"123"'),
    "overflow-diag": _element_text(diag="[1, 1, 1e400]"),
    "bool-diag": _element_text(diag="[true, 1, 1]"),
    "short-diag": _element_text(diag="[1, 1]"),
    "long-diag": _element_text(diag="[1, 1, 1, 1]"),
    "string-octonion": _element_text(x='"00000000"'),
    "bool-octonion": _element_text(y=json.dumps([True] + [0] * 7)),
    "float-octonion": _element_text(z="[0.0, 0, 0, 0, 0, 0, 0, 0]"),
    "nested-octonion": _element_text(x=json.dumps([[0]] * 8)),
    "short-octonion": _element_text(x=json.dumps([0] * 7)),
    "long-octonion": _element_text(y=json.dumps([0] * 9)),
    "missing-diag": _element_text(diag=None),
    "missing-z": _element_text(z=None),
    "null-x": _element_text(x="null"),
    "top-level-list": "[1, 1, 1]",
    "top-level-string": '"diag"',
    "top-level-number": "3",
    "top-level-null": "null",
}


def test_element_text_baseline_is_valid(tmp_path, capsys):
    path = tmp_path / "elem.json"
    path.write_text(_element_text())
    code, out, _ = run_cli(capsys, "mass", "--input", str(path))
    assert code == 0 and json.loads(out)["mass"] == frac_str(MASS_CONSTANT)


@pytest.mark.parametrize("argv", [("mass",), ("reduce", "--prime", "2")], ids=lambda a: a[0])
@pytest.mark.parametrize("case", sorted(MALFORMED_ELEMENTS))
def test_malformed_element_json(tmp_path, capsys, argv, case):
    path = tmp_path / "elem.json"
    path.write_text(MALFORMED_ELEMENTS[case])
    code, out, err = run_cli(capsys, *argv, "--input", str(path))
    assert code == 2 and out == ""
    assert "error" in json.loads(err)


def test_siegel_payload_and_eval(capsys):
    code, out, _ = run_cli(
        capsys, "siegel", "--prime", "3", "--m", "0,1,1", "--eval", "X=1/3"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["weight"] == 2
    assert len(payload["coefficients"]) == 3
    assert payload["eval"]["X"] == "1/3"
    code, _, err = run_cli(capsys, "siegel", "--prime", "3", "--m", "0,1,1", "--eval", "Y=2")
    assert code == 2 and "X=<rational>" in json.loads(err)["error"]


def test_mass_payload(tmp_path, capsys):
    path = element_file(tmp_path, 1, 1, 1)
    code, out, _ = run_cli(capsys, "mass", "--input", path)
    assert code == 0
    assert json.loads(out)["mass"] == frac_str(MASS_CONSTANT)


def test_mass_rejects_indefinite(tmp_path, capsys):
    path = element_file(tmp_path, 1, 1, -1)
    code, _, err = run_cli(capsys, "mass", "--input", path)
    assert code == 2 and "positive definite" in json.loads(err)["error"]


def test_verify_subcommands(capsys):
    code, out, _ = run_cli(capsys, "igusa-verify", "--prime", "3", "--order", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] and len(payload["rows"]) == 6
    code, out, _ = run_cli(capsys, "hp-verify", "--prime", "2", "--tmax", "4")
    assert code == 0 and json.loads(out)["ok"]


def test_lift_coeff_payload(tmp_path, capsys):
    path = element_file(tmp_path, 1, 1, 2)
    code, out, _ = run_cli(capsys, "lift-coeff", "--k", "10", "--input", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficient"] == "-24"
    assert payload["divisors"] == {"2": [0, 0, 1]}


def test_lift_coeff_missing_eigen_prime(tmp_path, capsys):
    csv = tmp_path / "eigen.csv"
    csv.write_text("p,a_p\n2,-24\n")
    path = element_file(tmp_path, 1, 1, 3)
    code, _, err = run_cli(
        capsys, "lift-coeff", "--k", "10", "--eigen", str(csv), "--input", path
    )
    assert code == 2 and "missing a_p" in json.loads(err)["error"]


@pytest.mark.parametrize("command", ["period", "lift-coeff"])
def test_short_eigen_csv_row_is_a_usage_error(tmp_path, command):
    csv = tmp_path / "short.csv"
    csv.write_text("p,a_p\n2\n")
    argv = [command, "--k", "10", "--eigen", str(csv)]
    if command == "lift-coeff":
        argv += ["--input", element_file(tmp_path, 1, 1, 2)]
    proc = run_module(argv)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "row 2 needs both p and a_p" in json.loads(proc.stderr)["error"]


def test_eigen_csv_composite_p_is_a_usage_error(tmp_path, capsys):
    # rows 4,7 and 9,1 are never read at diag(1, 1, 2), yet the CSV is refused
    csv = tmp_path / "composite.csv"
    csv.write_text("p,a_p\n2,-24\n4,7\n9,1\n")
    code, out, err = run_cli(capsys, "lift-coeff", "--k", "10", "--eigen", str(csv),
                             "--input", element_file(tmp_path, 1, 1, 2))
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "bad eigen CSV %s: p = 4 is not a prime" % csv}


def test_eigen_csv_repeated_prime_is_a_usage_error(tmp_path, capsys):
    # p = 2 listed with a_p = -24 and then 0: the builtin table's coefficient
    # at diag(1, 1, 2) is -24, and the CSV is refused rather than read as 0
    path = element_file(tmp_path, 1, 1, 2)
    code, out, _ = run_cli(capsys, "lift-coeff", "--k", "10", "--input", path)
    assert code == 0 and json.loads(out)["coefficient"] == "-24"
    csv = tmp_path / "dup.csv"
    csv.write_text("p,a_p\n2,-24\n2,0\n")
    code, out, err = run_cli(capsys, "lift-coeff", "--k", "10", "--eigen", str(csv),
                             "--input", path)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "bad eigen CSV %s: prime 2 is listed twice" % csv}


@pytest.mark.parametrize("command", ["lift-coeff", "lift-table", "period", "probe"])
def test_eigen_csv_zero_denominator_is_a_usage_error(tmp_path, capsys, command):
    csv = tmp_path / "zero_den.csv"
    csv.write_text("p,a_p\n2,1/0\n")
    argv = [command, "--k", "10", "--eigen", str(csv)]
    if command == "lift-coeff":
        argv += ["--input", element_file(tmp_path, 1, 1, 2)]
    elif command == "lift-table":
        argv += ["--max-det", "2"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "error": "bad eigen CSV %s: row 2: a_p = '1/0' has a zero denominator" % csv}


def test_eigen_csv_row_with_extra_fields_is_a_usage_error(tmp_path, capsys):
    # tau(5) = 4830 written with a thousands separator must not read as 4
    csv = tmp_path / "extra.csv"
    csv.write_text("p,a_p\n2,-24\n3,252\n5,4,830\n")
    code, out, err = run_cli(capsys, "lift-coeff", "--k", "10", "--eigen", str(csv),
                             "--input", element_file(tmp_path, 1, 1, 5))
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "error": "bad eigen CSV %s: row 4 has more than the two fields p and a_p" % csv}
    csv.write_text("p,a_p\n2,-24\n3,252\n5,4830\n")
    code, out, _ = run_cli(capsys, "lift-coeff", "--k", "10", "--eigen", str(csv),
                           "--input", element_file(tmp_path, 1, 1, 5))
    assert code == 0 and json.loads(out)["coefficient"] == "4830"


@pytest.mark.parametrize("command", ["reduce", "mass", "lift-coeff"])
def test_deeply_nested_element_is_a_usage_error(tmp_path, command):
    # past the JSON decoder's recursion limit
    path = tmp_path / "nested.json"
    path.write_text("[" * 1000 + "]" * 1000)
    argv = [command, "--input", str(path)]
    argv += {"reduce": ["--prime", "2"], "mass": [], "lift-coeff": ["--k", "10"]}[command]
    proc = run_module(argv)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr and proc.stderr.count("\n") == 1
    assert json.loads(proc.stderr)["error"].startswith("malformed JSON in %s: " % path)


def _zero_eigen_csv(tmp_path, max_prime):
    """An eigen CSV with a_p = 0 at every prime up to max_prime."""
    path = tmp_path / "zero.csv"
    path.write_text("p,a_p\n" + "".join("%d,0\n" % p for p in range(2, max_prime + 1)
                                         if is_prime(p)))
    return str(path)


def test_eigen_csv_header_with_spaces(tmp_path, capsys):
    # the header names are stripped when checked; rows must be read by them too
    eigen = eigen_delta(256)
    rows = "".join("%d,%d\n" % (p, a) for p, a in sorted(eigen.table.items()))
    outs = []
    for name, header in (("plain.csv", "p,a_p"), ("spaced.csv", "p, a_p")):
        path = tmp_path / name
        path.write_text(header + "\n" + rows)
        code, out, err = run_cli(capsys, "period", "--k", "10", "--digits", "10",
                                 "--eigen", str(path))
        assert code == 0 and err == ""
        outs.append(out)
    assert outs[0] == outs[1]


def test_lift_table_rows(capsys):
    code, out, _ = run_cli(capsys, "lift-table", "--k", "10", "--max-det", "4")
    assert code == 0
    rows = json.loads(out)["rows"]
    eigen = eigen_delta(10)
    assert [r["det"] for r in rows] == ["1", "2", "3", "4", "4"]
    assert rows[0]["coefficient"] == "1"
    four = {json.dumps(r["divisors"]): r["coefficient"] for r in rows if r["det"] == "4"}
    assert four['{"2": [0, 0, 2]}'] == str(local_factor(2, (0, 0, 2), eigen))
    assert four['{"2": [0, 1, 1]}'] == str(local_factor(2, (0, 1, 1), eigen))


def _lift_table_reference(max_det, eigen):
    """lift-table's rows from factorize and one local_factor per prime of
    each row, the loop that the per-prime-power blocks replaced."""
    rows = []
    for n in range(1, max_det + 1):
        fac = factorize(n)
        primes = sorted(fac)
        for combo in itertools.product(*(exponent_triples(fac[p]) for p in primes)):
            coeff = 1
            for p, exps in zip(primes, combo):
                coeff *= local_factor(p, exps, eigen)
            rows.append({
                "det": str(n),
                "divisors": {str(p): list(exps) for p, exps in zip(primes, combo)},
                "coefficient": frac_str(coeff),
            })
    return rows


def test_lift_table_matches_the_per_row_reference(capsys):
    reference = _lift_table_reference(120, eigen_delta(120))
    for max_det in range(1, 121):
        code, out, err = run_cli(capsys, "lift-table", "--k", "10", "--max-det", str(max_det))
        assert code == 0 and err == ""
        rows = [r for r in reference if int(r["det"]) <= max_det]
        assert out == json.dumps({"k": 10, "max_det": max_det, "rows": rows}, indent=2) + "\n"


def _payload(*argv):
    """The payload a command's handler returns, before it is written."""
    args = cli.build_parser().parse_args(list(argv))
    return args.handler(args)


@pytest.mark.parametrize("max_det", ["1", "2", "200"])
def test_streamed_output_is_the_one_shot_dump(capsys, max_det):
    argv = ("lift-table", "--k", "10", "--max-det", max_det)
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert out == json.dumps(_payload(*argv), indent=2) + "\n"


def test_streamed_output_through_out_spans_blocks(tmp_path, capsys):
    argv = ("lift-table", "--k", "10", "--max-det", "200")
    payload = _payload(*argv)
    assert len(list(json.JSONEncoder(indent=2).iterencode(payload))) > 2 * cli._BLOCK
    target = tmp_path / "table.json"
    code, out, err = run_cli(capsys, *argv, "--out", str(target))
    assert code == 0 and out == "" and err == ""
    assert target.read_text() == json.dumps(payload, indent=2) + "\n"


def test_streamed_failure_payload(monkeypatch, capsys):
    report = {"t_power": 4, "route": "closed_form", "lambda_sum": "1/3", "closed_form": "1/2"}
    monkeypatch.setattr(cli, "H_verify", lambda p, tmax, table_route: (False, report))
    code, out, err = run_cli(capsys, "hp-verify", "--prime", "3", "--tmax", "6")
    assert code == 1
    assert json.loads(err) == {"error": "generating identity failed for p=3"}
    payload = {"prime": 3, "tmax": 6, "ok": False, "first_discrepancy": report}
    assert out == json.dumps(payload, indent=2) + "\n"


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="no /proc/self/status")
def test_lift_table_at_the_cap_streams_in_bounded_memory(tmp_path):
    # VmHWM is the child's own high-water mark; ru_maxrss would also carry
    # the parent's, which a fork passes on to its child
    target = tmp_path / "table.json"
    code = (
        "import sys, time\n"
        "from heptalift import cli\n"
        "t = time.perf_counter()\n"
        "code = cli.main(['lift-table', '--k', '10', '--max-det', '29000', '--out', %r])\n"
        "elapsed = time.perf_counter() - t\n"
        "hwm = next(l for l in open('/proc/self/status') if l.startswith('VmHWM:'))\n"
        "print(code, elapsed, int(hwm.split()[1]))\n" % str(target)
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    exit_code, elapsed, hwm_kb = proc.stdout.split()
    assert int(exit_code) == 0 and target.stat().st_size > 16_000_000
    assert float(elapsed) <= 15
    assert int(hwm_kb) <= 70 * 1024


def test_lift_table_print_limit(tmp_path, capsys):
    # with a_p = 0 at k = 3000, det 36 is the first determinant whose
    # coefficient passes Python's 4300-digit limit on int-to-str conversion
    csv = _zero_eigen_csv(tmp_path, 36)
    code, out, err = run_cli(capsys, "lift-table", "--k", "3000", "--max-det", "35",
                             "--eigen", csv)
    assert code == 0 and err == ""
    assert json.loads(out)["rows"][-1]["det"] == "35"
    code, out, err = run_cli(capsys, "lift-table", "--k", "3000", "--max-det", "36",
                             "--eigen", csv)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "the coefficient at det 36 exceeds the 4300-digit "
                                        "print limit; lower --k or --max-det"}


@pytest.mark.parametrize("rows,missing", [
    ("2,-24\n3,252\n7,-16744\n", 5),
    ("2,-24\n3,252\n5,4830\n7,-16744\n", 11),
], ids=["5", "11"])
def test_lift_table_names_the_smallest_missing_prime(tmp_path, capsys, rows, missing):
    csv = tmp_path / "eigen.csv"
    csv.write_text("p,a_p\n" + rows)
    argv = ("lift-table", "--k", "10", "--max-det", "30", "--eigen", str(csv))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "error": "eigen table is missing a_p for p = 'no eigenvalue ingested for prime %d'"
        % missing
    }


@pytest.mark.parametrize("command,digits", [("period", "10"), ("probe", "10,12")])
def test_period_and_probe_name_the_smallest_missing_prime(tmp_path, capsys, command, digits):
    # at 10 digits the L-value series reads b(n) up to n = 21, so a table of
    # p <= 5 is short
    csv = tmp_path / "eigen.csv"
    csv.write_text("p,a_p\n2,-24\n3,252\n5,4830\n")
    code, out, err = run_cli(capsys, command, "--k", "10", "--digits", digits,
                             "--eigen", str(csv))
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "error": "eigen table is missing a_p for p = 'no eigenvalue ingested for prime 7'"
    }


def _tau_csv(tmp_path, max_prime):
    """An eigen CSV of tau(p) at every prime up to max_prime."""
    path = tmp_path / ("tau%d.csv" % max_prime)
    path.write_text("p,a_p\n" + "".join("%d,%d\n" % row
                                          for row in sorted(eigen_delta(max_prime).table.items())))
    return str(path)


@pytest.mark.parametrize("argv,largest", [
    (("period", "--digits", "20"), 31),
    (("period", "--digits", "50"), 73),
    (("probe", "--digits", "20,30"), 47),
], ids=["period-20", "period-50", "probe-20-30"])
def test_period_and_probe_need_only_the_primes_their_series_reads(tmp_path, capsys, argv,
                                                                   largest):
    # at k = 10 the series reads b(n) up to n = 33 at 20 digits, 47 at 30 and
    # 77 at 50, so tau(p) for p <= largest is all it reads
    command, *flags = argv
    code, want, err = run_cli(capsys, command, "--k", "10", *flags, "--eigen", "tau")
    assert code == 0 and err == ""
    code, out, err = run_cli(capsys, command, "--k", "10", *flags,
                             "--eigen", _tau_csv(tmp_path, largest))
    assert (code, out, err) == (0, want, "")
    code, out, err = run_cli(capsys, command, "--k", "10", *flags,
                             "--eigen", _tau_csv(tmp_path, largest - 1))
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "error": "eigen table is missing a_p for p = 'no eigenvalue ingested for prime %d'"
        % largest
    }


@pytest.mark.parametrize("command", [("mass",), ("lift-coeff", "--k", "10")],
                         ids=["mass", "lift-coeff"])
@pytest.mark.parametrize("diag", [
    (10 ** 300 + 7, 10 ** 300 + 9, 1),
    (int("7" * 4000), 1, 1),
], ids=["two-301-digit-entries", "4000-sevens"])
def test_determinant_too_large_to_factor_exits_2_fast(tmp_path, command, diag):
    # refused before any primality test or rho step, which ran for minutes
    t0 = time.perf_counter()
    proc = run_module([*command, "--input", element_file(tmp_path, *diag)])
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "at most 64 bits are factored" in json.loads(proc.stderr)["error"]
    assert elapsed < 2.0


def test_small_prime_powers_still_factor(tmp_path, capsys):
    # nothing is left after trial division; digests recorded before the bound
    path = element_file(tmp_path, 2 ** 200, 3 ** 50, 1)
    for argv, digest in (
        (("mass",), "ccb6a0e5aa7c0d63d8b6e6210c96e111cfdc7e2db6039c4724ba934ad6794631"),
        (("lift-coeff", "--k", "10"),
         "8192f35e7bb99634c0c10d9a150c23d544d1e1fd8489154c0ecc396b7bc8c669"),
    ):
        code, out, err = run_cli(capsys, *argv, "--input", path)
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    ("reduce", "--input", "ELEM"),
    ("siegel", "--m", "0,0,1"),
    ("density", "--divisors", "0,0,1"),
    ("igusa-verify", "--order", "2"),
    ("rs-euler",),
], ids=lambda a: a[0])
def test_prime_bit_length_cap(argv, tmp_path, capsys):
    # refused before the primality test, which grows faster than bits^2
    assert cli.MAX_PRIME_BITS == 1024
    swap = {"ELEM": element_file(tmp_path, 1, 1, 1)}
    rest = [swap.get(a, a) for a in argv[1:]]
    for p in (2 ** 4999 + 1, 2 ** 1024 + 1):
        t0 = time.perf_counter()
        proc = run_module([argv[0], "--prime", str(p), *rest])
        elapsed = time.perf_counter() - t0
        assert proc.returncode == 2 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert json.loads(proc.stderr) == {"error": "--prime must have at most 1024 bits"}
        assert elapsed < 2.0
    # a Mersenne prime of 607 bits is still tested and accepted
    if argv[0] in ("siegel", "density"):
        code, out, err = run_cli(capsys, argv[0], "--prime", str(2 ** 607 - 1), *rest)
        assert code == 0 and err == ""


def test_rs_euler_payload(capsys):
    code, out, _ = run_cli(capsys, "rs-euler", "--prime", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["consistent"] is True
    assert len(payload["t2_numerators"]) == 3
    assert len(payload["sym2_denominators"]) == 3
    assert all(len(tri) == 3 for tri in payload["sym2_denominators"])


def test_rs_euler_prime_bit_bound(capsys):
    # the prefactor's numerator is p^28: it prints within 4300 digits for
    # every p below 2^510 and passes that limit for the largest 511-bit primes
    assert cli.MAX_RS_EULER_BITS == 510
    assert (2 ** 510) ** 28 < 10 ** 4300 < (2 ** 511 - 187) ** 28
    p = 2 ** 510 - 75  # the largest 510-bit prime
    assert is_prime(p) and not any(is_prime(q) for q in range(p + 2, 2 ** 510, 2))
    code, out, err = run_cli(capsys, "rs-euler", "--prime", str(p))
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["consistent"] is True
    assert len(payload["prefactor"].split("/")[0]) == 4299
    # the smallest and the largest 511-bit primes, and Mersenne primes above
    for q in (2 ** 510 + 15, 2 ** 511 - 187, 2 ** 521 - 1, 2 ** 607 - 1):
        assert is_prime(q)
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, "rs-euler", "--prime", str(q))
        elapsed = time.perf_counter() - t0
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "rs-euler --prime must have at most 510 bits, "
                                            "so that its prefactor prints within 4300 digits"}
        assert elapsed < 0.5


def test_lift_coeff_print_limit(tmp_path, capsys, monkeypatch):
    # diag(1, 1, 2^2597) has a coefficient of exactly 4300 digits at k = 10
    code, out, err = run_cli(capsys, "lift-coeff", "--k", "10",
                             "--input", element_file(tmp_path, 1, 1, 2 ** 2597))
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["divisors"] == {"2": [0, 0, 2597]}
    assert len(payload["coefficient"].lstrip("-")) == 4300
    # coefficients past the limit are refused once computed, naming the file
    for diag in ((1, 7 ** 400, 7 ** 400), (1, 1, 2 ** 2598),
                 (2 ** 3000, 3 ** 2000, 5 ** 1000)):
        path = element_file(tmp_path, *diag)
        code, out, err = run_cli(capsys, "lift-coeff", "--k", "10", "--input", path)
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "the coefficient of the element in %s exceeds "
                                            "the 4300-digit print limit" % path}
    # a determinant past the limit is refused before anything is computed
    monkeypatch.setattr(cli, "genus_invariants", lambda *a: pytest.fail("computed"))
    path = element_file(tmp_path, 10 ** 1433, 10 ** 1433, 10 ** 1434)
    code, out, err = run_cli(capsys, "lift-coeff", "--k", "10", "--input", path)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "the det(T) of the element in %s exceeds the "
                                        "4300-digit print limit" % path}


def test_mass_print_limit(tmp_path, capsys, monkeypatch):
    # the mass of diag(2^3000, 3^2000, 5^1000) does not print; 10^4299 as a
    # determinant does, and 10^4300 is refused before the mass is computed
    path = element_file(tmp_path, 2 ** 3000, 3 ** 2000, 5 ** 1000)
    code, out, err = run_cli(capsys, "mass", "--input", path)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "the mass of the element in %s exceeds the "
                                        "4300-digit print limit" % path}
    monkeypatch.setattr(cli, "mass", lambda T: Fraction(1, 2))
    code, out, err = run_cli(capsys, "mass", "--input",
                             element_file(tmp_path, 10 ** 1433, 10 ** 1433, 10 ** 1433))
    assert code == 0 and err == ""
    assert json.loads(out) == {"det": "1" + "0" * 4299, "mass": "1/2"}
    path = element_file(tmp_path, 10 ** 1433, 10 ** 1433, 10 ** 1434)
    code, out, err = run_cli(capsys, "mass", "--input", path)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "the det(T) of the element in %s exceeds the "
                                        "4300-digit print limit" % path}


def test_oversized_element_entries(tmp_path):
    # a 4300-digit entry reads, and its coefficient is refused at printing;
    # a 4301-digit entry is refused as it is read, naming the file and the limit
    for zeros, message in ((4299, "exceeds the 4300-digit print limit"),
                           (4300, "Exceeds the limit (4300 digits)")):
        path = tmp_path / "big.json"
        path.write_text('{"diag": [1%s, 1, 1], "x": %s, "y": %s, "z": %s}'
                        % ("0" * zeros, ZERO8, ZERO8, ZERO8))
        proc = run_module(["lift-coeff", "--k", "10", "--input", str(path)])
        assert proc.returncode == 2 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        error = json.loads(proc.stderr)["error"]
        assert message in error and str(path) in error


def test_period_deterministic_bytes(capsys):
    code1, out1, _ = run_cli(capsys, "period", "--k", "10", "--digits", "12")
    code2, out2, _ = run_cli(capsys, "period", "--k", "10", "--digits", "12")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["pi_power"] == -63
    assert payload["gamma_k"] == frac_str(gamma_k(10))
    assert [lv["s"] for lv in payload["lvalues"]] == [1, 5, 9]
    assert all("error_bound" in lv for lv in payload["lvalues"])


def test_period_k_bound(tmp_path, capsys, monkeypatch):
    # period prints gamma_k, so it takes k up to MAX_GAMMA_K, and refuses a
    # larger k with gamma-k's message before it reads the eigen table; the
    # L-value series at k = 343 runs past any small table, so the report is
    # stubbed with unit values and the real gamma_k
    csv = _zero_eigen_csv(tmp_path, 256)
    one = BigFloat(mpmath.mpf(1), mpmath.mpf(0))
    monkeypatch.setattr(lvalue, "period_report", lambda k, eigen, digits: {
        "value": one, "gamma_k": gamma_k(k), "pi_power": -(6 * k + 3), "lvalues": [one] * 3})
    code, out, err = run_cli(capsys, "period", "--k", str(cli.MAX_GAMMA_K), "--eigen", csv)
    assert code == 0 and err == ""
    assert json.loads(out)["gamma_k"] == frac_str(gamma_k(cli.MAX_GAMMA_K))
    monkeypatch.setattr(cli, "_load_eigen", lambda *a: pytest.fail("eigen table read"))
    code, out, err = run_cli(capsys, "period", "--k", str(cli.MAX_GAMMA_K + 1), "--eigen", csv)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "--k must be <= 343, the largest k whose gamma_k prints"}


def test_digits_cap_is_fifty(capsys):
    # the library accepts more digits; the CLI keeps its own limit of 50
    for argv in (("period", "--k", "10", "--digits", "51"),
                 ("period", "--k", "10", "--digits", "0"),
                 ("probe", "--k", "10", "--digits", "20,51")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert "between 1 and 50" in json.loads(err)["error"]


def _edges(least, most=None):
    """Values at the bounds, and just outside them; with an upper bound, 10^6
    is refused as well, far past every cap."""
    taken = [least] if most is None else [least, most]
    refused = [least - 1] if most is None else [least - 1, most + 1, 10 ** 6]
    return [str(v) for v in taken], [str(v) for v in refused]


def _bounds(kind):
    """The variables a flag type closes over: least and most for a type made
    by cli._bounded, item for the pair type; none for any other type."""
    try:
        return inspect.getclosurevars(kind).nonlocals
    except TypeError:  # None, or a class such as int
        return {}


def _required_value(action):
    """A value for a required flag the sweep is not testing: 2 for --prime,
    the least value of a bounded flag, and otherwise a path that the
    replaced handlers never read."""
    if action.type is cli._prime:
        return "2"
    least = _bounds(action.type).get("least")
    return "unread.json" if least is None else str(least)


def _bounded_flags():
    """Every bounded flag of cli's parser: the subcommand with its other
    required flags, the flag, the values it takes and the values it refuses."""
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    cases = []
    for name, sp in sub.choices.items():
        flags = [a for a in sp._actions if a.option_strings]
        for action in flags:
            bounds = _bounds(action.type)
            item = _bounds(bounds["item"]) if "item" in bounds else None
            if "least" not in (item or bounds):
                continue
            others = tuple(v for other in flags if other.required and other is not action
                           for v in (other.option_strings[0], _required_value(other)))
            if item is None:
                taken, refused = _edges(bounds["least"], bounds["most"])
            else:  # a pair of increasing values, each of the item's range
                (lo, hi), (below, above, _) = _edges(item["least"], item["most"])
                taken, refused = [lo + "," + hi], [below + "," + hi, lo + "," + above]
            cases.append(((name,) + others, action.option_strings[0], taken, refused))
    return cases


BOUNDED_FLAGS = _bounded_flags()


def test_bounded_flags_are_read_from_the_parser():
    assert [" ".join(c[0][:1] + c[1:2]) for c in BOUNDED_FLAGS] == [
        "reduce --precision", "igusa-verify --order", "hp-verify --tmax", "gamma-k --k",
        "lift-coeff --k", "lift-table --k", "lift-table --max-det", "period --k",
        "period --digits", "probe --k", "probe --digits"]


@pytest.fixture
def handler_calls(monkeypatch):
    """Every subcommand handler replaced by one that records its call and
    returns an empty payload, in a parser built around the replacements."""
    calls = []
    for name in list(vars(cli)):
        if name.startswith("_cmd_"):
            monkeypatch.setattr(cli, name, lambda args: calls.append(args) or {})
    cli.build_parser.cache_clear()
    yield calls
    cli.build_parser.cache_clear()


@pytest.mark.parametrize("command,flag,taken,refused", BOUNDED_FLAGS,
                         ids=[" ".join(c[0][:1] + c[1:2]) for c in BOUNDED_FLAGS])
def test_bounded_flags_are_refused_before_any_work(capsys, handler_calls, command, flag,
                                                   taken, refused):
    for value in refused:
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, *command, flag, value)
        elapsed = time.perf_counter() - t0
        assert code == 2 and out == ""
        assert json.loads(err)["error"].startswith(flag + " must be")
        assert handler_calls == [] and elapsed < 0.5
    for value in taken:
        code, out, err = run_cli(capsys, *command, flag, value)
        assert code == 0 and err == ""
    assert len(handler_calls) == len(taken)


def test_every_cap_is_in_the_cli_reference():
    # docs/cli.md holds the basis and measurements of each cap, cli.py the value
    doc = (Path(__file__).resolve().parent.parent / "docs" / "cli.md").read_text()
    for name in ("MAX_DIGITS", "MAX_GAMMA_K", "MAX_TMAX", "MAX_ORDER", "MAX_HP_SIZE",
                 "MAX_LOCAL_SIZE", "MAX_DET", "MAX_PRIME_BITS", "MAX_RS_EULER_BITS"):
        assert re.search(r"\b%d\b" % getattr(cli, name), doc), name


def test_probe_payload(capsys):
    code, out, _ = run_cli(capsys, "probe", "--k", "10", "--digits", "20,30")
    assert code == 0
    payload = json.loads(out)
    assert payload["r5"] == "2/12285"
    assert payload["r9"] == "256/14582602125"


def test_census_payload(capsys):
    code, out, _ = run_cli(capsys, "census")
    assert code == 0
    payload = json.loads(out)
    assert payload["counts"] == {
        "rank0": 1, "rank1": 139503, "rank2": 69193488, "rank3": 64884736,
    }
    assert payload["beta"] == frac_str(beta_exps(2, (0, 0, 0)))
    assert "elapsed_seconds" in payload
    assert "threads" not in payload
    code, out, err = run_cli(capsys, "census", "--threads", "4")
    assert code == 2 and out == "" and "error" in json.loads(err)
    code, _, err = run_cli(capsys, "census", "--prime", "3")
    assert code == 2 and "prime 2" in json.loads(err)["error"]


def test_selftest_wiring(monkeypatch, capsys):
    fake = (
        acceptance.Criterion(1, "fake-pass", 5.0, lambda: "fine"),
        acceptance.Criterion(2, "fake-fail", 5.0, lambda: (_ for _ in ()).throw(AssertionError("boom"))),
    )
    monkeypatch.setattr(acceptance, "CRITERIA", fake)
    code, out, err = run_cli(capsys, "selftest")
    assert code == 1
    squeezed = " ".join(err.split())
    assert "fake-pass PASS" in squeezed
    assert "fake-fail FAIL" in squeezed
    payload = json.loads(out.strip())
    assert payload["ok"] is False
    assert [c["ok"] for c in payload["criteria"]] == [True, False]


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(capsys, "gamma-k", "--k", "11", "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["gamma_k"] == frac_str(gamma_k(11))


@pytest.mark.parametrize("kind", [
    "missing", "directory",
    pytest.param("full", marks=pytest.mark.skipif(not os.path.exists("/dev/full"),
                                                  reason="no /dev/full"))])
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, monkeypatch, kind):
    # from a run that succeeds, and from a failed identity, whose payload
    # goes to --out as well
    target = {"missing": str(tmp_path / "missing" / "x.json"), "directory": str(tmp_path),
              "full": "/dev/full"}[kind]
    monkeypatch.setattr(cli, "H_verify", lambda p, tmax, table_route: (False, {"m": 1}))
    for argv in (("gamma-k", "--k", "10"), ("hp-verify", "--prime", "2", "--tmax", "5")):
        code, out, err = run_cli(capsys, *argv, "--out", target)
        assert code == 2 and out == "" and err.count("\n") == 1
        assert json.loads(err)["error"].startswith("cannot write %s: " % target)
    good = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "hp-verify", "--prime", "2", "--tmax", "5", "--out", str(good))
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "generating identity failed for p=2"}
    assert json.loads(good.read_text())["first_discrepancy"] == {"m": 1}


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", [
    pytest.param(("lift-table", "--k", "10", "--max-det", "200"), id="long"),
    pytest.param(("gamma-k", "--k", "10"), id="short")])
def test_unwritable_stdout_is_a_usage_error(argv):
    # a fresh process: with stdout buffered (PYTHONUNBUFFERED empty) the long
    # payload fails in the write itself and the short one only when it is
    # flushed, and the interpreter's own flush at exit must not retry either
    # (that would print "Exception ignored" and exit 120)
    for unbuffered in ("", "1"):
        with open("/dev/full", "w") as full:
            proc = run_module(argv, stdout=full, PYTHONUNBUFFERED=unbuffered)
        assert proc.returncode == 2 and "Traceback" not in proc.stderr
        assert proc.stderr.count("\n") == 1
        assert json.loads(proc.stderr)["error"].startswith("cannot write stdout: ")


def test_refused_run_leaves_out_untouched(tmp_path, capsys):
    target = tmp_path / "kept.json"
    target.write_text("kept\n")
    code, out, _ = run_cli(capsys, "gamma-k", "--k", "9", "--out", str(target))
    assert code == 2 and out == "" and target.read_text() == "kept\n"
    code, _, err = run_cli(capsys, "lift-coeff", "--k", "10", "--input", str(tmp_path / "none.json"),
                           "--out", str(target))
    assert code == 2 and "cannot read" in json.loads(err)["error"]
    assert target.read_text() == "kept\n"


def test_unknown_command_and_missing_args(capsys):
    code, _, err = run_cli(capsys, "bogus")
    assert code == 2 and "error" in json.loads(err)
    code, _, err = run_cli(capsys, "gamma-k")
    assert code == 2 and "error" in json.loads(err)
