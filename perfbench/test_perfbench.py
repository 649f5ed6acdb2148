"""The benchmark's own tests.

    python3 -m pytest -q perfbench/test_perfbench.py

They use the smoke job lists, so the whole file runs in about a minute.
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402

sys.path.insert(0, bench.SRC)

import checks  # noqa: E402
import jobs as joblists  # noqa: E402
import tracing  # noqa: E402

SCRATCH = os.path.join(bench.OUT_DIR, "tests")


def _reference():
    with open(bench.REFERENCE) as fh:
        return json.load(fh)


def _run(*argv, cwd=bench.ROOT, script=None):
    script = script or os.path.join(HERE, "run.py")
    return subprocess.run([sys.executable, script, *argv], capture_output=True,
                          text=True, cwd=cwd, timeout=170)


@pytest.fixture(scope="module")
def smoke_rounds():
    """One untraced and one traced smoke round of every workload."""
    out = {}
    deadline = bench.time.perf_counter() + 600
    for w in joblists.WORKLOADS:
        jobs = joblists.build(w, 7, smoke=True)
        out[w] = (jobs, bench.run_round(jobs, False, deadline),
                  bench.run_round(jobs, True, deadline))
    return out


@pytest.mark.parametrize("workload", joblists.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke_run_prints_a_correct_result(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "2",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = bench.per_layer_names() if trace else list(bench.END_TO_END)
    assert [(n, m["unit"]) for n, m in result["metrics"].items()] == names
    for m in result["metrics"].values():
        assert set(m) == {"value", "unit"}
        assert isinstance(m["value"], (int, float)) and m["value"] >= 0
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_every_smoke_output_passes_its_check(smoke_rounds):
    checker = checks.Checker(_reference())
    for jobs, plain, traced in smoke_rounds.values():
        for job, res in zip(jobs, plain["jobs"]):
            ok, why, _ = checker.check(job, res["rc"], res["output"])
            assert ok, (job["argv"] if job["kind"] == "cli" else job["fn"], why)


def _perturb(text):
    """Shift every decimal digit by one: every number in the output changes."""
    return "".join(str((int(c) + 1) % 10) if c.isdigit() else c for c in text)


def test_perturbed_output_is_counted_as_failed(smoke_rounds):
    for w, (jobs, plain, _) in smoke_rounds.items():
        checker = checks.Checker(_reference())
        bad = copy.deepcopy(plain)
        for res in bad["jobs"]:
            res["output"] = _perturb(res["output"])
        args = type("A", (), {"workload": w, "seed": 7, "seconds": 1,
                              "trace": 0, "smoke": True})
        record = bench.summarize(args, jobs, {False: [bad], True: []}, checker,
                                 [0.1], None, [0.05, 0.05])
        assert record["failed"] == record["attempted"] == len(jobs), (
            w, record["failures"])
        assert record["extra"]["failed_frac"] == 1.0


def test_perturbed_reference_is_counted_as_failed(smoke_rounds):
    jobs, plain, _ = smoke_rounds["period"]
    ref = _reference()
    v, e = ref["lvalues_50"]["5"]
    ref["lvalues_50"]["5"] = [v[:12] + str((int(v[12]) + 1) % 10) + v[13:], e]
    checker = checks.Checker(ref)
    verdicts = [checker.check(j, r["rc"], r["output"])[0]
                for j, r in zip(jobs, plain["jobs"])]
    assert verdicts.count(False) >= 2  # the CLI period job and the batch


def test_exit_code_failure_is_counted():
    checker = checks.Checker(_reference())
    job = joblists.build("tables", 7, smoke=True)[0]
    assert checker.check(job, 1, "")[0] is False


def test_traced_and_untraced_outputs_are_identical(smoke_rounds):
    for jobs, plain, traced in smoke_rounds.values():
        for job, a, b in zip(jobs, plain["jobs"], traced["jobs"]):
            assert checks.normalize(job, a["output"]) == checks.normalize(job, b["output"])


def test_self_times_add_up_to_traced_wall_time(smoke_rounds):
    for w, (_, _, traced) in smoke_rounds.items():
        covered = sum(traced["trace"]["self_s"].values()) / traced["wall_s"]
        assert abs(covered - 1) <= bench.COVERAGE_TOLERANCE, (w, covered)


def test_traced_round_records_layer_metrics(smoke_rounds):
    _, _, traced = smoke_rounds["tables"]
    m, unmeasured = tracing.layer_metrics(traced["trace"])
    assert m["siegel.f_poly.calls"] > 0
    assert 0 <= m["siegel.f_poly.repeat_ratio"] < 1
    assert m["lvalue.sym2_lvalue.calls"] == 0
    # no calls: the ratio reads 0 and is named as unmeasured
    assert m["lvalue.sym2_lvalue.repeat_ratio"] == 0
    assert unmeasured == ["lvalue.sym2_lvalue.repeat_ratio"]
    assert traced["trace"]["missing"] == []


def test_deleted_target_is_reported_missing(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + [
        ("siegel", "f_poly_renamed_away", "span"),
        ("lift", "NoSuchClass.method", "count"),
    ])
    monkeypatch.setitem(tracing.GROUPS, "siegel.f_poly",
                        ("siegel", ("f_poly", "f_poly_renamed_away")))
    import heptalift

    tracer = tracing.Tracer()
    missing = tracer.install()
    try:
        heptalift.f_poly(2, 0, 1, 1)
    finally:
        tracer.uninstall()
    assert "siegel.f_poly_renamed_away" in missing
    assert "lift.NoSuchClass.method" in missing
    m, unmeasured = tracing.layer_metrics(tracer.summary())
    assert m["siegel.f_poly.calls"] == 1  # the surviving member's calls
    assert m["siegel.self_s"] > 0
    assert {"siegel.f_poly.calls", "siegel.f_poly.repeat_ratio"} <= set(unmeasured)
    record = {"per_layer": m, "per_layer_unmeasured": unmeasured, "end_to_end": {},
              "facts": {}, "correct": True, "attempted": 1, "failed": 0}
    metrics, flagged = bench.result_metrics(record, trace=1)
    # the result line keeps exactly a number and a unit for every metric
    assert [(n, v["unit"]) for n, v in metrics.items()] == bench.per_layer_names()
    assert all(set(v) == {"value", "unit"} and v["value"] >= 0
               for v in metrics.values())
    assert "siegel.f_poly.calls" in flagged
    assert "acceptance.period-pipeline.s" in flagged  # no gate report here


def test_spans_nest_inside_their_parents():
    import contextlib
    import io

    from heptalift import cli

    tracer = tracing.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["lift-table", "--k", "10", "--max-det", "8"]) == 0
    finally:
        tracer.uninstall()
    spans = list(tracer.span_records())
    assert spans and spans[0]["name"] == "cli.main" and spans[0]["parent"] is None
    for s in spans[1:]:
        p = spans[s["parent"]]
        assert p["start"] <= s["start"] <= s["end"] <= p["end"]
    names = {s["name"] for s in spans}
    assert {"lift.local_factor", "siegel.f_poly", "padic.factorize"} <= names


def test_uninstall_restores_the_package():
    import heptalift
    from heptalift import cli, siegel

    before = (siegel.f_poly, cli.f_poly, heptalift.Octonion.__mul__)
    tracer = tracing.Tracer()
    tracer.install()
    assert cli.f_poly is not before[1]
    tracer.uninstall()
    assert (siegel.f_poly, cli.f_poly, heptalift.Octonion.__mul__) == before


def test_runs_fail_without_the_package_source():
    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), bare)
    proc = _run("--workload", "period", "--seed", "1", "--seconds", "5",
                "--trace", "0", cwd=bare,
                script=os.path.join(bare, "perfbench", "run.py"))
    shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_job_lists_are_seeded_and_cost_balanced():
    assert joblists.build("algebra", 5) == joblists.build("algebra", 5)
    assert joblists.build("algebra", 5) != joblists.build("algebra", 6)
    for seed in range(40):
        jobs = joblists.build("period", seed)
        digits = [int(j["argv"][-1]) for j in jobs if j["kind"] == "cli"
                  and j["argv"][0] == "period"]
        batch = [j["args"]["digits"] for j in jobs if j["kind"] == "batch"]
        assert digits[:3] == [20, 30, 50]
        cost = joblists._cost(batch[0]) + joblists._cost(digits[3])
        assert abs(cost - joblists._cost(10) - joblists._cost(42)) < 0.1
        assert batch[0] <= 22 and digits[3] >= 37


def test_benchmark_json_names_match_the_output():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(joblists.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == bench.per_layer_names()


def test_gate_failures_count_but_budget_misses_do_not(smoke_rounds, monkeypatch, capsys):
    import gates
    from heptalift import acceptance

    def boom():
        raise ValueError("broken gate")

    def wrong():
        assert 1 == 2, "wrong answer"

    def slow():
        return "fine"

    monkeypatch.setattr(acceptance, "CRITERIA", [
        acceptance.Criterion(1, "raises", 1.0, boom),
        acceptance.Criterion(2, "asserts", 1.0, wrong),
        acceptance.Criterion(3, "slow", -1.0, slow),
        acceptance.Criterion(4, "passes", 1.0, slow),
    ])
    gates.main(bench.SRC)
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    by_slug = {g["slug"]: g for g in report}
    assert not by_slug["raises"]["ok"] and "ValueError" in by_slug["raises"]["detail"]
    assert not by_slug["asserts"]["ok"] and not by_slug["asserts"]["budget_exceeded"]
    assert not by_slug["slow"]["ok"] and by_slug["slow"]["budget_exceeded"]
    assert by_slug["passes"]["ok"]

    jobs, plain, _ = smoke_rounds["tables"]
    args = type("A", (), {"workload": "tables", "seed": 7, "seconds": 1,
                          "trace": 1, "smoke": True})
    record = bench.summarize(args, jobs, {False: [plain], True: []},
                             checks.Checker(_reference()), [0.1], report,
                             [0.05, 0.05])
    assert record["attempted"] == len(jobs) + 4
    assert record["failed"] == 2 and not record["correct"]
    assert {f.get("gate") for f in record["failures"]} == {"raises", "asserts"}


def test_job_speed_uses_the_calibrations_around_each_job():
    a, b, c, d = 0.04, 0.05, 0.06, 0.10
    # job 0 and job 1 run back to back; two calibrations follow job 1
    got = bench.job_speeds([a, b, c, d], [1, 1, 3])
    nominal = bench.CALIB_NOMINAL_S
    want = [nominal / ((a + b) / 2), nominal / ((a + b + c) / 3),
            nominal / ((b + c + d) / 3)]
    assert got == pytest.approx(want)


def test_algebra_elements_share_no_prime():
    from heptalift.padic import factorize

    for seed in range(20):
        seen = []
        for job in joblists.build("algebra", seed):
            if job["check"]["type"] in ("lift_coeff", "mass"):
                a, b, c = job["check"]["diag"]
                seen += list(factorize(a * b * c))
        assert len(seen) == 22 and len(set(seen)) == 22, seed
