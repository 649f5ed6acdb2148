"""The twelve package-level acceptance gates, one test line per criterion.

Every gate is defined once in heptalift.acceptance and shared verbatim with
the CLI selftest: exact identities, pinned tolerances, and a wall-clock
budget per criterion.  A criterion fails this test if any of its checks
fail or if it runs over budget, and the printed line says which.
"""

import random

import pytest

from heptalift import acceptance, lvalue


@pytest.mark.parametrize(
    "criterion", acceptance.CRITERIA, ids=[c.slug for c in acceptance.CRITERIA]
)
def test_criterion(criterion):
    r = acceptance.run(criterion)
    line = "criterion %02d %s: %s (%.2fs) %s" % (
        r.number,
        r.slug,
        "PASS" if r.ok else "FAIL",
        r.seconds,
        r.detail,
    )
    print(line)
    assert r.ok, line


def test_registry_shape():
    numbers = [c.number for c in acceptance.CRITERIA]
    assert numbers == list(range(1, 13))
    assert len({c.slug for c in acceptance.CRITERIA}) == 12
    assert all(c.budget_seconds > 0 for c in acceptance.CRITERIA)


@pytest.mark.parametrize("bound", [2, 3, 4])
def test_draws_match_randint_stream(bound):
    # the gates' inputs must stay the randint stream they were written with
    fast, slow = random.Random(1001 + bound), random.Random(1001 + bound)
    got = acceptance._draws(fast, bound, 40000)
    assert got == [slow.randint(-bound, bound) for _ in range(40000)]
    assert fast.getstate() == slow.getstate()


def test_period_rerun_check_compares_two_builds(monkeypatch):
    # the second build of the s = 1 kernel moves one node by one unit of the
    # working precision (2^GUARD_BITS at the node scale; a change below it is
    # rounded away by design); criterion 12's rerun must rebuild its kernels
    # and so see the change, not compare one memoized build with itself
    fix = lvalue._Kernel._fix
    builds = []

    def perturbed(ker, nodes, sizes):
        fix(ker, nodes, sizes)
        if ker.z == 1:
            builds.append(ker)
            if len(builds) == 2:
                ker.re = (ker.re[0] + (1 << lvalue.GUARD_BITS),) + ker.re[1:]

    monkeypatch.setattr(lvalue._Kernel, "_fix", perturbed)
    lvalue._kernels.cache_clear()
    try:
        r = acceptance.run(acceptance.CRITERIA[11])
    finally:
        lvalue._kernels.cache_clear()
    assert len(builds) == 2
    assert not r.ok and r.detail.startswith("assertion failed")
