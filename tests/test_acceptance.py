"""The twelve package-level acceptance gates, one test line per criterion.

Every gate is defined once in heptalift.acceptance and shared verbatim with
the CLI selftest: exact identities, pinned tolerances, and a wall-clock
budget per criterion.  A criterion fails this test if any of its checks
fail or if it runs over budget, and the printed line says which.
"""

import random

import pytest

from heptalift import acceptance


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
