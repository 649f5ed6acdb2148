"""Smoke test: demos 01-07 and 09 run to completion as standalone scripts.

Demo 08 (period pipeline) is left out; acceptance criterion 12 runs the
same code path.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0[1-79]_*.py"))


def test_demo_list():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03", "04", "05", "06", "07", "09"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
