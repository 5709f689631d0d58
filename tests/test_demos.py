"""Every demo script runs to completion, and the package's public names
resolve."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import teleo

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
# The demos import the same teleo as the tests.
ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        [str(Path(teleo.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    ),
}


def test_all_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=ENV, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_public_names_resolve():
    assert len(teleo.__all__) == len(set(teleo.__all__))
    assert [name for name in teleo.__all__ if not hasattr(teleo, name)] == []
