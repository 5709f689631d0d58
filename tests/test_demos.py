"""Every demo script runs to completion and prints exactly its recorded
output, and the package's public names resolve.

The demos are seeded, so their stdout is fixed bytes.  A change that means
to alter a demo's output re-records it with
``python demos/<name>.py > tests/demo_output/<name>.txt``."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import teleo

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
RECORDED = Path(__file__).resolve().parent / "demo_output"
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
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, env=ENV, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (RECORDED / f"{demo.stem}.txt").read_bytes()


def test_public_names_resolve():
    assert len(teleo.__all__) == len(set(teleo.__all__))
    assert [name for name in teleo.__all__ if not hasattr(teleo, name)] == []


def test_readme_quick_tour():
    """README's quick tour runs as written, and each expression line whose
    trailing comment is a literal evaluates to that literal."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Quick tour", 1)[1]
    block = tour.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    exec(compile(block, "README.md", "exec"), namespace)
    checked = []
    for line in block.splitlines():
        code, _, comment = line.partition("  #")
        if not comment or not isinstance(ast.parse(code.strip()).body[0], ast.Expr):
            continue
        want = ast.literal_eval(comment.strip())
        assert eval(code, namespace) == pytest.approx(want), line
        checked.append(want)
    assert checked == [0.8, 0.05, "unique"]
