"""Golden outputs: what each checked operation is reduced to, and how a
result is compared with its recorded reference.

* ``csv`` (a ``simulate`` dataset): the SHA-256 of its bytes.
* ``report`` (a machine-format report): its parsed ``sections``.  Strings,
  ints, booleans, verdicts and candidate sets must be equal; floats must
  agree to 1e-9 (absolute, or relative above magnitude 1), the score
  contract of the program.  Provenance is not compared, since it names the
  temporary input files.
* ``oracle`` (an ``oracle_identify`` outcome): its agreement and verdict.

``python3 perfbench/golden.py`` re-records ``golden.json`` from the program
in this checkout, for every program seed in the pools of ``inputs.py``.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
FLOAT_TOL = 1e-9


def digest(kind: str, output):
    if kind == "csv":
        return hashlib.sha256(output.encode("utf-8")).hexdigest()
    if kind == "report":
        return json.loads(output)["sections"]
    if kind == "oracle":
        return {"agreement": bool(output.agreement), "verdict": output.identification.verdict}
    raise ValueError(f"unknown output kind {kind!r}")


def same(got, want) -> bool:
    """Structural equality with the float tolerance of the score contract."""
    if isinstance(want, bool) or isinstance(got, bool):
        return got is want
    if isinstance(want, float):
        if isinstance(got, bool) or not isinstance(got, (int, float)):
            return False
        if math.isnan(want) or math.isnan(got):
            return math.isnan(want) and math.isnan(got)
        return abs(got - want) <= FLOAT_TOL * max(1.0, abs(want))
    if isinstance(want, dict):
        return (
            isinstance(got, dict)
            and got.keys() == want.keys()
            and all(same(got[k], want[k]) for k in want)
        )
    if isinstance(want, list):
        return (
            isinstance(got, list)
            and len(got) == len(want)
            and all(same(g, w) for g, w in zip(got, want))
        )
    return type(got) is type(want) and got == want


def load() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


if __name__ == "__main__":
    import shutil
    import tempfile

    import run  # imports teleo from this checkout, or exits
    import workloads

    run.OUT.mkdir(exist_ok=True)
    work_root = Path(tempfile.mkdtemp(prefix="golden-", dir=run.OUT))
    try:
        table = {w.name: workloads.record(w, workloads.SIZES, work_root) for w in workloads.WORKLOADS}
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    GOLDEN_PATH.write_text(json.dumps(table, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")
