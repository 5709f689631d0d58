"""Self-test of the benchmark harness at tiny sizes.

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is printed with its unit on
every workload, in both modes; that a corrupted golden entry is counted as
a failed operation; that a traced run's self times add up to no more than
its wall time and its counts repeat exactly; and that the benchmark refuses
to run where this checkout's ``src/`` is missing.  Exits nonzero on the
first check that fails.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run  # imports teleo from this checkout, or exits

import golden
import workloads

TINY = workloads.Sizes(oracle_n=200, chain=((3, 1), (4, 2)), chain_n=200, data_n=500)
SEED = 7


def check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def quiet_run(name: str, trace: bool, goldens: dict) -> tuple[dict, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        result = run.run(name, SEED, 0.5, trace, goldens, TINY)
    return result, out.getvalue()


def corrupt(entry):
    """A copy of a golden digest that no correct output matches."""
    if isinstance(entry, str):
        return "0" * len(entry)
    entry = copy.deepcopy(entry)
    if "verdict" in entry and "agreement" in entry:
        entry["agreement"] = not entry["agreement"]
        return entry
    entry.setdefault("validation", {})["n_variables"] = -1
    return entry


def check_tolerance() -> None:
    check(golden.same({"a": [1.0, "x", 2]}, {"a": [1.0 + 1e-12, "x", 2]}), "floats within 1e-9 compare equal")
    check(not golden.same(1.0 + 1e-6, 1.0), "floats 1e-6 apart differ")
    check(not golden.same(2.0, 2), "an int where a float was recorded differs")
    check(not golden.same({"a": 1}, {"a": 1, "b": 2}), "a missing section key differs")
    check(not golden.same(True, 1), "a bool and an int differ")


def check_bare_directory(spec_text: str) -> None:
    """Only BENCHMARK.json and the benchmark's files: no src/, so no run."""
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.OUT))
    try:
        (bare / "BENCHMARK.json").write_text(spec_text, encoding="utf-8")
        shutil.copytree(run.BENCH, bare / run.BENCH.name, ignore=shutil.ignore_patterns(".out", "__pycache__"))
        done = subprocess.run(
            [sys.executable, f"{run.BENCH.name}/run.py", "--workload", "oracle-sport",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
        last = (done.stdout.strip().splitlines() or [""])[-1]
        check(done.returncode != 0 and '"metrics"' not in last, "refuses to run without this checkout's src/")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def check_workloads(spec: dict, goldens: dict, work_root: Path) -> None:
    for w in workloads.WORKLOADS:
        for trace, declared in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            result, printed = quiet_run(w.name, trace, goldens)
            mode = "traced" if trace else "untraced"
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{w.name} {mode}: every operation matches its golden")
            lines = printed.splitlines()
            for m in declared:
                got = result["metrics"].get(m["name"])
                check(got is not None and got["unit"] == m["unit"] and isinstance(got["value"], (int, float)),
                      f"{w.name} {mode}: {m['name']} in the result, in {m['unit']}")
                check(any(l.split()[:1] == [m["name"]] and l.endswith(" " + m["unit"]) for l in lines),
                      f"{w.name} {mode}: {m['name']} printed with its unit")
            check(set(result["metrics"]) == {m["name"] for m in declared},
                  f"{w.name} {mode}: the result holds exactly the declared metrics")
            if trace:
                trace_file = run.OUT / f"trace-{w.name}-seed{SEED}.jsonl"
                records = [json.loads(l) for l in trace_file.read_text(encoding="utf-8").splitlines()]
                self_s = sum(r["self_ns"] for r in records if r["kind"] == "span") / 1e9
                check(self_s <= records[0]["traced_wall_s"], f"{w.name}: self times {self_s:.4f} s fit in the traced wall")
                counts = {k: v for k, v in result["metrics"].items() if v["unit"] != "s"}
                again, _ = quiet_run(w.name, True, goldens)
                check(counts == {k: v for k, v in again["metrics"].items() if v["unit"] != "s"},
                      f"{w.name}: traced counts repeat exactly")

        # The first operation of the run uses this key; corrupt only it.
        _, state = run.set_up(w, SEED, TINY, work_root)
        key = w.unit(state, 0)[0].key
        bad = copy.deepcopy(goldens)
        bad[w.name][key] = corrupt(bad[w.name][key])
        result, _ = quiet_run(w.name, False, bad)
        check(result["failed"] >= 1 and not result["correct"],
              f"{w.name}: a corrupted golden entry ({key}) counts as a failed operation")


def main() -> int:
    run.SETUP_REPS = 1
    run.IMPORT_REPS = 1
    spec_text = (run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8")
    spec = json.loads(spec_text)
    check_tolerance()

    run.OUT.mkdir(exist_ok=True)
    work_root = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT))
    try:
        goldens = {w.name: workloads.record(w, TINY, work_root) for w in workloads.WORKLOADS}
        check_workloads(spec, goldens, work_root)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    check_bare_directory(spec_text)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
