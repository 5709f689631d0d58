"""Benchmark of the teleo program in this checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` sets the workload up several times, then runs its units
(see ``workloads.py``) in a closed loop for about ``S`` seconds and prints
the end-to-end metrics.  ``--trace 1`` runs one pass of the workload
untraced and one traced (``spans.py``) and prints the per-layer metrics.
Every operation's output is checked against ``golden.json``.  The last line
of stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
the ``metrics`` that ``BENCHMARK.json`` declares for the mode.  The lines
before it list every metric the run computed, by name and unit, and the
environment it ran in.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from importlib import metadata
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / ".out"


def guard_import():
    """Import ``teleo`` from this checkout's ``src/``, or exit."""
    sys.path.insert(0, str(SRC))
    try:
        import teleo
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import teleo from {SRC}: {exc}")
    where = Path(teleo.__file__).resolve()
    if SRC.resolve() not in where.parents:
        sys.exit(f"perfbench: teleo was imported from {where}, not from {SRC}")
    return teleo


teleo_module = guard_import()

import golden  # noqa: E402  (workloads imports teleo)
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 3
IMPORT_REPS = 3
TAIL_BEYOND = 10
REF_EVERY_S = 0.2
REF_BURST = 25

# Layers whose wrapped call count must be nonzero in a traced pass, so
# that a wrapper missing a call path cannot report zero unnoticed.
EXPECTED_LAYERS = {
    "oracle-sport": (
        "graph.require_valid", "engine.joint_enumerate", "engine.sample", "agent.servable",
        "agent.bound_graph", "agent.action_rate", "effects.classify_effects", "lab.plan",
        "lab.run_battery", "inference.score_arms",
    ),
    "chain-exact": (
        "cli.run_command", "specfmt.parse_graph_spec", "graph.require_valid",
        "engine.joint_enumerate", "engine.from_csv", "agent.servable", "agent.bound_graph",
        "agent.action_rate", "inference.arms_from_dataset", "inference.score_arms",
        "report.emit_report",
    ),
    "data-400k": (
        "cli.run_command", "specfmt.parse_graph_spec", "engine.joint_enumerate", "engine.sample",
        "engine.to_csv", "engine.from_csv", "engine.filter_regimes", "agent.servable",
        "agent.action_rate", "lab.plan", "observational.observational_battery",
        "inference.arms_from_dataset", "inference.score_arms", "report.emit_report",
    ),
}
COUNTERS = (
    "engine.joint_cells", "engine.sample_rows", "engine.csv_bytes_written",
    "engine.csv_rows_read", "lab.experiments_run", "observational.strata",
    "inference.hypotheses_scored", "inference.rate_evaluations", "report.bytes_emitted",
)


def environment(teleo) -> dict:
    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "absent"

    commit = "unknown"
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
        if done.returncode == 0:
            commit = done.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "teleo": str(Path(teleo.__file__).resolve()),
    }


def child_env() -> dict:
    """Environment of the fresh interpreters: ``teleo`` from ``src/``, and
    bytecode caching on, so that ``__pycache__`` is warm after the first."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def fresh_import_s(module: str) -> float:
    """Seconds ``import module`` takes in a fresh interpreter."""
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout)


def set_up(workload, seed: int, sizes, work_root: Path):
    """One set-up: a fresh interpreter imports teleo (what every run of the
    program pays), then the workload makes its inputs in a new directory.
    Returns the wall time and the state."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import teleo"], env=child_env(), check=True, timeout=120
    )
    picker = random.Random(seed)
    state = workloads.State(
        workdir=Path(tempfile.mkdtemp(dir=work_root)),
        run_seed=picker.choice(workload.pool),
        unit_seeds=workloads.SeedStream(picker, workload.pool),
        sizes=sizes,
    )
    workload.setup(state)
    return time.perf_counter() - t0, state


def reference_work() -> int:
    """A fixed mix of interpreted Python and small NumPy operations, the two
    kinds of work teleo does.  It takes about 12 ms on a 2-core x86 VM."""
    total = 0
    for i in range(100_000):
        total += i * i % 7
    a = np.arange(100_000, dtype=np.int64)
    for _ in range(10):
        a = (a * 3 + 1) & 0xFFFF
    return total + int(a[-1])


class Reference:
    """Times ``reference_work`` between operations: one sample for every
    REF_EVERY_S seconds since the last ones, up to REF_BURST at a time.  The
    speed of a shared machine drifts by tens of percent within seconds;
    dividing a run's times by the median reference time of the same run
    cancels most of that drift."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = None

    def sample(self) -> None:
        now = time.perf_counter()
        due = 1 if self._last is None else int((now - self._last) / REF_EVERY_S)
        for _ in range(min(due, REF_BURST)):
            t0 = time.perf_counter()
            reference_work()
            self.samples.append(time.perf_counter() - t0)
        if due:
            self._last = time.perf_counter()

    def median(self) -> float:
        return statistics.median(self.samples)


class Tally:
    """Operations attempted and failed, with per-unit and per-op times."""

    def __init__(self, goldens: dict):
        self.goldens = goldens
        self.attempted = 0
        self.failed = 0
        self.unit_s: dict[int, list[float]] = {}
        self.op_s: dict[str, list[float]] = {}

    def run_op(self, op) -> float:
        """Run and check one operation; returns its wall time."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception:
            out = None
            traceback.print_exc(file=sys.stderr)
        elapsed = time.perf_counter() - t0
        self.op_s.setdefault(op.key.rsplit("/", 1)[-1], []).append(elapsed)
        if out is None or not self.matches(op, out):
            self.failed += 1
        return elapsed

    def run_unit(self, ops, kind: int, reference: Reference) -> float:
        total = 0.0
        for op in ops:
            reference.sample()
            total += self.run_op(op)
        self.unit_s.setdefault(kind, []).append(total)
        return total

    def matches(self, op, out) -> bool:
        want = self.goldens.get(op.key)
        if want is None:
            print(f"perfbench: no golden output for {op.key}", file=sys.stderr)
            return False
        if golden.same(golden.digest(op.kind, out), want):
            return True
        print(f"perfbench: output of {op.key} differs from its golden", file=sys.stderr)
        return False


def tail(values: list[float]) -> tuple[float | None, float | None]:
    """The highest percentile with at least ten values beyond it, as
    (value, percentile); (None, None) with fewer than eleven values."""
    if len(values) <= TAIL_BEYOND:
        return None, None
    ordered = sorted(values)
    k = len(ordered) - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def measure(workload, goldens: dict, seed: int, seconds: float, sizes, work_root: Path):
    """Set up SETUP_REPS times, then run units until the next one would end
    past ``seconds``.  Returns (metrics, tally); metrics map name to
    (value, unit)."""
    setups = []
    for _ in range(SETUP_REPS):
        elapsed, state = set_up(workload, seed, sizes, work_root)
        setups.append(elapsed)
    tally = Tally(goldens)
    reference = Reference()
    start = time.perf_counter()
    i = 0
    while True:
        last = tally.run_unit(workload.unit(state, i), i % workload.kinds, reference)
        i += 1
        if time.perf_counter() - start + last > seconds:
            break
    reference.sample()
    # Units of one kind (a subcommand, a truth) cost alike; kinds differ.
    # Averaging per-kind figures keeps the mix of kinds from moving them.
    by_kind = list(tally.unit_s.values())
    units = [t for times in by_kind for t in times]
    op_median = statistics.fmean(statistics.median(times) for times in by_kind)
    op_mean = statistics.fmean(statistics.fmean(times) for times in by_kind)
    ref = reference.median()
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "op_median_s": (op_median, "s"),
        "ops_per_s": (1.0 / op_mean, "1/s"),
        "ref_s": (ref, "s"),
        "op_median_ref": (op_median / ref, "ref"),
        "ops_per_ref": (ref / op_mean, "1/ref"),
        "failed_ratio": (tally.failed / tally.attempted, "ratio"),
        "units": (len(units), "count"),
    }
    if workload.name == "oracle-sport":
        value, pct = tail(units)
        metrics["identify_p50_s"] = (statistics.median(units), "s")
        metrics["identify_tail_s"] = (value, "s")
        metrics["identify_tail_percentile"] = (pct, "%")
        metrics["identify_per_s"] = metrics["ops_per_s"]
    if workload.name == "chain-exact":
        metrics["chain_infer_s"] = (statistics.median(units), "s")
    if workload.name == "data-400k":
        ops = tally.op_s
        metrics["data_write_s"] = (statistics.median(ops["simulate"]), "s")
        reads = [a + b for a, b in zip(ops["analyze"], ops["infer"])]
        metrics["data_read_s"] = (statistics.median(reads), "s")
        metrics["data_write_ref"] = (metrics["data_write_s"][0] / ref, "ref")
        metrics["data_read_ref"] = (metrics["data_read_s"][0] / ref, "ref")
    return metrics, tally


def trace_pass(workload, goldens: dict, seed: int, sizes, work_root: Path, trace_path: Path, env: dict):
    """One untraced and one traced pass over the same units.  Returns
    (metrics, tally, problems)."""
    _, state = set_up(workload, seed, sizes, work_root)
    import_s = statistics.median(fresh_import_s("teleo.cli") for _ in range(IMPORT_REPS))
    # Each operation runs untraced, then traced, so that both see the same
    # warm state; the tracer's wrappers are in place only for the second.
    tally = Tally(goldens)
    tracer = spans.Tracer()
    untraced = traced = 0.0
    for i in range(workload.pass_units):
        for op in workload.unit(state, i):
            untraced += tally.run_op(op)
            tracer.op = op.key
            with tracer:
                traced += tally.run_op(op)

    metrics = {
        "cli.import_s": (import_s, "s"),
        "trace.untraced_wall_s": (untraced, "s"),
        "trace.traced_wall_s": (traced, "s"),
        "trace.overhead_s": (traced - untraced, "s"),
    }
    for name, (busy, own) in tracer.layer_times().items():
        metrics[f"{name}_s"] = (busy, "s")
        metrics[f"{name}_self_s"] = (own, "s")
        metrics[f"{name}_calls"] = (tracer.counts[f"{name}_calls"], "count")
    for name in COUNTERS:
        unit = "B" if name.endswith("bytes_written") or name.endswith("bytes_emitted") else "count"
        metrics[name] = (tracer.counts[name], unit)
    rates = tracer.counts["inference.rate_evaluations"]
    metrics["inference.enumerations_per_rate"] = (
        tracer.counts["engine.joint_enumerate_calls"] / rates if rates else 0.0,
        "ratio",
    )

    problems = [
        f"traced pass made no {layer} call"
        for layer in EXPECTED_LAYERS[workload.name]
        if not tracer.counts[f"{layer}_calls"]
    ]
    self_total = sum(tracer.self_ns()) / 1e9
    if self_total > traced:
        problems.append(f"self times add up to {self_total} s, more than the traced wall {traced} s")
    tracer.write_jsonl(
        trace_path,
        {"workload": workload.name, "seed": seed, "environment": env,
         "traced_wall_s": traced, "untraced_wall_s": untraced},
    )
    return metrics, tally, problems


def declared(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def result_line(metrics: dict, tally: Tally, trace: bool, problems: list[str]) -> dict:
    chosen = {}
    for entry in declared(trace):
        value, unit = metrics[entry["name"]]
        if unit != entry["unit"]:
            raise RuntimeError(f"{entry['name']} is measured in {unit}, declared in {entry['unit']}")
        chosen[entry["name"]] = {"value": value, "unit": unit}
    return {
        "correct": tally.failed == 0 and not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": chosen,
    }


def print_metrics(metrics: dict) -> None:
    width = max(len(name) for name in metrics)
    for name, (value, unit) in sorted(metrics.items()):
        if value is None:
            shown = "n/a"
        elif isinstance(value, int):
            shown = str(value)
        else:
            shown = f"{value:.6g}"
        print(f"{name:<{width}}  {shown} {unit}")


def run(workload_name: str, seed: int, seconds: float, trace: bool, goldens: dict, sizes) -> dict:
    """Run one workload and print its metrics; returns the result object."""
    workload = workloads.BY_NAME[workload_name]
    OUT.mkdir(exist_ok=True)
    work_root = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        env = environment(teleo_module)
        print("environment " + json.dumps(env, sort_keys=True))
        if trace:
            trace_path = OUT / f"trace-{workload_name}-seed{seed}.jsonl"
            metrics, tally, problems = trace_pass(
                workload, goldens[workload_name], seed, sizes, work_root, trace_path, env
            )
            print(f"trace written to {trace_path}")
        else:
            metrics, tally = measure(workload, goldens[workload_name], seed, seconds, sizes, work_root)
            problems = []
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print_metrics(metrics)
    return result_line(metrics, tally, trace, problems)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w.name for w in workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), golden.load(), workloads.SIZES)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
