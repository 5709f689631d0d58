"""The workloads.  Each is a closed loop with one client: one operation at
a time, the next only after the previous one returned.

A workload sets up its inputs in a fresh directory, then yields *units*,
the things the end-to-end metrics time: one ``oracle_identify`` call
(``oracle-sport``), one ``infer`` pass over the three chain specs
(``chain-exact``), one simulate + analyze + infer pass over 400k rows
(``data-400k``).  A unit is a list of checked operations.  Units of one
workload come in ``kinds`` that cost alike (the four truths of
``oracle-sport``); the metrics average over kinds.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import teleo.cli
from teleo import AgentPolicy, oracle_identify
from teleo.models import sport_lab, sport_lab_confounded

import golden
import inputs


@dataclass(frozen=True)
class Sizes:
    oracle_n: int = 2000
    chain: tuple[tuple[int, int], ...] = ((6, 1), (7, 2), (8, 1))  # (depth, max size)
    chain_n: int = 2000
    data_n: int = 100_000


SIZES = Sizes()


@dataclass(frozen=True)
class Op:
    """One checked operation: ``run`` returns the output that ``kind``
    reduces to a golden digest stored under ``key``."""

    key: str
    kind: str
    run: Callable[[], object]


def run_in_process(argv: list[str]) -> str:
    """``teleo.cli.run_command`` with stdout captured; raises on a nonzero
    exit.  The function is looked up at call time so a tracer sees it."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = teleo.cli.run_command(argv)
    if code != 0:
        raise RuntimeError(f"teleo {argv[0]} exited {code}")
    return buf.getvalue()


def run_to_file(argv: list[str], out: Path) -> str:
    run_in_process([*argv, "--out", str(out)])
    return out.read_text(encoding="utf-8")


class SeedStream:
    """Program seeds for successive units, drawn from a workload's pool."""

    def __init__(self, picker, pool):
        self.picker = picker
        self.pool = pool
        self.seeds: list[int] = []

    def __getitem__(self, i: int) -> int:
        while len(self.seeds) <= i:
            self.seeds.append(self.picker.choice(self.pool))
        return self.seeds[i]


@dataclass
class State:
    """One set-up of a workload.  ``run_seed`` drives the inputs made at
    set-up; ``unit_seeds[i]`` drives unit ``i``."""

    workdir: Path
    run_seed: int
    unit_seeds: object
    sizes: Sizes
    extra: dict = field(default_factory=dict)


class OracleSport:
    name = "oracle-sport"
    pool = inputs.ORACLE_SEEDS
    kinds = record_units = len(inputs.SINGLETONS)
    pass_units = 5 * kinds

    def setup(self, state: State) -> None:
        doc = sport_lab()
        state.extra.update(graph=doc.graph, levers=doc.levers)
        self.unit(state, 0)[0].run()

    def unit(self, state: State, i: int) -> list[Op]:
        truth = inputs.SINGLETONS[i % len(inputs.SINGLETONS)]
        seed = state.unit_seeds[i]

        def call():
            return oracle_identify(
                state.extra["graph"],
                "practice",
                AgentPolicy.make(((truth, 1),)),
                state.extra["levers"],
                state.sizes.oracle_n,
                seed,
            )

        return [Op(f"{truth}/{seed}", "oracle", call)]


class ChainExact:
    name = "chain-exact"
    pool = inputs.CHAIN_SEEDS
    pass_units = kinds = record_units = 1

    def setup(self, state: State) -> None:
        specs = []
        for depth, max_size in state.sizes.chain:
            spec = inputs.write_spec(inputs.chain_doc(depth), state.workdir / f"chain{depth}.spec")
            data = state.workdir / f"chain{depth}.csv"
            run_in_process(
                ["simulate", "--graph", str(spec), "--seed", str(state.run_seed),
                 "--n", str(state.sizes.chain_n), "--out", str(data)]
            )
            specs.append((depth, max_size, str(spec), str(data)))
        state.extra["specs"] = specs
        # Warm the scoring path on the smallest spec.
        self.unit(state, 0)[0].run()

    def unit(self, state: State, i: int) -> list[Op]:
        ops = []
        for depth, max_size, spec, data in state.extra["specs"]:
            argv = ["infer", "--graph", spec, "--data", data, "--format", "machine",
                    "--max-size", str(max_size)]
            out = state.workdir / f"infer{depth}.json"
            ops.append(Op(f"{state.run_seed}/{depth}", "report",
                          lambda argv=argv, out=out: run_to_file(argv, out)))
        return ops


class Data400k:
    name = "data-400k"
    pool = inputs.DATA_SEEDS
    pass_units = kinds = record_units = 1

    def setup(self, state: State) -> None:
        spec = inputs.write_spec(sport_lab_confounded(), state.workdir / "confounded.spec")
        state.extra["spec"] = str(spec)
        # Warm the write and read paths on a small dataset.
        small = state.workdir / "warm.csv"
        run_in_process(["simulate", "--graph", str(spec), "--seed", "0", "--n", "100", "--out", str(small)])
        for sub in ("analyze", "infer"):
            run_in_process([sub, "--graph", str(spec), "--data", str(small), "--format", "machine"])

    def unit(self, state: State, i: int) -> list[Op]:
        seed = state.unit_seeds[i]
        spec = state.extra["spec"]
        data = state.workdir / "data.csv"
        simulate = ["simulate", "--graph", spec, "--seed", str(seed), "--n", str(state.sizes.data_n)]
        ops = [Op(f"{seed}/simulate", "csv", lambda: run_to_file(simulate, data))]
        for sub in ("analyze", "infer"):
            argv = [sub, "--graph", spec, "--data", str(data), "--format", "machine"]
            out = state.workdir / f"{sub}.json"
            ops.append(Op(f"{seed}/{sub}", "report", lambda argv=argv, out=out: run_to_file(argv, out)))
        return ops


WORKLOADS = (OracleSport(), ChainExact(), Data400k())
BY_NAME = {w.name: w for w in WORKLOADS}


def record(workload, sizes: Sizes, workdir: Path) -> dict:
    """Golden digests of every operation, for every seed in the pool."""
    table = {}
    for seed in workload.pool:
        run_dir = workdir / f"{workload.name}-{seed}"
        run_dir.mkdir()
        state = State(run_dir, seed, [seed] * workload.record_units, sizes)
        workload.setup(state)
        for i in range(workload.record_units):
            for op in workload.unit(state, i):
                table[op.key] = golden.digest(op.kind, op.run())
    return table
