"""Spans around the public entry points of each ``teleo`` module, recorded
from outside the program.

Each traced callable is replaced, for the duration of a :class:`Tracer`,
by a wrapper that records a span (name, start, end, parent span, operation
id) and adds the counts taken from its arguments and return value.  The
wrapper is installed on every ``teleo.*`` module that binds the callable by
name (``agent`` imports ``joint_enumerate``, ``cli`` imports ``score_arms``
and friends), so no call path escapes it.  Spans stay in memory until
:meth:`Tracer.write_jsonl`.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


def _calls(args, kwargs, result) -> dict:
    return {}


def _joint(args, kwargs, result) -> dict:
    return {"engine.joint_cells": 1 << len(args[0].variables)}


def _sample(args, kwargs, result) -> dict:
    return {"engine.sample_rows": result.n_rows}


def _to_csv(args, kwargs, result) -> dict:
    return {"engine.csv_bytes_written": len(result.encode("utf-8"))}


def _from_csv(args, kwargs, result) -> dict:
    return {"engine.csv_rows_read": result.n_rows}


def _battery(args, kwargs, result) -> dict:
    return {"lab.experiments_run": len(result)}


def _strata(args, kwargs, result) -> dict:
    return {
        "observational.strata": sum(
            len(r.comparison.strata) for r in result if r.comparison is not None
        )
    }


def _score(args, kwargs, result) -> dict:
    arms = [arm for arm in args[0] if arm.n > 0]
    return {
        "inference.hypotheses_scored": len(result),
        "inference.rate_evaluations": len(result) * len(arms),
    }


def _emit(args, kwargs, result) -> dict:
    return {"report.bytes_emitted": len(result.encode("utf-8"))}


@dataclass(frozen=True)
class Target:
    """One traced callable: the span name, where it is defined (``module``
    or ``module:Class``), and what it counts besides its calls."""

    name: str
    owner: str
    attr: str
    counts: Callable = _calls


TARGETS = (
    Target("cli.run_command", "teleo.cli", "run_command"),
    Target("specfmt.parse_graph_spec", "teleo.specfmt", "parse_graph_spec"),
    Target("graph.require_valid", "teleo.graph:CausalGraph", "require_valid"),
    Target("engine.joint_enumerate", "teleo.engine", "joint_enumerate", _joint),
    Target("engine.sample", "teleo.engine", "sample", _sample),
    Target("engine.to_csv", "teleo.engine:Dataset", "to_csv", _to_csv),
    Target("engine.from_csv", "teleo.engine:Dataset", "from_csv", _from_csv),
    Target("engine.filter_regimes", "teleo.engine:Dataset", "filter_regimes"),
    Target("agent.servable", "teleo.agent", "servable"),
    Target("agent.bound_graph", "teleo.agent:TeleologicalModel", "bound_graph"),
    Target("agent.action_rate", "teleo.agent:TeleologicalModel", "action_rate"),
    Target("effects.classify_effects", "teleo.effects", "classify_effects"),
    Target("lab.plan", "teleo.lab", "plan"),
    Target("lab.run_battery", "teleo.lab", "run_battery", _battery),
    Target("observational.observational_battery", "teleo.observational", "observational_battery", _strata),
    Target("inference.arms_from_dataset", "teleo.inference", "arms_from_dataset"),
    Target("inference.score_arms", "teleo.inference", "score_arms", _score),
    Target("report.emit_report", "teleo.report", "emit_report", _emit),
)


class Tracer:
    """Install wrappers on enter, restore the originals on exit.  Spans and
    counts accumulate over every time the tracer is entered.

    ``op`` names the operation that spans opened from now on belong to; the
    harness sets it before each operation.
    """

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.op = ""
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, target: Target, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = {"id": span_id, "name": target.name, "parent": parent, "op": self.op}
            self.spans.append(span)
            self._stack.append(span_id)
            span["start_ns"] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end_ns"] = time.perf_counter_ns()
                self._stack.pop()
            self.counts[target.name + "_calls"] += 1
            self.counts.update(target.counts(args, kwargs, result))
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in sorted(sys.modules.items()) if n == "teleo" or n.startswith("teleo.")]
        try:
            for target in self.targets:
                module_name, _, class_name = target.owner.partition(":")
                owner = importlib.import_module(module_name)
                if class_name:
                    owner = getattr(owner, class_name)
                    raw = owner.__dict__[target.attr]
                    if isinstance(raw, staticmethod):
                        wrapped = staticmethod(self._wrap(target, raw.__func__))
                    else:
                        wrapped = self._wrap(target, raw)
                    self._patch(owner, target.attr, wrapped)
                    continue
                original = getattr(owner, target.attr)
                wrapped = self._wrap(target, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapped)
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # --- aggregation -----------------------------------------------------

    def self_ns(self) -> list[int]:
        """Per span: its duration minus the time its child spans cover.
        Children of one span run one after another, so they do not overlap."""
        own = [s["end_ns"] - s["start_ns"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end_ns"] - s["start_ns"]
        return own

    def layer_times(self) -> dict[str, tuple[float, float]]:
        """Per span name: (busy seconds, self seconds).  Busy time counts a
        span only when no enclosing span has the same name, so recursion is
        not counted twice."""
        own = self.self_ns()
        busy: Counter = Counter()
        selft: Counter = Counter()
        for s in self.spans:
            selft[s["name"]] += own[s["id"]]
            parent = s["parent"]
            while parent is not None and self.spans[parent]["name"] != s["name"]:
                parent = self.spans[parent]["parent"]
            if parent is None:
                busy[s["name"]] += s["end_ns"] - s["start_ns"]
        return {t.name: (busy[t.name] / 1e9, selft[t.name] / 1e9) for t in self.targets}

    def write_jsonl(self, path: Path, header: dict) -> None:
        own = self.self_ns()
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"kind": "header", **header}) + "\n")
            for s in self.spans:
                out.write(json.dumps({"kind": "span", **s, "self_ns": own[s["id"]]}) + "\n")
            out.write(json.dumps({"kind": "counts", **dict(sorted(self.counts.items()))}) + "\n")
