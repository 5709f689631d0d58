"""Causal DAGs over binary variables.

A :class:`CausalGraph` is an ordered collection of :class:`Variable` nodes,
each carrying a conditional probability table over its parents.  Variables
take values in {0, 1} only; deterministic mechanisms are CPTs whose rows are
exactly 0.0 or 1.0.  Graphs are treated as immutable after construction, so
they are safe to share across threads.

Validation is collect-all: :meth:`CausalGraph.validate` returns every
violation it can find instead of stopping at the first, which makes CLI
diagnostics far more useful.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

from .errors import InvalidGraphError, UnknownVariableError

Assignment = tuple[int, ...]


def _cpt_keys(n_parents: int) -> list[Assignment]:
    """All parent assignments in binary counting order (first parent is the
    most significant bit)."""
    return [tuple(bits) for bits in itertools.product((0, 1), repeat=n_parents)]


@dataclass(frozen=True)
class Variable:
    """One binary node: a name, ordered parents, and a CPT.

    The CPT maps each full parent assignment (a tuple of 0/1 values in
    declared parent order) to P(value = 1 | parents).  A parentless variable
    has the single key ``()``.
    """

    name: str
    parents: tuple[str, ...]
    cpt: Mapping[Assignment, float]

    @staticmethod
    def make(name: str, parents: Iterable[str] = (), cpt: Mapping | float = 0.5) -> "Variable":
        """Build a variable, normalizing parent lists and CPT keys to tuples.

        ``cpt`` may be a single float for a parentless variable, or a mapping
        whose keys are tuples (or single ints, for one parent) of 0/1.
        """
        parents = tuple(parents)
        if isinstance(cpt, (int, float)):
            table = {(): float(cpt)}
        else:
            table = {}
            for key, p in cpt.items():
                if isinstance(key, int):
                    key = (key,)
                table[tuple(key)] = float(p)
        return Variable(name=name, parents=parents, cpt=table)

    @staticmethod
    def constant(name: str, value: int) -> "Variable":
        """A parentless variable pinned to ``value`` with probability 1."""
        return Variable(name=name, parents=(), cpt={(): float(value)})

    @cached_property
    def cpt_array(self) -> np.ndarray:
        """CPT rows as a dense array indexed by parent bits (first parent is
        the most significant bit).  Requires a complete CPT."""
        rows = np.empty(2 ** len(self.parents))
        for i, key in enumerate(_cpt_keys(len(self.parents))):
            rows[i] = self.cpt[key]
        return rows

    @cached_property
    def factor(self) -> np.ndarray:
        """The CPT as a factor with one axis per parent (declared order) and
        a last axis for the variable: entry ``[*u, x]`` is
        P(value = x | parents = u)."""
        p = self.cpt_array
        return np.stack([1.0 - p, p], axis=-1).reshape((2,) * (len(self.parents) + 1))

    def local_violations(self) -> list[str]:
        """Check the invariants that do not need the rest of the graph."""
        problems = []
        if not self.name:
            problems.append("variable with empty name")
        if "=" in self.name or ";" in self.name:
            problems.append(f"{self.name}: name contains '=' or ';', which regime labels reserve")
        if len(set(self.parents)) != len(self.parents):
            problems.append(f"{self.name}: duplicate parent names")
        if self.name in self.parents:
            problems.append(f"{self.name}: variable is its own parent")
        expected = set(_cpt_keys(len(self.parents)))
        got = set(self.cpt)
        if got != expected:
            problems.append(
                f"{self.name}: incomplete CPT ({len(got)} rows, expected {len(expected)})"
            )
        for key, p in self.cpt.items():
            if not (0.0 <= p <= 1.0):
                problems.append(f"{self.name}: probability {p!r} outside [0,1] at row {key}")
        return problems


@dataclass(frozen=True)
class CausalGraph:
    """A DAG of binary variables; the edge set is implied by parent lists."""

    variables: tuple[Variable, ...]

    @staticmethod
    def make(variables: Iterable[Variable]) -> "CausalGraph":
        return CausalGraph(variables=tuple(variables))

    # --- structure -------------------------------------------------------

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    @cached_property
    def _by_name(self) -> dict[str, Variable]:
        return {v.name: v for v in self.variables}

    @cached_property
    def _children(self) -> dict[str, tuple[str, ...]]:
        kids: dict[str, list[str]] = {v.name: [] for v in self.variables}
        for v in self.variables:
            for p in v.parents:
                if p in kids:
                    kids[p].append(v.name)
        return {name: tuple(out) for name, out in kids.items()}

    def variable(self, name: str) -> Variable:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownVariableError(f"unknown variable {name!r}") from None

    def index(self, name: str) -> int:
        self.variable(name)
        return self.names.index(name)

    def parents(self, name: str) -> tuple[str, ...]:
        return self.variable(name).parents

    def children(self, name: str) -> tuple[str, ...]:
        self.variable(name)
        return self._children[name]

    def replace(self, *replacements: Variable) -> "CausalGraph":
        """A copy of this graph with the named variables swapped out; a
        replacement that names no variable raises :class:`UnknownVariableError`.

        A replacement that passes its local checks and either has no parents
        (a clamp) or keeps the parents of the variable it replaces adds no
        edge, so it can add no cycle: the copy of a valid graph is then valid
        without another check."""
        table = {v.name: v for v in replacements}
        for name in table:
            self.variable(name)
        graph = CausalGraph(tuple(table.get(v.name, v) for v in self.variables))
        if not self._violations and all(
            v.parents in ((), self._by_name[v.name].parents) and not v.local_violations()
            for v in table.values()
        ):
            graph.__dict__["_violations"] = ()
        return graph

    @cached_property
    def _do_margins(self) -> dict:
        """Do-margins per (action, regime, intended names); a derived graph starts empty."""
        return {}

    @cached_property
    def _bound(self) -> dict:
        """Bound graphs per (action, regime, policy CPT rows); a derived graph starts empty."""
        return {}

    # --- validation ------------------------------------------------------

    def validate(self) -> list[str]:
        """Collect every invariant violation; an empty report means valid."""
        return list(self._violations)

    def require_valid(self) -> "CausalGraph":
        if self._violations:
            raise InvalidGraphError(list(self._violations))
        return self

    @cached_property
    def _violations(self) -> tuple[str, ...]:
        """Every violation, found once per graph: a graph is frozen."""
        problems = []
        if not self.variables:
            problems.append("no variables declared")
        seen: set[str] = set()
        for v in self.variables:
            if v.name in seen:
                problems.append(f"duplicate variable {v.name!r}")
            seen.add(v.name)
            problems.extend(v.local_violations())
            for p in v.parents:
                if p not in self._by_name:
                    problems.append(f"{v.name}: unknown parent {p!r}")
        cycle = self._find_cycle()
        if cycle:
            problems.append("cycle: " + " -> ".join(cycle))
        return tuple(problems)

    def _find_cycle(self) -> list[str] | None:
        """Return one offending cycle (closed walk) if any exists.  The
        depth-first walk over parents keeps its own stack, so a long chain
        cannot exhaust the interpreter's recursion limit."""
        done: set[str] = set()
        for v in self.variables:
            if v.name in done:
                continue
            stack = [v.name]
            on_stack = {v.name}
            pending = [iter(self._by_name[v.name].parents)]
            while pending:
                for p in pending[-1]:
                    if p not in self._by_name or p in done:
                        continue
                    if p in on_stack:
                        return stack[stack.index(p):] + [p]
                    stack.append(p)
                    on_stack.add(p)
                    pending.append(iter(self._by_name[p].parents))
                    break
                else:
                    node = stack.pop()
                    on_stack.discard(node)
                    done.add(node)
                    pending.pop()
        return None

    # --- queries ----------------------------------------------------------

    @cached_property
    def topological_order(self) -> tuple[str, ...]:
        """Parents-before-children order, breaking ties by declaration order."""
        indegree = {v.name: 0 for v in self.variables}
        for v in self.variables:
            indegree[v.name] = len(set(v.parents))
        order = []
        ready = [name for name in self.names if indegree[name] == 0]
        while ready:
            node = ready.pop(0)
            order.append(node)
            for child in self._children[node]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    ready.append(child)
        if len(order) != len(self.variables):
            raise InvalidGraphError(["cycle prevents topological ordering"])
        return tuple(order)

    def descendants(self, name: str, strict: bool = True) -> set[str]:
        """Everything reachable from ``name`` along edge direction."""
        self.variable(name)
        reached: set[str] = set()
        frontier = [name]
        while frontier:
            node = frontier.pop()
            for child in self._children[node]:
                if child not in reached:
                    reached.add(child)
                    frontier.append(child)
        if not strict:
            reached.add(name)
        return reached

    def ancestors(self, name: str, strict: bool = True) -> set[str]:
        """Everything that can reach ``name`` along edge direction."""
        self.variable(name)
        reached: set[str] = set()
        frontier = [name]
        while frontier:
            node = frontier.pop()
            for p in self._by_name[node].parents:
                if p in self._by_name and p not in reached:
                    reached.add(p)
                    frontier.append(p)
        if not strict:
            reached.add(name)
        return reached

    def ancestral_subgraph(self, name: str) -> "CausalGraph":
        """``name`` and its ancestors, in declaration order.  Every other
        variable is barren for ``name``: summing it out leaves the marginal
        of ``name`` unchanged (Shachter 1998)."""
        keep = self.ancestors(name, strict=False)
        graph = CausalGraph(tuple(v for v in self.variables if v.name in keep))
        if not self._violations:
            graph.__dict__["_violations"] = ()  # closed under parents
        return graph

    def directed_paths(self, src: str, dst: str) -> list[list[str]]:
        """Every vertex-simple directed path from ``src`` to ``dst``, in
        depth-first order over children.  The walk keeps its own stack, so
        path length is not bounded by the recursion limit."""
        self.variable(src)
        self.variable(dst)
        paths: list[list[str]] = []
        if src == dst:
            return paths
        trail = [src]
        on_trail = {src}
        pending = [iter(self._children[src])]
        while pending:
            child = next(pending[-1], None)
            if child is None:
                on_trail.discard(trail.pop())
                pending.pop()
            elif child == dst:
                paths.append(trail + [dst])
            elif child not in on_trail:
                trail.append(child)
                on_trail.add(child)
                pending.append(iter(self._children[child]))
        return paths

    @property
    def n_edges(self) -> int:
        return sum(len(set(v.parents)) for v in self.variables)


@dataclass(frozen=True)
class Tagging:
    """The teleological annotation on a graph: one action variable plus the
    hypothesized set of intended effects with their target values."""

    action: str
    intention_hypothesis: frozenset[tuple[str, int]] = field(default_factory=frozenset)

    @staticmethod
    def make(action: str, intentions: Iterable[tuple[str, int]] = ()) -> "Tagging":
        return Tagging(action=action, intention_hypothesis=frozenset(intentions))

    def validate(self, graph: CausalGraph) -> list[str]:
        problems = []
        if self.action not in graph.names:
            problems.append(f"action {self.action!r} is not a declared variable")
            return problems
        effects = graph.descendants(self.action, strict=True)
        for name, target in sorted(self.intention_hypothesis):
            if name not in graph.names:
                problems.append(f"intended effect {name!r} is not a declared variable")
            elif name not in effects:
                problems.append(
                    f"intended effect {name!r} is not a strict descendant of {self.action!r}"
                )
            if target not in (0, 1):
                problems.append(f"intended effect {name!r} has target {target!r}, expected 0 or 1")
        return problems
