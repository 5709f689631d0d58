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

    @cached_property
    def _sample_plans(self) -> dict:
        """Sampling plans per requested names; a derived graph starts empty."""
        return {}

    # --- validation ------------------------------------------------------

    def validate(self) -> list[str]:
        """Collect every invariant violation; an empty report means valid.
        A cycle is the closed walk up first parents left out by Kahn's pass,
        from the first declared variable it leaves out."""
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
        left_out = self._by_name.keys() - set(self._order)
        if left_out:  # each has a parent left out, so a walk up them closes
            node = next(name for name in self._by_name if name in left_out)
            walk: dict[str, int] = {}
            while node not in walk:
                walk[node] = len(walk)
                node = next(p for p in self._by_name[node].parents if p in left_out)
            problems.append("cycle: " + " -> ".join([*list(walk)[walk[node] :], node]))
        return tuple(problems)

    @cached_property
    def _order(self) -> tuple[str, ...]:
        """Kahn's pass (1962) over the declared parents: a variable is ready
        once its parents are placed, and is placed first in, first out; the
        roots, and the children one placement makes ready, in declaration
        order.  A variable on or below a cycle is never ready: left out."""
        parents = {name: set(v.parents) & self._by_name.keys() for name, v in self._by_name.items()}
        children: dict[str, list[str]] = {name: [] for name in parents}
        for name, above in parents.items():
            for p in above:
                children[p].append(name)
        waiting = {name: len(above) for name, above in parents.items()}
        order = [name for name, n in waiting.items() if not n]
        for node in order:  # appending while reading makes the list a queue
            for child in children[node]:
                waiting[child] -= 1
                if not waiting[child]:
                    order.append(child)
        return tuple(order)

    # --- queries ----------------------------------------------------------

    @property
    def topological_order(self) -> tuple[str, ...]:
        """Parents before children, as :attr:`_order` places them; raises
        :class:`InvalidGraphError` when a cycle leaves a variable out."""
        if len(self._order) != len(self.variables):
            raise InvalidGraphError(["cycle prevents topological ordering"])
        return self._order

    def descendants(self, name: str) -> set[str]:
        """Everything reachable from ``name`` along edge direction."""
        return self._reach(name, self._children.__getitem__)

    def ancestors(self, name: str) -> set[str]:
        """Everything that can reach ``name`` along edge direction; parents
        that are not declared variables are left out."""
        return self._reach(name, lambda node: self._by_name[node].parents)

    def _reach(self, name: str, step) -> set[str]:
        """The declared variables reached from ``name`` by repeated ``step``
        (a node's neighbours in one direction); ``name`` itself only if a
        cycle leads back to it."""
        self.variable(name)
        reached: set[str] = set()
        frontier = [name]
        while frontier:
            for node in step(frontier.pop()):
                if node in self._by_name and node not in reached:
                    reached.add(node)
                    frontier.append(node)
        return reached

    def ancestral_subgraph(self, name: str) -> "CausalGraph":
        """``name`` and its ancestors, in declaration order.  Every other
        variable is barren for ``name``: summing it out leaves the marginal
        of ``name`` unchanged (Shachter 1998)."""
        keep = self.ancestors(name) | {name}
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
        effects = graph.descendants(self.action)
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
