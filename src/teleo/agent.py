"""The action variable as an agent that listens to its intended effects.

Binding a policy replaces the action's CPT with a two-level rule: the agent
acts with probability ``p_act`` (optionally scaled by per-parent modifiers)
while every intended effect is still servable, and drops to ``p_base`` the
moment any of them stops being servable under the current regime.

Servability is the interventional contrast the agent cares about: clamping
an intended effect (or a lever that feeds it) drives the contrast to zero,
and only then does the action rate move.  Without a bound policy the same
clamp provably leaves the action's distribution untouched, which is what
separates interference from reverse causation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .engine import Regime, _sweep, joint_enumerate
from .errors import HypothesisError, PolicyError, RegimeError
from .graph import CausalGraph, Variable

DEFAULT_P_ACT = 0.8
DEFAULT_P_BASE = 0.05
DEFAULT_THETA = 0.1

Intention = tuple[str, int]


@dataclass(frozen=True)
class AgentPolicy:
    """Parameters that make the action listen to its intended effects.

    ``cause_modifiers`` maps (parent variable, parent value) to a
    multiplicative factor on ``p_act``; this is how confounding causes such
    as age get to influence the action rate.  Factors multiply and the
    result is clamped to [0, 1].  Modifiers never apply to ``p_base``.
    They are stored as a read-only mapping (``None`` gives none), so a
    policy is an immutable value that compares and hashes by its fields.
    """

    intention_set: frozenset[Intention]
    p_act: float = DEFAULT_P_ACT
    p_base: float = DEFAULT_P_BASE
    theta: float = DEFAULT_THETA
    cause_modifiers: Mapping[tuple[str, int], float] | None = None

    def __post_init__(self):
        modifiers = MappingProxyType(dict(self.cause_modifiers or {}))
        object.__setattr__(self, "cause_modifiers", modifiers)
        for name, value in (("p_act", self.p_act), ("p_base", self.p_base), ("theta", self.theta)):
            if not math.isfinite(value):
                raise PolicyError(f"{name} must be finite, got {value}")
        if not (0.0 <= self.p_base < self.p_act <= 1.0):
            raise PolicyError(
                f"need 0 <= p_base < p_act <= 1, got p_base={self.p_base}, p_act={self.p_act}"
            )
        if self.theta < 0:
            raise PolicyError(f"theta must be >= 0, got {self.theta}")
        if not self.intention_set:
            raise PolicyError("intention set is empty")
        _require_binary_targets(self.intention_set)
        for (parent, value), factor in self.cause_modifiers.items():
            if value not in (0, 1):
                raise PolicyError(f"modifier on {parent!r} has value {value!r}, expected 0 or 1")
            if not (factor >= 0.0 and math.isfinite(factor)):
                raise PolicyError(
                    f"modifier factor for ({parent!r}, {value}) must be finite and >= 0"
                )

    def __hash__(self) -> int:
        modifiers = frozenset(self.cause_modifiers.items())
        return hash((self.intention_set, self.p_act, self.p_base, self.theta, modifiers))

    def __reduce__(self):
        # A mapping proxy cannot be pickled or deep-copied; its dict can.
        fields = (self.intention_set, self.p_act, self.p_base, self.theta)
        return AgentPolicy, (*fields, dict(self.cause_modifiers))

    @staticmethod
    def make(
        intentions: Iterable[Intention],
        p_act: float = DEFAULT_P_ACT,
        p_base: float = DEFAULT_P_BASE,
        theta: float = DEFAULT_THETA,
        cause_modifiers: Mapping[tuple[str, int], float] | None = None,
    ) -> "AgentPolicy":
        return AgentPolicy(
            intention_set=frozenset(intentions),
            p_act=p_act,
            p_base=p_base,
            theta=theta,
            cause_modifiers=cause_modifiers,
        )

    def with_intentions(self, intentions: Iterable[Intention]) -> "AgentPolicy":
        """Same behavioral parameters, different intention hypothesis."""
        return replace(self, intention_set=frozenset(intentions))


@dataclass(frozen=True)
class Servability:
    """Outcome of the servability check: the per-intention do-margins and
    whether all of them clear the policy threshold."""

    servable: bool
    margins: tuple[tuple[str, int, float], ...]  # (variable, target, margin)


def _require_binary_targets(intentions: Iterable[Intention]) -> None:
    for name, target in intentions:
        if target not in (0, 1):
            raise PolicyError(f"intended value for {name!r} must be 0 or 1, got {target!r}")


def meets_theta(margins: Iterable[float], theta: float) -> bool:
    """The servability rule: acting still raises every intended effect by
    at least ``theta``.  A margin is rounded to 12 decimals first, so one
    summed in another order, a last bit off, falls on the same side."""
    return all(round(margin, 12) >= theta for margin in margins)


def _fill_do_margins(graph: CausalGraph, action: str, names: tuple, regimes: Iterable) -> None:
    """Memoise on ``graph`` the do-margins of ``names`` under each regime it
    lacks, keyed per (action, regime, names).  Every missing regime is
    checked before any is swept, and regimes that share a cut set (the
    clamped variables that have parents) share one sweep."""
    if not names:
        raise PolicyError("intention set is empty")
    missing = [r for r in dict.fromkeys(regimes) if (action, r, names) not in graph._do_margins]
    for regime in missing:
        if action in regime.clamps:
            raise RegimeError(f"regime clamps the action {action!r}; the agent chooses it")
    if missing:
        effects = graph.descendants(action)
        for name in names:
            if name not in effects:
                raise HypothesisError(f"{name!r} is not a strict descendant of action {action!r}")
    groups: dict[frozenset, list[Regime]] = {}
    for regime in missing:
        cut = frozenset(name for name in regime.clamps if graph.parents(name))
        groups.setdefault(cut, []).append(regime)
    for group in groups.values():
        results = _sweep(graph, names, [regime.clamps for regime in group], action)
        for regime, margins in zip(group, results):
            graph._do_margins[(action, regime, names)] = tuple(map(tuple, margins))


def servable(
    graph: CausalGraph,
    action: str,
    intention_set: Iterable[Intention],
    theta: float,
    regime: Regime = Regime(),
) -> Servability:
    """Check whether acting still raises every intended effect enough.

    For each intended (A, a) the margin is
    P(A=a | do(action=1)) - P(A=a | do(action=0)) under the regime's clamps,
    both from one sweep of ``graph`` that :func:`_fill_do_margins` memoises
    per (action, regime, intended names).  Servable means every margin >=
    theta.  A stored key already passed the checks on action, regime and
    names; targets are not in the key, so every call checks them.
    """
    intentions = sorted(set(intention_set))
    _require_binary_targets(intentions)
    names = tuple(name for name, _ in intentions)
    _fill_do_margins(graph, action, names, [regime])
    margins = []
    for (name, target), (lo, hi) in zip(intentions, graph._do_margins[(action, regime, names)]):
        p_hi, p_lo = (p if target else 1.0 - p for p in (hi, lo))
        margins.append((name, target, p_hi - p_lo))
    return Servability(
        servable=meets_theta((margin for _, _, margin in margins), theta),
        margins=tuple(margins),
    )


@dataclass(frozen=True, eq=False)
class TeleologicalModel:
    """A graph with the action's CPT replaced by an agent policy.

    The original CPT is kept on ``base_graph`` for reference; while the
    policy is bound, sampling and rate computations use the policy instead.
    The model holds no cache: the base graph memoises do-margins and bound
    graphs, so models that differ only in their intentions share them.
    """

    base_graph: CausalGraph
    action: str
    policy: AgentPolicy

    def servability(self, regime: Regime = Regime()) -> Servability:
        return servable(
            self.base_graph, self.action, self.policy.intention_set, self.policy.theta, regime
        )

    def servabilities(self, regimes: Sequence[Regime]) -> list[Servability]:
        """:meth:`servability` under each of ``regimes``, after one batched
        fill of the do-margin memo for all of them."""
        names = tuple(name for name, _ in sorted(set(self.policy.intention_set)))
        _fill_do_margins(self.base_graph, self.action, names, regimes)
        return [self.servability(regime) for regime in regimes]

    def _policy_rows(self, is_servable: bool) -> tuple:
        """The action's CPT rows under the policy: p_act scaled by matching
        modifiers when servable, flat p_base otherwise."""
        action_var = self.base_graph.variable(self.action)
        rows = []
        for key in action_var.cpt:
            p = self.policy.p_act
            for parent_bit in zip(action_var.parents, key):
                p *= self.policy.cause_modifiers.get(parent_bit, 1.0)
            rows.append((key, min(1.0, max(0.0, p)) if is_servable else self.policy.p_base))
        return tuple(rows)

    def bound_graph(
        self, regime: Regime = Regime(), is_servable: bool | None = None
    ) -> CausalGraph:
        """The regime-mutilated graph with the policy CPT in place; this is
        what experiments sample from.  ``is_servable`` is the policy's
        servability under ``regime`` when the caller already knows it;
        otherwise it is computed here."""
        if self.action in regime.clamps:
            raise RegimeError(f"regime clamps the action {self.action!r}")
        if is_servable is None:
            is_servable = self.servability(regime).servable
        base = self.base_graph
        key = (self.action, regime, self._policy_rows(is_servable))
        if key not in base._bound:
            base._bound[key] = base.replace(
                *(Variable.constant(name, value) for name, value in regime.clamps.items()),
                Variable(self.action, base.variable(self.action).parents, dict(key[2])),
            )
        return base._bound[key]

    def action_rate(self, regime: Regime = Regime(), is_servable: bool | None = None) -> float:
        """Exact P(action = 1) under the policy and regime, marginalizing
        over the action's parents, clamped to [0, 1] against rounding.  Only
        the action's ancestors bear on its marginal, so only they are enumerated."""
        graph = self.bound_graph(regime, is_servable).ancestral_subgraph(self.action)
        return min(max(joint_enumerate(graph).marginal(self.action), 0.0), 1.0)


def bind_agent(graph: CausalGraph, action: str, policy: AgentPolicy) -> TeleologicalModel:
    """Attach a policy to the action variable, validating that every
    intended effect is a strict descendant and every modifier names an
    actual parent of the action."""
    graph.require_valid()
    action_var = graph.variable(action)
    effects = graph.descendants(action)
    for name, _ in sorted(policy.intention_set):
        graph.variable(name)
        if name not in effects:
            raise HypothesisError(f"{name!r} is not a strict descendant of action {action!r}")
    for parent, _ in policy.cause_modifiers:
        if parent not in action_var.parents:
            raise PolicyError(f"modifier names {parent!r}, which is not a parent of {action!r}")
    return TeleologicalModel(base_graph=graph, action=action, policy=policy)
