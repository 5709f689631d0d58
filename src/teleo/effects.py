"""Partition an action's effects into the three confounding-effect classes.

Relative to one hypothesized intended effect, every other strict descendant
of the action falls into exactly one class:

* mediating - interior to some directed path from the action to the
  hypothesized effect.  Mediators can never be clamped directly, because
  clamping one also clamps the hypothesized effect downstream of it.
* further - strictly downstream of the hypothesized effect; the "too
  short" hypotheses live here.
* parallel - on other branches from the action; the "wrong branch"
  hypotheses.

Mediating status dominates: a mediator that also starts a side branch stays
mediating, and its off-path descendants land in parallel unless they are
downstream of the hypothesized effect (then they are further).

Separately, :func:`confounding_causes` lists the common ancestors of the
action and an effect - the adjustment set observational analyses stratify
on.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import HypothesisError
from .graph import CausalGraph


@dataclass(frozen=True)
class EffectClassification:
    """The partition of the action's strict descendants relative to one
    hypothesized intended effect.  The three sets plus {hypothesized} cover
    the descendants exactly, pairwise disjoint."""

    action: str
    hypothesized: str
    mediating: frozenset[str]
    further: frozenset[str]
    parallel: frozenset[str]

    def all_effects(self) -> frozenset[str]:
        return self.mediating | self.further | self.parallel | {self.hypothesized}


def classify_effects(graph: CausalGraph, action: str, hypothesized: str) -> EffectClassification:
    """Classify every strict descendant of ``action`` relative to
    ``hypothesized``.

    A variable is mediating iff the hypothesized effect is reachable from it
    (and it is reachable from the action); further iff it is reachable from
    the hypothesized effect; parallel otherwise.
    """
    graph.require_valid()
    effects = graph.descendants(action)
    if hypothesized not in effects:
        raise HypothesisError(
            f"{hypothesized!r} is not a strict descendant of action {action!r}"
        )
    mediating = effects & graph.ancestors(hypothesized)
    further = graph.descendants(hypothesized)
    parallel = effects - mediating - further - {hypothesized}
    return EffectClassification(
        action=action,
        hypothesized=hypothesized,
        mediating=frozenset(mediating),
        further=frozenset(further),
        parallel=frozenset(parallel),
    )


def confounding_causes(graph: CausalGraph, action: str, effect: str) -> set[str]:
    """Common ancestors of ``action`` and ``effect``, excluding both.

    This is deliberately common-ancestry, not full back-door admissibility:
    it is exactly the set of variables an observational comparison of the
    action across regimes must stratify on.
    """
    a = graph.ancestors(action)
    b = graph.ancestors(effect)
    return (a & b) - {action, effect}


def justifying_paths(
    graph: CausalGraph, classification: EffectClassification, name: str
) -> list[list[str]]:
    """Paths that witness a variable's class, for report output.

    mediating: the action-to-hypothesized paths through it; further: paths
    from the hypothesized effect to it; parallel: action-to-it paths;
    hypothesized: the action-to-hypothesized paths themselves; any other
    variable (the action, its ancestors, unrelated variables): none.
    """
    action = classification.action
    hyp = classification.hypothesized
    if name == hyp:
        return graph.directed_paths(action, hyp)
    if name in classification.mediating:
        return [p for p in graph.directed_paths(action, hyp) if name in p[1:-1]]
    if name in classification.further:
        return graph.directed_paths(hyp, name)
    if name in classification.parallel:
        return graph.directed_paths(action, name)
    return []
