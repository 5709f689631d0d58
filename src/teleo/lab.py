"""Plan and run interference experiments as randomized two-group trials.

Planning turns an effect classification plus a lever table into a battery:
one experiment per parallel effect, one per further effect, exactly one for
the hypothesized effect itself (clamped through a lever parent so upstream
mediators keep varying), and none for mediators, which cannot be clamped
without also clamping the hypothesized effect.

Running an experiment samples a control arm under the natural regime and a
treated arm under the lever's interference regime, counts how often the
agent acts in each, and asks a pooled two-proportion z-test whether the
action rate changed.  Each experiment also carries the observation pattern
its hypothesis predicts present (or absent) in the treated arm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .agent import TeleologicalModel
from .effects import EffectClassification
from .engine import Regime, sample
from .errors import RegimeError, UnknownVariableError
from .graph import CausalGraph

DEFAULT_ALPHA = 0.05
MIN_ARM_ACTS = 5  # below this in both arms the normal approximation is junk
MIN_SUPPORT = 1  # rows a must-observe pattern needs

RATIONALE_PARALLEL = "parallel"
RATIONALE_FURTHER = "further"
RATIONALE_HYPOTHESIZED = "hypothesized-itself"

MODE_MUST_OBSERVE = "must-observe"
MODE_MUST_NOT_OBSERVE = "must-not-observe"


@dataclass(frozen=True)
class InterferenceExperiment:
    """One planned interference: clamp ``lever`` to neutralize ``target``.

    ``expected_pattern`` is the treated-arm observation pattern the
    intention hypothesis predicts; the rationale sets ``pattern_mode``:
    must-observe for parallel/further experiments (the agent keeps acting,
    the target stays off), must-not-observe for the hypothesized-itself
    experiment (the agent should stop acting).
    """

    target: str
    lever: tuple[str, int]
    rationale: str
    expected_pattern: Mapping[str, int]

    def regime(self) -> Regime:
        return Regime({self.lever[0]: self.lever[1]})

    @property
    def pattern_mode(self) -> str:
        return MODE_MUST_NOT_OBSERVE if self.rationale == RATIONALE_HYPOTHESIZED else MODE_MUST_OBSERVE

    @property
    def label(self) -> str:
        return self.regime().label()


@dataclass(frozen=True)
class Battery:
    """A planned battery plus everything that could not be planned."""

    experiments: tuple[InterferenceExperiment, ...]
    unleverable: tuple[tuple[str, str], ...] = ()  # (effect, class) without a lever
    skipped: tuple[tuple[str, str], ...] = ()  # (lever target, reason) ignored


@dataclass(frozen=True)
class ExperimentResult:
    """Counts and test outcome of one randomized interference trial, and
    the expected-pattern check on its treated arm."""

    experiment: InterferenceExperiment
    control_n: int
    control_acts: int
    treated_n: int
    treated_acts: int
    z_statistic: float
    p_value: float
    verdict: str  # no-change | change | underpowered
    seed: int
    pattern_count: int
    pattern_passed: bool


def plan(
    graph: CausalGraph,
    classification: EffectClassification,
    levers: Mapping[str, tuple[str, int]],
) -> Battery:
    """Build the experiment battery for a classification.

    Effects without a lever entry are reported unleverable rather than
    failing the whole plan; lever entries for mediators or non-effects are
    skipped (and reported), never run.
    """
    for target, (lever_var, value) in levers.items():
        if target not in graph.names:
            raise UnknownVariableError(f"lever target {target!r} is not a declared variable")
        if lever_var not in graph.names:
            raise UnknownVariableError(f"lever variable {lever_var!r} is not a declared variable")
        if value not in (0, 1):
            raise RegimeError(f"lever value for {target!r} must be 0 or 1, got {value!r}")

    mediators = classification.mediating
    hypothesized = classification.hypothesized
    target_value = 1  # hypotheses default to "effect obtains"

    experiments = []
    unleverable = []
    skipped = []

    def pattern_for(target: str, lever: tuple[str, int], rationale: str) -> dict[str, int]:
        pat = {classification.action: 1}
        for m in sorted(mediators):
            pat[m] = 1
        if rationale == RATIONALE_HYPOTHESIZED:
            pat[hypothesized] = 1 - target_value
        else:
            pat[hypothesized] = target_value
            pat[target] = 0
        pat[lever[0]] = lever[1]
        return pat

    for rationale, targets in (
        (RATIONALE_PARALLEL, sorted(classification.parallel)),
        (RATIONALE_FURTHER, sorted(classification.further)),
        (RATIONALE_HYPOTHESIZED, [hypothesized]),
    ):
        for target in targets:
            if target not in levers:
                unleverable.append((target, rationale))
                continue
            lever = levers[target]
            if lever[0] in mediators or lever[0] == classification.action:
                skipped.append((target, f"lever {lever[0]!r} would clamp a mediator or the action"))
                continue
            experiments.append(
                InterferenceExperiment(
                    target=target,
                    lever=lever,
                    rationale=rationale,
                    expected_pattern=pattern_for(target, lever, rationale),
                )
            )

    for target in sorted(set(levers) - classification.all_effects()):
        skipped.append((target, "not an effect of the action"))
    for target in sorted(set(levers) & mediators):
        skipped.append((target, "mediating effects cannot be clamped"))

    return Battery(
        experiments=tuple(experiments),
        unleverable=tuple(unleverable),
        skipped=tuple(skipped),
    )


def two_proportion_test(k1: int, n1: int, k2: int, n2: int) -> tuple[float, float]:
    """Pooled two-proportion z-test, two-sided.

    Returns (z, p) with z = (k1/n1 - k2/n2) / pooled standard error.  A
    degenerate pooled variance (all zeros or all ones across both arms)
    forces equal proportions, so that case is (0.0, 1.0).
    """
    if n1 < 1 or n2 < 1:
        raise ValueError("arm sizes must be >= 1")
    if not (0 <= k1 <= n1 and 0 <= k2 <= n2):
        raise ValueError("act counts must lie within arm sizes")
    p1 = k1 / n1
    p2 = k2 / n2
    pooled = (k1 + k2) / (n1 + n2)
    variance = pooled * (1.0 - pooled) * (1.0 / n1 + 1.0 / n2)
    if variance == 0.0:
        return 0.0, 1.0
    z = (p1 - p2) / math.sqrt(variance)
    p = math.erfc(abs(z) / math.sqrt(2.0))
    return z, p


def run_randomized(
    model: TeleologicalModel,
    experiment: InterferenceExperiment,
    n_per_arm: int,
    seed: int,
    alpha: float = DEFAULT_ALPHA,
) -> ExperimentResult:
    """Sample both arms, test for an action-rate change, and check the
    expected pattern on the treated arm.

    Control is the natural regime, treated the lever's interference regime;
    arm seeds are spawned deterministically from ``seed``, so identical
    inputs give identical results.  Verdict is "underpowered" when both
    arms' act counts fall below the normal-approximation floor, otherwise
    "change" iff p < alpha.  The treated arm's pattern is judged by
    :func:`expected_pattern_check`.
    """
    if n_per_arm < 1:
        raise ValueError("n_per_arm must be >= 1")
    control_seq, treated_seq = np.random.SeedSequence(seed).spawn(2)
    control = sample(model.bound_graph(Regime()), n_per_arm, control_seq, names=(model.action,))
    columns = tuple(dict.fromkeys([model.action, *experiment.expected_pattern]))
    treated = sample(
        model.bound_graph(experiment.regime()), n_per_arm, treated_seq, experiment.label, columns
    )
    k1 = int(control.column(model.action).sum())
    k2 = int(treated.column(model.action).sum())
    z, p = two_proportion_test(k1, n_per_arm, k2, n_per_arm)
    if k1 < MIN_ARM_ACTS and k2 < MIN_ARM_ACTS:
        verdict = "underpowered"
    elif p < alpha:
        verdict = "change"
    else:
        verdict = "no-change"
    match = np.ones(n_per_arm, dtype=bool)
    for name, value in experiment.expected_pattern.items():
        match &= treated.column(name) == value
    count, passed = expected_pattern_check(
        int(match.sum()), n_per_arm, experiment, model.policy.p_base
    )
    return ExperimentResult(
        experiment=experiment,
        control_n=n_per_arm,
        control_acts=k1,
        treated_n=n_per_arm,
        treated_acts=k2,
        z_statistic=z,
        p_value=p,
        verdict=verdict,
        seed=seed,
        pattern_count=count,
        pattern_passed=passed,
    )


def expected_pattern_check(
    count: int, n: int, experiment: InterferenceExperiment, p_base: float
) -> tuple[int, bool]:
    """Judge an experiment's expected pattern, matched by ``count`` of its
    ``n`` treated rows.  A must-observe pattern needs ``MIN_SUPPORT`` rows;
    a must-not-observe pattern may occur as often as an agent with base
    rate ``p_base`` allows (:func:`base_rate_violation_budget`), so at 0
    not at all."""
    if experiment.pattern_mode == MODE_MUST_OBSERVE:
        return count, count >= MIN_SUPPORT
    return count, count <= base_rate_violation_budget(p_base, n)


def base_rate_violation_budget(p_base: float, n: int) -> int:
    """How many treated-arm rows the agent's base rate can legitimately
    produce: the 3-sigma binomial upper bound on n draws at p_base.

    The hypothesized-itself check expects the action pattern to vanish only
    down to the base rate, not to literally zero, so batteries use this as
    the must-not-observe violation budget whenever p_base > 0.
    """
    return int(math.ceil(n * p_base + 3.0 * math.sqrt(n * p_base * (1.0 - p_base))))


def run_battery(
    model: TeleologicalModel,
    battery: Battery,
    n_per_arm: int,
    seed: int,
    alpha: float = DEFAULT_ALPHA,
) -> list[ExperimentResult]:
    """Run every experiment in a battery, each with its own seed spawned
    from ``seed``."""
    seeds = np.random.SeedSequence(seed).spawn(max(1, len(battery.experiments)))
    return [
        run_randomized(model, experiment, n_per_arm, int(seq.generate_state(1)[0]), alpha)
        for experiment, seq in zip(battery.experiments, seeds)
    ]
