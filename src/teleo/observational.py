"""Teleological evidence from observational data, without randomization.

The comparison of interest is the action rate between two regimes that occur
naturally in the data (say, people living under an enrollment ban versus
not).  Because nobody randomized who ends up in which regime, common causes
of the action and the neutralized effect can bias the raw comparison; the
fix is to stratify on those confounding causes and pool the per-stratum
differences with inverse-variance weights.

The pooling rule and the small-stratum floor are this module's choices, not
derivable facts: strata with an arm cell below ``MIN_CELL`` are kept in the
output (their counts are the balance evidence a reader needs) but excluded
from pooling, and an analysis whose adjustment set misses a known
confounding cause is flagged potentially-confounded rather than suppressed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .effects import EffectClassification, confounding_causes
from .engine import NATURAL_LABEL, Dataset
from .errors import TeleoError
from .graph import CausalGraph
from .lab import DEFAULT_ALPHA, Battery, InterferenceExperiment, expected_pattern_check

MIN_CELL = 5  # rows each arm of a stratum needs to enter the pooled estimate

FLAG_SMALL_STRATA = "small-strata-excluded"
FLAG_EMPTY_CELLS = "empty-cells-dropped"
FLAG_CONFOUNDED = "potentially-confounded"


@dataclass(frozen=True)
class StratumResult:
    """One stratum's cell counts and action-rate difference."""

    key: tuple[tuple[str, int], ...]
    control_n: int
    control_acts: int
    treated_n: int
    treated_acts: int
    difference: float  # treated proportion minus control proportion
    variance: float
    weight: float  # normalized pooling weight; 0.0 when excluded
    included: bool


@dataclass(frozen=True)
class StratifiedComparison:
    """Per-stratum differences pooled by inverse variance."""

    control_label: str
    treated_label: str
    adjustment_set: tuple[str, ...]
    strata: tuple[StratumResult, ...]
    pooled_difference: float
    pooled_se: float
    pooled_p: float
    flags: tuple[str, ...] = ()

    def with_flags(self, *extra: str) -> "StratifiedComparison":
        merged = self.flags + tuple(f for f in extra if f not in self.flags)
        return replace(self, flags=merged)


def _cell_variance(k: int, n: int) -> float:
    p = k / n
    return p * (1.0 - p) / n


def _weight_variance(k: int, n: int) -> float:
    """Variance used for weighting only; degenerate cells (p-hat exactly 0
    or 1) get a continuity substitute so their weight stays finite."""
    v = _cell_variance(k, n)
    if v > 0.0:
        return v
    p = (k + 0.5) / (n + 1.0)
    return p * (1.0 - p) / n


def stratified_action_comparison(
    dataset: Dataset,
    action: str,
    adjustment: Iterable[str] = (),
) -> StratifiedComparison:
    """Compare action rates between the dataset's two regimes, stratifying
    on the adjustment variables.

    The natural regime is the control group when present (otherwise the
    lexicographically first label).  Strata with an empty arm are dropped
    with a flag; strata with an arm below ``MIN_CELL`` are reported but
    excluded from pooling.  Output is invariant to row order.
    """
    adjustment = tuple(adjustment)
    if action in adjustment:
        raise TeleoError("adjustment variables must not include the action")
    labels = sorted(dataset.regimes_present())
    if len(labels) < 2:
        raise TeleoError(f"need 2 regimes to compare, found {labels}")
    if len(labels) > 2:
        raise TeleoError(f"need exactly 2 regimes to compare, found {labels}")
    if NATURAL_LABEL in labels:
        control_label = NATURAL_LABEL
        treated_label = next(l for l in labels if l != NATURAL_LABEL)
    else:
        control_label, treated_label = labels

    acts = dataset.column(action)
    in_treated = dataset.regime_mask(treated_label)
    strat_cols = [dataset.column(name) for name in adjustment]

    strata = []
    flags: set[str] = set()
    for combo in itertools.product((0, 1), repeat=len(adjustment)):
        mask = np.ones(dataset.n_rows, dtype=bool)
        for col, value in zip(strat_cols, combo):
            mask &= col == value
        n_t = int((mask & in_treated).sum())
        n_c = int((mask & ~in_treated).sum())
        if n_t == 0 and n_c == 0:
            continue
        if n_t == 0 or n_c == 0:
            flags.add(FLAG_EMPTY_CELLS)
            continue
        k_t = int(acts[mask & in_treated].sum())
        k_c = int(acts[mask & ~in_treated].sum())
        diff = k_t / n_t - k_c / n_c
        variance = _weight_variance(k_c, n_c) + _weight_variance(k_t, n_t)
        included = min(n_c, n_t) >= MIN_CELL
        if not included:
            flags.add(FLAG_SMALL_STRATA)
        strata.append(
            StratumResult(
                key=tuple(zip(adjustment, combo)),
                control_n=n_c,
                control_acts=k_c,
                treated_n=n_t,
                treated_acts=k_t,
                difference=diff,
                variance=variance,
                weight=0.0,
                included=included,
            )
        )

    usable = [s for s in strata if s.included]
    if not usable:
        raise TeleoError("no stratum has both arms populated above the minimum cell size")
    inv_total = sum(1.0 / s.variance for s in usable)
    weighted = [
        replace(s, weight=(1.0 / s.variance) / inv_total if s.included else 0.0) for s in strata
    ]
    pooled_diff = sum(s.weight * s.difference for s in weighted)
    pooled_se = math.sqrt(1.0 / inv_total)
    pooled_p = math.erfc(abs(pooled_diff) / pooled_se / math.sqrt(2.0)) if pooled_se > 0 else 1.0
    return StratifiedComparison(
        control_label=control_label,
        treated_label=treated_label,
        adjustment_set=adjustment,
        strata=tuple(weighted),
        pooled_difference=pooled_diff,
        pooled_se=pooled_se,
        pooled_p=pooled_p,
        flags=tuple(sorted(flags)),
    )


@dataclass(frozen=True)
class ObservationalResult:
    """One experiment's observational analysis: the stratified comparison,
    the pattern verdict on the treated-regime rows, and a change verdict
    from the pooled test."""

    experiment: InterferenceExperiment
    status: str  # ok | no-data
    comparison: StratifiedComparison | None
    verdict: str | None  # change | no-change, when status == ok
    pattern_count: int | None
    pattern_passed: bool | None


def observational_battery(
    dataset: Dataset,
    plan: Battery,
    classification: EffectClassification,
    adjustment: Iterable[str],
    graph: CausalGraph,
    p_base: float = 0.0,
    alpha: float = DEFAULT_ALPHA,
) -> list[ObservationalResult]:
    """Analyze every planned experiment against mixed-regime data.

    Each experiment compares the natural rows with its lever-regime rows.
    Experiments whose regime never occurs in the data are marked "no-data"
    and the battery continues.  Any analysis whose adjustment set misses a
    confounding cause of (action, target) in ``graph`` is flagged
    potentially-confounded.  The treated rows' pattern is judged as in the
    randomized battery, with the agent's base rate ``p_base`` (0 when no
    policy is known).
    """
    adjustment = tuple(adjustment)
    action = classification.action
    present = set(dataset.regimes_present())
    results = []
    for experiment in plan.experiments:
        if experiment.label not in present or NATURAL_LABEL not in present:
            results.append(
                ObservationalResult(
                    experiment=experiment,
                    status="no-data",
                    comparison=None,
                    verdict=None,
                    pattern_count=None,
                    pattern_passed=None,
                )
            )
            continue
        pair = dataset.filter_regimes([NATURAL_LABEL, experiment.label])
        comparison = stratified_action_comparison(pair, action, adjustment=adjustment)
        if not confounding_causes(graph, action, experiment.target) <= set(adjustment):
            comparison = comparison.with_flags(FLAG_CONFOUNDED)
        treated_rows = pair.filter_regimes([experiment.label])
        count, passed = expected_pattern_check(treated_rows, experiment, p_base)
        verdict = "change" if comparison.pooled_p < alpha else "no-change"
        results.append(
            ObservationalResult(
                experiment=experiment,
                status="ok",
                comparison=comparison,
                verdict=verdict,
                pattern_count=count,
                pattern_passed=passed,
            )
        )
    return results
