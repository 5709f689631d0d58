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

import math
from dataclasses import dataclass, replace
from typing import Iterable

from .effects import EffectClassification, confounding_causes
from .engine import NATURAL_LABEL, CellTable, Dataset
from .errors import DataError, TeleoError
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


def _adjusted_tally(dataset: Dataset, action: str, adjustment: tuple[str, ...]) -> CellTable:
    """``dataset.tally((action, *adjustment))``, after checking that the
    adjustment set names neither the action nor a variable twice; a column
    the data lack raises from the tally."""
    if action in adjustment:
        raise TeleoError("adjustment variables must not include the action")
    if len(set(adjustment)) != len(adjustment):
        raise TeleoError(f"adjustment variables must be distinct, got {list(adjustment)}")
    return dataset.tally((action, *adjustment))


def stratified_action_comparison(
    dataset: Dataset,
    action: str,
    adjustment: Iterable[str] = (),
) -> StratifiedComparison:
    """Compare action rates between the dataset's two regimes, stratifying
    on the adjustment variables.

    The natural regime is the control group when present (otherwise the
    lexicographically first label).  The strata are the adjustment values
    that occur in the dataset, in ascending order.  Strata with an empty
    arm are dropped with a flag; strata with an arm below ``MIN_CELL`` are
    reported but excluded from pooling.  Every stratum's four counts are
    summed from one ``dataset.tally((action, *adjustment))``, so output is
    invariant to row order.

    An adjustment set that names the action or a variable twice, or a
    column the data lack, raises ``TeleoError``; only then do data it cannot
    compare (other than two regimes, or no stratum with both arms at
    ``MIN_CELL``) raise ``DataError``.
    """
    adjustment = tuple(adjustment)
    tally = _adjusted_tally(dataset, action, adjustment)
    labels = sorted({dataset.regime_table[code] for code in tally.codes.tolist()})
    if len(labels) < 2:
        raise DataError(f"need 2 regimes to compare, found {labels}")
    if len(labels) > 2:
        raise DataError(f"need exactly 2 regimes to compare, found {labels}")
    if NATURAL_LABEL in labels:
        control_label = NATURAL_LABEL
        treated_label = next(l for l in labels if l != NATURAL_LABEL)
    else:
        control_label, treated_label = labels

    by_stratum: dict[tuple[int, ...], list[int]] = {}  # [n_t, k_t, n_c, k_c]
    for code, row, k in zip(tally.codes.tolist(), tally.rows.tolist(), tally.counts.tolist()):
        arm = 2 * (dataset.regime_table[code] == control_label)
        counts = by_stratum.setdefault(tuple(row[1:]), [0, 0, 0, 0])
        counts[arm] += k
        counts[arm + 1] += row[0] * k

    strata = []
    flags: set[str] = set()
    for combo, (n_t, k_t, n_c, k_c) in sorted(by_stratum.items()):
        if n_t == 0 or n_c == 0:
            flags.add(FLAG_EMPTY_CELLS)
            continue
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
        raise DataError("no stratum has both arms populated above the minimum cell size")
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
    from the pooled test; all None, and status "no-data", without data."""

    experiment: InterferenceExperiment
    comparison: StratifiedComparison | None = None
    verdict: str | None = None  # change | no-change
    pattern_count: int | None = None
    pattern_passed: bool | None = None

    @property
    def status(self) -> str:
        return "no-data" if self.comparison is None else "ok"


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
    An adjustment set that names the action or a variable twice, or a
    column the data lack, raises ``TeleoError`` before any experiment, even
    when none is planned.  An experiment the comparison raises
    ``DataError`` for is marked "no-data" and the battery continues.  Any
    analysis whose adjustment set misses a confounding cause of (action,
    target) in ``graph`` is flagged potentially-confounded.  The treated
    rows' pattern is judged as in the randomized battery, with the agent's
    base rate ``p_base`` (0 when no policy is known).
    """
    adjustment = tuple(adjustment)
    action = classification.action
    _adjusted_tally(dataset, action, adjustment)  # checked even when no experiment is planned
    results = []
    for experiment in plan.experiments:
        pair = dataset.filter_regimes([NATURAL_LABEL, experiment.label])
        try:
            comparison = stratified_action_comparison(pair, action, adjustment=adjustment)
        except DataError:
            results.append(ObservationalResult(experiment))
            continue
        if not confounding_causes(graph, action, experiment.target) <= set(adjustment):
            comparison = replace(comparison, flags=comparison.flags + (FLAG_CONFOUNDED,))
        tally = pair.tally(experiment.expected_pattern)
        cells = zip(tally.codes.tolist(), tally.rows.tolist(), tally.counts.tolist())
        treated = [(row, k) for code, row, k in cells if pair.regime_table[code] == experiment.label]
        pattern = list(experiment.expected_pattern.values())
        count, passed = expected_pattern_check(
            sum(k for row, k in treated if row == pattern), sum(k for _, k in treated), experiment, p_base
        )
        verdict = "change" if comparison.pooled_p < alpha else "no-change"
        results.append(
            ObservationalResult(
                experiment=experiment,
                comparison=comparison,
                verdict=verdict,
                pattern_count=count,
                pattern_passed=passed,
            )
        )
    return results
