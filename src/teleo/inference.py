"""Turn experiment outcomes into a verdict about what the agent intends.

Each candidate intention set predicts an action rate under every regime the
experiments visited: the rate an agent with those intentions would show,
given the behavioral parameters (act when the intended effects are still
attainable, fall back to the base rate when they are not).  That rate
depends on a hypothesis only through one servable bit per regime, so each
arm's binomial log-probability of its observed act count is computed once
per servable bit, and each hypothesis's score sums its arms' terms.
Hypotheses more than a separation threshold below the best are refuted,
and several hypotheses within the threshold of each other are
indistinguishable.

With natural-regime data alone every servable hypothesis predicts the same
rate, so all score identically and the data cannot decide between them.
Interference experiments are what break the tie.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, NamedTuple, Sequence

from .agent import AgentPolicy, TeleologicalModel, bind_agent, meets_theta
from .effects import classify_effects
from .engine import Dataset, Regime
from .errors import HypothesisError, PolicyError, RegimeError
from .graph import CausalGraph
from .lab import ExperimentResult, plan, run_battery

SEPARATION_NATS = 6.0
MISFIT_NATS_PER_ARM = 6.0
HYPOTHESIS_CAP = 10_000

VERDICT_CONSISTENT = "consistent"
VERDICT_REFUTED = "refuted"
VERDICT_INDISTINGUISHABLE = "indistinguishable"

IDENT_UNIQUE = "unique"
IDENT_CANDIDATES = "candidates"
IDENT_INDETERMINATE = "indeterminate"

Hypothesis = frozenset  # of (variable, target) pairs


def hypothesis_label(hypothesis: Iterable[tuple[str, int]]) -> str:
    inner = ", ".join(f"{name}={value}" for name, value in sorted(hypothesis))
    return "{" + inner + "}"


@dataclass(frozen=True)
class HypothesisScore:
    hypothesis: Hypothesis
    log_likelihood: float
    verdict: str

    @property
    def label(self) -> str:
        return hypothesis_label(self.hypothesis)


class ArmCounts(NamedTuple):
    """Aggregated act counts for one arm of data under one regime."""

    regime: Regime
    n: int
    acts: int


def arms_from_results(results: Sequence[ExperimentResult]) -> list[ArmCounts]:
    """Each experiment contributes its natural control arm and its clamped
    treated arm."""
    arms = []
    for result in results:
        if result.experiment is None:
            raise RegimeError("experiment result carries no regime metadata")
        arms.append(ArmCounts(Regime(), result.control_n, result.control_acts))
        arms.append(
            ArmCounts(result.experiment.regime(), result.treated_n, result.treated_acts)
        )
    return arms


def arms_from_dataset(dataset: Dataset, action: str) -> list[ArmCounts]:
    """One arm per regime label present in the dataset, in the order of the
    raw label strings, counted from ``dataset.tally([action])``.  Labels
    are parsed back into regimes; clamps are treated as interference."""
    n, acts = {}, {}
    tally = dataset.tally([action])
    for code, (act,), k in zip(tally.codes.tolist(), tally.rows.tolist(), tally.counts.tolist()):
        label = dataset.regime_table[code]
        n[label] = n.get(label, 0) + k
        acts[label] = acts.get(label, 0) + act * k
    return [ArmCounts(Regime.from_label(label), n[label], acts[label]) for label in sorted(n)]


def enumerate_hypotheses(
    graph: CausalGraph,
    action: str,
    max_size: int = 1,
) -> list[Hypothesis]:
    """All non-empty subsets of the action's strict descendants (target
    value 1), smallest first, declaration order inside each size."""
    if max_size < 1:
        raise HypothesisError("max_size must be at least 1")
    desc = graph.descendants(action)
    ordered = [name for name in graph.names if name in desc]
    top = min(max_size, len(ordered))
    total = sum(math.comb(len(ordered), k) for k in range(1, top + 1))
    if total > HYPOTHESIS_CAP:
        raise HypothesisError(
            f"{total} hypotheses over {len(ordered)} effects exceeds the cap of {HYPOTHESIS_CAP}"
        )
    out = []
    for size in range(1, top + 1):
        for combo in itertools.combinations(ordered, size):
            out.append(frozenset((name, 1) for name in combo))
    return out


def binomial_logpmf(k: int, n: int, p: float) -> float:
    """log P(K = k) for K ~ Binomial(n, p).  At p = 0 and p = 1 the
    distribution is a point mass, so the result is exactly 0 or -inf.  A
    rate whose enumeration sums to just above 1 counts as 1."""
    if not 0 <= k <= n:
        return -math.inf
    if p == 0.0:
        return 0.0 if k == 0 else -math.inf
    if p >= 1.0:
        return 0.0 if k == n else -math.inf
    return (
        math.lgamma(n + 1)
        - math.lgamma(k + 1)
        - math.lgamma(n - k + 1)
        + k * math.log(p)
        + (n - k) * math.log1p(-p)
    )


def _hypothesis_list(graph: CausalGraph, action: str, hypotheses) -> list[Hypothesis]:
    if hypotheses is None:
        hypotheses = enumerate_hypotheses(graph, action, max_size=1)
    hypotheses = list(hypotheses)
    if not hypotheses:
        raise HypothesisError("no hypotheses to score")
    return hypotheses


def _scoring_model(
    graph: CausalGraph, action: str, policy: AgentPolicy, hypotheses
) -> TeleologicalModel:
    """The agent bound with the union of the hypotheses' intentions, so
    that one servability check yields the margin of every intended effect."""
    if not all(hypotheses):
        raise PolicyError("intention set is empty")
    return bind_agent(graph, action, policy.with_intentions(frozenset().union(*hypotheses)))


def _servable_masks(
    model: TeleologicalModel, hypotheses: Sequence[Hypothesis], regimes: Sequence[Regime]
) -> tuple[list[int], list[int]]:
    """Each hypothesis as a bitmask over the intended effects, and per
    regime the mask of intended effects whose margin fails :func:`meets_theta`
    there.  A hypothesis is servable under a regime when the two masks share
    no bit.  One servability check per regime; the do-margins of all regimes
    come from one batched sweep per cut set."""
    theta = model.policy.theta
    bits = {intent: 1 << i for i, intent in enumerate(sorted(model.policy.intention_set))}
    fails = [
        sum(bits[name, target] for name, target, margin in report.margins
            if not meets_theta((margin,), theta))
        for report in model.servabilities(regimes)
    ]
    return [sum(bits[intent] for intent in hypothesis) for hypothesis in hypotheses], fails


def _rate_table(
    model: TeleologicalModel, regimes: Sequence[Regime], masks: Sequence[int], fails: Sequence[int]
) -> list[dict[bool, float]]:
    """Per regime, the predicted action rate for each servable bit that some
    hypothesis has there.  The rate depends on a hypothesis only through
    that bit, and on a regime only through its clamps on the action's
    ancestors: every other clamp is barren for the action (Shachter 1998).
    So each (ancestor clamps, bit) is evaluated once, on the same ancestral
    subgraph as the full regime."""
    ancestors = model.base_graph.ancestors(model.action)
    rates: dict[tuple[Regime, bool], float] = {}
    table = []
    for regime, fail in zip(regimes, fails):
        key = Regime({n: v for n, v in regime.clamps.items() if n in ancestors})
        row = {}
        for bit in {not mask & fail for mask in masks}:
            if (key, bit) not in rates:
                rates[key, bit] = model.action_rate(key, bit)
            row[bit] = rates[key, bit]
        table.append(row)
    return table


def score_arms(
    arms: Sequence[ArmCounts],
    graph: CausalGraph,
    action: str,
    policy: AgentPolicy,
    hypotheses: Sequence[Hypothesis] | None = None,
) -> list[HypothesisScore]:
    """Score intention hypotheses against per-arm act counts.

    ``policy`` supplies the behavioral parameters; its intention set is
    replaced by each hypothesis in turn.  Log-likelihood per hypothesis is
    the sum over arms of the binomial log-probability of the observed count
    at the hypothesis's predicted rate.  Verdicts: hypotheses more than
    ``SEPARATION_NATS`` below the best are refuted; a lone hypothesis within
    the window is consistent; two or more within it are indistinguishable.
    If even the best hypothesis falls more than ``MISFIT_NATS_PER_ARM`` per
    arm short of the saturated fit (each arm at its own empirical rate), no
    hypothesis explains the data and all are refuted.  Without arms every
    hypothesis scores 0 and none is refuted.  A term depends on the
    hypothesis only through its servable bit, so each arm has at most two,
    and each hypothesis sums its arms' terms in arm order.  Randomized
    battery counts enter through :func:`arms_from_results`, datasets through
    :func:`arms_from_dataset`.
    """
    hypotheses = _hypothesis_list(graph, action, hypotheses)
    arms = [arm for arm in arms if arm.n > 0]
    model = _scoring_model(graph, action, policy, hypotheses)
    regimes = [arm.regime for arm in arms]
    masks, fails = _servable_masks(model, hypotheses, regimes)
    terms = [
        {bit: binomial_logpmf(arm.acts, arm.n, rate) for bit, rate in row.items()}
        for arm, row in zip(arms, _rate_table(model, regimes, masks, fails))
    ]
    lls = []
    for mask in masks:
        ll = 0.0
        for fail, term in zip(fails, terms):
            ll += term[not mask & fail]
        lls.append(ll)

    saturated = 0.0
    for arm in arms:
        saturated += binomial_logpmf(arm.acts, arm.n, arm.acts / arm.n)
    best = max(lls)
    fits = best >= saturated - MISFIT_NATS_PER_ARM * len(arms)
    within = [fits and ll >= best - SEPARATION_NATS for ll in lls]
    alone = VERDICT_CONSISTENT if sum(within) == 1 else VERDICT_INDISTINGUISHABLE
    return [
        HypothesisScore(h, ll, alone if ok else VERDICT_REFUTED)
        for h, ll, ok in zip(hypotheses, lls, within)
    ]


@dataclass(frozen=True)
class Identification:
    """The aggregate verdict, read off the scores: a unique intention set,
    candidates the data cannot split (those not refuted, in score order, the
    first best-scoring one ``top``), or nothing fits at all."""

    scores: tuple[HypothesisScore, ...]

    @property
    def candidates(self) -> tuple[Hypothesis, ...]:
        return tuple(s.hypothesis for s in self.scores if s.verdict != VERDICT_REFUTED)

    @property
    def top(self) -> Hypothesis | None:
        surviving = [s for s in self.scores if s.verdict != VERDICT_REFUTED]
        return max(surviving, key=lambda s: s.log_likelihood).hypothesis if surviving else None

    @property
    def verdict(self) -> str:
        candidates = self.candidates
        if not candidates:
            return IDENT_INDETERMINATE
        return IDENT_UNIQUE if len(candidates) == 1 else IDENT_CANDIDATES


def identify(scores: Sequence[HypothesisScore]) -> Identification:
    """Reduce scores to an identification.  Deterministic in the scores."""
    scores = tuple(scores)
    if not scores:
        raise HypothesisError("cannot identify from an empty score list")
    return Identification(scores)


class OracleOutcome(NamedTuple):
    truth: Hypothesis
    identification: Identification

    @property
    def agreement(self) -> bool:
        return self.identification.verdict == IDENT_UNIQUE and self.identification.top == self.truth


def oracle_identify(
    graph: CausalGraph,
    action: str,
    true_policy: AgentPolicy,
    levers: Mapping[str, tuple[str, int]],
    n_per_arm: int,
    seed: int,
    max_size: int | None = None,
) -> OracleOutcome:
    """Ground-truth harness: bind the true policy, plan and run the full
    battery for its first intended effect, score every hypothesis up to the
    truth's size, and report whether identification recovers the truth."""
    truth = frozenset(true_policy.intention_set)
    model = bind_agent(graph, action, true_policy)
    intended = {name for name, _ in truth}
    hypothesized = next(name for name in graph.names if name in intended)
    classification = classify_effects(graph, action, hypothesized)
    battery = plan(graph, classification, levers)
    arms = arms_from_results(run_battery(model, battery, n_per_arm, seed))
    size = max_size if max_size is not None else len(truth)
    hypotheses = enumerate_hypotheses(graph, action, max_size=size)
    scores = score_arms(arms, graph, action, true_policy, hypotheses=hypotheses)
    return OracleOutcome(truth, identify(scores))


def sensitivity(
    arms: Sequence[ArmCounts],
    graph: CausalGraph,
    action: str,
    base_policy: AgentPolicy,
    p_act_grid: Sequence[float],
    p_base_grid: Sequence[float],
    hypotheses: Sequence[Hypothesis] | None = None,
) -> list[tuple[dict, Identification]]:
    """Re-score over a grid of behavioral parameters.

    The scoring model assumes the agent's (p_act, p_base) are known; this
    shows how the identification verdict moves when they are not.  Returns
    one (params, identification) pair per grid point, in grid order.
    """
    hypotheses = _hypothesis_list(graph, action, hypotheses)
    out = []
    for p_act in p_act_grid:
        for p_base in p_base_grid:
            policy = replace(base_policy, p_act=p_act, p_base=p_base)
            scores = score_arms(arms, graph, action, policy, hypotheses=hypotheses)
            out.append(({"p_act": p_act, "p_base": p_base}, identify(scores)))
    return out
