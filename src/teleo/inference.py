"""Turn experiment outcomes into a verdict about what the agent intends.

Each candidate intention set predicts an action rate under every regime the
experiments visited: the rate an agent with those intentions would show,
given the behavioral parameters (act when the intended effects are still
attainable, fall back to the base rate when they are not).  Summing binomial
log-probabilities of the observed per-arm act counts under those predicted
rates gives each hypothesis a score; hypotheses more than a separation
threshold below the best are refuted, and several hypotheses within the
threshold of each other are indistinguishable.

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
    """One arm per regime label present in the dataset, in sorted label
    order.  Labels are parsed back into regimes; clamps are treated as
    interference."""
    acts = dataset.column(action)
    arms = []
    for label in sorted(dataset.regimes_present()):
        mask = dataset.regime_mask(label)
        arms.append(ArmCounts(Regime.from_label(label), int(mask.sum()), int(acts[mask].sum())))
    return arms


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
    distribution is a point mass, so the result is exactly 0 or -inf."""
    if not 0 <= k <= n:
        return -math.inf
    if p == 0.0:
        return 0.0 if k == 0 else -math.inf
    if p == 1.0:
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


def _servable_bits(
    model: TeleologicalModel, hypotheses: Sequence[Hypothesis], regimes: Sequence[Regime]
) -> list[list[bool]]:
    """Whether each regime (columns) leaves every intended effect of each
    hypothesis (rows) servable.  One servability check per distinct set of
    clamps, judged per hypothesis by :func:`meets_theta` on its margins."""
    theta = model.policy.theta
    columns = [
        {(name, target): margin for name, target, margin in model.servability(regime).margins}
        for regime in regimes
    ]
    return [
        [meets_theta((column[intent] for intent in hypothesis), theta) for column in columns]
        for hypothesis in hypotheses
    ]


def _rate_table(
    model: TeleologicalModel, bits: list[list[bool]], regimes: Sequence[Regime]
) -> list[list[float]]:
    """Predicted action rates for a servability table.  The rate under a
    regime depends on a hypothesis only through its servable bit, so each
    regime needs at most two rate evaluations."""
    rates = {}
    for row in bits:
        for key in zip(regimes, row):
            if key not in rates:
                rates[key] = model.action_rate(*key)
    return [[rates[key] for key in zip(regimes, row)] for row in bits]


def predicted_rates(
    graph: CausalGraph,
    action: str,
    policy: AgentPolicy,
    hypothesis: Hypothesis,
    regimes: Iterable[Regime],
) -> list[float]:
    """Exact action rate a ``hypothesis``-driven agent would show under each
    regime."""
    regimes = list(regimes)
    model = _scoring_model(graph, action, policy, [hypothesis])
    return _rate_table(model, _servable_bits(model, [hypothesis], regimes), regimes)[0]


def _verdicts(
    arms: Sequence[ArmCounts],
    hypotheses: Sequence[Hypothesis],
    rates: list[list[float]],
) -> list[HypothesisScore]:
    """Log-likelihoods of each hypothesis's predicted rates and the
    verdicts they imply (see :func:`score_arms`).  Without arms every
    hypothesis scores 0 and none is refuted."""
    lls = []
    for row in rates:
        ll = 0.0
        for arm, rate in zip(arms, row):
            ll += binomial_logpmf(arm.acts, arm.n, rate)
        lls.append(ll)

    saturated = 0.0
    for arm in arms:
        saturated += binomial_logpmf(arm.acts, arm.n, arm.acts / arm.n)
    budget = MISFIT_NATS_PER_ARM * len(arms)

    best = max(lls)
    if best < saturated - budget:
        verdicts = [VERDICT_REFUTED] * len(hypotheses)
    else:
        within = [ll >= best - SEPARATION_NATS for ll in lls]
        n_within = sum(within)
        verdicts = []
        for ok in within:
            if not ok:
                verdicts.append(VERDICT_REFUTED)
            elif n_within == 1:
                verdicts.append(VERDICT_CONSISTENT)
            else:
                verdicts.append(VERDICT_INDISTINGUISHABLE)
    return [
        HypothesisScore(h, ll, verdict)
        for h, ll, verdict in zip(hypotheses, lls, verdicts)
    ]


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
    hypothesis explains the data and all are refuted.  Randomized battery
    counts enter through :func:`arms_from_results`, datasets through
    :func:`arms_from_dataset`.
    """
    hypotheses = _hypothesis_list(graph, action, hypotheses)
    arms = [arm for arm in arms if arm.n > 0]
    regimes = [arm.regime for arm in arms]
    model = _scoring_model(graph, action, policy, hypotheses)
    rates = _rate_table(model, _servable_bits(model, hypotheses, regimes), regimes)
    return _verdicts(arms, hypotheses, rates)


@dataclass(frozen=True)
class Identification:
    """The aggregate verdict: a unique intention set, a candidate set the
    data cannot split, or nothing fits at all."""

    verdict: str  # unique | candidates | indeterminate
    top: Hypothesis | None
    candidates: tuple[Hypothesis, ...]
    scores: tuple[HypothesisScore, ...]


def identify(scores: Sequence[HypothesisScore]) -> Identification:
    """Reduce scores to an identification.  Deterministic in the scores."""
    scores = tuple(scores)
    if not scores:
        raise HypothesisError("cannot identify from an empty score list")
    surviving = [s for s in scores if s.verdict != VERDICT_REFUTED]
    if not surviving:
        return Identification(IDENT_INDETERMINATE, None, (), scores)
    top = max(surviving, key=lambda s: s.log_likelihood)
    if len(surviving) == 1:
        return Identification(IDENT_UNIQUE, top.hypothesis, (top.hypothesis,), scores)
    return Identification(
        IDENT_CANDIDATES,
        top.hypothesis,
        tuple(s.hypothesis for s in surviving),
        scores,
    )


class OracleOutcome(NamedTuple):
    truth: Hypothesis
    identification: Identification
    agreement: bool


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
    arms = arms_from_results([run.result for run in run_battery(model, battery, n_per_arm, seed)])
    size = max_size if max_size is not None else len(truth)
    hypotheses = enumerate_hypotheses(graph, action, max_size=size)
    scores = score_arms(arms, graph, action, true_policy, hypotheses=hypotheses)
    ident = identify(scores)
    agreement = ident.verdict == IDENT_UNIQUE and ident.top == truth
    return OracleOutcome(truth, ident, agreement)


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
