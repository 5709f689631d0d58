import itertools
import math

import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from teleo import (
    AgentPolicy,
    ArmCounts,
    ExperimentResult,
    HypothesisError,
    HypothesisScore,
    PolicyError,
    Regime,
    RegimeError,
    arms_from_dataset,
    arms_from_results,
    bind_agent,
    classify_effects,
    enumerate_hypotheses,
    hypothesis_label,
    identify,
    joint_enumerate,
    oracle_identify,
    plan,
    run_battery,
    score_arms,
    sensitivity,
)
from teleo import inference
from teleo.agent import TeleologicalModel, meets_theta
from teleo.graph import CausalGraph, Variable
from teleo.inference import (
    HYPOTHESIS_CAP,
    MISFIT_NATS_PER_ARM,
    SEPARATION_NATS,
    binomial_logpmf,
    IDENT_CANDIDATES,
    IDENT_INDETERMINATE,
    IDENT_UNIQUE,
    VERDICT_CONSISTENT,
    VERDICT_INDISTINGUISHABLE,
    VERDICT_REFUTED,
)
from teleo.models import SPORT_LEVERS, sport_lab, sport_lab_confounded

from .helpers import lever_chain, make_dataset, row_count

SINGLETONS = [
    frozenset({("lose_weight", 1)}),
    frozenset({("be_fit", 1)}),
    frozenset({("live_longer", 1)}),
    frozenset({("win_medals", 1)}),
]

ARM_REGIMES = [
    Regime(),
    Regime({"enroll": 0}),
    Regime({"protein_diet": 0}),
    Regime({"smoke": 1}),
]


@pytest.fixture(scope="module")
def battery_results(sport_doc):
    model = sport_doc.bind()
    cls = classify_effects(sport_doc.graph, "practice", "be_fit")
    battery = plan(sport_doc.graph, cls, SPORT_LEVERS)
    return run_battery(model, battery, 2000, 314)


class TestEnumerate:
    def test_sport_singletons_in_declaration_order(self, sport_doc):
        assert enumerate_hypotheses(sport_doc.graph, "practice") == SINGLETONS

    def test_pairs_follow_singletons(self, sport_doc):
        hyps = enumerate_hypotheses(sport_doc.graph, "practice", max_size=2)
        assert len(hyps) == 10
        assert hyps[:4] == SINGLETONS
        assert all(len(h) == 2 for h in hyps[4:])
        assert hyps[4] == frozenset({("lose_weight", 1), ("be_fit", 1)})

    def test_chain_has_one_hypothesis(self):
        g = CausalGraph.make(
            [Variable.make("a", (), 0.5), Variable.make("b", ("a",), {0: 0.1, 1: 0.9})]
        )
        assert enumerate_hypotheses(g, "a") == [frozenset({("b", 1)})]

    def test_cap_enforced(self):
        # 14 effects give 2^14 - 1 = 16,383 non-empty subsets.
        variables = [Variable.make("a", (), 0.5)]
        variables += [Variable.make(f"e{i}", ("a",), {0: 0.1, 1: 0.9}) for i in range(14)]
        g = CausalGraph.make(variables)
        assert len(enumerate_hypotheses(g, "a", max_size=4)) <= HYPOTHESIS_CAP
        with pytest.raises(HypothesisError, match=f"16383 hypotheses .* cap of {HYPOTHESIS_CAP}"):
            enumerate_hypotheses(g, "a", max_size=14)

    def test_max_size_must_be_positive(self, sport_doc):
        with pytest.raises(HypothesisError):
            enumerate_hypotheses(sport_doc.graph, "practice", max_size=0)

    def test_label_is_sorted_and_braced(self):
        h = frozenset({("win_medals", 1), ("be_fit", 1)})
        assert hypothesis_label(h) == "{be_fit=1, win_medals=1}"
        assert HypothesisScore(h, -1.0, VERDICT_CONSISTENT).label == "{be_fit=1, win_medals=1}"


class TestPredictedRates:
    def test_singleton_rate_vectors(self, sport_doc):
        g, policy = sport_doc.graph, sport_doc.policy
        expected = {
            "lose_weight": [0.8, 0.8, 0.8, 0.8],
            "be_fit": [0.8, 0.8, 0.05, 0.8],
            "live_longer": [0.8, 0.8, 0.05, 0.05],
            "win_medals": [0.8, 0.05, 0.8, 0.8],
        }
        for name, want in expected.items():
            model = bind_agent(g, "practice", policy.with_intentions({(name, 1)}))
            got = [model.action_rate(regime) for regime in ARM_REGIMES]
            assert got == pytest.approx(want, rel=1e-9), name

    def test_natural_rates_identical_across_hypotheses(self, sport_doc):
        g, policy = sport_doc.graph, sport_doc.policy
        natural = [
            bind_agent(g, "practice", policy.with_intentions(h)).action_rate(Regime())
            for h in SINGLETONS
        ]
        assert len(set(natural)) == 1


@pytest.mark.parametrize("build", [sport_lab, sport_lab_confounded])
def test_bound_model_rate_is_the_scorers_rate(build):
    """Each hypothesis's own bound model gives, under every lever regime,
    exactly the scorer's rate-table entry for its servable bit there."""
    doc = build()
    regimes = [Regime(), *(Regime(dict([lever])) for lever in doc.levers.values())]
    hypotheses = enumerate_hypotheses(doc.graph, "practice", max_size=4)
    model = inference._scoring_model(doc.graph, "practice", doc.policy, hypotheses)
    masks, fails = inference._servable_masks(model, hypotheses, regimes)
    table = inference._rate_table(model, regimes, masks, fails)
    for hypothesis, mask in zip(hypotheses, masks):
        graph = CausalGraph(doc.graph.variables)  # no memo shared with the scorer
        own = bind_agent(graph, "practice", doc.policy.with_intentions(hypothesis))
        for regime, fail, row in zip(regimes, fails, table):
            assert own.action_rate(regime) == row[not mask & fail], (hypothesis, regime)


def test_rates_key_on_clamps_of_the_action_ancestors(monkeypatch):
    """Each rate is evaluated once per (clamps on the action's ancestors,
    servable bit) and equals the rate under the full regime."""
    doc = sport_lab_confounded()
    graph = doc.graph
    assert "age" in graph.ancestors("practice") and "smoke" not in graph.ancestors("practice")
    regimes = [
        Regime(),
        Regime({"age": 1}),
        Regime({"smoke": 1}),
        Regime({"age": 1, "smoke": 1}),
        Regime({"age": 0, "enroll": 0}),
    ]
    hypotheses = enumerate_hypotheses(graph, "practice", max_size=2)
    model = inference._scoring_model(graph, "practice", doc.policy, hypotheses)
    # One hypothesis servable under every regime and one under none, so
    # that every regime needs both bits.
    masks, fails = [0, 1], [1] * len(regimes)
    evaluated = []
    action_rate = TeleologicalModel.action_rate

    def counting(self, regime=Regime(), is_servable=None):
        evaluated.append((regime, is_servable))
        return action_rate(self, regime, is_servable)

    monkeypatch.setattr(TeleologicalModel, "action_rate", counting)
    rates = inference._rate_table(model, regimes, masks, fails)
    monkeypatch.undo()
    assert len(evaluated) == len(set(evaluated)) == 6  # natural, age=1, age=0; two bits each
    fresh = bind_agent(CausalGraph(graph.variables), "practice", doc.policy)
    for regime, row in zip(regimes, rates):
        assert sorted(row) == [False, True]
        for bit, rate in row.items():
            assert rate == fresh.action_rate(regime, bit)
    # Clamping age moves the rate; clamping smoke does not.
    assert rates[1][True] != rates[0][True] == rates[2][True]


def test_scoring_takes_two_terms_per_arm(monkeypatch):
    """210 hypotheses over 21 arms: at most two binomial terms per arm and
    one more for the saturated fit, and one action rate per (clamps on the
    action's ancestors, servable bit) that some hypothesis has."""
    graph = lever_chain(20)
    hypotheses = enumerate_hypotheses(graph, "a", max_size=2)
    assert len(hypotheses) == 210
    policy = AgentPolicy.make([("e10", 1)])
    arms = [ArmCounts(Regime(), 400, 320)]
    arms += [ArmCounts(Regime({f"l{i}": 0}), 400, 20 if i <= 10 else 320) for i in range(20)]
    terms, evaluated = [], []
    logpmf, action_rate = inference.binomial_logpmf, TeleologicalModel.action_rate

    def counting_logpmf(k, n, p):
        terms.append((k, n, p))
        return logpmf(k, n, p)

    def counting_rate(self, regime=Regime(), is_servable=None):
        evaluated.append((regime, is_servable))
        return action_rate(self, regime, is_servable)

    monkeypatch.setattr(inference, "binomial_logpmf", counting_logpmf)
    monkeypatch.setattr(TeleologicalModel, "action_rate", counting_rate)
    scores = score_arms(arms, graph, "a", policy, hypotheses=hypotheses)
    assert len(terms) <= 2 * len(arms) + len(arms)
    # The action is a root, so every regime keys on no clamps.
    assert sorted(evaluated, key=lambda e: e[1]) == [(Regime(), False), (Regime(), True)]
    assert identify(scores).top == frozenset({("e10", 1)})
    # Every hypothesis is servable under the natural regime: one rate, one term.
    terms.clear()
    evaluated.clear()
    score_arms(arms[:1], graph, "a", policy, hypotheses=hypotheses)
    monkeypatch.undo()
    assert evaluated == [(Regime(), True)]
    assert len(terms) == 1 + 1


class TestScoring:
    def test_truth_wins_by_thousands_of_nats(self, sport_doc, battery_results):
        scores = score_arms(
            arms_from_results(battery_results), sport_doc.graph, "practice", sport_doc.policy
        )
        by_name = {next(iter(s.hypothesis))[0]: s for s in scores}
        assert by_name["be_fit"].verdict == VERDICT_CONSISTENT
        assert by_name["win_medals"].verdict == VERDICT_REFUTED
        assert by_name["live_longer"].verdict == VERDICT_REFUTED
        assert by_name["lose_weight"].verdict == VERDICT_REFUTED
        gap = by_name["be_fit"].log_likelihood - by_name["win_medals"].log_likelihood
        assert gap > 1000

    def test_empty_hypothesis_is_rejected(self, sport_doc, battery_results):
        arms = arms_from_results(battery_results)
        with pytest.raises(PolicyError, match="^intention set is empty$"):
            score_arms(arms, sport_doc.graph, "practice", sport_doc.policy, [frozenset()])

    def test_identify_unique_truth(self, sport_doc, battery_results):
        scores = score_arms(
            arms_from_results(battery_results), sport_doc.graph, "practice", sport_doc.policy
        )
        ident = identify(scores)
        assert ident.verdict == IDENT_UNIQUE
        assert ident.top == frozenset({("be_fit", 1)})
        assert ident.candidates == (frozenset({("be_fit", 1)}),)

    def test_result_order_does_not_matter(self, sport_doc, battery_results):
        forward = identify(
            score_arms(
                arms_from_results(battery_results), sport_doc.graph, "practice", sport_doc.policy
            )
        )
        backward = identify(
            score_arms(
                arms_from_results(list(reversed(battery_results))),
                sport_doc.graph,
                "practice",
                sport_doc.policy,
            )
        )
        assert forward.verdict == backward.verdict
        assert forward.top == backward.top
        fwd = {s.hypothesis: s.log_likelihood for s in forward.scores}
        bwd = {s.hypothesis: s.log_likelihood for s in backward.scores}
        for h in fwd:
            assert fwd[h] == pytest.approx(bwd[h])

    def test_log_likelihood_is_binomial_sum(self, sport_doc):
        arms = [
            ArmCounts(Regime(), 100, 80),
            ArmCounts(Regime({"enroll": 0}), 100, 5),
        ]
        h = frozenset({("win_medals", 1)})
        scores = score_arms(
            arms, sport_doc.graph, "practice", sport_doc.policy, hypotheses=[h]
        )
        model = bind_agent(sport_doc.graph, "practice", sport_doc.policy.with_intentions(h))
        rates = [model.action_rate(a.regime) for a in arms]
        want = sum(
            float(stats.binom.logpmf(a.acts, a.n, r)) for a, r in zip(arms, rates)
        )
        assert scores[0].log_likelihood == pytest.approx(want)

    def test_empty_arms_scores_flat(self, sport_doc):
        scores = score_arms([], sport_doc.graph, "practice", sport_doc.policy)
        assert all(s.log_likelihood == 0.0 for s in scores)
        assert all(s.verdict == VERDICT_INDISTINGUISHABLE for s in scores)
        single = score_arms(
            [],
            sport_doc.graph,
            "practice",
            sport_doc.policy,
            hypotheses=[frozenset({("be_fit", 1)})],
        )
        assert single[0].verdict == VERDICT_CONSISTENT

    def test_zero_count_arms_are_ignored(self, sport_doc):
        arms = [ArmCounts(Regime(), 0, 0)]
        scores = score_arms(arms, sport_doc.graph, "practice", sport_doc.policy)
        assert all(s.log_likelihood == 0.0 for s in scores)

    def test_no_hypotheses_rejected(self, sport_doc):
        with pytest.raises(HypothesisError):
            score_arms([], sport_doc.graph, "practice", sport_doc.policy, hypotheses=[])

    def test_natural_only_data_cannot_separate(self, sport_doc):
        arms = [ArmCounts(Regime(), 5000, 4000)]
        scores = score_arms(arms, sport_doc.graph, "practice", sport_doc.policy)
        assert all(s.verdict == VERDICT_INDISTINGUISHABLE for s in scores)
        lls = {s.log_likelihood for s in scores}
        assert len(lls) == 1


class TestBinomialLogpmf:
    @pytest.mark.parametrize(
        "k, n, p",
        [(0, 1, 0.5), (3, 10, 0.2), (7, 10, 0.999), (0, 2000, 0.05), (1600, 2000, 0.8),
         (2000, 2000, 0.8), (51234, 100000, 0.5)],
    )
    def test_matches_scipy_inside_the_unit_interval(self, k, n, p):
        # Both sides sum lgamma terms near n log n; at n = 1e5 they are
        # about 1e6 and round in the last digits differently.
        want = float(stats.binom.logpmf(k, n, p))
        assert binomial_logpmf(k, n, p) == pytest.approx(want, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize(
        "k, n, p, want",
        [(0, 10, 0.0, 0.0), (10, 10, 1.0, 0.0), (3, 10, 0.0, -math.inf),
         (10, 10, 0.0, -math.inf), (0, 10, 1.0, -math.inf), (7, 10, 1.0, -math.inf),
         (11, 10, 0.5, -math.inf), (11, 10, 1.0, -math.inf), (-1, 10, 0.5, -math.inf)],
    )
    def test_point_masses_are_exact(self, k, n, p, want):
        assert binomial_logpmf(k, n, p) == want
        assert float(stats.binom.logpmf(k, n, p)) == want

    @staticmethod
    def summed_above_one():
        """v5 acts at p_act = 1 whenever v6 = 0 is servable; the enumeration's
        terms sum to 1.0000000000000002 under the natural regime."""
        zeros = {bits: 0.0 for bits in itertools.product((0, 1), repeat=3)}
        g = CausalGraph.make(
            [
                Variable.make("v0", (), 0.0),
                Variable.make("v1", (), 0.0),
                Variable.make("v2", (), 0.1),
                Variable.make("v3", ("v0", "v1", "v2"), {**zeros, (0, 0, 0): 0.1}),
                Variable.make("v4", ("v0", "v1"), {(0, 0): 0.1, (0, 1): 0.0, (1, 0): 0.0, (1, 1): 0.0}),
                Variable.make("v5", ("v3", "v4"), {(0, 0): 0.0, (0, 1): 0.0, (1, 0): 0.0, (1, 1): 0.0}),
                Variable.make("v6", ("v5",), {0: 0.0, 1: 0.0}),
            ]
        )
        policy = AgentPolicy.make([("v6", 0)], p_act=1.0, p_base=0.0, theta=0.0)
        model = bind_agent(g, "v5", policy)
        assert joint_enumerate(model.bound_graph(Regime()).ancestral_subgraph("v5")).marginal("v5") > 1.0
        return g, policy, model

    def test_rate_summed_just_above_one_is_a_point_mass(self):
        g, policy, _ = self.summed_above_one()
        arms = [ArmCounts(Regime(), 1, 0), ArmCounts(Regime({"v3": 0, "v4": 0}), 1, 0)]
        (score,) = score_arms(arms, g, "v5", policy, [frozenset({("v6", 0)})])
        assert score.log_likelihood == -math.inf
        assert binomial_logpmf(1, 1, math.nextafter(1.0, 2.0)) == 0.0

    def test_action_rate_summed_just_above_one_is_clamped_to_one(self):
        g, policy, model = self.summed_above_one()
        assert model.action_rate() == 1.0
        (mask,), fails = inference._servable_masks(model, [policy.intention_set], [Regime()])
        assert inference._rate_table(model, [Regime()], [mask], fails) == [{True: 1.0}]


PROBS = (0.0, 0.1, 0.25, 0.5, 0.9, 1.0)


@st.composite
def scoring_problems(draw, rate_one=False):
    """A random DAG of up to 8 variables with 0/1 CPT rows, an action with
    at least one effect, a policy with modifiers on the action's parents,
    hypotheses with target-0 and target-1 intentions, and arms under clamp
    regimes that include clamps on the action's parents.  ``p_base = 0``
    makes some predicted rates exactly 0; ``rate_one`` also draws
    ``p_act = 1`` without modifiers, which makes some exactly 1."""
    n = draw(st.integers(2, 8))
    names = [f"v{i}" for i in range(n)]
    at = draw(st.integers(0, n - 2))
    action = names[at]
    variables = []
    for i, name in enumerate(names):
        parents = draw(st.lists(st.sampled_from(names[:i]), max_size=3, unique=True)) if i else []
        if i == at + 1 and action not in parents:
            parents = [action] + parents[:2]
        cpt = {
            key: draw(st.sampled_from(PROBS))
            for key in itertools.product((0, 1), repeat=len(parents))
        }
        variables.append(Variable.make(name, parents, cpt))
    graph = CausalGraph.make(variables)
    action_parents = graph.parents(action)
    effects = [name for name in names if name in graph.descendants(action)]
    intention = st.tuples(st.sampled_from(effects), st.integers(0, 1))
    hypotheses = draw(
        st.lists(st.frozensets(intention, min_size=1, max_size=2), min_size=1, max_size=5, unique=True)
    )
    modifiers = draw(
        st.dictionaries(
            st.tuples(st.sampled_from(action_parents), st.integers(0, 1)),
            st.sampled_from((0.0, 0.5, 1.0)),
            max_size=3,
        )
        if action_parents
        else st.just({})
    )
    # Without ``rate_one``, p_act times the factors stays below 1: at a
    # predicted rate of exactly 1 any two summation orders may round
    # differently and fall on either side of the point mass, which a scorer
    # and a whole-graph enumeration cannot agree on.  A reference that reads
    # the same rates as the scorer can.
    pairs = ((0.0, 0.6), (0.05, 0.8), (0.3, 0.9)) + (((0.0, 1.0),) if rate_one else ())
    p_base, p_act = draw(st.sampled_from(pairs))
    policy = AgentPolicy.make(
        hypotheses[0],
        p_act=p_act,
        p_base=p_base,
        theta=draw(st.sampled_from((0.0, 0.1, 0.3))),
        cause_modifiers=modifiers if p_act < 1.0 else {},
    )
    others = [name for name in names if name != action]
    clamp_sets = draw(
        st.lists(st.dictionaries(st.sampled_from(others), st.integers(0, 1), max_size=2), max_size=3)
    )
    if action_parents:
        clamp_sets.append({p: draw(st.integers(0, 1)) for p in action_parents})
    arms = []
    for clamps in [{}] + clamp_sets:
        size = draw(st.integers(1, 40))
        arms.append(ArmCounts(Regime(clamps), size, draw(st.integers(0, size))))
    return graph, action, policy, hypotheses, arms


def reference_scores(arms, graph, action, policy, hypotheses):
    """Scoring as it was first written: bind each hypothesis, enumerate the
    whole bound graph for every arm, score with scipy."""
    lls = []
    for hypothesis in hypotheses:
        model = bind_agent(graph, action, policy.with_intentions(hypothesis))
        ll = 0.0
        for arm in arms:
            rate = joint_enumerate(model.bound_graph(arm.regime)).marginal(action)
            ll += float(stats.binom.logpmf(arm.acts, arm.n, rate))
        lls.append(ll)
    saturated = sum(float(stats.binom.logpmf(a.acts, a.n, a.acts / a.n)) for a in arms)
    best = max(lls)
    if best < saturated - MISFIT_NATS_PER_ARM * len(arms):
        return lls, [VERDICT_REFUTED] * len(lls)
    within = [ll >= best - SEPARATION_NATS for ll in lls]
    alone = VERDICT_CONSISTENT if sum(within) == 1 else VERDICT_INDISTINGUISHABLE
    return lls, [alone if ok else VERDICT_REFUTED for ok in within]


def union_sweep_tie():
    """A margin that is exactly 0 when ``v7`` is swept alone and a last bit
    below 0 when swept with ``v5`` and ``v6``: at theta 0, ``{v7=0}`` must
    be servable (or not) in either company."""
    zeros = {key: 0.0 for key in itertools.product((0, 1), repeat=3)}
    graph = CausalGraph.make(
        [
            *(Variable.make(f"v{i}", (), p) for i, p in enumerate((0.9, 0.9, 0.1, 0.0, 0.0))),
            Variable.make("v5", ("v4", "v0", "v1"), {**zeros, (1, 1, 1): 0.1}),
            Variable.make("v6", ("v0", "v4", "v2"), zeros),
            Variable.make("v7", ("v4",), {0: 0.1, 1: 0.1}),
        ]
    )
    hypotheses = [frozenset({("v5", 0), ("v6", 0)}), frozenset({("v7", 0)})]
    policy = AgentPolicy.make(hypotheses[0], p_act=0.6, p_base=0.0, theta=0.0)
    return graph, "v4", policy, hypotheses, [ArmCounts(Regime(), 1, 0)]


@settings(max_examples=150, deadline=None)
@given(scoring_problems())
@example(union_sweep_tie())
def test_scores_match_per_hypothesis_enumeration(problem):
    graph, action, policy, hypotheses, arms = problem
    scores = score_arms(arms, graph, action, policy, hypotheses=hypotheses)
    want_lls, want_verdicts = reference_scores(arms, graph, action, policy, hypotheses)
    for score, want in zip(scores, want_lls):
        assert score.log_likelihood == want or abs(score.log_likelihood - want) <= 1e-9
    assert [s.verdict for s in scores] == want_verdicts


def pairwise_servable_bits(model, hypotheses, regimes):
    theta = model.policy.theta
    columns = [
        {(name, target): margin for name, target, margin in report.margins}
        for report in model.servabilities(regimes)
    ]
    return [
        [meets_theta((column[intent] for intent in hypothesis), theta) for column in columns]
        for hypothesis in hypotheses
    ]


def pairwise_rate_table(model, bits, regimes):
    ancestors = model.base_graph.ancestors(model.action)
    keys = [Regime({n: v for n, v in r.clamps.items() if n in ancestors}) for r in regimes]
    rates = {}
    for row in bits:
        for key in zip(keys, row):
            if key not in rates:
                rates[key] = model.action_rate(*key)
    return [[rates[key] for key in zip(keys, row)] for row in bits]


def pairwise_verdicts(arms, hypotheses, rates):
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


def pairwise_scores(arms, graph, action, policy, hypotheses):
    """Scoring with a servable bit, a rate lookup and a binomial term per
    (hypothesis, arm), summed over arms in arm order."""
    arms = [arm for arm in arms if arm.n > 0]
    regimes = [arm.regime for arm in arms]
    model = inference._scoring_model(graph, action, policy, hypotheses)
    rates = pairwise_rate_table(model, pairwise_servable_bits(model, hypotheses, regimes), regimes)
    return pairwise_verdicts(arms, hypotheses, rates)


@settings(max_examples=150, deadline=None)
@given(scoring_problems(rate_one=True))
def test_scores_equal_per_pair_scoring(problem):
    graph, action, policy, hypotheses, arms = problem
    scores = score_arms(arms, graph, action, policy, hypotheses=hypotheses)
    want = pairwise_scores(arms, graph, action, policy, hypotheses)
    assert [s.log_likelihood for s in scores] == [w.log_likelihood for w in want]
    assert [s.verdict for s in scores] == [w.verdict for w in want]


@pytest.fixture(scope="module")
def slow_agent_results(sport_doc):
    lazy = AgentPolicy.make((("be_fit", 1),), p_act=0.5, p_base=0.05)
    model = bind_agent(sport_doc.graph, "practice", lazy)
    cls = classify_effects(sport_doc.graph, "practice", "be_fit")
    battery = plan(sport_doc.graph, cls, SPORT_LEVERS)
    return run_battery(model, battery, 2000, 98)


class TestMisfit:
    def test_wrong_act_rate_refutes_everything(self, sport_doc, slow_agent_results):
        scores = score_arms(
            arms_from_results(slow_agent_results), sport_doc.graph, "practice", sport_doc.policy
        )
        assert all(s.verdict == VERDICT_REFUTED for s in scores)
        assert identify(scores).verdict == IDENT_INDETERMINATE

    def test_sensitivity_recovers_at_true_parameters(self, sport_doc, slow_agent_results):
        grid = sensitivity(
            arms_from_results(slow_agent_results),
            sport_doc.graph,
            "practice",
            sport_doc.policy,
            p_act_grid=[0.8, 0.5],
            p_base_grid=[0.05],
        )
        assert [params["p_act"] for params, _ in grid] == [0.8, 0.5]
        wrong, right = grid[0][1], grid[1][1]
        assert wrong.verdict == IDENT_INDETERMINATE
        assert right.verdict == IDENT_UNIQUE
        assert right.top == frozenset({("be_fit", 1)})


def reference_identify(scores):
    """(verdict, top, candidates) as ``identify`` computed and stored them
    before ``Identification`` read them off its scores."""
    surviving = [s for s in scores if s.verdict != VERDICT_REFUTED]
    if not surviving:
        return IDENT_INDETERMINATE, None, ()
    top = max(surviving, key=lambda s: s.log_likelihood)
    if len(surviving) == 1:
        return IDENT_UNIQUE, top.hypothesis, (top.hypothesis,)
    return IDENT_CANDIDATES, top.hypothesis, tuple(s.hypothesis for s in surviving)


SCORE_ROWS = st.lists(
    st.tuples(
        st.sampled_from([-math.inf, -7.5, -1.0, 0.0]),
        st.sampled_from([VERDICT_CONSISTENT, VERDICT_INDISTINGUISHABLE, VERDICT_REFUTED]),
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=300, deadline=None)
@given(SCORE_ROWS)
@example([(-1.0, VERDICT_REFUTED), (-math.inf, VERDICT_REFUTED)])
@example([(-1.0, VERDICT_INDISTINGUISHABLE), (0.0, VERDICT_INDISTINGUISHABLE), (0.0, VERDICT_INDISTINGUISHABLE)])
def test_identification_reads_the_stored_answers(rows):
    scores = [HypothesisScore(frozenset({(f"e{i}", 1)}), ll, v) for i, (ll, v) in enumerate(rows)]
    ident = identify(iter(scores))
    assert ident.scores == tuple(scores)
    assert (ident.verdict, ident.top, ident.candidates) == reference_identify(scores)


class TestIdentifyBranches:
    def test_empty_scores_rejected(self):
        with pytest.raises(HypothesisError):
            identify([])

    def test_all_refuted_is_indeterminate(self):
        scores = [
            HypothesisScore(frozenset({("a", 1)}), -50.0, VERDICT_REFUTED),
            HypothesisScore(frozenset({("b", 1)}), -60.0, VERDICT_REFUTED),
        ]
        ident = identify(scores)
        assert ident.verdict == IDENT_INDETERMINATE
        assert ident.top is None
        assert ident.candidates == ()

    def test_two_survivors_are_candidates(self):
        a = frozenset({("a", 1)})
        b = frozenset({("b", 1)})
        scores = [
            HypothesisScore(a, -10.0, VERDICT_INDISTINGUISHABLE),
            HypothesisScore(b, -12.0, VERDICT_INDISTINGUISHABLE),
            HypothesisScore(frozenset({("c", 1)}), -80.0, VERDICT_REFUTED),
        ]
        ident = identify(scores)
        assert ident.verdict == IDENT_CANDIDATES
        assert ident.top == a
        assert ident.candidates == (a, b)

    def test_deterministic(self):
        scores = [HypothesisScore(frozenset({("a", 1)}), -3.0, VERDICT_CONSISTENT)]
        assert identify(scores) == identify(scores)


class TestArms:
    def test_arms_from_results_structure(self, battery_results):
        arms = arms_from_results(battery_results)
        assert len(arms) == 2 * len(battery_results)
        assert arms[0].regime == Regime()
        assert arms[1].regime.clamps == {"enroll": 0}
        assert arms[1].n == 2000

    def test_arms_from_results_requires_experiment(self):
        orphan = ExperimentResult(
            experiment=None,
            control_n=10,
            control_acts=5,
            treated_n=10,
            treated_acts=5,
            z_statistic=0.0,
            p_value=1.0,
            verdict="no-change",
            seed=1,
            pattern_count=0,
            pattern_passed=True,
        )
        with pytest.raises(RegimeError):
            arms_from_results([orphan])

    def test_arms_from_dataset_sorted_by_label(self):
        data = make_dataset(
            ["practice"],
            [(1,), (0,), (1,), (1,)],
            ["natural", "natural", "enroll=0", "enroll=0"],
        )
        arms = arms_from_dataset(data, "practice")
        assert [arm.regime.label() for arm in arms] == ["enroll=0", "natural"]
        assert arms[0] == ArmCounts(Regime({"enroll": 0}), 2, 2)
        assert arms[1].n == 2 and arms[1].acts == 1

    def test_arms_follow_the_raw_label_order(self):
        # "a=1" sorts before "b=1;a=0" as written, but after its canonical
        # label "a=0;b=1".  Arms keep the raw order, and so every score
        # keeps the order in which its arm terms are summed.
        data = make_dataset(
            ["a", "b", "act"],
            [(0, 1, 1), (1, 0, 0), (0, 1, 0), (1, 1, 1)],
            ["b=1;a=0", "a=1", "b=1;a=0", "a=1"],
        )
        arms = arms_from_dataset(data, "act")
        assert arms == [
            ArmCounts(Regime({"a": 1}), row_count(data, "a=1", {}), row_count(data, "a=1", {"act": 1})),
            ArmCounts(
                Regime({"a": 0, "b": 1}), row_count(data, "b=1;a=0", {}), row_count(data, "b=1;a=0", {"act": 1})
            ),
        ]
        assert sorted(arm.regime.label() for arm in arms) != [arm.regime.label() for arm in arms]


class TestOracle:
    def test_recovers_singleton_truth(self, sport_doc):
        truth_policy = AgentPolicy.make((("win_medals", 1),))
        outcome = oracle_identify(
            sport_doc.graph, "practice", truth_policy, SPORT_LEVERS, 2000, 777
        )
        assert outcome.truth == frozenset({("win_medals", 1)})
        assert outcome.agreement
        assert outcome.identification.verdict == IDENT_UNIQUE

    def test_recovers_compound_truth(self, sport_doc):
        truth_policy = AgentPolicy.make((("be_fit", 1), ("win_medals", 1)))
        outcome = oracle_identify(
            sport_doc.graph, "practice", truth_policy, SPORT_LEVERS, 2000, 778
        )
        assert outcome.agreement
        assert outcome.identification.top == frozenset(
            {("be_fit", 1), ("win_medals", 1)}
        )

    def test_equivalent_hypotheses_yield_candidates(self, sport_doc):
        truth_policy = AgentPolicy.make((("be_fit", 1),))
        outcome = oracle_identify(
            sport_doc.graph,
            "practice",
            truth_policy,
            SPORT_LEVERS,
            2000,
            779,
            max_size=2,
        )
        assert not outcome.agreement
        assert outcome.identification.verdict == IDENT_CANDIDATES
        assert outcome.truth in outcome.identification.candidates
        assert (
            frozenset({("be_fit", 1), ("lose_weight", 1)})
            in outcome.identification.candidates
        )
