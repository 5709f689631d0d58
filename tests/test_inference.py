import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from teleo import (
    AgentPolicy,
    ArmCounts,
    ExperimentResult,
    HypothesisError,
    HypothesisScore,
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
    predicted_rates,
    run_battery,
    score_arms,
    sensitivity,
)
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
from teleo.models import SPORT_LEVERS

from .helpers import make_dataset

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
    runs = run_battery(model, battery, 2000, 314)
    return [run.result for run in runs]


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
            got = predicted_rates(
                g, "practice", policy, frozenset({(name, 1)}), ARM_REGIMES
            )
            assert got == pytest.approx(want, rel=1e-9), name

    def test_natural_rates_identical_across_hypotheses(self, sport_doc):
        g, policy = sport_doc.graph, sport_doc.policy
        natural = [
            predicted_rates(g, "practice", policy, h, [Regime()])[0]
            for h in SINGLETONS
        ]
        assert len(set(natural)) == 1


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
        rates = predicted_rates(
            sport_doc.graph, "practice", sport_doc.policy, h, [a.regime for a in arms]
        )
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
         (10, 10, 0.0, -math.inf), (0, 10, 1.0, -math.inf), (7, 10, 1.0, -math.inf)],
    )
    def test_point_masses_are_exact(self, k, n, p, want):
        assert binomial_logpmf(k, n, p) == want
        assert float(stats.binom.logpmf(k, n, p)) == want


PROBS = (0.0, 0.1, 0.25, 0.5, 0.9, 1.0)


@st.composite
def scoring_problems(draw):
    """A random DAG of up to 8 variables with 0/1 CPT rows, an action with
    at least one effect, a policy with modifiers on the action's parents,
    hypotheses with target-0 and target-1 intentions, and arms under clamp
    regimes that include clamps on the action's parents."""
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
    # p_act times the factors stays below 1: at a predicted rate of exactly 1
    # any two summation orders may round differently and fall on either side
    # of the point mass, which no scorer can agree on.
    p_base, p_act = draw(st.sampled_from(((0.0, 0.6), (0.05, 0.8), (0.3, 0.9))))
    policy = AgentPolicy.make(
        hypotheses[0],
        p_act=p_act,
        p_base=p_base,
        theta=draw(st.sampled_from((0.0, 0.1, 0.3))),
        cause_modifiers=modifiers,
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


@settings(max_examples=150, deadline=None)
@given(scoring_problems())
def test_scores_match_per_hypothesis_enumeration(problem):
    graph, action, policy, hypotheses, arms = problem
    scores = score_arms(arms, graph, action, policy, hypotheses=hypotheses)
    want_lls, want_verdicts = reference_scores(arms, graph, action, policy, hypotheses)
    for score, want in zip(scores, want_lls):
        assert score.log_likelihood == want or abs(score.log_likelihood - want) <= 1e-9
    assert [s.verdict for s in scores] == want_verdicts


@pytest.fixture(scope="module")
def slow_agent_results(sport_doc):
    lazy = AgentPolicy.make((("be_fit", 1),), p_act=0.5, p_base=0.05)
    model = bind_agent(sport_doc.graph, "practice", lazy)
    cls = classify_effects(sport_doc.graph, "practice", "be_fit")
    battery = plan(sport_doc.graph, cls, SPORT_LEVERS)
    runs = run_battery(model, battery, 2000, 98)
    return [run.result for run in runs]


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
