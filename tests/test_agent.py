import math

import pytest
from hypothesis import given, settings, strategies as st

from teleo import (
    AgentPolicy,
    ArmCounts,
    CausalGraph,
    HypothesisError,
    PolicyError,
    Regime,
    RegimeError,
    Variable,
    bind_agent,
    joint_enumerate,
    marginals,
    mutilate,
    score_arms,
    servable,
)
from teleo.models import sport_lab_graph, stove_water

from .helpers import dag_from_seed


@pytest.fixture(scope="module")
def lab():
    return sport_lab_graph()


class TestPolicyValidation:
    def test_defaults(self):
        p = AgentPolicy.make([("water", 1)])
        assert (p.p_act, p.p_base, p.theta) == (0.8, 0.05, 0.1)

    def test_empty_intentions_rejected(self):
        with pytest.raises(PolicyError):
            AgentPolicy.make([])

    def test_p_base_must_be_below_p_act(self):
        with pytest.raises(PolicyError):
            AgentPolicy.make([("x", 1)], p_act=0.3, p_base=0.5)

    def test_probabilities_in_range(self):
        with pytest.raises(PolicyError):
            AgentPolicy.make([("x", 1)], p_act=1.2)

    def test_negative_theta_rejected(self):
        with pytest.raises(PolicyError):
            AgentPolicy.make([("x", 1)], theta=-0.1)

    def test_modifier_value_binary(self):
        with pytest.raises(PolicyError):
            AgentPolicy.make([("x", 1)], cause_modifiers={("age", 2): 0.5})

    def test_modifier_factor_nonnegative(self):
        with pytest.raises(PolicyError):
            AgentPolicy.make([("x", 1)], cause_modifiers={("age", 1): -1.0})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("param", ["p_act", "p_base", "theta"])
    def test_non_finite_parameters_rejected(self, param, bad):
        with pytest.raises(PolicyError, match="finite"):
            AgentPolicy.make([("x", 1)], **{param: bad})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_modifier_rejected(self, bad):
        with pytest.raises(PolicyError, match="finite"):
            AgentPolicy.make([("x", 1)], cause_modifiers={("age", 1): bad})

    def test_with_intentions_keeps_parameters(self):
        p = AgentPolicy.make([("a", 1)], p_act=0.6)
        q = p.with_intentions([("b", 1)])
        assert q.p_act == 0.6
        assert q.intention_set == frozenset({("b", 1)})


class TestServability:
    def test_stove_margin(self):
        report = servable(stove_water(), "stove", [("water", 1)], theta=0.1)
        assert report.servable
        assert report.margin_of("water") == pytest.approx(1.0)

    def test_margin_is_do_difference(self, lab):
        # P(win|do(practice=1)) - P(win|do(practice=0)) = 0.7 - 0.0
        report = servable(lab, "practice", [("win_medals", 1)], theta=0.1)
        assert report.margin_of("win_medals") == pytest.approx(0.7)

    def test_not_servable_under_neutralizing_regime(self, lab):
        regime = Regime({"enroll": 0})
        report = servable(lab, "practice", [("win_medals", 1)], theta=0.1, regime=regime)
        assert not report.servable
        assert report.margin_of("win_medals") == pytest.approx(0.0)

    def test_target_zero_margin(self, lab):
        # intending live_longer=0 is served by NOT practicing, margin <= 0
        report = servable(lab, "practice", [("live_longer", 0)], theta=0.1)
        assert not report.servable

    def test_intent_must_be_descendant(self, lab):
        with pytest.raises(HypothesisError):
            servable(lab, "practice", [("smoke", 1)], theta=0.1)

    def test_regime_may_not_clamp_action(self, lab):
        with pytest.raises(RegimeError):
            servable(lab, "practice", [("be_fit", 1)], theta=0.1, regime=Regime({"practice": 1}))

    def test_conjunction_needs_every_intent(self, lab):
        regime = Regime({"enroll": 0})
        both = servable(lab, "practice", [("be_fit", 1), ("win_medals", 1)], theta=0.1, regime=regime)
        assert not both.servable
        alone = servable(lab, "practice", [("be_fit", 1)], theta=0.1, regime=regime)
        assert alone.servable


class TestBoundModel:
    def test_action_rate_is_p_act_when_servable(self, lab):
        model = bind_agent(lab, "practice", AgentPolicy.make([("be_fit", 1)]))
        assert model.action_rate(Regime()) == pytest.approx(0.8)

    def test_action_rate_collapses_when_not_servable(self, lab):
        model = bind_agent(lab, "practice", AgentPolicy.make([("be_fit", 1)]))
        regime = Regime({"protein_diet": 0})
        assert model.action_rate(regime) == pytest.approx(0.05)

    def test_servability_depends_on_regime_not_parent_values(self, lab):
        # smoke=1 blocks live_longer downstream of be_fit but leaves be_fit intact
        model = bind_agent(lab, "practice", AgentPolicy.make([("be_fit", 1)]))
        assert model.action_rate(Regime({"smoke": 1})) == pytest.approx(0.8)

    def test_caches_are_keyed_on_the_regime(self, lab):
        model = bind_agent(lab, "practice", AgentPolicy.make([("be_fit", 1)]))
        a = Regime({"protein_diet": 0, "enroll": 0})
        b = Regime({"enroll": 0, "protein_diet": 0})
        assert model.servability(a) is model.servability(b)
        assert model.bound_graph(a) is model.bound_graph(b)
        assert model.bound_graph(a, True) is not model.bound_graph(b, False)
        assert model.bound_graph() is model.bound_graph(Regime())

    def test_action_must_be_declared(self, lab):
        with pytest.raises(Exception):
            bind_agent(lab, "ghost", AgentPolicy.make([("be_fit", 1)]))

    def test_intents_checked_at_binding(self, lab):
        with pytest.raises(HypothesisError):
            bind_agent(lab, "practice", AgentPolicy.make([("enroll", 1)]))

    def test_modifier_parent_must_be_action_parent(self, lab):
        policy = AgentPolicy.make([("be_fit", 1)], cause_modifiers={("age", 1): 0.5})
        with pytest.raises(PolicyError):
            bind_agent(lab, "practice", policy)

    def test_bound_graph_keeps_other_mechanisms(self, lab):
        model = bind_agent(lab, "practice", AgentPolicy.make([("be_fit", 1)]))
        g = model.bound_graph(Regime())
        assert g.variable("be_fit").cpt == lab.variable("be_fit").cpt

    def test_downstream_marginal_reflects_agent(self, lab):
        model = bind_agent(lab, "practice", AgentPolicy.make([("be_fit", 1)]))
        table = joint_enumerate(model.bound_graph(Regime()))
        # be_fit = practice AND protein_diet in distribution: 0.8 * 0.9
        assert table.marginal("be_fit") == pytest.approx(0.72)


class TestCauseModifiers:
    def make_aged(self):
        from teleo.models import sport_lab_confounded

        return sport_lab_confounded()

    def test_rates_split_by_age(self):
        doc = self.make_aged()
        model = doc.bind()
        g = model.bound_graph(Regime())
        table = joint_enumerate(g)
        young = table.prob_of({"practice": 1, "age": 0}) / table.prob_of({"age": 0})
        old = table.prob_of({"practice": 1, "age": 1}) / table.prob_of({"age": 1})
        assert young == pytest.approx(0.8)
        assert old == pytest.approx(0.4)

    def test_base_rate_unmodified(self):
        doc = self.make_aged()
        model = doc.bind()
        regime = Regime({"protein_diet": 0})
        table = joint_enumerate(model.bound_graph(regime))
        young = table.prob_of({"practice": 1, "age": 0}) / table.prob_of({"age": 0})
        old = table.prob_of({"practice": 1, "age": 1}) / table.prob_of({"age": 1})
        assert young == pytest.approx(0.05)
        assert old == pytest.approx(0.05)

    def test_factor_clamped_to_one(self):
        from teleo import CausalGraph, Variable

        g = CausalGraph.make(
            [
                Variable.make("boost", (), 0.5),
                Variable.make("act", ("boost",), {0: 0.5, 1: 0.5}),
                Variable.make("goal", ("act",), {0: 0.0, 1: 1.0}),
            ]
        )
        policy = AgentPolicy.make([("goal", 1)], p_act=0.8, cause_modifiers={("boost", 1): 2.0})
        model = bind_agent(g, "act", policy)
        table = joint_enumerate(model.bound_graph(Regime()))
        boosted = table.prob_of({"act": 1, "boost": 1}) / table.prob_of({"boost": 1})
        assert boosted == pytest.approx(1.0)


@settings(max_examples=25, deadline=None)
@given(
    theta_low=st.floats(0.0, 0.5),
    theta_high=st.floats(0.5, 1.0),
)
def test_servable_antitone_in_theta(theta_low, theta_high):
    g = sport_lab_graph()
    hi = servable(g, "practice", [("win_medals", 1)], theta=theta_high)
    lo = servable(g, "practice", [("win_medals", 1)], theta=theta_low)
    if hi.servable:
        assert lo.servable


def dense_margins(graph, action, intentions, regime):
    """Reference do-margins from the dense joint of each do-graph: what
    servability computed before it swept the ancestors."""
    base = mutilate(graph, regime)
    tables = {value: joint_enumerate(mutilate(base, Regime({action: value}))) for value in (1, 0)}
    return {
        (name, target): tables[1].prob_of({name: target}) - tables[0].prob_of({name: target})
        for name, target in intentions
    }


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10_000), data=st.data())
def test_sweep_matches_dense_enumeration(seed, data):
    graph = dag_from_seed(seed, max_nodes=14)
    # Deterministic CPT rows give exact 0/1 marginals and exact-zero margins.
    graph = graph.replace(
        *(
            Variable.make(
                var.name,
                var.parents,
                {key: data.draw(st.sampled_from([p, p, 0.0, 1.0])) for key, p in var.cpt.items()},
            )
            for var in graph.variables
        )
    )
    table = joint_enumerate(graph)
    names = data.draw(st.lists(st.sampled_from(graph.names), min_size=1, unique=True))
    got = marginals(graph, names)
    assert list(got) == names
    for name in names:
        assert abs(got[name] - table.marginal(name)) <= 1e-12

    actions = [name for name in graph.names if graph.descendants(name)]
    if not actions:
        return
    action = data.draw(st.sampled_from(actions))
    effects = sorted(graph.descendants(action))
    intentions = data.draw(
        st.sets(st.tuples(st.sampled_from(effects), st.integers(0, 1)), min_size=1, max_size=4)
    )
    others = [name for name in graph.names if name != action]
    regime = Regime(data.draw(st.dictionaries(st.sampled_from(others), st.integers(0, 1), max_size=2)))
    theta = data.draw(st.sampled_from((0.0, 0.1, 0.5)))
    report = servable(graph, action, intentions, theta, regime)
    want = dense_margins(graph, action, intentions, regime)
    for name, target, margin in report.margins:
        dense = want[(name, target)]
        assert abs(margin - dense) <= 1e-12
        if abs(dense - theta) > 1e-9:
            assert (margin >= theta) == (dense >= theta)
    if all(abs(m - theta) > 1e-9 for m in want.values()):
        assert report.servable == all(m >= theta for m in want.values())


def lever_pair(p_hi: float, p_lo: float) -> CausalGraph:
    """``act -> mid -> eff`` with ``mid = act`` and P(eff | mid) = p_hi, p_lo."""
    return CausalGraph.make(
        [
            Variable.make("act", (), 0.5),
            Variable.make("mid", ("act",), {0: 0.0, 1: 1.0}),
            Variable.make("eff", ("mid",), {0: p_lo, 1: p_hi}),
        ]
    )


class TestTies:
    def test_margin_equal_to_theta_is_servable(self):
        g = lever_pair(0.75, 0.25)
        report = servable(g, "act", [("eff", 1)], theta=0.5)
        assert report.margin_of("eff") == 0.5
        assert report.servable
        assert not servable(g, "act", [("eff", 1)], theta=math.nextafter(0.5, 1.0)).servable

    def test_target_zero_margin_equal_to_theta(self):
        report = servable(lever_pair(0.25, 0.75), "act", [("eff", 0)], theta=0.5)
        assert report.margin_of("eff") == 0.5
        assert report.servable

    def test_neutralized_margin_is_exactly_zero(self):
        g = lever_pair(0.75, 0.25)
        for target in (0, 1):
            report = servable(g, "act", [("eff", target)], theta=0.0, regime=Regime({"mid": 1}))
            assert report.margin_of("eff") == 0.0
            assert report.servable
            assert not servable(
                g, "act", [("eff", target)], theta=5e-324, regime=Regime({"mid": 1})
            ).servable

    def test_exact_rates_of_zero_and_one(self):
        g = lever_pair(1.0, 0.0)
        policy = AgentPolicy.make([("eff", 1)], p_act=1.0, p_base=0.0, theta=1.0)
        model = bind_agent(g, "act", policy)
        assert model.action_rate(Regime()) == 1.0
        assert model.action_rate(Regime({"mid": 1})) == 0.0
        arms = [ArmCounts(Regime(), 10, 10), ArmCounts(Regime({"mid": 1}), 10, 0)]
        (score,) = score_arms(arms, g, "act", policy, hypotheses=[frozenset({("eff", 1)})])
        assert score.log_likelihood == 0.0
        flipped = [ArmCounts(Regime(), 10, 9), ArmCounts(Regime({"mid": 1}), 10, 0)]
        (score,) = score_arms(flipped, g, "act", policy, hypotheses=[frozenset({("eff", 1)})])
        assert score.log_likelihood == -math.inf
