import copy
import dataclasses
import math
import pickle
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from teleo import (
    AgentPolicy,
    ArmCounts,
    CausalGraph,
    HypothesisError,
    InvalidGraphError,
    PolicyError,
    Regime,
    RegimeError,
    TeleoError,
    TeleologicalModel,
    UnknownVariableError,
    Variable,
    arms_from_results,
    bind_agent,
    classify_effects,
    enumerate_hypotheses,
    joint_enumerate,
    marginals,
    mutilate,
    oracle_identify,
    plan,
    run_battery,
    score_arms,
    sensitivity,
    servable,
)
from teleo import agent, engine
from teleo.models import sport_lab, sport_lab_graph, stove_water

from .helpers import dag_from_seed


@pytest.fixture(scope="module")
def lab():
    return sport_lab_graph()


class TestPolicyValidation:
    def test_intended_target_must_be_binary(self):
        with pytest.raises(PolicyError, match="must be 0 or 1"):
            AgentPolicy.make([("be_fit", 2)])
        with pytest.raises(PolicyError, match="must be 0 or 1"):
            AgentPolicy.make([("be_fit", 1)]).with_intentions([("be_fit", -1)])

    def test_equal_policies_hash_alike(self):
        make = lambda: AgentPolicy.make([("be_fit", 1)], cause_modifiers={("age", 1): 0.5})
        a, b = make(), make()
        assert a == b and hash(a) == hash(b)
        assert len({a, b, AgentPolicy.make([("be_fit", 1)])}) == 2
        with pytest.raises(TypeError):
            a.cause_modifiers[("age", 0)] = 2.0
        assert pickle.loads(pickle.dumps(a)) == a == copy.deepcopy(a)
        assert hash(a.with_intentions([("be_fit", 1)])) == hash(a)

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
        assert report.margins == (("water", 1, pytest.approx(1.0)),)

    def test_margin_is_do_difference(self, lab):
        # P(win|do(practice=1)) - P(win|do(practice=0)) = 0.7 - 0.0
        report = servable(lab, "practice", [("win_medals", 1)], theta=0.1)
        assert report.margins == (("win_medals", 1, pytest.approx(0.7)),)

    def test_not_servable_under_neutralizing_regime(self, lab):
        regime = Regime({"enroll": 0})
        report = servable(lab, "practice", [("win_medals", 1)], theta=0.1, regime=regime)
        assert not report.servable
        assert report.margins == (("win_medals", 1, pytest.approx(0.0)),)

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

    def test_unknown_clamp_rejected(self, lab):
        with pytest.raises(UnknownVariableError):
            servable(lab, "practice", [("be_fit", 1)], theta=0.1, regime=Regime({"nope": 1}))

    def test_invalid_graph_rejected_even_where_a_clamp_cuts_the_cycle(self):
        cyclic = CausalGraph.make(
            [
                Variable.make("act", (), 0.5),
                Variable.make("b", ("act", "c"), {(0, 0): 0.1, (0, 1): 0.2, (1, 0): 0.3, (1, 1): 0.9}),
                Variable.make("c", ("b",), {0: 0.2, 1: 0.7}),
                Variable.make("e", ("b",), {0: 0.2, 1: 0.7}),
            ]
        )
        with pytest.raises(InvalidGraphError, match="cycle: b -> c -> b"):
            servable(cyclic, "act", [("e", 1)], theta=0.1, regime=Regime({"b": 1}))

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
        assert model.servability(a) == model.servability(b)
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


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10_000), data=st.data())
def test_batched_do_margins_match_single_sweeps(seed, data):
    graph = dag_from_seed(seed, max_nodes=12)
    actions = [name for name in graph.names if graph.descendants(name)]
    if not actions:
        return
    action = data.draw(st.sampled_from(actions))
    effects = sorted(graph.descendants(action))
    intentions = data.draw(
        st.sets(st.tuples(st.sampled_from(effects), st.integers(0, 1)), min_size=1, max_size=4)
    )
    others = [name for name in graph.names if name != action]
    roots = [name for name in others if not graph.parents(name)]
    inner = [name for name in others if graph.parents(name)]

    def clamps(pool, size):
        return st.dictionaries(st.sampled_from(pool), st.integers(0, 1), min_size=size, max_size=size)

    # Root clamps, non-root clamps and two-variable clamps, in any mix.
    kinds = [clamps(others, min(2, len(others)))] + [clamps(pool, 1) for pool in (roots, inner) if pool]
    drawn = data.draw(st.lists(st.one_of(kinds), min_size=1, max_size=8))
    regimes = [Regime()] + [Regime(c) for c in drawn]
    theta = data.draw(st.sampled_from((0.0, 0.1, 0.5)))
    model = bind_agent(graph, action, AgentPolicy.make(intentions, theta=theta))
    reports = model.servabilities(regimes)
    assert len(graph._do_margins) == len(set(regimes))
    for regime, report in zip(regimes, reports):
        assert report == servable(CausalGraph(graph.variables), action, intentions, theta, regime)
        want = dense_margins(graph, action, intentions, regime)
        for name, target, margin in report.margins:
            dense = want[(name, target)]
            assert abs(margin - dense) <= 1e-12
            if abs(dense - theta) > 1e-9:
                assert (margin >= theta) == (dense >= theta)

    # Without an action the batched sweep gives each regime's marginals.
    names = sorted({name for name, _ in intentions})
    groups = {}
    for regime in dict.fromkeys(regimes):
        cut = frozenset(name for name in regime.clamps if graph.parents(name))
        groups.setdefault(cut, []).append(regime.clamps)
    for group in groups.values():
        singles = [agent._sweep(graph, names, [c])[0] for c in group]
        assert agent._sweep(graph, names, group) == singles


def test_batch_wider_than_the_cap_is_split_in_halves(monkeypatch):
    graph = sport_lab_graph()
    names = ["be_fit", "live_longer", "win_medals"]
    regimes = [{}, {"enroll": 0}, {"smoke": 1}, {"protein_diet": 0}, {"enroll": 0, "smoke": 1}]
    want = [engine._sweep(graph, names, [clamps], "practice")[0] for clamps in regimes]
    batches = []
    sweep = engine._sweep

    def counting(graph, names, regimes, action=None):
        batches.append(len(regimes))
        return sweep(graph, names, regimes, action)

    monkeypatch.setattr(engine, "_sweep", counting)
    # The widest frontier here holds 3 variables: 5 regimes x 2^3 cells pass
    # a cap of 6 in one sweep, but a cap of 4 admits at most 2 regimes.
    monkeypatch.setattr(engine, "ENUMERATION_CAP", 6)
    assert engine._sweep(graph, names, regimes, "practice") == want
    assert batches == [5]
    del batches[:]
    monkeypatch.setattr(engine, "ENUMERATION_CAP", 4)
    assert engine._sweep(graph, names, regimes, "practice") == want
    assert batches == [5, 2, 3, 1, 2]


class TestScoringErrors:
    """A bad scoring call raises before it sweeps, so the memo stays empty."""

    def test_arm_that_clamps_the_action(self):
        doc = sport_lab()
        lab = doc.graph
        arms = [ArmCounts(Regime(), 10, 8), ArmCounts(Regime({"enroll": 0}), 10, 1)]
        arms.append(ArmCounts(Regime({"practice": 1}), 10, 10))
        message = "regime clamps the action 'practice'; the agent chooses it"
        with pytest.raises(RegimeError, match=message):
            score_arms(arms, lab, "practice", doc.policy)
        assert lab._do_margins == {}

    def test_hypothesis_on_a_non_descendant(self):
        doc = sport_lab()
        lab = doc.graph
        arms = [ArmCounts(Regime(), 10, 8), ArmCounts(Regime({"enroll": 0}), 10, 1)]
        hypotheses = [frozenset({("be_fit", 1)}), frozenset({("smoke", 1)})]
        message = "'smoke' is not a strict descendant of action 'practice'"
        with pytest.raises(HypothesisError, match=message):
            score_arms(arms, lab, "practice", doc.policy, hypotheses=hypotheses)
        assert lab._do_margins == {}


def bits(report):
    margins = tuple((name, target, margin.hex()) for name, target, margin in report.margins)
    return report.servable, margins


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10_000), data=st.data())
def test_do_margin_memo_is_never_stale(seed, data):
    graph = dag_from_seed(seed, max_nodes=14)
    actions = [name for name in graph.names if graph.descendants(name)]
    if not actions:
        return

    def draw_call():
        action = data.draw(st.sampled_from(actions))
        effects = sorted(graph.descendants(action))
        intentions = data.draw(
            st.sets(st.tuples(st.sampled_from(effects), st.integers(0, 1)), min_size=1, max_size=4)
        )
        others = [name for name in graph.names if name != action]
        clamps = data.draw(st.dictionaries(st.sampled_from(others), st.integers(0, 1), max_size=2))
        return action, intentions, Regime(clamps)

    # Calls repeat from a small pool, so later ones read the memo.
    pool = [draw_call() for _ in range(data.draw(st.integers(1, 4)))]
    calls = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=10))
    for action, intentions, regime in calls:
        got = servable(graph, action, intentions, 0.1, regime)
        fresh = servable(CausalGraph(graph.variables), action, intentions, 0.1, regime)
        assert bits(got) == bits(fresh)
        want = dense_margins(graph, action, intentions, regime)
        for name, target, margin in got.margins:
            assert abs(margin - want[(name, target)]) <= 1e-12

    action, intentions, regime = calls[-1]
    var = graph.variable(data.draw(st.sampled_from(graph.names)))
    row = data.draw(st.sampled_from(sorted(var.cpt)))
    changed = graph.replace(
        Variable.make(var.name, var.parents, {**var.cpt, row: data.draw(st.floats(0.0, 1.0))})
    )
    clamp = data.draw(st.sampled_from(graph.names))
    derived = [
        changed,
        mutilate(graph, Regime({clamp: data.draw(st.integers(0, 1))})),
        graph.ancestral_subgraph(data.draw(st.sampled_from(graph.names))),
        bind_agent(graph, action, AgentPolicy.make(intentions)).bound_graph(regime),
    ]
    assert graph._do_margins
    for other in derived:
        assert other._do_margins == {}
    want = dense_margins(changed, action, intentions, regime)
    for name, target, margin in servable(changed, action, intentions, 0.1, regime).margins:
        assert abs(margin - want[(name, target)]) <= 1e-12


def test_servability_is_computed_once_per_key(monkeypatch):
    sweeps = Counter()
    batches = []
    sweep = agent._sweep

    def counting(graph, names, regimes, action):
        batches.append(len(regimes))
        for clamps in regimes:
            sweeps[(id(graph), action, tuple(clamps.items()), tuple(names))] += 1
        return sweep(graph, names, regimes, action)

    monkeypatch.setattr(agent, "_sweep", counting)
    doc = sport_lab()
    graph = doc.graph
    model = bind_agent(graph, "practice", doc.policy)
    battery = plan(graph, classify_effects(graph, "practice", "be_fit"), doc.levers)
    arms = arms_from_results(run_battery(model, battery, 200, 3))
    sensitivity(arms, graph, "practice", doc.policy, [0.6, 0.7, 0.8], [0.02, 0.05, 0.1])
    truths = ("lose_weight", "be_fit", "live_longer", "win_medals")
    for seed in range(8):
        policy = AgentPolicy.make([(truths[seed % 4], 1)])
        oracle_identify(graph, "practice", policy, doc.levers, 200, seed)
    assert len(sweeps) > len(doc.levers)
    assert set(sweeps.values()) == {1}

    # Every lever is a root, so one sweep covers the natural regime and all
    # three lever regimes of a scoring call on a fresh graph.
    fresh = sport_lab().graph
    assert all(not fresh.parents(name) for name, _ in doc.levers.values())
    del batches[:]
    score_arms(arms, fresh, "practice", doc.policy, hypotheses=enumerate_hypotheses(fresh, "practice"))
    assert batches == [len(doc.levers) + 1]


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
        assert report.margins == (("eff", 1, 0.5),)
        assert report.servable
        assert not servable(g, "act", [("eff", 1)], theta=math.nextafter(0.5, 1.0)).servable

    def test_target_zero_margin_equal_to_theta(self):
        report = servable(lever_pair(0.25, 0.75), "act", [("eff", 0)], theta=0.5)
        assert report.margins == (("eff", 0, 0.5),)
        assert report.servable

    def test_neutralized_margin_is_exactly_zero(self):
        g = lever_pair(0.75, 0.25)
        for target in (0, 1):
            report = servable(g, "act", [("eff", target)], theta=0.0, regime=Regime({"mid": 1}))
            assert report.margins == (("eff", target, 0.0),)
            assert report.servable
            assert not servable(
                g, "act", [("eff", target)], theta=5e-324, regime=Regime({"mid": 1})
            ).servable

    def test_cut_off_margin_is_exactly_zero_in_any_company(self):
        # Swept with v4, whose ancestors stay on the frontier when v5 joins,
        # the clamped v5's two do-values differed in the last bit: its margin
        # read -2^-52, below theta = 0, only in that company.
        g = CausalGraph.make(
            [
                Variable.make("v0", (), 0.0),
                Variable.make("v1", ("v0",), {0: 0.0, 1: 0.0}),
                Variable.make("v2", ("v0",), {0: 0.0, 1: 0.1}),
                Variable.make("v3", ("v2",), {0: 0.0, 1: 0.5}),
                Variable.make(
                    "v4", ("v1", "v3"), {(0, 0): 0.1, (0, 1): 0.0, (1, 0): 0.0, (1, 1): 0.0}
                ),
                Variable.make("v5", ("v0",), {0: 0.0, 1: 0.0}),
            ]
        )
        regime = Regime({"v5": 1})
        alone = servable(g, "v0", [("v5", 0)], theta=0.0, regime=regime)
        both = servable(g, "v0", [("v4", 0), ("v5", 0)], theta=0.0, regime=regime)
        assert alone.margins == (("v5", 0, 0.0),)
        assert both.margins[1] == ("v5", 0, 0.0)
        assert alone.servable and both.servable

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


class TestStatelessModel:
    def test_model_is_its_three_fields(self):
        names = [f.name for f in dataclasses.fields(TeleologicalModel)]
        assert names == ["base_graph", "action", "policy"]
        assert not hasattr(agent, "mutilate")

    def test_bound_graph_miss_makes_one_replace(self, monkeypatch):
        calls = []
        original = CausalGraph.replace

        def counting(graph, *replacements):
            calls.append(tuple(v.name for v in replacements))
            return original(graph, *replacements)

        monkeypatch.setattr(CausalGraph, "replace", counting)
        model = bind_agent(sport_lab_graph(), "practice", AgentPolicy.make([("be_fit", 1)]))
        regime = Regime({"smoke": 1, "protein_diet": 0})
        bound = model.bound_graph(regime)
        assert calls == [("protein_diet", "smoke", "practice")]
        assert model.bound_graph(regime) is bound
        assert len(calls) == 1

    def test_target_checked_even_on_a_memo_hit(self):
        graph = sport_lab_graph()
        with pytest.raises(PolicyError, match="must be 0 or 1"):
            servable(graph, "practice", [("be_fit", 2)], 0.1)
        assert servable(graph, "practice", [("be_fit", 1)], 0.1).servable
        with pytest.raises(PolicyError, match="must be 0 or 1"):
            servable(graph, "practice", [("be_fit", 2)], 0.1)

    def test_bool_and_float_clamps_sweep_as_ints(self):
        intentions = [("be_fit", 1), ("live_longer", 1)]
        want = servable(sport_lab_graph(), "practice", intentions, 0.1, Regime({"smoke": 1}))
        for value in (True, 1.0):
            regime = Regime({"smoke": value})
            assert servable(sport_lab_graph(), "practice", intentions, 0.1, regime) == want


def policy_rows(graph: CausalGraph, action: str, policy: AgentPolicy, bit: bool) -> dict:
    """The action's CPT under ``policy``, written out row by row."""
    var = graph.variable(action)
    rows = {}
    for key in var.cpt:
        p = policy.p_act
        for parent, value in zip(var.parents, key):
            if (parent, value) in policy.cause_modifiers:
                p *= policy.cause_modifiers[(parent, value)]
        rows[key] = min(1.0, max(0.0, p)) if bit else policy.p_base
    return rows


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10_000), data=st.data())
def test_bound_graph_memo(seed, data):
    graph = dag_from_seed(seed, max_nodes=14)
    actions = [name for name in graph.names if graph.descendants(name)]
    if not actions:
        return
    action = data.draw(st.sampled_from(actions))
    effects = sorted(graph.descendants(action))
    parents = graph.parents(action)

    def draw_intentions():
        targets = st.tuples(st.sampled_from(effects), st.integers(0, 1))
        return data.draw(st.sets(targets, min_size=1, max_size=3))

    modifiers = {}
    if parents:
        bits = st.tuples(st.sampled_from(parents), st.integers(0, 1))
        modifiers = data.draw(st.dictionaries(bits, st.floats(0.0, 3.0), max_size=2))
    policy = AgentPolicy.make(
        draw_intentions(),
        p_act=data.draw(st.floats(0.6, 1.0)),
        p_base=data.draw(st.floats(0.0, 0.5)),
        cause_modifiers=modifiers,
    )
    model = bind_agent(graph, action, policy)
    others = [name for name in graph.names if name != action]
    regime = Regime(data.draw(st.dictionaries(st.sampled_from(others), st.integers(0, 1), max_size=2)))
    model.bound_graph(regime)  # fills both memos through the servability check

    for bit in (True, False):
        bound = model.bound_graph(regime, bit)
        fresh = mutilate(CausalGraph(graph.variables), regime)
        policy_var = Variable(action, parents, policy_rows(graph, action, policy, bit))
        assert bound.variables == fresh.replace(policy_var).variables
        # Models that differ only in their intentions share the bound graph.
        other = bind_agent(graph, action, policy.with_intentions(draw_intentions()))
        assert other.bound_graph(regime, bit) is bound
        # Other behavioral parameters share it exactly when the CPT is the same.
        for changed in (
            dataclasses.replace(policy, p_act=policy.p_act - 0.05),
            dataclasses.replace(policy, p_base=policy.p_base + 0.05),
        ):
            got = bind_agent(graph, action, changed).bound_graph(regime, bit)
            same_cpt = policy_rows(graph, action, changed, bit) == policy_var.cpt
            assert (got is bound) == same_cpt
        if not bit:
            assert got is not bound  # every row of a non-servable CPT is p_base

    clamp = data.draw(st.sampled_from(graph.names))
    derived = [
        graph.replace(graph.variable(action)),
        mutilate(graph, Regime({clamp: data.draw(st.integers(0, 1))})),
        graph.ancestral_subgraph(action),
        bound,
    ]
    assert graph._bound
    for other_graph in derived:
        assert other_graph._bound == {}

    # Invalid calls store nothing, though both memos already hold valid keys.
    margins, bounds = dict(graph._do_margins), dict(graph._bound)
    assert margins and bounds
    outsider = next(name for name in graph.names if name not in effects)
    invalid = [
        lambda: servable(graph, action, [(effects[0], 1)], 0.1, Regime({action: 1})),
        lambda: servable(graph, action, [(outsider, 1)], 0.1, regime),
        lambda: servable(graph, action, [], 0.1, regime),
        lambda: servable(graph, action, [(effects[0], 2)], 0.1, regime),
        lambda: model.bound_graph(Regime({**regime.clamps, action: 0})),
        lambda: model.bound_graph(Regime({**regime.clamps, "ghost": 1}), True),
    ]
    for call in invalid:
        with pytest.raises(TeleoError):
            call()
        assert graph._do_margins == margins and graph._bound == bounds
