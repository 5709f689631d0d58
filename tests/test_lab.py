import math
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from teleo import (
    NATURAL_LABEL,
    AgentPolicy,
    InterferenceExperiment,
    RegimeError,
    UnknownVariableError,
    base_rate_violation_budget,
    bind_agent,
    classify_effects,
    plan,
    run_battery,
    run_randomized,
    two_proportion_test,
)
from teleo import engine, lab
from teleo.lab import MIN_SUPPORT, expected_pattern_check
from teleo.models import SPORT_LEVERS, sport_lab, sport_lab_graph

from .helpers import make_dataset, row_count


@pytest.fixture(scope="module")
def battery():
    g = sport_lab_graph()
    cls = classify_effects(g, "practice", "be_fit")
    return plan(g, cls, SPORT_LEVERS)


class TestPlan:
    def test_experiment_order_and_levers(self, battery):
        seen = [(e.target, e.lever, e.rationale) for e in battery.experiments]
        assert seen == [
            ("win_medals", ("enroll", 0), "parallel"),
            ("live_longer", ("smoke", 1), "further"),
            ("be_fit", ("protein_diet", 0), "hypothesized-itself"),
        ]

    def test_parallel_pattern_matches_table_shape(self, battery):
        exp = battery.experiments[0]
        assert exp.expected_pattern == {
            "practice": 1,
            "lose_weight": 1,
            "be_fit": 1,
            "win_medals": 0,
            "enroll": 0,
        }
        assert exp.pattern_mode == "must-observe"

    def test_further_pattern(self, battery):
        exp = battery.experiments[1]
        assert exp.expected_pattern == {
            "practice": 1,
            "lose_weight": 1,
            "be_fit": 1,
            "live_longer": 0,
            "smoke": 1,
        }

    def test_hypothesized_pattern_is_forbidden_row(self, battery):
        exp = battery.experiments[2]
        assert exp.expected_pattern == {
            "practice": 1,
            "lose_weight": 1,
            "be_fit": 0,
            "protein_diet": 0,
        }
        assert exp.pattern_mode == "must-not-observe"

    def test_regime_label(self, battery):
        assert [e.label for e in battery.experiments] == ["enroll=0", "smoke=1", "protein_diet=0"]

    def test_no_experiment_for_mediators(self, battery):
        assert all(e.target != "lose_weight" for e in battery.experiments)

    def test_missing_lever_reported_unleverable(self):
        g = sport_lab_graph()
        cls = classify_effects(g, "practice", "lose_weight")
        result = plan(g, cls, SPORT_LEVERS)
        assert ("lose_weight", "hypothesized-itself") in result.unleverable
        assert len(result.experiments) == 3

    def test_mediator_lever_skipped(self):
        g = sport_lab_graph()
        cls = classify_effects(g, "practice", "be_fit")
        levers = dict(SPORT_LEVERS)
        levers["live_longer"] = ("lose_weight", 0)
        result = plan(g, cls, levers)
        assert any(target == "live_longer" for target, _ in result.skipped)
        assert all(e.target != "live_longer" for e in result.experiments)

    def test_non_effect_lever_reported(self):
        g = sport_lab_graph()
        cls = classify_effects(g, "practice", "be_fit")
        levers = dict(SPORT_LEVERS)
        levers["smoke"] = ("smoke", 1)
        result = plan(g, cls, levers)
        assert ("smoke", "not an effect of the action") in result.skipped

    def test_unknown_lever_target(self):
        g = sport_lab_graph()
        cls = classify_effects(g, "practice", "be_fit")
        with pytest.raises(UnknownVariableError):
            plan(g, cls, {"ghost": ("enroll", 0)})

    def test_unknown_lever_variable(self):
        g = sport_lab_graph()
        cls = classify_effects(g, "practice", "be_fit")
        with pytest.raises(UnknownVariableError, match="^lever variable 'ghost' is not a declared variable$"):
            plan(g, cls, {"win_medals": ("ghost", 0)})

    def test_bad_lever_value(self):
        g = sport_lab_graph()
        cls = classify_effects(g, "practice", "be_fit")
        with pytest.raises(RegimeError):
            plan(g, cls, {"win_medals": ("enroll", 2)})


class TestTwoProportionTest:
    def test_frozen_oracle(self):
        # pooled p = .5, se = sqrt(.25 * .02) = sqrt(.005); z = .6/sqrt(.005)
        z, p = two_proportion_test(80, 100, 20, 100)
        assert z == pytest.approx(8.485281374238571)
        assert p == pytest.approx(math.erfc(6.0), rel=1e-12)

    def test_no_difference(self):
        z, p = two_proportion_test(40, 100, 40, 100)
        assert z == 0.0
        assert p == pytest.approx(1.0)

    def test_degenerate_all_zero(self):
        assert two_proportion_test(0, 50, 0, 80) == (0.0, 1.0)

    def test_degenerate_all_one(self):
        assert two_proportion_test(50, 50, 80, 80) == (0.0, 1.0)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            two_proportion_test(5, 4, 0, 10)
        with pytest.raises(ValueError):
            two_proportion_test(0, 0, 0, 10)

    @settings(max_examples=50, deadline=None)
    @given(
        n1=st.integers(1, 400),
        n2=st.integers(1, 400),
        data=st.data(),
    )
    def test_antisymmetric_and_bounded(self, n1, n2, data):
        k1 = data.draw(st.integers(0, n1))
        k2 = data.draw(st.integers(0, n2))
        z, p = two_proportion_test(k1, n1, k2, n2)
        z_swap, p_swap = two_proportion_test(k2, n2, k1, n1)
        assert z == pytest.approx(-z_swap)
        assert p == pytest.approx(p_swap)
        assert 0.0 <= p <= 1.0


class TestRunRandomized:
    def test_deterministic(self, battery, sport_doc):
        model = sport_doc.bind()
        exp = battery.experiments[0]
        a = run_randomized(model, exp, 500, 11)
        b = run_randomized(model, exp, 500, 11)
        assert a == b

    def test_change_detected_when_rate_collapses(self, battery, sport_doc):
        model = sport_doc.bind()
        diet = battery.experiments[2]
        result = run_randomized(model, diet, 1000, 5)
        assert result.verdict == "change"
        assert result.treated_acts < result.control_acts / 4

    def test_no_change_on_parallel_lever(self, battery, sport_doc):
        model = sport_doc.bind()
        result = run_randomized(model, battery.experiments[0], 1000, 5)
        assert result.verdict == "no-change"

    def test_underpowered_when_both_arms_tiny(self, battery):
        doc = sport_lab()
        model = replace(doc, policy=replace(doc.policy, p_act=0.02, p_base=0.0)).bind()
        result = run_randomized(model, battery.experiments[0], 40, 2)
        assert result.verdict == "underpowered"

    def test_arms_must_hold_a_row(self, battery, sport_doc):
        with pytest.raises(ValueError, match="^n_per_arm must be >= 1$"):
            run_randomized(sport_doc.bind(), battery.experiments[0], 0, 1)

    def test_lever_clamping_action_rejected(self, sport_doc):
        from teleo import InterferenceExperiment

        model = sport_doc.bind()
        exp = InterferenceExperiment(
            target="win_medals",
            lever=("practice", 0),
            rationale="parallel",
            expected_pattern={"practice": 0},
        )
        with pytest.raises(RegimeError):
            run_randomized(model, exp, 100, 1)


def _experiment(mode: str, pattern: dict) -> InterferenceExperiment:
    """An experiment whose rationale gives ``mode``."""
    rationale = "hypothesized-itself" if mode == "must-not-observe" else "parallel"
    experiment = InterferenceExperiment(
        target="b", lever=("c", 0), rationale=rationale, expected_pattern=pattern
    )
    assert experiment.pattern_mode == mode
    return experiment


class TestPatternCheck:
    """The pattern judge, fed treated-arm counts taken row by row."""

    @staticmethod
    def judge(data, pattern, mode, p_base=0.0):
        count = row_count(data, NATURAL_LABEL, pattern)
        return expected_pattern_check(count, data.n_rows, _experiment(mode, pattern), p_base)

    def test_must_observe(self):
        data = make_dataset(["a", "b"], [(1, 1), (1, 0), (0, 1)])
        assert self.judge(data, {"a": 1, "b": 1}, "must-observe") == (1, True)
        assert self.judge(data, {"a": 0, "b": 0}, "must-observe") == (0, False)

    def test_must_not_observe_budget(self):
        data = make_dataset(["a"], [(1,), (1,), (0,)])
        assert self.judge(data, {"a": 1}, "must-not-observe") == (2, False)
        assert base_rate_violation_budget(0.05, 3) == 2
        assert self.judge(data, {"a": 1}, "must-not-observe", p_base=0.05) == (2, True)

    def test_min_support(self):
        data = make_dataset(["a", "b"], [(1, 0), (0, 1)])
        assert self.judge(data, {"a": 1}, "must-observe") == (MIN_SUPPORT, True)
        assert self.judge(data, {"a": 1, "b": 1}, "must-observe") == (0, False)


class TestBudget:
    def test_frozen_values(self):
        assert base_rate_violation_budget(0.05, 2000) == 130
        assert base_rate_violation_budget(0.05, 100) == 12
        assert base_rate_violation_budget(0.0, 1000) == 0

    def test_grows_with_n(self):
        budgets = [base_rate_violation_budget(0.05, n) for n in (100, 1000, 10000)]
        assert budgets == sorted(budgets)


class TestRunBattery:
    def test_results_align_with_plan(self, battery, sport_doc):
        model = sport_doc.bind()
        runs = run_battery(model, battery, 400, 9)
        assert [r.experiment.target for r in runs] == [
            "win_medals",
            "live_longer",
            "be_fit",
        ]

    def test_per_experiment_seeds_differ(self, battery, sport_doc):
        model = sport_doc.bind()
        runs = run_battery(model, battery, 400, 9)
        seeds = {r.seed for r in runs}
        assert len(seeds) == len(runs)

    def test_patterns_pass_under_truth(self, battery, sport_doc):
        model = sport_doc.bind()
        runs = run_battery(model, battery, 2000, 13)
        assert all(r.pattern_passed for r in runs)

    def test_deterministic(self, battery, sport_doc):
        model = sport_doc.bind()
        a = run_battery(model, battery, 300, 21)
        b = run_battery(model, battery, 300, 21)
        assert a == b

    @pytest.mark.parametrize("seed", [3, 17, 2024])
    @pytest.mark.parametrize("truth", ["lose_weight", "be_fit", "live_longer", "win_medals"])
    def test_results_match_full_column_arms(self, truth, seed):
        """Arms that sample only the columns they read give the results of
        arms that sample every column."""
        doc = sport_lab()
        model = bind_agent(doc.graph, "practice", AgentPolicy.make(((truth, 1),)))
        battery = plan(doc.graph, classify_effects(doc.graph, "practice", truth), doc.levers)

        def full_sample(graph, n, seed, regime_label=NATURAL_LABEL, names=None):
            return engine.sample(graph, n, seed, regime_label)

        with mock.patch.object(lab, "sample", full_sample):
            reference = run_battery(model, battery, 2000, seed)
        assert run_battery(model, battery, 2000, seed) == reference
