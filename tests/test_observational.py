import math

import numpy as np
import pytest

from teleo import (
    Battery,
    Dataset,
    Regime,
    TeleoError,
    classify_effects,
    observational_battery,
    plan,
    sample,
    sample_observational,
    stratified_action_comparison,
)
from teleo.models import SPORT_LEVERS, sport_lab_confounded
from teleo.observational import (
    FLAG_CONFOUNDED,
    FLAG_EMPTY_CELLS,
    FLAG_SMALL_STRATA,
)

from .helpers import make_dataset


def two_strata_dataset():
    """age=0: control 8/10 vs treated 2/10; age=1: 10/20 in both arms."""
    rows = []
    labels = []

    def block(age, act, count, label):
        rows.extend([(age, act)] * count)
        labels.extend([label] * count)

    block(0, 1, 8, "natural")
    block(0, 0, 2, "natural")
    block(0, 1, 2, "ban")
    block(0, 0, 8, "ban")
    block(1, 1, 10, "natural")
    block(1, 0, 10, "natural")
    block(1, 1, 10, "ban")
    block(1, 0, 10, "ban")
    return make_dataset(["age", "act"], rows, labels)


class TestStratifiedComparison:
    def test_hand_computed_pooling(self):
        cmp = stratified_action_comparison(
            two_strata_dataset(), "act", adjustment=("age",)
        )
        var0 = 2 * (0.8 * 0.2 / 10)
        var1 = 2 * (0.5 * 0.5 / 20)
        inv_total = 1 / var0 + 1 / var1
        w0 = (1 / var0) / inv_total
        assert cmp.strata[0].difference == pytest.approx(-0.6)
        assert cmp.strata[0].variance == pytest.approx(var0)
        assert cmp.strata[1].difference == pytest.approx(0.0)
        assert cmp.strata[0].weight == pytest.approx(w0)
        assert cmp.pooled_difference == pytest.approx(-0.6 * w0)
        assert cmp.pooled_se == pytest.approx(math.sqrt(1 / inv_total))
        expected_p = math.erfc(abs(cmp.pooled_difference) / cmp.pooled_se / math.sqrt(2))
        assert cmp.pooled_p == pytest.approx(expected_p)
        assert cmp.flags == ()

    def test_natural_is_control_even_when_it_sorts_last(self):
        cmp = stratified_action_comparison(two_strata_dataset(), "act")
        assert cmp.control_label == "natural"
        assert cmp.treated_label == "ban"

    def test_marginal_comparison_is_single_stratum(self):
        cmp = stratified_action_comparison(two_strata_dataset(), "act")
        assert len(cmp.strata) == 1
        only = cmp.strata[0]
        assert only.key == ()
        assert (only.control_n, only.control_acts) == (30, 18)
        assert (only.treated_n, only.treated_acts) == (30, 12)
        assert only.difference == pytest.approx(-0.2)
        assert only.weight == 1.0

    def test_included_weights_sum_to_one(self):
        cmp = stratified_action_comparison(
            two_strata_dataset(), "act", adjustment=("age",)
        )
        assert sum(s.weight for s in cmp.strata if s.included) == pytest.approx(1.0)

    def test_row_order_invariance(self):
        data = two_strata_dataset()
        perm = np.random.Generator(np.random.PCG64(3)).permutation(data.n_rows)
        shuffled = Dataset.from_labels(
            data.variables,
            data.values[perm],
            tuple(data.regime_labels[i] for i in perm),
        )
        a = stratified_action_comparison(data, "act", adjustment=("age",))
        b = stratified_action_comparison(shuffled, "act", adjustment=("age",))
        assert a.pooled_difference == b.pooled_difference
        assert a.strata == b.strata

    def test_small_stratum_reported_but_excluded(self):
        rows, labels = [], []
        rows += [(0, 1)] * 6 + [(0, 0)] * 4
        labels += ["natural"] * 10
        rows += [(0, 1)] * 2 + [(0, 0)] * 8
        labels += ["ban"] * 10
        rows += [(1, 1)] * 3 + [(1, 1)] * 6
        labels += ["natural"] * 3 + ["ban"] * 6
        data = make_dataset(["age", "act"], rows, labels)
        cmp = stratified_action_comparison(data, "act", adjustment=("age",))
        assert FLAG_SMALL_STRATA in cmp.flags
        small = cmp.strata[1]
        assert not small.included
        assert small.weight == 0.0
        assert (small.control_n, small.treated_n) == (3, 6)
        assert cmp.pooled_difference == pytest.approx(cmp.strata[0].difference)

    def test_empty_cell_dropped_with_flag(self):
        rows, labels = [], []
        rows += [(0, 1)] * 6 + [(0, 0)] * 4
        labels += ["natural"] * 10
        rows += [(0, 1)] * 2 + [(0, 0)] * 8
        labels += ["ban"] * 10
        rows += [(1, 1)] * 7
        labels += ["ban"] * 7
        data = make_dataset(["age", "act"], rows, labels)
        cmp = stratified_action_comparison(data, "act", adjustment=("age",))
        assert FLAG_EMPTY_CELLS in cmp.flags
        assert len(cmp.strata) == 1
        assert cmp.strata[0].key == (("age", 0),)

    def test_degenerate_cell_still_weighable(self):
        rows, labels = [], []
        rows += [(0, 0)] * 10
        labels += ["natural"] * 10
        rows += [(0, 1)] * 10
        labels += ["ban"] * 10
        data = make_dataset(["age", "act"], rows, labels)
        cmp = stratified_action_comparison(data, "act")
        only = cmp.strata[0]
        assert only.difference == pytest.approx(1.0)
        assert only.included
        assert only.variance > 0.0
        assert math.isfinite(cmp.pooled_se)

    def test_rejects_action_in_adjustment(self):
        with pytest.raises(TeleoError, match="adjustment"):
            stratified_action_comparison(two_strata_dataset(), "act", adjustment=("act",))

    def test_rejects_single_regime(self):
        data = make_dataset(["act"], [(1,), (0,)], ["natural", "natural"])
        with pytest.raises(TeleoError, match="2 regimes"):
            stratified_action_comparison(data, "act")

    def test_rejects_three_regimes(self):
        data = make_dataset(
            ["act"], [(1,), (0,), (1,)], ["natural", "ban", "tax"]
        )
        with pytest.raises(TeleoError, match="exactly 2"):
            stratified_action_comparison(data, "act")

    def test_rejects_when_nothing_usable(self):
        data = make_dataset(
            ["act"], [(1,), (0,), (1,), (0,)], ["natural", "natural", "ban", "ban"]
        )
        with pytest.raises(TeleoError, match="minimum cell"):
            stratified_action_comparison(data, "act")

    def test_min_cell_is_five_rows_per_arm(self):
        rows = [(1,)] * 5 + [(0,)] * 5
        five = make_dataset(["act"], rows, ["natural"] * 5 + ["ban"] * 5)
        assert stratified_action_comparison(five, "act").strata[0].included
        four = make_dataset(["act"], rows[1:], ["natural"] * 4 + ["ban"] * 5)
        with pytest.raises(TeleoError, match="minimum cell"):
            stratified_action_comparison(four, "act")


@pytest.fixture(scope="module")
def selected_data(confounded_doc):
    model = confounded_doc.bind()
    graphs = {
        "natural": model.bound_graph(Regime()),
        "enroll=0": model.bound_graph(Regime({"enroll": 0})),
    }
    probs = {
        0: {"natural": 0.8, "enroll=0": 0.2},
        1: {"natural": 0.2, "enroll=0": 0.8},
    }
    return sample_observational(graphs, "age", probs, 20_000, 424242)


@pytest.fixture(scope="module")
def sport_battery(sport_doc):
    cls = classify_effects(sport_doc.graph, "practice", "be_fit")
    return cls, plan(sport_doc.graph, cls, SPORT_LEVERS)


class TestConfoundedAdjustment:
    def test_unadjusted_comparison_is_biased(self, selected_data):
        cmp = stratified_action_comparison(selected_data, "practice")
        assert cmp.pooled_difference < -0.15

    def test_age_adjustment_removes_the_bias(self, selected_data):
        cmp = stratified_action_comparison(
            selected_data, "practice", adjustment=("age",)
        )
        assert abs(cmp.pooled_difference) < 0.05
        assert len(cmp.strata) == 2


class TestObservationalBattery:
    def test_missing_regimes_marked_no_data(self, sport_doc, sport_battery):
        cls, battery = sport_battery
        model = sport_doc.bind()
        natural = sample(model.bound_graph(Regime()), 2000, 51)
        diet = sample(
            model.bound_graph(Regime({"protein_diet": 0})),
            2000,
            52,
            regime_label="protein_diet=0",
        )
        data = Dataset.concat([natural, diet])
        results = observational_battery(
            data, battery, cls, (), sport_doc.graph, p_base=sport_doc.policy.p_base
        )
        statuses = {r.experiment.target: r.status for r in results}
        assert statuses == {
            "win_medals": "no-data",
            "live_longer": "no-data",
            "be_fit": "ok",
        }
        missing = next(r for r in results if r.status == "no-data")
        assert missing.comparison is None and missing.verdict is None
        fit = next(r for r in results if r.experiment.target == "be_fit")
        assert fit.verdict == "change"
        assert fit.pattern_passed

    def test_confounding_flag_follows_adjustment(self, confounded_doc):
        g = confounded_doc.graph
        cls = classify_effects(g, "practice", "be_fit")
        battery = plan(g, cls, SPORT_LEVERS)
        model = confounded_doc.bind()
        parts = [sample(model.bound_graph(Regime()), 1500, 61)]
        for i, exp in enumerate(battery.experiments):
            parts.append(
                sample(
                    model.bound_graph(exp.regime()),
                    1500,
                    62 + i,
                    regime_label=exp.label,
                )
            )
        data = Dataset.concat(parts)

        unadjusted = observational_battery(data, battery, cls, (), graph=g)
        assert all(r.status == "ok" for r in unadjusted)
        assert all(FLAG_CONFOUNDED in r.comparison.flags for r in unadjusted)

        adjusted = observational_battery(data, battery, cls, ("age",), graph=g)
        assert all(FLAG_CONFOUNDED not in r.comparison.flags for r in adjusted)
        assert all(r.comparison.adjustment_set == ("age",) for r in adjusted)

    def test_single_experiment_battery(self, sport_doc, sport_battery):
        cls, battery = sport_battery
        model = sport_doc.bind()
        natural = sample(model.bound_graph(Regime()), 1000, 71)
        ban = sample(
            model.bound_graph(Regime({"enroll": 0})),
            1000,
            72,
            regime_label="enroll=0",
        )
        data = Dataset.concat([natural, ban])
        one = Battery(experiments=battery.experiments[:1])
        results = observational_battery(data, one, cls, (), sport_doc.graph)
        assert len(results) == 1
        assert results[0].status == "ok"
        assert results[0].verdict == "no-change"
