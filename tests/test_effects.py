import pytest
from hypothesis import given, settings, strategies as st

from teleo import (
    CausalGraph,
    HypothesisError,
    Variable,
    classify_effects,
    confounding_causes,
    justifying_paths,
)
from teleo.models import education_salary, sport_chain, sport_lab_graph

from .helpers import dag_from_seed


@pytest.fixture(scope="module")
def sport_cls():
    return classify_effects(sport_lab_graph(), "practice", "be_fit")


class TestSportClassification:
    def test_three_confounding_effect_classes(self, sport_cls):
        assert sport_cls.mediating == frozenset({"lose_weight"})
        assert sport_cls.further == frozenset({"live_longer"})
        assert sport_cls.parallel == frozenset({"win_medals"})

    def test_partition_covers_strict_descendants(self, sport_cls):
        g = sport_lab_graph()
        assert sport_cls.all_effects() == g.descendants("practice")

    def test_levers_are_not_effects(self, sport_cls):
        for lever in ("enroll", "smoke", "protein_diet"):
            assert lever not in sport_cls.all_effects()
            assert justifying_paths(sport_lab_graph(), sport_cls, lever) == []

    def test_hypothesized_class(self, sport_cls):
        g = sport_lab_graph()
        assert sport_cls.hypothesized == "be_fit"
        assert justifying_paths(g, sport_cls, "be_fit") == g.directed_paths("practice", "be_fit")
        assert "lose_weight" in sport_cls.mediating
        assert justifying_paths(g, sport_cls, "lose_weight") == [
            ["practice", "lose_weight", "be_fit"]
        ]


class TestOtherHypotheses:
    def test_win_medals_hypothesis_makes_chain_parallel(self):
        cls = classify_effects(sport_lab_graph(), "practice", "win_medals")
        assert cls.mediating == frozenset()
        assert cls.further == frozenset()
        assert cls.parallel == frozenset({"lose_weight", "be_fit", "live_longer"})

    def test_live_longer_hypothesis(self):
        cls = classify_effects(sport_lab_graph(), "practice", "live_longer")
        assert cls.mediating == frozenset({"lose_weight", "be_fit"})
        assert cls.further == frozenset()
        assert cls.parallel == frozenset({"win_medals"})

    def test_chain_only_graph(self):
        cls = classify_effects(sport_chain(), "practice", "be_fit")
        assert cls.mediating == frozenset({"lose_weight"})
        assert cls.further == frozenset({"live_longer"})
        assert cls.parallel == frozenset({"win_medals"})

    def test_hypothesis_must_be_strict_descendant(self):
        with pytest.raises(HypothesisError):
            classify_effects(sport_lab_graph(), "practice", "smoke")
        with pytest.raises(HypothesisError):
            classify_effects(sport_lab_graph(), "practice", "practice")


class TestConfoundingCauses:
    def test_common_cause_found(self):
        causes = confounding_causes(education_salary(), "education", "salary")
        assert causes == {"family_status"}

    def test_no_common_cause(self):
        assert confounding_causes(sport_lab_graph(), "practice", "win_medals") == set()

    def test_age_confounds_practice_and_medals(self, confounded_doc):
        g = confounded_doc.graph
        assert confounding_causes(g, "practice", "win_medals") == {"age"}
        # age reaches be_fit through practice, so it counts there too
        assert confounding_causes(g, "practice", "be_fit") == {"age"}


class TestJustifyingPaths:
    def test_mediator_witness_runs_through_it(self, sport_cls):
        g = sport_lab_graph()
        paths = justifying_paths(g, sport_cls, "lose_weight")
        assert paths
        for path in paths:
            assert path[0] == "practice"
            assert "lose_weight" in path
            assert path[-1] == "be_fit"

    def test_further_witness_extends_past_hypothesis(self, sport_cls):
        g = sport_lab_graph()
        paths = justifying_paths(g, sport_cls, "live_longer")
        assert paths == [["be_fit", "live_longer"]]

    def test_parallel_witness_avoids_hypothesis(self, sport_cls):
        g = sport_lab_graph()
        paths = justifying_paths(g, sport_cls, "win_medals")
        assert paths
        for path in paths:
            assert path[0] == "practice"
            assert "be_fit" not in path

    def test_long_chain(self):
        names = [f"v{i}" for i in range(1500)]
        variables = [Variable.make(names[0], (), 0.5)] + [
            Variable.make(name, (parent,), {0: 0.1, 1: 0.9})
            for parent, name in zip(names, names[1:])
        ]
        g = CausalGraph.make(variables)
        cls = classify_effects(g, "v0", "v1499")
        assert justifying_paths(g, cls, "v1499") == [names]
        assert justifying_paths(g, cls, "v700") == [names]


def brute_force_classes(graph, action, hypothesized):
    """Independent path-based oracle for the three-way split."""
    effects = graph.descendants(action) - {hypothesized}
    mediating, further, parallel = set(), set(), set()
    for v in effects:
        if graph.directed_paths(v, hypothesized):
            mediating.add(v)
        elif graph.directed_paths(hypothesized, v):
            further.add(v)
        else:
            parallel.add(v)
    return mediating, further, parallel


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 20_000))
def test_classification_matches_path_oracle(seed):
    g = dag_from_seed(seed)
    for action in g.names:
        for hyp in sorted(g.descendants(action)):
            cls = classify_effects(g, action, hyp)
            med, fur, par = brute_force_classes(g, action, hyp)
            assert cls.mediating == med
            assert cls.further == fur
            assert cls.parallel == par
            assert not (cls.mediating & cls.further)
            assert not (cls.mediating & cls.parallel)
            assert not (cls.further & cls.parallel)


def per_effect_classes(graph, action, hypothesized):
    """The per-effect definition: mediating iff the hypothesized effect is a
    descendant of it."""
    effects = graph.descendants(action) - {hypothesized}
    mediating = {v for v in effects if hypothesized in graph.descendants(v)}
    further = graph.descendants(hypothesized)
    return mediating, further, effects - mediating - further


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 20_000))
def test_classification_matches_per_effect_definition(seed):
    g = dag_from_seed(seed, max_nodes=12)
    for action in g.names:
        for hyp in sorted(g.descendants(action)):
            cls = classify_effects(g, action, hyp)
            assert (cls.mediating, cls.further, cls.parallel) == per_effect_classes(g, action, hyp)
