import pytest
from hypothesis import given, settings, strategies as st

from teleo import (
    AgentPolicy,
    CausalGraph,
    InvalidGraphError,
    Regime,
    Tagging,
    UnknownVariableError,
    Variable,
    bind_agent,
    mutilate,
)

from .helpers import dag_from_seed


def chain(*names):
    variables = [Variable.make(names[0], (), 0.5)]
    for prev, cur in zip(names, names[1:]):
        variables.append(Variable.make(cur, (prev,), {0: 0.0, 1: 1.0}))
    return CausalGraph.make(variables)


class TestVariable:
    def test_make_float_shorthand(self):
        v = Variable.make("coin", (), 0.7)
        assert v.cpt == {(): 0.7}

    def test_make_int_keys_become_tuples(self):
        v = Variable.make("b", ("a",), {0: 0.1, 1: 0.9})
        assert v.cpt == {(0,): 0.1, (1,): 0.9}

    def test_constant(self):
        v = Variable.constant("x", 1)
        assert v.parents == ()
        assert v.cpt == {(): 1.0}

    def test_missing_cpt_row_reported(self):
        v = Variable.make("b", ("a",), {(1,): 0.9})
        problems = v.local_violations()
        assert any("incomplete CPT" in p for p in problems)

    def test_probability_out_of_range(self):
        v = Variable.make("coin", (), 1.5)
        assert v.local_violations()

    def test_duplicate_parent(self):
        v = Variable.make("b", ("a", "a"), {(0, 0): 0.1, (0, 1): 0.1, (1, 0): 0.1, (1, 1): 0.1})
        assert any("duplicate" in p for p in v.local_violations())


class TestGraphStructure:
    def test_names_in_declaration_order(self):
        g = chain("a", "b", "c")
        assert g.names == ("a", "b", "c")

    def test_children(self):
        g = chain("a", "b", "c")
        assert g.children("a") == ("b",)
        assert g.children("c") == ()

    def test_unknown_variable(self):
        g = chain("a", "b")
        with pytest.raises(UnknownVariableError):
            g.variable("zzz")

    def test_descendants_and_ancestors(self, sport_doc):
        g = sport_doc.graph
        assert g.descendants("practice") == {"lose_weight", "be_fit", "live_longer", "win_medals"}
        assert g.ancestors("live_longer") == {"be_fit", "lose_weight", "practice", "protein_diet", "smoke"}
        assert "practice" in g.descendants("practice", strict=False)

    def test_directed_paths(self, sport_doc):
        g = sport_doc.graph
        paths = g.directed_paths("practice", "live_longer")
        assert paths == [["practice", "lose_weight", "be_fit", "live_longer"]]
        assert g.directed_paths("smoke", "win_medals") == []
        assert g.directed_paths("practice", "practice") == []

    def test_directed_paths_follow_declared_children_depth_first(self):
        link = {0: 0.1, 1: 0.9}
        both = {(0, 0): 0.1, (0, 1): 0.5, (1, 0): 0.5, (1, 1): 0.9}
        g = CausalGraph.make(
            [
                Variable.make("a", (), 0.5),
                Variable.make("b", ("a",), link),
                Variable.make("c", ("a", "b"), both),
                Variable.make("d", ("c", "b"), both),
            ]
        )
        assert g.directed_paths("a", "d") == [["a", "b", "c", "d"], ["a", "b", "d"], ["a", "c", "d"]]

    def test_n_edges(self, sport_doc):
        assert sport_doc.graph.n_edges == 7

    def test_topological_order_ties_follow_declaration(self):
        g = CausalGraph.make(
            [
                Variable.make("b", (), 0.5),
                Variable.make("a", (), 0.5),
                Variable.make("c", ("b", "a"), {(0, 0): 0.0, (0, 1): 0.0, (1, 0): 0.0, (1, 1): 1.0}),
            ]
        )
        assert g.topological_order == ("b", "a", "c")


class TestValidation:
    def test_valid_graph_empty_report(self, sport_doc):
        assert sport_doc.graph.validate() == []

    def test_unknown_parent(self):
        g = CausalGraph.make([Variable.make("b", ("ghost",), {0: 0.5, 1: 0.5})])
        problems = g.validate()
        assert any("ghost" in p for p in problems)

    def test_duplicate_names(self):
        g = CausalGraph.make([Variable.make("a", (), 0.5), Variable.make("a", (), 0.4)])
        assert any("duplicate" in p for p in g.validate())

    def test_empty_graph(self):
        assert CausalGraph.make([]).validate() == ["no variables declared"]

    def test_cycle_named_in_report(self):
        g = CausalGraph.make(
            [
                Variable.make("a", ("b",), {0: 0.5, 1: 0.5}),
                Variable.make("b", ("a",), {0: 0.5, 1: 0.5}),
            ]
        )
        problems = g.validate()
        assert any("cycle" in p and "a" in p and "b" in p for p in problems)

    def test_violations_collected_not_first_only(self):
        g = CausalGraph.make(
            [
                Variable.make("a", ("ghost",), {0: 0.5, 1: 0.5}),
                Variable.make("b", (), 1.7),
            ]
        )
        problems = g.validate()
        assert len(problems) >= 2

    def test_require_valid_raises(self):
        g = CausalGraph.make([Variable.make("a", ("a",), {0: 0.5, 1: 0.5})])
        with pytest.raises(InvalidGraphError):
            g.require_valid()

    def test_cyclic_topological_order_raises(self):
        g = CausalGraph.make(
            [
                Variable.make("a", ("b",), {0: 0.5, 1: 0.5}),
                Variable.make("b", ("a",), {0: 0.5, 1: 0.5}),
            ]
        )
        with pytest.raises(InvalidGraphError):
            g.topological_order


class TestTagging:
    def test_valid(self, sport_doc):
        t = Tagging.make("practice", [("be_fit", 1)])
        assert t.validate(sport_doc.graph) == []

    def test_action_must_exist(self, sport_doc):
        t = Tagging.make("ghost", [("be_fit", 1)])
        assert t.validate(sport_doc.graph)

    def test_intent_must_be_strict_descendant(self, sport_doc):
        t = Tagging.make("practice", [("smoke", 1)])
        assert any("smoke" in p for p in t.validate(sport_doc.graph))
        t = Tagging.make("practice", [("practice", 1)])
        assert t.validate(sport_doc.graph)

    def test_target_must_be_binary(self, sport_doc):
        t = Tagging.make("practice", [("be_fit", 2)])
        assert t.validate(sport_doc.graph)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_random_dag_is_valid_and_ordered(seed):
    g = dag_from_seed(seed)
    assert g.validate() == []
    order = g.topological_order
    position = {name: i for i, name in enumerate(order)}
    for v in g.variables:
        for parent in v.parents:
            assert position[parent] < position[v.name]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_descendants_ancestors_duality(seed):
    g = dag_from_seed(seed)
    for a in g.names:
        for b in g.names:
            assert (b in g.descendants(a)) == (a in g.ancestors(b))
            assert (b in g.descendants(a)) == bool(g.directed_paths(a, b))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10_000), data=st.data())
def test_mutilated_and_bound_graphs_are_valid(seed, data):
    g = dag_from_seed(seed)
    clamps = data.draw(st.dictionaries(st.sampled_from(g.names), st.integers(0, 1), max_size=3))
    derived = [mutilate(g, Regime(clamps))]
    actions = [name for name in g.names if g.descendants(name) and name not in clamps]
    if actions:
        action = data.draw(st.sampled_from(actions))
        effect = data.draw(st.sampled_from(sorted(g.descendants(action))))
        model = bind_agent(g, action, AgentPolicy.make([(effect, 1)]))
        for bit in (None, True, False):
            derived.append(model.bound_graph(Regime(clamps), bit))
        derived.append(derived[-1].ancestral_subgraph(action))
    for graph in derived:
        assert graph.validate() == []
        # A fresh copy carries no memo, so this checks from scratch.
        assert CausalGraph.make(graph.variables).validate() == []


class TestValidityMemo:
    def test_replacement_naming_no_variable_is_rejected(self, sport_doc):
        with pytest.raises(UnknownVariableError, match="'ghost'"):
            sport_doc.graph.replace(Variable.constant("ghost", 1))
        g = chain("a", "b")
        with pytest.raises(UnknownVariableError, match="'ghost'"):
            g.replace(Variable.constant("a", 0), Variable.constant("ghost", 1))

    def test_replacement_that_adds_an_edge_is_checked(self):
        g = chain("a", "b", "c")
        assert g.validate() == []
        looped = g.replace(Variable.make("a", ("c",), {0: 0.5, 1: 0.5}))
        assert looped.validate() == ["cycle: a -> c -> b -> a"]
        with pytest.raises(InvalidGraphError):
            looped.require_valid()
        stray = g.replace(Variable.make("b", ("z",), {0: 0.5, 1: 0.5}))
        assert stray.validate() == ["b: unknown parent 'z'"]

    def test_replacement_failing_local_checks_is_reported(self):
        g = chain("a", "b")
        assert g.validate() == []
        bad_clamp = g.replace(Variable.make("b", (), 1.5))
        assert bad_clamp.validate() == ["b: probability 1.5 outside [0,1] at row ()"]
        short_row = g.replace(Variable(name="b", parents=("a",), cpt={(0,): 0.5}))
        assert short_row.validate() == ["b: incomplete CPT (1 rows, expected 2)"]

    def test_replace_on_an_invalid_graph_checks_afresh(self):
        g = CausalGraph.make([Variable.make("a", ("b",), {0: 0.5, 1: 0.5})])
        assert g.replace(Variable.constant("a", 1)).validate() == []
        twice = CausalGraph.make([Variable.make("a"), Variable.make("a")])
        assert twice.replace(Variable.constant("a", 1)).validate() == ["duplicate variable 'a'"]
        looped = CausalGraph.make(
            [Variable.make("a", ("b",), {0: 0.5, 1: 0.5}), Variable.make("b", ("a",), {0: 0.5, 1: 0.5})]
        )
        assert looped.ancestral_subgraph("a").validate() == ["cycle: a -> b -> a"]
