import itertools

import pytest
from hypothesis import assume, given, settings, strategies as st

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

    def test_empty_name(self):
        v = Variable.make("", (), 0.5)
        assert v.local_violations() == ["variable with empty name"]
        assert CausalGraph.make([v]).validate() == ["variable with empty name"]

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
        assert "practice" not in g.descendants("practice") | g.ancestors("practice")
        assert set(g.ancestral_subgraph("live_longer").names) == g.ancestors("live_longer") | {"live_longer"}

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

    def test_intent_must_be_declared(self, sport_doc):
        t = Tagging.make("practice", [("ghost", 1)])
        assert t.validate(sport_doc.graph) == ["intended effect 'ghost' is not a declared variable"]

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


def reference_cycle(graph):
    """The cycle report as it was first written: a depth-first walk over
    the parents of each declared variable in turn, closed at the first
    parent already on the walk."""
    by_name = {v.name: v for v in graph.variables}
    done = set()
    for v in graph.variables:
        if v.name in done:
            continue
        stack, on_stack, pending = [v.name], {v.name}, [iter(by_name[v.name].parents)]
        while pending:
            for p in pending[-1]:
                if p not in by_name or p in done:
                    continue
                if p in on_stack:
                    return stack[stack.index(p) :] + [p]
                stack.append(p)
                on_stack.add(p)
                pending.append(iter(by_name[p].parents))
                break
            else:
                on_stack.discard(stack[-1])
                done.add(stack.pop())
                pending.pop()
    return None


def with_back_edges(graph, edges):
    """``graph`` with each (child, parent) pair in ``edges`` added as an
    edge; every CPT row of a child that gains a parent is 0.5."""
    extra: dict[str, list[str]] = {}
    for child, parent in edges:
        extra.setdefault(child, []).append(parent)
    variables = []
    for v in graph.variables:
        if v.name in extra:
            parents = v.parents + tuple(extra[v.name])
            v = Variable.make(v.name, parents, {key: 0.5 for key in itertools.product((0, 1), repeat=len(parents))})
        variables.append(v)
    return CausalGraph.make(variables)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10_000), data=st.data())
def test_back_edges_are_reported_as_one_closed_walk(seed, data):
    g = dag_from_seed(seed)
    # An edge from a descendant back to its ancestor closes a cycle.
    back = [(a, d) for a in g.names for d in g.names if d in g.descendants(a)]
    assume(back)
    cyclic = with_back_edges(g, sorted(data.draw(st.sets(st.sampled_from(back), min_size=1, max_size=3))))
    # Shuffled, so the first variable left out may lie below a cycle.
    cyclic = CausalGraph.make(data.draw(st.permutations(cyclic.variables)))
    (problem,) = cyclic.validate()
    walk = problem.removeprefix("cycle: ").split(" -> ")
    assert walk == reference_cycle(cyclic)
    assert walk[0] == walk[-1] and len(set(walk)) == len(walk) - 1
    assert all(parent in cyclic.parents(child) for child, parent in zip(walk, walk[1:]))
    # The order leaves out what lies on a cycle or below one; the walk
    # climbs from the first of those.
    left_out = [
        name for name in cyclic.names if any(a in cyclic.ancestors(a) for a in cyclic.ancestors(name) | {name})
    ]
    assert left_out and walk[0] in cyclic.ancestors(left_out[0]) | {left_out[0]}
    assert set(cyclic._order) == set(cyclic.names) - set(left_out)
    with pytest.raises(InvalidGraphError):
        cyclic.topological_order


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10_000), data=st.data())
def test_order_places_parents_first_and_ties_by_declaration(seed, data):
    # Shuffled, so the declaration order is not already an order.
    variables = data.draw(st.permutations(dag_from_seed(seed).variables))
    g = CausalGraph.make(variables)
    assert g.validate() == []
    order = g.topological_order
    assert sorted(order) == sorted(g.names)
    position = {name: k for k, name in enumerate(order)}
    declared = {name: k for k, name in enumerate(g.names)}
    # A variable is ready once its last parent is placed; the ready are
    # placed first in, first out, and those made ready together (roots, or
    # children of one parent) in declaration order.
    ready = {name: max((position[p] for p in g.parents(name)), default=-1) for name in order}
    assert all(ready[name] < position[name] for name in order)
    keys = [(ready[name], declared[name]) for name in order]
    assert keys == sorted(keys)


def test_cycle_through_a_long_chain_is_walked_without_recursion():
    names = [f"v{i}" for i in range(1500)]
    variables = [Variable.make(names[0], (names[-1],), {0: 0.1, 1: 0.9})] + [
        Variable.make(name, (parent,), {0: 0.1, 1: 0.9}) for parent, name in zip(names, names[1:])
    ]
    g = CausalGraph.make(variables)
    assert g.validate() == ["cycle: " + " -> ".join([names[0], *reversed(names)])]
    assert g._order == ()


class TestCycleTexts:
    def test_cycle_below_the_first_declaration(self):
        half = {0: 0.5, 1: 0.5}
        g = CausalGraph.make(
            [Variable.make("a", ("b",), half), Variable.make("b", ("c",), half), Variable.make("c", ("b",), half)]
        )
        assert g.validate() == ["cycle: b -> c -> b"]
        assert g._order == ()

    def test_unknown_and_duplicate_parents_are_counted_with_the_cycle(self):
        # The second "r" is the one a name means: a child of the cycle, and
        # the first variable the order leaves out.
        two = {key: 0.5 for key in itertools.product((0, 1), repeat=2)}
        g = CausalGraph.make(
            [
                Variable.make("r", (), 0.5),
                Variable.make("a", ("ghost", "b"), two),
                Variable.make("b", ("a", "a"), two),
                Variable.make("r", ("b",), {0: 0.5, 1: 0.5}),
            ]
        )
        assert g.validate() == [
            "a: unknown parent 'ghost'",
            "b: duplicate parent names",
            "duplicate variable 'r'",
            "cycle: b -> a -> b",
        ]
        assert reference_cycle(g) == ["b", "a", "b"]
