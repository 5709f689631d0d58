"""Inputs the benchmark generates: lever-gated chain specs, spec files
checked to round-trip, and the pools of program seeds runs draw from.

Every program seed comes from a fixed pool, so that the golden outputs in
``golden.json`` cover any benchmark ``--seed``: the benchmark seed picks
which pool entries a run uses and in which order.
"""

from __future__ import annotations

from pathlib import Path

from teleo import (
    AgentPolicy,
    CausalGraph,
    GraphSpecDocument,
    Tagging,
    Variable,
    parse_graph_spec,
    serialize_graph_spec,
)

AND = {(0, 0): 0.0, (0, 1): 0.0, (1, 0): 0.0, (1, 1): 1.0}
LEVER_P = 0.9

# Program seeds with recorded golden outputs, per workload.
ORACLE_SEEDS = tuple(range(64))
CHAIN_SEEDS = tuple(range(6))
DATA_SEEDS = tuple(range(4))

SINGLETONS = ("lose_weight", "be_fit", "live_longer", "win_medals")


def chain_doc(depth: int) -> GraphSpecDocument:
    """Action ``a`` drives ``e0 -> e1 -> ...``; each ``e_i = AND(e_{i-1}, l_i)``
    with ``e_{-1} = a`` and a root lever ``l_i`` (p=0.9) that neutralizes
    ``e_i`` when clamped to 0.  The planted truth is ``e_{depth//2}``."""
    variables = [Variable.make("a", (), 0.5)]
    levers = {}
    prev = "a"
    for i in range(depth):
        effect, lever = f"e{i}", f"l{i}"
        variables.append(Variable.make(lever, (), LEVER_P))
        variables.append(Variable.make(effect, (prev, lever), AND))
        levers[effect] = (lever, 0)
        prev = effect
    truth = ((f"e{depth // 2}", 1),)
    return GraphSpecDocument(
        graph=CausalGraph.make(variables),
        tagging=Tagging.make("a", truth),
        policy=AgentPolicy.make(truth),
        levers=levers,
    )


def write_spec(doc: GraphSpecDocument, path: Path) -> Path:
    """Serialize ``doc`` to ``path`` after checking that the text parses back
    to the same graph, tagging, levers and policy."""
    text = serialize_graph_spec(doc)
    back = parse_graph_spec(text)
    if (back.graph, back.tagging, back.levers, back.policy) != (
        doc.graph,
        doc.tagging,
        doc.levers,
        doc.policy,
    ):
        raise RuntimeError(f"generated spec {path.name} does not round-trip")
    path.write_text(text, encoding="utf-8")
    return path
