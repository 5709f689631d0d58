"""Ready-made binary causal models used throughout the docs and tests.

All of them are small enough for exact enumeration: a bowling lane, a stove
heating water, education and salary with family status as common cause, and
several variants of the sport-practice model, whose effect chain
(practice -> lose_weight -> be_fit -> live_longer, plus practice ->
win_medals) is the package's running example.

The "lab" variants add one lever variable per controllable effect: enroll
feeds win_medals, smoke suppresses live_longer, protein_diet gates be_fit.
Clamping a lever neutralizes its effect without touching any mediator, which
is what interference experiments need.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

from .agent import AgentPolicy
from .graph import CausalGraph, Tagging, Variable
from .specfmt import GraphSpecDocument

AND = {(0, 0): 0.0, (0, 1): 0.0, (1, 0): 0.0, (1, 1): 1.0}
COPY = {(0,): 0.0, (1,): 1.0}


def ball_pins() -> CausalGraph:
    """Two nodes: a thrown ball deterministically knocks the pins down."""
    return CausalGraph.make(
        [
            Variable.make("ball", (), 0.5),
            Variable.make("pins", ("ball",), COPY),
        ]
    )


def stove_water() -> CausalGraph:
    """A hot stove deterministically brings the water to a boil."""
    return CausalGraph.make(
        [
            Variable.make("stove", (), 0.5),
            Variable.make("water", ("stove",), COPY),
        ]
    )


def education_salary() -> CausalGraph:
    """Education raises salary, but family status drives both."""
    return CausalGraph.make(
        [
            Variable.make("family_status", (), 0.4),
            Variable.make("education", ("family_status",), {(0,): 0.2, (1,): 0.8}),
            Variable.make(
                "salary",
                ("family_status", "education"),
                {(0, 0): 0.1, (0, 1): 0.5, (1, 0): 0.4, (1, 1): 0.9},
            ),
        ]
    )


def sport_chain() -> CausalGraph:
    """The five-node sport model with fully deterministic mechanisms:
    practice -> lose_weight -> be_fit -> live_longer, practice -> win_medals."""
    return CausalGraph.make(
        [
            Variable.make("practice", (), 0.8),
            Variable.make("lose_weight", ("practice",), COPY),
            Variable.make("be_fit", ("lose_weight",), COPY),
            Variable.make("live_longer", ("be_fit",), COPY),
            Variable.make("win_medals", ("practice",), COPY),
        ]
    )


def sport_lab_graph() -> CausalGraph:
    """The sport model extended with one lever per controllable effect.

    win_medals = practice AND enroll; be_fit = lose_weight AND protein_diet;
    live_longer = be_fit AND NOT smoke.  The lever marginals keep every
    singleton intention servable under the natural regime.
    """
    return CausalGraph.make(
        [
            Variable.make("enroll", (), 0.7),
            Variable.make("smoke", (), 0.3),
            Variable.make("protein_diet", (), 0.9),
            Variable.make("practice", (), 0.8),
            Variable.make("lose_weight", ("practice",), COPY),
            Variable.make("be_fit", ("lose_weight", "protein_diet"), AND),
            Variable.make(
                "live_longer",
                ("be_fit", "smoke"),
                {(0, 0): 0.0, (0, 1): 0.0, (1, 0): 1.0, (1, 1): 0.0},
            ),
            Variable.make("win_medals", ("practice", "enroll"), AND),
        ]
    )


SPORT_LEVERS = {
    "win_medals": ("enroll", 0),
    "live_longer": ("smoke", 1),
    "be_fit": ("protein_diet", 0),
}


def sport_lab() -> GraphSpecDocument:
    """The full sport document: lab graph, tagging, levers, and a policy
    with the default rates that intends be_fit=1."""
    intentions = (("be_fit", 1),)
    return GraphSpecDocument(
        graph=sport_lab_graph(),
        tagging=Tagging.make("practice", intentions),
        policy=AgentPolicy.make(intentions),
        levers=dict(SPORT_LEVERS),
    )


def sport_lab_confounded() -> GraphSpecDocument:
    """The lab model with age as a confounding cause of practice and medals.

    Age feeds both the action (via a cause modifier that halves the act
    rate for older people) and win_medals (older athletes win less often),
    so unadjusted observational comparisons across regimes that select on
    age are biased.
    """
    doc = sport_lab()
    graph = CausalGraph.make([Variable.make("age", (), 0.5), *doc.graph.variables]).replace(
        Variable.make("practice", ("age",), {(0,): 0.8, (1,): 0.4}),
        Variable.make(
            "win_medals",
            ("practice", "enroll", "age"),
            {key: 0.0 for key in itertools.product((0, 1), repeat=3)}
            | {(1, 1, 0): 0.9, (1, 1, 1): 0.4},
        ),
    )
    policy = replace(doc.policy, cause_modifiers={("age", 1): 0.5})
    return replace(doc, graph=graph, policy=policy)
