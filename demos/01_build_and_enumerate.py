"""Build a small causal model by hand and query it exactly.

The model is the sport example used throughout the demos: practicing a
sport makes you lose weight, losing weight (with a decent diet) makes you
fit, being fit (unless you smoke) makes you live longer, and practicing
(if you enrolled) wins you medals.
"""

from teleo import CausalGraph, Regime, Variable, joint_enumerate, mutilate, query

AND = {(0, 0): 0.0, (0, 1): 0.0, (1, 0): 0.0, (1, 1): 1.0}

graph = CausalGraph.make(
    [
        Variable.make("enroll", (), 0.7),
        Variable.make("smoke", (), 0.3),
        Variable.make("protein_diet", (), 0.9),
        Variable.make("practice", (), 0.8),
        Variable.make("lose_weight", ("practice",), {0: 0.0, 1: 1.0}),
        Variable.make("be_fit", ("lose_weight", "protein_diet"), AND),
        Variable.make(
            "live_longer",
            ("be_fit", "smoke"),
            {(0, 0): 0.0, (0, 1): 0.0, (1, 0): 1.0, (1, 1): 0.0},
        ),
        Variable.make("win_medals", ("practice", "enroll"), AND),
    ]
)

print("variables:", ", ".join(graph.names))
print("edges:", graph.n_edges)
print("effects of practice:", sorted(graph.descendants("practice")))

# The joint distribution is small enough to enumerate exactly.
table = joint_enumerate(graph)
for name in graph.names:
    print(f"P({name}=1) = {table.marginal(name):.4f}")

# Conditioning: among people who live longer, how many practice?
p = query(graph, {"practice": 1}, given={"live_longer": 1})
print(f"P(practice=1 | live_longer=1) = {p:.4f}")

# Interventions are graph surgery: clamp a variable, cut its parents.
forced = mutilate(graph, Regime({"practice": 1}))
print("P(win_medals=1 | do(practice=1)) =",
      round(joint_enumerate(forced).marginal("win_medals"), 4))

# Interference clamps an *effect* instead.  Same surgery, different role:
# downstream changes, upstream does not.
cut = mutilate(graph, Regime({"be_fit": 0}))
cut_table = joint_enumerate(cut)
print("under interference be_fit=0:")
print("  P(live_longer=1) =", round(cut_table.marginal("live_longer"), 4))
print("  P(practice=1)    =", round(cut_table.marginal("practice"), 4), "(unchanged)")
