"""An agent whose action listens to its intended effects.

The model alone treats "practice" as a coin flip.  Binding an agent policy
replaces that coin with a choice: the agent practices at p_act while every
intended effect is still attainable (servable), and falls back to p_base
the moment one of them is not.  Clamping effects then moves the action
rate, which is the signature teleological inference looks for.
"""

from teleo import AgentPolicy, Regime, bind_agent, query, sample, servable
from teleo.models import sport_lab_confounded, sport_lab_graph

graph = sport_lab_graph()
policy = AgentPolicy.make(intentions=(("be_fit", 1),), p_act=0.8, p_base=0.05, theta=0.1)
model = bind_agent(graph, "practice", policy)

# Servability asks: does practicing still raise P(be_fit=1) by at least
# theta under this regime?
for regime in (
    Regime(),
    Regime({"enroll": 0}),
    Regime({"protein_diet": 0}),
):
    s = servable(graph, "practice", policy.intention_set, policy.theta, regime)
    rate = model.action_rate(regime)
    print(f"{regime.label():>16}: servable={s.servable}  practice rate={rate:.2f}")

# A diet ban severs practice -> be_fit, so a fitness-minded agent stops
# bothering; an enrollment ban changes nothing the agent cares about.

# Sampling the bound model gives data with the same signature.
data = sample(model.bound_graph(Regime({"protein_diet": 0})), 5000, 7)
print("sampled practice rate under protein_diet=0:",
      round(float(data.column("practice").mean()), 3))

# Cause modifiers scale p_act (never p_base) by observed causes of the
# action.  The confounded variant wires age -> practice and halves the act
# rate for older agents.
conf_model = sport_lab_confounded().bind()
bound = conf_model.bound_graph(Regime())
for age in (0, 1):
    p = query(bound, {"practice": 1}, given={"age": age})
    print(f"P(practice=1 | age={age}) = {p:.2f}")
