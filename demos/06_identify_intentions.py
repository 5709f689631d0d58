"""Close the loop: from experiment counts to an identified intention.

Every candidate intention set predicts an exact action rate per regime,
so the battery's per-arm counts give each candidate a binomial
log-likelihood.  Candidates far below the best are refuted; if exactly one
survives, the intention is identified.
"""

from teleo import (
    arms_from_results,
    classify_effects,
    enumerate_hypotheses,
    identify,
    oracle_identify,
    plan,
    run_battery,
    score_arms,
    sensitivity,
)
from teleo.models import SPORT_LEVERS, sport_lab

doc = sport_lab()  # truth: be_fit=1
model = doc.bind()
g = doc.graph

cls = classify_effects(g, "practice", "be_fit")
battery = plan(g, cls, SPORT_LEVERS)
arms = arms_from_results(run_battery(model, battery, 2000, 99))

hypotheses = enumerate_hypotheses(g, "practice")
scores = score_arms(arms, g, "practice", doc.policy, hypotheses=hypotheses)
for s in sorted(scores, key=lambda s: -s.log_likelihood):
    print(f"{s.label:<18} logL {s.log_likelihood:10.1f}  {s.verdict}")

ident = identify(scores)
print("identification:", ident.verdict, "->", ident.top and sorted(ident.top))

# Scoring assumes the agent's behavioral parameters are known.  A quick
# sensitivity sweep shows the verdict is stable as long as p_act is in the
# right neighborhood, and collapses to indeterminate when it is badly off.
for params, sweep in sensitivity(
    arms, g, "practice", doc.policy, p_act_grid=(0.8, 0.6, 0.3), p_base_grid=(0.05,)
):
    print(f"p_act={params['p_act']:.2f}: {sweep.verdict}")

# The oracle harness does all of the above against a known ground truth.
outcome = oracle_identify(
    g, "practice", doc.policy, SPORT_LEVERS, n_per_arm=2000, seed=5
)
print("oracle agreement:", outcome.agreement)
