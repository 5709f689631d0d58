"""Adjust an observational comparison for a confounding cause.

Nobody randomized who lives under an enrollment ban.  In this variant age
drives both the action (older people practice less) and regime membership
(older people mostly live where enrollment is banned), so the raw
ban-versus-natural comparison of practice rates is badly biased even
though the ban has no causal effect on practicing at all.  Stratifying on
age removes the bias.
"""

import math

from teleo import (
    Regime,
    classify_effects,
    plan,
    run_randomized,
    sample_observational,
    stratified_action_comparison,
)
from teleo.models import SPORT_LEVERS, sport_lab_confounded

doc = sport_lab_confounded()
model = doc.bind()

# Observational world: regime membership depends on age.
graphs = {
    "natural": model.bound_graph(Regime()),
    "enroll=0": model.bound_graph(Regime({"enroll": 0})),
}
selection = {
    0: {"natural": 0.8, "enroll=0": 0.2},  # young people mostly unbanned
    1: {"natural": 0.2, "enroll=0": 0.8},  # old people mostly banned
}
data = sample_observational(graphs, "age", selection, 30_000, 11)

naive = stratified_action_comparison(data, "practice")
print(f"unadjusted difference: {naive.pooled_difference:+.3f}"
      f"  (se {naive.pooled_se:.4f})  <- looks like the ban matters")

adjusted = stratified_action_comparison(data, "practice", adjustment=("age",))
print(f"age-adjusted difference: {adjusted.pooled_difference:+.4f}"
      f"  (se {adjusted.pooled_se:.4f})")
for stratum in adjusted.strata:
    key = ", ".join(f"{k}={v}" for k, v in stratum.key)
    print(f"  stratum {key}: diff {stratum.difference:+.4f}"
          f"  weight {stratum.weight:.2f}")

# The randomized version of the same question, for reference.
cls = classify_effects(doc.graph, "practice", "be_fit")
battery = plan(doc.graph, cls, SPORT_LEVERS)
ban = next(e for e in battery.experiments if e.lever[0] == "enroll")
result = run_randomized(model, ban, 15_000, 23)
diff = result.treated_acts / result.treated_n - result.control_acts / result.control_n
print(f"randomized difference:  {diff:+.4f}  -> {result.verdict}")

gap = abs(adjusted.pooled_difference - diff)
spread = math.sqrt(adjusted.pooled_se**2 + (2 * 0.49 / math.sqrt(15_000)) ** 2)
print(f"adjusted vs randomized gap: {gap:.4f} (about {gap / spread:.1f} se)")
