"""Run the interference battery as randomized two-group trials.

Each experiment samples a control arm (natural regime) and a treated arm
(one effect clamped), then asks a two-proportion z-test whether the action
rate moved.  An agent intending fitness keeps practicing when medals or
longevity are taken away, and stops when fitness itself becomes
unattainable; the battery turns that sentence into three verdicts.
"""

from teleo import classify_effects, plan, run_battery
from teleo.models import SPORT_LEVERS, sport_lab

doc = sport_lab()  # truth: the agent intends be_fit=1
model = doc.bind()

cls = classify_effects(doc.graph, "practice", "be_fit")
battery = plan(doc.graph, cls, SPORT_LEVERS)
results = run_battery(model, battery, n_per_arm=2000, seed=20_26)

for r in results:
    e = r.experiment
    print(f"clamp {e.lever[0]}={e.lever[1]}  (neutralizes {e.target}, {e.rationale})")
    print(
        f"  control {r.control_acts}/{r.control_n}"
        f"  treated {r.treated_acts}/{r.treated_n}"
        f"  z={r.z_statistic:+.2f}  p={r.p_value:.2e}  -> {r.verdict}"
    )
    mode = "saw" if e.pattern_mode == "must-observe" else "tolerated"
    print(
        f"  pattern check ({e.pattern_mode}): {mode} {r.pattern_count} rows,"
        f" passed={r.pattern_passed}"
    )

# Reading: "no-change" on the win_medals and live_longer clamps plus
# "change" on the be_fit clamp refutes medals and longevity as intentions
# and leaves fitness standing.  The must-not-observe check allows for the
# base rate: a few practicing rows survive the diet ban without reviving
# the hypothesis.
