"""End-to-end acceptance checks for the whole package.

Each test covers one numbered criterion, prints a single
``ACCEPTANCE n PASS|FAIL`` line, and then asserts.  Seeds and expected
counts are frozen; with the pinned numpy version every run reproduces
them bit for bit.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from teleo import (
    AgentPolicy,
    ArmCounts,
    Regime,
    bind_agent,
    classify_effects,
    joint_enumerate,
    mutilate,
    oracle_identify,
    plan,
    run_randomized,
    sample,
    sample_observational,
    score_arms,
    stratified_action_comparison,
    two_proportion_test,
)
from teleo.models import SPORT_LEVERS, sport_lab, sport_lab_confounded, stove_water

from .helpers import random_dag

SINGLETONS = ("lose_weight", "be_fit", "live_longer", "win_medals")


def _verdict(num: int, desc: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {status} - {desc}{suffix}")
    assert ok, f"acceptance criterion {num} failed: {desc}{suffix}"


def _pattern_count(dataset, pattern) -> int:
    mask = np.ones(dataset.n_rows, dtype=bool)
    for name, value in pattern.items():
        mask &= dataset.column(name) == value
    return int(mask.sum())


def test_criterion_1_classification_fidelity(sport_doc):
    g = sport_doc.graph
    classify_effects(g, "practice", "be_fit")  # warm caches
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        cls = classify_effects(g, "practice", "be_fit")
        best = min(best, time.perf_counter() - t0)
    exact = (
        cls.mediating == frozenset({"lose_weight"})
        and cls.further == frozenset({"live_longer"})
        and cls.parallel == frozenset({"win_medals"})
    )
    _verdict(
        1,
        "classify_effects partitions the sport graph exactly",
        exact and best < 0.001,
        f"best call {best * 1e6:.0f} us",
    )


def test_criterion_2_table_patterns(sport_doc):
    t0 = time.perf_counter()
    model = sport_doc.bind()
    labels = ["enroll=0", "protein_diet=0", "smoke=1"]
    children = np.random.SeedSequence(20260824).spawn(len(labels))
    data = {
        label: sample(
            model.bound_graph(Regime.from_label(label)), 2000, child, regime_label=label
        )
        for label, child in zip(labels, children)
    }
    kept_acting_no_medals = _pattern_count(
        data["enroll=0"],
        {"practice": 1, "lose_weight": 1, "be_fit": 1, "win_medals": 0, "enroll": 0},
    )
    kept_acting_no_longevity = _pattern_count(
        data["smoke=1"],
        {"practice": 1, "lose_weight": 1, "be_fit": 1, "live_longer": 0, "smoke": 1},
    )
    diet_rate = float(data["protein_diet=0"].column("practice").mean())
    bound = 3 * math.sqrt(0.05 * 0.95 / 2000)
    elapsed = time.perf_counter() - t0
    ok = (
        kept_acting_no_medals == 1501
        and kept_acting_no_longevity == 1442
        and abs(diet_rate - 0.05) <= bound
        and elapsed < 5.0
    )
    _verdict(
        2,
        "bound model reproduces the three interference row patterns",
        ok,
        f"counts {kept_acting_no_medals}/{kept_acting_no_longevity}, "
        f"diet rate {diet_rate:.4f}, {elapsed:.2f}s",
    )


def test_criterion_3_fundamental_problem(sport_doc):
    g, policy = sport_doc.graph, sport_doc.policy
    natural_rates = {
        bind_agent(g, "practice", policy.with_intentions({(name, 1)})).action_rate(Regime())
        for name in SINGLETONS
    }
    model = sport_doc.bind()
    natural_graph = model.bound_graph(Regime())
    tied = 0
    for s in range(100):
        ds = sample(natural_graph, 10_000, np.random.SeedSequence([1001, s]))
        arms = [ArmCounts(Regime(), ds.n_rows, int(ds.column("practice").sum()))]
        scores = score_arms(arms, g, "practice", policy)
        if all(score.verdict == "indistinguishable" for score in scores):
            tied += 1
    ok = len(natural_rates) == 1 and tied >= 95
    _verdict(
        3,
        "natural data cannot separate singleton hypotheses",
        ok,
        f"exact rates {len(natural_rates)} distinct, tied {tied}/100",
    )


def test_criterion_4_identification_power(sport_doc):
    t0 = time.perf_counter()
    counts = {}
    for t, name in enumerate(SINGLETONS):
        truth = AgentPolicy.make(((name, 1),))
        counts[name] = sum(
            oracle_identify(
                sport_doc.graph,
                "practice",
                truth,
                SPORT_LEVERS,
                2000,
                1000 * (t + 1) + i,
            ).agreement
            for i in range(100)
        )
    elapsed = time.perf_counter() - t0
    ok = all(c >= 99 for c in counts.values()) and elapsed < 60.0
    detail = ", ".join(f"{k} {v}/100" for k, v in counts.items())
    _verdict(4, "battery recovers every singleton truth", ok, f"{detail}, {elapsed:.1f}s")


def test_criterion_5_no_reverse_causation(stove_graph):
    cut = Regime({"water": 0})
    p_natural = joint_enumerate(stove_graph).marginal("stove")
    p_cut = joint_enumerate(mutilate(stove_graph, cut)).marginal("stove")
    agent = bind_agent(stove_graph, "stove", AgentPolicy.make((("water", 1),)))
    r_natural = agent.action_rate(Regime())
    r_cut = agent.action_rate(cut)
    ok = (
        p_natural == p_cut
        and r_natural == agent.policy.p_act
        and r_cut == agent.policy.p_base
    )
    _verdict(
        5,
        "interference on the effect never reaches back to an agentless cause",
        ok,
        f"agentless {p_natural}=={p_cut}, agent {r_natural}->{r_cut}",
    )


def test_criterion_6_calibration():
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(2026)))
    rejections = 0
    for _ in range(1000):
        k1 = int(rng.binomial(2000, 0.8))
        k2 = int(rng.binomial(2000, 0.8))
        _, p = two_proportion_test(k1, 2000, k2, 2000)
        if p < 0.05:
            rejections += 1
    rate = rejections / 1000
    _verdict(
        6,
        "two-proportion test holds its type-I rate",
        0.03 <= rate <= 0.07,
        f"rate {rate:.3f}",
    )


def test_criterion_7_sampler_enumerator_agreement():
    worst = 0.0
    for i in range(20):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([88, i])))
        dag = random_dag(rng)
        table = joint_enumerate(dag)
        ds = sample(dag, 50_000, np.random.SeedSequence([99, i]))
        for name in dag.names:
            p = table.marginal(name)
            se = max(math.sqrt(p * (1 - p) / 50_000), 1e-12)
            worst = max(worst, abs(float(ds.column(name).mean()) - p) / se)
    _verdict(
        7,
        "sampled marginals match enumeration on random DAGs",
        worst < 4.0,
        f"worst deviation {worst:.2f} SE",
    )


def test_criterion_8_observational_adjustment(confounded_doc):
    model = confounded_doc.bind()
    graphs = {
        "natural": model.bound_graph(Regime()),
        "enroll=0": model.bound_graph(Regime({"enroll": 0})),
    }
    selection = {
        0: {"natural": 0.8, "enroll=0": 0.2},
        1: {"natural": 0.2, "enroll=0": 0.8},
    }
    data = sample_observational(graphs, "age", selection, 50_000, 99)

    unadjusted = stratified_action_comparison(data, "practice")
    adjusted = stratified_action_comparison(data, "practice", adjustment=("age",))

    cls = classify_effects(confounded_doc.graph, "practice", "be_fit")
    battery = plan(confounded_doc.graph, cls, SPORT_LEVERS)
    experiment = next(e for e in battery.experiments if e.target == "win_medals")
    randomized = run_randomized(model, experiment, 25_000, 7)
    p_treated = randomized.treated_acts / randomized.treated_n
    p_control = randomized.control_acts / randomized.control_n
    diff_randomized = p_treated - p_control
    se_randomized = math.sqrt(
        p_treated * (1 - p_treated) / randomized.treated_n
        + p_control * (1 - p_control) / randomized.control_n
    )

    combined_se = math.sqrt(adjusted.pooled_se**2 + se_randomized**2)
    agreement = abs(adjusted.pooled_difference - diff_randomized) / combined_se
    bias = abs(unadjusted.pooled_difference) / unadjusted.pooled_se
    ok = agreement < 3.0 and bias > 2.0
    _verdict(
        8,
        "age adjustment recovers the randomized answer",
        ok,
        f"agreement {agreement:.2f} SE, unadjusted bias {bias:.1f} SE",
    )


def test_criterion_9_reproducibility(sport_spec_path, tmp_path):
    def invoke(argv, out):
        proc = subprocess.run(
            [sys.executable, "-m", "teleo.cli", *argv, "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return out.read_bytes()

    graph = str(sport_spec_path)
    data = tmp_path / "data.csv"
    invoke(["simulate", "--graph", graph, "--seed", "5", "--n", "400"], data)

    pipelines = {
        "validate": ["validate", "--graph", graph, "--format", "machine"],
        "classify": ["classify", "--graph", graph, "--format", "machine"],
        "plan": ["plan", "--graph", graph, "--format", "machine"],
        "simulate": ["simulate", "--graph", graph, "--seed", "5", "--n", "400"],
        "experiment": [
            "experiment", "--graph", graph, "--seed", "5", "--n", "400",
            "--format", "machine",
        ],
        "analyze": [
            "analyze", "--graph", graph, "--data", str(data), "--format", "machine",
        ],
        "infer": [
            "infer", "--graph", graph, "--data", str(data), "--format", "machine",
        ],
    }
    mismatched = []
    for name, argv in pipelines.items():
        first = invoke(argv, tmp_path / f"{name}.1")
        second = invoke(argv, tmp_path / f"{name}.2")
        if first != second:
            mismatched.append(name)
    _verdict(
        9,
        "every CLI pipeline is byte-identical across reruns",
        not mismatched,
        f"{len(pipelines)} pipelines" + (f", mismatched: {mismatched}" if mismatched else ""),
    )
