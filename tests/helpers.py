"""Shared test utilities: random graph generation and tiny dataset builders."""

from __future__ import annotations

import numpy as np

from teleo import CausalGraph, Dataset, Variable


def random_dag(rng: np.random.Generator, max_nodes: int = 8, max_parents: int = 3) -> CausalGraph:
    """A random valid DAG whose CPT probabilities stay inside [0.05, 0.95],
    so every marginal is bounded away from 0 and 1."""
    n = int(rng.integers(2, max_nodes + 1))
    names = [f"v{i}" for i in range(n)]
    variables = []
    for i, name in enumerate(names):
        k = int(rng.integers(0, min(i, max_parents) + 1))
        if k:
            picked = sorted(int(j) for j in rng.choice(i, size=k, replace=False))
            parent_names = tuple(names[j] for j in picked)
        else:
            parent_names = ()
        cpt = {}
        for row in range(2**k):
            key = tuple((row >> (k - 1 - b)) & 1 for b in range(k))
            cpt[key] = float(rng.uniform(0.05, 0.95))
        variables.append(Variable.make(name, parent_names, cpt))
    return CausalGraph.make(variables)


def dag_from_seed(seed, **kw) -> CausalGraph:
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    return random_dag(rng, **kw)


def make_dataset(variables, rows, labels=None) -> Dataset:
    """Dataset from a list of row tuples (one int per variable)."""
    values = np.array(rows, dtype=np.int8).reshape(len(rows), len(variables))
    if labels is None:
        labels = ["natural"] * len(rows)
    return Dataset.from_labels(variables, values, labels)
