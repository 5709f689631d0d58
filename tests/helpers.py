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


AND = {(0, 0): 0.0, (0, 1): 0.0, (1, 0): 0.0, (1, 1): 1.0}
NOISY_AND = {(0, 0): 0.1, (0, 1): 0.2, (1, 0): 0.3, (1, 1): 0.9}


def lever_chain(depth: int) -> CausalGraph:
    """``a -> e0 -> e1 -> ...`` with ``e_i = AND(e_{i-1}, l_i)`` and root
    levers ``l_i`` (p=0.9): 2 * depth + 1 variables, P(e_i = 1) = 0.5 * 0.9^(i+1)."""
    variables = [Variable.make("a", (), 0.5)]
    prev = "a"
    for i in range(depth):
        variables.append(Variable.make(f"l{i}", (), 0.9))
        variables.append(Variable.make(f"e{i}", (prev, f"l{i}"), AND))
        prev = f"e{i}"
    return CausalGraph.make(variables)


def twin_chains(k: int) -> CausalGraph:
    """Root ``a`` starts two chains, ``c_i = NOISY_AND(c_{i-1}, r_i)`` and
    ``d_i`` alike, and each root ``r_i`` feeds both.  While one chain joins a
    sweep from ``c_{k-1}``, every root waits for its other child, so the
    frontier grows past k variables."""
    variables = [Variable.make("a", (), 0.5)]
    for i in range(k):
        variables.append(Variable.make(f"r{i}", (), 0.5))
        for chain in "cd":
            prev = f"{chain}{i - 1}" if i else "a"
            variables.append(Variable.make(f"{chain}{i}", (prev, f"r{i}"), NOISY_AND))
    return CausalGraph.make(variables)


def labeled_dataset(variables, values, labels, table=None) -> Dataset:
    """Dataset from one regime label per row, its table ``table`` if given,
    else the labels in first-seen order."""
    table = tuple(dict.fromkeys(labels) if table is None else table)
    index = {label: k for k, label in enumerate(table)}
    return Dataset(
        variables=tuple(variables),
        values=values,
        regime_codes=np.array([index[label] for label in labels], dtype=np.min_scalar_type(max(len(table) - 1, 0))),
        regime_table=table,
    )


def sorted_table(data: Dataset) -> Dataset:
    """The rows of ``data`` with the labels they carry as its table, sorted:
    the table ``Dataset.from_csv`` reads from ``data.to_csv()``."""
    labels = row_labels(data)
    return labeled_dataset(data.variables, data.values, labels, sorted(set(labels)))


def make_dataset(variables, rows, labels=None) -> Dataset:
    """Dataset from a list of row tuples (one int per variable)."""
    values = np.array(rows, dtype=np.int8).reshape(len(rows), len(variables))
    if labels is None:
        labels = ["natural"] * len(rows)
    return labeled_dataset(variables, values, labels)


def joined(parts) -> Dataset:
    """The rows of the datasets ``parts``, one part after another."""
    values = np.concatenate([part.values for part in parts])
    return labeled_dataset(parts[0].variables, values, [label for part in parts for label in row_labels(part)])


def cell_summary(outcome):
    """A dataset by what a dataset of cells alone keeps: its variables,
    table, row count and cells (codes, rows and counts, each with its type
    and in order).  Anything else, such as an error's type and text, stays
    as it is."""
    if not isinstance(outcome, Dataset):
        return outcome
    arrays = [(a.dtype.str, a.shape, a.tolist()) for a in vars(outcome.cells).values()]
    return outcome.variables, outcome.regime_table, outcome.n_rows, arrays


def rows_of(data: Dataset):
    """A dataset of rows by what it holds: its variables, and each row's
    values and label, in row order."""
    return data.variables, data.values.tolist(), row_labels(data)


def row_labels(data: Dataset) -> tuple[str, ...]:
    """The regime label of every row, in row order."""
    return tuple(data.regime_table[code] for code in data.regime_codes.tolist())


def row_count(data: Dataset, label: str, event) -> int:
    """Rows labeled ``label`` that match every entry of ``event``, counted
    row by row: the reference for every count read from a dataset's cells."""
    count = 0
    for values, row_label in zip(data.values.tolist(), row_labels(data)):
        row = dict(zip(data.variables, values))
        count += row_label == label and all(row[k] == v for k, v in event.items())
    return count
