"""Structural-causal-model semantics for causal graphs.

Three capabilities live here:

* graph surgery (:func:`mutilate`) shared by do-interventions and
  interference clamps: a clamped variable loses its parents and its CPT
  becomes the forced constant;
* exact joint enumeration (:func:`joint_enumerate`, :func:`query`), the
  oracle of record for every probability in the package;
* seeded ancestral sampling (:func:`sample`), the Monte Carlo counterpart
  used by simulated experiments.  Identical (graph, n, seed) gives a
  bit-identical dataset; the generator algorithm ("pcg64") is recorded in
  dataset provenance.
"""

from __future__ import annotations

import csv
import enum
import io
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

from .errors import (
    DataError,
    EnumerationLimitError,
    RegimeError,
    SpecError,
    UnknownVariableError,
    ZeroProbabilityError,
)
from .graph import CausalGraph, Variable

ENUMERATION_CAP = 20
RNG_ALGORITHM = "pcg64"

NATURAL_LABEL = "natural"


class RegimeKind(str, enum.Enum):
    """Why a variable is clamped: conditioning-style (natural), a
    do-intervention on the action, or interference on the effect side."""

    NATURAL = "natural"
    DO = "do"
    INTERFERENCE = "interference"


@dataclass(frozen=True)
class Regime:
    """A set of clamped variables defining an experimental condition.

    ``kinds`` is bookkeeping only: all kinds receive identical graph-surgery
    semantics, and the distinction matters to the agent and reporting layers,
    not to the mechanics.
    """

    clamps: Mapping[str, int] = field(default_factory=dict)
    kinds: Mapping[str, RegimeKind] = field(default_factory=dict)

    @staticmethod
    def natural() -> "Regime":
        return Regime({}, {})

    @staticmethod
    def do(variable: str, value: int) -> "Regime":
        return Regime({variable: value}, {variable: RegimeKind.DO})

    @staticmethod
    def interference(clamps: Mapping[str, int]) -> "Regime":
        return Regime(dict(clamps), {v: RegimeKind.INTERFERENCE for v in clamps})

    @staticmethod
    def conditioning(clamps: Mapping[str, int]) -> "Regime":
        return Regime(dict(clamps), {v: RegimeKind.NATURAL for v in clamps})

    def kind_of(self, variable: str) -> RegimeKind:
        return self.kinds.get(variable, RegimeKind.INTERFERENCE)

    def merge(self, other: "Regime") -> "Regime":
        overlap = set(self.clamps) & set(other.clamps)
        if overlap:
            raise RegimeError(f"variables clamped twice: {sorted(overlap)}")
        clamps = {**self.clamps, **other.clamps}
        kinds = {**self.kinds, **other.kinds}
        return Regime(clamps, kinds)

    def signature(self) -> tuple:
        """Hashable canonical form of the clamps, used as a cache key.
        Kinds have no mechanical effect, so they are left out."""
        return tuple(sorted(self.clamps.items()))

    def label(self) -> str:
        """Stable text label: "natural" or ";"-joined "var=value" pairs."""
        if not self.clamps:
            return NATURAL_LABEL
        return ";".join(f"{v}={self.clamps[v]}" for v in sorted(self.clamps))

    @staticmethod
    def from_label(label: str, kind: RegimeKind = RegimeKind.INTERFERENCE) -> "Regime":
        """Parse a label produced by :meth:`label`.  Kind information is not
        carried by labels, so every clamp gets ``kind``."""
        if label == NATURAL_LABEL:
            return Regime.natural()
        clamps = {}
        for part in label.split(";"):
            name, _, value = part.partition("=")
            if not name or value not in ("0", "1"):
                raise SpecError(f"malformed regime label {label!r}")
            clamps[name] = int(value)
        return Regime(clamps, {v: kind for v in clamps})

    def __bool__(self) -> bool:
        return bool(self.clamps)


def mutilate(graph: CausalGraph, regime: Regime | None) -> CausalGraph:
    """Clamp the regime's variables: each becomes parentless with a constant
    CPT, everything else is untouched.  do() and interference differ only in
    the regime's bookkeeping, not here."""
    if regime is None or not regime.clamps:
        return graph
    replacements = []
    for name, value in regime.clamps.items():
        graph.variable(name)
        if value not in (0, 1):
            raise RegimeError(f"clamp value for {name!r} must be 0 or 1, got {value!r}")
        replacements.append(Variable.constant(name, value))
    return graph.replace(*replacements)


@dataclass(frozen=True)
class JointTable:
    """The full joint distribution of a graph as a dense probability vector.

    Entry ``i`` is the probability of the assignment whose bits spell ``i``
    in binary over the declared variable order (first variable = most
    significant bit).  Zero-probability assignments are stored explicitly,
    so queries never have to special-case elided entries.
    """

    names: tuple[str, ...]
    probs: np.ndarray

    @cached_property
    def _indices(self) -> np.ndarray:
        return np.arange(self.probs.shape[0], dtype=np.int64)

    def _bit(self, name: str) -> int:
        try:
            k = self.names.index(name)
        except ValueError:
            raise UnknownVariableError(f"unknown variable {name!r}") from None
        return len(self.names) - 1 - k

    def prob_of(self, event: Mapping[str, int]) -> float:
        """P(event) for a partial assignment; the empty event has mass 1."""
        mask = 0
        target = 0
        for name, value in event.items():
            bit = self._bit(name)
            mask |= 1 << bit
            target |= (value & 1) << bit
        sel = (self._indices & mask) == target
        return float(self.probs[sel].sum())

    def marginal(self, name: str) -> float:
        """P(name = 1)."""
        return self.prob_of({name: 1})

    def entry(self, assignment: Mapping[str, int]) -> float:
        """Probability of one full assignment."""
        missing = set(self.names) - set(assignment)
        if missing:
            raise UnknownVariableError(f"assignment missing variables {sorted(missing)}")
        return self.prob_of({n: assignment[n] for n in self.names})

    def nonzero_entries(self) -> list[tuple[dict[str, int], float]]:
        out = []
        n = len(self.names)
        for i in np.flatnonzero(self.probs):
            values = {name: (int(i) >> (n - 1 - k)) & 1 for k, name in enumerate(self.names)}
            out.append((values, float(self.probs[i])))
        return out


def joint_enumerate(graph: CausalGraph, max_vars: int = ENUMERATION_CAP) -> JointTable:
    """Exact joint distribution by enumerating all 2^n assignments.

    The entry probability is the product of each variable's CPT row at its
    parents' values.  Raises :class:`EnumerationLimitError` beyond the cap.
    """
    graph.require_valid()
    n = len(graph.variables)
    if n > max_vars:
        raise EnumerationLimitError(f"{n} variables exceeds enumeration cap {max_vars}")
    size = 1 << n
    idx = np.arange(size, dtype=np.int64)
    probs = np.ones(size)
    for k, var in enumerate(graph.variables):
        vals = (idx >> (n - 1 - k)) & 1
        if var.parents:
            pidx = np.zeros(size, dtype=np.int64)
            for pname in var.parents:
                pbit = (idx >> (n - 1 - graph.index(pname))) & 1
                pidx = (pidx << 1) | pbit
            p_one = var.cpt_array[pidx]
        else:
            p_one = var.cpt_array[0]
        probs = probs * np.where(vals == 1, p_one, 1.0 - p_one)
    table = JointTable(names=graph.names, probs=probs)
    assert abs(float(probs.sum()) - 1.0) <= 1e-12
    return table


def query(
    graph: CausalGraph,
    event: Mapping[str, int],
    given: Mapping[str, int] | None = None,
    max_vars: int = ENUMERATION_CAP,
) -> float:
    """P(event | given), computed exactly from the joint table.

    Conditioning on a zero-probability event raises
    :class:`ZeroProbabilityError` rather than returning NaN: a zero-mass
    condition almost always means the model is misspecified.
    """
    given = dict(given or {})
    table = joint_enumerate(graph, max_vars=max_vars)
    denom = table.prob_of(given) if given else 1.0
    if denom <= 0.0:
        raise ZeroProbabilityError(f"conditioning event has probability 0: {given}")
    for name, value in event.items():
        if name in given and given[name] != value:
            return 0.0
    return table.prob_of({**given, **event}) / denom


@dataclass(frozen=True, eq=False)
class Dataset:
    """Rows of binary samples plus a per-row regime label.

    ``values`` is an (n_rows, n_variables) int8 array in declared variable
    order.  ``provenance`` records how each block of rows was produced (seed,
    generator algorithm, regime); it is carried for reporting and excluded
    from equality.
    """

    variables: tuple[str, ...]
    values: np.ndarray
    regime_labels: tuple[str, ...]
    provenance: tuple[Mapping, ...] = ()

    def __post_init__(self):
        if self.values.shape != (len(self.regime_labels), len(self.variables)):
            raise ValueError(
                f"shape {self.values.shape} inconsistent with "
                f"{len(self.regime_labels)} rows x {len(self.variables)} variables"
            )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.variables == other.variables
            and self.regime_labels == other.regime_labels
            and np.array_equal(self.values, other.values)
        )

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    def column(self, name: str) -> np.ndarray:
        try:
            k = self.variables.index(name)
        except ValueError:
            raise UnknownVariableError(f"unknown column {name!r}") from None
        return self.values[:, k]

    @cached_property
    def _labels_array(self) -> np.ndarray:
        return np.asarray(self.regime_labels, dtype=object)

    def regimes_present(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(self.regime_labels))

    def regime_mask(self, label: str) -> np.ndarray:
        """Boolean mask of the rows labeled ``label``."""
        return self._labels_array == label

    def filter_regimes(self, labels: Iterable[str]) -> "Dataset":
        wanted = set(labels)
        mask = np.array([lab in wanted for lab in self.regime_labels], dtype=bool)
        return Dataset(
            variables=self.variables,
            values=self.values[mask],
            regime_labels=tuple(lab for lab in self.regime_labels if lab in wanted),
            provenance=self.provenance,
        )

    def take(self, order: np.ndarray) -> "Dataset":
        return Dataset(
            variables=self.variables,
            values=self.values[order],
            regime_labels=tuple(self.regime_labels[int(i)] for i in order),
            provenance=self.provenance,
        )

    @staticmethod
    def concat(parts: Iterable["Dataset"]) -> "Dataset":
        parts = list(parts)
        if not parts:
            raise ValueError("nothing to concatenate")
        variables = parts[0].variables
        for d in parts[1:]:
            if d.variables != variables:
                raise ValueError("datasets have different columns")
        return Dataset(
            variables=variables,
            values=np.concatenate([d.values for d in parts], axis=0),
            regime_labels=tuple(lab for d in parts for lab in d.regime_labels),
            provenance=tuple(p for d in parts for p in d.provenance),
        )

    # --- CSV round trip --------------------------------------------------

    def to_csv(self) -> str:
        """Header of variable names plus a trailing "regime" column; values
        are strictly "0"/"1"."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(list(self.variables) + ["regime"])
        for row, label in zip(self.values, self.regime_labels):
            writer.writerow([str(int(v)) for v in row] + [label])
        return buf.getvalue()

    @staticmethod
    def from_csv(text: str) -> "Dataset":
        reader = csv.reader(io.StringIO(text))
        try:
            header = next(reader)
        except StopIteration:
            raise SpecError("empty CSV document") from None
        if not header or header[-1] != "regime":
            raise SpecError('CSV header must end with a "regime" column')
        variables = tuple(header[:-1])
        rows = []
        labels = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise SpecError(f"wrong number of fields", line=lineno)
            for cell in row[:-1]:
                if cell not in ("0", "1"):
                    raise SpecError(f"value {cell!r} is not 0 or 1", line=lineno)
            rows.append([int(c) for c in row[:-1]])
            labels.append(row[-1])
        values = np.array(rows, dtype=np.int8) if rows else np.zeros((0, len(variables)), dtype=np.int8)
        return Dataset(variables=variables, values=values, regime_labels=tuple(labels))


def require_possible(dataset: Dataset, graph: CausalGraph, exempt: Iterable[str] = ()) -> None:
    """Reject a dataset the graph cannot have produced.

    The header must name exactly the graph's variables, and no row may have
    probability 0 under its regime's mutilated graph: a clamped variable
    off its clamp, or a value that contradicts a 0/1 CPT row.  Variables in
    ``exempt`` are not checked (an action whose CPT a policy replaces).
    """
    if set(dataset.variables) != set(graph.names):
        raise DataError(
            f"data columns {sorted(dataset.variables)} do not match "
            f"the graph's variables {sorted(graph.names)}"
        )
    exempt = set(exempt)
    column = {name: k for k, name in enumerate(dataset.variables)}
    rejected = 0
    for label in dataset.regimes_present():
        rows = dataset.values[dataset.regime_mask(label)]
        impossible = np.zeros(len(rows), dtype=bool)
        for var in mutilate(graph, Regime.from_label(label)).variables:
            deterministic = (var.cpt_array == 0.0) | (var.cpt_array == 1.0)
            if var.name in exempt or not deterministic.any():
                continue
            pidx = np.zeros(len(rows), dtype=np.int64)
            for parent in var.parents:
                pidx = (pidx << 1) | rows[:, column[parent]]
            p_one = var.cpt_array[pidx]
            impossible |= np.where(rows[:, column[var.name]] == 1, p_one == 0.0, p_one == 1.0)
        rejected += int(impossible.sum())
    if rejected:
        raise DataError(
            f"{rejected} of {dataset.n_rows} rows have probability 0 under their regime"
        )


def _rng(seed_seq: np.random.SeedSequence) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed_seq))


def _sample_columns(
    graph: CausalGraph,
    n: int,
    rng: np.random.Generator,
    preset: Mapping[str, np.ndarray] | None = None,
) -> np.ndarray:
    """Ancestral sampling, one vectorized draw block per variable in
    topological order.  Preset columns are copied through and consume no
    draws, which keeps the stream alignment independent of preset values."""
    columns: dict[str, np.ndarray] = {}
    for name in graph.topological_order:
        var = graph.variable(name)
        if preset is not None and name in preset:
            columns[name] = np.asarray(preset[name], dtype=np.int8)
            continue
        if var.parents:
            pidx = np.zeros(n, dtype=np.int64)
            for pname in var.parents:
                pidx = (pidx << 1) | columns[pname]
            p_one = var.cpt_array[pidx]
        else:
            p_one = var.cpt_array[0]
        columns[name] = (rng.random(n) < p_one).astype(np.int8)
    return np.column_stack([columns[name] for name in graph.names]) if graph.names else np.zeros((n, 0), dtype=np.int8)


def sample(
    graph: CausalGraph,
    n: int,
    seed: int | np.random.SeedSequence,
    regime_label: str = NATURAL_LABEL,
) -> Dataset:
    """Draw ``n`` ancestral samples.  Bit-identical for identical
    (graph, n, seed); empirical frequencies converge to the enumeration."""
    if n < 0:
        raise ValueError("n must be >= 0")
    graph.require_valid()
    seed_seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    values = _sample_columns(graph, n, _rng(seed_seq), preset=None)
    return Dataset(
        variables=graph.names,
        values=values,
        regime_labels=(regime_label,) * n,
        provenance=(
            {
                "regime": regime_label,
                "seed": _seed_repr(seed_seq),
                "rng": RNG_ALGORITHM,
                "n": n,
            },
        ),
    )


def _seed_repr(seed_seq: np.random.SeedSequence):
    entropy = seed_seq.entropy
    if seed_seq.spawn_key:
        return [entropy, list(seed_seq.spawn_key)]
    return entropy


def sample_observational(
    graphs_by_label: Mapping[str, CausalGraph],
    selector: str,
    selection_probs: Mapping[int, Mapping[str, float]],
    n: int,
    seed: int,
) -> Dataset:
    """Sample a mixed-regime dataset whose regime membership depends on a
    root covariate, the way self-selected observational cohorts do.

    Per row: draw ``selector`` from its root CPT, pick a regime label from
    ``selection_probs[selector value]``, then sample the remaining variables
    from that label's graph with the selector held at its drawn value.  The
    selector must be parentless and unclamped in every supplied graph so
    that presetting it is the same as conditioning on it.
    """
    labels = sorted(graphs_by_label)
    if not labels:
        raise ValueError("no regimes supplied")
    first = graphs_by_label[labels[0]]
    for label in labels:
        g = graphs_by_label[label]
        if g.names != first.names:
            raise ValueError("all regime graphs must share the same variables")
        if g.variable(selector).parents:
            raise RegimeError(f"selector {selector!r} must be a root variable")
    for value in (0, 1):
        probs = selection_probs[value]
        if set(probs) != set(labels):
            raise ValueError("selection probabilities must cover exactly the supplied regimes")
        total = sum(probs.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"selection probabilities for {selector}={value} sum to {total}")

    master = np.random.SeedSequence(seed)
    assign_seq, *label_seqs = master.spawn(1 + len(labels))
    rng = _rng(assign_seq)

    p_sel = first.variable(selector).cpt_array[0]
    sel_col = (rng.random(n) < p_sel).astype(np.int8)
    u = rng.random(n)
    chosen = np.empty(n, dtype=np.int64)
    for value in (0, 1):
        mask = sel_col == value
        edges = np.cumsum([selection_probs[value][lab] for lab in labels])
        chosen[mask] = np.searchsorted(edges, u[mask], side="right").clip(max=len(labels) - 1)

    values = np.zeros((n, len(first.names)), dtype=np.int8)
    row_labels = np.empty(n, dtype=object)
    for k, label in enumerate(labels):
        mask = chosen == k
        m = int(mask.sum())
        row_labels[mask] = label
        if m == 0:
            continue
        block = _sample_columns(
            graphs_by_label[label], m, _rng(label_seqs[k]), preset={selector: sel_col[mask]}
        )
        values[mask] = block
    return Dataset(
        variables=first.names,
        values=values,
        regime_labels=tuple(row_labels),
        provenance=(
            {
                "regimes": labels,
                "selector": selector,
                "seed": seed,
                "rng": RNG_ALGORITHM,
                "n": n,
            },
        ),
    )
