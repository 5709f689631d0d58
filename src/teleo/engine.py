"""Structural-causal-model semantics for causal graphs.

Four capabilities live here:

* graph surgery (:func:`mutilate`) shared by do-interventions and
  interference clamps: a clamped variable loses its parents and its CPT
  becomes the forced constant;
* exact joint enumeration (:func:`joint_enumerate`, :func:`query`), the
  oracle of record for every probability in the package;
* exact marginals (:func:`marginals`) from one variable-elimination sweep
  over the ancestors of the variables asked for; the same sweep applies
  clamps itself and yields both do-margins of servability in one pass;
* seeded ancestral sampling (:func:`sample`), the Monte Carlo counterpart
  used by simulated experiments.  Identical (graph, n, seed) gives a
  bit-identical dataset; the generator algorithm ("pcg64") is recorded in
  dataset provenance.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field, replace
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

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


@dataclass(frozen=True)
class Regime:
    """A set of clamped variables defining an experimental condition.

    A do-intervention on the action and interference on the effect side
    are the same graph surgery, so a regime is its clamps and nothing else.
    ``Regime()`` is the natural regime.  A regime is an immutable value: its
    clamps are a read-only mapping sorted by name, so regimes with the same
    clamps compare and hash equal and serve as their own cache keys.
    """

    clamps: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self):
        clamps = {}
        for name, value in sorted(self.clamps.items()):
            if value not in (0, 1):
                raise RegimeError(f"clamp value for {name!r} must be 0 or 1, got {value!r}")
            clamps[name] = int(value)  # True and 1.0 equal 1, so they label as 1 too
        object.__setattr__(self, "clamps", MappingProxyType(clamps))
        object.__setattr__(self, "_hash", hash(tuple(clamps.items())))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # A mapping proxy cannot be pickled or deep-copied; its dict can.
        return Regime, (dict(self.clamps),)

    def label(self) -> str:
        """Stable text label: "natural" or ";"-joined "var=value" pairs."""
        if not self.clamps:
            return NATURAL_LABEL
        return ";".join(f"{name}={value}" for name, value in self.clamps.items())

    @staticmethod
    def from_label(label: str) -> "Regime":
        """Parse a label produced by :meth:`label`."""
        if label == NATURAL_LABEL:
            return Regime()
        clamps = {}
        for part in label.split(";"):
            name, _, value = part.partition("=")
            if not name or value not in ("0", "1"):
                raise SpecError(f"malformed regime label {label!r}")
            if name in clamps:
                raise SpecError(f"regime label {label!r} clamps {name!r} twice")
            clamps[name] = int(value)
        return Regime(clamps)


def mutilate(graph: CausalGraph, regime: Regime = Regime()) -> CausalGraph:
    """Clamp the regime's variables: each becomes parentless with a constant
    CPT, everything else is untouched."""
    if not regime.clamps:
        return graph
    return graph.replace(*(Variable.constant(name, value) for name, value in regime.clamps.items()))


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
            if value not in (0, 1):
                raise ValueError(f"value of {name!r} must be 0 or 1, got {value!r}")
            bit = self._bit(name)
            mask |= 1 << bit
            target |= int(value) << bit
        sel = (self._indices & mask) == target
        return float(self.probs[sel].sum())

    def marginal(self, name: str) -> float:
        """P(name = 1)."""
        return self.prob_of({name: 1})


def joint_enumerate(graph: CausalGraph) -> JointTable:
    """Exact joint distribution by enumerating all 2^n assignments.

    The entry probability is the product of each variable's CPT row at its
    parents' values.  Raises :class:`EnumerationLimitError` beyond the cap.
    """
    graph.require_valid()
    n = len(graph.variables)
    if n > ENUMERATION_CAP:
        raise EnumerationLimitError(f"{n} variables exceeds enumeration cap {ENUMERATION_CAP}")
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
) -> float:
    """P(event | given), computed exactly from the joint table.

    Conditioning on a zero-probability event raises
    :class:`ZeroProbabilityError` rather than returning NaN: a zero-mass
    condition almost always means the model is misspecified.
    """
    given = dict(given or {})
    table = joint_enumerate(graph)
    denom = table.prob_of(given) if given else 1.0
    if denom <= 0.0:
        raise ZeroProbabilityError(f"conditioning event has probability 0: {given}")
    joint = table.prob_of({**given, **event})
    for name, value in event.items():
        if name in given and given[name] != value:
            return 0.0
    return joint / denom


def marginals(graph: CausalGraph, names: Iterable[str]) -> dict[str, float]:
    """P(name = 1) for each of ``names``, exactly, in one sweep over the
    union of their ancestral sets.  Every other variable is barren and is
    never touched (Shachter 1998); the sweep is variable elimination
    (Koller & Friedman 2009, ch. 9).

    Variables join in a depth-first order over parents, so each joins after
    its parents.  The running factor spans the frontier: the joined
    variables that still have a child left to join.  The marginal of each
    of ``names`` is read off when it joins, and a variable is summed out
    once its last child has joined.  Raises :class:`EnumerationLimitError` before it
    builds a factor over more than ``ENUMERATION_CAP`` variables.
    """
    names = list(names)
    return dict(zip(names, _sweep(graph, names, {})))


_EYE = np.eye(2)


def _sweep(
    graph: CausalGraph, names: Sequence[str], clamps: Mapping[str, int], action: str | None = None
) -> list:
    """The sweep of :func:`marginals` under ``clamps``, straight from
    ``graph``: a clamped variable joins with no parents and the factor
    ``[1 - c, c]``.  With ``action``, a leading batch axis b that the cap
    does not count joins the action as ``eye(2)``, so each result holds
    [P(name = 1 | do(action = b)) for b = 0, 1]; without it, P(name = 1)."""
    for name in clamps:
        graph.variable(name)
    graph.require_valid()
    wanted = set(names)
    fixed = {action: _EYE, **{name: _EYE[value] for name, value in clamps.items()}}

    def parents(node: str) -> tuple[str, ...]:
        return () if node in fixed else graph.parents(node)

    order: list[str] = []
    placed: set[str] = set()
    for name in names:
        stack = [name]
        while stack:
            pending = [p for p in parents(stack[-1]) if p not in placed]
            if pending:
                stack.extend(reversed(pending))
                continue
            node = stack.pop()
            if node not in placed:
                placed.add(node)
                order.append(node)
    children_left = dict.fromkeys(order, 0)
    for node in order:
        for p in parents(node):
            children_left[p] += 1

    batch = [] if action is None else [0]
    frontier: list[str] = []
    factor = np.ones((2,) * len(batch))
    out = {}
    for node in order:
        for p in parents(node):
            children_left[p] -= 1
        joined = [a for a in frontier if children_left[a]] + [node]
        if len(joined) > ENUMERATION_CAP:
            raise EnumerationLimitError(
                f"frontier of {len(joined)} variables exceeds enumeration cap {ENUMERATION_CAP}"
            )
        axis = {a: k for k, a in enumerate(frontier + [node], len(batch))}
        factor = np.einsum(
            factor,
            batch + [axis[a] for a in frontier],
            fixed[node] if node in fixed else graph.variable(node).factor,
            (batch if node == action else []) + [axis[p] for p in parents(node)] + [axis[node]],
            batch + [axis[a] for a in joined],
        )
        if node in wanted:
            out[node] = factor[..., 1].reshape(factor.shape[: len(batch)] + (-1,)).sum(axis=-1)
        frontier = joined
        if not children_left[node]:
            factor = factor.sum(axis=-1)
            frontier.pop()
    return [out[name].tolist() for name in names]


def _code_dtype(n_labels: int) -> np.dtype:
    """The smallest unsigned integer type that can hold ``n_labels`` codes."""
    return np.min_scalar_type(max(n_labels - 1, 0))


def _first_seen(codes: np.ndarray) -> np.ndarray:
    """The distinct codes, in the order of the first row that carries each."""
    present, first = np.unique(codes, return_index=True)
    return present[np.argsort(first)]


@dataclass(frozen=True, eq=False)
class Dataset:
    """Rows of binary samples plus a per-row regime label.

    ``values`` is an (n_rows, n_variables) int8 array in declared variable
    order.  Row ``i`` is labeled ``regime_table[regime_codes[i]]``: the table
    holds distinct labels (in first-seen order when built from per-row
    labels or CSV), the codes are an unsigned integer array.  ``provenance``
    records how each block of rows was produced (seed, generator algorithm,
    regime); it is carried for reporting and excluded from equality.
    """

    variables: tuple[str, ...]
    values: np.ndarray
    regime_codes: np.ndarray
    regime_table: tuple[str, ...]
    provenance: tuple[Mapping, ...] = ()

    def __post_init__(self):
        if self.regime_codes.ndim != 1 or self.values.shape != (
            len(self.regime_codes),
            len(self.variables),
        ):
            raise ValueError(
                f"shape {self.values.shape} inconsistent with "
                f"{self.regime_codes.shape} codes x {len(self.variables)} variables"
            )
        if len(set(self.regime_table)) != len(self.regime_table):
            raise ValueError("regime table labels must be distinct")
        if len(self.regime_codes) and not (
            0 <= self.regime_codes.min() and self.regime_codes.max() < len(self.regime_table)
        ):
            raise ValueError(f"regime codes outside a table of {len(self.regime_table)} labels")

    @classmethod
    def from_labels(
        cls,
        variables: Iterable[str],
        values: np.ndarray,
        labels: Iterable[str],
        provenance: tuple[Mapping, ...] = (),
    ) -> "Dataset":
        """Dataset from one regime label per row."""
        index: dict[str, int] = {}
        codes = [index.setdefault(label, len(index)) for label in labels]
        return cls(
            variables=tuple(variables),
            values=values,
            regime_codes=np.array(codes, dtype=_code_dtype(len(index))),
            regime_table=tuple(index),
            provenance=provenance,
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        position = {label: k for k, label in enumerate(self.regime_table)}
        translate = np.array([position.get(label, -1) for label in other.regime_table], dtype=np.int64)
        return (
            self.variables == other.variables
            and np.array_equal(self.values, other.values)
            and np.array_equal(self.regime_codes, translate[other.regime_codes])
        )

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def regime_labels(self) -> tuple[str, ...]:
        """The label of every row."""
        return tuple(np.array(self.regime_table, dtype=object)[self.regime_codes])

    def column(self, name: str) -> np.ndarray:
        try:
            k = self.variables.index(name)
        except ValueError:
            raise UnknownVariableError(f"unknown column {name!r}") from None
        return self.values[:, k]

    def regimes_present(self) -> tuple[str, ...]:
        """The labels that occur, in first-seen row order."""
        return tuple(self.regime_table[k] for k in _first_seen(self.regime_codes))

    def regime_mask(self, label: str) -> np.ndarray:
        """Boolean mask of the rows labeled ``label``."""
        if label not in self.regime_table:
            return np.zeros(self.n_rows, dtype=bool)
        return self.regime_codes == self.regime_table.index(label)

    def filter_regimes(self, labels: Iterable[str]) -> "Dataset":
        wanted = set(labels)
        keep = np.array([label in wanted for label in self.regime_table], dtype=bool)
        mask = keep[self.regime_codes]
        return replace(self, values=self.values[mask], regime_codes=self.regime_codes[mask])

    @staticmethod
    def concat(parts: Iterable["Dataset"]) -> "Dataset":
        parts = list(parts)
        if not parts:
            raise ValueError("nothing to concatenate")
        variables = parts[0].variables
        for d in parts[1:]:
            if d.variables != variables:
                raise ValueError("datasets have different columns")
        table = tuple(dict.fromkeys(label for d in parts for label in d.regime_table))
        position = {label: k for k, label in enumerate(table)}
        dtype = _code_dtype(len(table))
        codes = [
            np.array([position[label] for label in d.regime_table], dtype=dtype)[d.regime_codes]
            for d in parts
        ]
        return Dataset(
            variables=variables,
            values=np.concatenate([d.values for d in parts], axis=0),
            regime_codes=np.concatenate(codes),
            regime_table=table,
            provenance=tuple(p for d in parts for p in d.provenance),
        )

    # --- CSV round trip --------------------------------------------------

    def to_csv(self) -> str:
        """Header of variable names plus a trailing "regime" column; values
        are strictly "0"/"1".  Quoting is ``csv.writer``'s: the header and
        each distinct label pass through it once, and every row is its
        fixed-width 0/1 cells followed by its label's encoded tail."""
        width = 2 * len(self.variables)
        header = _csv_record(list(self.variables) + ["regime"]).encode("utf-8", "surrogatepass")
        cells = ["0"] * len(self.variables)
        tails = [
            _csv_record(cells + [label])[width:].encode("utf-8", "surrogatepass")
            for label in self.regime_table
        ]
        row_lengths = width + np.array([len(t) for t in tails], dtype=np.int64)[self.regime_codes]
        starts = len(header) + np.cumsum(row_lengths) - row_lengths
        out = np.empty(len(header) + int(row_lengths.sum()), dtype=np.uint8)
        out[: len(header)] = np.frombuffer(header, dtype=np.uint8)
        prefix = np.empty((self.n_rows, width), dtype=np.uint8)
        prefix[:, 0::2] = self.values + ord("0")
        prefix[:, 1::2] = ord(",")
        _scatter(out, starts, prefix)
        by_label = np.argsort(self.regime_codes, kind="stable")
        bounds = np.searchsorted(self.regime_codes[by_label], np.arange(1, len(tails)))
        for tail, rows in zip(tails, np.split(by_label, bounds)):
            _scatter(out, starts[rows] + width, np.frombuffer(tail, dtype=np.uint8))
        return str(out.data, "utf-8", "surrogatepass")

    @staticmethod
    def from_csv(text: str) -> "Dataset":
        """Read a header ending in a "regime" column, then one record of 0/1
        cells and a label per row, under the ``csv`` module's rules: quoted
        cells and labels, CRLF line ends and a missing final newline are
        accepted, blank lines are skipped.  Errors carry the record number,
        counting the header as 1 and blank lines as records."""
        pos = 0

        def lines():
            nonlocal pos
            while pos < len(text):
                start, pos = pos, text.find("\n", pos) + 1 or len(text)
                yield text[start:pos]

        try:
            header = next(csv.reader(lines()))
        except StopIteration:
            raise SpecError("empty CSV document") from None
        except csv.Error as exc:
            raise SpecError(f"unreadable CSV record: {exc}", line=1) from None
        if not header or header[-1] != "regime":
            raise SpecError('CSV header must end with a "regime" column')
        skip = len(text[:pos].encode("utf-8", "surrogatepass"))
        body = np.frombuffer(text.encode("utf-8", "surrogatepass"), dtype=np.uint8)[skip:]
        values, codes, table = _decode_rows(body, len(header) - 1)
        return Dataset(
            variables=tuple(header[:-1]),
            values=values,
            regime_codes=codes,
            regime_table=table,
        )


def _csv_record(row: list[str]) -> str:
    """One record as ``csv.writer`` writes it, "\\n" included."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(row)
    return buf.getvalue()


# Line codes while decoding: a blank or continuation line, and a line the
# ``csv`` module must read record by record.
_SKIP = -1
_SLOW = -2
# A "0," or "1," cell as one native-order uint16, and the bit "0" and "1"
# differ in.
_CELL = np.frombuffer(b"1,", dtype=np.uint16)[0]
_DIGIT_BIT = np.frombuffer(b"\x01\x00", dtype=np.uint16)[0]


def _scatter(out: np.ndarray, starts: np.ndarray, rows: np.ndarray) -> None:
    """Write ``rows`` (one per start, or one row for every start) into
    ``out`` at ``starts``, one row at a time (never an index per byte).
    The written ranges must not overlap."""
    if len(starts):
        windows = np.lib.stride_tricks.sliding_window_view(out, rows.shape[-1], writeable=True)
        windows[starts] = rows


def _windows(buf: np.ndarray, starts: np.ndarray, width: int) -> np.ndarray:
    """The ``width`` bytes from each start as an (n, width) array, gathered
    one row at a time (never an index per byte).  Rows that would run past
    the end read the last ``width`` bytes instead; callers ignore them."""
    if len(buf) < width:
        return np.zeros((len(starts), width), dtype=np.uint8)
    windows = np.lib.stride_tricks.sliding_window_view(buf, width)
    return windows[np.minimum(starts, len(buf) - width)]


def _distinct_rows(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For the rows of a C-contiguous 2-D uint8 array: one row index per
    distinct row, and the distinct row each row equals.  Runs of equal rows
    are collapsed before sorting."""
    if block.shape[1] == 0:
        return np.zeros(1, dtype=np.int64), np.zeros(len(block), dtype=np.int64)
    keys = block.view(np.dtype((np.void, block.shape[1])))[:, 0]
    head = np.ones(len(keys), dtype=bool)
    head[1:] = keys[1:] != keys[:-1]
    heads = np.flatnonzero(head)
    _, first, inverse = np.unique(keys[heads], return_index=True, return_inverse=True)
    return heads[first], inverse.reshape(-1)[np.cumsum(head) - 1]


def _tail_code(tail: bytes, n_cells: int, table: dict[str, int]) -> int:
    """Read a line's tail (what follows its 0/1 cells) with the ``csv``
    module: the code of the label it holds, adding the label to ``table``;
    _SKIP for a blank record; _SLOW unless it is exactly one field that
    ends on this line."""
    continued = []

    def line():
        yield "0," * n_cells + tail.decode("utf-8", "surrogatepass") + "\n"
        continued.append(True)

    try:
        row = next(csv.reader(line()))
    except csv.Error:
        return _SLOW
    if continued or len(row) not in (0, n_cells + 1):
        return _SLOW
    return table.setdefault(row[-1], len(table)) if row else _SKIP


def _decode_rows(body: np.ndarray, n_cells: int) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """Decode the CSV records after the header: (values, codes, table).

    A line whose first ``2 * n_cells`` bytes are unquoted 0/1 cells and
    commas is decoded in bulk; its tail, the label, is read with ``csv``
    once per distinct tail.  Every other non-blank line starts a record
    that ``csv`` reads on its own, joining the lines a quoted field spans;
    only these records can be malformed, and they are checked in order.
    """
    width = 2 * n_cells
    ends = np.flatnonzero(body == ord("\n"))
    if len(body) and body[-1] != ord("\n"):
        ends = np.append(ends, len(body))
    starts = np.zeros_like(ends)
    starts[1:] = ends[:-1] + 1
    cells = _windows(body, starts, width)
    pairs = cells.view(np.uint16)  # one (digit, comma) byte pair per cell
    fast = ends - starts >= max(width, 1)
    for k in range(n_cells):
        fast &= (pairs[:, k] | _DIGIT_BIT) == _CELL
    line_code = np.where(ends > starts, _SLOW, _SKIP)
    table: dict[str, int] = {}

    # A tail keeps the "\r" of a CRLF line end; csv reads it as the end.
    lines = np.flatnonzero(fast)
    tail_starts = starts[lines] + width
    tail_lengths = ends[lines] - tail_starts
    by_length = np.argsort(tail_lengths, kind="stable")
    for group in np.split(by_length, np.flatnonzero(np.diff(tail_lengths[by_length])) + 1):
        if not len(group):
            continue
        tails = _windows(body, tail_starts[group], int(tail_lengths[group[0]]))
        first, inverse = _distinct_rows(tails)
        outcome = np.array([_tail_code(tails[i].tobytes(), n_cells, table) for i in first])
        line_code[lines[group]] = outcome[inverse]

    values = (cells[:, 0::2] - ord("0")).astype(np.int8)
    joined = 0  # continuation lines before the current one
    free = 0  # first line not inside a record already read
    for k in np.flatnonzero(line_code == _SLOW).tolist():
        if k < free:
            continue
        used = []
        record = 2 + k - joined
        try:
            row = next(csv.reader(_lines_from(body, starts, ends, k, used)))
        except csv.Error as exc:
            raise SpecError(f"unreadable CSV record: {exc}", line=record) from None
        line_code[k + 1 : k + len(used)] = _SKIP
        joined += len(used) - 1
        free = k + len(used)
        if not row:
            line_code[k] = _SKIP
            continue
        if len(row) != n_cells + 1:
            raise SpecError("wrong number of fields", line=record)
        for cell in row[:-1]:
            if cell not in ("0", "1"):
                raise SpecError(f"value {cell!r} is not 0 or 1", line=record)
        values[k] = [int(c) for c in row[:-1]]
        line_code[k] = table.setdefault(row[-1], len(table))

    keep = line_code >= 0
    if keep.all():
        keep = slice(None)
    codes = line_code[keep].astype(_code_dtype(len(table)))
    order = _first_seen(codes)
    renumber = np.zeros(len(table), dtype=codes.dtype)
    renumber[order] = np.arange(len(order))
    labels = tuple(table)
    return values[keep], renumber[codes], tuple(labels[k] for k in order)


def _lines_from(body: np.ndarray, starts: np.ndarray, ends: np.ndarray, k: int, used: list):
    """Yield lines ``k, k + 1, ...`` as text, newline included, appending
    each line number to ``used``."""
    for j in range(k, len(starts)):
        used.append(j)
        yield body[starts[j] : ends[j] + 1].tobytes().decode("utf-8", "surrogatepass")


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
    regimes = {}
    for code in _first_seen(dataset.regime_codes).tolist():
        regimes[code] = Regime.from_label(dataset.regime_table[code])
        for name in regimes[code].clamps:
            graph.variable(name)
    column = {name: k for k, name in enumerate(dataset.variables)}
    codes = dataset.regime_codes.astype(np.int64)
    impossible = np.zeros(dataset.n_rows, dtype=bool)
    for var in graph.variables:
        if var.name in exempt:
            continue
        # zero[code, parents, value]: the probability of ``value`` at those
        # parent values is 0 under the regime with that code.
        zero = np.empty((len(dataset.regime_table), len(var.cpt_array), 2), dtype=bool)
        zero[:, :, 0] = var.cpt_array == 1.0
        zero[:, :, 1] = var.cpt_array == 0.0
        for code, regime in regimes.items():
            if var.name in regime.clamps:
                zero[code] = np.arange(2) != regime.clamps[var.name]
        if not zero.any():
            continue
        index = codes
        for name in (*var.parents, var.name):
            index = (index << 1) | dataset.values[:, column[name]]
        impossible |= zero.reshape(-1)[index]
    rejected = int(impossible.sum())
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
        regime_codes=np.zeros(n, dtype=np.uint8),
        regime_table=(regime_label,),
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
    for k, label in enumerate(labels):
        mask = chosen == k
        m = int(mask.sum())
        if m == 0:
            continue
        block = _sample_columns(
            graphs_by_label[label], m, _rng(label_seqs[k]), preset={selector: sel_col[mask]}
        )
        values[mask] = block
    return Dataset(
        variables=first.names,
        values=values,
        regime_codes=chosen.astype(_code_dtype(len(labels))),
        regime_table=tuple(labels),
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
