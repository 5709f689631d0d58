"""Structural-causal-model semantics for causal graphs.

Four capabilities live here:

* graph surgery (:func:`mutilate`) shared by do-interventions and
  interference clamps: a clamped variable loses its parents and its CPT
  becomes the forced constant;
* exact joint enumeration (:func:`joint_enumerate`, :func:`query`), the
  oracle of record for every probability in the package;
* exact marginals (:func:`marginals`) from one variable-elimination sweep
  over the ancestors of the variables asked for; the same sweep applies
  clamps itself, yields both do-margins of servability in one pass, and
  runs every regime with the same cut set (the clamped variables that have
  parents) at once, along a leading regime axis;
* seeded ancestral sampling (:func:`sample`), the Monte Carlo counterpart
  used by simulated experiments.  Identical (graph, n, seed) gives a
  bit-identical dataset, each column the same whichever others are drawn.
"""

from __future__ import annotations

import csv
import io
import math
from collections import Counter
from dataclasses import dataclass, field
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
    return dict(zip(names, _sweep(graph, names, [{}])[0]))


_EYE = np.eye(2)


def _sweep(
    graph: CausalGraph, names: Sequence[str], regimes: Sequence[Mapping], action: str | None = None
) -> list:
    """The sweep of :func:`marginals` under each of ``regimes``, straight
    from ``graph``, with one result per regime.  A clamped variable joins
    with the factor ``[1 - c, c]`` and no parents.  The regimes must share
    their cut set (the clamped variables that have parents), so they share
    one elimination order, and a leading regime axis r carries the factors
    that differ.  With ``action``, a batch axis b joins the action as
    ``eye(2)``, so each result holds [P(name = 1 | do(action = b)) for
    b = 0, 1]; without it, P(name = 1).  A name that the cuts leave out of
    the action's reach gets one value for both b, so its do-margin is
    exactly 0 whatever other names share the sweep.  The cap counts neither
    axis; a batch whose factor would hold more cells than one at the cap is
    split in halves, each swept alone."""
    cut = {name for clamps in regimes for name in clamps if graph.parents(name)}
    clamped = set().union(*regimes)
    assert all(cut <= clamps.keys() for clamps in regimes), "regimes must share their cut set"
    graph.require_valid()
    wanted = set(names)

    def parents(node: str) -> tuple[str, ...]:
        return () if node == action or node in cut else graph.parents(node)

    def factor_of(node: str) -> np.ndarray:
        if node not in clamped:
            return _EYE if node == action else graph.variable(node).factor
        return np.stack([_EYE[c[node]] if node in c else graph.variable(node).factor for c in regimes])

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

    batch = [0] if action is None else [0, 1]
    frontier: list[str] = []
    factor = np.ones((len(regimes),) + (2,) * (len(batch) - 1))
    out = {}
    moved = {action}
    for node in order:
        for p in parents(node):
            children_left[p] -= 1
            if p in moved:
                moved.add(node)
        joined = [a for a in frontier if children_left[a]] + [node]
        if len(joined) > ENUMERATION_CAP:
            raise EnumerationLimitError(
                f"frontier of {len(joined)} variables exceeds enumeration cap {ENUMERATION_CAP}"
            )
        if len(regimes) << len(joined) > 1 << ENUMERATION_CAP:
            halves = regimes[: len(regimes) // 2], regimes[len(regimes) // 2 :]
            return [result for half in halves for result in _sweep(graph, names, half, action)]
        axis = {a: k for k, a in enumerate(frontier + [node], len(batch))}
        factor = np.einsum(
            factor,
            batch + [axis[a] for a in frontier],
            factor_of(node),
            [0] * (node in clamped) + [1] * (node == action)
            + [axis[p] for p in parents(node)] + [axis[node]],
            batch + [axis[a] for a in joined],
        )
        if node in wanted:
            out[node] = factor[..., 1].reshape(factor.shape[: len(batch)] + (-1,)).sum(axis=-1)
            if action is not None and node not in moved:
                out[node][:, 1] = out[node][:, 0]
        frontier = joined
        if not children_left[node]:
            factor = factor.sum(axis=-1)
            frontier.pop()
    return [[out[name][r].tolist() for name in names] for r in range(len(regimes))]


def _code_dtype(n_labels: int) -> np.dtype:
    """The smallest unsigned integer type that can hold ``n_labels`` codes."""
    return np.min_scalar_type(max(n_labels - 1, 0))


def _read_only(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True, eq=False)
class CellTable:
    """The distinct (regime code, row) cells of a dataset and how many rows
    fall in each, sorted by code and then by row, first variable most
    significant.  For binary variables every count an analysis takes is a
    sum over these cells: they are the sufficient statistic of a discrete
    Bayesian network (Koller & Friedman 2009, ch. 17)."""

    codes: np.ndarray  # (n_cells,) regime codes
    rows: np.ndarray  # (n_cells, n_variables) int8
    counts: np.ndarray  # (n_cells,) rows per cell, each > 0

    def __post_init__(self):
        for name in ("codes", "rows", "counts"):
            object.__setattr__(self, name, _read_only(getattr(self, name)))

    def __reduce__(self):
        # Through the constructor, so a copy's arrays are read-only too.
        return CellTable, (self.codes, self.rows, self.counts)


def _cell_table(
    codes: np.ndarray, values: np.ndarray, n_labels: int, weights: np.ndarray | None = None
) -> CellTable:
    """Count the cells with one integer key per row, each row counting
    once or ``weights`` times: the code's bits, then one bit per variable.
    With no more keys than rows, ``np.bincount`` counts every key in one
    pass; with fewer rows the bins cost more than sorting the keys, and a
    cell is a run of equal sorted keys, counted by the run's length or by
    summing its weights.  Either way each cell's code and row are read back
    from its key's bits (:func:`_key_rows`).  A row wider than 64 bits
    renumbers the key by its rank among the keys so far whenever the next
    bit would not fit, and its cells are read from their first rows; ranks
    keep the order, so the cells come out sorted on every path."""
    width = max(n_labels - 1, 0).bit_length()
    n_vars = values.shape[1]
    bits = width + n_vars
    key = codes.astype(np.min_scalar_type((1 << min(bits, 64)) - 1))
    for column in values.view(np.uint8).T:
        if width == 64:
            present, key = np.unique(key, return_inverse=True)
            key = key.astype(np.uint64)
            width = max(len(present) - 1, 0).bit_length()
        key <<= 1
        key |= column
        width += 1
    if bits > 64:
        if weights is None:
            _, first, counts = np.unique(key, return_index=True, return_counts=True)
        else:
            _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
            counts = np.bincount(inverse, weights).astype(np.int64)
        return CellTable(codes[first], values[first], counts)
    if 1 << bits <= len(key):
        counts = np.bincount(key, weights).astype(np.int64, copy=False)
        cells = np.flatnonzero(counts)
        cells, counts = cells.astype(key.dtype), counts[cells]
    else:
        cells, counts = _runs(key, weights)
    del key
    return CellTable((cells >> n_vars).astype(codes.dtype), _key_rows(cells, n_vars), counts)


def _runs(keys: np.ndarray, weights: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``keys``, ascending, and how many times each occurs or
    the sum of its ``weights`` (int64): the runs of equal keys once sorted.
    Unweighted keys are sorted in place."""
    if weights is None:
        keys.sort()
    else:
        order = np.argsort(keys)
        keys, weights = keys[order], weights[order]
        del order
    new = np.empty(len(keys), dtype=bool)
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    counts = np.diff(starts, append=len(keys)) if weights is None else np.add.reduceat(weights, starts)
    return keys[starts], counts


def _key_rows(keys: np.ndarray, n_vars: int) -> np.ndarray:
    """The low ``n_vars`` bits of each unsigned key as a row of 0/1 int8s,
    most significant first: a big-endian copy of the keys is shifted so
    those bits lead, and its bytes are unpacked, so the only temporary is
    that copy."""
    top = keys.astype(keys.dtype.newbyteorder(">"))
    top <<= 8 * keys.itemsize - n_vars
    return np.unpackbits(top.view(np.uint8).reshape(len(keys), keys.itemsize), axis=1, count=n_vars).view(np.int8)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Binary samples, each with a regime label: rows where they are
    sampled, their cells where they are read or filtered.

    ``values`` is an (n_rows, n_variables) int8 array in declared variable
    order.  Row ``i`` is labeled ``regime_table[regime_codes[i]]``: the table
    holds distinct labels (sorted when read from CSV), the codes are an
    unsigned integer array.  Both arrays are kept as read-only views, so
    :attr:`cells`, built once on first use, cannot go stale.  Every count an
    analysis of read data takes is read from :meth:`tally`; the randomized
    battery counts the columns it samples.  A variable named twice
    raises ``DataError``.  :meth:`from_csv` and :meth:`filter_regimes` give
    a dataset of its cells alone: both arrays are None, and ``column`` and
    ``to_csv`` raise."""

    variables: tuple[str, ...]
    values: np.ndarray | None
    regime_codes: np.ndarray | None
    regime_table: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.variables)) < len(self.variables):
            repeated = sorted(name for name, k in Counter(self.variables).items() if k > 1)
            raise DataError(f"data columns {repeated} appear more than once")
        if len(set(self.regime_table)) != len(self.regime_table):
            raise ValueError("regime table labels must be distinct")
        if (self.values is None) != (self.regime_codes is None):
            raise ValueError("values and regime codes must both be given or both be None")
        if self.values is None:
            return  # its cells alone, which _cells_only sets
        object.__setattr__(self, "values", _read_only(np.asarray(self.values, dtype=np.int8)))
        codes = _read_only(self.regime_codes)
        object.__setattr__(self, "regime_codes", codes)
        if codes.ndim != 1 or self.values.shape != (len(codes), len(self.variables)):
            raise ValueError(
                f"shape {self.values.shape} inconsistent with "
                f"{codes.shape} codes x {len(self.variables)} variables"
            )
        if len(codes) and not (codes.max() < len(self.regime_table) and (codes.dtype.kind == "u" or 0 <= codes.min())):
            raise ValueError(f"regime codes outside a table of {len(self.regime_table)} labels")

    def __reduce__(self):
        # Through the constructor, so a copy's arrays are read-only too and
        # its cells are counted afresh, or carried when it has no rows.
        if self.values is None:
            return _cells_only, (self.variables, self.regime_table, self.cells)
        return Dataset, (self.variables, self.values, self.regime_codes, self.regime_table)

    def _need_rows(self, call: str) -> None:
        if self.values is None:
            raise TypeError(f"{call} needs the rows of a dataset, and this one holds only its cells")

    @property
    def n_rows(self) -> int:
        return int(self.cells.counts.sum()) if self.values is None else self.values.shape[0]

    def _index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise UnknownVariableError(f"unknown column {name!r}") from None

    def column(self, name: str) -> np.ndarray:
        self._need_rows("Dataset.column")
        return self.values[:, self._index(name)]

    @cached_property
    def cells(self) -> CellTable:
        """The rows reduced to their distinct (regime code, row) cells."""
        self._need_rows("Dataset.cells")
        return _cell_table(self.regime_codes, self.values, len(self.regime_table))

    def tally(self, names: Iterable[str]) -> CellTable:
        """The cells reduced to the columns ``names``, in that order: for
        each regime code present, the distinct value rows of ``names``, in
        ascending order, and how many rows carry each.  Grouped by the same
        keys as :attr:`cells`, each cell weighted by its count."""
        columns = [self._index(name) for name in names]
        cells = self.cells
        return _cell_table(cells.codes, cells.rows[:, columns], len(self.regime_table), cells.counts)

    def filter_regimes(self, labels: Iterable[str]) -> "Dataset":
        """The cells of this dataset's table labeled one of ``labels``, in a
        dataset of those cells alone."""
        wanted = set(labels)
        keep = np.array([label in wanted for label in self.regime_table], dtype=bool)
        cells = self.cells
        inside = keep[cells.codes]
        kept = CellTable(cells.codes[inside], cells.rows[inside], cells.counts[inside])
        return _cells_only(self.variables, self.regime_table, kept)

    # --- CSV round trip --------------------------------------------------

    def to_csv(self) -> str:
        """Header of variable names plus a trailing "regime" column; values
        are strictly "0"/"1".  Quoting is ``csv.writer``'s: the header and
        each distinct label pass through it once, and every row is its
        fixed-width 0/1 cells followed by its label's encoded tail."""
        self._need_rows("Dataset.to_csv")
        return str(_encode_rows(self).data, "utf-8", "surrogatepass")

    @staticmethod
    def from_csv(data: bytes | str | Iterable[bytes]) -> "Dataset":
        """Read UTF-8 text, or bytes in one block or in blocks cut anywhere,
        under the ``csv`` module's rules, into a dataset of its cells alone:
        a header ending in a "regime" column (read by :func:`_read_record`),
        then a record of 0/1 cells and a label per row (:func:`_decode_rows`,
        per block).  Quoted cells and labels, CRLF line ends and a missing
        final newline are accepted, blank lines skipped.  Errors carry the
        record number, counting the header as 1 and blank lines as records.
        Bytes left unread wait as pieces until a block brings a line end, and
        are then joined once.  Each block's rows are reduced to their cells,
        coded in one table for the file, and merged with the cells so far
        once they outnumber them.  The labels some cell carries are then
        numbered in sorted order, so the read is the :attr:`Dataset.cells`
        of the rows, labeled sorted, whatever their order and the cuts."""
        if isinstance(data, str):
            data = data.encode("utf-8", "surrogatepass")
        header, record, pending, table = None, 2, [], {}
        cells, waiting, queued = None, [], 0  # the cells so far; blocks' cells not yet merged
        blocks = iter([data] if isinstance(data, (bytes, bytearray)) else data)
        following = next(blocks, b"")
        while following is not None:
            block, following = following, next(blocks, None)
            if following is not None and b"\n" not in block:
                pending.append(block)  # nothing more can be read before a line end
                continue
            text = b"".join([*pending, block])  # a lone block is not copied
            body = text if following is None else text[: text.rfind(b"\n") + 1]
            pos = 0
            if header is None:
                try:
                    header, _, pos = _read_record(body, 0, len(body))
                except csv.Error as exc:
                    raise SpecError(f"unreadable CSV record: {exc}", line=1) from None
                if following is not None and pos == len(body):  # the header may go on
                    header, pending = None, [text]
                    continue
                if header is None:
                    raise SpecError("empty CSV document")
                if not header or header[-1] != "regime":
                    raise SpecError('CSV header must end with a "regime" column')
            decoded, codes, rest, record = _decode_rows(body, pos, len(header) - 1, record, following is None, table)
            pending = [text[rest:]] if rest < len(text) else []
            part = _cell_table(codes, decoded, len(table))
            if cells is None:
                cells = part
            else:
                waiting.append((part.codes, part.rows, part.counts))
                queued += len(part.counts)
            # Merged once they outnumber the cells so far, so that all the
            # merges together sort at most twice the blocks' cells.
            if waiting and (following is None or queued > len(cells.counts)):
                merged_codes, merged_rows, counts = map(np.concatenate, zip((cells.codes, cells.rows, cells.counts), *waiting))
                cells, waiting, queued = _cell_table(merged_codes, merged_rows, len(table), counts), [], 0
        # The labels some cell carries (by np.bincount: np.unique maps ~1 MB more on
        # first use), sorted; a stable sort keeps each code's cells in row order.
        labels = tuple(table)
        present = sorted(np.flatnonzero(np.bincount(cells.codes)).tolist(), key=labels.__getitem__)
        rank = np.zeros(len(labels), dtype=_code_dtype(len(present)))
        rank[present] = np.arange(len(present))
        codes = rank[cells.codes]
        order = np.argsort(codes, kind="stable")
        cells = CellTable(codes[order], cells.rows[order], cells.counts[order])
        return _cells_only(tuple(header[:-1]), tuple(labels[k] for k in present), cells)


def _cells_only(variables: tuple[str, ...], table: tuple[str, ...], cells: CellTable) -> Dataset:
    """A dataset that holds only ``cells``, no rows."""
    dataset = Dataset(variables, None, None, table)
    dataset.__dict__["cells"] = cells
    return dataset


def _csv_record(row: list[str]) -> str:
    """One record as ``csv.writer`` writes it, "\\n" included."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(row)
    return buf.getvalue()


# Line codes while decoding: a blank or continuation line, and a line the
# ``csv`` module must read record by record.
_SKIP = -1
_SLOW = -2
# The "0," and "1," cells as native-order uint16s, and the bit they differ in.
_ZERO_CELL = np.frombuffer(b"0,", dtype=np.uint16)[0]
_CELL = np.frombuffer(b"1,", dtype=np.uint16)[0]
_DIGIT_BIT = np.frombuffer(b"\x01\x00", dtype=np.uint16)[0]


def _encode_rows(data: Dataset) -> np.ndarray:
    """The bytes of :meth:`Dataset.to_csv`.  Its temporaries, each the
    size of the rows, are gone when it returns."""
    width = 2 * len(data.variables)
    header = _csv_record(list(data.variables) + ["regime"]).encode("utf-8", "surrogatepass")
    cells = ["0"] * len(data.variables)
    tails = [
        _csv_record(cells + [label])[width:].encode("utf-8", "surrogatepass")
        for label in data.regime_table
    ]
    row_lengths = width + np.array([len(t) for t in tails], dtype=np.int64)[data.regime_codes]
    starts = np.cumsum(row_lengths)
    starts -= row_lengths
    starts += len(header)
    out = np.empty(len(header) + int(row_lengths.sum()), dtype=np.uint8)
    del row_lengths
    out[: len(header)] = np.frombuffer(header, dtype=np.uint8)
    prefix = np.multiply(data.values.view(np.uint8), _DIGIT_BIT, dtype=np.uint16, order="C")
    prefix |= _ZERO_CELL
    _scatter(out, starts, prefix.view(np.uint8))
    del prefix
    by_label = np.argsort(data.regime_codes, kind="stable")
    bounds = np.searchsorted(data.regime_codes[by_label], np.arange(1, len(tails)))
    for tail, rows in zip(tails, np.split(by_label, bounds)):
        _scatter(out, starts[rows] + width, np.frombuffer(tail, dtype=np.uint8))
    return out


def _items(buf: np.ndarray, width: int) -> np.ndarray:
    """Every ``width``-byte run of the contiguous bytes ``buf`` as one
    fixed-size item, item ``i`` starting at byte ``i``: a view, not a copy."""
    return np.ndarray((len(buf) - width + 1,), dtype=(np.void, width), buffer=buf, strides=(1,))


def _scatter(out: np.ndarray, starts: np.ndarray, rows: np.ndarray) -> None:
    """Write ``rows`` (one per start, or one row for every start) into
    ``out`` at ``starts``, one fixed-size item per row.  The written ranges
    must not overlap."""
    width = rows.shape[-1]
    if len(starts) and width:
        _items(out, width)[starts] = rows.view((np.void, width))[..., 0]


def _windows(buf: np.ndarray, starts: np.ndarray, width: int) -> np.ndarray:
    """The ``width`` bytes from each start as an (n, width) array, gathered
    as one fixed-size item per row.  Rows that would run past the end read
    the last ``width`` bytes instead; callers ignore them."""
    if len(buf) < width:
        return np.zeros((len(starts), width), dtype=np.uint8)
    rows = _items(buf, width)[np.minimum(starts, len(buf) - width)]
    return rows.view(np.uint8).reshape(len(starts), width)


def _distinct_tails(buf: np.ndarray, ends: np.ndarray, length: int) -> tuple[np.ndarray, np.ndarray]:
    """One index per distinct ``length``-byte run of ``buf`` that ends at
    ``ends`` (each 8 * w or more bytes in), and the distinct run each
    equals.  A run is read as the ``w`` 64-bit words that end it, with the
    bytes before it masked off.  Each pass matches the first pending run;
    after log2(runs) passes, about what a sort costs, the rest are sorted."""
    w = max(-(-length // 8), 1)
    keep = np.zeros(8 * w, dtype=np.uint8)
    keep[8 * w - length :] = 0xFF
    words = _items(buf, 8 * w)[ends - 8 * w].view(np.uint64).reshape(-1, w) & keep.view(np.uint64)
    pending = np.ones(len(ends), dtype=bool)
    inverse = np.empty(len(ends), dtype=np.intp)
    first = []
    for _ in range(len(ends).bit_length()):
        k = int(np.argmax(pending))
        if not pending[k]:
            break
        same = pending & (words[:, 0] == words[k, 0])
        for j in range(1, w):
            same &= words[:, j] == words[k, j]
        inverse[same] = len(first)
        pending &= ~same
        first.append(k)
    rest = np.flatnonzero(pending)
    if len(rest):  # np.unique along an axis leaves cyclic garbage
        _, head, back = np.unique(words[rest], axis=0, return_index=True, return_inverse=True)
        inverse[rest] = len(first) + back.reshape(-1)
        first += rest[head].tolist()
    return np.array(first, dtype=np.intp), inverse


def _read_record(text: bytes, start: int, stop: int) -> tuple[list[str] | None, int, int]:
    """Read with ``csv`` the record that starts at byte ``start`` of ``text``,
    handing it only lines that begin before byte ``stop``: the row (None if
    none does), how many lines ``csv`` asked for, and the byte after the
    last line read.  A ``csv.Error`` passes through; a bad byte raises one."""
    asked, end = 0, start

    def lines():
        nonlocal asked, end
        while True:
            asked += 1
            if end >= stop:
                return
            begin, end = end, text.find(b"\n", end) + 1 or len(text)
            yield text[begin:end].decode("utf-8", "surrogatepass")

    try:
        row = next(csv.reader(lines()), None)
    except UnicodeDecodeError as exc:
        raise csv.Error(f"byte {exc.object[exc.start]:#04x} is not UTF-8") from None
    return row, asked, end


def _decode_rows(
    text: bytes, pos: int, n_cells: int, record: int, final: bool, table: dict[str, int]
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Decode the CSV records of ``text`` from byte ``pos``, the first
    numbered ``record``: (values, codes in the smallest unsigned type that
    holds ``table``'s, the byte and the number of the first record left
    unread).  A label not yet in ``table`` gets the next code there, so
    every block of a file codes its labels alike.  Unless ``final``, a
    record that runs to the end of ``text`` may go on past it and is left
    unread.  A line whose first ``2 * n_cells`` bytes are unquoted 0/1
    cells and commas is decoded in bulk (one comparison over every line's
    (digit, comma) byte pairs finds the lines that are not), and
    :func:`_read_record` reads its label on the first line of each distinct
    tail (:func:`_distinct_tails` finds them among the tails of one length).
    Every other non-blank line, and each whose tail spans lines, is not one
    field or has more bytes than ``csv.field_size_limit()``, starts a record
    that :func:`_read_record` reads alone; only these can be malformed, and
    they are checked in order."""
    data = np.frombuffer(text, dtype=np.uint8)
    body = data[pos:]
    width = 2 * n_cells
    ends = np.flatnonzero(body == ord("\n"))
    if len(body) and body[-1] != ord("\n"):
        ends = np.append(ends, len(body))
    starts = np.zeros_like(ends)
    starts[1:] = ends[:-1] + 1
    cells = _windows(body, starts, width)
    pairs = cells.view(np.uint16)  # one (digit, comma) byte pair per cell
    fast = ends - starts >= max(width, 1)
    fast[: np.searchsorted(starts, 8 - pos)] = False  # see _distinct_tails below
    # Only fast lines keep these values; the others are read again or dropped.
    # They are taken before the OR below, which turns every "0," into "1,".
    values = cells[:, 0::2].view(np.int8) - np.int8(ord("0"))
    pairs |= _DIGIT_BIT
    fast[np.flatnonzero(pairs != _CELL) // max(n_cells, 1)] = False
    del cells, pairs
    line_code = np.full(len(ends), _SKIP, dtype=np.int32)
    line_code[ends > starts] = _SLOW

    # A tail keeps the "\r" of a CRLF line end; csv reads it as the end.
    tail_lengths = np.where(fast, ends - starts - width, -1)
    by_length = np.argsort(tail_lengths, kind="stable")
    sorted_lengths = tail_lengths[by_length]
    for group in np.split(by_length, np.flatnonzero(sorted_lengths[1:] != sorted_lengths[:-1]) + 1):
        length = int(tail_lengths[group[0]]) if len(group) else -1
        if not 0 <= length <= csv.field_size_limit():
            continue  # no line, lines that are not fast, or tails too long to compare
        # Each end is 8 * w or more bytes in: a fast line holds 8 * w - 8 or more and starts 8 or more in.
        first, inverse = _distinct_tails(data, ends[group] + pos, length)
        outcome = []
        for j in group[first].tolist():  # plain 0/1 cells, then the tail: csv reads the tail's label
            try:
                row, asked, _ = _read_record(text, pos + starts[j], pos + ends[j])
            except csv.Error:
                asked = 0
            one_field = asked == 1 and len(row) == n_cells + 1
            outcome.append(table.setdefault(row[-1], len(table)) if one_field else _SLOW)
        line_code[group] = np.array(outcome)[inverse]

    joined = 0  # continuation lines before the current one
    free = 0  # first line not inside a record already read
    rest, stop = len(text), len(ends)  # where decoding stops, in bytes and in lines
    for k in np.flatnonzero(line_code == _SLOW).tolist():
        if k < free:
            continue
        number = record + k - joined
        try:
            row, asked, end = _read_record(text, pos + starts[k], len(text))
        except csv.Error as exc:
            raise SpecError(f"unreadable CSV record: {exc}", line=number) from None
        if end == len(text) and not final:
            rest, stop = pos + starts[k], k
            line_code[k:] = _SKIP
            break
        line_code[k + 1 : k + asked] = _SKIP
        joined += asked - 1
        free = k + asked
        if not row:
            line_code[k] = _SKIP
            continue
        if len(row) != n_cells + 1:
            raise SpecError("wrong number of fields", line=number)
        for cell in row[:-1]:
            if cell not in ("0", "1"):
                raise SpecError(f"value {cell!r} is not 0 or 1", line=number)
        values[k] = [int(c) for c in row[:-1]]
        line_code[k] = table.setdefault(row[-1], len(table))

    keep = line_code >= 0
    if not keep.all():
        values, line_code = values[keep], line_code[keep]
    return values, line_code.astype(_code_dtype(len(table))), rest, record + stop - joined


def require_possible(dataset: Dataset, graph: CausalGraph, exempt: Iterable[str] = ()) -> None:
    """Reject a dataset the graph cannot have produced.

    The header must name exactly the graph's variables, and no row may
    have probability 0 under its regime's mutilated graph: a clamped
    variable off its clamp, or a value that contradicts a 0/1 CPT row.  Variables in ``exempt`` are not checked (an action whose CPT a
    policy replaces).  The labels present are read from ``tally(())``.
    Each cell of :attr:`Dataset.cells` is checked once, under every
    variable, and an impossible cell counts all its rows once.
    """
    if set(dataset.variables) != set(graph.names):
        raise DataError(
            f"data columns {sorted(dataset.variables)} do not match "
            f"the graph's variables {sorted(graph.names)}"
        )
    exempt = set(exempt)
    cells = dataset.cells
    regimes = {}
    for code in dataset.tally(()).codes.tolist():
        regimes[code] = Regime.from_label(dataset.regime_table[code])
        for name in regimes[code].clamps:
            graph.variable(name)
    column = {name: k for k, name in enumerate(dataset.variables)}
    codes = cells.codes.astype(np.int64)
    impossible = np.zeros(len(codes), dtype=bool)
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
            index = (index << 1) | cells.rows[:, column[name]]
        impossible |= zero.reshape(-1)[index]
    rejected = int(cells.counts[impossible].sum())
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
    names: tuple[str, ...] | None = None,
) -> np.ndarray:
    """Ancestral sampling of ``names`` (default every variable), one draw
    block per variable in topological order into one reused buffer.  Only
    ``names`` and their ancestors are computed; any other variable up to the
    last of them skips its block with ``advance(n)``, as PCG64 makes one
    64-bit output per double, so a column is the same whichever others are
    sampled with it.  Preset columns are copied through and consume no
    draws, which keeps the stream alignment independent of preset values."""
    names = graph.names if names is None else names
    if names not in graph._sample_plans:  # each step's (name, CPT, parent steps, needed), then names' steps
        needed = set(names).union(*map(graph.ancestors, names))
        order = graph.topological_order
        step = {name: k for k, name in enumerate(order)}
        stop = max((step[name] + 1 for name in needed), default=0)
        graph._sample_plans[names] = tuple(
            (name, graph.variable(name).cpt_array, [step[p] for p in graph.parents(name)], name in needed)
            for name in order[:stop]
        ), [step[name] for name in names]
    steps, out = graph._sample_plans[names]
    columns: list = []
    uniforms = np.empty(n)
    for name, cpt, parents, needed in steps:
        if preset is not None and name in preset:
            columns.append(np.asarray(preset[name], dtype=np.int8))
            continue
        if not needed:
            rng.bit_generator.advance(n)
            columns.append(None)
            continue
        rng.random(out=uniforms)
        index = np.intp(0)
        for k in parents:
            index = (index << 1) | columns[k]
        columns.append((uniforms < cpt[index]).view(np.int8))
    return np.column_stack([columns[k] for k in out]) if out else np.zeros((n, 0), dtype=np.int8)


def sample(
    graph: CausalGraph,
    n: int,
    seed: int | np.random.SeedSequence,
    regime_label: str = NATURAL_LABEL,
    names: Sequence[str] | None = None,
) -> Dataset:
    """Draw ``n`` ancestral samples of ``names`` (default every variable):
    bit-identical for identical (graph, n, seed), each column the same
    whichever others are drawn with it, frequencies converging to the
    enumeration.  Unknown names raise ``UnknownVariableError``, repeats ``DataError``."""
    if n < 0:
        raise ValueError("n must be >= 0")
    graph.require_valid()
    names = graph.names if names is None else tuple(names)
    seed_seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return Dataset(
        variables=names,
        values=_sample_columns(graph, n, _rng(seed_seq), names=names),
        regime_codes=np.zeros(n, dtype=np.uint8),
        regime_table=(regime_label,),
    )


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
    if set(selection_probs) != {0, 1}:
        raise ValueError(
            f"selection probabilities must be keyed by {selector}=0 and 1, "
            f"got {sorted(selection_probs, key=repr)}"
        )
    for value in (0, 1):
        probs = selection_probs[value]
        if set(probs) != set(labels):
            raise ValueError("selection probabilities must cover exactly the supplied regimes")
        if not all(math.isfinite(p) and p >= 0.0 for p in probs.values()):
            raise ValueError(
                f"selection probabilities for {selector}={value} must be finite and >= 0"
            )
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
    )
