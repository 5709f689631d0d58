import copy
import csv
import io
import itertools
import pickle
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from teleo import (
    DataError,
    Dataset,
    EnumerationLimitError,
    InvalidGraphError,
    NATURAL_LABEL,
    Regime,
    RegimeError,
    SpecError,
    TeleoError,
    UnknownVariableError,
    Variable,
    ZeroProbabilityError,
    arms_from_dataset,
    joint_enumerate,
    marginals,
    mutilate,
    query,
    require_possible,
    sample,
    sample_observational,
    stratified_action_comparison,
)
from teleo import cli, engine
from teleo.graph import CausalGraph
from teleo.models import ball_pins, education_salary, sport_chain, stove_water

from .helpers import (
    cell_summary,
    dag_from_seed,
    joined,
    labeled_dataset,
    lever_chain,
    make_dataset,
    row_count,
    row_labels,
    rows_of,
    sorted_table,
    twin_chains,
)


class TestRegime:
    def test_natural_label(self):
        assert Regime().label() == "natural"

    def test_label_sorted_by_name(self):
        r = Regime({"z": 1, "a": 0})
        assert r.label() == "a=0;z=1"

    def test_label_round_trip(self):
        r = Regime({"smoke": 1, "enroll": 0})
        back = Regime.from_label(r.label())
        assert back.clamps == r.clamps

    def test_from_label_rejects_garbage(self):
        with pytest.raises(SpecError):
            Regime.from_label("enroll=2")

    def test_from_label_rejects_repeated_variable(self):
        with pytest.raises(SpecError, match="twice"):
            Regime.from_label("enroll=0;enroll=1")
        with pytest.raises(SpecError, match="twice"):
            Regime.from_label("enroll=1;smoke=0;enroll=1")

    def test_equality_and_hash_ignore_insertion_order(self):
        r1 = Regime({"a": 1, "b": 0})
        r2 = Regime({"b": 0, "a": 1})
        assert r1 == r2
        assert hash(r1) == hash(r2)
        assert len({r1, r2, Regime(), Regime({})}) == 2
        assert r1 != Regime({"a": 1, "b": 1})

    def test_equal_clamp_values_label_alike(self):
        for value in (True, 1.0, np.int64(1)):
            r = Regime({"smoke": value})
            assert r == Regime({"smoke": 1})
            assert type(r.clamps["smoke"]) is int
            assert r.label() == "smoke=1"
            assert Regime.from_label(r.label()) == r
        assert Regime({"smoke": False}).label() == "smoke=0"

    def test_clamps_are_copied(self):
        clamps = {"a": 1}
        r = Regime(clamps)
        clamps["b"] = 0
        assert r == Regime({"a": 1})
        assert r.label() == "a=1"


regime_names = st.text(
    st.characters(exclude_characters="=;", exclude_categories=("Cs",)), min_size=1
)


@settings(max_examples=150, deadline=None)
@given(
    clamps=st.dictionaries(regime_names, st.integers(0, 1), max_size=6),
    name=regime_names,
    bad=st.one_of(st.integers(), st.floats(), st.text()).filter(lambda v: v not in (0, 1)),
    data=st.data(),
)
def test_regime_is_an_immutable_value(clamps, name, bad, data):
    """Equal clamps make equal, equally hashed regimes in any insertion
    order; labels, pickling and copies round-trip; clamps cannot be
    assigned; a clamp value outside {0, 1} is rejected when the regime is
    built."""
    r = Regime(clamps)
    s = Regime(dict(data.draw(st.permutations(list(clamps.items())))))
    assert r == s and hash(r) == hash(s)
    assert list(r.clamps) == sorted(clamps)
    assert Regime.from_label(r.label()) == r
    assert pickle.loads(pickle.dumps(r)) == r == copy.deepcopy(r)
    with pytest.raises(TypeError):
        r.clamps[name] = 0
    with pytest.raises(RegimeError):
        Regime({**clamps, name: bad})


class TestEnumeration:
    def test_single_coin(self):
        g = CausalGraph.make([Variable.make("coin", (), 0.7)])
        table = joint_enumerate(g)
        assert np.allclose(table.probs, [0.3, 0.7])

    def test_entry_order_first_variable_most_significant(self):
        table = joint_enumerate(education_salary())
        # index 5 = binary 101 -> family=1, education=0, salary=1
        assert table.probs[5] == pytest.approx(0.4 * 0.2 * 0.4)

    def test_education_salary_marginals(self):
        table = joint_enumerate(education_salary())
        assert table.marginal("family_status") == pytest.approx(0.4)
        assert table.marginal("education") == pytest.approx(0.44)
        assert table.marginal("salary") == pytest.approx(0.428)

    def test_deterministic_chain_collapses(self):
        table = joint_enumerate(sport_chain())
        probs = sorted(table.probs[table.probs > 0])
        assert probs == [pytest.approx(0.2), pytest.approx(0.8)]

    def test_prob_of_partial(self):
        table = joint_enumerate(ball_pins())
        assert table.prob_of({"pins": 1}) == pytest.approx(0.5)
        assert table.prob_of({}) == pytest.approx(1.0)

    def test_prob_of_unknown_name(self):
        with pytest.raises(UnknownVariableError, match=r"^unknown variable 'ghost'$"):
            joint_enumerate(ball_pins()).prob_of({"ghost": 1})

    def test_enumeration_cap(self):
        g = CausalGraph.make([Variable.make(f"v{i}", (), 0.5) for i in range(21)])
        with pytest.raises(EnumerationLimitError):
            joint_enumerate(g)


class TestMarginals:
    @pytest.mark.parametrize("build", [ball_pins, education_salary, sport_chain, stove_water])
    def test_matches_enumeration(self, build):
        g = build()
        table = joint_enumerate(g)
        got = marginals(g, reversed(g.names))
        assert list(got) == list(reversed(g.names))
        for name in g.names:
            assert abs(got[name] - table.marginal(name)) <= 1e-15

    def test_only_ancestors_are_visited(self):
        g = CausalGraph.make([Variable.make(f"v{i}", (), 0.25) for i in range(40)])
        assert marginals(g, ["v3", "v39"]) == {"v3": 0.25, "v39": 0.25}
        assert marginals(g, []) == {}

    def test_chain_beyond_enumeration_cap(self):
        g = lever_chain(20)
        assert len(g.variables) == 41
        with pytest.raises(EnumerationLimitError, match="41 variables"):
            joint_enumerate(g)
        got = marginals(g, [f"e{i}" for i in range(20)])
        for i in range(20):
            assert got[f"e{i}"] == pytest.approx(0.5 * 0.9 ** (i + 1), rel=1e-13)

    def test_exact_zero_and_one(self):
        g = mutilate(lever_chain(4), Regime({"a": 1, "l2": 0}))
        got = marginals(g, ["a", "e1", "e2", "e3"])
        assert got["a"] == 1.0
        assert got["e1"] == pytest.approx(0.81, abs=1e-15)
        assert got["e2"] == 0.0 and got["e3"] == 0.0
        forced = mutilate(lever_chain(3), Regime({"a": 1, "l0": 1, "l1": 1}))
        assert marginals(forced, ["e1"]) == {"e1": 1.0}

    def test_frontier_cap(self):
        g = twin_chains(20)
        with pytest.raises(EnumerationLimitError, match="^frontier of 21 variables exceeds"):
            marginals(g, ["c19", "d19"])
        # Joining the chains side by side keeps the frontier narrow.
        side_by_side = marginals(g, [f"{chain}{i}" for i in range(20) for chain in "cd"])
        assert side_by_side["c19"] == pytest.approx(side_by_side["d19"], rel=1e-14)
        small = twin_chains(6)
        table = joint_enumerate(small)
        got = marginals(small, ["c5", "d5"])
        assert abs(got["c5"] - table.marginal("c5")) <= 1e-15

    def test_unknown_and_invalid(self):
        with pytest.raises(UnknownVariableError):
            marginals(ball_pins(), ["dog"])
        bad = CausalGraph.make([Variable.make("a", ("b",), {0: 0.5, 1: 0.5})])
        with pytest.raises(InvalidGraphError):
            marginals(bad, ["a"])


class TestQuery:
    def test_conditional(self):
        p = query(education_salary(), {"education": 1}, {"salary": 1})
        assert p == pytest.approx(0.348 / 0.428)

    def test_event_conflicting_with_given_is_zero(self):
        assert query(ball_pins(), {"ball": 0}, {"ball": 1}) == 0.0

    @pytest.mark.parametrize("value", [2, -1, 0.5])
    def test_non_binary_values_rejected(self, value):
        g = education_salary()
        with pytest.raises(ValueError, match="must be 0 or 1"):
            query(g, {"salary": value})
        with pytest.raises(ValueError, match="must be 0 or 1"):
            query(g, {"salary": 1}, {"education": value})
        with pytest.raises(ValueError, match="must be 0 or 1"):
            query(g, {"salary": value}, {"salary": 1})
        with pytest.raises(ValueError, match="must be 0 or 1"):
            joint_enumerate(g).prob_of({"salary": value})

    def test_zero_probability_conditioning(self):
        with pytest.raises(ZeroProbabilityError):
            query(ball_pins(), {"ball": 1}, {"ball": 0, "pins": 1})


class TestMutilate:
    def test_clamped_variable_becomes_constant(self):
        g = mutilate(stove_water(), Regime({"water": 1}))
        assert g.variable("water").parents == ()
        table = joint_enumerate(g)
        assert table.marginal("water") == 1.0
        assert table.marginal("stove") == pytest.approx(0.5)

    def test_do_and_interference_same_distribution(self):
        g = stove_water()
        a = joint_enumerate(mutilate(g, Regime({"water": 0})))
        b = joint_enumerate(g.replace(Variable.constant("water", 0)))
        assert np.array_equal(a.probs, b.probs)

    def test_none_regime_is_identity(self):
        g = stove_water()
        assert mutilate(g) is g
        assert mutilate(g, Regime()) is g

    def test_unknown_clamp_rejected(self):
        with pytest.raises(Exception):
            mutilate(stove_water(), Regime({"kettle": 1}))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_joint_sums_to_one(seed):
    table = joint_enumerate(dag_from_seed(seed))
    assert table.probs.sum() == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), value=st.integers(0, 1))
def test_mutilation_idempotent_and_commutative(seed, value):
    g = dag_from_seed(seed)
    first, second = g.names[0], g.names[-1]
    r1 = Regime({first: value})
    r2 = Regime({second: 1 - value})
    assert mutilate(mutilate(g, r1), r1) == mutilate(g, r1)
    assert mutilate(mutilate(g, r1), r2) == mutilate(mutilate(g, r2), r1)
    assert mutilate(g, Regime({first: value, second: 1 - value})) == mutilate(mutilate(g, r1), r2)


class TestSampling:
    def test_seeded_reproducibility(self):
        g = education_salary()
        a = sample(g, 200, 42)
        b = sample(g, 200, 42)
        assert rows_of(a) == rows_of(b)
        assert rows_of(sample(g, 200, 43)) != rows_of(a)

    def test_regime_label_applied(self):
        data = sample(stove_water(), 5, 1, regime_label="water=0")
        assert row_labels(data) == ("water=0",) * 5

    def test_values_are_binary(self):
        data = sample(education_salary(), 500, 9)
        assert set(np.unique(data.values)) <= {0, 1}

    def test_marginals_near_enumeration(self):
        g = education_salary()
        table = joint_enumerate(g)
        data = sample(g, 20000, 5)
        for name in g.names:
            p = table.marginal(name)
            se = (p * (1 - p) / 20000) ** 0.5
            assert abs(float(data.column(name).mean()) - p) < 5 * se

    def test_deterministic_mechanisms_respected_rowwise(self):
        data = sample(sport_chain(), 300, 8)
        assert np.array_equal(data.column("practice"), data.column("win_medals"))
        assert np.array_equal(data.column("practice"), data.column("lose_weight"))

    def test_unknown_name_is_an_unknown_variable_error(self):
        with pytest.raises(UnknownVariableError, match="kettle"):
            sample(stove_water(), 10, 1, names=("water", "kettle"))

    def test_repeated_name_is_a_data_error(self):
        with pytest.raises(DataError, match="more than once"):
            sample(stove_water(), 10, 1, names=("water", "stove", "water"))


def reference_sample_columns(graph, n, rng, preset=None):
    """The sampler as it was before it took ``names``: every variable, one
    vectorized draw block per variable in topological order; preset columns
    are copied through and consume no draws."""
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


@settings(max_examples=200, deadline=None)
@given(graph_seed=st.integers(0, 10_000), n=st.integers(0, 300), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_sampled_columns_match_a_full_sample(graph_seed, n, seed, data):
    """A sample of some names holds exactly those columns of the full
    sample, and the full sample is the per-variable reference's."""
    graph = dag_from_seed(graph_seed, max_nodes=10)
    names = data.draw(st.lists(st.sampled_from(graph.names), unique=True), label="names")
    full = sample(graph, n, seed)
    assert np.array_equal(full.values, reference_sample_columns(graph, n, engine._rng(np.random.SeedSequence(seed))))
    part = sample(graph, n, seed, names=names)
    assert part.variables == tuple(names)
    assert part.n_rows == n
    assert np.array_equal(part.values, full.values[:, [graph.index(name) for name in names]])


@settings(max_examples=100, deadline=None)
@given(graph_seed=st.integers(0, 10_000), n=st.integers(0, 300), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_observational_sample_matches_the_reference(graph_seed, n, seed, data):
    """The preset selector column consumes no draws, as in the reference."""
    graph = dag_from_seed(graph_seed, max_nodes=10)
    selector = graph.names[0]  # the first variable of a random DAG is a root
    clamped = data.draw(st.sampled_from(graph.names[1:]), label="clamped")
    regime = Regime({clamped: data.draw(st.integers(0, 1), label="value")})
    graphs = {NATURAL_LABEL: graph, regime.label(): mutilate(graph, regime)}
    share = data.draw(st.tuples(st.floats(0, 1), st.floats(0, 1)), label="share")
    probs = {v: {NATURAL_LABEL: share[v], regime.label(): 1.0 - share[v]} for v in (0, 1)}
    got = sample_observational(graphs, selector, probs, n, seed)
    with mock.patch.object(engine, "_sample_columns", reference_sample_columns):
        expected = sample_observational(graphs, selector, probs, n, seed)
    assert rows_of(got) == rows_of(expected)


class TestDatasetCsv:
    def test_round_trip(self):
        data = sample(education_salary(), 50, 3, regime_label="natural")
        read = Dataset.from_csv(data.to_csv())
        assert read.values is read.regime_codes is None
        assert cell_summary(read) == cell_summary(data)

    def test_bytes_text_and_blocks_read_alike(self):
        text = 'a,regime\n0,"x\ny"\n1,natural\n'
        raw = text.encode("utf-8")
        read = cell_summary(Dataset.from_csv(text))
        assert read == cell_summary(reference_from_csv(text))
        for data in (raw, bytearray(raw), [raw[:12], raw[12:]], iter([raw[:3], b"", raw[3:]])):
            assert cell_summary(Dataset.from_csv(data)) == read

    def test_header_has_trailing_regime(self):
        text = sample(stove_water(), 2, 1).to_csv()
        assert text.splitlines()[0] == "stove,water,regime"

    def test_missing_regime_column(self):
        with pytest.raises(SpecError):
            Dataset.from_csv("a,b\n0,1\n")

    def test_non_binary_value_reports_line(self):
        text = "a,regime\n0,natural\n2,natural\n"
        with pytest.raises(SpecError) as err:
            Dataset.from_csv(text)
        assert "3" in str(err.value)

    def test_short_row_reports_line(self):
        text = "a,b,regime\n0,1,natural\n0,natural\n"
        with pytest.raises(SpecError) as err:
            Dataset.from_csv(text)
        assert "3" in str(err.value)

    @pytest.mark.parametrize("in_header", [True, False])
    def test_field_over_csv_limit_reports_line(self, in_header):
        big = "x" * (csv.field_size_limit() + 1)
        if in_header:
            text, line = f"{big},regime\n0,natural\n", 1
        else:
            text, line = f"a,regime\n0,natural\n1,{big}\n", 3
        with pytest.raises(SpecError) as err:
            Dataset.from_csv(text)
        assert err.value.line == line

    def test_empty_document(self):
        with pytest.raises(SpecError):
            Dataset.from_csv("")

    @pytest.mark.parametrize(
        "raw, message",
        [
            (b"a,regime\n0,x\xff\n", "line 2: unreadable CSV record: byte 0xff is not UTF-8"),
            (b"a\xe9,regime\n0,x\n", "line 1: unreadable CSV record: byte 0xe9 is not UTF-8"),
            (b'a,regime\n0,x\n0,"x\ny\xc3"\n1,x\n', "line 3: unreadable CSV record: byte 0xc3 is not UTF-8"),
            (b"a,regime\n0,x\n1,x,y\n0,\xffx\n", "line 3: wrong number of fields"),
            (b'a,regime\n"0",x\n\n0,x\xff\n1,x,y\n', "line 4: unreadable CSV record: byte 0xff is not UTF-8"),
        ],
    )
    def test_bytes_that_are_not_utf8_name_their_record(self, raw, message):
        for data in (raw, [raw[k : k + 1] for k in range(len(raw))]):
            with pytest.raises(SpecError) as err:
                Dataset.from_csv(data)
            assert str(err.value) == message

    def test_repeated_column_is_a_data_error(self):
        message = r"^data columns \['practice'\] appear more than once$"
        with pytest.raises(DataError, match=message):
            Dataset.from_csv("practice,practice,regime\n1,0,natural\n1,0,natural\n")
        with pytest.raises(DataError, match=message):
            make_dataset(["practice", "be_fit", "practice"], [(1, 0, 0)])


def reference_records(data: Dataset) -> list[str]:
    """The header and each row as ``csv.writer`` writes it, one record
    each: a quoted label may hold line ends."""
    rows = [list(data.variables) + ["regime"]]
    rows += [[*map(str, values), label] for values, label in zip(data.values.tolist(), row_labels(data))]
    records = []
    for row in rows:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow(row)
        records.append(buf.getvalue())
    return records


def reference_to_csv(data: Dataset) -> str:
    """Per-row ``csv.writer`` encoding: the bytes ``to_csv`` must produce."""
    return "".join(reference_records(data))


def csv_records(text: str):
    """(record number, row) pairs as ``csv`` reads them; a ``csv.Error``
    becomes a SpecError naming its record."""
    reader = csv.reader(io.StringIO(text))
    for lineno in itertools.count(1):
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise SpecError(f"unreadable CSV record: {exc}", line=lineno) from None
        yield lineno, row


def reference_from_csv(text: str) -> Dataset:
    """Per-row ``csv`` parse: the reader contract ``from_csv`` must keep,
    the labels of the rows as its table, sorted."""
    records = csv_records(text)
    try:
        _, header = next(records)
    except StopIteration:
        raise SpecError("empty CSV document") from None
    if not header or header[-1] != "regime":
        raise SpecError('CSV header must end with a "regime" column')
    rows = []
    labels = []
    for lineno, row in records:
        if not row:
            continue
        if len(row) != len(header):
            raise SpecError("wrong number of fields", line=lineno)
        for cell in row[:-1]:
            if cell not in ("0", "1"):
                raise SpecError(f"value {cell!r} is not 0 or 1", line=lineno)
        rows.append([int(c) for c in row[:-1]])
        labels.append(row[-1])
    values = np.array(rows, dtype=np.int8).reshape(len(rows), len(header) - 1)
    return labeled_dataset(header[:-1], values, labels, sorted(set(labels)))


def parse_outcome(parse, text):
    """The Dataset a parser returns, or the type and text of its error."""
    try:
        return parse(text)
    except (SpecError, DataError, csv.Error) as exc:
        return type(exc), str(exc)


def split(raw: bytes, cuts) -> list[bytes]:
    """``raw`` cut at each offset in ``cuts``, taken modulo its length + 1."""
    at = sorted({c % (len(raw) + 1) for c in cuts})
    return [raw[a:b] for a, b in zip([0, *at], [*at, len(raw)])]


def read_outcome(data):
    """``cell_summary`` of the ``from_csv`` outcome of ``data``, after
    checking that a dataset it reads holds no rows."""
    outcome = parse_outcome(Dataset.from_csv, data)
    assert not isinstance(outcome, Dataset) or outcome.values is outcome.regime_codes is None
    return cell_summary(outcome)


def in_blocks(raw: bytes, cuts):
    """``read_outcome`` of ``raw`` cut at ``cuts`` and cut into single bytes."""
    return [read_outcome(blocks) for blocks in (split(raw, cuts), split(raw, range(len(raw))))]


# Names and labels with commas, quotes, newlines, spaces and non-ASCII text.
# No "\r": csv.writer leaves it unquoted when the line terminator is "\n",
# so a field holding one does not survive a csv round trip at all.
csv_text = st.text(alphabet=st.sampled_from(list('ab0,"\n é✓=;')), max_size=6)
# Labels may also hold lines that read like a row of 0/1 cells, so a line
# inside a quoted label can look like the start of a record.
csv_label = st.lists(
    st.sampled_from(['"', "\n", "\n0,", "\n1,", "\n0,1,", '"\n1,', "a", ",", "é"]), max_size=4
).map("".join)


@st.composite
def datasets(draw, wide=False):
    """Datasets with awkward names and labels; ``wide`` ones may also have
    rows of 60 to 70 variables, wider than one 64-bit cell key."""
    n_vars = draw(st.one_of(st.integers(0, 12), st.integers(60, 70)) if wide else st.integers(0, 12))
    n_rows = draw(st.integers(0, 25))
    variables = draw(st.lists(csv_text, min_size=n_vars, max_size=n_vars, unique=True))
    # One integer per row, its bits the row's cells: one draw per row.
    rows = draw(st.lists(st.integers(0, (1 << n_vars) - 1), min_size=n_rows, max_size=n_rows))
    table = draw(
        st.lists(st.one_of(st.just("natural"), csv_text, csv_label), min_size=1, max_size=4, unique=True)
    )
    labels = draw(st.lists(st.sampled_from(table), min_size=n_rows, max_size=n_rows))
    values = np.array([[row >> k & 1 for k in range(n_vars)] for row in rows], dtype=np.int8).reshape(n_rows, n_vars)
    return labeled_dataset(variables, values, labels)


PERTURBATIONS = (
    "bad_cell", "bad_last_cell", "short_row", "long_row", "blank_line", "quoted_cell", "crlf", "no_final_newline"
)


def perturb(text: str, kind: str, at: int) -> str:
    if kind == "crlf":
        return text.replace("\n", "\r\n")
    if kind == "no_final_newline":
        return text[:-1] if text.endswith("\n") else text
    lines = text.split("\n")
    k = at % len(lines)
    line = lines[k]
    if kind == "bad_cell":
        lines[k] = "2" + line[1:]
    elif kind == "bad_last_cell":
        # The byte where a row's last cell is, after as many cells as the header names.
        last = 2 * len(next(csv.reader(io.StringIO(text)), ["regime"])) - 4
        lines[k] = line[:last] + "/" + line[last + 1 :] if last >= 0 else line
    elif kind == "short_row":
        lines[k] = line[2:]
    elif kind == "long_row":
        lines[k] = "0," + line
    elif kind == "blank_line":
        lines.insert(k, "")
    else:
        lines[k] = '"' + line[:1] + '"' + line[1:]
    return "\n".join(lines)


# Four rows of 17 cells, which a bad byte in the first or the last cell of
# a line sends to the slow path.
SEVENTEEN_CELLS = labeled_dataset(
    [f"v{k}" for k in range(17)], np.eye(4, 17, 15, dtype=np.int8), ["natural", "x=1", "natural", "x=1"]
)


class TestCsvCodecProperties:
    @settings(max_examples=200, deadline=None)
    @given(data=datasets())
    def test_to_csv_matches_reference_and_round_trips(self, data):
        text = data.to_csv()
        assert text == reference_to_csv(data)
        assert read_outcome(text) == read_outcome(text.encode("utf-8")) == cell_summary(sorted_table(data))

    @settings(max_examples=300, deadline=None)
    @given(
        data=datasets(wide=True),
        edits=st.lists(
            st.tuples(st.sampled_from(PERTURBATIONS), st.integers(0, 1000)), min_size=1, max_size=3
        ),
    )
    @example(data=SEVENTEEN_CELLS, edits=[("bad_cell", 3)])
    @example(data=SEVENTEEN_CELLS, edits=[("bad_last_cell", 3)])
    def test_perturbed_text_reads_like_reference(self, data, edits):
        text = data.to_csv()
        for kind, at in edits:
            text = perturb(text, kind, at)
        expected = cell_summary(parse_outcome(reference_from_csv, text))
        assert read_outcome(text) == read_outcome(text.encode("utf-8")) == expected

    @settings(max_examples=100, deadline=None)
    @given(data=datasets(wide=True), cuts=st.lists(st.integers(0, 5000), max_size=8))
    @example(data=labeled_dataset([], np.zeros((0, 0), dtype=np.int8), []), cuts=[])
    def test_blocks_at_any_offsets_round_trip(self, data, cuts):
        raw = data.to_csv().encode("utf-8")
        expected = cell_summary(sorted_table(data))
        assert read_outcome(raw) == expected
        for outcome in in_blocks(raw, cuts):
            assert outcome == expected

    @settings(max_examples=150, deadline=None)
    @given(
        data=datasets(wide=True),
        edits=st.lists(
            st.tuples(st.sampled_from(PERTURBATIONS), st.integers(0, 1000)), min_size=1, max_size=3
        ),
        cuts=st.lists(st.integers(0, 5000), max_size=8),
    )
    @example(data=SEVENTEEN_CELLS, edits=[("bad_cell", 3)], cuts=[150])
    @example(data=SEVENTEEN_CELLS, edits=[("bad_last_cell", 3)], cuts=[150])
    def test_perturbed_blocks_read_like_one_block(self, data, edits, cuts):
        text = data.to_csv()
        for kind, at in edits:
            text = perturb(text, kind, at)
        raw = text.encode("utf-8")
        one = read_outcome(raw)
        assert one == cell_summary(parse_outcome(reference_from_csv, text))
        for outcome in in_blocks(raw, cuts):
            assert outcome == one

    @settings(max_examples=150, deadline=None)
    @given(data=datasets(wide=True), order=st.data(), cuts=st.lists(st.integers(0, 5000), max_size=8))
    def test_records_in_any_order_and_blocks_read_alike(self, data, order, cuts):
        # Records move whole, so a quoted label's lines stay together.
        header, *records = reference_records(data)
        shuffled = order.draw(st.permutations(records), label="shuffled")
        expected = read_outcome(data.to_csv().encode("utf-8"))
        assert expected[:2] == (data.variables, tuple(sorted(set(row_labels(data)))))
        raw = "".join([header, *shuffled]).encode("utf-8")
        assert read_outcome(raw) == read_outcome(split(raw, cuts)) == expected

    @pytest.mark.parametrize("text", ["", "\n", "a,regime\n", "a,b,regime\r\n\r\n", "a,b\n0,1\n"])
    def test_cells_alone_of_no_rows(self, text):
        raw = text.encode("utf-8")
        expected = cell_summary(parse_outcome(reference_from_csv, text))
        assert read_outcome(text) == read_outcome(raw) == read_outcome(split(raw, range(len(raw)))) == expected

    @pytest.mark.parametrize(
        "text",
        [
            'a,b,regime\n"0",1,natural\n1,"1","x,y"\n',
            "a,b,regime\r\n0,1,natural\r\n\r\n1,1,natural",
            'a,regime\n0,"two\nlines"\n1,natural\n3,natural\n',
            "a,regime\n0,natural\n\n1,natural,extra\n",
            'a,regime\n0,"open\n1,natural\n',
            "regime\nnatural\n\r\n\"\"\n",
            "a,regime\n0,natural\n1,nat\rural\n",
            "a\rb,regime\n0,natural\n",
            "a,b,a,regime\n0,1,1,natural\n",
            # Two labels of one tail length, interleaved: y=1 is seen first.
            "a,regime\n0,y=1\n1,x=1\n1,y=1\n0,x=1\n0,x=1\n1,y=1\n",
            # x=1 is first seen on a quoted record that csv reads alone.
            'a,regime\n0,"x=1"\n1,y=1\n0,x=1\n1,x=1\n',
            'a,regime\n0,"y\n1,x=1"\n1,x=1\n0,y=1\n',
            # Tails of 14 and 20 bytes that differ in one byte, in the first
            # or the last of their 64-bit words.
            "a,regime\n0,protein_diet=0\n1,proteIn_diet=0\n0,protein_diet=0\n1,protein_diet=1\n",
            "a,b,regime\n0,1,a_twenty_byte_label\n1,0,a_twenty_byte_labeL\n0,0,A_twenty_byte_label\n",
            # Tails that differ only in the byte next to the masked ones.
            "a,regime\n0,abcdef\n1,abcdef\n0,xbcdef\n1,abcdefgh\n0,xbcdefgh\n",
            # More distinct tails of one length than log2 of their lines.
            "a,regime\n" + "".join(f"{k % 2},x{k % 11:02}\n" for k in range(40)),
        ],
    )
    def test_examples_read_like_reference(self, text):
        assert read_outcome(text) == cell_summary(parse_outcome(reference_from_csv, text))

    def test_label_order_skips_a_line_inside_a_quoted_label(self):
        # "1,y\"" reads like a row with label 'y"', but it ends the quoted
        # label of the record before it.
        data = Dataset.from_csv('a,regime\n0,"x\n1,y"\n1,z\n')
        assert data.regime_table == ("x\n1,y", "z")
        assert cell_summary(data) == cell_summary(make_dataset(["a"], [(0,), (1,)], ["x\n1,y", "z"]))

    def test_many_labels_round_trip(self):
        # 300 labels need 16-bit codes; some are quoted and span lines.
        labels = [f"x{k}=1" if k % 3 else f'"x{k}"\n1,' for k in range(300)]
        rows = np.arange(900) % 2
        data = labeled_dataset(["a"], rows.reshape(-1, 1), labels[::-1] + labels * 2)
        read = Dataset.from_csv(data.to_csv())
        assert cell_summary(read) == cell_summary(sorted_table(data)) and read.regime_table == tuple(sorted(labels))
        assert read.cells.codes.dtype == np.uint16
        # Read in blocks, the table grows block by block.
        raw = data.to_csv().encode("utf-8")
        for blocks in (raw, split(raw, range(0, len(raw), 97))):
            assert read_outcome(blocks) == cell_summary(sorted_table(data))

    def test_cells_alone_are_merged_in_batches(self, monkeypatch):
        # 2,000 distinct rows of 30 variables in about 650 blocks of three
        # rows. Merging each block into all the cells so far would sort
        # about 650,000 cells; merging once the waiting cells outnumber the
        # merged ones sorts at most three times the rows.
        rows = np.random.default_rng(5).integers(0, 2, size=(2000, 30), dtype=np.int8)
        data = labeled_dataset([f"v{k}" for k in range(30)], rows, ["x", "y"] * 1000)
        raw = data.to_csv().encode("utf-8")
        merged, cell_table = [], engine._cell_table

        def counted(codes, values, n_labels, weights=None):
            merged.extend([len(codes)] if weights is not None else [])
            return cell_table(codes, values, n_labels, weights)

        monkeypatch.setattr(engine, "_cell_table", counted)
        assert read_outcome(split(raw, range(0, len(raw), 200))) == cell_summary(data)
        assert 0 < sum(merged) <= 3 * len(rows)


class TestRecordReader:
    """``from_csv`` hands ``csv`` the header, the first line of each distinct
    label tail, and each record the bulk path does not decode: one
    ``csv.reader`` each, all through ``engine._read_record``."""

    def read(self, text, monkeypatch):
        """The outcome of ``from_csv`` and how many ``csv.reader`` calls it
        made, after checking that the outcome is the reference's."""
        expected = parse_outcome(reference_from_csv, text)
        calls = []
        reader = csv.reader

        def counting(lines):
            calls.append(lines)
            return reader(lines)

        with monkeypatch.context() as patch:
            patch.setattr(engine.csv, "reader", counting)
            outcome = parse_outcome(Dataset.from_csv, text)
        assert cell_summary(outcome) == cell_summary(expected)
        return outcome, len(calls)

    def test_one_reader_per_header_distinct_tail_and_slow_record(self, monkeypatch):
        text = (
            "a,b,regime\n"
            "0,1,natural\n1,1,natural\n0,0,x=1\n1,0,natural\n"
            '"0",1,natural\n'  # a quoted cell: a slow record
            '1,1,"y\nz"\n'  # the tail '"y' is read, then its record
            "\n0,1,x=1\n"
        )
        data, calls = self.read(text, monkeypatch)
        assert data.regime_table == ("natural", "x=1", "y\nz")
        assert calls == 1 + 3 + 2

    def test_tail_that_opens_a_quoted_label_closed_on_the_next_line(self, monkeypatch):
        # The tail '"x' opens a record on lines 2 and 4; 'y"' ends one.
        data, calls = self.read('a,regime\n0,"x\n1,y"\n1,"x\nz"\n1,y"\n', monkeypatch)
        assert data.regime_table == ("x\n1,y", "x\nz", 'y"')
        assert calls == 1 + 2 + 2

    @pytest.mark.parametrize(
        "last, label, calls",
        [("1,y", "y", 1 + 2), ('1,"y', "y", 1 + 2 + 1), ("1,x\r", "x", 1 + 2)],
        ids=["plain", "open-quote", "cr"],
    )
    def test_last_line_without_a_newline(self, last, label, calls, monkeypatch):
        data, made = self.read("a,regime\n0,x\n" + last, monkeypatch)
        assert data.regime_table[-1] == label and data.n_rows == 2
        assert made == calls

    def test_quoted_header_name_over_two_lines_is_record_1(self, monkeypatch):
        data, calls = self.read('"a\nb",regime\n0,x\n1,x\n', monkeypatch)
        assert data.variables == ("a\nb",) and calls == 1 + 1
        outcome, _ = self.read('"a\nb",regime\n0,x\n\n2,x\n', monkeypatch)
        assert outcome == (SpecError, "line 4: value '2' is not 0 or 1")
        outcome, _ = self.read('"a\nb",regime\n0,x\n1,x,y\n', monkeypatch)
        assert outcome == (SpecError, "line 3: wrong number of fields")

    def test_tails_longer_than_the_field_limit_are_read_alone(self, monkeypatch):
        # Under a limit of 16, 16-byte tails are compared in bulk; each
        # CRLF line's 17-byte tail and a quoted label's 18-byte tail are
        # records of their own that csv reads, and a 17-byte label is rejected.
        limit = csv.field_size_limit(16)
        try:
            x = "x" * 16
            text = f'a,b,regime\n0,1,natural\n1,1,{x}\n0,0,{x}\r\n1,0,"{x}"\n1,1,{x}\n0,1,{x}\r\n'
            data, calls = self.read(text, monkeypatch)
            assert data.regime_table == ("natural", x) and data.n_rows == 6
            assert calls == 1 + 2 + 3
            outcome = parse_outcome(Dataset.from_csv, f"a,b,regime\n0,1,natural\n0,0,{x}y\n")
            assert outcome == (SpecError, "line 3: unreadable CSV record: field larger than field limit (16)")
        finally:
            csv.field_size_limit(limit)

    def test_read_record_reports_lines_asked_and_end(self):
        text = b'h\n0,"x\ny"\n1,z'
        assert engine._read_record(text, 0, len(text)) == (["h"], 1, 2)
        assert engine._read_record(text, 2, len(text)) == (["0", "x\ny"], 2, 10)
        # Stopped at its first line's end, the record asks for a line it is not given.
        assert engine._read_record(text, 2, 6) == (["0", "x\n"], 2, 7)
        assert engine._read_record(text, 10, len(text)) == (["1", "z"], 1, 13)
        assert engine._read_record(text, 13, len(text)) == (None, 1, 13)


class TestBlocks:
    """The command line reads a data file in blocks of ``cli._BLOCK`` bytes,
    here a few, each cut after a line end; every cut must read like the
    whole file, as ``reference_from_csv`` reads its text."""

    def read(self, raw, tmp_path, monkeypatch, sizes=range(1, 24)):
        """The outcome at each block size, after checking it is the reference's."""
        path = tmp_path / "data.csv"
        path.write_bytes(raw)
        expected = parse_outcome(reference_from_csv, path.read_text(encoding="utf-8"))
        outcomes = []
        for size in sizes:
            monkeypatch.setattr(cli, "_BLOCK", size)
            blocks = list(cli._blocks(str(path)))
            assert all(block.endswith(b"\n") for block in blocks[:-1])
            outcome = parse_outcome(Dataset.from_csv, cli._blocks(str(path)))
            assert cell_summary(outcome) == cell_summary(expected), size
            outcomes.append(outcome)
        return outcomes

    def test_utf8_character_split_across_blocks(self, tmp_path, monkeypatch):
        raw = "a,regime\n0,é✓\n1,natural\n0,é✓\n".encode("utf-8")
        (data, *_) = self.read(raw, tmp_path, monkeypatch)
        assert data.regime_table == ("natural", "é✓")

    @pytest.mark.parametrize(
        "raw, outcome",
        [
            (b'a,regime\r\n0,"x\r\ny"\r\n1,y\r\n\r\n0,x\r1,"y\r\nz"\r', ("x", "x\ny", "y", "y\nz")),
            (b"a,regime\r\n0,x\r\n1,y\r\n2,x\r\n", (SpecError, "line 4: value '2' is not 0 or 1")),
        ],
    )
    def test_cr_ending_a_block_pairs_with_the_next_lf(self, raw, outcome, tmp_path, monkeypatch):
        # Read as two line ends, a split "\r\n" would add a line to a label or a record.
        # Every label is distinct, so the table lists the row labels, sorted.
        for read in self.read(raw, tmp_path, monkeypatch):
            assert (read.regime_table if isinstance(read, Dataset) else read) == outcome

    def test_quoted_label_over_a_cut(self, tmp_path, monkeypatch):
        raw = b'a,regime\n0,"x\n1,y\n\n0,"\n1,z\n1,"x\n1,y\n\n0,"\n'
        (data, *_) = self.read(raw, tmp_path, monkeypatch)
        assert data.regime_table == ("x\n1,y\n\n0,", "z")
        assert data.tally(()).counts.tolist() == [2, 1]

    def test_labels_sorted_across_blocks(self, tmp_path, monkeypatch):
        raw = b"a,regime\n0,y=1\n1,y=1\n0,x=1\n1,y=1\n" + b"0,z\n" * 5 + b"1,x=1\n0,w\n"
        for data in self.read(raw, tmp_path, monkeypatch):
            assert data.regime_table == ("w", "x=1", "y=1", "z")

    @pytest.mark.parametrize(
        "raw, message",
        [
            (b"a,regime\n0,x\n1,x\n\n0,x,y\n2,x\n", "line 5: wrong number of fields"),
            (b'a,regime\n0,x\n"1",x\n0,"x\ny"\n\n2,x\n0,x,y\n', "line 6: value '2' is not 0 or 1"),
            (b'"a\nb",regime\n0,"x\n\n"\n1,x\n0,x\n1\n', "line 5: wrong number of fields"),
        ],
    )
    def test_first_bad_record_keeps_its_message_and_number(self, raw, message, tmp_path, monkeypatch):
        for outcome in self.read(raw, tmp_path, monkeypatch):
            assert outcome == (SpecError, message)

    def test_reading_holds_no_temporary_the_size_of_the_file(self, tmp_path, monkeypatch):
        # Past the cells it returns, reading 4x the rows takes no more memory.
        monkeypatch.setattr(cli, "_BLOCK", 1024)
        extra = []
        for n in (5000, 20000):
            path = tmp_path / f"{n}.csv"
            data = sample(education_salary(), n, 1, regime_label="natural")
            path.write_text(data.to_csv().replace(",natural\n", ",natural\r\n"), encoding="utf-8")
            tracemalloc.start()
            read = Dataset.from_csv(cli._blocks(str(path)))
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert cell_summary(read) == cell_summary(data) and path.stat().st_size > 50 * cli._BLOCK
            extra.append(peak - sum(array.nbytes for array in vars(read.cells).values()))
        assert extra[1] < extra[0] + 4096, extra


class TestDatasetOps:
    @pytest.mark.parametrize(
        "rows, codes, table, message",
        [
            (2, [0, 0, 0], ("natural",), r"^shape \(2, 1\) inconsistent with \(3,\) codes x 1 variables$"),
            (1, [0], ("natural", "natural"), "^regime table labels must be distinct$"),
            (1, [1], ("natural",), "^regime codes outside a table of 1 labels$"),
            (1, None, ("natural",), "^values and regime codes must both be given or both be None$"),
            (None, [0], ("natural",), "^values and regime codes must both be given or both be None$"),
        ],
        ids=["shape", "repeated-label", "code-range", "values-alone", "codes-alone"],
    )
    def test_constructor_checks(self, rows, codes, table, message):
        values = None if rows is None else np.zeros((rows, 1))
        with pytest.raises(ValueError, match=message):
            Dataset(("a",), values, None if codes is None else np.array(codes, dtype=np.uint8), table)

    def test_code_range_check_of_signed_codes(self):
        with pytest.raises(ValueError, match="^regime codes outside a table of 1 labels$"):
            Dataset(("a",), np.zeros((1, 1)), np.array([-1]), ("natural",))
        assert Dataset(("a",), np.zeros((1, 1)), np.array([0]), ("natural",)).n_rows == 1

    def test_lookups_outside_the_data(self):
        data = make_dataset(["a"], [(0,), (1,)])
        with pytest.raises(UnknownVariableError, match=r"^unknown column 'ghost'$"):
            data.column("ghost")
        with pytest.raises(UnknownVariableError, match=r"^unknown column 'ghost'$"):
            data.tally(["a", "ghost"])
        # A label no row carries gets no arm.
        unused = Dataset(("a",), data.values, data.regime_codes, ("natural", "unused"))
        arms = [(arm.regime.label(), arm.n, arm.acts) for arm in arms_from_dataset(unused, "a")]
        assert arms == [("natural", row_count(data, "natural", {}), row_count(data, "natural", {"a": 1}))]
        with pytest.raises(ValueError, match="^n must be >= 0$"):
            sample(stove_water(), -1, 0)

    def test_filter_regimes(self):
        # The kept cells, in a dataset of cells alone with the whole table.
        data = make_dataset(["a"], [(0,), (1,), (1,)], ["natural", "x=1", "natural"])
        kept = data.filter_regimes(["x=1", "unknown"])
        assert kept.values is kept.regime_codes is None
        assert kept.n_rows == 1 and kept.regime_table == ("natural", "x=1")
        assert _cell_counts(kept) == {(1, (1,)): 1} == _cell_reference(data, labels=["x=1"])
        assert data.filter_regimes([]).n_rows == 0

    def test_regimes_present_are_sorted(self):
        data = make_dataset(["a"], [(0,), (1,), (0,)], ["z=1", "natural", "z=1"])
        read = Dataset.from_csv(data.to_csv())
        assert read.regime_table == ("natural", "z=1")
        tally = read.tally(())
        assert [(read.regime_table[code], n) for code, n in zip(tally.codes.tolist(), tally.counts.tolist())] == [
            (label, row_count(data, label, {})) for label in ("natural", "z=1")
        ]

    def test_arrays_are_read_only(self):
        values = np.array([[0, 1], [1, 1]], dtype=np.int8)
        data = labeled_dataset(["a", "b"], values, ["natural", "x=1"])
        for array in (data.values, data.regime_codes, *vars(data.cells).values()):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        values[0, 0] = 1  # the caller's own array stays writable

    def test_copies_stay_read_only_and_recount_their_cells(self):
        data = make_dataset(["a", "b"], [(0, 1), (1, 1), (0, 1)], ["natural", "x=1", "natural"])
        data.cells
        for twin in (copy.deepcopy(data), pickle.loads(pickle.dumps(data))):
            assert rows_of(twin) == rows_of(data) and "cells" not in vars(twin)
            for array in (twin.values, twin.regime_codes):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0
            assert _cell_counts(twin) == _cell_counts(data)
        for table in (copy.deepcopy(data.cells), pickle.loads(pickle.dumps(data.cells))):
            for name, array in vars(table).items():
                assert np.array_equal(array, getattr(data.cells, name))
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0

    def test_a_dataset_of_cells_alone(self):
        data = make_dataset(["a", "b"], [(0, 1), (1, 1), (0, 1), (1, 0)], ["natural", "x=1", "natural", "x=1"])
        alone = Dataset.from_csv(data.to_csv())
        assert alone.values is alone.regime_codes is None and alone.n_rows == 4
        assert cell_summary(alone) == cell_summary(data)
        assert _cell_counts(alone, ["b"]) == _cell_reference(data, ["b"])
        # filter_regimes selects cells, from rows or from cells alone.
        kept = alone.filter_regimes(["x=1"])
        assert kept.values is None and kept.n_rows == 2 and kept.regime_table == alone.regime_table
        assert cell_summary(kept) == cell_summary(data.filter_regimes(["x=1"]))
        # Every call that needs rows names itself.
        calls = [
            ("Dataset.column", lambda: alone.column("a")),
            ("Dataset.to_csv", alone.to_csv),
        ]
        for name, call in calls:
            with pytest.raises(TypeError, match=f"^{name} needs the rows of a dataset, and this one holds only its cells$"):
                call()
        with pytest.raises(TypeError, match="^Dataset.cells needs the rows"):
            Dataset(("a",), None, None, ("natural",)).cells
        # Copies keep the cells, read-only.
        for original, twin in ((alone, copy.deepcopy(alone)), (kept, pickle.loads(pickle.dumps(kept)))):
            assert twin.values is None and cell_summary(twin) == cell_summary(original)
            for array in vars(twin.cells).values():
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0

    def test_cell_table_is_carried_by_filter_regimes(self):
        # A dataset of rows counts its cells on first use, and filter_regimes
        # keeps some of those cells; keeping every label keeps them all.
        data = make_dataset(
            ["a", "b"], [(0, 1), (1, 1), (0, 1), (1, 0)], ["natural", "x=1", "natural", "x=1"]
        )
        assert "cells" not in vars(data)
        kept = data.filter_regimes(["x=1"])
        assert "cells" in vars(data) and "cells" in vars(kept)
        assert _cell_counts(kept) == {(1, (1, 0)): 1, (1, (1, 1)): 1} == _cell_reference(data, labels=["x=1"])
        assert cell_summary(data.filter_regimes(data.regime_table)) == cell_summary(data)
        for array in vars(kept.cells).values():
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0


class TestRequirePossible:
    """ball -> pins is a copy, so pins must equal ball unless pins is clamped."""

    def test_sampled_data_pass(self):
        data = joined(
            [
                sample(ball_pins(), 200, 1),
                sample(mutilate(ball_pins(), Regime({"pins": 0})), 200, 2, "pins=0"),
            ]
        )
        require_possible(data, ball_pins())

    def test_contradicted_deterministic_row(self):
        data = make_dataset(["ball", "pins"], [(1, 1), (1, 0), (0, 1), (0, 0)])
        for read in (data, Dataset.from_csv(data.to_csv())):
            with pytest.raises(DataError, match="^2 of 4 rows have probability 0"):
                require_possible(read, ball_pins())

    def test_value_off_its_clamp(self):
        # Under the clamp, pins=0 with ball=1 is possible and pins=1 is not.
        data = make_dataset(["ball", "pins"], [(1, 0), (1, 0), (1, 1)], ["pins=0"] * 3)
        with pytest.raises(DataError, match="1 of 3 rows"):
            require_possible(data, ball_pins())

    def test_exempt_variable_not_checked(self):
        data = make_dataset(["ball", "pins"], [(1, 0)])
        require_possible(data, ball_pins(), exempt=("pins",))

    def test_column_order_is_free(self):
        data = make_dataset(["pins", "ball"], [(1, 1), (0, 0)])
        require_possible(data, ball_pins())

    def test_labels_must_name_graph_variables(self):
        data = make_dataset(["ball", "pins"], [(1, 1), (1, 0)], ["natural", "kettle=0"])
        with pytest.raises(UnknownVariableError, match="kettle"):
            require_possible(data, ball_pins())
        data = make_dataset(["ball", "pins"], [(1, 1), (1, 1)], ["natural", "pins=2"])
        with pytest.raises(SpecError, match="malformed regime label"):
            require_possible(data, ball_pins())
        # Only the labels that rows carry are read.
        require_possible(data.filter_regimes(["natural"]), ball_pins())

    def test_header_must_name_the_graph_variables(self):
        with pytest.raises(DataError, match="columns"):
            require_possible(make_dataset(["ball"], [(1,)]), ball_pins())
        extra = make_dataset(["ball", "pins", "dog"], [(1, 1, 0)])
        with pytest.raises(DataError, match="columns"):
            require_possible(extra, ball_pins())


def _cell_reference(dataset, names=None, labels=None) -> dict:
    """Reference for Dataset.cells, or for Dataset.tally(names): the rows
    tallied one at a time, only those labeled one of ``labels`` if given."""
    columns = [dataset.variables.index(name) for name in (dataset.variables if names is None else names)]
    cells = (
        (code, tuple(values[k] for k in columns))
        for code, values in zip(dataset.regime_codes.tolist(), dataset.values.tolist())
        if labels is None or dataset.regime_table[code] in labels
    )
    return dict(Counter(cells))


def _cell_counts(dataset, names=None) -> dict:
    """Dataset.cells, or Dataset.tally(names), as a dict, after checking
    that it is sorted."""
    cells = dataset.cells if names is None else dataset.tally(names)
    keys = list(zip(cells.codes.tolist(), map(tuple, cells.rows.tolist())))
    assert keys == sorted(keys) and (cells.counts > 0).all()
    assert cells.rows.shape == (len(keys), len(dataset.variables if names is None else names))
    return dict(zip(keys, cells.counts.tolist()))


def _impossible_rows(dataset, graph, exempt) -> int:
    """Reference for require_possible: rows whose probability, the product
    of the CPT rows of their regime's mutilated graph, is 0."""
    count = 0
    for values, label in zip(dataset.values.tolist(), row_labels(dataset)):
        row = dict(zip(dataset.variables, values))
        p = 1.0
        for var in mutilate(graph, Regime.from_label(label)).variables:
            if var.name not in exempt:
                p_one = var.cpt[tuple(row[q] for q in var.parents)]
                p *= p_one if row[var.name] == 1 else 1.0 - p_one
        count += p == 0.0
    return count


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10_000), data=st.data())
def test_require_possible_matches_per_row_reference(seed, data):
    graph = dag_from_seed(seed)
    # Make some CPT rows deterministic, so rows can contradict them.
    graph = graph.replace(
        *(
            Variable.make(
                var.name,
                var.parents,
                {
                    key: data.draw(st.sampled_from([p, p, 0.0, 1.0]))
                    for key, p in var.cpt.items()
                },
            )
            for var in graph.variables
        )
    )
    names = list(graph.names)
    clamp_sets = data.draw(
        st.lists(
            st.dictionaries(st.sampled_from(names), st.integers(0, 1), max_size=3),
            min_size=1,
            max_size=4,
        )
    )
    labels = [Regime(clamps).label() for clamps in clamp_sets]
    n = data.draw(st.integers(0, 30))
    columns = data.draw(st.permutations(names))
    cells = st.lists(st.integers(0, 1), min_size=len(names), max_size=len(names))
    rows = data.draw(st.lists(cells, min_size=n, max_size=n))
    values = np.array(rows, dtype=np.int8).reshape(n, len(names))
    row_labels = data.draw(st.lists(st.sampled_from(labels), min_size=n, max_size=n))
    exempt = data.draw(st.sets(st.sampled_from(names), max_size=2))
    dataset = labeled_dataset(columns, values, row_labels)

    expected = _impossible_rows(dataset, graph, exempt)
    if expected:
        with pytest.raises(DataError, match=f"^{expected} of {n} rows "):
            require_possible(dataset, graph, exempt=exempt)
    else:
        require_possible(dataset, graph, exempt=exempt)
    assert _cell_counts(dataset) == _cell_reference(dataset)

    # Arms and stratum counts, read from the same cells.
    action = data.draw(st.sampled_from(names))
    present = sorted(set(row_labels))
    arms = [(arm.regime.label(), arm.n, arm.acts) for arm in arms_from_dataset(dataset, action)]
    assert arms == [
        (label, row_count(dataset, label, {}), row_count(dataset, label, {action: 1}))
        for label in present
    ]
    others = [name for name in names if name != action]
    adjustment = data.draw(st.lists(st.sampled_from(others), unique=True, max_size=2))
    tally = dataset.tally(adjustment)
    got = zip(tally.codes.tolist(), map(tuple, tally.rows.tolist()), tally.counts.tolist())
    expected = [
        (label, combo, row_count(dataset, label, dict(zip(adjustment, combo))))
        for label in present
        for combo in itertools.product((0, 1), repeat=len(adjustment))
    ]
    assert sorted((dataset.regime_table[code], combo, n) for code, combo, n in got) == [
        cell for cell in expected if cell[2]
    ]
    if len(present) < 2:
        return
    pair = dataset.filter_regimes(present[:2])
    try:
        comparison = stratified_action_comparison(pair, action, adjustment)
    except TeleoError as exc:
        assert "minimum cell size" in str(exc)
        return
    for s in comparison.strata:
        stratum, acted = dict(s.key), {**dict(s.key), action: 1}
        assert (s.control_n, s.control_acts, s.treated_n, s.treated_acts) == (
            row_count(dataset, comparison.control_label, stratum),
            row_count(dataset, comparison.control_label, acted),
            row_count(dataset, comparison.treated_label, stratum),
            row_count(dataset, comparison.treated_label, acted),
        )


def test_wide_rows_reduce_to_cells():
    # 71 variables and 3 regime codes need 73 key bits, more than one
    # 64-bit key holds.  Every row is possible but the planted one, which
    # has e0 = 0 where e0 = AND(a, l0) = 1.
    graph = lever_chain(35)
    planted = dict.fromkeys(graph.names, 0) | {"a": 1, "l0": 1}
    data = joined(
        [
            sample(graph, 300, 1),
            sample(mutilate(graph, Regime({"l0": 0})), 300, 2, "l0=0"),
            make_dataset(graph.names, [tuple(planted.values())], ["l3=0"]),
        ]
    )
    assert _cell_counts(data) == _cell_reference(data)
    # Tallies of the 71 columns in reverse, and of every third, group wide rows too.
    for names in (graph.names[::-1], graph.names[::3]):
        assert _cell_counts(data, names) == _cell_reference(data, names)
        kept = data.filter_regimes(["l0=0", "l3=0"])
        assert _cell_counts(kept, names) == _cell_reference(data, names, ["l0=0", "l3=0"])
    assert _impossible_rows(data, graph, ()) == 1
    with pytest.raises(DataError, match=f"^1 of {data.n_rows} rows "):
        require_possible(data, graph)
    require_possible(data.filter_regimes(["natural", "l0=0"]), graph)


@settings(max_examples=200, deadline=None)
@given(
    n_vars=st.one_of(st.integers(0, 4), st.integers(5, 70)),
    n_labels=st.sampled_from([1, 2, 3, 5, 257, 300]),
    counted=st.booleans(),
    extra=st.integers(0, 300),
    seed=st.integers(0, 2**32 - 1),
)
@example(n_vars=0, n_labels=1, counted=False, extra=0, seed=0)
@example(n_vars=64, n_labels=1, counted=False, extra=200, seed=1)  # a key of exactly 64 bits
@example(n_vars=55, n_labels=300, counted=False, extra=200, seed=2)  # 9 code bits + 55: 64 bits
@example(n_vars=65, n_labels=1, counted=False, extra=200, seed=3)  # 65 bits: ranks
@example(n_vars=56, n_labels=300, counted=False, extra=200, seed=4)  # 9 code bits + 56: 65 bits
def test_cells_match_reference_on_both_sides_of_the_bin_rule(n_vars, n_labels, counted, extra, seed):
    """``Dataset.cells`` counts keys in bins when the key space is no larger
    than the row count (``counted``, possible here up to 13 key bits) and
    sorts them otherwise, at 8-, 16-, 32- and 64-bit keys and past 64 bits;
    either way its codes, rows and counts, in order and with their types,
    are the reference's.  So are those of weighted tallies of random
    column subsets, and the cells ``filter_regimes`` carries are the cells
    counted afresh."""
    bits = (n_labels - 1).bit_length() + n_vars
    counted = counted and bits <= 13
    n_rows = (1 << bits) + extra if counted else extra % (1 << bits)
    rng = np.random.default_rng(seed)
    # Codes below a random cap, so that some labels and cells stay empty,
    # and rows drawn from a random pool, so that wide rows repeat too.
    codes = rng.integers(0, rng.integers(1, n_labels, endpoint=True), n_rows)
    pool = rng.integers(0, 2, (rng.integers(1, n_rows, endpoint=True), n_vars), dtype=np.int8) if n_rows else None
    dataset = Dataset(
        tuple(f"v{k}" for k in range(n_vars)),
        pool[rng.integers(0, len(pool), n_rows)] if n_rows else np.zeros((0, n_vars), dtype=np.int8),
        codes.astype(engine._code_dtype(n_labels)),
        tuple(f"x{k}" for k in range(n_labels)),
    )
    assert _cell_counts(dataset) == _cell_reference(dataset)
    for _ in range(3):
        names = [dataset.variables[k] for k in rng.permutation(n_vars)[: rng.integers(0, n_vars, endpoint=True)]]
        assert _cell_counts(dataset, names) == _cell_reference(dataset, names)
        tally = dataset.tally(names)
        assert (tally.codes.dtype, tally.rows.dtype, tally.counts.dtype) == (dataset.regime_codes.dtype, np.int8, np.int64)
    assert dataset.cells.codes.dtype == dataset.regime_codes.dtype
    assert dataset.cells.rows.dtype == np.int8 and dataset.cells.counts.dtype == np.int64
    chosen = [code for code in range(n_labels) if rng.random() < 0.5]
    kept = dataset.filter_regimes(dataset.regime_table[code] for code in chosen)
    mask = np.isin(dataset.regime_codes, chosen)
    fresh = Dataset(dataset.variables, dataset.values[mask], dataset.regime_codes[mask], dataset.regime_table)
    for name in ("codes", "rows", "counts"):
        carried, recounted = getattr(kept.cells, name), getattr(fresh.cells, name)
        assert carried.dtype == recounted.dtype and np.array_equal(carried, recounted)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_tally_matches_per_row_reference(data):
    """``Dataset.tally`` reduces the cells to any columns, in any order, or
    to none: per regime code, each distinct value row of those columns,
    ascending, and how many rows carry it.  A label with no rows, such as
    the table's last one here, gets no cell, and a dataset that
    ``filter_regimes`` returns tallies the cells it carries."""
    variables = tuple(f"v{k}" for k in range(data.draw(st.integers(0, 5))))
    table = (*data.draw(st.lists(st.sampled_from(["natural", "x=1", "y=0"]), min_size=1, unique=True)), "unused")
    n = data.draw(st.integers(0, 60))
    codes = data.draw(st.lists(st.integers(0, len(table) - 2), min_size=n, max_size=n))
    values = data.draw(st.lists(st.integers(0, 1), min_size=n * len(variables), max_size=n * len(variables)))
    dataset = Dataset(
        variables,
        np.array(values, dtype=np.int8).reshape(n, len(variables)),
        np.array(codes, dtype=np.uint8),
        table,
    )
    labels = data.draw(st.sets(st.sampled_from(table)))
    kept = dataset.filter_regimes(labels)
    column_lists = st.lists(st.sampled_from(variables), unique=True) if variables else st.just([])
    for d, only in ((dataset, None), (kept, labels)):
        names = data.draw(column_lists)
        assert _cell_counts(d, names) == _cell_reference(dataset, names, only)
        assert d.regime_table.index("unused") not in d.tally(names).codes.tolist()
    with pytest.raises(UnknownVariableError, match=r"^unknown column 'ghost'$"):
        dataset.tally([*names, "ghost"])


def test_tally_of_a_header_only_dataset():
    data = Dataset.from_csv("a,b,regime\n")
    for names in ((), ("b", "a")):
        tally = data.tally(names)
        assert tally.codes.tolist() == tally.counts.tolist() == []
        assert tally.rows.shape == (0, len(names))


class TestObservationalSampling:
    def test_selector_drives_regime_membership(self):
        g = education_salary()
        graphs = {"natural": g, "education=1": mutilate(g, Regime({"education": 1}))}
        probs = {0: {"natural": 0.9, "education=1": 0.1}, 1: {"natural": 0.1, "education=1": 0.9}}
        data = sample_observational(graphs, "family_status", probs, 20000, 12)
        status = data.column("family_status")
        labels = np.asarray([lab == "education=1" for lab in row_labels(data)])
        rate_high = labels[status == 1].mean()
        rate_low = labels[status == 0].mean()
        assert abs(rate_high - 0.9) < 0.02
        assert abs(rate_low - 0.1) < 0.02

    def test_selector_column_consistent_with_preset(self):
        g = education_salary()
        graphs = {"natural": g}
        probs = {0: {"natural": 1.0}, 1: {"natural": 1.0}}
        data = sample_observational(graphs, "family_status", probs, 5000, 4)
        rate = float(data.column("family_status").mean())
        assert abs(rate - 0.4) < 0.03

    def test_deterministic(self):
        g = stove_water()
        graphs = {"natural": g, "water=0": mutilate(g, Regime({"water": 0}))}
        probs = {0: {"natural": 0.5, "water=0": 0.5}, 1: {"natural": 0.5, "water=0": 0.5}}
        a = sample_observational(graphs, "stove", probs, 500, 3)
        b = sample_observational(graphs, "stove", probs, 500, 3)
        assert rows_of(a) == rows_of(b)

    def test_selector_must_be_root(self):
        g = education_salary()
        with pytest.raises(Exception):
            sample_observational({"natural": g}, "salary", {0: {"natural": 1.0}, 1: {"natural": 1.0}}, 10, 1)

    @pytest.mark.parametrize(
        "natural, lever", [(float("nan"), 0.5), (1.5, -0.5)], ids=["nan", "negative"]
    )
    def test_selection_probabilities_must_be_finite_and_nonnegative(self, natural, lever):
        g = stove_water()
        graphs = {"natural": g, "water=0": mutilate(g, Regime({"water": 0}))}
        probs = {0: {"natural": natural, "water=0": lever}, 1: {"natural": 0.5, "water=0": 0.5}}
        with pytest.raises(ValueError, match="must be finite and >= 0"):
            sample_observational(graphs, "stove", probs, 10, 1)

    def test_regime_graphs_must_share_variables(self):
        probs = {0: {"natural": 1.0}, 1: {"natural": 1.0}}
        with pytest.raises(ValueError, match="^no regimes supplied$"):
            sample_observational({}, "stove", probs, 10, 1)
        graphs = {"natural": stove_water(), "other": education_salary()}
        with pytest.raises(ValueError, match="^all regime graphs must share the same variables$"):
            sample_observational(graphs, "stove", probs, 10, 1)

    @pytest.mark.parametrize(
        "stove_off, message",
        [
            ({"natural": 1.0}, "^selection probabilities must cover exactly the supplied regimes$"),
            ({"natural": 0.5, "water=0": 0.25}, "^selection probabilities for stove=0 sum to 0.75$"),
        ],
        ids=["missing-regime", "sum"],
    )
    def test_selection_probabilities_must_cover_the_regimes_and_sum_to_1(self, stove_off, message):
        g = stove_water()
        graphs = {"natural": g, "water=0": mutilate(g, Regime({"water": 0}))}
        probs = {0: stove_off, 1: {"natural": 0.5, "water=0": 0.5}}
        with pytest.raises(ValueError, match=message):
            sample_observational(graphs, "stove", probs, 10, 1)

    @pytest.mark.parametrize("keys", [(0,), (0, 1, 2)], ids=["missing", "extra"])
    def test_selection_probabilities_must_be_keyed_by_0_and_1(self, keys):
        g = stove_water()
        probs = {value: {"natural": 1.0} for value in keys}
        with pytest.raises(ValueError, match="must be keyed by stove=0 and 1"):
            sample_observational({"natural": g}, "stove", probs, 10, 1)
