import copy
import csv
import io
import itertools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from teleo import (
    DataError,
    Dataset,
    EnumerationLimitError,
    InvalidGraphError,
    Regime,
    RegimeError,
    SpecError,
    UnknownVariableError,
    Variable,
    ZeroProbabilityError,
    joint_enumerate,
    marginals,
    mutilate,
    query,
    require_possible,
    sample,
    sample_observational,
)
from teleo.graph import CausalGraph
from teleo.models import ball_pins, education_salary, sport_chain, stove_water

from .helpers import dag_from_seed, lever_chain, make_dataset, twin_chains


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
        assert a == b
        assert sample(g, 200, 43) != a

    def test_regime_label_applied(self):
        data = sample(stove_water(), 5, 1, regime_label="water=0")
        assert data.regime_labels == ("water=0",) * 5

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

    def test_provenance_records_seed_and_algorithm(self):
        data = sample(stove_water(), 3, 77)
        assert len(data.provenance) == 1
        record = data.provenance[0]
        assert record["rng"] == "pcg64"
        assert record["n"] == 3


class TestDatasetCsv:
    def test_round_trip(self):
        data = sample(education_salary(), 50, 3, regime_label="natural")
        assert Dataset.from_csv(data.to_csv()) == data

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


def reference_to_csv(data: Dataset) -> str:
    """Per-row ``csv.writer`` encoding: the bytes ``to_csv`` must produce."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(data.variables) + ["regime"])
    for row, label in zip(data.values, data.regime_labels):
        writer.writerow([str(int(v)) for v in row] + [label])
    return buf.getvalue()


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
    """Per-row ``csv`` parse: the reader contract ``from_csv`` must keep."""
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
    return Dataset.from_labels(header[:-1], values, labels)


def parse_outcome(parse, text):
    """The Dataset a parser returns, or the type and text of its error."""
    try:
        return parse(text)
    except (SpecError, csv.Error) as exc:
        return type(exc), str(exc)


# Names and labels with commas, quotes, newlines, spaces and non-ASCII text.
# No "\r": csv.writer leaves it unquoted when the line terminator is "\n",
# so a field holding one does not survive a csv round trip at all.
csv_text = st.text(alphabet=st.sampled_from(list('ab0,"\n é✓=;')), max_size=6)


@st.composite
def datasets(draw):
    n_vars = draw(st.integers(0, 12))
    n_rows = draw(st.integers(0, 25))
    variables = draw(st.lists(csv_text, min_size=n_vars, max_size=n_vars))
    cells = draw(st.lists(st.integers(0, 1), min_size=n_rows * n_vars, max_size=n_rows * n_vars))
    table = draw(st.lists(st.one_of(st.just("natural"), csv_text), min_size=1, max_size=4, unique=True))
    labels = draw(st.lists(st.sampled_from(table), min_size=n_rows, max_size=n_rows))
    values = np.array(cells, dtype=np.int8).reshape(n_rows, n_vars)
    return Dataset.from_labels(variables, values, labels)


PERTURBATIONS = ("bad_cell", "short_row", "long_row", "blank_line", "quoted_cell", "crlf", "no_final_newline")


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
    elif kind == "short_row":
        lines[k] = line[2:]
    elif kind == "long_row":
        lines[k] = "0," + line
    elif kind == "blank_line":
        lines.insert(k, "")
    else:
        lines[k] = '"' + line[:1] + '"' + line[1:]
    return "\n".join(lines)


class TestCsvCodecProperties:
    @settings(max_examples=200, deadline=None)
    @given(data=datasets())
    def test_to_csv_matches_reference_and_round_trips(self, data):
        text = data.to_csv()
        assert text == reference_to_csv(data)
        assert Dataset.from_csv(text) == data

    @settings(max_examples=300, deadline=None)
    @given(
        data=datasets(),
        edits=st.lists(
            st.tuples(st.sampled_from(PERTURBATIONS), st.integers(0, 1000)), min_size=1, max_size=3
        ),
    )
    def test_perturbed_text_reads_like_reference(self, data, edits):
        text = data.to_csv()
        for kind, at in edits:
            text = perturb(text, kind, at)
        assert parse_outcome(Dataset.from_csv, text) == parse_outcome(reference_from_csv, text)

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
        ],
    )
    def test_examples_read_like_reference(self, text):
        assert parse_outcome(Dataset.from_csv, text) == parse_outcome(reference_from_csv, text)


class TestDatasetOps:
    def test_filter_regimes(self):
        data = make_dataset(["a"], [(0,), (1,), (1,)], ["natural", "x=1", "natural"])
        kept = data.filter_regimes(["x=1"])
        assert kept.n_rows == 1
        assert kept.regime_labels == ("x=1",)

    def test_concat(self):
        a = make_dataset(["a"], [(0,)], ["natural"])
        b = make_dataset(["a"], [(1,)], ["x=1"])
        joined = Dataset.concat([a, b])
        assert joined.n_rows == 2
        assert joined.regime_labels == ("natural", "x=1")

    def test_concat_mismatched_columns(self):
        a = make_dataset(["a"], [(0,)])
        b = make_dataset(["b"], [(0,)])
        with pytest.raises(Exception):
            Dataset.concat([a, b])

    def test_equality_ignores_table_order(self):
        data = make_dataset(["a"], [(0,), (1,), (0,)], ["x=1", "natural", "x=1"])
        same = Dataset(
            variables=("a",),
            values=data.values,
            regime_codes=np.array([1, 0, 1], dtype=np.uint8),
            regime_table=("natural", "x=1", "unused"),
        )
        assert same == data and data == same
        assert same.regime_labels == data.regime_labels
        assert same.regimes_present() == ("x=1", "natural")
        assert not same.regime_mask("unused").any()
        assert make_dataset(["a"], [(0,)], ["x=1"]) != make_dataset(["a"], [(0,)], ["natural"])

    def test_regimes_present_preserves_first_seen_order(self):
        data = make_dataset(["a"], [(0,), (1,), (0,)], ["z=1", "natural", "z=1"])
        assert data.regimes_present() == ("z=1", "natural")


class TestRequirePossible:
    """ball -> pins is a copy, so pins must equal ball unless pins is clamped."""

    def test_sampled_data_pass(self):
        data = Dataset.concat(
            [
                sample(ball_pins(), 200, 1),
                sample(mutilate(ball_pins(), Regime({"pins": 0})), 200, 2, "pins=0"),
            ]
        )
        require_possible(data, ball_pins())

    def test_contradicted_deterministic_row(self):
        data = make_dataset(["ball", "pins"], [(1, 1), (1, 0), (0, 1), (0, 0)])
        with pytest.raises(DataError, match="2 of 4 rows"):
            require_possible(data, ball_pins())

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


def _impossible_rows(dataset, graph, exempt) -> int:
    """Reference for require_possible: rows whose probability, the product
    of the CPT rows of their regime's mutilated graph, is 0."""
    count = 0
    for values, label in zip(dataset.values.tolist(), dataset.regime_labels):
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
    dataset = Dataset.from_labels(columns, values, row_labels)

    expected = _impossible_rows(dataset, graph, exempt)
    if expected:
        with pytest.raises(DataError, match=f"^{expected} of {n} rows "):
            require_possible(dataset, graph, exempt=exempt)
    else:
        require_possible(dataset, graph, exempt=exempt)


class TestObservationalSampling:
    def test_selector_drives_regime_membership(self):
        g = education_salary()
        graphs = {"natural": g, "education=1": mutilate(g, Regime({"education": 1}))}
        probs = {0: {"natural": 0.9, "education=1": 0.1}, 1: {"natural": 0.1, "education=1": 0.9}}
        data = sample_observational(graphs, "family_status", probs, 20000, 12)
        status = data.column("family_status")
        labels = np.asarray([lab == "education=1" for lab in data.regime_labels])
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
        assert a == b

    def test_selector_must_be_root(self):
        g = education_salary()
        with pytest.raises(Exception):
            sample_observational({"natural": g}, "salary", {0: {"natural": 1.0}, 1: {"natural": 1.0}}, 10, 1)
