import hashlib

import pytest

from teleo import (
    GraphSpecDocument,
    InvalidGraphError,
    SpecError,
    parse_graph_spec,
    serialize_graph_spec,
)
from teleo.cli import run_command
from teleo.models import sport_lab, sport_lab_confounded

SMALL_DOC = """\
# a stove that boils water
var stove
  p = 0.25

var water
  parents stove
  p 0 = 0.0   # cold stove, cold water
  p 1 = 1.0

action stove
intend water
"""


class TestParsing:
    def test_small_document(self):
        doc = parse_graph_spec(SMALL_DOC)
        assert doc.graph.names == ("stove", "water")
        assert doc.graph.variable("stove").cpt == {(): 0.25}
        assert doc.graph.variable("water").parents == ("stove",)
        assert doc.graph.variable("water").cpt == {(0,): 0.0, (1,): 1.0}
        assert doc.tagging.action == "stove"

    def test_intend_defaults_to_target_one(self):
        doc = parse_graph_spec(SMALL_DOC)
        assert dict(doc.tagging.intention_hypothesis) == {"water": 1}
        assert set(doc.policy.intention_set) == {("water", 1)}

    def test_policy_defaults_applied(self):
        doc = parse_graph_spec(SMALL_DOC)
        assert doc.policy.p_act == 0.8
        assert doc.policy.p_base == 0.05
        assert doc.policy.theta == 0.1

    def test_explicit_policy_lines(self):
        text = SMALL_DOC + "policy p_act 0.6\npolicy theta 0.2\n"
        doc = parse_graph_spec(text)
        assert doc.policy.p_act == 0.6
        assert doc.policy.p_base == 0.05
        assert doc.policy.theta == 0.2

    def test_intend_explicit_zero_target(self):
        text = SMALL_DOC.replace("intend water", "intend water 0")
        doc = parse_graph_spec(text)
        assert dict(doc.tagging.intention_hypothesis) == {"water": 0}

    def test_untagged_document_has_no_policy(self):
        text = "var a\n  p = 0.5\n"
        doc = parse_graph_spec(text)
        assert doc.tagging is None
        assert doc.policy is None
        with pytest.raises(SpecError, match="tagging"):
            doc.bind()

    def test_levers_parsed(self):
        text = SMALL_DOC + "lever water stove 0\n"
        doc = parse_graph_spec(text)
        assert doc.levers == {"water": ("stove", 0)}


class TestRoundTrip:
    def test_sport_lab_identity(self):
        doc = sport_lab()
        text = serialize_graph_spec(doc)
        again = parse_graph_spec(text)
        assert again.graph == doc.graph
        assert again.tagging == doc.tagging
        assert again.policy == doc.policy
        assert again.levers == doc.levers
        assert serialize_graph_spec(again) == text

    def test_confounded_identity_keeps_modifiers(self):
        doc = sport_lab_confounded()
        text = serialize_graph_spec(doc)
        again = parse_graph_spec(text)
        assert again.policy.cause_modifiers == {("age", 1): 0.5}
        assert serialize_graph_spec(again) == text

    @pytest.mark.parametrize(
        "build, digest",
        [
            (sport_lab, "1213c0c7dcb18296b8406db8a068672607bf9b351e7b029862adb13327c20f54"),
            (
                sport_lab_confounded,
                "9bac3ae66457ee6675b463c7a7b7256cc84b3ee82ff938288956be661694b70d",
            ),
        ],
    )
    def test_sport_documents_are_pinned(self, build, digest):
        text = serialize_graph_spec(build())
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest

    def test_probabilities_survive_exactly(self):
        doc = parse_graph_spec("var a\n  p = 0.1\n")
        again = parse_graph_spec(serialize_graph_spec(doc))
        assert again.graph.variable("a").cpt[()] == doc.graph.variable("a").cpt[()]


class TestSpecErrors:
    def err(self, text):
        with pytest.raises(SpecError) as info:
            parse_graph_spec(text)
        return info.value

    def test_unknown_keyword_with_line(self):
        e = self.err("var a\n  p = 0.5\nfrobnicate b\n")
        assert e.line == 3
        assert "frobnicate" in str(e)

    def test_empty_document(self):
        e = self.err("# nothing here\n\n")
        assert "no variables" in str(e)
        assert e.line is None

    def test_p_row_outside_var(self):
        assert self.err("p = 0.5\n").line == 1

    def test_parents_outside_var(self):
        assert "outside" in str(self.err("parents a\n"))

    def test_parents_declared_twice(self):
        e = self.err("var a\nvar b\n  parents a\n  parents a\n")
        assert e.line == 4

    def test_parents_after_rows(self):
        e = self.err("var a\n  p = 0.5\nvar b\n  p = 0.1\n  parents a\n")
        assert "precede" in str(e)

    def test_wrong_bit_count(self):
        e = self.err("var a\n  p = 0.5\nvar b\n  parents a\n  p 0 1 = 0.5\n")
        assert e.line == 5
        assert "2 bits for 1 parents" in str(e)

    def test_non_binary_bit(self):
        e = self.err("var a\n  p = 0.5\nvar b\n  parents a\n  p 2 = 0.5\n")
        assert "must be 0 or 1" in str(e)

    def test_duplicate_row(self):
        e = self.err("var a\n  p = 0.5\n  p = 0.7\n")
        assert "duplicate row" in str(e)

    def test_malformed_probability(self):
        e = self.err("var a\n  p = high\n")
        assert e.line == 2
        assert "malformed probability" in str(e)

    def test_missing_equals(self):
        assert '"="' in str(self.err("var a\n  p 0.5\n"))

    def test_two_probabilities(self):
        assert "exactly one" in str(self.err("var a\n  p = 0.5 0.6\n"))

    def test_action_twice(self):
        e = self.err(SMALL_DOC + "action water\n")
        assert "twice" in str(e)

    def test_intend_twice(self):
        e = self.err(SMALL_DOC + "intend water\n")
        assert "twice" in str(e)

    def test_unknown_policy_key(self):
        assert "policy takes" in str(self.err(SMALL_DOC + "policy p_wat 0.5\n"))

    def test_modifier_arity(self):
        assert "modifier takes" in str(self.err(SMALL_DOC + "modifier stove 1\n"))

    def test_lever_duplicate(self):
        text = SMALL_DOC + "lever water stove 0\nlever water stove 1\n"
        assert "twice" in str(self.err(text))

    @pytest.mark.parametrize(
        "extra, message",
        [
            ("var a b\n", "line 12: var takes exactly one name"),
            ("action stove water\n", "line 12: action takes exactly one name"),
            ("intend water 1 1\n", "line 12: intend takes a name and an optional target"),
            ("lever water stove\n", "line 12: lever takes target, lever variable, value"),
            ("policy p_act 0.6\npolicy p_act 0.7\n", "line 13: policy p_act declared twice"),
            (
                "modifier stove 1 0.5\nmodifier stove 1 0.6\n",
                "line 13: modifier for stove=1 declared twice",
            ),
        ],
    )
    def test_malformed_tagging_lines(self, extra, message, tmp_path, capsys):
        e = self.err(SMALL_DOC + extra)
        assert type(e) is SpecError and str(e) == message
        spec = tmp_path / "bad.spec"
        spec.write_text(SMALL_DOC + extra)
        assert run_command(["validate", "--graph", str(spec)]) == 1
        assert f"    - {message}\n" in capsys.readouterr().out


class TestCollectedViolations:
    def collect(self, text):
        with pytest.raises(InvalidGraphError) as info:
            parse_graph_spec(text)
        return info.value.violations

    def test_graph_and_lever_problems_reported_together(self):
        text = (
            "var a\n  parents ghost\n  p 0 = 0.5\n  p 1 = 0.5\n"
            "lever missing a 0\n"
        )
        violations = self.collect(text)
        assert any("ghost" in v for v in violations)
        assert any("missing" in v for v in violations)

    def test_intend_without_action(self):
        text = "var a\n  p = 0.5\nintend a\n"
        violations = self.collect(text)
        assert any("no action" in v for v in violations)

    def test_policy_without_intend(self):
        text = "var a\n  p = 0.5\nvar b\n  parents a\n  p 0 = 0.1\n  p 1 = 0.9\naction a\npolicy p_act 0.5\n"
        violations = self.collect(text)
        assert any("intend" in v for v in violations)

    def test_bad_policy_values_collected(self):
        text = SMALL_DOC + "policy p_act 0.1\npolicy p_base 0.2\n"
        violations = self.collect(text)
        assert any("p_base" in v for v in violations)

    def test_lever_variable_must_be_parent_or_self(self):
        doc = sport_lab()
        text = serialize_graph_spec(doc) + "lever lose_weight enroll 0\n"
        with pytest.raises(InvalidGraphError) as info:
            parse_graph_spec(text)
        assert any("neither" in v for v in info.value.violations)

    @pytest.mark.parametrize(
        "text, violation",
        [
            (SMALL_DOC + "lever water ghost 0\n", "lever variable 'ghost' is not a declared variable"),
            (
                SMALL_DOC.replace("intend water", "intend ghost"),
                "intended effect 'ghost' is not a declared variable",
            ),
            (SMALL_DOC + "modifier ghost 1 0.5\n", "modifier names 'ghost', which is not a parent of 'stove'"),
        ],
        ids=["lever", "intend", "modifier"],
    )
    def test_undeclared_names_fail_validation(self, text, violation, tmp_path, capsys):
        assert self.collect(text) == [violation]
        spec = tmp_path / "bad.spec"
        spec.write_text(text)
        assert run_command(["validate", "--graph", str(spec)]) == 1
        assert f"    - {violation}\n" in capsys.readouterr().out

    def test_intention_must_be_strict_descendant(self):
        text = SMALL_DOC + "intend stove\n"
        # replace the existing intend so only the bad one remains
        text = text.replace("intend water\n", "")
        violations = self.collect(text)
        assert any("stove" in v for v in violations)

    def test_cycle_reported(self):
        text = (
            "var a\n  parents b\n  p 0 = 0.5\n  p 1 = 0.5\n"
            "var b\n  parents a\n  p 0 = 0.5\n  p 1 = 0.5\n"
        )
        violations = self.collect(text)
        assert any("cycle" in v for v in violations)


class TestDocumentBind:
    def test_sport_doc_binds(self, sport_doc):
        model = sport_doc.bind()
        assert model.action == "practice"

    def test_document_is_plain_data(self):
        doc = parse_graph_spec(SMALL_DOC)
        assert isinstance(doc, GraphSpecDocument)
        clone = GraphSpecDocument(
            graph=doc.graph, tagging=doc.tagging, policy=doc.policy, levers=doc.levers
        )
        assert clone == doc
