import json
import math

import pytest

from teleo import (
    HypothesisScore,
    Report,
    arms_from_results,
    SpecError,
    classify_effects,
    emit_report,
    identify,
    parse_machine_report,
    plan,
    run_battery,
    score_arms,
)
from teleo.inference import VERDICT_CONSISTENT, VERDICT_REFUTED
from teleo.models import SPORT_LEVERS
from teleo.report import (
    FORMAT_MACHINE,
    FORMAT_VERSION,
    classification_section,
    experiments_section,
    identification_section,
    plan_section,
    scores_section,
    validation_section,
)


@pytest.fixture(scope="module")
def full_report(sport_doc):
    g = sport_doc.graph
    model = sport_doc.bind()
    cls = classify_effects(g, "practice", "be_fit")
    battery = plan(g, cls, SPORT_LEVERS)
    results = run_battery(model, battery, 500, 77)
    arms = arms_from_results(results)
    scores = score_arms(arms, g, "practice", sport_doc.policy)
    return Report(
        provenance={"command": "experiment", "seed": 77, "n_per_arm": 500},
        sections={
            "validation": validation_section(g, []),
            "classification": classification_section(cls, g),
            "plan": plan_section(battery),
            "experiments": experiments_section(results),
            "scores": scores_section(scores),
            "identification": identification_section(identify(scores)),
        },
    )


def reject_constant(token):
    raise ValueError(f"{token} is not JSON")


class TestMachineFormat:
    def test_round_trip_is_byte_identical(self, full_report):
        text = emit_report(full_report, FORMAT_MACHINE)
        again = parse_machine_report(text)
        assert emit_report(again, FORMAT_MACHINE) == text

    def test_is_canonical_json(self, full_report):
        text = emit_report(full_report, FORMAT_MACHINE)
        payload = json.loads(text)
        assert payload["format_version"] == FORMAT_VERSION
        assert text == json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def test_same_inputs_same_bytes(self, full_report):
        assert emit_report(full_report, FORMAT_MACHINE) == emit_report(
            full_report, FORMAT_MACHINE
        )

    def test_sections_survive(self, full_report):
        again = parse_machine_report(emit_report(full_report, FORMAT_MACHINE))
        assert set(again.sections) == set(full_report.sections)
        assert again.provenance["seed"] == 77
        cls = again.sections["classification"]
        assert cls["mediating"] == ["lose_weight"]
        assert cls["confounding_causes"]["be_fit"] == []

    def test_parse_rejects_non_json(self):
        with pytest.raises(SpecError, match="not a machine report"):
            parse_machine_report("# teleo report (format 1)\n")

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_parse_rejects_constants_that_are_not_json(self, token):
        with pytest.raises(SpecError, match=f"^not a machine report: {token} is not JSON$"):
            parse_machine_report('{"format_version": 1, "sections": {"x": %s}}' % token)

    def test_minus_infinite_log_likelihood_is_null(self):
        scores = [
            HypothesisScore(frozenset({("be_fit", 1)}), -2.5, VERDICT_CONSISTENT),
            HypothesisScore(frozenset({("win_medals", 1)}), -math.inf, VERDICT_REFUTED),
        ]
        report = Report(provenance={}, sections={"scores": scores_section(scores)})
        text = emit_report(report, FORMAT_MACHINE)
        payload = json.loads(text, parse_constant=reject_constant)
        assert [row["log_likelihood"] for row in payload["sections"]["scores"]] == [-2.5, None]
        assert emit_report(parse_machine_report(text), FORMAT_MACHINE) == text
        assert "    log_likelihood: none\n" in emit_report(report)

    def test_parse_rejects_missing_version(self):
        with pytest.raises(SpecError, match="format_version"):
            parse_machine_report('{"sections": {}}')


class TestHumanFormat:
    def test_header_and_sections_present(self, full_report):
        text = emit_report(full_report)
        lines = text.splitlines()
        assert lines[0] == f"# teleo report (format {FORMAT_VERSION})"
        for section in ("classification:", "plan:", "experiments:", "identification:"):
            assert section in lines

    def test_deterministic(self, full_report):
        assert emit_report(full_report) == emit_report(full_report)

    def test_booleans_and_none_rendered_as_words(self):
        report = Report(
            provenance={},
            sections={"s": {"ok": True, "bad": False, "missing": None, "items": []}},
        )
        text = emit_report(report)
        assert "ok: yes" in text
        assert "bad: no" in text
        assert "missing: none" in text
        assert "(none)" in text

    def test_empty_list_and_scalar_sections(self):
        report = Report(provenance={}, sections={"a": [], "b": 3})
        assert emit_report(report) == "# teleo report (format 1)\na:\n  (none)\nb:\n  3\n"

    def test_floats_keep_full_precision(self):
        report = Report(provenance={}, sections={"s": {"p": 0.1 + 0.2}})
        assert "0.30000000000000004" in emit_report(report)

    def test_unknown_format_rejected(self, full_report):
        with pytest.raises(ValueError):
            emit_report(full_report, "yaml")


class TestSections:
    def test_validation_section_shape(self, sport_doc):
        section = validation_section(sport_doc.graph, [])
        assert section == {
            "valid": True,
            "violations": [],
            "n_variables": 8,
            "n_edges": 7,
        }

    def test_validation_without_graph(self):
        section = validation_section(None, ["a cycle"])
        assert section == {"valid": False, "violations": ["a cycle"]}

    def test_plan_section_lists_levers(self, full_report):
        section = full_report.sections["plan"]
        assert [e["target"] for e in section["experiments"]] == [
            "win_medals",
            "live_longer",
            "be_fit",
        ]
        assert section["experiments"][0]["lever"] == {"variable": "enroll", "value": 0}
        assert section["experiments"][2]["pattern_mode"] == "must-not-observe"

    def test_experiment_rows_carry_pattern_checks(self, full_report):
        rows = full_report.sections["experiments"]
        assert all("pattern" in row for row in rows)
        assert all(row["control_n"] == 500 for row in rows)

    def test_scores_use_stable_labels(self, full_report):
        rows = full_report.sections["scores"]
        assert {tuple(r["hypothesis"]) for r in rows} == {
            (("lose_weight=1"),),
            (("be_fit=1"),),
            (("live_longer=1"),),
            (("win_medals=1"),),
        }

    def test_identification_section(self, full_report):
        section = full_report.sections["identification"]
        assert section["verdict"] == "unique"
        assert section["top"] == ["be_fit=1"]
        assert section["candidates"] == [["be_fit=1"]]
