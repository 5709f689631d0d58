"""Assemble analysis results into reports, human-readable or machine-parseable.

A report is a versioned envelope: provenance (seeds, sample sizes, config)
plus named sections, every value already reduced to JSON-native types.  The
machine format is canonical JSON (sorted keys, fixed indentation) so that
identical inputs give byte-identical output; the human format is a stable
indented rendering of the same data.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

from .effects import EffectClassification, confounding_causes
from .errors import SpecError
from .graph import CausalGraph
from .inference import HypothesisScore, Identification
from .lab import Battery, ExperimentResult
from .observational import ObservationalResult

FORMAT_VERSION = 1

FORMAT_HUMAN = "human"
FORMAT_MACHINE = "machine"


@dataclass(frozen=True)
class Report:
    provenance: dict
    sections: dict
    format_version: int = FORMAT_VERSION


def _pairs(values: Iterable[tuple[str, int]]) -> list[str]:
    return [f"{name}={value}" for name, value in sorted(values)]


def validation_section(graph: CausalGraph | None, violations: Sequence[str]) -> dict:
    section: dict[str, Any] = {
        "valid": not violations,
        "violations": list(violations),
    }
    if graph is not None:
        section["n_variables"] = len(graph.variables)
        section["n_edges"] = graph.n_edges
    return section


def classification_section(classification: EffectClassification, graph: CausalGraph) -> dict:
    return {
        "action": classification.action,
        "hypothesized": classification.hypothesized,
        "mediating": sorted(classification.mediating),
        "further": sorted(classification.further),
        "parallel": sorted(classification.parallel),
        "confounding_causes": {
            effect: sorted(confounding_causes(graph, classification.action, effect))
            for effect in sorted(classification.all_effects())
        },
    }


def _experiment_dict(experiment) -> dict:
    lever_var, lever_value = experiment.lever
    return {
        "target": experiment.target,
        "lever": {"variable": lever_var, "value": lever_value},
        "rationale": experiment.rationale,
        "regime": experiment.label,
        "pattern_mode": experiment.pattern_mode,
        "expected_pattern": {k: v for k, v in sorted(experiment.expected_pattern.items())},
    }


def plan_section(battery: Battery) -> dict:
    return {
        "experiments": [_experiment_dict(e) for e in battery.experiments],
        "unleverable": [
            {"effect": effect, "class": cls} for effect, cls in battery.unleverable
        ],
        "skipped": [
            {"target": target, "reason": reason} for target, reason in battery.skipped
        ],
    }


def experiments_section(results: Sequence[ExperimentResult]) -> list[dict]:
    return [
        {
            "experiment": _experiment_dict(result.experiment),
            "control_n": result.control_n,
            "control_acts": result.control_acts,
            "treated_n": result.treated_n,
            "treated_acts": result.treated_acts,
            "z_statistic": result.z_statistic,
            "p_value": result.p_value,
            "verdict": result.verdict,
            "seed": result.seed,
            "pattern": {"count": result.pattern_count, "passed": result.pattern_passed},
        }
        for result in results
    ]


def _stratum_dict(stratum) -> dict:
    return {
        "key": {name: value for name, value in stratum.key},
        "control_n": stratum.control_n,
        "control_acts": stratum.control_acts,
        "treated_n": stratum.treated_n,
        "treated_acts": stratum.treated_acts,
        "difference": stratum.difference,
        "weight": stratum.weight,
        "included": stratum.included,
    }


def stratified_section(results: Sequence[ObservationalResult]) -> list[dict]:
    rows = []
    for item in results:
        row: dict[str, Any] = {
            "experiment": _experiment_dict(item.experiment),
            "status": item.status,
        }
        if item.status == "ok":
            comparison = item.comparison
            row.update(
                {
                    "control_regime": comparison.control_label,
                    "treated_regime": comparison.treated_label,
                    "adjustment": list(comparison.adjustment_set),
                    "pooled_difference": comparison.pooled_difference,
                    "pooled_se": comparison.pooled_se,
                    "pooled_p": comparison.pooled_p,
                    "flags": list(comparison.flags),
                    "strata": [_stratum_dict(s) for s in comparison.strata],
                    "verdict": item.verdict,
                    "pattern": {
                        "count": item.pattern_count,
                        "passed": item.pattern_passed,
                    },
                }
            )
        rows.append(row)
    return rows


def scores_section(scores: Sequence[HypothesisScore]) -> list[dict]:
    return [
        {
            "hypothesis": _pairs(score.hypothesis),
            "log_likelihood": score.log_likelihood if math.isfinite(score.log_likelihood) else None,
            "verdict": score.verdict,
        }
        for score in scores
    ]


def identification_section(identification: Identification) -> dict:
    return {
        "verdict": identification.verdict,
        "top": _pairs(identification.top) if identification.top is not None else None,
        "candidates": [_pairs(h) for h in identification.candidates],
    }


def emit_report(report: Report, format: str = FORMAT_HUMAN) -> str:
    if format == FORMAT_MACHINE:
        payload = {
            "format_version": report.format_version,
            "provenance": report.provenance,
            "sections": report.sections,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if format != FORMAT_HUMAN:
        raise ValueError(f"unknown report format {format!r}")
    lines = [f"# teleo report (format {report.format_version})"]
    if report.provenance:
        lines.append("provenance:")
        lines.extend(_render(report.provenance, 1))
    for name in sorted(report.sections):
        lines.append(f"{name}:")
        lines.extend(_render(report.sections[name], 1))
    return "\n".join(lines) + "\n"


def _render(value, depth: int) -> list[str]:
    pad = "  " * depth
    lines = []
    if isinstance(value, Mapping):
        if not value:
            return [pad + "(none)"]
        for key in sorted(value, key=str):
            inner = value[key]
            if isinstance(inner, (Mapping, list, tuple)):
                lines.append(f"{pad}{key}:")
                lines.extend(_render(inner, depth + 1))
            else:
                lines.append(f"{pad}{key}: {_scalar(inner)}")
        return lines
    if isinstance(value, (list, tuple)):
        if not value:
            return [pad + "(none)"]
        for item in value:
            if isinstance(item, (Mapping, list, tuple)):
                lines.append(pad + "-")
                lines.extend(_render(item, depth + 1))
            else:
                lines.append(f"{pad}- {_scalar(item)}")
        return lines
    return [pad + _scalar(value)]


def _scalar(value) -> str:
    if value is None:
        return "none"
    if value is True:
        return "yes"
    if value is False:
        return "no"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _reject_constant(name: str):
    raise SpecError(f"not a machine report: {name} is not JSON")


def parse_machine_report(text: str) -> Report:
    """Inverse of machine-format emission (NaN and Infinity are not JSON, so
    they are rejected); emit → parse → emit is identity."""
    try:
        payload = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise SpecError(f"not a machine report: {exc}") from None
    if not isinstance(payload, dict) or "format_version" not in payload:
        raise SpecError("not a machine report: missing format_version")
    return Report(
        provenance=payload.get("provenance", {}),
        sections=payload.get("sections", {}),
        format_version=payload["format_version"],
    )
