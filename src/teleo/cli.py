"""Command line front end.

Subcommands cover the pipeline end to end: validate a graph spec, classify
effects around the tagged action, plan the interference battery, simulate
data from the bound model, run the randomized battery, analyze observational
CSV data, and infer the intention set from data.  Exit codes: 0 success,
1 validation or data failure, 2 usage error.

Every analysis subcommand emits a report (human or machine format) to
stdout or --out; simulate emits a dataset CSV.  All randomness is driven by
the mandatory --seed flag, so identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from .effects import classify_effects, confounding_causes
from .engine import RNG_ALGORITHM, Dataset, Regime, require_possible, sample
from .errors import InvalidGraphError, SpecError, TeleoError
from .inference import arms_from_dataset, enumerate_hypotheses, identify, score_arms
from .lab import DEFAULT_ALPHA, plan, run_battery
from .observational import observational_battery
from .report import (
    FORMAT_HUMAN,
    Report,
    classification_section,
    emit_report,
    experiments_section,
    identification_section,
    plan_section,
    scores_section,
    stratified_section,
    validation_section,
)
from .specfmt import GraphSpecDocument, parse_graph_spec


class _UsageError(Exception):
    pass


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _write(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _load_doc(path: str) -> GraphSpecDocument:
    return parse_graph_spec(_read(path))


def _load_data(path: str, doc: GraphSpecDocument, action: str) -> Dataset:
    dataset = Dataset.from_csv(_read(path))
    require_possible(dataset, doc.graph, exempt=(action,))
    return dataset


def _require_action(doc: GraphSpecDocument) -> str:
    if doc.tagging is None:
        raise TeleoError("graph spec tags no action; add an 'action' line")
    return doc.tagging.action


def _default_hypothesis(doc: GraphSpecDocument) -> str:
    if doc.tagging is not None and doc.tagging.intention_hypothesis:
        intended = {name for name, _ in doc.tagging.intention_hypothesis}
        return next(name for name in doc.graph.names if name in intended)
    raise _UsageError("--hypothesis is required when the graph spec declares no intend lines")


def _emit(args, sections: dict, provenance: dict) -> None:
    rep = Report(provenance=provenance, sections=sections)
    _write(emit_report(rep, args.format), args.out)


def _cmd_validate(args) -> int:
    text = _read(args.graph)
    graph = None
    violations: list[str] = []
    try:
        doc = parse_graph_spec(text)
    except SpecError as exc:
        violations = [str(exc)]
    except InvalidGraphError as exc:
        violations = list(exc.violations)
    else:
        graph = doc.graph
    sections = {"validation": validation_section(graph, violations)}
    _emit(args, sections, {"command": "validate", "graph": args.graph})
    return 0 if not violations else 1


def _classified(args, doc: GraphSpecDocument):
    action = _require_action(doc)
    hypothesized = args.hypothesis or _default_hypothesis(doc)
    return action, classify_effects(doc.graph, action, hypothesized)


def _cmd_classify(args) -> int:
    doc = _load_doc(args.graph)
    _, classification = _classified(args, doc)
    sections = {
        "validation": validation_section(doc.graph, []),
        "classification": classification_section(classification, doc.graph),
    }
    _emit(args, sections, {"command": "classify", "graph": args.graph})
    return 0


def _cmd_plan(args) -> int:
    doc = _load_doc(args.graph)
    _, classification = _classified(args, doc)
    battery = plan(doc.graph, classification, doc.levers)
    sections = {
        "validation": validation_section(doc.graph, []),
        "classification": classification_section(classification, doc.graph),
        "plan": plan_section(battery),
    }
    _emit(args, sections, {"command": "plan", "graph": args.graph})
    return 0


def _simulation_regimes(doc: GraphSpecDocument, action: str) -> list[Regime]:
    """The natural regime and one regime per lever, skipping a lever that
    clamps the action, as ``plan`` does: the agent chooses the action."""
    regimes = {Regime()} | {
        Regime({variable: value}) for variable, value in doc.levers.values() if variable != action
    }
    return sorted(regimes, key=lambda r: (bool(r.clamps), r.label()))


def _cmd_simulate(args) -> int:
    doc = _load_doc(args.graph)
    model = doc.bind()
    regimes = _simulation_regimes(doc, model.action)
    children = np.random.SeedSequence(args.seed).spawn(len(regimes))
    parts = [
        sample(model.bound_graph(regime), args.n, child, regime_label=regime.label())
        for regime, child in zip(regimes, children)
    ]
    _write(Dataset.concat(parts).to_csv(), args.out)
    return 0


def _cmd_experiment(args) -> int:
    doc = _load_doc(args.graph)
    model = doc.bind()
    _, classification = _classified(args, doc)
    battery = plan(doc.graph, classification, doc.levers)
    runs = run_battery(model, battery, args.n, args.seed, alpha=args.alpha)
    sections = {
        "validation": validation_section(doc.graph, []),
        "classification": classification_section(classification, doc.graph),
        "plan": plan_section(battery),
        "experiments": experiments_section(runs),
    }
    provenance = {
        "command": "experiment",
        "graph": args.graph,
        "seed": args.seed,
        "n_per_arm": args.n,
        "alpha": args.alpha,
        "rng": RNG_ALGORITHM,
    }
    _emit(args, sections, provenance)
    return 0


def _auto_adjustment(graph, action, battery) -> list[str]:
    names: set[str] = set()
    for experiment in battery.experiments:
        names |= confounding_causes(graph, action, experiment.target)
    return sorted(names)


def _cmd_analyze(args) -> int:
    doc = _load_doc(args.graph)
    action, classification = _classified(args, doc)
    battery = plan(doc.graph, classification, doc.levers)
    dataset = _load_data(args.data, doc, action)
    if args.adjust is not None:
        adjustment = [name for name in args.adjust.split(",") if name]
    else:
        adjustment = _auto_adjustment(doc.graph, action, battery)
    results = observational_battery(
        dataset,
        battery,
        classification,
        adjustment,
        graph=doc.graph,
        p_base=doc.policy.p_base if doc.policy is not None else 0.0,
        alpha=args.alpha,
    )
    sections = {
        "validation": validation_section(doc.graph, []),
        "classification": classification_section(classification, doc.graph),
        "plan": plan_section(battery),
        "stratified": stratified_section(results),
    }
    provenance = {
        "command": "analyze",
        "graph": args.graph,
        "data": args.data,
        "alpha": args.alpha,
        "adjustment": adjustment,
    }
    _emit(args, sections, provenance)
    return 0


def _cmd_infer(args) -> int:
    doc = _load_doc(args.graph)
    action = _require_action(doc)
    if doc.policy is None:
        raise TeleoError("graph spec declares no policy; intention scoring needs one")
    dataset = _load_data(args.data, doc, action)
    arms = arms_from_dataset(dataset, action)
    hypotheses = enumerate_hypotheses(doc.graph, action, max_size=args.max_size)
    scores = score_arms(arms, doc.graph, action, doc.policy, hypotheses=hypotheses)
    identification = identify(scores)
    sections = {
        "validation": validation_section(doc.graph, []),
        "scores": scores_section(scores),
        "identification": identification_section(identification),
    }
    provenance = {
        "command": "infer",
        "graph": args.graph,
        "data": args.data,
        "max_size": args.max_size,
    }
    _emit(args, sections, provenance)
    return 0


def _number(convert, ok, what: str):
    """argparse type: ``convert(text)``, a usage error unless ``ok``."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid number {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text}")
        return value

    return parse


_NON_NEGATIVE = _number(int, lambda v: v >= 0, ">= 0")
_POSITIVE = _number(int, lambda v: v >= 1, ">= 1")
_ALPHA = _number(float, lambda v: 0.0 < v < 1.0, "strictly between 0 and 1")


_COMMANDS = {
    "validate": _cmd_validate,
    "classify": _cmd_classify,
    "plan": _cmd_plan,
    "simulate": _cmd_simulate,
    "experiment": _cmd_experiment,
    "analyze": _cmd_analyze,
    "infer": _cmd_infer,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="teleo",
        description="teleological inference on binary causal models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--graph", required=True, metavar="FILE", help="graph spec file")
        p.add_argument("--out", metavar="FILE", help="write output to FILE instead of stdout")
        p.add_argument(
            "--format",
            choices=(FORMAT_HUMAN, "machine"),
            default=FORMAT_HUMAN,
            help="report format",
        )
        return p

    add("validate", "check a graph spec and report violations")

    p = add("classify", "classify effects around the tagged action")
    p.add_argument("--hypothesis", metavar="NAME", help="hypothesized intended effect")

    p = add("plan", "plan the interference experiment battery")
    p.add_argument("--hypothesis", metavar="NAME")

    p = add("simulate", "sample a dataset from the bound model under its regimes")
    p.add_argument("--seed", type=_NON_NEGATIVE, required=True)
    p.add_argument("--n", type=_NON_NEGATIVE, required=True, help="rows per regime")

    p = add("experiment", "run the randomized interference battery")
    p.add_argument("--hypothesis", metavar="NAME")
    p.add_argument("--seed", type=_NON_NEGATIVE, required=True)
    p.add_argument("--n", type=_POSITIVE, required=True, help="rows per arm")
    p.add_argument("--alpha", type=_ALPHA, default=DEFAULT_ALPHA)

    p = add("analyze", "stratified observational analysis of a dataset")
    p.add_argument("--hypothesis", metavar="NAME")
    p.add_argument("--data", required=True, metavar="FILE", help="dataset CSV")
    p.add_argument("--alpha", type=_ALPHA, default=DEFAULT_ALPHA)
    p.add_argument(
        "--adjust",
        metavar="NAMES",
        help="comma-separated adjustment variables (default: detected confounding causes)",
    )

    p = add("infer", "score intention hypotheses against a dataset and identify")
    p.add_argument("--data", required=True, metavar="FILE")
    p.add_argument(
        "--max-size", type=_POSITIVE, default=1, help="largest intention set considered"
    )

    return parser


def run_command(argv: Sequence[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TeleoError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
