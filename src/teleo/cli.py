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
from contextlib import nullcontext
from dataclasses import replace
from typing import Iterable, Iterator, Sequence

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


# Bytes read from a file at a time, then read on to the end of that line.
_BLOCK = 1 << 20


def _blocks(path: str) -> Iterator[bytes]:
    """The bytes of ``path`` in blocks of ``_BLOCK`` bytes read on to the
    next "\\n", so every block but the last ends at a line end and no
    "\\r\\n" pair or UTF-8 character is split.  Each is checked as UTF-8
    (only a block that is not ASCII is decoded, and the text dropped) and
    has each "\\r\\n" and then each lone "\\r" turned into "\\n", as
    ``Path.read_text`` does.  A file whose lines end in a lone "\\r" is one
    block."""
    with open(path, "rb") as file:
        offset = 0
        while block := file.read(_BLOCK) + file.readline():
            try:
                if not block.isascii():
                    block.decode("utf-8")
            except UnicodeDecodeError as exc:
                at = f"byte {block[exc.start]:#04x} at offset {offset + exc.start}"
                raise TeleoError(f"{path} is not UTF-8 text: {at}") from None
            offset += len(block)
            if b"\r" in block:
                block = block.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
            yield block


def _read(path: str) -> bytes:
    """The bytes of ``path`` as :func:`_blocks` reads them, joined."""
    return b"".join(_blocks(path))


def _write(pieces: Iterable[str], out: str | None) -> None:
    """Write the pieces in turn to ``out``, in text mode as
    ``Path.write_text`` does, or to stdout."""
    with open(out, "w", encoding="utf-8") if out else nullcontext(sys.stdout) as file:
        file.writelines(pieces)


def _load_doc(path: str) -> GraphSpecDocument:
    return parse_graph_spec(_read(path).decode("utf-8"))


def _load_data(path: str, doc: GraphSpecDocument, action: str) -> Dataset:
    """The data file at ``path``, read block by block into its cells alone
    (analyze and infer read nothing else), checked against the graph."""
    blocks = _blocks(path)
    try:
        dataset = Dataset.from_csv(blocks)
    finally:  # a byte that is not UTF-8 is reported before any other error
        for _ in blocks:
            pass
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


def _emit(args, sections: dict, **provenance) -> None:
    provenance = {"command": args.command, "graph": args.graph, **provenance}
    _write([emit_report(Report(provenance=provenance, sections=sections), args.format)], args.out)


def _cmd_validate(args) -> int:
    graph, violations = None, []
    try:
        graph = _load_doc(args.graph).graph
    except SpecError as exc:
        violations = [str(exc)]
    except InvalidGraphError as exc:
        violations = list(exc.violations)
    _emit(args, {"validation": validation_section(graph, violations)})
    return 0 if not violations else 1


def _classified(args, doc: GraphSpecDocument, planned: bool = True):
    """The action, its effect classification around the hypothesis and,
    when ``planned``, the battery (else None), with the report sections of
    each: one place for what classify, plan, experiment and analyze share."""
    action = _require_action(doc)
    hypothesized = args.hypothesis or _default_hypothesis(doc)
    classification = classify_effects(doc.graph, action, hypothesized)
    sections = {
        "validation": validation_section(doc.graph, []),
        "classification": classification_section(classification, doc.graph),
    }
    battery = None
    if planned:
        battery = plan(doc.graph, classification, doc.levers)
        sections["plan"] = plan_section(battery)
    return action, classification, battery, sections


def _cmd_classify(args) -> int:
    *_, sections = _classified(args, _load_doc(args.graph), planned=False)
    _emit(args, sections)
    return 0


def _cmd_plan(args) -> int:
    *_, sections = _classified(args, _load_doc(args.graph))
    _emit(args, sections)
    return 0


def _simulation_regimes(doc: GraphSpecDocument, action: str) -> list[Regime]:
    """The natural regime and one regime per lever, skipping a lever that
    clamps the action, as ``plan`` does: the agent chooses the action."""
    regimes = {Regime()} | {
        Regime({variable: value}) for variable, value in doc.levers.values() if variable != action
    }
    return sorted(regimes, key=lambda r: (bool(r.clamps), r.label()))


def _block_rows(part: Dataset) -> int:
    """Rows of ``part`` in about ``_BLOCK`` characters of CSV: a cell and a
    comma per variable, the longest label and a line end per row."""
    width = 2 * len(part.variables) + max(map(len, part.regime_table)) + 1
    return max(_BLOCK // width, 1)


def _rows(part: Dataset, start: int, stop: int) -> Dataset:
    return replace(part, values=part.values[start:stop], regime_codes=part.regime_codes[start:stop])


def _csv_blocks(parts: list[Dataset]) -> Iterator[str]:
    """The CSV text of ``parts``, one after another: the header, then each
    part in blocks of :func:`_block_rows` rows, each encoded by ``to_csv``
    and written without its header."""
    header = _rows(parts[0], 0, 0).to_csv()
    yield header
    for part in parts:
        step = _block_rows(part)
        for start in range(0, part.n_rows, step):
            yield _rows(part, start, start + step).to_csv()[len(header) :]


def _cmd_simulate(args) -> int:
    doc = _load_doc(args.graph)
    model = doc.bind()
    regimes = _simulation_regimes(doc, model.action)
    children = np.random.SeedSequence(args.seed).spawn(len(regimes))
    parts = [
        sample(model.bound_graph(regime), args.n, child, regime_label=regime.label())
        for regime, child in zip(regimes, children)
    ]
    _write(_csv_blocks(parts), args.out)
    return 0


def _cmd_experiment(args) -> int:
    doc = _load_doc(args.graph)
    model = doc.bind()
    _, _, battery, sections = _classified(args, doc)
    sections["experiments"] = experiments_section(
        run_battery(model, battery, args.n, args.seed, alpha=args.alpha)
    )
    _emit(args, sections, seed=args.seed, n_per_arm=args.n, alpha=args.alpha, rng=RNG_ALGORITHM)
    return 0


def _auto_adjustment(graph, action, battery) -> list[str]:
    names: set[str] = set()
    for experiment in battery.experiments:
        names |= confounding_causes(graph, action, experiment.target)
    return sorted(names)


def _cmd_analyze(args) -> int:
    doc = _load_doc(args.graph)
    action, classification, battery, sections = _classified(args, doc)
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
    sections["stratified"] = stratified_section(results)
    _emit(args, sections, data=args.data, alpha=args.alpha, adjustment=adjustment)
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
    sections = {
        "validation": validation_section(doc.graph, []),
        "scores": scores_section(scores),
        "identification": identification_section(identify(scores)),
    }
    _emit(args, sections, data=args.data, max_size=args.max_size)
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


# Built once per process, not left to the cycle collector after each call.
_PARSER = _build_parser()


def run_command(argv: Sequence[str]) -> int:
    try:
        args = _PARSER.parse_args(list(argv))
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
