import errno
import gc
import hashlib
import io
import json
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from teleo import (
    AgentPolicy,
    CausalGraph,
    Dataset,
    GraphSpecDocument,
    SpecError,
    Tagging,
    TeleoError,
    emit_report,
    observational_battery,
    parse_graph_spec,
    parse_machine_report,
    sample,
    serialize_graph_spec,
)
from teleo import cli
from teleo.cli import run_command

from .helpers import cell_summary, joined, lever_chain, make_dataset, sorted_table, twin_chains

DEMO_SPORT_SPEC = Path(__file__).resolve().parents[1] / "demos" / "sport.spec"

CYCLIC = (
    "var a\n  parents b\n  p 0 = 0.5\n  p 1 = 0.5\n"
    "var b\n  parents a\n  p 0 = 0.5\n  p 1 = 0.5\n"
)

UNTAGGED = "var a\n  p = 0.5\nvar b\n  parents a\n  p 0 = 0.1\n  p 1 = 0.9\n"

ACTION_ONLY = UNTAGGED + "action a\n"


def machine(capsys, argv):
    code = run_command(argv + ["--format", "machine"])
    return code, parse_machine_report(capsys.readouterr().out)


def sections_digest(capsys, argv) -> str:
    """SHA-256 of a machine report's ``sections`` object, written as the
    report writes it; the provenance, which names file paths, is left out."""
    code, report = machine(capsys, argv)
    assert code == 0
    return hash_sections(report.sections)


def hash_sections(sections) -> str:
    text = json.dumps(sections, sort_keys=True, indent=2)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestExitCodes:
    def test_validate_ok(self, sport_spec_path, capsys):
        assert run_command(["validate", "--graph", str(sport_spec_path)]) == 0
        assert "valid: yes" in capsys.readouterr().out

    def test_validate_cycle_fails(self, tmp_path, capsys):
        bad = tmp_path / "cycle.spec"
        bad.write_text(CYCLIC)
        code, report = machine(capsys, ["validate", "--graph", str(bad)])
        assert code == 1
        section = report.sections["validation"]
        assert not section["valid"]
        assert any("cycle" in v for v in section["violations"])
        assert "n_variables" not in section

    def test_validate_parse_error_fails(self, tmp_path, capsys):
        bad = tmp_path / "broken.spec"
        bad.write_text("var a\n  p = oops\n")
        code, report = machine(capsys, ["validate", "--graph", str(bad)])
        assert code == 1
        assert any("line 2" in v for v in report.sections["validation"]["violations"])

    def test_missing_file_is_failure_not_crash(self, tmp_path):
        assert run_command(["validate", "--graph", str(tmp_path / "nope.spec")]) == 1

    def test_unknown_flag(self, sport_spec_path):
        assert run_command(["validate", "--graph", str(sport_spec_path), "--bogus"]) == 2

    def test_unknown_command(self):
        assert run_command(["transmogrify"]) == 2

    def test_missing_required_seed(self, sport_spec_path):
        code = run_command(["simulate", "--graph", str(sport_spec_path), "--n", "10"])
        assert code == 2

    def test_no_arguments(self):
        assert run_command([]) == 2

    def test_usage_error_leaves_the_next_call_alone(self, sport_spec_path, capsys):
        argv = ["validate", "--graph", str(sport_spec_path), "--format", "machine"]
        assert run_command(argv) == 0
        alone = capsys.readouterr()
        assert run_command(argv[:3] + ["--bogus"]) == 2
        assert "error: unrecognized arguments: --bogus" in capsys.readouterr().err
        assert run_command(argv) == 0
        assert capsys.readouterr() == alone

    def test_a_call_leaves_no_parser_to_the_cycle_collector(self, sport_spec_path, capsys):
        # The parser is built once per process; one built per call is a web
        # of cycles, which decides when the collector runs and so the heap.
        gc.collect()
        gc.disable()
        try:
            assert run_command(["validate", "--graph", str(sport_spec_path)]) == 0
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            garbage, gc.garbage[:] = gc.garbage[:], []
        finally:
            gc.set_debug(0)
            gc.enable()
        assert not [obj for obj in garbage if type(obj).__module__ == "argparse"]
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert run_command(["--help"]) == 0
        capsys.readouterr()

    def test_hypothesis_required_without_intends(self, tmp_path):
        spec = tmp_path / "action_only.spec"
        spec.write_text(ACTION_ONLY)
        assert run_command(["classify", "--graph", str(spec)]) == 2
        assert run_command(["classify", "--graph", str(spec), "--hypothesis", "b"]) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["experiment", "--seed", "1", "--n", "0"],
            ["simulate", "--seed", "1", "--n", "-3"],
            ["simulate", "--seed", "-1", "--n", "5"],
            ["experiment", "--seed", "-1", "--n", "5"],
            ["simulate", "--seed", "1", "--n", "many"],
            ["experiment", "--seed", "1", "--n", "5", "--alpha", "0"],
            ["experiment", "--seed", "1", "--n", "5", "--alpha", "nan"],
            ["analyze", "--data", "x.csv", "--alpha", "1.5"],
            ["infer", "--data", "x.csv", "--max-size", "0"],
        ],
    )
    def test_bad_numbers_are_usage_errors(self, sport_spec_path, argv, capsys):
        assert run_command(argv + ["--graph", str(sport_spec_path)]) == 2
        assert "error: argument" in capsys.readouterr().err

    def test_non_finite_policy_fails_validation(self, sport_spec_path, tmp_path, capsys):
        spec = tmp_path / "nan.spec"
        spec.write_text(sport_spec_path.read_text().replace("theta 0.1", "theta nan"))
        code, report = machine(capsys, ["validate", "--graph", str(spec)])
        assert code == 1
        assert any("finite" in v for v in report.sections["validation"]["violations"])
        data = tmp_path / "data.csv"
        args = ["--graph", str(sport_spec_path), "--seed", "1", "--n", "20", "--out", str(data)]
        assert run_command(["simulate", *args]) == 0
        assert run_command(["infer", "--graph", str(spec), "--data", str(data)]) == 1
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("parent", ["enroll", "ghost"])
    def test_modifier_off_the_action_fails_every_command(self, sport_spec_path, parent, tmp_path, capsys):
        # validate reports what simulate and every other command refuse.
        spec = tmp_path / "modifier.spec"
        spec.write_text(sport_spec_path.read_text() + f"modifier {parent} 1 0.5\n")
        violation = f"modifier names {parent!r}, which is not a parent of 'practice'"
        code, report = machine(capsys, ["validate", "--graph", str(spec)])
        assert code == 1 and report.sections["validation"]["violations"] == [violation]
        data = tmp_path / "data.csv"
        assert run_command(["simulate", "--graph", str(sport_spec_path), "--seed", "1", "--n", "20", "--out", str(data)]) == 0
        for command, *args in (
            ["classify"],
            ["plan"],
            ["simulate", "--seed", "1", "--n", "20", "--out", str(tmp_path / "bad.csv")],
            ["experiment", "--seed", "1", "--n", "20"],
            ["analyze", "--data", str(data)],
            ["infer", "--data", str(data)],
        ):
            assert run_command([command, "--graph", str(spec), *args]) == 1, command
            assert capsys.readouterr().err == f"error: invalid graph: {violation}\n"

    @pytest.mark.parametrize("name", ["l=x", "l;x"])
    def test_names_with_label_separators_fail_validation(self, tmp_path, name, capsys):
        spec = tmp_path / "separator.spec"
        spec.write_text(
            f"var {name}\n  p = 0.9\nvar a\n  p = 0.5\n"
            f"var e\n  parents a {name}\n  p 0 0 = 0\n  p 0 1 = 0\n  p 1 0 = 0\n  p 1 1 = 1\n"
            f"action a\nintend e 1\nlever e {name} 0\n"
        )
        code, report = machine(capsys, ["validate", "--graph", str(spec)])
        assert code == 1
        assert any(v.startswith(f"{name}: ") for v in report.sections["validation"]["violations"])
        args = ["--graph", str(spec), "--seed", "1", "--n", "10", "--out", str(tmp_path / "d.csv")]
        assert run_command(["simulate", *args]) == 1

    def test_untagged_spec_cannot_classify(self, tmp_path):
        spec = tmp_path / "untagged.spec"
        spec.write_text(UNTAGGED)
        assert run_command(["classify", "--graph", str(spec)]) == 1


class TestClassify:
    def test_default_hypothesis_from_intends(self, sport_spec_path, capsys):
        code, report = machine(capsys, ["classify", "--graph", str(sport_spec_path)])
        assert code == 0
        section = report.sections["classification"]
        assert section["action"] == "practice"
        assert section["hypothesized"] == "be_fit"
        assert section["mediating"] == ["lose_weight"]
        assert section["further"] == ["live_longer"]
        assert section["parallel"] == ["win_medals"]

    def test_hypothesis_override(self, sport_spec_path, capsys):
        code, report = machine(
            capsys,
            ["classify", "--graph", str(sport_spec_path), "--hypothesis", "win_medals"],
        )
        assert code == 0
        section = report.sections["classification"]
        assert section["hypothesized"] == "win_medals"
        assert section["parallel"] == ["be_fit", "live_longer", "lose_weight"]


class TestPlan:
    def test_plan_sections(self, sport_spec_path, capsys):
        code, report = machine(capsys, ["plan", "--graph", str(sport_spec_path)])
        assert code == 0
        section = report.sections["plan"]
        assert [e["target"] for e in section["experiments"]] == [
            "win_medals",
            "live_longer",
            "be_fit",
        ]
        assert section["unleverable"] == []


class TestSimulate:
    def test_rows_per_regime_and_determinism(self, sport_spec_path, tmp_path, capsys):
        out = tmp_path / "data.csv"
        argv = [
            "simulate",
            "--graph",
            str(sport_spec_path),
            "--seed",
            "42",
            "--n",
            "50",
            "--out",
            str(out),
        ]
        assert run_command(argv) == 0
        assert capsys.readouterr().out == ""
        first = out.read_text()
        data = Dataset.from_csv(first)
        assert data.n_rows == 4 * 50
        assert data.regime_table == ("enroll=0", "natural", "protein_diet=0", "smoke=1")
        tally = data.tally(())
        assert tally.codes.tolist() == [0, 1, 2, 3] and tally.counts.tolist() == [50] * 4
        assert run_command(argv) == 0
        assert out.read_text() == first


    @pytest.mark.parametrize(
        "confounded, seed, n, digest",
        [
            (False, 1, 50, "e92264f6b2dde8dedb007e47f8b8f186107fac058fa4f446f14aa4333d2aafad"),
            (True, 3, 500, "eb320036fb309c904b17d3b346b443738015b61b6e95d49fa41510995e6fb9ab"),
        ],
    )
    def test_output_bytes_are_pinned(self, confounded, seed, n, digest, confounded_doc, tmp_path):
        spec = DEMO_SPORT_SPEC
        if confounded:
            spec = tmp_path / "confounded.spec"
            spec.write_text(serialize_graph_spec(confounded_doc), encoding="utf-8")
        out = tmp_path / "data.csv"
        argv = ["simulate", "--graph", str(spec), "--seed", str(seed), "--n", str(n), "--out", str(out)]
        assert run_command(argv) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_lever_on_the_action_is_skipped(self, tmp_path):
        spec = tmp_path / "action_lever.spec"
        spec.write_text(DEMO_SPORT_SPEC.read_text() + "lever lose_weight practice 0\n")
        outs = []
        for graph in (spec, DEMO_SPORT_SPEC):
            out = tmp_path / f"{graph.stem}.csv"
            argv = ["simulate", "--graph", str(graph), "--seed", "1", "--n", "50", "--out", str(out)]
            assert run_command(argv) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert b"practice=" not in outs[0]

    @staticmethod
    def _parts(spec: Path, seed: int, n: int) -> list[Dataset]:
        """Each regime's rows as ``simulate`` samples them."""
        doc = parse_graph_spec(spec.read_text(encoding="utf-8"))
        model = doc.bind()
        regimes = cli._simulation_regimes(doc, model.action)
        children = np.random.SeedSequence(seed).spawn(len(regimes))
        return [
            sample(model.bound_graph(regime), n, child, regime_label=regime.label())
            for regime, child in zip(regimes, children)
        ]

    @pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted-name"])
    @pytest.mark.parametrize(
        "blocks, extra",
        [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (2, 1)],
        ids=["0", "1", "rows-1", "rows", "rows+1", "2rows+1"],
    )
    def test_blocks_join_to_the_whole_file(self, tmp_path, monkeypatch, capsys, quoted, blocks, extra):
        # A name with a comma and a quote is quoted in the header and in
        # the label of the regime that clamps it.
        spec = tmp_path / "sport.spec"
        text = DEMO_SPORT_SPEC.read_text()
        spec.write_text(text.replace("smoke", 'sm,"oke') if quoted else text, encoding="utf-8")
        monkeypatch.setattr(cli, "_BLOCK", 256)
        # n is counted in the natural regime's rows per block.
        n = blocks * cli._block_rows(self._parts(spec, 1, 0)[0]) + extra
        want = joined(self._parts(spec, 1, n)).to_csv()
        assert ('"sm,""oke"' in want) == quoted
        out = tmp_path / "data.csv"
        argv = ["simulate", "--graph", str(spec), "--seed", "1", "--n", str(n)]
        assert run_command([*argv, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == want.encode("utf-8")
        assert run_command(argv) == 0
        assert capsys.readouterr().out == want

    def test_writing_memory_does_not_grow_with_the_rows(self, confounded_doc, tmp_path, monkeypatch):
        # From the first to_csv call on, the peak beyond the sampled rows is
        # one block's encoding, whatever the file's size.
        spec = tmp_path / "confounded.spec"
        spec.write_text(serialize_graph_spec(confounded_doc), encoding="utf-8")
        monkeypatch.setattr(cli, "_BLOCK", 1 << 16)
        to_csv, sampled = Dataset.to_csv, []

        def reset_peak_first(data):
            if not sampled:
                tracemalloc.reset_peak()
                sampled.append(tracemalloc.get_traced_memory()[0])
            return to_csv(data)

        monkeypatch.setattr(Dataset, "to_csv", reset_peak_first)
        extra = []
        for n in (20_000, 80_000):
            out = tmp_path / f"{n}.csv"
            argv = ["simulate", "--graph", str(spec), "--seed", "1", "--n", str(n), "--out", str(out)]
            sampled.clear()
            tracemalloc.start()
            assert run_command(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert out.stat().st_size > 20 * cli._BLOCK
            extra.append(peak - sampled[0])
        # A few kB of allocator noise; 4x the rows adds megabytes of text.
        assert extra[1] < extra[0] + (1 << 14) and max(extra) < 8 * cli._BLOCK, extra


class TestExperiment:
    def test_experiment_report(self, sport_spec_path, capsys):
        code, report = machine(
            capsys,
            [
                "experiment",
                "--graph",
                str(sport_spec_path),
                "--seed",
                "7",
                "--n",
                "800",
            ],
        )
        assert code == 0
        verdicts = {
            row["experiment"]["target"]: row["verdict"]
            for row in report.sections["experiments"]
        }
        assert verdicts == {
            "win_medals": "no-change",
            "live_longer": "no-change",
            "be_fit": "change",
        }
        assert report.provenance["seed"] == 7
        assert report.provenance["n_per_arm"] == 800

    def test_byte_identical_reruns(self, sport_spec_path, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code = run_command(
                [
                    "experiment",
                    "--graph",
                    str(sport_spec_path),
                    "--seed",
                    "7",
                    "--n",
                    "200",
                    "--format",
                    "machine",
                    "--out",
                    str(out),
                ]
            )
            assert code == 0
            outs.append(out.read_text())
        assert outs[0] == outs[1]

    def test_sections_are_pinned(self, capsys):
        argv = ["experiment", "--graph", str(DEMO_SPORT_SPEC), "--seed", "42", "--n", "2000"]
        digest = "a49b565cd20dabfa12ad70f5f5b1efc72d9424852f76da8a2aaff93e301f0854"
        assert sections_digest(capsys, argv) == digest

    def test_confounded_sections_are_pinned(self, confounded_doc, tmp_path, capsys):
        # practice has a parent (age) here, so the control arm is not one root.
        spec = tmp_path / "confounded.spec"
        spec.write_text(serialize_graph_spec(confounded_doc), encoding="utf-8")
        argv = ["experiment", "--graph", str(spec), "--seed", "42", "--n", "2000"]
        digest = "c02bb953a27f380a23817389c78f7e12e17a5967c358a02a0b4004f23b8cd92b"
        assert sections_digest(capsys, argv) == digest


@pytest.fixture(scope="module")
def data_csv(sport_spec_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "data.csv"
    code = run_command(
        [
            "simulate",
            "--graph",
            str(sport_spec_path),
            "--seed",
            "1234",
            "--n",
            "700",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    return out


class TestAnalyzeAndInfer:
    def test_analyze_runs_battery(self, sport_spec_path, data_csv, capsys):
        code, report = machine(
            capsys,
            [
                "analyze",
                "--graph",
                str(sport_spec_path),
                "--data",
                str(data_csv),
            ],
        )
        assert code == 0
        rows = report.sections["stratified"]
        assert [r["status"] for r in rows] == ["ok", "ok", "ok"]
        verdicts = {r["experiment"]["target"]: r["verdict"] for r in rows}
        assert verdicts["be_fit"] == "change"
        assert verdicts["win_medals"] == "no-change"
        assert report.provenance["adjustment"] == []

    def test_analyze_adjust_override(self, sport_spec_path, data_csv, capsys):
        code, report = machine(
            capsys,
            [
                "analyze",
                "--graph",
                str(sport_spec_path),
                "--data",
                str(data_csv),
                "--adjust",
                "enroll",
            ],
        )
        assert code == 0
        assert report.provenance["adjustment"] == ["enroll"]
        fit = next(
            r
            for r in report.sections["stratified"]
            if r["experiment"]["target"] == "be_fit"
        )
        assert fit["adjustment"] == ["enroll"]
        assert len(fit["strata"]) == 2

    def test_adjusted_sections_are_pinned(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        simulate = ["simulate", "--graph", str(DEMO_SPORT_SPEC), "--seed", "42", "--n", "2000"]
        assert run_command(simulate + ["--out", str(data)]) == 0
        argv = ["analyze", "--graph", str(DEMO_SPORT_SPEC), "--data", str(data)]
        argv += ["--adjust", "enroll,smoke,protein_diet"]
        digest = "732230c1c5046222fb9799f50e9c568a9c17eeb053e8eb1826b1f594e276c284"
        assert sections_digest(capsys, argv) == digest

    def test_infer_identifies_intention(self, sport_spec_path, data_csv, capsys):
        code, report = machine(
            capsys,
            ["infer", "--graph", str(sport_spec_path), "--data", str(data_csv)],
        )
        assert code == 0
        ident = report.sections["identification"]
        assert ident["verdict"] == "unique"
        assert ident["top"] == ["be_fit=1"]
        refuted = [
            s for s in report.sections["scores"] if s["verdict"] == "refuted"
        ]
        assert len(refuted) == 3

    def test_infer_max_size_two_reports_candidates(
        self, sport_spec_path, data_csv, capsys
    ):
        code, report = machine(
            capsys,
            [
                "infer",
                "--graph",
                str(sport_spec_path),
                "--data",
                str(data_csv),
                "--max-size",
                "2",
            ],
        )
        assert code == 0
        ident = report.sections["identification"]
        assert ident["verdict"] == "candidates"
        assert ["be_fit=1"] in ident["candidates"]
        assert ["be_fit=1", "lose_weight=1"] in ident["candidates"]

    @pytest.mark.parametrize("command", ["infer", "analyze"])
    def test_data_the_model_calls_impossible_is_rejected(
        self, sport_spec_path, tmp_path, command, capsys
    ):
        good = tmp_path / "good.csv"
        args = ["--graph", str(sport_spec_path), "--seed", "1", "--n", "50", "--out", str(good)]
        assert run_command(["simulate", *args]) == 0
        header, rest = good.read_text().split("\n", 1)
        names = header.split(",")
        i, j = names.index("practice"), names.index("enroll")
        names[i], names[j] = names[j], names[i]
        swapped = tmp_path / "swapped.csv"
        swapped.write_text(",".join(names) + "\n" + rest)
        argv = [command, "--graph", str(sport_spec_path), "--data", str(swapped)]
        assert run_command(argv) == 1
        assert "115 of 200 rows have probability 0" in capsys.readouterr().err
        if command == "infer":
            code, report = machine(
                capsys, ["infer", "--graph", str(sport_spec_path), "--data", str(good)]
            )
            assert code == 0
            assert report.sections["identification"]["verdict"] == "unique"
            assert report.sections["identification"]["top"] == ["be_fit=1"]

    def test_label_repeating_a_variable_is_rejected(self, sport_spec_path, tmp_path, capsys):
        data = tmp_path / "data.csv"
        args = ["--graph", str(sport_spec_path), "--seed", "1", "--n", "200", "--out", str(data)]
        assert run_command(["simulate", *args]) == 0
        relabeled = tmp_path / "relabeled.csv"
        relabeled.write_text(data.read_text().replace(",natural\n", ",enroll=0;enroll=1\n"))
        argv = ["infer", "--graph", str(sport_spec_path), "--data", str(relabeled)]
        assert run_command(argv) == 1
        assert "clamps 'enroll' twice" in capsys.readouterr().err

    def test_data_columns_must_match_graph(self, sport_spec_path, tmp_path, capsys):
        data = tmp_path / "short.csv"
        data.write_text("practice,regime\n1,natural\n")
        argv = ["infer", "--graph", str(sport_spec_path), "--data", str(data)]
        assert run_command(argv) == 1
        assert "do not match" in capsys.readouterr().err

    def test_field_over_csv_limit_is_a_data_error(self, sport_spec_path, sport_doc, tmp_path):
        names = sport_doc.graph.names
        data = tmp_path / "huge_label.csv"
        header = ",".join([*names, "regime"])
        data.write_text(f"{header}\n{'0,' * len(names)}{'x' * 200_000}\n")
        argv = ["infer", "--graph", str(sport_spec_path), "--data", str(data)]
        proc = subprocess.run(
            [sys.executable, "-m", "teleo.cli", *argv], capture_output=True, text=True
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr

    def test_repeated_column_is_a_data_error(self, sport_spec_path, data_csv, tmp_path):
        # A second "practice" column, put first and all 1s, would be counted
        # by name lookups while the possibility check read the other copy.
        header, *rows = data_csv.read_text().splitlines()
        data = tmp_path / "repeated.csv"
        lines = [f"practice,{header}", *(f"1,{row}" for row in rows)]
        data.write_text("".join(f"{line}\n" for line in lines))
        argv = ["infer", "--graph", str(sport_spec_path), "--data", str(data)]
        proc = subprocess.run(
            [sys.executable, "-m", "teleo.cli", *argv], capture_output=True, text=True
        )
        assert proc.returncode == 1
        assert proc.stderr == "error: data columns ['practice'] appear more than once\n"
        assert proc.stdout == ""

    def test_row_count_beyond_memory_exits_1(self, sport_spec_path, tmp_path):
        # 2 GB of address space holds the interpreter but not 10^11 rows.
        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        out = tmp_path / "x.csv"
        argv = ["simulate", "--graph", str(sport_spec_path), "--seed", "1", "--n", str(10**11)]
        proc = subprocess.run(
            [sys.executable, "-m", "teleo.cli", *argv, "--out", str(out)],
            capture_output=True,
            text=True,
            preexec_fn=cap_address_space,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("message, line", [("", "error: out of memory\n"), ("no room", "error: no room\n")])
    def test_memory_error_exits_1_with_an_error_line(
        self, sport_spec_path, tmp_path, monkeypatch, capsys, message, line
    ):
        def no_room(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "sample", no_room)
        argv = ["simulate", "--graph", str(sport_spec_path), "--seed", "1", "--n", "10"]
        assert run_command(argv) == 1
        assert capsys.readouterr() == ("", line)
        out = tmp_path / "data.csv"
        assert run_command([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", line)
        assert not out.exists()

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    def test_write_error_mid_stream_exits_1(self, sport_spec_path, tmp_path, monkeypatch, capsys, to_file):
        class FullDisk(io.StringIO):
            def write(self, text):
                if self.tell():
                    raise OSError(errno.ENOSPC, "No space left on device")
                return super().write(text)

        monkeypatch.setattr(cli, "_BLOCK", 256)
        argv = ["simulate", "--graph", str(sport_spec_path), "--seed", "1", "--n", "50"]
        if to_file:
            def open_full(path, mode="r", **kwargs):
                return FullDisk() if "w" in mode else open(path, mode, **kwargs)

            monkeypatch.setattr(cli, "open", open_full, raising=False)
            argv += ["--out", str(tmp_path / "data.csv")]
        else:
            monkeypatch.setattr(sys, "stdout", FullDisk())
        assert run_command(argv) == 1
        assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"

    def test_hypotheses_the_data_rule_out_score_null(self, tmp_path, capsys):
        # With p_base 0 the action fires only where an intended effect is
        # served, so a hypothesis that leaves an arm with acts unserved gives
        # those acts probability 0.
        spec = tmp_path / "pb0.spec"
        text = DEMO_SPORT_SPEC.read_text()
        spec.write_text(text.replace("policy p_base 0.05\n", "policy p_base 0.0\n"))
        data = tmp_path / "s.csv"
        argv = ["--graph", str(DEMO_SPORT_SPEC), "--seed", "1", "--n", "500", "--out", str(data)]
        assert run_command(["simulate", *argv]) == 0
        argv = ["infer", "--graph", str(spec), "--data", str(data)]
        assert run_command([*argv, "--format", "machine"]) == 0
        report = capsys.readouterr().out

        def reject(token):
            raise ValueError(f"{token} is not JSON")

        scores = json.loads(report, parse_constant=reject)["sections"]["scores"]
        lls = [row["log_likelihood"] for row in scores]
        assert len(lls) == 4 and lls.count(None) == 3
        assert emit_report(parse_machine_report(report), "machine") == report
        assert run_command(argv) == 0
        assert capsys.readouterr().out.count("    log_likelihood: none\n") == 3

    def test_repeated_adjustment_variable_is_rejected(self, sport_spec_path, data_csv, capsys):
        argv = ["analyze", "--graph", str(sport_spec_path), "--data", str(data_csv)]
        assert run_command([*argv, "--adjust", "smoke,smoke"]) == 1
        assert capsys.readouterr().err.startswith("error: adjustment variables must be distinct")

    @pytest.mark.parametrize(
        "command, flag", [("validate", "--graph"), ("infer", "--graph"), ("infer", "--data")]
    )
    def test_file_that_is_not_utf8_is_an_error(
        self, sport_spec_path, data_csv, tmp_path, command, flag, capsys
    ):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"var a\n  p = 0.5\xff\n")
        files = {"--graph": str(sport_spec_path), "--data": str(data_csv)}
        files = {k: v for k, v in files.items() if command == "infer" or k == "--graph"}
        files[flag] = str(bad)
        argv = [command, *(item for pair in files.items() for item in pair)]
        assert run_command(argv) == 1
        assert capsys.readouterr().err == f"error: {bad} is not UTF-8 text: byte 0xff at offset 15\n"

    @pytest.mark.parametrize("line_end", [b"\r\n", b"\r"])
    def test_line_ends_read_like_lf(
        self, sport_spec_path, data_csv, tmp_path, monkeypatch, line_end, capsys
    ):
        # Each file is data.csv in a directory of its own, so the reports'
        # provenance names the same path.
        reports = []
        lf = data_csv.read_bytes()
        for name, content in (("lf", lf), ("other", lf.replace(b"\n", line_end))):
            (tmp_path / name).mkdir()
            (tmp_path / name / "data.csv").write_bytes(content)
            monkeypatch.chdir(tmp_path / name)
            argv = ["infer", "--graph", str(sport_spec_path), "--data", "data.csv"]
            assert run_command([*argv, "--format", "machine"]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]

    def test_line_ends_inside_a_quoted_label_read_as_newlines(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b'a,regime\r\n0,"x\r\ny"\r\n1,"lone\rcr"\r\n0,"x\ny"\n')
        data = Dataset.from_csv(cli._read(str(path)))
        assert data.regime_table == ("lone\ncr", "x\ny")
        rows = make_dataset(["a"], [(0,), (1,), (0,)], ["x\ny", "lone\ncr", "x\ny"])
        assert cell_summary(data) == cell_summary(sorted_table(rows))

    @settings(max_examples=150, deadline=None)
    @given(
        pieces=st.lists(
            st.sampled_from(["0", ",", "é", "✓", "𝄞", "\n", "\r\n", "\r", "\r\r\n", "x" * 40]), max_size=40
        ),
        block=st.integers(1, 32),
        bad=st.none() | st.integers(0),
    )
    def test_blocks_read_like_read_text(self, tmp_path_factory, pieces, block, bad):
        # Lines mix LF, CRLF and lone CR, characters of up to four bytes,
        # and lines longer than a block; ``bad`` puts a 0xff somewhere.
        raw = "".join(pieces).encode("utf-8")
        if bad is not None:
            at = bad % (len(raw) + 1)
            raw = raw[:at] + b"\xff" + raw[at:]
        path = tmp_path_factory.mktemp("blocks") / "data.csv"
        path.write_bytes(raw)
        with mock.patch.object(cli, "_BLOCK", block):
            if bad is None:
                blocks = list(cli._blocks(str(path)))
                assert b"".join(blocks) == path.read_text(encoding="utf-8").encode("utf-8")
                assert all(piece.endswith(b"\n") for piece in blocks[:-1])
                return
            with pytest.raises(UnicodeDecodeError) as decoded:
                raw.decode("utf-8")
            with pytest.raises(TeleoError) as caught:
                list(cli._blocks(str(path)))
        start = decoded.value.start
        assert str(caught.value) == f"{path} is not UTF-8 text: byte {raw[start]:#04x} at offset {start}"

    def test_bad_byte_offset_counts_crlf_line_ends(self, sport_spec_path, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"a,regime\r\n0,natural\r\n\xff\r\n")
        assert run_command(["infer", "--graph", str(sport_spec_path), "--data", str(bad)]) == 1
        assert capsys.readouterr().err == f"error: {bad} is not UTF-8 text: byte 0xff at offset 21\n"

    def test_bad_byte_after_a_two_byte_character(self, sport_spec_path, tmp_path, capsys):
        # "é" is the two bytes c3 a9 at offsets 11 and 12; 0xff follows.
        bad = tmp_path / "bad.csv"
        bad.write_bytes("age,regime\né".encode("utf-8") + b"\xff\n")
        assert run_command(["infer", "--graph", str(sport_spec_path), "--data", str(bad)]) == 1
        assert capsys.readouterr().err == f"error: {bad} is not UTF-8 text: byte 0xff at offset 13\n"

    @pytest.mark.parametrize("block", [1, 7, 16, 4096])
    def test_bad_byte_past_the_first_block(self, sport_spec_path, tmp_path, monkeypatch, block, capsys):
        # 10 + 10 * 11 bytes of CRLF lines, then "1," and the two bytes of "é".
        monkeypatch.setattr(cli, "_BLOCK", block)
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"a,regime\r\n" + b"0,natural\r\n" * 10 + "1,é".encode("utf-8") + b"\xff\r\n")
        assert run_command(["infer", "--graph", str(sport_spec_path), "--data", str(bad)]) == 1
        assert capsys.readouterr().err == f"error: {bad} is not UTF-8 text: byte 0xff at offset 124\n"

    def test_bad_byte_is_reported_before_an_earlier_bad_record(
        self, sport_spec_path, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(cli, "_BLOCK", 16)
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"a,regime\n0,natural,extra\n" + b"0,natural\n" * 10 + b"\xff\n")
        assert run_command(["infer", "--graph", str(sport_spec_path), "--data", str(bad)]) == 1
        assert capsys.readouterr().err == f"error: {bad} is not UTF-8 text: byte 0xff at offset 125\n"

    def test_line_longer_than_many_blocks_is_copied_once(self, sport_spec_path, tmp_path, monkeypatch, capsys):
        # 2 MB in 64-byte blocks: copying what came before at each block
        # takes seconds, joining the pieces once takes milliseconds.
        monkeypatch.setattr(cli, "_BLOCK", 64)
        path = tmp_path / "long.csv"
        path.write_bytes(b"a,regime\n" + b"x" * (2 << 20) + b"\n")
        data = path.read_bytes()
        start = time.perf_counter()
        assert b"".join(cli._blocks(str(path))) == data
        with pytest.raises(SpecError, match=r"^line 2: unreadable CSV record: field larger than field limit"):
            Dataset.from_csv(data[i : i + 64] for i in range(0, len(data), 64))
        assert run_command(["infer", "--graph", str(sport_spec_path), "--data", str(path)]) == 1
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (
            "error: line 2: unreadable CSV record: field larger than field limit (131072)\n"
        )

    def test_label_past_the_field_limit_fails_fast(self, sport_spec_path, tmp_path, capsys):
        # Nine 0/1 cells, then a 2 MB label: comparing that tail with the
        # others one 64-bit word at a time took most of a second; csv
        # rejects it at once.
        path = tmp_path / "long.csv"
        header = ",".join(f"v{k}" for k in range(9)) + ",regime\n"
        path.write_bytes(header.encode() + b"0," * 9 + b"x" * (2 << 20) + b"\n")
        message = "line 2: unreadable CSV record: field larger than field limit (131072)"
        start = time.perf_counter()
        with pytest.raises(SpecError) as caught:
            Dataset.from_csv(path.read_bytes())
        assert run_command(["infer", "--graph", str(sport_spec_path), "--data", str(path)]) == 1
        assert time.perf_counter() - start < 0.25
        assert str(caught.value) == message and caught.value.line == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_reading_memory_does_not_grow_with_the_rows(self, confounded_doc, tmp_path, monkeypatch):
        # analyze reads a data file into its cells alone, and the battery
        # selects cells: 4x the rows take no more memory, where rows would
        # take about 1 MB more.
        spec = tmp_path / "confounded.spec"
        spec.write_text(serialize_graph_spec(confounded_doc), encoding="utf-8")
        doc = cli._load_doc(str(spec))
        action, classification, battery, _ = cli._classified(SimpleNamespace(hypothesis=None), doc)
        adjustment = cli._auto_adjustment(doc.graph, action, battery)
        monkeypatch.setattr(cli, "_BLOCK", 1 << 14)
        peaks = []
        for n in (8_000, 32_000):
            path = tmp_path / f"{n}.csv"
            argv = ["simulate", "--graph", str(spec), "--seed", "1", "--n", str(n), "--out", str(path)]
            assert run_command(argv) == 0
            tracemalloc.start()
            dataset = cli._load_data(str(path), doc, action)
            results = observational_battery(
                dataset, battery, classification, adjustment, graph=doc.graph, p_base=doc.policy.p_base
            )
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
            assert dataset.n_rows == 4 * n and len(results) == len(battery.experiments)
            assert path.stat().st_size > 50 * cli._BLOCK
        assert peaks[1] < peaks[0] + (1 << 14), peaks

    def test_spec_with_a_non_ascii_comment_validates(self, tmp_path, capsys):
        spec = tmp_path / "commented.spec"
        spec.write_text("# café ✓\n" + UNTAGGED, encoding="utf-8")
        code, report = machine(capsys, ["validate", "--graph", str(spec)])
        assert code == 0
        assert report.sections["validation"]["valid"] is True

    def test_non_ascii_quoted_label_round_trips(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes('a,regime\n0,"é, ✓"\n1,natural\n1,"é, ✓"\n'.encode("utf-8"))
        data = Dataset.from_csv(cli._read(str(path)))
        rows = make_dataset(["a"], [(0,), (1,), (1,)], ["é, ✓", "natural", "é, ✓"])
        assert data.regime_table == ("natural", "é, ✓")
        assert cell_summary(data) == cell_summary(sorted_table(rows))
        assert rows.to_csv().encode("utf-8") == path.read_bytes()

    def test_header_without_rows(self, sport_spec_path, tmp_path, capsys):
        # An empty body reads as no cells: no experiment has data, and no
        # hypothesis can be told from another.
        data = tmp_path / "header.csv"
        graph = ["--graph", str(sport_spec_path)]
        assert run_command(["simulate", *graph, "--seed", "1", "--n", "0", "--out", str(data)]) == 0
        assert data.read_text().count("\n") == 1
        code, report = machine(capsys, ["analyze", *graph, "--data", str(data)])
        assert code == 0
        statuses = [r["status"] for r in report.sections["stratified"]]
        assert statuses and set(statuses) == {"no-data"}
        code, report = machine(capsys, ["infer", *graph, "--data", str(data)])
        assert code == 0
        scores = [(s["log_likelihood"], s["verdict"]) for s in report.sections["scores"]]
        assert scores == [(0.0, "indistinguishable")] * 4
        assert report.sections["identification"]["verdict"] == "candidates"

    def test_infer_requires_policy(self, tmp_path, data_csv):
        spec = tmp_path / "action_only.spec"
        spec.write_text(ACTION_ONLY)
        code = run_command(
            ["infer", "--graph", str(spec), "--data", str(data_csv)]
        )
        assert code == 1


class TestConsoleEntry:
    def test_import_does_not_load_scipy(self):
        probe = "import sys, teleo.cli; print('scipy' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True
        )
        assert proc.stdout.strip() == "False"

    def test_module_invocation(self, sport_spec_path):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "teleo.cli",
                "validate",
                "--graph",
                str(sport_spec_path),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "valid: yes" in proc.stdout

    def test_validate_deep_chain_declared_child_first(self, tmp_path):
        # Every variable comes before its parent, so the cycle check walks
        # all 1,500 links from the first declaration.
        blocks = ["var v0\n  p = 0.5\n"] + [
            f"var v{i}\n  parents v{i - 1}\n  p 0 = 0.1\n  p 1 = 0.9\n" for i in range(1, 1500)
        ]
        spec = tmp_path / "deep.spec"
        spec.write_text("\n".join(reversed(blocks)))
        proc = subprocess.run(
            [sys.executable, "-m", "teleo.cli", "validate", "--graph", str(spec)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "valid: yes" in proc.stdout


def _write_doc(path: Path, graph: CausalGraph, intended: str, levers=None) -> Path:
    doc = GraphSpecDocument(
        graph=graph,
        tagging=Tagging.make("a", [(intended, 1)]),
        policy=AgentPolicy.make([(intended, 1)]),
        levers=levers or {},
    )
    path.write_text(serialize_graph_spec(doc), encoding="utf-8")
    return path


class TestGraphsOverTwentyVariables:
    def test_chain_of_41_variables(self, tmp_path, capsys):
        levers = {f"e{i}": (f"l{i}", 0) for i in range(20)}
        spec = _write_doc(tmp_path / "chain.spec", lever_chain(20), "e10", levers)
        data = tmp_path / "chain.csv"
        argv = ["simulate", "--graph", str(spec), "--seed", "5", "--n", "400", "--out", str(data)]
        assert run_command(argv) == 0
        assert Dataset.from_csv(data.read_text()).n_rows == 21 * 400
        code, report = machine(
            capsys, ["infer", "--graph", str(spec), "--data", str(data), "--max-size", "2"]
        )
        assert code == 0
        assert len(report.sections["scores"]) == 20 + 190
        assert report.sections["identification"]["top"] == ["e10=1"]
        digest = "1a997f2801f9f5b9ebcd054763984c42c1295e1d9e86a6300654de8c09212ef0"
        assert hash_sections(report.sections) == digest

    def test_chain_of_71_variables(self, tmp_path, capsys):
        # 36 regimes and 71 variables: each row's cell key needs 77 bits.
        levers = {f"e{i}": (f"l{i}", 0) for i in range(35)}
        spec = _write_doc(tmp_path / "chain.spec", lever_chain(35), "e17", levers)
        data = tmp_path / "chain.csv"
        argv = ["simulate", "--graph", str(spec), "--seed", "3", "--n", "300", "--out", str(data)]
        assert run_command(argv) == 0
        code, report = machine(capsys, ["infer", "--graph", str(spec), "--data", str(data)])
        assert code == 0
        assert report.sections["identification"]["top"] == ["e17=1"]
        argv = ["infer", "--graph", str(spec), "--data", str(data), "--max-size", "3"]
        code, report = machine(capsys, argv)
        assert code == 0
        assert len(report.sections["scores"]) == 35 + 595 + 6545
        assert report.sections["identification"]["top"] == ["e17=1"]
        digest = "43c8c4b31c98b9e170fa9aeda0c9191903a7202f161e3b10c6fb999b84d33f06"
        assert hash_sections(report.sections) == digest

    def test_frontier_over_the_cap_is_an_error(self, tmp_path):
        graph = twin_chains(20)
        spec = _write_doc(tmp_path / "wide.spec", graph, "c5")
        data = tmp_path / "wide.csv"
        header = ",".join([*graph.names, "regime"])
        data.write_text(header + "\n" + "0," * len(graph.names) + "natural\n")
        argv = ["infer", "--graph", str(spec), "--data", str(data)]
        proc = subprocess.run(
            [sys.executable, "-m", "teleo.cli", *argv], capture_output=True, text=True
        )
        assert proc.returncode == 1
        assert proc.stderr == "error: frontier of 21 variables exceeds enumeration cap 20\n"
