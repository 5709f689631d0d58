import hashlib
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from teleo import (
    AgentPolicy,
    CausalGraph,
    Dataset,
    GraphSpecDocument,
    Tagging,
    parse_machine_report,
    serialize_graph_spec,
)
from teleo.cli import run_command

from .helpers import lever_chain, twin_chains

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
        assert data.regimes_present() == (
            "natural",
            "enroll=0",
            "protein_diet=0",
            "smoke=1",
        )
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
