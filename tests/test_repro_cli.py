"""The ``python -m repro`` CLI and the JSON report surfaces."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.cli import main as repro_main
from repro.scenarios.regression import build_specs, save_specs


def run_cli(capsys, *argv):
    code = repro_main(list(argv))
    return code, capsys.readouterr().out


class TestList:
    def test_text_lists_both_models(self, capsys):
        code, out = run_cli(capsys, "list")
        assert code == 0
        assert "master_slave" in out and "pci" in out

    def test_json_lists_descriptions(self, capsys):
        code, out = run_cli(capsys, "list", "--json")
        assert code == 0
        doc = json.loads(out)
        names = {entry["name"] for entry in doc}
        assert {"master_slave", "pci"} <= names
        assert all(entry["description"] for entry in doc)


class TestExplore:
    def test_explore_master_slave_json(self, capsys):
        code, out = run_cli(
            capsys, "explore", "--model", "master_slave", "--liveness", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        stages = {s["stage"]: s for s in doc["stages"]}
        assert stages["explore"]["data"]["states"] > 0
        assert stages["explore"]["data"]["residue"]["transition_coverage"] == 0.0
        assert stages["check_liveness"]["data"]["checks"][0]["holds"] is True

    def test_explore_with_topology(self, capsys):
        code, out = run_cli(
            capsys, "explore", "--model", "pci", "--topology", "1,1", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True

    def test_unknown_model_fails_loudly(self, capsys):
        with pytest.raises(KeyError):
            run_cli(capsys, "explore", "--model", "warp_core")


class TestRegress:
    def test_regress_json_contains_digest(self, capsys):
        code, out = run_cli(
            capsys,
            "regress", "--model", "master_slave",
            "--scenarios", "3", "--cycles", "150", "--workers", "1", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        stage = doc["stages"][0]
        assert stage["stage"] == "regress"
        assert stage["data"]["regression_digest"]
        assert stage["data"]["scenarios"] == 3

    def test_topology_is_a_usage_error(self, capsys):
        # build_specs cycles its own topology pool, so a --topology on
        # regress would be silently ignored; the parser refuses it
        with pytest.raises(SystemExit) as excinfo:
            repro_main(["regress", "--model", "pci", "--topology", "1,1"])
        assert excinfo.value.code == 2
        assert "--topology" in capsys.readouterr().err


class TestClose:
    def test_close_json_reports_achieved_transitions(self, capsys):
        code, out = run_cli(
            capsys,
            "close",
            "--model",
            "master_slave",
            "--rounds",
            "1",
            "--cycles",
            "140",
            "--json",
        )
        assert code == 0
        doc = json.loads(out)
        stages = {stage["stage"]: stage for stage in doc["stages"]}
        assert set(stages) == {"explore", "close_coverage"}
        close = stages["close_coverage"]
        assert close["ok"]
        assert close["data"]["achieved"] > 0
        assert close["data"]["residue"]["transition_coverage"] > 0

    @pytest.mark.parametrize(
        "flag,forked,simulated",
        [((), 2, 5868), (("--frontier",), 2, 5868), (("--no-frontier",), 0, 5760)],
        ids=["default", "frontier", "no-frontier"],
    )
    def test_close_forks_from_the_frontier_by_default(
        self, capsys, flag, forked, simulated
    ):
        # the same defaults as Workbench.close_coverage(frontier=True)
        code, out = run_cli(
            capsys,
            "close", "--model", "master_slave", "--rounds", "6",
            "--cycles", "160", "--max-goals", "6", "--workers", "1",
            *flag, "--json",
        )
        assert code == 0
        stages = {s["stage"]: s for s in json.loads(out)["stages"]}
        data = stages["close_coverage"]["data"]
        assert data["frontier"] is bool(forked)
        assert (data["forked_goals"], data["cycles_simulated"]) == (forked, simulated)
        assert data["achieved"] == 23
        assert data["residue_before"]["uncovered_transitions"] == 29


class TestFlow:
    @pytest.mark.slow
    def test_flow_digest_invariant_across_workers(self, capsys):
        docs = []
        for workers in ("1", "2"):
            code, out = run_cli(
                capsys,
                "flow", "--model", "master_slave",
                "--cycles", "400", "--scenarios", "4",
                "--scenario-cycles", "150", "--workers", workers, "--json",
            )
            assert code == 0
            docs.append(json.loads(out))
        assert all(doc["ok"] for doc in docs)
        assert docs[0]["digest"] == docs[1]["digest"]
        stage_names = [s["stage"] for s in docs[0]["stages"]]
        assert stage_names == [
            "explore", "check_liveness", "translate", "simulate_abv", "regress",
        ]

    def test_flow_text_output(self, capsys):
        code, out = run_cli(
            capsys,
            "flow", "--model", "master_slave",
            "--cycles", "300", "--scenarios", "2",
            "--scenario-cycles", "150", "--workers", "1",
        )
        assert code == 0
        assert "workbench session: master_slave" in out
        assert "VERIFIED" in out


class TestScenariosJson:
    """``repro regress`` without ``--model``: the raw regression report."""

    def test_regression_cli_emits_json(self, capsys):
        code, out = run_cli(
            capsys,
            "regress", "--scenarios", "3", "--cycles", "150", "--workers", "1",
            "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        assert doc["scenarios"] == 3
        assert doc["digest"]
        assert len(doc["verdicts"]) == 3
        assert doc["verdicts"][0]["scoreboard_digest"]

    def test_regression_cli_profile_restriction(self, capsys):
        code, out = run_cli(
            capsys,
            "regress", "--scenarios", "4", "--cycles", "150", "--workers", "1",
            "--profiles", "bursty", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert {v["profile"] for v in doc["verdicts"]} == {"bursty"}


class TestCrossFlagUsage:
    """A cross-flag conflict prints the subcommand's usage, not the
    top-level one."""

    @pytest.mark.parametrize("argv, usage", [
        (["regress", "--spec-file", "F", "--scenarios", "5"],
         "usage: repro regress"),
        (["close", "--model", "pci", "--coordinator", "http://x",
          "--shards", "2"],
         "usage: repro close"),
    ], ids=["spec-file", "coordinator"])
    def test_conflict_prints_the_subcommand_usage(self, capsys, argv, usage):
        with pytest.raises(SystemExit) as excinfo:
            repro_main(argv)
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.startswith(usage)


class TestSpecFileErrors:
    """A bad ``--spec-file`` is a usage error: exit 2, one ``error:`` line."""

    def _rejected(self, capsys, path, *needles):
        code = repro_main(["regress", "--spec-file", str(path), "--json"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        for needle in (str(path),) + needles:
            assert needle in lines[0]

    def test_missing_file(self, capsys, tmp_path):
        self._rejected(capsys, tmp_path / "absent.json", "cannot read")

    def test_not_a_spec_document(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"ok": True, "verdicts": []}))
        self._rejected(capsys, path, "not a scenario spec file")

    @pytest.mark.parametrize(
        "field, value, needle",
        [("topology", None, "malformed spec entry 1"),
         ("model", "warp_core", "spec entry 1 names unknown model")],
        ids=["missing-field", "unknown-model"],
    )
    def test_malformed_entry(self, capsys, tmp_path, field, value, needle):
        path = tmp_path / "specs.json"
        save_specs(build_specs(count=2, cycles=100), str(path))
        doc = json.loads(path.read_text())
        if value is None:
            del doc["specs"][1][field]
        else:
            doc["specs"][1][field] = value
        path.write_text(json.dumps(doc))
        self._rejected(capsys, path, needle, field if value is None else value)

    @pytest.mark.parametrize("flag", ["--scenarios", "--cycles", "--seed"])
    def test_flags_the_file_fixes_are_refused(self, capsys, tmp_path, flag):
        path = tmp_path / "specs.json"
        save_specs(build_specs(count=2, cycles=60), str(path))
        with pytest.raises(SystemExit) as excinfo:
            repro_main(["regress", "--spec-file", str(path), flag, "5"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"--spec-file cannot be combined with {flag}" in err

    def test_unsupported_version(self, capsys, tmp_path):
        path = tmp_path / "specs.json"
        save_specs(build_specs(count=2, cycles=100), str(path))
        doc = json.loads(path.read_text())
        doc["version"] = 2
        path.write_text(json.dumps(doc))
        self._rejected(capsys, path, "version 2")


class TestModuleEntryPoint:
    @pytest.mark.slow
    def test_python_dash_m_repro_runs(self):
        import repro

        src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "list"],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "master_slave" in proc.stdout
