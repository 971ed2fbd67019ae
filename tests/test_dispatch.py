"""The sharded regression dispatcher: planning, hosts, merge, retry.

The contract under test everywhere: the merged report digest is
byte-identical to a serial run of the same specs at any shard count,
through any host kind, and across host failures that get retried.
"""

import json
import subprocess
import sys
import threading

import pytest

from repro.dispatch import (
    DispatchError,
    HostFailure,
    InProcessHost,
    LocalSubprocessHost,
    ShardDispatcher,
    ShardWork,
    merge_reports,
    plan_digest,
    plan_shards,
    select_engine,
)
from repro.scenarios.regression import (
    RegressionReport,
    RegressionRunner,
    ScenarioSpec,
    build_specs,
    load_specs,
    run_scenario,
    save_specs,
)
from repro.scenarios.scoreboard import FaultPlan
from repro.workbench import SerialEngine, ShardedEngine, Workbench

SPECS = build_specs(count=6, cycles=120)


@pytest.fixture(scope="module")
def serial_report():
    return RegressionRunner(SPECS, engine=SerialEngine()).run()


class TestPlanner:
    def test_round_robin_partition_is_total_and_disjoint(self):
        plan = plan_shards(SPECS, 3)
        assert [shard.index for shard in plan] == [0, 1, 2]
        assert all(shard.of == 3 for shard in plan)
        flattened = [spec for shard in plan for spec in shard.specs]
        assert sorted(flattened, key=lambda s: s.label) == sorted(
            SPECS, key=lambda s: s.label
        )
        assert plan[0].specs == tuple(SPECS[0::3])

    def test_plan_is_deterministic(self):
        assert plan_shards(SPECS, 4) == plan_shards(SPECS, 4)
        assert plan_digest(plan_shards(SPECS, 4)) == plan_digest(
            plan_shards(SPECS, 4)
        )

    def test_more_shards_than_specs_leaves_empty_shards(self):
        plan = plan_shards(SPECS[:2], 5)
        assert len(plan) == 5
        assert sum(len(shard) for shard in plan) == 2
        assert [len(shard) for shard in plan[2:]] == [0, 0, 0]

    def test_bad_shard_count_rejected(self):
        with pytest.raises(ValueError):
            plan_shards(SPECS, 0)


class TestSerialization:
    def test_fault_plan_round_trip(self):
        fault = FaultPlan("corrupt-read", unit=1, nth=3)
        assert FaultPlan.from_json(fault.to_json()) == fault

    def test_spec_round_trip_including_fault(self):
        spec = ScenarioSpec(
            "master_slave",
            9,
            (1, 2, 2),
            "bursty",
            200,
            fault=FaultPlan("drop", unit=0, nth=2),
            with_monitors=True,
        )
        wire = json.loads(json.dumps(spec.to_json()))
        assert ScenarioSpec.from_json(wire) == spec

    def test_report_round_trip_preserves_digest(self, serial_report):
        wire = json.loads(json.dumps(serial_report.to_json()))
        rebuilt = RegressionReport.from_json(wire)
        assert rebuilt.digest() == serial_report.digest()
        # everything digest-relevant survives byte-for-byte; throughput
        # is derived from the (rounded) wall clock, so compare without it
        first, second = rebuilt.to_json(), serial_report.to_json()
        first.pop("throughput_txn_per_s")
        second.pop("throughput_txn_per_s")
        assert first == second

    def test_spec_file_round_trip(self, tmp_path):
        path = str(tmp_path / "specs.json")
        save_specs(SPECS, path)
        assert load_specs(path) == list(SPECS)

    def test_spec_file_rejects_junk(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValueError):
            load_specs(str(path))


class TestMerge:
    def test_merged_digest_matches_serial_at_any_shard_count(self, serial_report):
        for shards in (1, 2, 3, 6):
            plan = plan_shards(SPECS, shards)
            shard_reports = [
                RegressionRunner(shard.specs, engine=SerialEngine()).run()
                for shard in plan
                if shard.specs
            ]
            merged = merge_reports(shard_reports)
            assert merged.digest() == serial_report.digest(), f"shards={shards}"
            assert len(merged.verdicts) == len(serial_report.verdicts)

    def test_merge_of_nothing_is_an_empty_report(self):
        merged = merge_reports([])
        assert merged.verdicts == []
        assert not merged.ok  # an empty regression proves nothing


class _FailingHost:
    """In-process host that raises HostFailure its first N calls."""

    def __init__(self, name, failures=1):
        self.name = name
        self.failures_left = failures
        self.calls = 0

    def run_shard(self, work: ShardWork):
        self.calls += 1
        if self.failures_left > 0:
            self.failures_left -= 1
            raise HostFailure(self.name, work.shard.label, "synthetic crash")
        return InProcessHost(self.name).run_shard(work)


class TestDispatcherRetry:
    def test_in_process_dispatch_matches_serial(self, serial_report):
        hosts = [InProcessHost(f"h{i}") for i in range(3)]
        outcome = ShardDispatcher(SPECS, shards=3, hosts=hosts).run()
        assert outcome.report.digest() == serial_report.digest()
        assert outcome.retries == 0
        assert len(outcome.runs) == 3

    def test_failed_shard_is_retried_on_another_host(self, serial_report):
        flaky = _FailingHost("flaky", failures=1)
        stable = InProcessHost("stable")
        outcome = ShardDispatcher(SPECS, shards=2, hosts=[flaky, stable]).run()
        assert outcome.report.digest() == serial_report.digest()
        assert outcome.retries == 1
        retried = [run for run in outcome.runs if run.retried]
        assert len(retried) == 1
        # shard 0 started on the flaky host, then moved to the other one
        assert retried[0].host == "stable"
        assert retried[0].failures == ("flaky: synthetic crash",)
        assert "failed attempt" in "\n".join(outcome.log_lines())

    def test_dispatch_aborts_when_every_host_fails(self):
        hosts = [_FailingHost("h0", failures=99), _FailingHost("h1", failures=99)]
        with pytest.raises(DispatchError, match="failed on every host"):
            ShardDispatcher(SPECS, shards=2, hosts=hosts).run()

    def test_more_shards_than_specs_still_merges_clean(self, serial_report):
        hosts = [InProcessHost(f"h{i}") for i in range(2)]
        outcome = ShardDispatcher(
            SPECS[:2], shards=5, hosts=hosts
        ).run()
        serial = RegressionRunner(SPECS[:2], engine=SerialEngine()).run()
        assert outcome.report.digest() == serial.digest()
        assert len(outcome.runs) == 2  # empty shards never dispatched


class _KillFirstSpawn(LocalSubprocessHost):
    """Subprocess host whose first child is killed mid-shard."""

    def __init__(self, name):
        super().__init__(name)
        self.killed = False
        self.kill_done = threading.Event()

    def _started(self, process):
        if not self.killed:
            self.killed = True
            process.kill()
            self.kill_done.set()


class _AfterKill(LocalSubprocessHost):
    """Subprocess host that runs nothing until ``flaky`` lost a child.

    Under work stealing this pins the order: whichever shard this host
    takes first, it blocks, so the flaky host is sure to take (and
    lose) the other one.
    """

    def __init__(self, name, flaky):
        super().__init__(name)
        self.flaky = flaky

    def run_shard(self, work):
        self.flaky.kill_done.wait(timeout=60)
        return super().run_shard(work)


class TestSubprocessHosts:
    """The production-shaped path: real ``--shard K/N`` subprocesses."""

    def test_subprocess_dispatch_matches_serial(self, serial_report):
        outcome = ShardDispatcher(SPECS, shards=2).run()
        assert outcome.report.ok
        assert outcome.report.digest() == serial_report.digest()
        assert len(outcome.report.verdicts) == len(SPECS)
        assert outcome.retries == 0
        assert outcome.hosts == ("local0", "local1")

    def test_killed_subprocess_host_is_retried_with_digest_unchanged(
        self, serial_report
    ):
        """The fault-tolerance acceptance: a host dies mid-shard, the
        shard reruns on another host, and the merged digest is exactly
        the serial one.  The stable host holds its first shard until
        the flaky host's child was killed, so the kill deterministically
        fires on the work-stealing path."""
        flaky = _KillFirstSpawn("flaky")
        stable = _AfterKill("stable", flaky)
        outcome = ShardDispatcher(SPECS, shards=2, hosts=[flaky, stable]).run()
        assert flaky.killed
        assert outcome.retries == 1
        [retried] = [run for run in outcome.runs if run.retried]
        # the shard is excluded from the host that failed it
        assert retried.host == "stable"
        assert "killed by signal" in retried.failures[0]
        assert outcome.report.digest() == serial_report.digest()

    def test_host_failure_reports_unparseable_output(self, tmp_path):
        host = LocalSubprocessHost("bad", python=sys.executable)
        # point the host at a command that prints no JSON
        host._command = lambda work: [sys.executable, "-c", "print('nope')"]
        shard = plan_shards(SPECS[:1], 1)[0]
        with pytest.raises(HostFailure, match="unparseable"):
            host.run_shard(ShardWork(shard=shard, spec_file=str(tmp_path / "x")))


class TestShardedEngine:
    def test_engine_runs_regression_with_serial_digest(self, serial_report):
        engine = ShardedEngine(2, hosts=[InProcessHost("a"), InProcessHost("b")])
        report = RegressionRunner(SPECS, engine=engine).run()
        assert report.digest() == serial_report.digest()
        assert report.workers == 2
        assert engine.last_outcome is not None
        assert engine.last_outcome.retries == 0

    def test_fail_fast_truncates_after_dispatch(self):
        """fail-fast means the same thing at the sharded tier: stop
        consuming verdicts at the first failure (shards themselves run
        to completion -- they are remote)."""
        bad = ScenarioSpec(
            "master_slave", 1, (1, 1, 2), "default", 150,
            fault=FaultPlan("drop", unit=0, nth=1),
        )
        good = [
            ScenarioSpec("master_slave", 100 + i, (1, 1, 2), "default", 150)
            for i in range(3)
        ]
        engine = ShardedEngine(2, hosts=[InProcessHost("a"), InProcessHost("b")])
        report = RegressionRunner([bad] + good, engine=engine, fail_fast=True).run()
        assert not report.ok
        assert report.stopped_early  # the bad spec sorts first by seed

    def test_engine_rejects_foreign_fanouts(self):
        engine = ShardedEngine(2)
        with pytest.raises(TypeError, match="scenario regressions"):
            list(engine.imap(len, ["a", "b"]))

    def test_engine_registry_knows_sharded(self):
        # the one engine selection picks the sharded engine for shards=N
        engine = select_engine(workers=2, shards=3, hosts=None, n_specs=6)
        assert isinstance(engine, ShardedEngine)
        assert engine.name == "sharded"
        assert engine.workers == 3
        assert engine.workers_per_shard == 2
        assert isinstance(
            select_engine(workers=1, shards=None, hosts=None, n_specs=6),
            SerialEngine,
        )
        with pytest.raises(ValueError, match="shard count"):
            select_engine(workers=None, shards=0, hosts=None, n_specs=6)

    def test_workbench_regress_through_injected_sharded_engine(self):
        engine = ShardedEngine(2, hosts=[InProcessHost("a"), InProcessHost("b")])
        workbench = Workbench("master_slave", engine=engine)
        result = workbench.regress(scenarios=4, cycles=120)
        assert result.status.name == "PASSED"
        assert result.metrics["engine"] == "sharded"
        # run facts (which hosts, how many retries) are metrics, never
        # digest-bearing data -- see test_session_digest_is_engine_invariant
        facts = result.metrics["dispatch"]
        # which host ran how many shards is a stealing-race outcome, so
        # host_loads is only deterministic in total
        assert sum(facts.pop("host_loads").values()) == 2
        assert facts == {
            "shards": 2,
            "hosts": ["a", "b"],
            "retries": 0,
            "duplicates": 0,
            "failures": {},
        }
        assert "dispatch" not in result.data
        # the digest the sharded engine produced is the serial one
        specs = build_specs(
            models=["master_slave"], count=4, base_seed=2005, cycles=120
        )
        serial = RegressionRunner(specs, engine=SerialEngine()).run()
        assert result.data["regression_digest"] == serial.digest()

    def test_session_digest_is_engine_invariant(self):
        """The SessionReport digest must not change with the execution
        tier -- including the dispatch bookkeeping (hosts, retries)."""
        serial_wb = Workbench("master_slave")
        serial_wb.regress(scenarios=4, cycles=120, workers=1)
        flaky = _FailingHost("flaky", failures=1)
        sharded_wb = Workbench(
            "master_slave",
            engine=ShardedEngine(2, hosts=[flaky, InProcessHost("stable")]),
        )
        sharded_wb.regress(scenarios=4, cycles=120)
        assert sharded_wb.engine.last_outcome.retries == 1
        assert serial_wb.report().digest() == sharded_wb.report().digest()


class TestCli:
    """--shards / --shard K/N / --merge / --spec-file on ``repro regress``."""

    def _regress(self, argv, capsys):
        from repro.cli import main

        code = main(["regress", *argv])
        return code, capsys.readouterr()

    def test_manual_shard_merge_round_trip(self, tmp_path, capsys, serial_report):
        base = ["--scenarios", "6", "--cycles", "120", "--json"]
        paths = []
        for k in (1, 2):
            code, captured = self._regress(
                base + ["--shard", f"{k}/2"], capsys
            )
            assert code == 0
            path = tmp_path / f"s{k}.json"
            path.write_text(captured.out)
            paths.append(str(path))
        code, captured = self._regress(
            ["--merge", *paths, "--json"], capsys
        )
        assert code == 0
        merged = json.loads(captured.out)
        assert merged["digest"] == serial_report.digest()
        assert merged["scenarios"] == 6

    def test_spec_file_run(self, tmp_path, capsys, serial_report):
        path = str(tmp_path / "specs.json")
        save_specs(SPECS, path)
        code, captured = self._regress(
            ["--spec-file", path, "--workers", "1", "--json"], capsys
        )
        assert code == 0
        assert json.loads(captured.out)["digest"] == serial_report.digest()

    def test_spec_file_rejects_flags_it_overrides(self, tmp_path, capsys):
        path = str(tmp_path / "specs.json")
        save_specs(SPECS, path)
        with pytest.raises(SystemExit) as excinfo:
            self._regress(
                ["--spec-file", path, "--model", "pci", "--with-monitors"],
                capsys,
            )
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--model" in err and "--with-monitors" in err

    def test_shard_flags_are_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit):
            self._regress(["--shards", "2", "--shard", "1/2"], capsys)

    def test_bad_shard_coordinate_rejected(self, capsys):
        for bad in ("3/2", "0/2", "x/y"):
            with pytest.raises(SystemExit):
                self._regress(["--shard", bad], capsys)

    def test_repro_cli_shard_and_merge(self, tmp_path, capsys):
        from repro.cli import main

        base = ["regress", "--model", "master_slave", "--scenarios", "4",
                "--cycles", "120", "--json"]
        paths = []
        for k in (1, 2):
            code = main(base + ["--shard", f"{k}/2"])
            captured = capsys.readouterr()
            assert code == 0
            path = tmp_path / f"ms{k}.json"
            path.write_text(captured.out)
            paths.append(str(path))
        code = main(["regress", "--merge", *paths, "--json"])
        captured = capsys.readouterr()
        assert code == 0
        merged = json.loads(captured.out)
        specs = build_specs(
            models=["master_slave"], count=4, base_seed=2005, cycles=120
        )
        serial = RegressionRunner(specs, engine=SerialEngine()).run()
        assert merged["digest"] == serial.digest()

    def test_regress_without_model_runs_every_scenario_model(self, capsys):
        code, captured = self._regress(
            ["--scenarios", "4", "--cycles", "120", "--json"], capsys
        )
        assert code == 0
        doc = json.loads(captured.out)
        specs = build_specs(count=4, base_seed=2005, cycles=120)
        serial = RegressionRunner(specs, engine=SerialEngine()).run()
        assert doc["digest"] == serial.digest()
        assert {v["model"] for v in doc["verdicts"]} == {"master_slave", "pci"}

    def test_shard_child_runs_without_the_workbench(self, tmp_path):
        # exactly the command LocalSubprocessHost spawns; -X importtime
        # lists every module the child imported over its whole run
        path = str(tmp_path / "specs.json")
        save_specs(SPECS, path)
        result = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "repro", "regress",
             "--spec-file", path, "--shard", "1/2", "--workers", "1",
             "--json"],
            capture_output=True,
            text=True,
            env=_repro_env(),
        )
        assert result.returncode == 0, result.stderr
        shard = plan_shards(SPECS, 2)[0]
        serial = RegressionRunner(list(shard.specs), engine=SerialEngine()).run()
        assert json.loads(result.stdout)["digest"] == serial.digest()
        imported = {
            line.rsplit("|", 1)[1].strip()
            for line in result.stderr.splitlines()
            if line.startswith("import time:") and "|" in line
        }
        assert "repro.scenarios.regression" in imported
        for package in ("workbench", "explorer", "translate", "coordinator"):
            assert not any(
                name == f"repro.{package}"
                or name.startswith(f"repro.{package}.")
                for name in imported
            ), package


    def test_workbench_import_leaves_the_http_transport_unloaded(self):
        # repro.dispatch serves HttpHost, CachingHttpHost and parse_hosts
        # lazily: a serial session never loads the HTTP stack
        probe = (
            "import sys\n"
            "import repro.workbench\n"
            "print([m for m in ('http.server', 'repro.service') "
            "if m in sys.modules])\n"
            "from repro.dispatch import CachingHttpHost, HttpHost\n"
            "print(CachingHttpHost is HttpHost, 'repro.service' in sys.modules)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            env=_repro_env(),
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == ["[]", "True True"]


class TestWarningHygiene:
    """JSON stdout must stay parseable even when shims warn (satellite)."""

    def test_route_warnings_to_stderr_pins_the_stream(self):
        code = (
            "import warnings, json, sys\n"
            "from repro.cliutil import route_warnings_to_stderr\n"
            "warnings.showwarning = lambda *a, **k: print('LEAK')\n"
            "route_warnings_to_stderr()\n"
            "warnings.warn('shim says hello', DeprecationWarning)\n"
            "print(json.dumps({'ok': True}))\n"
        )
        result = subprocess.run(
            [sys.executable, "-W", "default::DeprecationWarning", "-c", code],
            capture_output=True,
            text=True,
            env=_repro_env(),
        )
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout) == {"ok": True}
        assert "shim says hello" in result.stderr

    def test_scenarios_json_stream_is_pure_json_under_w_default(self):
        result = subprocess.run(
            [
                sys.executable,
                "-W",
                "default",
                "-m",
                "repro",
                "regress",
                "--scenarios",
                "2",
                "--cycles",
                "100",
                "--workers",
                "1",
                "--json",
            ],
            capture_output=True,
            text=True,
            env=_repro_env(),
        )
        assert result.returncode == 0, result.stderr
        doc = json.loads(result.stdout)  # would raise if warnings leaked
        assert doc["scenarios"] == 2


def _repro_env():
    from repro.dispatch.hosts import _child_env

    return _child_env()
