"""The design-for-verification static analyzer (``repro.analyze``).

Covers the three passes behind the findings pipeline -- the
delta-cycle race detector on planted fixture sources, the property
linter on planted vacuous/contradictory/unreachable properties, and
the witnessed-kernel cross-check on a real two-writer race -- plus the
contracts the rest of the repo leans on: shipped models analyze clean,
report digests are byte-identical across runs and with the witness on
or off, the ``analyze`` workbench stage keeps session digests
engine-invariant, and analyzer counters flow through ``repro.obs``
without touching any digest.
"""

import json

import pytest

from repro.analyze import (
    AnalysisReport,
    DeltaWitness,
    Finding,
    analyze_duv,
    analyze_models,
    analyze_sources,
    apply_suppressions,
    lint_properties,
)
from repro.cli import main as repro_main
from repro.obs import OBS, enable_metrics, metric_name, runtime
from repro.sysc.clock import _ClockDriver
from repro.sysc.kernel import Simulator
from repro.sysc.process_ import MethodProcess, ThreadProcess
from repro.sysc.signal import Signal
from repro.workbench import (
    StageCall,
    StageStatus,
    VerificationPlan,
    Workbench,
    default_registry,
)
from repro.workbench.plan import STAGE_NAMES

# A planted model exercising every static race rule: two module
# classes driving ``req`` (multi-driver), a write-then-read of ``ack``
# with no yield between (read-after-write), and a while loop that can
# never suspend (wait-free-loop).
RACY_FIXTURE = '''\
from repro.sysc.signal import Signal
from repro.sysc.module import Module


class Wires:
    def __init__(self, sim):
        self.req = Signal(False, "req", sim)
        self.ack = Signal(False, "ack", sim)
        self.gnt = Signal(False, "gnt", sim)


class PushMaster(Module):
    def __init__(self, name, sim, wires):
        super().__init__(name, sim)
        self.wires = wires
        self.thread(self.run)

    def run(self):
        req = self.wires.req
        while True:
            req.write(True)
            yield 10


class PullMaster(Module):
    def __init__(self, name, sim, wires):
        super().__init__(name, sim)
        self.wires = wires
        self.thread(self.run)

    def run(self):
        req = self.wires.req
        while True:
            req.write(False)
            yield 10


class Echo(Module):
    def __init__(self, name, sim, wires):
        super().__init__(name, sim)
        self.wires = wires
        self.thread(self.run)

    def run(self):
        ack = self.wires.ack
        while True:
            ack.write(True)
            if ack.read():
                pass
            yield 10


class Spinner(Module):
    def __init__(self, name, sim, wires):
        super().__init__(name, sim)
        self.wires = wires
        self.thread(self.run)

    def run(self):
        gnt = self.wires.gnt
        yield 10
        while gnt.read():
            pass


class System:
    def __init__(self, sim):
        wires = Wires(sim)
        self.push = PushMaster("push", sim, wires)
        self.pull = PullMaster("pull", sim, wires)
        self.echo = Echo("echo", sim, wires)
        self.spin = Spinner("spin", sim, wires)
'''


def _rules(findings):
    return {f.rule for f in findings}


class TestRaceDetector:
    def _findings(self, source=RACY_FIXTURE):
        findings, _ = analyze_sources(
            {"fixture.py": source}, "fixture.py", model="fixture"
        )
        return findings

    def test_planted_multi_driver_detected(self):
        findings = [
            f for f in self._findings() if f.rule == "race.multi-driver"
        ]
        assert len(findings) == 1
        finding = findings[0]
        assert finding.severity == "error"
        assert "'req'" in finding.message
        assert "PushMaster" in finding.message
        assert "PullMaster" in finding.message
        # anchored at the declaration line of the racy signal
        assert finding.line == RACY_FIXTURE.splitlines().index(
            '        self.req = Signal(False, "req", sim)'
        ) + 1

    def test_planted_read_after_write_detected(self):
        findings = [
            f for f in self._findings() if f.rule == "race.read-after-write"
        ]
        assert len(findings) == 1
        assert "'ack'" in findings[0].message
        assert "no yield" in findings[0].message

    def test_planted_wait_free_loop_detected(self):
        findings = [
            f for f in self._findings() if f.rule == "race.wait-free-loop"
        ]
        assert len(findings) == 1
        assert "Spinner.run" in findings[0].message

    def test_single_writer_class_is_not_flagged(self):
        # Turn the second driver into a reader: the remaining rules
        # still fire, the multi-driver one does not.
        source = RACY_FIXTURE.replace("req.write(False)", "req.read()")
        assert _rules(self._findings(source)) == {
            "race.read-after-write",
            "race.wait-free-loop",
        }

    @pytest.mark.parametrize("index, flagged", [
        ("self.index", False), ("self._pick", True), ("pick", True),
    ])
    def test_only_the_instance_index_anchors_a_plural_write(
        self, index, flagged
    ):
        """A register such as ``self._pick`` selects a slot another
        instance may pick too; only ``self.index`` is the instance's own."""
        source = (
            "class Wires:\n"
            "    def __init__(self, sim):\n"
            "        self.busy = [Signal(False, f'busy{j}', sim) for j in range(2)]\n"
            "\n\n"
            "class Master(Module):\n"
            "    def __init__(self, index, sim, wires):\n"
            "        super().__init__(f'm{index}', sim)\n"
            "        self.index = index\n"
            "        self._pick = index\n"
            "        self.wires = wires\n"
            "        self.thread(self.run)\n"
            "\n"
            "    def run(self):\n"
            "        pick = self._pick\n"
            "        while True:\n"
            f"            self.wires.busy[{index}].write(True)\n"
            "            yield 10\n"
            "\n\n"
            "class System:\n"
            "    def __init__(self, sim):\n"
            "        wires = Wires(sim)\n"
            "        self.masters = [Master(i, sim, wires) for i in range(2)]\n"
        )
        findings = [
            f for f in self._findings(source) if f.rule == "race.multi-driver"
        ]
        assert bool(findings) is flagged
        assert all("without a self-anchored index" in f.message for f in findings)

    def test_inline_suppression_allows_a_finding(self):
        source = RACY_FIXTURE.replace(
            '        self.req = Signal(False, "req", sim)',
            "        # repro: allow[race.multi-driver] fixture exercises"
            " the suppression syntax\n"
            '        self.req = Signal(False, "req", sim)',
        )
        findings, _ = analyze_sources(
            {"fixture.py": source}, "fixture.py", model="fixture"
        )
        findings = apply_suppressions(
            findings, {"fixture.py": source.splitlines()}
        )
        suppressed = [f for f in findings if f.rule == "race.multi-driver"]
        assert len(suppressed) == 1
        assert suppressed[0].suppressed is True
        assert "suppression syntax" in suppressed[0].suppression_reason
        report = AnalysisReport(findings=suppressed)
        assert report.ok


class TestPropertyLinter:
    def test_vacuous_implication_detected(self):
        rules = _rules(lint_properties(["assert always {a && !a} |-> {b};"]))
        assert "prop.vacuity" in rules
        assert "prop.dead-atom" in rules

    def test_unreachable_automaton_state_detected(self):
        rules = _rules(lint_properties(["assert never {a ; (a && !a) ; b};"]))
        assert "prop.unreachable-state" in rules

    def test_tautological_never_detected(self):
        assert "prop.tautology" in _rules(
            lint_properties(["assert never {a && !a};"])
        )

    def test_boolean_tautology_and_contradiction(self):
        assert _rules(lint_properties(["assert always (b || !b);"])) == {
            "prop.tautology"
        }
        assert _rules(lint_properties(["assert never (b && !b);"])) == {
            "prop.tautology"
        }

    def test_uncoverable_cover_is_a_contradiction(self):
        assert "prop.contradiction" in _rules(
            lint_properties(["cover {a && !a};"])
        )

    def test_unknown_signal_needs_a_namespace(self):
        text = "assert never (zzz && a);"
        assert _rules(lint_properties([text])) == set()
        findings = lint_properties([text], namespace={"a"})
        assert _rules(findings) == {"prop.unknown-signal"}
        assert "zzz" in findings[0].message

    def test_healthy_property_is_clean(self):
        assert lint_properties(
            ["assert always {req} |-> {gnt};"], namespace={"req", "gnt"}
        ) == []


class TestDeltaWitness:
    def _racy_simulator(self):
        sim = Simulator("witness-test")
        sig = Signal(False, "shared", sim)

        def writer_a():
            while True:
                sig.write(True)
                yield 10

        def writer_b():
            while True:
                sig.write(False)
                yield 10

        sim.thread(writer_a, "writer_a")
        sim.thread(writer_b, "writer_b")
        return sim

    def test_witness_catches_same_delta_two_writer_race(self):
        sim = self._racy_simulator()
        with DeltaWitness(sim) as witness:
            sim.run(50)
        assert [name for name, _ in witness.conflict_summaries()] == ["shared"]
        _, writers = witness.conflict_summaries()[0]
        assert "writer_a" in writers and "writer_b" in writers
        stats = witness.stats.to_json()
        assert stats["deltas"] > 0
        assert stats["writes"] >= 2 * stats["deltas"]

    def test_witness_restores_kernel_and_signal_seams(self):
        sim = self._racy_simulator()
        process_classes = (MethodProcess, ThreadProcess, _ClockDriver)
        original_execute = [cls.execute for cls in process_classes]
        original_read, original_write = Signal.read, Signal.write
        with DeltaWitness(sim):
            for cls, execute in zip(process_classes, original_execute):
                assert cls.execute is not execute
            assert Signal.read is not original_read
            assert Signal.write is not original_write
            assert sim.on_delta
        assert [cls.execute for cls in process_classes] == original_execute
        assert Signal.read is original_read
        assert Signal.write is original_write
        assert not sim.on_delta

    def test_witness_facts_of_the_shipped_models_are_pinned(self, capsys):
        argv = ["analyze", "--json", "--witness", "--witness-cycles", "100"]
        assert repro_main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["digest"] == (
            "648a0df4d05c951321fb40f09aea6fe860fcbe7293e5b9f5ba55ed54bb1bc0f3"
        )
        keys = ("deltas", "reads", "writes", "max_read_set", "max_write_set")
        facts = {
            model: {key: entry["witness"][key] for key in keys}
            for model, entry in doc["facts"]["models"].items()
        }
        assert facts == {
            "master_slave": {"deltas": 302, "reads": 258, "writes": 387,
                             "max_read_set": 3, "max_write_set": 4},
            "pci": {"deltas": 302, "reads": 765, "writes": 565,
                    "max_read_set": 7, "max_write_set": 9},
        }

    def test_witness_is_exclusive(self):
        sim = self._racy_simulator()
        with DeltaWitness(sim):
            with pytest.raises(RuntimeError):
                DeltaWitness(Simulator("other")).__enter__()


class TestShippedModelsAndDigests:
    def test_shipped_models_analyze_clean(self):
        report = analyze_models()
        assert report.ok, report.render()
        # the shipped findings exist but every one carries a justified
        # suppression
        assert report.findings
        assert all(f.suppressed for f in report.findings)
        assert all(f.suppression_reason for f in report.findings)

    def test_digest_is_stable_across_runs(self):
        first = analyze_models()
        second = analyze_models()
        assert first.digest() == second.digest()
        assert json.dumps(first.to_json()["findings"]) == json.dumps(
            second.to_json()["findings"]
        )

    @pytest.mark.slow
    def test_witness_mode_keeps_the_digest(self):
        static = analyze_models()
        witnessed = analyze_models(witness=True, witness_cycles=50)
        assert static.digest() == witnessed.digest()
        # the witness leaves its trace in the (non-digested) facts
        for facts in witnessed.facts["models"].values():
            assert "witness" in facts
            assert facts["witness"]["deltas"] > 0

    def test_phase_dispatch_stream_carries_target_writes(self):
        """``PciTargetModule.run`` dispatches through its handler
        register (``self._phase()``); the walker inlines every handler,
        so the target's own DEVSEL#/TRDY#/STOP# drives reach the
        event stream the race checks read."""
        from pathlib import Path

        import repro.models.pci.systemc_model as pci_model

        path = "models/pci/systemc_model.py"
        _, structure = analyze_sources(
            {path: Path(pci_model.__file__).read_text(encoding="utf-8")},
            path,
            model="pci",
        )
        [events] = [
            events
            for (cls, body), events in structure.streams
            if (cls, body) == ("PciTargetModule", "run")
        ]
        writes = {
            (event[1].attr, event[1].index)
            for event in events
            if event[0] == "write"
        }
        assert {("devsel", "self"), ("trdy", "self"), ("stop", "self")} <= writes
        assert any(event[0] == "read" for event in events)

    @pytest.mark.parametrize("model, master, drives", [
        ("master_slave", "MsSequenceMaster", {"want", "transferring", "owner"}),
        ("pci", "PciSequenceMaster", {"req", "frame", "irdy", "addr"}),
    ])
    def test_sequence_master_run_streams_are_analyzed(self, model, master, drives):
        """The masters every run drives inherit ``run`` from
        ``scenarios.scoreboard.SequenceMaster`` and dispatch into their
        own phase handlers; the race pass reads the scenario sources,
        follows the inheritance, and keeps each access's own file."""
        from repro.analyze.runner import duv_sources
        from repro.workbench.registry import default_registry

        duv = default_registry().get(model)
        sources = duv_sources(duv)
        model_path = next(iter(sources))
        _, structure = analyze_sources(sources, model_path, model=model)
        streams = dict(structure.streams)
        events = streams[(master, "run")]
        writes = {event[1].attr for event in events if event[0] == "write"}
        assert drives <= writes
        scenario_path = f"src/repro/models/{model}/scenario.py"
        assert {event[-1] for event in events if event[0] == "write"} == {
            scenario_path
        }
        # the abstract base is analyzed only through its subclasses
        assert ("SequenceMaster", "run") not in streams

    def test_report_findings_are_canonically_sorted(self):
        report = analyze_models()
        keys = [f.sort_key() for f in report.findings]
        assert keys == sorted(keys)


class TestWorkbenchStage:
    def test_analyze_is_a_planable_stage(self):
        assert "analyze" in STAGE_NAMES

    def test_analyze_stage_passes_on_shipped_model(self):
        result = Workbench("master_slave", seed=7).analyze()
        assert result.status is StageStatus.PASSED
        assert result.data["unsuppressed"] == 0
        assert result.data["findings_digest"]
        assert "race.multi-driver" in result.data["rules"]
        # witness stats and passes live in metrics, outside the digest
        assert "facts" in result.metrics

    @pytest.mark.slow
    def test_session_digest_invariant_with_analyze_stage(self):
        plan = VerificationPlan(
            name="analyze-then-regress",
            stages=(
                StageCall.of("analyze"),
                StageCall.of("regress", scenarios=2, cycles=150),
            ),
        )
        digests = set()
        for workers in (1, 2):
            staged = VerificationPlan(
                name=plan.name,
                stages=(
                    plan.stages[0],
                    StageCall.of("regress", scenarios=2, cycles=150,
                                 workers=workers),
                ),
            )
            report = Workbench("master_slave", seed=11).run_plan(staged)
            assert report.ok, report.summary()
            digests.add(report.digest())
        assert len(digests) == 1


class TestCliAndMetrics:
    def test_cli_analyze_json_gates_clean(self, capsys):
        assert repro_main(["analyze", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert doc["digest"]
        assert {f["model"] for f in doc["findings"]} == {"master_slave", "pci"}

    def test_cli_analyze_single_model_renders(self, capsys):
        assert repro_main(["analyze", "--model", "pci"]) == 0
        out = capsys.readouterr().out
        assert "allowed" in out

    def test_finding_counters_flow_through_obs(self):
        try:
            enable_metrics()
            duv = default_registry().get("master_slave")
            report = analyze_duv(duv)
            counters = OBS.metrics.to_json()["counters"]
            key = metric_name(
                "analyze.findings", rule="race.multi-driver",
                model="master_slave",
            )
            assert counters[key] == float(
                report.rule_counts()["race.multi-driver"]
            )
        finally:
            runtime.disable()

    @pytest.mark.slow
    def test_witness_counters_flow_through_obs(self):
        try:
            enable_metrics()
            duv = default_registry().get("master_slave")
            analyze_duv(duv, witness=True, witness_cycles=50)
            counters = OBS.metrics.to_json()["counters"]
            deltas = counters[
                metric_name("analyze.witness.deltas", model="master_slave")
            ]
            assert deltas > 0
        finally:
            runtime.disable()

    def test_metrics_never_touch_the_findings_digest(self):
        baseline = analyze_models(names=["master_slave"]).digest()
        try:
            enable_metrics()
            instrumented = analyze_models(names=["master_slave"]).digest()
        finally:
            runtime.disable()
        assert instrumented == baseline


class TestFindingPrimitives:
    def test_finding_rejects_unknown_severity(self):
        with pytest.raises(ValueError):
            Finding(rule="x", severity="fatal", path="p.py", line=1,
                    message="m")

    def test_report_round_trips_to_json(self):
        finding = Finding(rule="race.multi-driver", severity="error",
                          path="p.py", line=3, message="two drivers")
        report = AnalysisReport(findings=[finding])
        doc = report.to_json()
        assert doc["ok"] is False
        assert doc["rules"] == {"race.multi-driver": 1}
        assert doc["findings"][0]["path"] == "p.py"
        assert doc["findings"][0]["line"] == 3
        assert finding.location() == "p.py:3"
