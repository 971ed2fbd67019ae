"""Settle sampling against the negedge-thread reference.

The harness samples at the end of each rising edge's instant instead
of waking a thread on the negedge.  The contract: every observable --
letter stream, verdicts, failure report times, ``sim.time`` after a
STOP -- equals what the negedge sampler produced, or the run fails
with a typed error.  Each case runs a design twice, once under
:class:`NegedgeHarness` (the sampler thread always on, the behaviour
before settle sampling) and once under :class:`AbvHarness`, under both
PSL engines.
"""

from copy import deepcopy
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.abv import AbvHarness, FailureAction
from repro.abv.harness import SettleHazardError
from repro.checkpoint import (
    Checkpoint,
    CheckpointVersionError,
    restore_system,
    snapshot_scenario_run,
)
from repro.models.master_slave.properties import ms_invariant_properties
from repro.models.pci.properties import pci_safety_properties
from repro.psl import compile_properties
from repro.psl.compiled import ENGINES
from repro.scenarios.regression import ScenarioSpec, _build_system
from repro.sysc import Clock, ReportHandler, Signal, Simulator, ns


class NegedgeHarness(AbvHarness):
    """The reference: the sampler thread always runs and waits on the
    clock's negedge, as every harness did before settle sampling."""

    def _choose_sampling(self) -> None:
        pass


SPECS = {
    "master_slave": ScenarioSpec(
        "master_slave", 2005, (2, 2, 2), "bursty", 60, None, True
    ),
    "pci": ScenarioSpec("pci", 2011, (2, 2), "default", 60, None, True),
}


def _directives(spec):
    if spec.model == "master_slave":
        blocking, non_blocking, slaves = spec.topology
        return ms_invariant_properties(
            blocking + non_blocking, slaves, include_handshake=False
        )
    return pci_safety_properties(*spec.topology)


def _monitored(spec, engine, harness_class=AbvHarness):
    system = _build_system(spec)
    harness = harness_class(system.simulator, system.clock, system.letter)
    harness.add_properties(_directives(spec), engine=engine)
    harness.record_letters = True
    return system, harness


def _outcome(sim, harness):
    """Everything a monitored run exposes to its user."""
    return {
        "letters": [dict(letter) for letter in harness.recorded_letters],
        "verdicts": [b.monitor.verdict() for b in harness.bindings],
        "fired": [b.fired for b in harness.bindings],
        "observed": harness.cycles_observed,
        "reports": [(r.label, r.time) for r in harness.reports.errors()],
        "time": sim.time,
    }


def toggler():
    """``p`` flips and ``box.count`` counts on every rising edge."""
    sim = Simulator()
    clock = Clock("clk", ns(10), sim)
    p = Signal(False, "p", sim)
    box = SimpleNamespace(count=0)

    def driver():
        while True:
            yield clock.posedge()
            p.write(not p.read())
            box.count += 1

    sim.thread(driver)
    return sim, clock, p, box


def _letter(p, box, clock=None):
    def letter():
        doc = {"p": p.read(), "count": box.count, "late": box.count >= 7}
        if clock is not None:
            doc["clk"] = clock.read()
        return doc

    return letter


def _toggler_run(harness_class, engine, *, design=None,
                 actions=(FailureAction.REPORT,), cycles=20):
    sim, clock, p, box = toggler()
    if design is not None:
        design(sim, clock, p, box)
    harness = harness_class(sim, clock, _letter(p, box), ReportHandler())
    harness.record_letters = True
    harness.add_properties(
        ["never late", "always (p || !p)"], engine=engine, actions=actions
    )
    sim.run(ns(10) * cycles)
    return sim, clock, harness


@pytest.mark.parametrize("engine", ENGINES)
class TestDeadlineSplit:
    """The deadline posedge's sample is owed to the next run."""

    @pytest.mark.parametrize("model", sorted(SPECS))
    @pytest.mark.parametrize("split", [(1, 1), (7, 13), (30, 30)])
    def test_split_runs_equal_one_run(self, engine, model, split):
        a, b = split
        spec = replace(SPECS[model], cycles=a + b)
        ref_system, ref = _monitored(spec, engine, NegedgeHarness)
        ref_system.run_cycles(a + b)
        system, harness = _monitored(spec, engine)
        system.run_cycles(a)
        assert harness.cycles_observed == a
        system.run_cycles(b)
        assert harness._settling
        assert harness.cycles_observed == a + b
        assert _outcome(system.simulator, harness) == _outcome(
            ref_system.simulator, ref
        )

    def test_ragged_deadlines(self, engine):
        """Deadlines between a posedge and its negedge, or exactly on
        the negedge, split the sample the same way the thread did."""
        spec = SPECS["master_slave"]
        period = _build_system(spec).clock.period
        ref_system, ref = _monitored(spec, engine, NegedgeHarness)
        system, harness = _monitored(spec, engine)
        for chunk in (period // 4, period // 4, period, 3 * period // 2,
                      0, period + 1, 5 * period):
            ref_system.simulator.run(chunk)
            system.simulator.run(chunk)
            assert harness.cycles_observed == ref.cycles_observed
        assert _outcome(system.simulator, harness) == _outcome(
            ref_system.simulator, ref
        )

    def test_monitored_run_costs_the_kernel_what_a_plain_one_does(
        self, engine
    ):
        spec = SPECS["pci"]
        plain = _build_system(spec)
        plain.run_cycles(40)
        system, harness = _monitored(spec, engine)
        system.run_cycles(40)
        assert harness.cycles_observed == 40
        assert (
            system.simulator.stats.snapshot()
            == plain.simulator.stats.snapshot()
        )


@pytest.mark.parametrize("engine", ENGINES)
class TestStopAndReportTimes:
    def test_stop_lands_on_the_negedge(self, engine):
        runs = [
            _toggler_run(
                cls, engine,
                actions=(FailureAction.STOP, FailureAction.REPORT),
            )
            for cls in (NegedgeHarness, AbvHarness)
        ]
        (ref_sim, ref_clock, ref), (sim, clock, harness) = runs
        assert harness._settling
        assert ref_sim.stopped and sim.stopped
        assert sim.time == ref_sim.time == ns(10) * 6 + ns(5)
        assert clock.read() == ref_clock.read()
        assert _outcome(sim, harness) == _outcome(ref_sim, ref)

    def test_report_carries_the_negedge_time(self, engine):
        (ref_sim, _, ref), (sim, _, harness) = [
            _toggler_run(cls, engine) for cls in (NegedgeHarness, AbvHarness)
        ]
        assert harness.reports.errors()
        assert _outcome(sim, harness) == _outcome(ref_sim, ref)

    def test_letter_reading_the_clock_sees_it_low(self, engine):
        """The sample shows the clock level the negedge showed."""
        (ref_sim, _, ref), (sim, clock, harness) = [
            _clock_reading_run(cls, engine)
            for cls in (NegedgeHarness, AbvHarness)
        ]
        assert harness._settling
        assert all(letter["clk"] is False for letter in harness.recorded_letters)
        assert clock.read() is True
        assert _outcome(sim, harness) == _outcome(ref_sim, ref)


def _clock_reading_run(harness_class, engine):
    sim, clock, p, box = toggler()
    harness = harness_class(sim, clock, _letter(p, box, clock))
    harness.record_letters = True
    harness.add_properties(["never late"], engine=engine)
    sim.run(ns(10) * 12)
    return sim, clock, harness


def _negedge_mutator(sim, clock, p, box):
    """Registered before the harness; waits on the negedge from its
    first segment and bumps a letter-visible attribute there."""

    def body():
        while True:
            yield clock.negedge_event
            box.count += 100

    sim.thread(body)


def _static_mutator(sim, clock, p, box):
    """Statically sensitive to the negedge (elaboration-time event)."""

    def body():
        box.count += 100

    sim.method(body, sensitive=(clock.negedge_event,), dont_initialize=True)


def _late_mutator(sim, clock, p, box):
    """Starts waiting on the negedge only at the fourth rising edge."""

    def body():
        for _ in range(4):
            yield clock.posedge()
        while True:
            yield clock.negedge_event
            box.count += 100

    sim.thread(body)


def _value_changed_mutator(sim, clock, p, box):
    def body():
        while True:
            yield clock.value_changed
            box.count += 100

    sim.thread(body)


@pytest.mark.parametrize("engine", ENGINES)
class TestFallback:
    @pytest.mark.parametrize("design", [
        _negedge_mutator, _static_mutator, _late_mutator,
        _value_changed_mutator,
    ])
    def test_negedge_listener_falls_back(self, engine, design):
        (ref_sim, _, ref), (sim, _, harness) = [
            _toggler_run(cls, engine, design=design, cycles=12)
            for cls in (NegedgeHarness, AbvHarness)
        ]
        assert not harness._settling
        assert _outcome(sim, harness) == _outcome(ref_sim, ref)

    def test_listener_registered_after_the_harness(self, engine):
        outcomes = []
        for cls in (NegedgeHarness, AbvHarness):
            sim, clock, p, box = toggler()
            harness = cls(sim, clock, _letter(p, box))
            harness.record_letters = True
            harness.add_properties(["never late"], engine=engine)
            _negedge_mutator(sim, clock, p, box)
            sim.run(ns(10) * 12)
            outcomes.append(_outcome(sim, harness))
        assert not harness._settling
        assert outcomes[0] == outcomes[1]

    def test_warn_binding_falls_back(self, engine):
        outcomes = []
        for cls in (NegedgeHarness, AbvHarness):
            sim, clock, p, box = toggler()
            warn = Signal(False, "warn", sim)
            seen = []

            def watcher(warn=warn, seen=seen, sim=sim):
                yield warn.posedge_event
                seen.append(sim.time)

            sim.thread(watcher)
            harness = cls(sim, clock, _letter(p, box))
            harness.record_letters = True
            harness.add_monitor(
                *compile_properties(["never late"], engine=engine),
                actions=[FailureAction.WARN], warning_signal=warn,
            )
            sim.run(ns(10) * 12)
            outcomes.append((_outcome(sim, harness), seen))
        assert not harness._settling
        assert outcomes[0][1] == [ns(10) * 6 + ns(5)]
        assert outcomes[0] == outcomes[1]

    def test_warn_binding_added_mid_run_falls_back(self, engine):
        outcomes = []
        for cls in (NegedgeHarness, AbvHarness):
            sim, clock, p, box = toggler()
            warn = Signal(False, "warn", sim)
            harness = cls(sim, clock, _letter(p, box))
            harness.record_letters = True
            harness.add_properties(["always (p || !p)"], engine=engine)
            sim.run(ns(10) * 3)
            settled = harness._settling
            harness.add_monitor(
                *compile_properties(["never late"], engine=engine),
                actions=[FailureAction.WARN], warning_signal=warn,
            )
            sim.run(ns(10) * 9)
            outcomes.append(_outcome(sim, harness))
        assert settled and not harness._settling
        assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("engine", ENGINES)
def test_timed_write_between_the_edges_raises(engine):
    def stimulus(sim, clock, p, box):
        def body():
            while True:
                yield clock.posedge()
                yield ns(2)
                box.count += 1

        sim.thread(body)

    ref_sim, _, ref = _toggler_run(NegedgeHarness, engine, design=stimulus)
    assert ref.cycles_observed == 20
    with pytest.raises(SettleHazardError, match="between"):
        _toggler_run(AbvHarness, engine, design=stimulus)


@pytest.mark.parametrize("engine", ENGINES)
def test_timed_event_after_the_negedge_is_fine(engine):
    def stimulus(sim, clock, p, box):
        def body():
            while True:
                yield clock.posedge()
                yield ns(7)
                box.count += 1

        sim.thread(body)

    (ref_sim, _, ref), (sim, _, harness) = [
        _toggler_run(cls, engine, design=stimulus)
        for cls in (NegedgeHarness, AbvHarness)
    ]
    assert harness._settling
    assert _outcome(sim, harness) == _outcome(ref_sim, ref)


class TestOwedSampleCheckpoint:
    """A monitored snapshot sits on a deadline posedge whose sample is
    still owed; the checkpoint carries it and restore re-arms it."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("model", sorted(SPECS))
    def test_restore_at_the_deadline_posedge(self, model, engine, monkeypatch):
        monkeypatch.setenv("REPRO_PSL_ENGINE", engine)
        spec = SPECS[model]
        at, more = 23, 17
        checkpoint = snapshot_scenario_run(replace(spec, cycles=at), at)
        clock = _build_system(spec).clock
        assert checkpoint.clock["owed_sample_in"] == clock._high_time
        assert len(checkpoint.letters) == at

        system, harness = restore_system(checkpoint)
        sim = system.simulator
        assert sim._settle == [(sim.time + clock._high_time, harness)]
        system.run_cycles(more)

        ref_system, ref = _monitored(
            replace(spec, cycles=at + more), engine, NegedgeHarness
        )
        ref_system.run_cycles(at + more)
        assert _outcome(sim, harness) == _outcome(ref_system.simulator, ref)

    def test_the_owed_entry_is_what_carries_the_sample(self):
        """Drop the field (re-digested, so the document is valid): the
        restored run is a letter short -- nothing stands in for it."""
        spec = SPECS["master_slave"]
        checkpoint = snapshot_scenario_run(replace(spec, cycles=10), 10)
        clock = deepcopy(checkpoint.clock)
        clock.pop("owed_sample_in")
        doc = replace(checkpoint, clock=clock).to_json()
        system, harness = restore_system(Checkpoint.from_json(doc))
        assert system.simulator._settle == []
        system.run_cycles(5)
        assert harness.cycles_observed == 14

    def test_plain_checkpoint_owes_nothing(self):
        spec = replace(SPECS["pci"], with_monitors=False, cycles=10)
        checkpoint = snapshot_scenario_run(spec, 10)
        assert "owed_sample_in" not in checkpoint.clock
        system, _ = restore_system(checkpoint)
        assert system.simulator._settle == []

    def test_version_1_monitored_checkpoint_is_refused(self):
        spec = SPECS["pci"]
        doc = snapshot_scenario_run(replace(spec, cycles=10), 10).to_json()
        doc["version"] = 1
        with pytest.raises(CheckpointVersionError, match="settle"):
            Checkpoint.from_json(doc)

    def test_version_1_plain_checkpoint_still_loads(self):
        spec = replace(SPECS["pci"], with_monitors=False, cycles=10)
        checkpoint = snapshot_scenario_run(spec, 10)
        doc = checkpoint.to_json()
        doc["version"] = 1
        assert Checkpoint.from_json(doc).digest == checkpoint.digest
