"""The generated sample-and-step against the letter path.

A harness bound to a generated letter reader, with only whole fused
property sets and no letters recorded, reads the design straight into
each set's generated property step.  The reference is the same run
with ``record_letters`` on, which builds a dict letter every cycle and
steps it (the path checkpoints and replay use).  Every observable must
agree: per binding ``fired``, verdict, failure cycle, report text and
time and the member snapshot (its letter window included), plus
``cycles_observed`` and, after a STOP, the kernel time and clock
level.  Violations are forced by a test process that drives design
signals on a rising edge.
"""

import random
from dataclasses import replace

import pytest

from repro.abv import AbvHarness, FailureAction
from repro.abv.letters import LetterDeclaration
from repro.psl import compile_properties
from repro.psl.compiled import FusedPropertySet
from repro.scenarios.regression import ScenarioSpec, _build_system, _monitor_directives
from repro.sysc import Clock, Signal, Simulator

TOPOLOGIES = {
    "pci": [(1, 1), (2, 2), (2, 3), (3, 2)],
    "master_slave": [(1, 1, 2), (1, 2, 2), (2, 1, 3), (2, 2, 2)],
}
CASES = [(model, topology) for model in sorted(TOPOLOGIES) for topology in TOPOLOGIES[model]]
#: rising edges on which the violator drives the design
VIOLATIONS = (37, 90)
REPORT = (FailureAction.REPORT,)
STOP = (FailureAction.REPORT, FailureAction.STOP)


def _violate(system, model):
    """Drive signals the properties forbid: both ends of the PCI grant
    vector high (a double grant, or a grant nobody requested), or the
    Master/Slave bus handed to its last master unasked."""
    wires = system.wires
    clock = system.clock

    def body():
        while True:
            yield clock.posedge()
            if clock.cycle_count in VIOLATIONS:
                if model == "pci":
                    wires.gnt[0].write(True)
                    wires.gnt[-1].write(True)
                else:
                    wires.owner.write(len(wires.want) - 1)
                    wires.transferring[0].write(True)

    system.simulator.thread(body, name="violator")


def _harness(spec, reference, actions=REPORT, violate=True):
    system = _build_system(spec)
    if violate:
        _violate(system, spec.model)
    harness = AbvHarness(system.simulator, system.clock, system.letter)
    harness.add_monitors(
        compile_properties(_monitor_directives(spec.model, spec.topology)),
        actions,
    )
    harness.record_letters = reference
    return system, harness


def _outcome(system, harness):
    """Everything a monitored run shows its user."""
    sim = system.simulator
    return {
        "bindings": [
            (
                b.monitor.name,
                b.fired,
                b.monitor.verdict(),
                b.monitor.failure_cycle,
                b.monitor.report(),
                b.monitor.snapshot(),
            )
            for b in harness.bindings
        ],
        "reports": [(r.label, r.message, r.time) for r in harness.reports.errors()],
        "observed": harness.cycles_observed,
        "time": sim.time,
        "clock": system.clock.read(),
        "stop": sim.stop_reason,
        "kernel": sim.stats.snapshot(),
    }


def _spec(model, topology, cycles=120):
    return ScenarioSpec(model, 2005, topology, "default", cycles, None, True)


def _both(spec, chunks, actions=REPORT, midway=None):
    """(sampled, reference) outcomes of one run in ``chunks``;
    ``midway(system, harness)`` runs between the first two chunks."""
    outcomes = []
    for reference in (False, True):
        system, harness = _harness(spec, reference, actions)
        for index, cycles in enumerate(chunks):
            if index == 1:
                # the first chunk ran on the path under test
                sampled = harness._samplers not in (None, False)
                assert sampled is not reference
                if midway is not None:
                    midway(system, harness)
            system.run_cycles(cycles)
            if system.simulator.stopped:
                break
        if reference:
            assert len(harness.recorded_letters) == harness.cycles_observed
        outcomes.append(_outcome(system, harness))
    return outcomes


@pytest.mark.parametrize("model,topology", CASES)
class TestSampledEqualsLetters:
    def test_report(self, model, topology):
        sampled, reference = _both(_spec(model, topology), (50, 70))
        assert any(fired for _, fired, *_ in sampled["bindings"])
        assert sampled["reports"]
        assert sampled == reference

    def test_stop(self, model, topology):
        sampled, reference = _both(_spec(model, topology), (50, 70), STOP)
        assert sampled["stop"] is not None
        # the STOP leaves the kernel on the violating cycle's negedge
        clock = _build_system(_spec(model, topology)).clock
        assert sampled["time"] % clock.period == clock._high_time
        assert sampled["clock"] is False
        assert sampled["observed"] == VIOLATIONS[0]
        assert sampled == reference

    def test_ragged_chunks(self, model, topology):
        """Owed samples across many short runs."""
        chunks = (1, 3, 33, 2, 40, 1, 20, 20)
        sampled, reference = _both(_spec(model, topology), chunks)
        assert sampled["observed"] == sum(chunks)
        assert sampled == reference


@pytest.mark.parametrize("model,topology", [("pci", (3, 2)), ("master_slave", (2, 2, 2))])
class TestHandOver:
    def test_member_split_mid_run(self, model, topology):
        """A member restored on its own splits out of its set; the
        harness regroups and both sets keep sampling."""

        def split(system, harness):
            monitor = harness.bindings[2].monitor
            monitor.restore(monitor.snapshot())

        generation = FusedPropertySet.generation
        sampled, reference = _both(_spec(model, topology), (30, 90), midway=split)
        assert FusedPropertySet.generation == generation + 2
        assert sampled == reference

    def test_fall_back_mid_run(self, model, topology):
        """A WARN binding added mid-run hands sampling to the negedge
        thread; its sets step letters from then on."""

        def warn(system, harness):
            assert harness._settling
            signal = Signal(False, "assertion_warning", system.simulator)
            name = "gnt0" if model == "pci" else "owner0"
            (monitor,) = compile_properties([f"never ({name} && !{name})"])
            harness.add_monitor(monitor, (FailureAction.WARN,), signal)
            assert not harness._settling

        sampled, reference = _both(_spec(model, topology), (30, 90), midway=warn)
        assert sampled == reference


def test_sampler_is_generated_once_per_shape_and_suite():
    """Systems of one shape share one compiled sample-and-step."""
    spec = _spec("pci", (2, 2), cycles=5)
    harnesses = []
    for seed in (1, 2):
        system, harness = _harness(replace(spec, seed=seed), False, violate=False)
        system.run_cycles(5)
        harnesses.append(harness)
    (first,), (second,) = (h._samplers for h in harnesses)
    assert first[1] is not second[1]
    assert first[1].__code__ is second[1].__code__
    assert "W.append" in first[0].sampler(harnesses[0].extractor.bound_letter[0].source).source


def test_a_window_of_other_letters_steps_from_the_reader():
    """A member restored from a snapshot of another letter shape holds
    letters the sampler cannot adopt; that set steps the reader's
    letter instead, and the verdicts match the letter path."""
    spec = _spec("pci", (2, 2), cycles=40)
    foreign = {"gnt0": False, "gnt1": False, "req0": False}
    outcomes = []
    for reference in (False, True):
        system, harness = _harness(spec, reference)
        system.run_cycles(20)
        monitor = harness.bindings[0].monitor
        verdict, state, covered, _ = monitor.snapshot()
        monitor.restore((verdict, state, covered, (foreign, foreign)))
        system.run_cycles(20)
        outcomes.append(_outcome(system, harness))
    assert outcomes[0] == outcomes[1]


class _OddValues:
    """Three signals driven with values PSL must coerce: ints and
    strings besides bools."""

    letter = LetterDeclaration(("a", "sa"), ("b", "sb"), ("c", "sc"))
    VALUES = (True, False, True, False, 0, 1, 2, "", "x")

    def __init__(self, seed):
        self.simulator = sim = Simulator()
        self.clock = clock = Clock("clk", 10, sim)
        self.sa, self.sb, self.sc = (Signal(False, name, sim) for name in "abc")
        rng = random.Random(seed)

        def body():
            while True:
                yield clock.posedge()
                for signal in (self.sa, self.sb, self.sc):
                    signal.write(rng.choice(self.VALUES))

        sim.thread(body, name="driver")


ODD_PROPERTIES = [
    "always (a -> b)",
    "never (a && !b)",
    "always (prev(a) -> c)",
    "always (rose(a) -> !fell(c))",
    "never {a; b}",
    "always {a} |=> {b}",
    "always ((a == 2) -> c)",
    "always (a || b || c)",
]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_odd_values_coerce_as_the_letter_path_and_the_interpreter(seed):
    """Values that are not bools take ``as_bool`` on every path: the
    sample-and-step, the compiled letter path and the interpreted
    engine reach the same verdicts."""
    outcomes = []
    for engine, reference in (("compiled", False), ("compiled", True), ("interpreted", True)):
        system = _OddValues(seed)
        harness = AbvHarness(system.simulator, system.clock, system.letter)
        harness.add_monitors(compile_properties(ODD_PROPERTIES, engine=engine))
        harness.record_letters = reference
        system.simulator.run(system.clock.period * 60)
        if engine == "compiled":
            assert (harness._samplers not in (None, False)) is not reference
        outcomes.append([
            (b.fired, b.monitor.verdict(), b.monitor.failure_cycle)
            for b in harness.bindings
        ])
        if engine == "compiled" and not reference:
            snapshots = [b.monitor.snapshot() for b in harness.bindings]
        elif engine == "compiled":
            assert [b.monitor.snapshot() for b in harness.bindings] == snapshots
    assert outcomes[0] == outcomes[1] == outcomes[2]
    assert any(fired for fired, _, _ in outcomes[0])
