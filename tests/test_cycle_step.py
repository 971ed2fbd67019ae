"""The kernel's cycle step against the general scheduler.

``Simulator._cycle_step`` runs each folded rising-edge instant inline
while the clock driver's timer is the only pending work.  The
contract: every observable -- KernelStats, ``delta_count``, time,
every signal's value and last-change delta, process and timer state,
wake order, checkpoints, scoreboard and monitor verdicts -- equals
what the general path (``_advance_time`` then ``_instant``)
produces.  The reference is
:class:`GeneralPathSimulator`, a test-only subclass whose step always
declines.  Each named fallback case also checks that the step really
ran (or, where it must, really declined), so no case passes vacuously.
"""

import hashlib
import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.abv import AbvHarness, FailureAction
from repro.analyze.witness import DeltaWitness
from repro.checkpoint.capture import snapshot_system
from repro.scenarios import NAMED_PROFILES, build_specs
from repro.scenarios.regression import _attach_monitors, _build_system
from repro.sysc import (
    Clock,
    Event,
    ReportHandler,
    Signal,
    SimulationStopped,
    Simulator,
    SyscError,
    ns,
)
from repro.sysc.clock import _ClockDriver
from repro.sysc.process_ import ThreadProcess

PERIOD = ns(10)


class GeneralPathSimulator(Simulator):
    """The reference: the cycle step always declines, so every instant
    runs through the general time advance and instant loop."""

    def _cycle_step(self, deadline):
        return False


def kernel_state(sim):
    """Everything the kernel holds that a later instant could observe."""
    stats = sim.stats.snapshot()
    del stats["cycle_step_instants"]
    return {
        "stats": stats,
        "time": sim.time,
        "delta_count": sim.delta_count,
        "stop": sim.stop_reason,
        "signals": [
            (s.name, s._current, s._last_change_delta) for s in sim.signals
        ],
        "processes": [
            (
                p.name,
                p.runnable,
                p.terminated,
                [e.name for e in p._waiting_on]
                if isinstance(p, ThreadProcess) else None,
            )
            for p in sim.processes
        ],
        "runnable": [p.name for p in sim._runnable],
        "timed": sorted(
            (fire_time, event.name)
            for fire_time, sequence, event in sim._timed
            if sequence not in sim._cancelled
        ),
        "settle": [due for due, _ in sim._settle],
    }


# -- the regression specs ---------------------------------------------------------


def regress_specs(seed, with_monitors):
    """Both models x every topology x every named profile, 300 cycles:
    the spec list of the perfbench regress workloads."""
    specs = []
    for index, profile in enumerate(sorted(NAMED_PROFILES)):
        specs += build_specs(
            count=8,
            base_seed=seed + 8 * index,
            cycles=300,
            with_monitors=with_monitors,
            profiles=[profile],
        )
    return specs


def run_spec(spec, simulator_class):
    """One scenario run, snapshotted mid-run; its observables and the
    number of instants the cycle step ran."""
    system = _build_system(spec)
    system.simulator.__class__ = simulator_class
    harness = None
    if spec.with_monitors:
        harness = _attach_monitors(spec, system)
        harness.record_letters = True
    half = spec.cycles // 2 + 1
    system.run_cycles(half)
    snapshot = snapshot_system(system, spec, half, harness)
    system.run_cycles(spec.cycles - half)
    if harness is not None:
        harness.finish()
    report = system.check(spec.label)
    stream = system.transaction_stream().encode("utf-8")
    outcome = {
        "kernel": kernel_state(system.simulator),
        "cycles": system.clock.cycle_count,
        "snapshot": snapshot.canonical_payload(),
        "stream": hashlib.sha256(stream).hexdigest(),
        "scoreboard": report.digest(),
        "ok": report.ok,
        "failed": [b.monitor.name for b in harness.failed] if harness else [],
        "verdicts": (
            [b.monitor.verdict() for b in harness.bindings] if harness else []
        ),
    }
    return outcome, system.simulator.stats.cycle_step_instants


@pytest.mark.parametrize("monitored", [False, True], ids=["plain", "monitored"])
@pytest.mark.parametrize("seed", [2005, 7])
def test_regress_specs_match_the_general_path(seed, monitored):
    specs = regress_specs(seed, monitored)
    assert len(specs) == 40
    for spec in specs:
        stepped, steps = run_spec(spec, Simulator)
        reference, reference_steps = run_spec(spec, GeneralPathSimulator)
        assert reference_steps == 0
        assert stepped == reference, spec.label
        # every rising edge after time zero is stepped; only the first
        # falling edge is not (the initialization instant cannot fold)
        assert steps == spec.cycles, spec.label


def test_regress_pass_steps_all_but_forty_time_advances():
    advances = steps = 0
    for spec in regress_specs(2005, False):
        system = _build_system(spec)
        system.run_cycles(spec.cycles)
        advances += system.simulator.stats.time_advances
        steps += system.simulator.stats.cycle_step_instants
    assert (steps, advances) == (12_000, 12_040)


# -- named fallbacks ---------------------------------------------------------------


def run_design(design, runs, simulator_class=Simulator, elaborate=None):
    """Build ``design(sim, clock, log)``, then ``elaborate(sim, clock)``
    if given, run each duration in turn; the outcome and the run's
    cycle-step count."""
    sim = simulator_class()
    clock = Clock("clk", PERIOD, sim)
    log = []
    extra = design(sim, clock, log)
    if elaborate is not None:
        elaborate(sim, clock)
    error = None
    states = []
    try:
        for duration in runs:
            sim.run(duration)
            states.append(kernel_state(sim))
    except (ValueError, SyscError) as exc:
        # a model fault, or a timed wait the harness cannot settle
        error = (type(exc).__name__, str(exc))
    outcome = {
        "kernel": kernel_state(sim),
        "states": states,
        "cycles": clock.cycle_count,
        "log": log,
        "error": error,
        "extra": extra() if callable(extra) else None,
    }
    return outcome, sim.stats.cycle_step_instants


def compare(design, runs=(PERIOD * 20,)):
    """Build ``design(sim, clock, log)`` on both simulators, run each
    duration in turn, and require identical outcomes.

    Returns the stepped side's outcome and its cycle-step count.
    """
    stepped, steps = run_design(design, runs, Simulator)
    reference, reference_steps = run_design(design, runs, GeneralPathSimulator)
    assert reference_steps == 0
    assert stepped == reference
    return stepped, steps


def waker(sim, log, name):
    """A logging hook: (name, time, delta) per call."""
    return lambda *_: log.append((name, sim.time, sim.delta_count))


def counter_thread(sim, clock, log, name, signal=None, cycles=None):
    """Waits on the posedge, logs each wake and optionally writes a
    count to ``signal``; finishes after ``cycles`` wakes if given."""

    def body():
        posedge = clock.posedge()
        count = 0
        while cycles is None or count < cycles:
            yield posedge
            count += 1
            log.append((name, sim.time, sim.delta_count))
            if signal is not None:
                signal.write(count)

    sim.thread(body, name=name)


def test_method_sensitive_to_a_posedge_written_signal():
    def design(sim, clock, log):
        s = Signal(0, "s", sim)
        counter_thread(sim, clock, log, "writer", s)
        sim.method(waker(sim, log, "method"), name="method",
                   sensitive=(s,), dont_initialize=True)

    outcome, steps = compare(design)
    assert steps > 0
    # the method wakes in delta 3: the step hands the instant over
    assert outcome["kernel"]["stats"]["max_deltas_per_instant"] == 3
    assert outcome["kernel"]["stats"]["full_path_instants"] == 0


def test_two_drivers_of_one_signal_at_a_posedge():
    def design(sim, clock, log):
        s = Signal(0, "s", sim)
        counter_thread(sim, clock, log, "first", s)

        def second():
            posedge = clock.posedge()
            while True:
                yield posedge
                if clock.cycle_count % 3 == 0:
                    s.write(-clock.cycle_count)
                    log.append(("second", sim.time, sim.delta_count))

        sim.thread(second, name="second")

    outcome, steps = compare(design)
    assert steps > 0
    # last write wins in the one instant loop: a second driver is no
    # reason to leave it
    assert outcome["kernel"]["stats"]["full_path_instants"] == 0


def test_simulation_stopped_from_a_posedge_waiter():
    def design(sim, clock, log):
        s = Signal(0, "s", sim)
        counter_thread(sim, clock, log, "early", s)

        def stopper():
            posedge = clock.posedge()
            while True:
                yield posedge
                if clock.cycle_count == 7:
                    raise SimulationStopped("seven")

        sim.thread(stopper, name="stopper")
        counter_thread(sim, clock, log, "late")

    outcome, steps = compare(design, runs=(PERIOD * 20, PERIOD * 5))
    assert steps > 0
    assert outcome["kernel"]["stop"] == "seven"
    # the waiter behind the stopper never ran at the stopping edge
    assert outcome["kernel"]["runnable"] == ["late"]


def test_stop_monitor_at_settle():
    def design(sim, clock, log):
        p = Signal(False, "p", sim)
        count = [0]

        def driver():
            while True:
                yield clock.posedge()
                p.write(not p.read())
                count[0] += 1

        sim.thread(driver, name="driver")
        harness = AbvHarness(
            sim, clock, lambda: {"p": p.read(), "late": count[0] >= 7},
            ReportHandler(),
        )
        harness.add_properties(
            ["never late"],
            actions=(FailureAction.REPORT, FailureAction.STOP),
        )
        return lambda: (
            [(r.label, r.time) for r in harness.reports.errors()],
            [b.monitor.verdict() for b in harness.bindings],
            harness.cycles_observed,
        )

    outcome, steps = compare(design)
    assert steps > 0
    assert outcome["kernel"]["stop"] is not None
    assert outcome["extra"][0]


def test_immediate_notification_from_a_posedge_waiter():
    """A process an immediate notification wakes runs in the same
    delta, after every posedge waiter, as in the general queue."""

    def design(sim, clock, log):
        go = Event("go", sim)

        def listener():
            while True:
                yield go
                log.append(("listener", sim.time, sim.delta_count))

        def notifier():
            posedge = clock.posedge()
            while True:
                yield posedge
                if clock.cycle_count % 2:
                    go.notify(0)

        sim.thread(listener, name="listener")
        sim.thread(notifier, name="notifier")
        counter_thread(sim, clock, log, "after")

    outcome, steps = compare(design)
    assert steps > 0
    log = outcome["log"]
    woken = [k for k, entry in enumerate(log) if entry[0] == "listener"]
    assert len(woken) == 11  # its first run, then every odd cycle
    for k in woken[1:]:
        # same instant and delta as the posedge waiter queued before it
        assert log[k - 1] == ("after", *log[k][1:])


def test_thread_waiting_twice_on_the_posedge():
    """A waiter listed twice on the posedge runs once per edge."""

    def design(sim, clock, log):
        def twice():
            posedge = clock.posedge()
            while True:
                yield (posedge, posedge)
                log.append(("twice", sim.time, sim.delta_count))

        sim.thread(twice, name="twice")
        counter_thread(sim, clock, log, "once")

    outcome, steps = compare(design)
    assert steps > 0
    assert [e for e in outcome["log"] if e[0] == "twice"][-1][1] == PERIOD * 20


def test_timed_wait_in_a_thread():
    def design(sim, clock, log):
        counter_thread(sim, clock, log, "steady")

        def sleeper():
            posedge = clock.posedge()
            for delay in (3, 25, 10, 1):
                for _ in range(3):
                    yield posedge
                yield ns(delay)
                log.append(("sleeper", sim.time, sim.delta_count))

        sim.thread(sleeper, name="sleeper")

    _, steps = compare(design, runs=(PERIOD * 30,))
    assert 0 < steps < 28


def test_static_posedge_waiter():
    def design(sim, clock, log):
        counter_thread(sim, clock, log, "thread")
        sim.method(waker(sim, log, "method"), name="method",
                   sensitive=(clock.posedge_event,), dont_initialize=True)

    _, steps = compare(design)
    assert steps == 0


@pytest.mark.parametrize("listener", ["negedge_event", "value_changed"])
def test_low_phase_listener_created_mid_run(listener):
    def design(sim, clock, log):
        counter_thread(sim, clock, log, "steady")

        def watcher():
            posedge = clock.posedge()
            for _ in range(5):
                yield posedge
            for _ in range(4):
                yield getattr(clock, listener)
                log.append(("watcher", sim.time, sim.delta_count, clock.read()))

        sim.thread(watcher, name="watcher")

    outcome, steps = compare(design)
    assert 0 < steps < 10
    assert any(entry[0] == "watcher" for entry in outcome["log"])


def test_on_delta_hook_attached_mid_run():
    def design(sim, clock, log):
        s = Signal(0, "s", sim)
        hook = waker(sim, log, "hook")

        def attacher():
            posedge = clock.posedge()
            while True:
                yield posedge
                s.write(clock.cycle_count)
                if clock.cycle_count == 4:
                    sim.on_delta.append(hook)
                elif clock.cycle_count == 9:
                    sim.on_delta.remove(hook)

        sim.thread(attacher, name="attacher")

    outcome, steps = compare(design)
    assert 0 < steps < 18
    assert any(entry[0] == "hook" for entry in outcome["log"])


def test_delta_witness_attached_mid_run():
    def design(sim, clock, log):
        s = Signal(0, "s", sim)
        witness = DeltaWitness(sim)

        def attacher():
            posedge = clock.posedge()
            while True:
                yield posedge
                s.write(clock.cycle_count)
                if clock.cycle_count == 4:
                    witness.__enter__()
                elif clock.cycle_count == 9:
                    witness.__exit__(None, None, None)

        sim.thread(attacher, name="attacher")
        counter_thread(sim, clock, log, "reader", s)
        return lambda: witness.stats.to_json()

    outcome, steps = compare(design)
    assert 0 < steps < 18
    assert outcome["extra"]["deltas"] > 0


def test_deadline_between_edges():
    def design(sim, clock, log):
        s = Signal(0, "s", sim)
        counter_thread(sim, clock, log, "writer", s)
        counter_thread(sim, clock, log, "other")

    runs = (ns(34), ns(7), ns(1), ns(59), ns(10), ns(3), ns(41))
    outcome, steps = compare(design, runs=runs)
    assert steps > 0
    assert outcome["cycles"] == 16


def test_deadline_between_edges_with_settle_sampling():
    def design(sim, clock, log):
        p = Signal(False, "p", sim)

        def driver():
            while True:
                yield clock.posedge()
                p.write(not p.read())

        sim.thread(driver, name="driver")
        harness = AbvHarness(sim, clock, lambda: {"p": p.read()}, ReportHandler())
        harness.record_letters = True
        harness.add_properties(["always (p || !p)"])
        return lambda: [dict(letter) for letter in harness.recorded_letters]

    runs = (ns(34), ns(6), ns(1), ns(59), ns(5), ns(45))
    outcome, steps = compare(design, runs=runs)
    assert steps > 0
    assert len(outcome["extra"]) == 15


def test_thread_that_finishes():
    def design(sim, clock, log):
        counter_thread(sim, clock, log, "short", cycles=4)
        counter_thread(sim, clock, log, "long")

    outcome, steps = compare(design)
    assert steps > 0
    assert [p[2] for p in outcome["kernel"]["processes"]][1:] == [True, False]


def test_thread_raising_a_model_exception():
    def design(sim, clock, log):
        counter_thread(sim, clock, log, "before")

        def faulty():
            posedge = clock.posedge()
            while True:
                yield posedge
                if clock.cycle_count == 6:
                    raise ValueError("model fault")

        sim.thread(faulty, name="faulty")
        counter_thread(sim, clock, log, "after")

    outcome, steps = compare(design)
    assert steps > 0
    assert outcome["error"] == ("ValueError", "model fault")


# -- generated designs -------------------------------------------------------------

SIGNALS = 3

signal_index = st.integers(0, SIGNALS - 1)
#: actions the cycle step runs through (or hands one instant over for)
stepping = st.one_of(
    st.just(("posedge",)),
    st.tuples(st.just("write"), signal_index, st.integers(0, 3)),
    st.tuples(st.just("write2"), signal_index, st.integers(0, 3)),
    st.tuples(st.just("signal"), signal_index),
    st.sampled_from([("event",), ("event_only",), ("twice",)]),
    st.sampled_from([("notify_now",), ("notify_delta",)]),
)
#: actions that keep the step off for a while or for good
disrupting = st.one_of(
    st.tuples(st.just("wait"), st.integers(1, 25)),
    st.sampled_from([
        ("kill",), ("hook",), ("unhook",), ("negedge",), ("changed",),
        ("stop",), ("raise",),
    ]),
)
# weighted so that most generated cycles are the step's to run
action = st.one_of(stepping, stepping, stepping, disrupting)

thread_spec = st.tuples(
    st.lists(action, max_size=10),
    st.integers(0, 8),  # posedge wakes before the script starts
    st.booleans(),  # repeat the script forever (else finish after it)
)

design_spec = st.fixed_dictionaries({
    "threads": st.lists(thread_spec, min_size=1, max_size=4),
    "method_on": st.one_of(st.none(), st.integers(0, SIGNALS - 1)),
    "static_posedge": st.booleans(),
    "monitor": st.booleans(),
    "runs": st.lists(st.integers(1, 90), min_size=1, max_size=4),
})


def generated_design(spec):
    def design(sim, clock, log):
        signals = [Signal(0, f"s{k}", sim) for k in range(SIGNALS)]
        shared = Event("shared", sim)
        hook = waker(sim, log, "hook")

        def thread_body(name, script, lead, forever):
            def body():
                posedge = clock.posedge()
                for _ in range(lead):
                    yield posedge
                    log.append((name, sim.time, sim.delta_count))
                for _ in itertools.count() if forever else range(1):
                    for act in script:
                        kind = act[0]
                        wait = posedge
                        if kind == "write":
                            signals[act[1]].write(act[2])
                        elif kind == "write2":
                            signals[act[1]].write(act[2])
                            signals[act[1]].write(act[2] + 1)
                        elif kind == "wait":
                            wait = act[1]
                        elif kind == "signal":
                            wait = signals[act[1]].value_changed
                        elif kind == "negedge":
                            wait = clock.negedge()
                        elif kind == "changed":
                            wait = clock.value_changed
                        elif kind == "event":
                            wait = (shared, posedge)
                        elif kind == "event_only":
                            wait = shared
                        elif kind == "twice":
                            wait = (posedge, posedge)
                        elif kind == "kill":
                            victim = threads[-1]
                            if victim.name != name:
                                victim.kill()
                        elif kind == "notify_now":
                            shared.notify(0)
                        elif kind == "notify_delta":
                            shared.notify()
                        elif kind == "hook":
                            if hook not in sim.on_delta:
                                sim.on_delta.append(hook)
                        elif kind == "unhook":
                            if hook in sim.on_delta:
                                sim.on_delta.remove(hook)
                        elif kind == "stop":
                            raise SimulationStopped(name)
                        elif kind == "raise":
                            raise ValueError(name)
                        yield wait
                        log.append((name, sim.time, sim.delta_count, kind))
                    yield posedge
                    log.append((name, sim.time, sim.delta_count))

            return body

        threads = [
            sim.thread(thread_body(f"t{index}", script, lead, forever),
                       name=f"t{index}")
            for index, (script, lead, forever) in enumerate(spec["threads"])
        ]
        if spec["method_on"] is not None:
            sim.method(waker(sim, log, "method"), name="method",
                       sensitive=(signals[spec["method_on"]],),
                       dont_initialize=True)
        if spec["static_posedge"]:
            sim.method(waker(sim, log, "static"), name="static",
                       sensitive=(clock.posedge_event,), dont_initialize=True)
        if spec["monitor"]:
            harness = AbvHarness(
                sim, clock,
                lambda: {"a": signals[0].read() > 1, "b": signals[1].read() > 1},
                ReportHandler(),
            )
            harness.record_letters = True
            harness.add_properties(["never (a && b)"])
            return lambda: (
                [dict(letter) for letter in harness.recorded_letters],
                [(r.label, r.time) for r in harness.reports.errors()],
            )
        return None

    return design


#: one thread waits on the shared event alone while a posedge waiter
#: notifies it immediately inside a stepped instant: the step must run
#: the notified thread in the same delta, after the posedge waiters
#: (random designs rarely draw this shape, so it is always tried)
IMMEDIATE_NOTIFY_FROM_A_POSEDGE_WAITER = {
    "threads": [
        ([("event_only",)], 0, True),
        ([("notify_now",), ("posedge",)], 1, True),
    ],
    "method_on": None,
    "static_posedge": False,
    "monitor": False,
    "runs": [45, 30],
}


class UnfoldedClockDriver(_ClockDriver):
    """A clock driver whose low phase never folds, as under a hook."""

    __slots__ = ()

    def folds(self):
        return False


def install_noop_hook(sim, clock):
    sim.on_delta.append(lambda sim: None)


def unfold_clock(sim, clock):
    clock._driver.__class__ = UnfoldedClockDriver


def hook_blind(outcome):
    """``outcome`` without what an ``on_delta`` hook may change: the
    fast/full split, and the design's own logging hook, which an
    instant that started hooked calls from the delta it is installed
    in on, an unhooked one only from the next instant."""
    def kernel(state):
        stats = dict(state["stats"])
        del stats["fast_path_instants"], stats["full_path_instants"]
        return {**state, "stats": stats}

    return {
        **outcome,
        "kernel": kernel(outcome["kernel"]),
        "states": [kernel(state) for state in outcome["states"]],
        "log": [entry for entry in outcome["log"] if entry[0] != "hook"],
    }


@settings(max_examples=150, deadline=None)
@given(design_spec)
@example(IMMEDIATE_NOTIFY_FROM_A_POSEDGE_WAITER)
def test_generated_designs_match_wake_for_wake(spec):
    design = generated_design(spec)
    runs = [ns(r) for r in spec["runs"]]
    compare(design, runs=runs)
    # A no-op hook installed at elaboration makes every instant a
    # hooked one, and keeps the clock from folding its low phase; the
    # unhooked reference has the fold turned off too.
    hooked, hooked_steps = run_design(design, runs, elaborate=install_noop_hook)
    unhooked, unhooked_steps = run_design(design, runs, elaborate=unfold_clock)
    assert hooked_steps == unhooked_steps == 0
    assert hooked["kernel"]["stats"]["fast_path_instants"] == 0
    assert hook_blind(hooked) == hook_blind(unhooked)
