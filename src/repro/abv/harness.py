"""The assertion-based verification harness.

Binds compiled PSL monitors to a running simulation (paper Section
3.2).  Monitors see the design as it stands on the clock's *negative*
edge, after every posedge-triggered write has committed -- the
standard opposite-edge sampling discipline.  They read it earlier,
though: when nothing can run between the edges, the state at the end
of the rising edge's instant *is* the negedge state, so the clock
driver arms a kernel settle observer on each rising edge and the
harness samples there (time and clock level shown as at the negedge).
No sampler process wakes and the clock keeps folding its low phase,
so a monitored run costs the kernel exactly what a plain one does;
the kernel's cycle step calls the observer in place at the end of
the cycle.

What the observer reads depends on what is bound.  With a generated
letter reader (:mod:`repro.abv.letters`), only whole fused property
sets bound and no letters recorded, each set's generated
sample-and-step reads the design's signals straight into its property
step (:meth:`repro.psl.compiled.FusedPropertySet.sample`).  Otherwise
the extractor builds a letter and :meth:`AbvHarness._observe` steps
it -- the reference path, which checkpoint replay uses too.  Both
reach the same verdicts on the same cycles.

The harness falls back to a negedge thread, placed where the old
sampler thread sat, when another process waits on the clock's negedge
or value change or a binding uses WARN (its write must land at the
negedge), or the clock starts low.  A timed event due between a
rising edge and its negedge raises :class:`SettleHazardError` rather
than sample the wrong state.  A sample whose negedge falls past a
``run()`` deadline is owed to the next run.

On a failure, the harness executes the monitor's configured actions,
which are exactly the paper's three:

1. "stop the simulation when the assertion is fired",
2. "write a report about the assertion status and all its variables",
3. "send a warning signal to other modules (if required)".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from ..obs.runtime import OBS
from ..psl.compiled import CompiledProperty, FusedPropertySet
from ..psl.letter import freeze_letter
from ..psl.monitor import Monitor, MonitorReport
from ..psl.semantics import Verdict
from ..sysc.clock import Clock
from ..sysc.errors import SimulationStopped, SyscError
from ..sysc.kernel import Simulator
from ..sysc.process_ import ThreadProcess
from ..sysc.report import ReportHandler, Severity
from ..sysc.signal import Signal
from ..sysc.time_ import format_time


class SettleHazardError(SyscError):
    """A timed event falls between a rising edge and its negedge, so the
    settled posedge state may not be the state the negedge would see."""


class FailureAction(enum.Enum):
    """What to do when an assertion fires (paper Section 3.2)."""

    STOP = "stop"
    REPORT = "report"
    WARN = "warn"


@dataclass
class AssertionBinding:
    """One monitor attached to the harness."""

    monitor: Monitor
    actions: tuple = (FailureAction.REPORT,)
    warning_signal: Optional[Signal] = None
    #: set once the failure actions ran (each assertion fires once)
    fired: bool = False

    def __post_init__(self):
        if FailureAction.WARN in self.actions and self.warning_signal is None:
            raise ValueError(
                f"monitor {self.monitor.name!r} wants WARN but has no warning signal"
            )


class AbvHarness:
    """Samples all bound monitors once per clock cycle."""

    def __init__(
        self,
        simulator: Simulator,
        clock: Clock,
        extractor: Callable[[], Mapping[str, Any]],
        report_handler: Optional[ReportHandler] = None,
    ):
        self.simulator = simulator
        self.clock = clock
        self.extractor = extractor
        self.reports = report_handler or ReportHandler()
        self.bindings: List[AssertionBinding] = []
        self.cycles_observed = 0
        #: opt-in: keep every sampled letter so a checkpoint can replay
        #: the stream into fresh monitors (see :mod:`repro.checkpoint`)
        self.record_letters = False
        self.recorded_letters: List[Dict[str, Any]] = []
        #: (fused sets stepped whole, bindings stepped one by one),
        #: rebuilt when bindings change or a bound set splits
        self._plan: Optional[tuple] = None
        self._plan_generation = -1
        #: (set, bound sampler, letter names) per fused set when the
        #: settle observer reads the design itself; False when it must
        #: build letters; None until bound (at the next settle)
        self._samplers: Any = None
        #: True while sampling at settle; the negedge thread is parked
        self._settling = False
        self._timer = clock._driver._timer
        self._thread = _SamplerThread(self)
        simulator.register_process(self._thread)
        if simulator._initialized:
            self._thread.make_static_sensitive()
            if not self._thread.dont_initialize:
                simulator._make_runnable(self._thread)

    # -- construction ----------------------------------------------------------

    def add_monitor(
        self,
        monitor: Monitor,
        actions: Sequence[FailureAction] = (FailureAction.REPORT,),
        warning_signal: Optional[Signal] = None,
    ) -> AssertionBinding:
        binding = AssertionBinding(
            monitor=monitor,
            actions=tuple(actions),
            warning_signal=warning_signal,
        )
        self.bindings.append(binding)
        self._plan = None
        self._samplers = None
        if self._settling and FailureAction.WARN in binding.actions:
            # creating the negedge event hands every settle sampler of
            # this clock back to its thread (Clock._low_phase_observed)
            self.clock.negedge_event
        return binding

    def add_monitors(
        self,
        monitors: Sequence[Monitor],
        actions: Sequence[FailureAction] = (FailureAction.REPORT,),
    ) -> List[AssertionBinding]:
        return [self.add_monitor(m, actions) for m in monitors]

    def add_properties(
        self,
        sources: Sequence,
        *,
        bindings: Optional[Mapping[str, str]] = None,
        engine: Optional[str] = None,
        actions: Sequence[FailureAction] = (FailureAction.REPORT,),
    ) -> List[AssertionBinding]:
        """Compile properties and bind them -- the preferred entry point.

        Routes through :func:`repro.psl.compile_properties`, so the
        process-wide compile cache is shared across harnesses and the
        engine choice follows the regression-wide default unless
        overridden here.
        """
        from ..psl.compiled import compile_properties

        monitors = compile_properties(sources, bindings=bindings, engine=engine)
        return self.add_monitors(monitors, actions)

    # -- choosing where to sample -------------------------------------------------

    def _choose_sampling(self) -> None:
        """Elaboration end: settle sampling unless a fallback rule holds."""
        clock = self.clock
        if (
            clock._negedge is None
            and clock._value_changed is None
            and clock.posedge_first
            and not any(FailureAction.WARN in b.actions for b in self.bindings)
        ):
            self._settling = True
            self._thread.dont_initialize = True
            clock._settle_samplers.append(self)

    def fall_back(self) -> None:
        """Hand sampling to the negedge thread mid-run (a negedge or
        value-changed listener appeared, or a WARN binding was added).

        The thread goes where the old always-on sampler thread would
        be: if the time-0 initialization delta has not reached its
        registration slot yet, it runs there; otherwise it is already
        waiting on the negedge, ahead of the listener that triggered
        this.  The sample this cycle still owes becomes the thread's.
        """
        self._settling = False
        sim = self.simulator
        sim._settle = [entry for entry in sim._settle if entry[1] is not self]
        thread = self._thread
        if sim.time == 0 and sim.delta_count == 0 and not self._slot_passed():
            order = {id(p): k for k, p in enumerate(sim.processes)}
            slot = order[id(thread)]
            queue = sim._runnable
            for position, process in enumerate(queue):
                if order[id(process)] > slot:
                    queue.insert(position, thread)
                    break
            else:
                queue.append(thread)
            thread.runnable = True
            return
        thread._generator = thread.body()
        event = next(thread._generator)
        event.dynamic_waiters.append(thread)
        thread._waiting_on.append(event)

    def _slot_passed(self) -> bool:
        """During the initialization delta: has the thread's turn gone?"""
        processes = self.simulator.processes
        after = processes[processes.index(self._thread) + 1:]
        for process in after:
            if not process.dont_initialize:
                return not process.runnable
        return False

    # -- the sampling step -----------------------------------------------------------

    def settle(self, due: int) -> None:
        """Kernel settle observer: sample the rising edge's settled state
        as the negedge at ``due`` would show it (time, clock level low).
        A STOP -- or any exception -- leaves the kernel at that negedge
        time with the clock low, where the negedge thread left it.

        With a generated letter reader, only whole fused sets bound and
        no letters recorded, each set's sample-and-step reads the
        design straight into its property step; otherwise the reader
        builds a letter and :meth:`_observe` steps it.  Both see the
        same values and reach the same verdicts.
        """
        sim = self.simulator
        timed = sim._timed
        if len(timed) > 1 or (timed and timed[0][2] is not self._timer):
            self._check_quiet(due)
        clock = self.clock
        now, level = sim.time, clock._current
        sim.time = due
        clock._current = False
        samplers = self._samplers
        if (
            samplers is None
            or self.record_letters
            or self._plan_generation != FusedPropertySet.generation
        ):
            samplers = self._bind_samplers()
        if samplers is False:
            self._observe(self.extractor())
        else:
            self.cycles_observed += 1
            check = self._plan[2]
            letter = None
            for fused, sample, names in samplers:
                changed = fused.sample(sample, names)
                if changed is None:
                    # the set's window holds other letters: step it on
                    # the reader's letter of the same state instead
                    if letter is None:
                        letter = freeze_letter(self.extractor())
                    changed = fused.step(letter)
                if changed:
                    check = True
            if check:
                self._fire()
        sim.time = now
        clock._current = level

    def _bind_samplers(self) -> Any:
        """Bind each whole bound set's sample-and-step to the reader's
        objects (see :attr:`_samplers`); False while recording."""
        if self.record_letters:
            return False
        if self._plan is None or self._plan_generation != FusedPropertySet.generation:
            self._regroup()
        fused_sets, solo, _ = self._plan
        bound = getattr(self.extractor, "bound_letter", None)
        samplers: Any = False
        if bound is not None and not solo:
            shape, args = bound
            samplers = []
            for fused in fused_sets:
                factory = fused.sampler(shape.source)
                if factory is None:
                    samplers = False
                    break
                samplers.append((fused, factory(*args), shape.source.names))
        self._samplers = samplers
        return samplers

    def _check_quiet(self, due: int) -> None:
        sim = self.simulator
        own = self._timer
        for fire_time, sequence, event in sim._timed:
            if (
                fire_time <= due
                and event is not own
                and sequence not in sim._cancelled
                and (event.dynamic_waiters or event.static_waiters)
            ):
                raise SettleHazardError(
                    f"timed event {event.name!r} at {format_time(fire_time)} "
                    f"falls between {self.clock.name!r}'s rising edge and "
                    f"its negedge at {format_time(due)}; the harness "
                    f"cannot sample that cycle at settle"
                )

    def _sample(self) -> None:
        self._observe(self.extractor())

    def _observe(self, letter: Mapping[str, Any]) -> None:
        """Feed one sampled letter to every monitor.

        Split from :meth:`_sample` so checkpoint restore can replay a
        recorded letter stream through fresh monitors: replay reproduces
        verdicts, ``fired`` flags and ``cycles_observed`` exactly,
        whichever stepping engine the monitors use.

        Compiled members whose whole :class:`FusedPropertySet` is bound
        here advance in one generated step per set (the letter frozen
        once); every other monitor steps on its own.  Failure actions
        then run in binding order, as if each monitor had stepped in
        turn -- stepping has no side effects they could observe.
        """
        if self.record_letters:
            self.recorded_letters.append(dict(letter))
        self.cycles_observed += 1
        if self._plan is None or self._plan_generation != FusedPropertySet.generation:
            self._regroup()
        fused_sets, solo, check = self._plan
        if fused_sets:
            letter = freeze_letter(letter)
            for fused in fused_sets:
                if fused.step(letter):
                    check = True
        for binding in solo:
            if binding.monitor.step(letter) is Verdict.FAILS and not binding.fired:
                check = True
        if check:
            self._fire()

    def _fire(self) -> None:
        """Run the failure actions of every binding that just failed."""
        fused_sets, solo, _ = self._plan
        self._plan = (fused_sets, solo, False)
        stop_requested: Optional[str] = None
        for binding in self.bindings:
            if not binding.fired and binding.monitor.verdict() is Verdict.FAILS:
                binding.fired = True
                reason = self._run_failure_actions(binding)
                if reason is not None:
                    stop_requested = reason
        if stop_requested is not None:
            raise SimulationStopped(stop_requested)

    def _regroup(self) -> None:
        """Split bindings into whole bound sets and solo monitors."""
        bound: Dict[int, int] = {}
        for binding in self.bindings:
            key = id(binding.monitor)
            bound[key] = bound.get(key, 0) + 1
        fused_sets: List[FusedPropertySet] = []
        solo: List[AssertionBinding] = []
        #: id(set) -> is every member of it bound exactly once
        whole: Dict[int, bool] = {}
        for binding in self.bindings:
            monitor = binding.monitor
            fused = (
                monitor.property_set
                if isinstance(monitor, CompiledProperty) else None
            )
            if fused is None:
                solo.append(binding)
                continue
            key = id(fused)
            if key not in whole:
                whole[key] = all(bound.get(id(m)) == 1 for m in fused.members)
                if whole[key]:
                    fused_sets.append(fused)
            if not whole[key]:
                solo.append(binding)
        # the first observe after regrouping scans every verdict once,
        # so a monitor bound after it failed still fires
        self._plan = (fused_sets, solo, True)
        self._plan_generation = FusedPropertySet.generation

    def replay_letters(self, letters: Sequence[Mapping[str, Any]]) -> None:
        """Re-observe a recorded letter stream (checkpoint restore)."""
        for letter in letters:
            self._observe(letter)

    def _run_failure_actions(self, binding: AssertionBinding) -> Optional[str]:
        monitor = binding.monitor
        stop_reason: Optional[str] = None
        if FailureAction.REPORT in binding.actions:
            report = monitor.report()
            self.reports.error(
                label=monitor.name,
                message=report.message
                or f"assertion failed (watched: {', '.join(report.watched)})",
                time=self.simulator.time,
            )
        if FailureAction.WARN in binding.actions and binding.warning_signal is not None:
            binding.warning_signal.write(True)
        if FailureAction.STOP in binding.actions:
            stop_reason = f"assertion {monitor.name!r} fired"
        return stop_reason

    def close(self) -> None:
        """Release the monitors once the run is over and checked: the
        bindings, the bound samplers and the recorded letters go, and
        this harness leaves its clock's settle samplers.  Reports,
        ``cycles_observed`` and the closed simulator stay readable."""
        samplers = self.clock._settle_samplers
        if self in samplers:
            samplers.remove(self)
        if self.bindings:
            self._regroup()
            for fused in self._plan[0]:
                fused.close()
        self.bindings = []
        self._plan = None
        self._samplers = None
        self.recorded_letters = []

    # -- results ---------------------------------------------------------------------

    def finish(self) -> List[MonitorReport]:
        """End-of-simulation wrap-up (:meth:`wrap_up`); returns every
        monitor's report."""
        self.wrap_up()
        return [binding.monitor.report() for binding in self.bindings]

    def wrap_up(self) -> None:
        """End-of-simulation wrap-up without the reports: uncovered
        covers and pending strong obligations become warnings, and with
        observability on each monitor's step time becomes a span."""
        for binding in self.bindings:
            monitor = binding.monitor
            verdict = monitor.verdict()
            if monitor.is_cover and getattr(monitor, "hits", 0) == 0:
                self.reports.warning(
                    label=monitor.name,
                    message="coverage goal never hit",
                    time=self.simulator.time,
                )
            elif verdict is Verdict.PENDING:
                self.reports.warning(
                    label=monitor.name,
                    message="strong obligation still pending at end of simulation",
                    time=self.simulator.time,
                )
        if OBS.enabled:
            self._emit_observability()

    def _emit_observability(self) -> None:
        """Attribute accumulated per-monitor step time as synthetic spans.

        Each monitor's ``step_seconds`` becomes one ``psl.monitor/...``
        span parented under the most recent kernel run span, so
        ``trace_report`` subtracts monitor time from kernel self-time
        and ranks properties individually.  A fused set is timed with
        one ``perf_counter`` pair per set step and its members share
        that time in proportion to their step counts; interpreted
        monitors time their own steps.  The ``engine`` attribute/label
        says which stepping engine the time was actually spent in.
        """
        parent = self.simulator.last_run_span_id
        for binding in self.bindings:
            monitor = binding.monitor
            if OBS.tracer.enabled and monitor.steps_traced:
                OBS.tracer.record(
                    f"psl.monitor/{monitor.name}",
                    "psl.monitor",
                    monitor.step_seconds,
                    parent_id=parent,
                    property=monitor.name,
                    steps=monitor.steps_traced,
                    verdict=monitor.verdict().value,
                    engine=monitor.engine,
                )
            if OBS.metrics.enabled:
                OBS.metrics.counter(
                    "psl.monitor.steps",
                    property=monitor.name,
                    engine=monitor.engine,
                ).inc(monitor.steps_traced)
                OBS.metrics.histogram(
                    "psl.monitor.step_seconds", engine=monitor.engine
                ).observe(monitor.step_seconds)

    @property
    def failed(self) -> List[AssertionBinding]:
        return [b for b in self.bindings if b.monitor.verdict() is Verdict.FAILS]

    @property
    def all_passing(self) -> bool:
        return not self.failed

    def summary(self) -> str:
        verdict_counts: Dict[Verdict, int] = {}
        for binding in self.bindings:
            verdict = binding.monitor.verdict()
            verdict_counts[verdict] = verdict_counts.get(verdict, 0) + 1
        parts = [f"{count}x {verdict.value}" for verdict, count in verdict_counts.items()]
        return (
            f"{len(self.bindings)} assertions over {self.cycles_observed} "
            f"cycles: {', '.join(parts) if parts else 'none'}"
        )


class _SamplerThread(ThreadProcess):
    """The harness's negedge-sampling thread.

    Registered at harness construction, so its slot in the process
    order is the one the sampler always had.  At elaboration end it
    asks the harness where to sample; under settle sampling it is
    parked (never initialized) until :meth:`AbvHarness.fall_back`.
    """

    __slots__ = ("harness",)

    def __init__(self, harness: AbvHarness):
        def body():
            while True:
                yield harness.clock.negedge_event
                harness._sample()

        super().__init__(f"{harness.clock.name}.abv_sampler", body)
        self.harness = harness

    def make_static_sensitive(self) -> None:
        super().make_static_sensitive()
        self.harness._choose_sampling()

    def close(self) -> None:
        super().close()
        self.harness = None
