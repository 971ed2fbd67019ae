"""The event-driven simulation kernel.

Implements the SystemC 2.0 scheduler: repeated *delta cycles* of an
evaluation phase (run all runnable processes) followed by an update
phase (commit signal writes) and a delta-notification phase (wake
processes sensitive to the committed changes); when no delta work
remains, time advances to the earliest timed notification.  One loop,
:meth:`Simulator._instant`, runs every instant.  An instant that starts
with ``on_delta`` hooks installed calls them after each update phase
and fires the delta notifications after them; one that starts without
calls none.

A design whose every cycle is one folded rising edge (see
:class:`~repro.sysc.clock._ClockDriver`) takes the *cycle step*
instead: while the clock driver's timer is the only pending work and
nothing can observe the low phase, :meth:`Simulator._cycle_step` runs
each cycle's instant inline -- advance time, raise and commit the
clock, re-arm its timer in place, resume the posedge waiters, commit
their writes -- with no clock process dispatch and no event-queue
round trip.  The guard is the driver's fold condition
(:meth:`~repro.sysc.clock._ClockDriver.folds`, the one definition the
driver and the step share) plus a few O(1) checks, evaluated before
every cycle: nothing is certified up front and there is no mode to
switch.  The moment a hook, a second timer, a listener or a deadline
appears, the next instant takes the general path; an instant that
outgrows two deltas hands its rest to :meth:`Simulator._instant`
mid-way.  Kernel counters, signal history and checkpoints come out as
the general path would leave them.

The kernel also exposes the hooks the ABV layer needs: per-delta
callbacks, end-of-instant *settle* observers (monitors sample once a
rising edge's instant has settled), a cycle counter, and a
``stop()``/:class:`SimulationStopped` channel so an assertion monitor
can halt the run (paper Section 3.2: the monitor can "stop the
simulation when the assertion is fired").
"""

from __future__ import annotations

import heapq
import time as _wall_time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from ..obs.runtime import OBS
from .clock import _ClockDriver
from .errors import DeltaCycleLimitExceeded, SimulationStopped, SyscError
from .event import Event
from .process_ import MethodProcess, Process, ThreadProcess
from .signal import Signal
from .time_ import format_time


class Simulator:
    """One simulation context: processes, signals, events, and time."""

    def __init__(self, name: str = "sim", max_delta_cycles: int = 10_000):
        self.name = name
        self.time: int = 0
        self.delta_count: int = 0
        self.max_delta_cycles = max_delta_cycles

        self.processes: List[Process] = []
        self.signals: List[Signal] = []
        #: every Module elaborated on this simulator, in build order
        self.modules: List[Any] = []
        self._runnable: Deque[Process] = deque()
        self._update_requests: List[Signal] = []
        self._delta_notified: List[Event] = []
        #: cleared scratch lists swapped with the two above per delta
        #: by _instant, so the hot loop never allocates
        self._spare_requests: List[Signal] = []
        self._spare_notified: List[Event] = []
        self._timed: List[Tuple[int, int, Event]] = []
        self._timed_sequence = 0
        self._cancelled: set[int] = set()
        self._timed_ids: Dict[int, int] = {}

        self._initialized = False
        self._stop_reason: Optional[str] = None
        #: called after every update phase (delta boundary) of an
        #: instant that started with the list non-empty
        self.on_delta: List[Callable[["Simulator"], None]] = []
        #: end-of-instant observers, ``(due time, observer)``: a clock
        #: driver arms one per settle sampler on each rising edge, and
        #: the run loop calls ``observer.settle(due)`` once the instant
        #: has settled.  An entry due past a run's deadline stays here,
        #: owed to the next run.
        self._settle: List[Tuple[int, Any]] = []

        self.stats = KernelStats()
        #: span id of the most recent traced ``run()`` (None when
        #: tracing is off) -- the ABV harness parents per-property
        #: monitor spans under it so trace self-time folds correctly.
        self.last_run_span_id: Optional[int] = None

    # -- registration ------------------------------------------------------------

    def register_process(self, process: Process) -> Process:
        self.processes.append(process)
        return process

    def register_signal(self, signal: Signal) -> Signal:
        signal.attach(self)
        self.signals.append(signal)
        return signal

    def thread(
        self,
        body,
        name: str | None = None,
        sensitive: tuple = (),
        dont_initialize: bool = False,
    ) -> ThreadProcess:
        """Register a free-standing SC_THREAD (no module needed)."""
        process = ThreadProcess(
            name or getattr(body, "__name__", "thread"),
            body,
            sensitivity=[self._resolve_event(s) for s in sensitive],
            dont_initialize=dont_initialize,
        )
        return self.register_process(process)  # type: ignore[return-value]

    def method(
        self,
        body,
        name: str | None = None,
        sensitive: tuple = (),
        dont_initialize: bool = False,
    ) -> MethodProcess:
        """Register a free-standing SC_METHOD."""
        process = MethodProcess(
            name or getattr(body, "__name__", "method"),
            body,
            sensitivity=[self._resolve_event(s) for s in sensitive],
            dont_initialize=dont_initialize,
        )
        return self.register_process(process)  # type: ignore[return-value]

    def _resolve_event(self, source: Any) -> Event:
        if isinstance(source, Event):
            return source
        if isinstance(source, Signal):
            return source.value_changed
        if hasattr(source, "default_event"):
            return source.default_event()
        raise SyscError(f"cannot derive an event from {source!r}")

    # -- notification plumbing (called by Event) -------------------------------------

    def _notify_delta(self, event: Event) -> None:
        self._delta_notified.append(event)

    def _notify_immediate(self, event: Event) -> None:
        for process in event._collect_waiters():
            self._make_runnable(process)

    def _notify_timed(self, event: Event, delay: int) -> None:
        self._timed_sequence += 1
        self._timed_ids[id(event)] = self._timed_sequence
        heapq.heappush(self._timed, (self.time + delay, self._timed_sequence, event))

    def _notify_timed_fast(self, event: Event, delay: int) -> None:
        """Timed notify for kernel-internal timers (clock drivers,
        thread timeouts) that are never cancelled: skips the
        cancellation registry, which is pure overhead on the hot path."""
        self._timed_sequence += 1
        heapq.heappush(self._timed, (self.time + delay, self._timed_sequence, event))

    def _cancel_timed(self, event: Event) -> None:
        sequence = self._timed_ids.pop(id(event), None)
        if sequence is not None:
            self._cancelled.add(sequence)

    def _request_update(self, signal: Signal) -> None:
        self._update_requests.append(signal)

    def _make_runnable(self, process: Process) -> None:
        if not process.runnable and not process.terminated:
            process.runnable = True
            self._runnable.append(process)

    # -- lifecycle --------------------------------------------------------------------

    def initialize(self) -> None:
        """Elaboration end: wire static sensitivity, seed runnable set."""
        if self._initialized:
            return
        for process in self.processes:
            process.make_static_sensitive()
            if not process.dont_initialize:
                self._make_runnable(process)
        self._initialized = True

    def stop(self, reason: str = "") -> None:
        """Request a graceful stop at the end of the current delta."""
        self._stop_reason = reason or "sc_stop"

    @property
    def stopped(self) -> bool:
        return self._stop_reason is not None

    @property
    def stop_reason(self) -> Optional[str]:
        return self._stop_reason

    # -- the scheduler ---------------------------------------------------------

    def run(self, duration: Optional[int] = None) -> None:
        """Run for ``duration`` time units (None = until starvation)."""
        if OBS.enabled:
            self._run_observed(duration)
            return
        self._run(duration)

    def _run_observed(self, duration: Optional[int]) -> None:
        """Traced variant of :meth:`run`: one ``sysc.kernel.run`` span."""
        before = self.stats.snapshot()
        with OBS.tracer.span(
            "sysc.kernel.run", "sysc.kernel", sim=self.name
        ) as span:
            self.last_run_span_id = span.span_id
            try:
                self._run(duration)
            finally:
                after = self.stats.snapshot()
                span.set(
                    delta_cycles=after["delta_cycles"] - before["delta_cycles"],
                    process_runs=after["process_runs"] - before["process_runs"],
                    signal_changes=(
                        after["signal_changes"] - before["signal_changes"]
                    ),
                    time_advances=(
                        after["time_advances"] - before["time_advances"]
                    ),
                    fast_path_instants=(
                        after["fast_path_instants"] - before["fast_path_instants"]
                    ),
                    full_path_instants=(
                        after["full_path_instants"] - before["full_path_instants"]
                    ),
                    cycle_step_instants=(
                        after["cycle_step_instants"]
                        - before["cycle_step_instants"]
                    ),
                    livelock_proximity=round(
                        self.stats.max_deltas_per_instant
                        / self.max_delta_cycles,
                        6,
                    ),
                )
        if OBS.metrics.enabled:
            registry = OBS.metrics
            registry.counter("sysc.kernel.delta_cycles").inc(
                after["delta_cycles"] - before["delta_cycles"]
            )
            registry.counter("sysc.kernel.process_runs").inc(
                after["process_runs"] - before["process_runs"]
            )
            registry.counter("sysc.kernel.runs").inc()
            registry.counter("sysc.kernel.fast_path_instants").inc(
                after["fast_path_instants"] - before["fast_path_instants"]
            )
            registry.counter("sysc.kernel.full_path_instants").inc(
                after["full_path_instants"] - before["full_path_instants"]
            )
            registry.counter("sysc.kernel.cycle_step_instants").inc(
                after["cycle_step_instants"] - before["cycle_step_instants"]
            )

    def _run(self, duration: Optional[int]) -> None:
        self.initialize()
        deadline = None if duration is None else self.time + duration
        started_wall = _wall_time.perf_counter()

        stats = self.stats
        while not self.stopped:
            if self.on_delta:
                self._instant(hooked=True)
                stats.full_path_instants += 1
            else:
                self._instant()
                stats.fast_path_instants += 1
            if self.stopped:
                break
            if self._runnable or self._delta_notified or self._update_requests:
                continue
            if self._settle and self._fire_settle(deadline):
                continue
            if self._cycle_step(deadline):
                continue
            if not self._advance_time(deadline):
                break
        self.stats.wall_seconds += _wall_time.perf_counter() - started_wall
        if deadline is not None and self.time < deadline and not self.stopped:
            self.time = deadline

    def _cycle_step(self, deadline: Optional[int]) -> bool:
        """Run whole folded clock cycles inline while nothing else can.

        Tried where :meth:`_advance_time` would run.  A cycle runs here
        while the clock driver's fold condition holds
        (:meth:`_ClockDriver.folds`: its timer is the only pending
        work, no hooks, no low-phase listener), its timer is due by
        ``deadline`` with no cancelled entries, the driver is due to
        raise the clock and there is no static waiter on the posedge.
        The cycle's instant is what the general path would run, minus
        the dispatch:

        * advance time to the timer;
        * delta 1 -- what the driver's folded rising edge
          (:meth:`_ClockDriver.execute`) and the update phase after it
          leave behind: the clock raised and committed, ``cycle_count``
          bumped, the settle samplers armed and the timer re-armed a
          period ahead (its heap entry is replaced in place);
        * delta 2 -- the posedge waiters in waiter order; a thread that
          waits only on the posedge is resumed directly, any other
          process through ``execute``; then the update phase;
        * the settle observers, when armed.

        An instant that goes on past delta 2 (a delta notification
        wakes a process) hands its rest to :meth:`_instant`, unhooked
        as the instant started.  Returns True when the run loop must
        go on at the current instant (the run stopped, or a settle
        observer left work), False when the next instant is the
        general time advance's.
        """
        timed = self._timed
        if len(timed) != 1 or self.max_delta_cycles < 2:
            return False
        timer = timed[0][2]
        waiters = timer.dynamic_waiters
        if len(waiters) != 1 or waiters[0].__class__ is not _ClockDriver:
            return False
        driver = waiters[0]
        clock = driver._clock
        period = clock.period
        cancelled = self._cancelled
        runnable = self._runnable
        popleft = runnable.popleft
        stats = self.stats
        # counters accumulate here and flush once, when the step returns
        stepped = process_runs = signal_changes = deltas = fast = deepest = 0
        try:
            while True:
                posedge = clock._posedge
                if (
                    not (driver._started and driver._high_next)
                    or not driver.folds()
                    or cancelled
                    or (posedge is not None and posedge.static_waiters)
                    or (deadline is not None and timed[0][0] > deadline)
                ):
                    return False
                now = self.time = timed[0][0]
                stepped += 1
                # delta 1: the driver's folded rising edge, committed
                clock.cycle_count += 1
                if clock._settle_samplers:
                    due = now + clock._high_time
                    for sampler in clock._settle_samplers:
                        self._settle.append((due, sampler))
                self._timed_sequence += 1
                timed[0] = (now + period, self._timed_sequence, timer)
                driver._folded_at = now
                clock._current = True
                clock._last_change_delta = self.delta_count
                self.delta_count += 1
                process_runs += 1
                signal_changes += 1
                deltas += 1
                if not deepest:
                    deepest = 1
                # delta 2: the posedge waiters, in waiter order.  All
                # are marked runnable first, as the general path marks
                # them, so a process an immediate notification wakes
                # joins the queue behind them and runs after the list.
                woken = posedge._collect_waiters() if posedge is not None else ()
                ready = False
                for process in woken:
                    if not process.runnable and not process.terminated:
                        process.runnable = ready = True
                if ready:
                    try:
                        for process in woken:
                            if not process.runnable:
                                continue  # a duplicate entry, or terminated
                            process.runnable = False
                            if process.terminated:
                                continue
                            process_runs += 1
                            if process.__class__ is ThreadProcess:
                                waiting = process._waiting_on
                                if len(waiting) == 1 and waiting[0] is posedge:
                                    # waits only on the posedge: resume
                                    # it in place, as execute would
                                    try:
                                        request = next(process._generator)
                                    except StopIteration:
                                        waiting.clear()
                                        process.terminated = True
                                        continue
                                    except BaseException:
                                        waiting.clear()
                                        raise
                                    if request is posedge:
                                        posedge.dynamic_waiters.append(process)
                                    else:
                                        waiting.clear()
                                        process._apply_wait(request, self)
                                    continue
                            process.execute(self)
                        while runnable:
                            process = popleft()
                            process.runnable = False
                            if process.terminated:
                                continue
                            process_runs += 1
                            process.execute(self)
                    except BaseException as error:
                        # leave the queue as the general path would: the
                        # waiters not yet run, then what was queued
                        queued = {id(process) for process in runnable}
                        rest = []
                        for process in woken:
                            if process.runnable and id(process) not in queued:
                                queued.add(id(process))
                                rest.append(process)
                        runnable.extendleft(reversed(rest))
                        if not isinstance(error, SimulationStopped):
                            raise
                        self.stop(error.reason)
                        fast += 1
                        return True
                    requests = self._update_requests
                    for signal in requests:
                        if signal._apply():
                            signal_changes += 1
                    requests.clear()
                    self.delta_count += 1
                    deltas += 1
                    deepest = 2
                if self._delta_notified:
                    self._instant(deltas_done=2)
                fast += 1
                if self._stop_reason is not None:
                    return True
                if self._settle and self._fire_settle(deadline):
                    return True
        finally:
            stats.time_advances += stepped
            stats.cycle_step_instants += stepped
            stats.process_runs += process_runs
            stats.signal_changes += signal_changes
            stats.delta_cycles += deltas
            stats.fast_path_instants += fast
            if deepest > stats.max_deltas_per_instant:
                stats.max_deltas_per_instant = deepest

    def _fire_settle(self, deadline: Optional[int]) -> bool:
        """Call the settle observers due by ``deadline``.

        Returns True when the loop must go on at this instant: an
        observer stopped the run or left work behind.
        """
        armed, self._settle = self._settle, []
        for entry in armed:
            if self.stopped or (deadline is not None and entry[0] > deadline):
                self._settle.append(entry)
                continue
            try:
                entry[1].settle(entry[0])
            except SimulationStopped as stop:
                self.stop(stop.reason)
        return self.stopped or bool(
            self._runnable or self._delta_notified or self._update_requests
        )

    def _instant(self, hooked: bool = False, deltas_done: int = 0) -> None:
        """Run delta cycles until nothing is pending at this instant.

        Each delta: wake the processes the last delta notified, run the
        runnable ones (evaluation), commit the requested signal writes
        (update).  A ``hooked`` instant then calls every ``on_delta``
        hook, over the live list, and fires the delta notifications
        after them, so a process a hook wakes runs ahead of those.
        ``deltas_done`` counts deltas the caller already ran at this
        instant (the cycle step hands over after two).
        """
        runnable = self._runnable
        popleft = runnable.popleft
        stats = self.stats
        deltas_here = deltas_done
        process_runs = 0
        signal_changes = 0
        # Scratch lists ping-pong with the live ones so each delta's
        # notify/update batch swap costs no allocation.
        spare_notified = self._spare_notified
        spare_requests = self._spare_requests
        # Counters accumulate in locals and flush once per instant (the
        # finally keeps them correct on SimulationStopped and model
        # exceptions alike).
        hooks_ran = False
        try:
            while True:
                # a delta's notifications wake their processes once the
                # queue has drained, or straight after the hooks ran
                notified = self._delta_notified
                if notified and (hooks_ran or not runnable):
                    self._delta_notified = spare_notified
                    for event in notified:
                        for process in event._collect_waiters():
                            if not process.runnable and not process.terminated:
                                process.runnable = True
                                runnable.append(process)
                    notified.clear()
                    spare_notified = notified
                if not runnable and not self._update_requests:
                    break
                while runnable:
                    process = popleft()
                    process.runnable = False
                    if process.terminated:
                        continue
                    process_runs += 1
                    try:
                        process.execute(self)
                    except SimulationStopped as stop:
                        self.stop(stop.reason)
                        return
                requests = self._update_requests
                if requests:
                    self._update_requests = spare_requests
                    for signal in requests:
                        if signal._apply():
                            signal_changes += 1
                    requests.clear()
                    spare_requests = requests
                self.delta_count += 1
                deltas_here += 1
                if deltas_here > self.max_delta_cycles:
                    raise DeltaCycleLimitExceeded(
                        f"{deltas_here} delta cycles at time {format_time(self.time)}"
                    )
                if hooked:
                    for hook in self.on_delta:
                        hook(self)
                    hooks_ran = True
        finally:
            self._spare_notified = spare_notified
            self._spare_requests = spare_requests
            stats.process_runs += process_runs
            stats.delta_cycles += deltas_here - deltas_done
            stats.signal_changes += signal_changes
            if deltas_here > stats.max_deltas_per_instant:
                stats.max_deltas_per_instant = deltas_here

    def _advance_time(self, deadline: Optional[int]) -> bool:
        """Advance to the next timed notification; False = starvation/deadline."""
        timed = self._timed
        cancelled = self._cancelled
        timed_ids = self._timed_ids
        heappop = heapq.heappop
        while timed:
            event_time, sequence, event = timed[0]
            if cancelled and sequence in cancelled:
                heappop(timed)
                cancelled.discard(sequence)
                continue
            if deadline is not None and event_time > deadline:
                self.time = deadline
                return False
            heappop(timed)
            if timed_ids:
                timed_ids.pop(id(event), None)
            self.time = event_time
            self.stats.time_advances += 1
            # fire this and all other notifications at the same instant
            self._wake_timed(event)
            while timed and timed[0][0] == event_time:
                _, sequence2, event2 = heappop(timed)
                if cancelled and sequence2 in cancelled:
                    cancelled.discard(sequence2)
                    continue
                if timed_ids:
                    timed_ids.pop(id(event2), None)
                self._wake_timed(event2)
            return True
        return False

    def _wake_timed(self, event: Event) -> None:
        runnable = self._runnable
        for process in event._collect_waiters():
            if not process.runnable and not process.terminated:
                process.runnable = True
                runnable.append(process)

    # -- conveniences -------------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"Simulator({self.name!r} @ {format_time(self.time)}, "
            f"{len(self.processes)} processes)"
        )


class KernelStats:
    """Cheap counters for benchmarking and sanity checks."""

    __slots__ = (
        "process_runs",
        "delta_cycles",
        "signal_changes",
        "time_advances",
        "wall_seconds",
        "max_deltas_per_instant",
        "fast_path_instants",
        "full_path_instants",
        "cycle_step_instants",
    )

    def __init__(self):
        self.process_runs = 0
        self.delta_cycles = 0
        self.signal_changes = 0
        self.time_advances = 0
        self.wall_seconds = 0.0
        #: deepest delta chain seen at one simulated instant; divided
        #: by ``max_delta_cycles`` this is the livelock proximity the
        #: kernel span reports.
        self.max_deltas_per_instant = 0
        #: instants that started without vs. with ``on_delta`` hooks
        #: installed (unhooked instants call no hook).
        self.fast_path_instants = 0
        self.full_path_instants = 0
        #: instants the cycle step ran (advanced into); each is also
        #: counted fast or full as the general path would count it.
        #: A run fact, not simulated state: checkpoints leave it out.
        self.cycle_step_instants = 0

    def snapshot(self) -> Dict[str, int]:
        """The integer counters as a dict (for span before/after deltas)."""
        return {
            "process_runs": self.process_runs,
            "delta_cycles": self.delta_cycles,
            "signal_changes": self.signal_changes,
            "time_advances": self.time_advances,
            "max_deltas_per_instant": self.max_deltas_per_instant,
            "fast_path_instants": self.fast_path_instants,
            "full_path_instants": self.full_path_instants,
            "cycle_step_instants": self.cycle_step_instants,
        }

    def summary(self) -> str:
        return (
            f"{self.process_runs} process runs, {self.delta_cycles} deltas, "
            f"{self.signal_changes} signal changes, "
            f"{self.time_advances} time steps in {self.wall_seconds:.3f}s wall"
        )
