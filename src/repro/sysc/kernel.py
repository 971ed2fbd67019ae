"""The event-driven simulation kernel.

Implements the SystemC 2.0 scheduler: repeated *delta cycles* of an
evaluation phase (run all runnable processes) followed by an update
phase (commit signal writes) and a delta-notification phase (wake
processes sensitive to the committed changes); when no delta work
remains, time advances to the earliest timed notification.

The kernel also exposes the hooks the ABV layer needs: per-delta and
per-timestep callbacks, end-of-instant *settle* observers (monitors
sample once a rising edge's instant has settled), a cycle counter,
and a ``stop()``/:class:`SimulationStopped` channel so an assertion
monitor can halt the run (paper Section 3.2: the monitor can "stop
the simulation when the assertion is fired").
"""

from __future__ import annotations

import heapq
import time as _wall_time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from ..obs.runtime import OBS
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
        self._runnable: Deque[Process] = deque()
        self._update_requests: List[Signal] = []
        self._delta_notified: List[Event] = []
        #: cleared scratch lists swapped with the two above per delta
        #: by _instant_fast, so the hot loop never allocates
        self._spare_requests: List[Signal] = []
        self._spare_notified: List[Event] = []
        self._timed: List[Tuple[int, int, Event]] = []
        self._timed_sequence = 0
        self._cancelled: set[int] = set()
        self._timed_ids: Dict[int, int] = {}

        self._initialized = False
        self._stop_reason: Optional[str] = None
        #: set by Signal.write when a queued signal is written again in
        #: the same delta -- a second driver; the instant falls back
        #: from the fast path to the general scheduler
        self._multi_driver_instant = False
        #: called after every update phase (delta boundary)
        self.on_delta: List[Callable[["Simulator"], None]] = []
        #: opt-in analyze witness (repro.analyze.witness.DeltaWitness);
        #: when set, the general scheduler attributes each process run
        #: so the witness can build per-delta access sets.  The witness
        #: also installs an on_delta hook, which keeps the kernel off
        #: the merged fast path for the whole witnessed run.
        self.witness: Optional[Any] = None
        #: called whenever simulated time advances
        self.on_time_advance: List[Callable[["Simulator"], None]] = []
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

    def _run(self, duration: Optional[int]) -> None:
        self.initialize()
        deadline = None if duration is None else self.time + duration
        started_wall = _wall_time.perf_counter()

        stats = self.stats
        while not self.stopped:
            # Fast path: the common instant has one driver per signal
            # and no per-delta hooks, so the merged-phase loop skips
            # the general scheduler's bookkeeping.  Signal.write flags
            # a second driver mid-instant; _instant_fast then hands
            # the rest of the instant to _delta_cycle transparently.
            if self.on_delta:
                self._delta_cycle()
                stats.full_path_instants += 1
            else:
                self._multi_driver_instant = False
                if self._instant_fast():
                    stats.fast_path_instants += 1
                else:
                    stats.full_path_instants += 1
            if self.stopped:
                break
            if self._runnable or self._delta_notified or self._update_requests:
                continue
            if self._settle and self._fire_settle(deadline):
                continue
            if not self._advance_time(deadline):
                break
        self.stats.wall_seconds += _wall_time.perf_counter() - started_wall
        if deadline is not None and self.time < deadline and not self.stopped:
            self.time = deadline

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

    def _instant_fast(self) -> bool:
        """Merged-phase scheduler for single-driver instants.

        Runs evaluation, update and delta-notification with phase
        transitions inlined and no hook dispatch.  Returns True when
        the whole instant ran here; False when a second driver for a
        queued signal appeared (``_multi_driver_instant``) and the
        remainder of the instant was handed to :meth:`_delta_cycle` --
        the fallback is transparent because signal semantics
        (last-write-wins within a delta) are identical on both paths.
        """
        runnable = self._runnable
        popleft = runnable.popleft
        stats = self.stats
        deltas_here = 0
        process_runs = 0
        signal_changes = 0
        # Scratch lists ping-pong with the live ones so each delta's
        # notify/update batch swap costs no allocation.
        spare_notified = self._spare_notified
        spare_requests = self._spare_requests
        # Counters accumulate in locals and flush once per instant (the
        # finally keeps them correct on SimulationStopped, fallback and
        # model exceptions alike).
        try:
            while True:
                if not runnable:
                    notified = self._delta_notified
                    if notified:
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
                        return True
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
                if self._multi_driver_instant:
                    self._delta_cycle(deltas_done=deltas_here)
                    return False
            return True
        finally:
            self._spare_notified = spare_notified
            self._spare_requests = spare_requests
            stats.process_runs += process_runs
            stats.delta_cycles += deltas_here
            stats.signal_changes += signal_changes
            if deltas_here > stats.max_deltas_per_instant:
                stats.max_deltas_per_instant = deltas_here

    def _delta_cycle(self, deltas_done: int = 0) -> None:
        deltas_here = deltas_done
        while self._runnable or self._delta_notified or self._update_requests:
            # delta-notification phase (wake first so new runnables join in)
            if not self._runnable and self._delta_notified:
                self._fire_delta_notifications()
            if not self._runnable and not self._update_requests:
                break
            # evaluation phase
            while self._runnable:
                process = self._runnable.popleft()
                process.runnable = False
                if process.terminated:
                    continue
                self.stats.process_runs += 1
                if self.witness is not None:
                    self.witness.process_run(process)
                try:
                    process.execute(self)
                except SimulationStopped as stop:
                    self.stop(stop.reason)
                    return
            # update phase
            if self._update_requests:
                requests, self._update_requests = self._update_requests, []
                for signal in requests:
                    if signal._apply():
                        self.stats.signal_changes += 1
            self.delta_count += 1
            self.stats.delta_cycles += 1
            deltas_here += 1
            if deltas_here > self.stats.max_deltas_per_instant:
                self.stats.max_deltas_per_instant = deltas_here
            if deltas_here > self.max_delta_cycles:
                raise DeltaCycleLimitExceeded(
                    f"{deltas_here} delta cycles at time {format_time(self.time)}"
                )
            for hook in self.on_delta:
                hook(self)
            # loop: delta notifications fired during update wake processes
            if self._delta_notified:
                self._fire_delta_notifications()

    def _fire_delta_notifications(self) -> None:
        notified, self._delta_notified = self._delta_notified, []
        for event in notified:
            for process in event._collect_waiters():
                self._make_runnable(process)

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
            for hook in self.on_time_advance:
                hook(self)
            return True
        return False

    def _wake_timed(self, event: Event) -> None:
        runnable = self._runnable
        for process in event._collect_waiters():
            if not process.runnable and not process.terminated:
                process.runnable = True
                runnable.append(process)

    # -- conveniences -------------------------------------------------------------

    def pending_activity(self) -> bool:
        return bool(
            self._runnable
            or self._delta_notified
            or self._update_requests
            or self._timed
        )

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
        #: instants completed by the merged-phase single-driver fast
        #: path vs. the general delta scheduler (hooks installed, or a
        #: second driver appeared mid-instant).
        self.fast_path_instants = 0
        self.full_path_instants = 0

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
        }

    def summary(self) -> str:
        return (
            f"{self.process_runs} process runs, {self.delta_cycles} deltas, "
            f"{self.signal_changes} signal changes, "
            f"{self.time_advances} time steps in {self.wall_seconds:.3f}s wall"
        )
