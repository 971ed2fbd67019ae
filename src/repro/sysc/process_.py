"""Processes: SC_THREAD and SC_METHOD equivalents.

Threads are Python generators: the body runs until it ``yield``-s a
*wait request*, which is one of

* an :class:`~repro.sysc.event.Event` -- dynamic wait on one event,
* a tuple/list of events -- wait on any of them,
* a positive ``int`` -- wait for that much simulation time,
* ``None`` -- wait on the process's static sensitivity list.

Methods are plain callables triggered by their static sensitivity, run
to completion, and cannot wait -- exactly SystemC's SC_METHOD.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Callable, Generator, Iterable, List, Optional, Union

from .errors import SyscError
from .event import Event

if TYPE_CHECKING:
    from .kernel import Simulator
    from .module import Module

#: What a thread may yield.
WaitRequest = Union[Event, int, None, tuple, list]

ThreadBody = Callable[[], Generator[WaitRequest, None, None]]
MethodBody = Callable[[], None]


class ProcessKind(enum.Enum):
    THREAD = "thread"
    METHOD = "method"


class Process:
    """Common bookkeeping for both process kinds."""

    __slots__ = (
        "name",
        "owner",
        "sensitivity",
        "dont_initialize",
        "terminated",
        "runnable",
        "kind",
    )

    def __init__(
        self,
        name: str,
        owner: "Module | None",
        sensitivity: Iterable[Event] = (),
        dont_initialize: bool = False,
    ):
        self.name = name
        self.owner = owner
        self.sensitivity: List[Event] = list(sensitivity)
        self.dont_initialize = dont_initialize
        self.terminated = False
        self.runnable = False
        self.kind: ProcessKind = ProcessKind.METHOD

    def make_static_sensitive(self) -> None:
        for event in self.sensitivity:
            if self not in event.static_waiters:
                event.static_waiters.append(self)

    def close(self) -> None:
        """Terminate for good and drop every reference this process
        holds (its owner and sensitivity), so a closed design has no
        cycle through it (see :meth:`Simulator.close`)."""
        self.terminated = True
        self.runnable = False
        self.owner = None
        self.sensitivity = []

    def clear_static_sensitivity(self) -> None:
        for event in self.sensitivity:
            if self in event.static_waiters:
                event.static_waiters.remove(self)

    def __repr__(self) -> str:
        status = "terminated" if self.terminated else "alive"
        return f"<{self.kind.value} {self.name} ({status})>"


class MethodProcess(Process):
    """SC_METHOD: runs to completion on every trigger."""

    __slots__ = ("body",)

    def __init__(
        self,
        name: str,
        body: MethodBody,
        owner: "Module | None" = None,
        sensitivity: Iterable[Event] = (),
        dont_initialize: bool = False,
    ):
        super().__init__(name, owner, sensitivity, dont_initialize)
        self.kind = ProcessKind.METHOD
        self.body = body

    def execute(self, simulator: "Simulator") -> None:
        self.body()

    def close(self) -> None:
        super().close()
        self.body = None


class ThreadProcess(Process):
    """SC_THREAD: a generator suspended at wait points."""

    __slots__ = ("body", "_generator", "_waiting_on", "_timer", "_timer_fires_at")

    def __init__(
        self,
        name: str,
        body: ThreadBody,
        owner: "Module | None" = None,
        sensitivity: Iterable[Event] = (),
        dont_initialize: bool = False,
    ):
        super().__init__(name, owner, sensitivity, dont_initialize)
        self.kind = ProcessKind.THREAD
        self.body = body
        self._generator: Optional[Generator] = None
        #: events this thread is currently dynamically waiting on
        self._waiting_on: List[Event] = []
        #: reusable timeout event for ``yield <int>`` waits -- a thread
        #: waits on at most one timeout at a time, so one event
        #: (created lazily) serves every timed wait without per-wait
        #: allocation or cancellation bookkeeping
        self._timer: Optional[Event] = None
        #: simulated time the armed timer fires at; resuming before
        #: then (an early wake) means a stale heap entry is pending
        #: and the event must not be rearmed
        self._timer_fires_at = -1

    def execute(self, simulator: "Simulator") -> None:
        """Resume the thread until its next wait (or termination)."""
        waiting = self._waiting_on
        if waiting:
            for event in waiting:
                dynamic = event.dynamic_waiters
                if self in dynamic:
                    dynamic.remove(self)
            waiting.clear()
        if self.terminated:
            return
        if self._generator is None:
            result = self.body()
            if result is None:
                # A body with no yields: a one-shot thread.
                self.terminated = True
                return
            self._generator = result
        try:
            request = next(self._generator)
        except StopIteration:
            self.terminated = True
            return
        # Single-event waits dominate (clocked threads yielding a cached
        # posedge event every cycle) -- handle them inline.
        if request.__class__ is Event:
            request.dynamic_waiters.append(self)
            waiting.append(request)
            return
        self._apply_wait(request, simulator)

    def _apply_wait(self, request: WaitRequest, simulator: "Simulator") -> None:
        if request is None:
            # wait(): static sensitivity (already subscribed).
            if not self.sensitivity:
                raise SyscError(
                    f"thread {self.name!r} waits on empty static sensitivity"
                )
            return
        if isinstance(request, Event):
            request.dynamic_waiters.append(self)
            self._waiting_on.append(request)
            return
        if isinstance(request, int):
            if request < 0:
                raise SyscError(f"negative wait time in {self.name!r}")
            timer = self._timer
            if timer is None or simulator.time < self._timer_fires_at:
                # No timer yet, or the previous timed wait was
                # abandoned by an early wake and its heap entry is
                # still pending: that event would double-fire, so it
                # is dropped and a fresh one takes its place.
                timer = self._timer = Event(f"{self.name}.timeout", simulator)
            delay = max(request, 1)
            self._timer_fires_at = simulator.time + delay
            timer.dynamic_waiters.append(self)
            self._waiting_on.append(timer)
            simulator._notify_timed_fast(timer, delay)
            return
        if isinstance(request, (tuple, list)):
            for event in request:
                if not isinstance(event, Event):
                    raise SyscError(
                        f"thread {self.name!r} yielded a non-event in a wait list"
                    )
                event.dynamic_waiters.append(self)
            self._waiting_on.extend(request)
            return
        raise SyscError(
            f"thread {self.name!r} yielded unsupported wait request {request!r}"
        )

    def _unsubscribe(self) -> None:
        waiting = self._waiting_on
        if not waiting:
            return
        for event in waiting:
            if self in event.dynamic_waiters:
                event.dynamic_waiters.remove(self)
        self._waiting_on = []

    def close(self) -> None:
        """Close the generator (its frame holds the module) and drop
        the body and every event this thread waits on."""
        generator, self._generator = self._generator, None
        if generator is not None:
            generator.close()
        super().close()
        self.body = None
        self._waiting_on = []
        self._timer = None

    def kill(self) -> None:
        self._unsubscribe()
        if self._generator is not None:
            self._generator.close()
        self.terminated = True
