"""Clock: a self-toggling boolean signal (``sc_clock``).

The paper's PCI model runs at "33MHz clock speed"; a Clock with
``period=ns(30)`` approximates that.  ``cycle_count`` counts posedges,
which the ABV layer and the benchmark harness use as the cycle base for
the delta (ns/cycle) measurements of Tables 1 and 2.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import SyscError
from .event import Event
from .process_ import Process, ProcessKind
from .signal import Signal

if TYPE_CHECKING:
    from .kernel import Simulator


class _ClockDriver(Process):
    """Native clock toggler: one ``execute`` per edge.

    Replaces the generator thread that used to drive the clock.  Each
    run writes the next level, flips the phase, and rearms a single
    reused timeout event -- no generator resumption, no wait-request
    dispatch, no per-edge event allocation.  The timer is private to
    the driver (nothing else can wait on or cancel it) and is only
    rearmed after its own firing, so reuse is safe.

    When the low phase of a cycle is provably unobservable (the fold
    condition, :meth:`folds`: no negedge or value-changed listeners,
    no kernel hooks, no concurrent timers or runnables), the driver
    *folds* it: one wake-up per cycle instead of two, halving kernel
    instants.  The rising-edge cadence, ``cycle_count`` and every
    posedge notification are unchanged.  The same condition gates the
    kernel's cycle step (``Simulator._cycle_step``), which runs a whole
    folded instant inline and leaves what this driver's folded rising
    edge and the update phase after it would leave.  Monitors do not
    stop the fold: an ABV harness samples at the end of the rising
    edge's instant (a *settle* sampler, armed here on every rising
    edge), not on the falling edge.  A negedge or value-changed
    listener that appears after the fold decision gets this cycle's
    falling edge back (:meth:`unfold`); only a process that samples the
    clock *level* between edges via a timed wait it arms after the fold
    decision could tell the difference.
    """

    __slots__ = (
        "_clock", "_simulator", "_timer", "_started", "_high_next",
        "_folded_at",
    )

    def __init__(self, clock: "Clock", simulator: "Simulator"):
        super().__init__(f"{clock.name}.driver", owner=None)
        self.kind = ProcessKind.THREAD
        self._clock = clock
        self._simulator = simulator
        self._timer = Event(f"{clock.name}.driver.timeout", simulator)
        self._started = not clock.start_time
        self._high_next = clock.posedge_first
        #: time of the last folded rising edge (-1: none yet)
        self._folded_at = -1

    def _arm(self, delay: int) -> None:
        self._timer.dynamic_waiters.append(self)
        self._simulator._notify_timed_fast(self._timer, delay)

    def folds(self) -> bool:
        """The fold condition: nothing can observe the coming low phase.

        No negedge or value-changed listener on the clock, no
        per-delta hook, and no pending work but this
        driver's own timer -- no other timer, runnable process, delta
        notification or signal update that could sample the level
        between the edges.  :meth:`execute` asks it at each rising
        edge (its timer already fired); the kernel's cycle step asks it
        before each cycle it runs inline (the timer still queued).
        """
        clock = self._clock
        simulator = self._simulator
        timed = simulator._timed
        return (
            clock._negedge is None
            and clock._value_changed is None
            and not simulator.on_delta
            and (not timed or (len(timed) == 1 and timed[0][2] is self._timer))
            and not simulator._runnable
            and not simulator._delta_notified
            and not simulator._update_requests
        )

    def execute(self, simulator: "Simulator") -> None:
        if not self._started:
            # First run with a start delay: idle until start_time.
            self._started = True
            self._arm(self._clock.start_time)
            return
        clock = self._clock
        if self._high_next:
            clock.cycle_count += 1
            if clock._settle_samplers:
                due = simulator.time + clock._high_time
                for sampler in clock._settle_samplers:
                    simulator._settle.append((due, sampler))
            if self.folds():
                # Fold the falling edge away -- drop to low silently,
                # raise a real rising edge, and sleep the whole period
                # in one wake-up instead of two.
                clock._current = False
                clock.write(True)
                self._arm(clock.period)
                self._folded_at = simulator.time
                return  # stay in the "posedge next" phase
            clock.write(True)
            delay = clock._high_time
        else:
            clock.write(False)
            delay = clock._low_time
        self._high_next = not self._high_next
        self._arm(delay)

    def unfold(self) -> None:
        """Give a folded cycle its falling edge back.

        Called when a negedge or value-changed listener appears: if the
        current cycle was folded and its falling edge still lies ahead,
        arm the timer for it.  The folded wake-up stays queued; the
        rearm after the falling edge lands on the same time and that
        second heap entry finds no waiter.
        """
        simulator = self._simulator
        falls_at = self._folded_at + self._clock._high_time
        if self._high_next and self._folded_at >= 0 and simulator.time < falls_at:
            self._high_next = False
            simulator._notify_timed_fast(self._timer, falls_at - simulator.time)


class Clock(Signal[bool]):
    """A periodic boolean signal driven by an internal thread."""

    def __init__(
        self,
        name: str,
        period: int,
        simulator: "Simulator",
        duty_cycle: float = 0.5,
        start_time: int = 0,
        posedge_first: bool = True,
    ):
        if period <= 1:
            raise SyscError("clock period must exceed one time unit")
        if not 0.0 < duty_cycle < 1.0:
            raise SyscError("duty cycle must be inside (0, 1)")
        super().__init__(initial=not posedge_first, name=name, simulator=simulator)
        self.period = period
        self.duty_cycle = duty_cycle
        self.start_time = start_time
        self.posedge_first = posedge_first
        self.cycle_count = 0

        self._high_time = max(int(period * duty_cycle), 1)
        self._low_time = max(period - self._high_time, 1)
        #: samplers fed at the end of every rising edge's instant (see
        #: :class:`repro.abv.AbvHarness`); each has ``settle(due)`` and
        #: ``fall_back()``
        self._settle_samplers: list = []
        self._driver = _ClockDriver(self, simulator)
        simulator.register_process(self._driver)

    # -- low-phase listeners ----------------------------------------------------

    @property
    def value_changed(self) -> Event:
        if self._value_changed is None:
            Signal.value_changed.fget(self)
            self._low_phase_observed()
        return self._value_changed

    @property
    def negedge_event(self) -> Event:
        if self._negedge is None:
            Signal.negedge_event.fget(self)
            self._low_phase_observed()
        return self._negedge

    def _low_phase_observed(self) -> None:
        """Someone can now see the low phase: keep this cycle's falling
        edge, and hand every settle sampler back to its negedge thread
        (its sample could depend on what that listener does)."""
        self._driver.unfold()
        samplers, self._settle_samplers = self._settle_samplers, []
        for sampler in samplers:
            sampler.fall_back()

    def posedge(self):
        """The event to ``yield`` for 'wait until next rising edge'."""
        return self.posedge_event

    def negedge(self):
        return self.negedge_event

    def __repr__(self) -> str:
        return f"Clock({self.name!r}, period={self.period})"
