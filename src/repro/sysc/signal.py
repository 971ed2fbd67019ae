"""Signals: the evaluate/update communication primitive.

``Signal`` follows SystemC's ``sc_signal`` semantics: ``write`` only
*requests* an update; the new value becomes visible in the next delta
cycle, after the evaluation phase, and a change notifies the signal's
``value_changed`` (plus ``posedge``/``negedge`` for boolean-ish
signals).  This is what makes the translation rule R2.1 ("class members
are translated into SystemC signals") behaviourally faithful to ASM
state variables updated by update sets.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generic, Optional, TypeVar

from .event import Event

if TYPE_CHECKING:
    from .kernel import Simulator

T = TypeVar("T")

_NOTHING = object()


class Signal(Generic[T]):
    """A single-driver signal with deferred (delta-cycle) updates."""

    __slots__ = (
        "name",
        "simulator",
        "_current",
        "_next",
        "_value_changed",
        "_posedge",
        "_negedge",
        "_last_change_delta",
    )

    def __init__(
        self,
        initial: T = False,  # type: ignore[assignment]
        name: str = "signal",
        simulator: "Simulator | None" = None,
    ):
        self.name = name
        self.simulator = simulator
        self._current: T = initial
        self._next: Any = _NOTHING
        self._value_changed: Optional[Event] = None
        self._posedge: Optional[Event] = None
        self._negedge: Optional[Event] = None
        #: delta count of the last committed change (for event() queries)
        self._last_change_delta: int = -1
        if simulator is not None:
            simulator.register_signal(self)

    # -- events (created lazily; most signals are never waited on) ------------

    @property
    def value_changed(self) -> Event:
        if self._value_changed is None:
            self._value_changed = Event(f"{self.name}.value_changed", self.simulator)
        return self._value_changed

    @property
    def posedge_event(self) -> Event:
        if self._posedge is None:
            self._posedge = Event(f"{self.name}.posedge", self.simulator)
        return self._posedge

    @property
    def negedge_event(self) -> Event:
        if self._negedge is None:
            self._negedge = Event(f"{self.name}.negedge", self.simulator)
        return self._negedge

    def default_event(self) -> Event:
        return self.value_changed

    # -- access -----------------------------------------------------------------

    def read(self) -> T:
        return self._current

    @property
    def value(self) -> T:
        return self._current

    def write(self, value: T) -> None:
        """Request an update; visible after the current delta cycle."""
        simulator = self.simulator
        if simulator is None:
            # Unattached signals update immediately (unit-test comfort).
            self._next = value
            self._apply()
            return
        if self._next is _NOTHING:
            simulator._update_requests.append(self)
        # a second write in the same delta replaces the first: last
        # write wins, with one queue entry per signal
        self._next = value

    def event(self) -> bool:
        """True if the signal changed in the immediately preceding delta."""
        if self.simulator is None:
            return False
        return self._last_change_delta == self.simulator.delta_count - 1

    # -- kernel side ---------------------------------------------------------------

    def _apply(self) -> bool:
        """Commit the pending write; returns True when the value changed."""
        if self._next is _NOTHING:
            return False
        new_value, self._next = self._next, _NOTHING
        if new_value == self._current:
            return False
        old_value, self._current = self._current, new_value
        if self.simulator is not None:
            self._last_change_delta = self.simulator.delta_count
        if self._value_changed is not None:
            self._value_changed.notify()
        if self._posedge is not None and new_value and not old_value:
            self._posedge.notify()
        if self._negedge is not None and old_value and not new_value:
            self._negedge.notify()
        return True

    def attach(self, simulator: "Simulator") -> None:
        self.simulator = simulator
        for event in (self._value_changed, self._posedge, self._negedge):
            if event is not None:
                event.attach(simulator)

    def __repr__(self) -> str:
        return f"Signal({self.name!r}={self._current!r})"
