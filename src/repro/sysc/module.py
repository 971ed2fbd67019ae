"""Modules and ports: SystemC's structural layer.

"The other core language elements consist of modules and ports for
representing structures.  Interfaces and channels are used to describe
communications."  (paper, Section 2.2)

A :class:`Module` owns signals, events, child modules and processes;
:class:`In`/:class:`Out` ports are bound to signals during elaboration
(rule R3's "naming mapping is used to link different modules
together").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generic, List, Optional, Tuple, TypeVar

from .errors import BindingError, ElaborationError
from .event import Event
from .process_ import MethodProcess, ThreadProcess
from .signal import Signal
from .state import PHASE, StateEntry

if TYPE_CHECKING:
    from .kernel import Simulator

T = TypeVar("T")


class Port(Generic[T]):
    """Base port: a late-bound reference to a signal."""

    direction = "inout"

    def __init__(self, name: str = "port"):
        self.name = name
        self._signal: Optional[Signal[T]] = None

    def bind(self, signal: "Signal[T] | Port[T]") -> None:
        if isinstance(signal, Port):
            if signal._signal is None:
                raise BindingError(
                    f"cannot bind {self.name!r} to unbound port {signal.name!r}"
                )
            signal = signal._signal
        self._signal = signal

    @property
    def bound(self) -> bool:
        return self._signal is not None

    @property
    def signal(self) -> Signal[T]:
        if self._signal is None:
            raise BindingError(f"port {self.name!r} is not bound")
        return self._signal

    def read(self) -> T:
        return self.signal.read()

    def default_event(self) -> Event:
        return self.signal.value_changed

    def posedge(self) -> Event:
        return self.signal.posedge_event

    def negedge(self) -> Event:
        return self.signal.negedge_event

    def __repr__(self) -> str:
        target = self._signal.name if self._signal is not None else "<unbound>"
        return f"{type(self).__name__}({self.name!r} -> {target})"


class In(Port[T]):
    """Input port (``sc_in``): read-only access."""

    direction = "in"


class Out(Port[T]):
    """Output port (``sc_out``): adds ``write``."""

    direction = "out"

    def write(self, value: T) -> None:
        self.signal.write(value)


class Module:
    """Base class for hardware modules (``sc_module``).

    Subclasses create their structure in ``__init__`` (after calling
    ``super().__init__``) using the ``signal``/``thread``/``method``
    helpers, mirroring how a SystemC module's constructor declares
    ``SC_THREAD``/``SC_METHOD`` with sensitivity (rule R2.2 inserts the
    translated preconditions exactly there).
    """

    #: the registers a checkpoint carries, declared once as
    #: ``(wire key, attribute, codec)`` entries (see
    #: :mod:`repro.sysc.state`); empty for stateless modules
    STATE: Tuple[StateEntry, ...] = ()

    def __init__(self, name: str, simulator: "Simulator | None" = None, parent: "Module | None" = None):
        if simulator is None and parent is not None:
            simulator = parent.simulator
        if simulator is None:
            raise ElaborationError(f"module {name!r} needs a simulator or a parent")
        self.simulator: "Simulator" = simulator
        self.parent = parent
        self.basename = name
        self.name = name if parent is None else f"{parent.name}.{name}"
        self.children: List["Module"] = []
        self.ports: List[Port] = []
        self._signals: List[Signal] = []
        if parent is not None:
            parent.children.append(self)
        simulator.modules.append(self)

    # -- structure helpers ----------------------------------------------------

    def signal(self, initial: Any = False, name: str = "signal") -> Signal:
        sig = Signal(initial, name=f"{self.name}.{name}", simulator=self.simulator)
        self._signals.append(sig)
        return sig

    def event(self, name: str = "event") -> Event:
        return Event(f"{self.name}.{name}", self.simulator)

    def in_port(self, name: str) -> In:
        port: In = In(f"{self.name}.{name}")
        self.ports.append(port)
        return port

    def out_port(self, name: str) -> Out:
        port: Out = Out(f"{self.name}.{name}")
        self.ports.append(port)
        return port

    def thread(self, body, sensitive: tuple = (), dont_initialize: bool = False, name: str | None = None) -> ThreadProcess:
        """Declare an SC_THREAD with an optional static sensitivity list."""
        events = [self.simulator._resolve_event(s) for s in sensitive]
        process = ThreadProcess(
            f"{self.name}.{name or body.__name__}",
            body,
            owner=self,
            sensitivity=events,
            dont_initialize=dont_initialize,
        )
        self.simulator.register_process(process)
        return process

    def method(self, body, sensitive: tuple = (), dont_initialize: bool = False, name: str | None = None) -> MethodProcess:
        """Declare an SC_METHOD with a static sensitivity list."""
        events = [self.simulator._resolve_event(s) for s in sensitive]
        process = MethodProcess(
            f"{self.name}.{name or body.__name__}",
            body,
            owner=self,
            sensitivity=events,
            dont_initialize=dont_initialize,
        )
        self.simulator.register_process(process)
        return process

    def close(self) -> None:
        """Drop this module's self-references once its simulator is
        closed (:meth:`Simulator.close` calls it): the current phase
        handler a ``PHASE`` entry of :attr:`STATE` names is a bound
        method of the module itself.  Nothing else is touched."""
        for _, attr, codec in self.STATE:
            if codec is PHASE:
                setattr(self, attr, None)

    # -- elaboration checks ---------------------------------------------------------

    def check_bindings(self) -> None:
        """Raise if any port (here or below) is unbound."""
        for port in self.ports:
            if not port.bound:
                raise BindingError(f"port {port.name!r} left unbound")
        for child in self.children:
            child.check_bindings()

    def signals(self) -> List[Signal]:
        collected = list(self._signals)
        for child in self.children:
            collected.extend(child.signals())
        return collected

    def __repr__(self) -> str:
        return f"<Module {self.name}>"
