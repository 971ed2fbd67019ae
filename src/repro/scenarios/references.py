"""Armed ASM reference models, shared by every scoreboard check.

The paper verifies the ASM model once and then trusts it as the golden
reference beside every SystemC simulation.  A check needs that model
sealed, initialized (``system.init``) and bound to its adapter's
generated replay; building all that per check costs more than most
checks' replay.  :class:`ReferencePool` builds it once per (adapter
class, topology) and hands it out again: a check re-arms its reference
by :meth:`~repro.asm.machine.AsmModel.restore` of the post-init state
(:meth:`repro.scenarios.scoreboard.ReferenceAdapter.begin`), which is
what a fresh build would have reached.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Callable, List, Tuple

from ..asm.errors import AsmError
from ..asm.machine import ActionCall, AsmModel

if TYPE_CHECKING:
    from .scoreboard import ReferenceAdapter


class ArmedReference:
    """One sealed reference model, initialized once: :attr:`armed` is
    its post-``system.init`` state and :attr:`replay` the adapter's
    script bound to it."""

    __slots__ = ("key", "model", "armed", "replay")

    def __init__(self, key: Tuple[Any, ...], model: AsmModel, replay: Callable):
        self.key = key
        self.model = model
        self.armed = model.full_state()
        self.replay = replay


class ReferencePool:
    """Armed references keyed by (adapter class, topology).

    :meth:`checkout` hands each caller a reference no one else holds,
    building one when none is free, so checks may run on concurrent
    threads (an in-process worker serves ``/run`` on handler threads);
    :meth:`checkin` returns it.  At most :attr:`PER_KEY` free references
    stay per key and at most :attr:`MAX_KEYS` keys, the least recently
    used going first, so adapter classes made on the fly (a test's
    subclasses) cannot grow the pool without bound.
    """

    #: more than a process's concurrent checks of one topology
    PER_KEY = 4
    #: more than the shipped topologies (eight)
    MAX_KEYS = 32

    def __init__(self):
        self._free: "OrderedDict[Tuple[Any, ...], List[ArmedReference]]" = OrderedDict()
        self._lock = threading.Lock()

    def checkout(self, adapter: "ReferenceAdapter") -> ArmedReference:
        """A reference for ``adapter``'s class and topology, in some
        state the caller re-arms."""
        key = (type(adapter), adapter.topology)
        with self._lock:
            free = self._free.get(key)
            if free:
                return free.pop()
        model = adapter.build_reference()
        try:
            model.execute(ActionCall("system", "init"))
        except AsmError as error:  # pragma: no cover -- the case-study models always init
            raise RuntimeError(f"reference model failed to initialize: {error}") from None
        return ArmedReference(key, model, adapter.script.bind(model))

    def checkin(self, reference: ArmedReference) -> None:
        """Take back a checked-out reference (kept while there is room)."""
        with self._lock:
            free = self._free.setdefault(reference.key, [])
            self._free.move_to_end(reference.key)
            if len(free) < self.PER_KEY:
                free.append(reference)
            while len(self._free) > self.MAX_KEYS:
                self._free.popitem(last=False)


#: the process's reference pool (every :meth:`ReferenceAdapter.begin`)
REFERENCES = ReferencePool()
