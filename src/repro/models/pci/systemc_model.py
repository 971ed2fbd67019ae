"""The PCI bus as a clocked SystemC simulation model.

The hand-translated counterpart of :mod:`.asm_model` (the paper
translates the verified ASM design to SystemC through rules R1-R3 and
then simulates it with the compiled assertion monitors).  Modules:

* :class:`PciArbiterModule` -- REQ#/GNT# pairs per master, lowest-index
  priority, *hidden arbitration* (re-arbitrates while a transaction is
  still running),
* :class:`PciTargetModule`  -- positive address decode (DEVSEL# within
  its configured decode latency), data phases (TRDY#), and seeded
  random retry injection (STOP#),
* :data:`PCI_LETTER` -- the canonical signal namespace of
  :mod:`.properties` the assertion monitors read.

The initiators and the top that wires everything are
:class:`~.scenario.PciSequenceMaster` (memory read/write transactions
from a sequence, honouring STOP# by backing off and retrying) and
:class:`~.scenario.PciScenarioSystem`, the one design that simulation,
regression and closure all run.

The model is cycle-based: every module owns one thread clocked on the
shared 33 MHz clock's posedge; monitors see the state the negedge
shows.
"""

from __future__ import annotations

import random
from typing import Optional

from ...abv.letters import LetterDeclaration, each
from ...sysc.clock import Clock
from ...sysc.kernel import Simulator
from ...sysc.module import Module
from ...sysc.signal import Signal
from ...sysc.state import PHASE, RANDOM, SCALAR
from .protocol import DEVSEL_TIMEOUT_CYCLES, PciCommand


class PciSignals:
    """The shared bus wires (active-high in this model for readability)."""

    def __init__(self, simulator: Simulator, n_masters: int, n_targets: int):
        self.req = [Signal(False, f"req{i}", simulator) for i in range(n_masters)]
        self.gnt = [Signal(False, f"gnt{i}", simulator) for i in range(n_masters)]
        # repro: allow[race.multi-driver] FRAME# is driven only by the GNT# holder; arbitration serializes masters
        self.frame = Signal(False, "frame", simulator)
        # repro: allow[race.multi-driver] IRDY# is driven only by the GNT# holder; arbitration serializes masters
        self.irdy = Signal(False, "irdy", simulator)
        self.devsel = [
            Signal(False, f"devsel{j}", simulator) for j in range(n_targets)
        ]
        self.trdy = [Signal(False, f"trdy{j}", simulator) for j in range(n_targets)]
        self.stop = [Signal(False, f"stop{j}", simulator) for j in range(n_targets)]
        # repro: allow[race.multi-driver] AD is driven only by the GNT# holder during the address phase
        self.addr = Signal(-1, "addr", simulator)  # decoded target index
        # repro: allow[race.multi-driver] ownership bookkeeping is written only by the master the arbiter granted
        self.owner = Signal(-1, "owner", simulator)
        # repro: allow[race.multi-driver] C/BE# is driven only by the GNT# holder during the address phase
        self.command = Signal(PciCommand.MEM_READ, "command", simulator)


class PciArbiterModule(Module):
    """Lowest-index-priority arbiter with bus parking and hidden
    arbitration."""

    STATE = (
        ("grant", "_grant", SCALAR),
        ("grants_issued", "grants_issued", SCALAR),
    )

    def __init__(self, name: str, sim: Simulator, clock: Clock, wires: PciSignals):
        super().__init__(name, sim)
        self.clock = clock
        self._posedge = clock.posedge_event
        self.wires = wires
        self.grants_issued = 0
        #: index currently holding GNT# (kept in an attribute, not a
        #: generator local, so the arbiter is checkpointable)
        self._grant: Optional[int] = None
        self.thread(self.arbitrate)

    def arbitrate(self):
        posedge = self._posedge
        while True:
            yield posedge
            self._arbitrate_once()

    def _arbitrate_once(self) -> None:
        req = self.wires.req
        gnt = self.wires.gnt
        current = self._grant
        if current is not None and not req[current].read():
            # The granted master started its transaction (REQ# fell):
            # drop GNT# so the next arbitration can proceed even while
            # the transaction still runs (hidden arbitration).
            gnt[current].write(False)
            self._grant = current = None
        if current is None:
            # Lowest-index priority; reads see pre-delta values, so
            # scanning after the GNT# drop is equivalent to the old
            # snapshot-then-drop ordering.
            for index, requesting in enumerate(req):
                if requesting.read():
                    self._grant = index
                    gnt[index].write(True)
                    self.grants_issued += 1
                    break


class PciTargetModule(Module):
    """A PCI target with configurable decode latency and retry injection.

    Runs as an explicit phase machine (idle / decode / respond / serve /
    stop_wait / stop_tail): ``self._phase`` holds the current handler,
    and every posedge wake calls handlers until one consumes the cycle,
    so the whole response state — including the decode countdown and a
    draining STOP# — lives in attributes and snapshots via its
    :attr:`STATE` table.  The RNG stream (one draw at decode end, one
    per served cycle while FRAME# is high) is wake-for-wake identical
    to the original nested-loop formulation, and travels at its exact
    position.
    """

    STATE = (
        ("phase", "_phase", PHASE),
        ("decode_left", "_decode_left", SCALAR),
        ("from_serve", "_from_serve", SCALAR),
        ("claims", "claims", SCALAR),
        ("stops_issued", "stops_issued", SCALAR),
        ("random", "random", RANDOM),
    )

    def __init__(
        self,
        index: int,
        sim: Simulator,
        clock: Clock,
        wires: PciSignals,
        seed: int,
        decode_latency: int = 1,
        stop_probability: float = 0.05,
    ):
        super().__init__(f"target{index}", sim)
        if not 1 <= decode_latency <= DEVSEL_TIMEOUT_CYCLES - 1:
            raise ValueError("decode latency outside the DEVSEL window")
        self.index = index
        self.clock = clock
        self._posedge = clock.posedge_event
        self.wires = wires
        self.random = random.Random(seed)
        self.decode_latency = decode_latency
        self.stop_probability = stop_probability
        self.claims = 0
        self.stops_issued = 0
        # phase-machine registers
        self._phase = self._phase_idle
        self._decode_left = 0
        self._from_serve = False
        self.thread(self.run)

    def run(self):
        posedge = self._posedge
        while True:
            yield posedge
            # repro: allow[race.wait-free-loop] bounded phase dispatch: every handler either consumes the wake or advances the phase, so this terminates within one cycle
            while self._phase() is None:
                pass

    def _phase_idle(self) -> Optional[bool]:
        wires = self.wires
        if not (wires.frame.read() and wires.addr.read() == self.index):
            return True
        self._decode_left = self.decode_latency - 1
        self._phase = self._phase_decode
        return None

    def _phase_decode(self) -> Optional[bool]:
        if self._decode_left > 0:
            self._decode_left -= 1
            return True
        if self.random.random() < self.stop_probability:
            self._stop_writes()
            self._from_serve = False
            self._phase = self._phase_stop_wait
            return None  # STOP# hold checks FRAME# in this same cycle
        self.wires.devsel[self.index].write(True)
        self.claims += 1
        self._phase = self._phase_respond
        return True

    def _phase_respond(self) -> Optional[bool]:
        self.wires.trdy[self.index].write(True)
        self._phase = self._phase_serve_entry
        return None

    def _phase_serve_entry(self) -> Optional[bool]:
        """First service cycle: no disconnect draw before the first wait."""
        wires = self.wires
        if wires.frame.read() or wires.irdy.read():
            self._phase = self._phase_serve
            return True
        wires.devsel[self.index].write(False)
        wires.trdy[self.index].write(False)
        self._phase = self._phase_idle
        return True

    def _phase_serve(self) -> Optional[bool]:
        # stay ready until the initiator finishes (FRAME# falls and
        # IRDY# falls after the last word)
        wires = self.wires
        if (
            wires.frame.read()
            and self.random.random() < self.stop_probability / 4
        ):
            # mid-burst disconnect
            self._stop_writes()
            self._from_serve = True
            self._phase = self._phase_stop_wait
            return None
        if wires.frame.read() or wires.irdy.read():
            return True
        wires.devsel[self.index].write(False)
        wires.trdy[self.index].write(False)
        self._phase = self._phase_idle
        return True

    def _phase_stop_wait(self) -> Optional[bool]:
        # hold STOP# until the initiator backs off
        if self.wires.frame.read():
            return True
        self._phase = self._phase_stop_tail
        return True

    def _phase_stop_tail(self) -> Optional[bool]:
        self.wires.stop[self.index].write(False)
        if self._from_serve:
            # the original loop's post-break writes (same-value, but
            # preserved for update-request parity with the generator)
            self.wires.devsel[self.index].write(False)
            self.wires.trdy[self.index].write(False)
        self._phase = self._phase_idle
        return True

    def _stop_writes(self) -> None:
        wires = self.wires
        wires.devsel[self.index].write(False)
        wires.trdy[self.index].write(False)
        wires.stop[self.index].write(True)
        self.stops_issued += 1


#: the monitor-facing signal namespace of a PCI top
#: (``repro.models.pci.properties`` writes its PSL over it)
PCI_LETTER = LetterDeclaration(
    ("frame", "wires.frame"),
    ("irdy", "wires.irdy"),
    ("bus_idle", "(not wires.frame) and wires.owner == -1"),
    ("devsel", "any(wires.devsel)"),
    ("trdy", "any(wires.trdy)"),
    ("stop_any", "any(wires.stop)"),
    (
        "stop_addressed",
        "bool(0 <= wires.addr < n_targets and wires.stop[wires.addr])",
    ),
    each(
        "i", "n_masters",
        ("req{i}", "wires.req[i]"),
        ("gnt{i}", "wires.gnt[i]"),
        ("owner{i}", "wires.owner == i"),
        ("master{i}_idle", "masters[i].idle_flag"),
        ("master{i}_data", "masters[i].data_flag"),
    ),
    each(
        "j", "n_targets",
        ("devsel{j}", "wires.devsel[j]"),
        ("trdy{j}", "wires.trdy[j]"),
        ("stop{j}", "wires.stop[j]"),
    ),
)
