"""The Master/Slave bus's SystemC parts: wires, arbiter, slaves, letter.

Mirrors the SystemC 2.0 distribution's bus example the paper extends:
an arbiter, a shared bus with *blocking* (burst) and *non-blocking*
(single word) master interfaces, and memory slaves.  The masters and
the top that wires them are :class:`~.scenario.MsSequenceMaster` and
:class:`~.scenario.MsScenarioSystem`, the one design that
``simulate_abv``, regression, closure and checkpoints all run (see
:mod:`.scenario`).

The module set exposes the canonical signal namespace of
:mod:`.properties` (declared once as :data:`MS_LETTER`) so the very
same directives verified at the ASM level bind as runtime assertion
monitors here.
"""

from __future__ import annotations

from typing import Dict

from ...abv.letters import LetterDeclaration, each
from ...sysc.clock import Clock
from ...sysc.kernel import Simulator
from ...sysc.module import Module
from ...sysc.signal import Signal
from ...sysc.state import INT_KEYED, SCALAR

#: Default clock period (ps): same 30ns base as the PCI study.
MS_CLOCK_PERIOD_PS = 30_000


class MsSignals:
    """Shared request/grant/transfer wires."""

    def __init__(self, simulator: Simulator, n_masters: int, n_slaves: int):
        self.want = [Signal(False, f"want{i}", simulator) for i in range(n_masters)]
        # repro: allow[race.multi-driver] arbiter grants, the granted master releases; the want/transferring handshake guarantees a single writer per delta
        self.owner = Signal(-1, "owner", simulator)
        self.transferring = [
            Signal(False, f"transferring{i}", simulator) for i in range(n_masters)
        ]
        # repro: allow[race.multi-driver] only the bus owner touches slave_busy and ownership is serialized by the arbiter grant
        self.slave_busy = [
            Signal(False, f"slave{j}_busy", simulator) for j in range(n_slaves)
        ]


class MsArbiterModule(Module):
    """Grants the bus to the lowest-index requesting master."""

    #: the grant loop re-derives everything from the wires each
    #: posedge, so the only state to carry is the grant counter
    STATE = (("grants", "grants_issued", SCALAR),)

    def __init__(self, name: str, sim: Simulator, clock: Clock, wires: MsSignals):
        super().__init__(name, sim)
        self.clock = clock
        self._posedge = clock.posedge_event
        self.wires = wires
        self.grants_issued = 0
        self.thread(self.run)

    def run(self):
        wires = self.wires
        owner = wires.owner
        want = wires.want
        posedge = self._posedge
        while True:
            yield posedge
            if owner.read() != -1:
                continue
            for index, wanting in enumerate(want):
                if wanting.read():
                    owner.write(index)
                    self.grants_issued += 1
                    break


class MsSlaveModule(Module):
    """A memory slave with configurable wait states."""

    STATE = (
        ("memory", "memory", INT_KEYED),
        ("reads", "reads", SCALAR),
        ("writes", "writes", SCALAR),
    )

    def __init__(
        self,
        index: int,
        sim: Simulator,
        clock: Clock,
        wires: MsSignals,
        wait_states: int = 0,
    ):
        super().__init__(f"slave{index}", sim)
        self.index = index
        self.clock = clock
        self._posedge = clock.posedge_event
        self.wires = wires
        self.wait_states = wait_states
        self.memory: Dict[int, int] = {}
        self.reads = 0
        self.writes = 0

    # Called by masters through the bus (function-call interface, the
    # way the SystemC bus example's slaves are invoked).
    def access(self, address: int, data: int | None) -> int:
        if data is None:
            self.reads += 1
            return self.memory.get(address, 0)
        self.writes += 1
        self.memory[address] = data
        return data


#: the monitor-facing signal namespace of a Master/Slave top
#: (``repro.models.master_slave.properties`` writes its PSL over it)
MS_LETTER = LetterDeclaration(
    ("bus_free", "wires.owner == -1"),
    each(
        "i", "n_masters",
        ("want{i}", "wires.want[i]"),
        ("owner{i}", "wires.owner == i"),
        ("transferring{i}", "wires.transferring[i]"),
        ("blocking{i}", "masters[i].blocking"),
        ("done{i}", "masters[i].done"),
    ),
    each("j", "n_slaves", ("slave{j}_busy", "wires.slave_busy[j]")),
)
