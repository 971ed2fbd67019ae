"""The Master/Slave bus as a clocked SystemC simulation model.

Mirrors the SystemC 2.0 distribution's bus example the paper extends:
an arbiter, a shared bus with *blocking* (burst) and *non-blocking*
(single word) master interfaces, and memory slaves.  Blocking masters
move ``BLOCKING_BURST`` words back-to-back while holding the bus;
non-blocking masters move one word per grant and poll their status.

The module set exposes the canonical signal namespace of
:mod:`.properties` (declared once as :data:`MS_LETTER`) so the very
same directives verified at the ASM level bind as runtime assertion
monitors here.
"""

from __future__ import annotations

import random
from typing import Dict, List

from ...abv.letters import LetterDeclaration, each
from ...sysc.bus import BusMode, BusStatistics, BusStatus, Transaction, TxnIdAllocator
from ...sysc.clock import Clock
from ...sysc.kernel import Simulator
from ...sysc.module import Module
from ...sysc.signal import Signal
from ...sysc.state import INT_KEYED, SCALAR
from .asm_model import BLOCKING_BURST

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
    STATE = (("grants", "grants", SCALAR),)

    def __init__(self, name: str, sim: Simulator, clock: Clock, wires: MsSignals):
        super().__init__(name, sim)
        self.clock = clock
        self._posedge = clock.posedge_event
        self.wires = wires
        self.grants = 0
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
                    self.grants += 1
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


class MsMasterModule(Module):
    """A master in blocking or non-blocking mode."""

    #: simulation-level masters never park (the scenario masters do)
    done = False

    def __init__(
        self,
        index: int,
        blocking: bool,
        sim: Simulator,
        clock: Clock,
        wires: MsSignals,
        slaves: List[MsSlaveModule],
        seed: int,
        max_idle: int = 3,
        txn_ids: TxnIdAllocator | None = None,
    ):
        kind = "bmaster" if blocking else "nbmaster"
        super().__init__(f"{kind}{index}", sim)
        self.index = index
        self.blocking = blocking
        self.clock = clock
        self._posedge = clock.posedge_event
        self.wires = wires
        self.slaves = slaves
        self.random = random.Random(seed)
        self.max_idle = max_idle
        self.txn_ids = txn_ids or TxnIdAllocator()
        self.transactions: List[Transaction] = []
        self.words_moved = 0
        self.wait_cycles = 0
        self.thread(self.run)

    def run(self):
        wires = self.wires
        while True:
            for _ in range(self.random.randrange(1, self.max_idle + 1)):
                yield self._posedge
            slave_index = self.random.randrange(len(self.slaves))
            is_write = self.random.random() < 0.5
            burst = BLOCKING_BURST if self.blocking else 1
            transaction = Transaction(
                master=self.name,
                address=slave_index * 0x100 + self.random.randrange(16),
                is_write=is_write,
                data=tuple(range(burst)),
                mode=BusMode.BLOCKING if self.blocking else BusMode.NON_BLOCKING,
                start_cycle=self.clock.cycle_count,
                txn_id=self.txn_ids.allocate(),
            )
            # request
            wires.want[self.index].write(True)
            yield self._posedge
            while wires.owner.read() != self.index:
                self.wait_cycles += 1
                yield self._posedge
            wires.want[self.index].write(False)
            # wait until the slave is free (single-slave port here)
            slave = self.slaves[slave_index]
            while wires.slave_busy[slave_index].read():
                self.wait_cycles += 1
                yield self._posedge
            wires.slave_busy[slave_index].write(True)
            wires.transferring[self.index].write(True)
            # move the words (one per cycle, plus slave wait states)
            for word in range(burst):
                for _ in range(slave.wait_states):
                    yield self._posedge
                address = transaction.address + word
                # repro: allow[race.shared-state] only the granted master reaches the data phase, so slave bookkeeping has one writer per delta
                slave.access(address, word if is_write else None)
                self.words_moved += 1
                yield self._posedge
            # release
            wires.transferring[self.index].write(False)
            wires.slave_busy[slave_index].write(False)
            wires.owner.write(-1)
            transaction.end_cycle = self.clock.cycle_count
            transaction.status = BusStatus.OK
            self.transactions.append(transaction)
            yield self._posedge


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


class MsSystemModel:
    """Top level: clock + arbiter + mixed masters + slaves."""

    letter = MS_LETTER

    def __init__(
        self,
        n_blocking: int,
        n_non_blocking: int,
        n_slaves: int,
        seed: int = 2005,
        clock_period: int = MS_CLOCK_PERIOD_PS,
    ):
        self.n_blocking = n_blocking
        self.n_non_blocking = n_non_blocking
        self.n_masters = n_blocking + n_non_blocking
        self.n_slaves = n_slaves
        self.simulator = Simulator(
            f"ms_{n_blocking}b_{n_non_blocking}nb_{n_slaves}s"
        )
        self.clock = Clock("bus_clk", clock_period, self.simulator)
        self.wires = MsSignals(self.simulator, self.n_masters, n_slaves)
        self.txn_ids = TxnIdAllocator()
        self.slaves = [
            MsSlaveModule(
                j, self.simulator, self.clock, self.wires, wait_states=j % 2
            )
            for j in range(n_slaves)
        ]
        self.masters: List[MsMasterModule] = []
        index = 0
        for _ in range(n_blocking):
            self.masters.append(
                MsMasterModule(
                    index, True, self.simulator, self.clock, self.wires,
                    self.slaves, seed + index, txn_ids=self.txn_ids,
                )
            )
            index += 1
        for _ in range(n_non_blocking):
            self.masters.append(
                MsMasterModule(
                    index, False, self.simulator, self.clock, self.wires,
                    self.slaves, seed + index, txn_ids=self.txn_ids,
                )
            )
            index += 1
        self.arbiter = MsArbiterModule(
            "arbiter", self.simulator, self.clock, self.wires
        )

    @property
    def blocking_flags(self) -> List[bool]:
        return [m.blocking for m in self.masters]

    def run_cycles(self, cycles: int) -> None:
        self.simulator.run(self.clock.period * cycles)

    def collect_statistics(self) -> BusStatistics:
        stats = BusStatistics()
        for master in self.masters:
            for transaction in master.transactions:
                stats.record(transaction)
            stats.wait_cycles += master.wait_cycles
        stats.arbitration_rounds = self.arbiter.grants
        return stats
