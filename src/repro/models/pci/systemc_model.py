"""The PCI bus as a clocked SystemC simulation model.

The hand-translated counterpart of :mod:`.asm_model` (the paper
translates the verified ASM design to SystemC through rules R1-R3 and
then simulates it with the compiled assertion monitors).  Modules:

* :class:`PciArbiterModule` -- REQ#/GNT# pairs per master, lowest-index
  priority, *hidden arbitration* (re-arbitrates while a transaction is
  still running),
* :class:`PciMasterModule`  -- issues memory read/write transactions
  with seeded pseudo-random idle gaps, burst lengths and addresses;
  honours STOP# by backing off and retrying,
* :class:`PciTargetModule`  -- positive address decode (DEVSEL# within
  its configured decode latency), data phases (TRDY#), and seeded
  random retry injection (STOP#),
* :class:`PciSystemModel`   -- wires everything, exposes the canonical
  signal namespace of :mod:`.properties` for the assertion monitors
  (declared once as :data:`PCI_LETTER`).

The model is cycle-based: every module owns one thread clocked on the
shared 33 MHz clock's posedge; monitors see the state the negedge
shows.
"""

from __future__ import annotations

import random
from typing import List, Optional

from ...abv.letters import LetterDeclaration, each
from ...sysc.bus import BusStatistics, Transaction, BusMode, BusStatus, TxnIdAllocator
from ...sysc.clock import Clock
from ...sysc.kernel import Simulator
from ...sysc.module import Module
from ...sysc.signal import Signal
from .protocol import (
    DEVSEL_TIMEOUT_CYCLES,
    MAX_BURST_LENGTH,
    PCI_CLOCK_PERIOD_PS,
    PciCommand,
)


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

    def checkpoint_state(self) -> dict:
        """Snapshot of the arbiter's inter-cycle state."""
        return {"grant": self._grant, "grants_issued": self.grants_issued}

    def restore_state(self, doc: dict) -> None:
        """Adopt a :meth:`checkpoint_state` document."""
        self._grant = doc["grant"]
        self.grants_issued = doc["grants_issued"]


class PciMasterModule(Module):
    """A PCI initiator issuing pseudo-random transactions."""

    def __init__(
        self,
        index: int,
        sim: Simulator,
        clock: Clock,
        wires: PciSignals,
        n_targets: int,
        seed: int,
        max_idle: int = 3,
        txn_ids: TxnIdAllocator | None = None,
    ):
        super().__init__(f"master{index}", sim)
        self.index = index
        self.clock = clock
        self._posedge = clock.posedge_event
        self.wires = wires
        self.n_targets = n_targets
        self.random = random.Random(seed)
        self.max_idle = max_idle
        self.txn_ids = txn_ids or TxnIdAllocator()
        self.transactions: List[Transaction] = []
        self.retries = 0
        self.words_moved = 0
        #: canonical "in data phase" flag for the monitors
        self.data_flag = Signal(False, f"master{index}_data", sim)
        self.idle_flag = Signal(True, f"master{index}_idle", sim)
        self.thread(self.run)

    def run(self):
        wires = self.wires
        while True:
            # idle gap
            for _ in range(self.random.randrange(1, self.max_idle + 1)):
                yield self._posedge
            target = self.random.randrange(self.n_targets)
            burst = self.random.randint(1, MAX_BURST_LENGTH)
            command = (
                PciCommand.MEM_WRITE
                if self.random.random() < 0.5
                else PciCommand.MEM_READ
            )
            transaction = Transaction(
                master=self.name,
                address=0x1000 * (target + 1),
                is_write=command.is_write,
                data=tuple(range(burst)),
                mode=BusMode.BLOCKING,
                start_cycle=self.clock.cycle_count,
                txn_id=self.txn_ids.allocate(),
            )
            completed = False
            while not completed:
                completed = yield from self._attempt(target, burst, command)
                if not completed:
                    self.retries += 1
                    # back off a little before retrying
                    for _ in range(self.random.randrange(1, 3)):
                        yield self._posedge
            transaction.end_cycle = self.clock.cycle_count
            transaction.status = BusStatus.OK
            self.transactions.append(transaction)

    def _attempt(self, target: int, burst: int, command: PciCommand):
        """One transaction attempt; returns False when STOP#-ed."""
        wires = self.wires
        self.idle_flag.write(False)
        # REQ# until granted
        wires.req[self.index].write(True)
        while not wires.gnt[self.index].read():
            yield self._posedge
        # wait for bus idle -- and for any draining STOP# of the chosen
        # target (its STOP# belongs to the previous transaction; a new
        # address phase must start clean)
        while (
            wires.frame.read()
            or wires.owner.read() != -1
            or wires.stop[target].read()
        ):
            yield self._posedge
        # address phase
        wires.req[self.index].write(False)
        wires.frame.write(True)
        wires.owner.write(self.index)
        wires.addr.write(target)
        wires.command.write(command)
        yield self._posedge
        # IRDY# and data phases
        wires.irdy.write(True)
        self.data_flag.write(True)
        words_left = burst
        cycles_waited = 0
        while words_left > 0:
            yield self._posedge
            if wires.stop[target].read():
                # Target requested stop: back off (retry).
                yield from self._release(aborted=True)
                return False
            if wires.trdy[target].read():
                words_left -= 1
                self.words_moved += 1
                cycles_waited = 0
                if words_left == 0:
                    wires.frame.write(False)  # last data phase
            else:
                cycles_waited += 1
                if cycles_waited > 16:  # defensive: no livelock
                    yield from self._release(aborted=True)
                    return False
        yield self._posedge
        yield from self._release(aborted=False)
        return True

    def _release(self, aborted: bool):
        wires = self.wires
        wires.frame.write(False)
        wires.irdy.write(False)
        wires.owner.write(-1)
        wires.addr.write(-1)
        self.data_flag.write(False)
        self.idle_flag.write(True)
        yield self._posedge


class PciTargetModule(Module):
    """A PCI target with configurable decode latency and retry injection.

    Runs as an explicit phase machine (idle / decode / respond / serve /
    stop_wait / stop_tail): every posedge wake dispatches handlers keyed
    by ``self._phase`` until one consumes the cycle, so the whole
    response state — including the decode countdown and a draining
    STOP# — lives in attributes and snapshots via
    :meth:`checkpoint_state`.  The RNG stream (one draw at decode end,
    one per served cycle while FRAME# is high) is wake-for-wake
    identical to the original nested-loop formulation.
    """

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
        self._phase = "idle"
        self._decode_left = 0
        self._from_serve = False
        self.thread(self.run)

    def run(self):
        posedge = self._posedge
        while True:
            yield posedge
            self._dispatch()

    def _dispatch(self) -> None:
        """Run phase handlers until one consumes the wake."""
        handlers = self._PHASES
        # repro: allow[race.wait-free-loop] bounded phase dispatch: every handler either consumes the wake or advances the phase, so this terminates within one cycle
        while handlers[self._phase](self) is None:
            pass

    def _phase_idle(self) -> Optional[bool]:
        wires = self.wires
        if not (wires.frame.read() and wires.addr.read() == self.index):
            return True
        self._decode_left = self.decode_latency - 1
        self._phase = "decode"
        return None

    def _phase_decode(self) -> Optional[bool]:
        if self._decode_left > 0:
            self._decode_left -= 1
            return True
        if self.random.random() < self.stop_probability:
            self._stop_writes()
            self._from_serve = False
            self._phase = "stop_wait"
            return None  # STOP# hold checks FRAME# in this same cycle
        self.wires.devsel[self.index].write(True)
        self.claims += 1
        self._phase = "respond"
        return True

    def _phase_respond(self) -> Optional[bool]:
        self.wires.trdy[self.index].write(True)
        self._phase = "serve_entry"
        return None

    def _phase_serve_entry(self) -> Optional[bool]:
        """First service cycle: no disconnect draw before the first wait."""
        wires = self.wires
        if wires.frame.read() or wires.irdy.read():
            self._phase = "serve"
            return True
        wires.devsel[self.index].write(False)
        wires.trdy[self.index].write(False)
        self._phase = "idle"
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
            self._phase = "stop_wait"
            return None
        if wires.frame.read() or wires.irdy.read():
            return True
        wires.devsel[self.index].write(False)
        wires.trdy[self.index].write(False)
        self._phase = "idle"
        return True

    def _phase_stop_wait(self) -> Optional[bool]:
        # hold STOP# until the initiator backs off
        if self.wires.frame.read():
            return True
        self._phase = "stop_tail"
        return True

    def _phase_stop_tail(self) -> Optional[bool]:
        self.wires.stop[self.index].write(False)
        if self._from_serve:
            # the original loop's post-break writes (same-value, but
            # preserved for update-request parity with the generator)
            self.wires.devsel[self.index].write(False)
            self.wires.trdy[self.index].write(False)
        self._phase = "idle"
        return True

    def _stop_writes(self) -> None:
        wires = self.wires
        wires.devsel[self.index].write(False)
        wires.trdy[self.index].write(False)
        wires.stop[self.index].write(True)
        self.stops_issued += 1

    _PHASES = {
        "idle": _phase_idle,
        "decode": _phase_decode,
        "respond": _phase_respond,
        "serve_entry": _phase_serve_entry,
        "serve": _phase_serve,
        "stop_wait": _phase_stop_wait,
        "stop_tail": _phase_stop_tail,
    }

    # -- checkpoint protocol ------------------------------------------------

    def checkpoint_state(self) -> dict:
        """Snapshot including the exact RNG stream position."""
        version, internal, gauss = self.random.getstate()
        return {
            "phase": self._phase,
            "decode_left": self._decode_left,
            "from_serve": self._from_serve,
            "claims": self.claims,
            "stops_issued": self.stops_issued,
            "random": [version, list(internal), gauss],
        }

    def restore_state(self, doc: dict) -> None:
        """Adopt a :meth:`checkpoint_state` document."""
        self._phase = doc["phase"]
        self._decode_left = doc["decode_left"]
        self._from_serve = doc["from_serve"]
        self.claims = doc["claims"]
        self.stops_issued = doc["stops_issued"]
        version, internal, gauss = doc["random"]
        self.random.setstate((version, tuple(internal), gauss))


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


class PciSystemModel:
    """Top level: clock + wires + arbiter + masters + targets."""

    letter = PCI_LETTER

    def __init__(
        self,
        n_masters: int,
        n_targets: int,
        seed: int = 2005,
        clock_period: int = PCI_CLOCK_PERIOD_PS,
        stop_probability: float = 0.05,
    ):
        self.n_masters = n_masters
        self.n_targets = n_targets
        self.simulator = Simulator(f"pci_{n_masters}m_{n_targets}s")
        self.clock = Clock("pci_clk", clock_period, self.simulator)
        self.wires = PciSignals(self.simulator, n_masters, n_targets)
        self.txn_ids = TxnIdAllocator()
        self.arbiter = PciArbiterModule(
            "arbiter", self.simulator, self.clock, self.wires
        )
        self.masters = [
            PciMasterModule(
                i, self.simulator, self.clock, self.wires, n_targets, seed + i,
                txn_ids=self.txn_ids,
            )
            for i in range(n_masters)
        ]
        self.targets = [
            PciTargetModule(
                j,
                self.simulator,
                self.clock,
                self.wires,
                seed + 100 + j,
                decode_latency=1 + (j % (DEVSEL_TIMEOUT_CYCLES - 1)),
                stop_probability=stop_probability,
            )
            for j in range(n_targets)
        ]
        self.statistics = BusStatistics()

    def run_cycles(self, cycles: int) -> None:
        self.simulator.run(self.clock.period * cycles)

    def collect_statistics(self) -> BusStatistics:
        stats = BusStatistics()
        for master in self.masters:
            for transaction in master.transactions:
                stats.record(transaction)
        stats.arbitration_rounds = self.arbiter.grants_issued
        self.statistics = stats
        return stats
