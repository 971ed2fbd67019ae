"""Scenario driving for the Master/Slave bus.

Sequence-driven stimulus and scoreboard binding for the Table 2 model:

* :class:`MsSequenceMaster` -- a master that executes
  :class:`~repro.scenarios.sequences.SequenceItem` stimulus instead of
  free-running random traffic.  Blocking masters move the item as a
  ``BLOCKING_BURST`` burst, non-blocking masters move one word --
  exactly the two modes of the paper's Section 4.1 bus -- and, unlike
  the free-running master, capture read data so the scoreboard can
  check payload integrity, not just protocol shape.
* :class:`FaultyMsSlave` -- a slave with an injectable read-corruption
  defect (:class:`~repro.scenarios.scoreboard.FaultPlan`), used to
  prove the scoreboard detects divergence.
* :class:`MsScenarioSystem` -- clock + arbiter + sequence masters +
  slaves, exposing the canonical property namespace of
  :mod:`.properties` so assertion monitors bind unchanged.
* :class:`MsReferenceAdapter` -- replays every completed transaction
  on the *verified ASM model* (request / grant / start_transfer /
  transfer_word... / release) and keeps a golden memory.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from ...asm.lower import ReplayScript, ReplayStep
from ...scenarios.random_ import ScenarioRng
from ...scenarios.scoreboard import (
    DivergenceKind,
    FaultPlan,
    Mismatch,
    ReferenceAdapter,
    ScenarioSystem,
    SequenceMaster,
)
from ...scenarios.sequences import Sequence, SequenceItem, StimulusContext
from ...sysc.bus import BusMode, BusStatus, Transaction, TxnIdAllocator
from ...sysc.clock import Clock
from ...sysc.kernel import Simulator
from ...sysc.state import LIST, SCALAR
from .asm_model import BLOCKING_BURST, MsArbiter, MsMaster, MsSlave, build_master_slave_model
from .systemc_model import MS_CLOCK_PERIOD_PS, MS_LETTER, MsArbiterModule, MsSignals, MsSlaveModule


class FaultyMsSlave(MsSlaveModule):
    """A slave whose data path corrupts reads from the ``nth`` read on
    (bit 0 flipped) -- the classic single-event-upset injection."""

    STATE = MsSlaveModule.STATE + (("reads_served", "reads_served", SCALAR),)

    def __init__(self, *args, corrupt_from_nth_read: int = 1, **kwargs):
        super().__init__(*args, **kwargs)
        self.corrupt_from_nth_read = corrupt_from_nth_read
        self.reads_served = 0

    def access(self, address: int, data: int | None) -> int:
        value = super().access(address, data)
        if data is None:
            self.reads_served += 1
            if self.reads_served >= self.corrupt_from_nth_read:
                return value ^ 0x1
        return value


class MsSequenceMaster(SequenceMaster):
    """A Master/Slave initiator executing a sequence of items."""

    STATE = SequenceMaster.STATE + (
        ("slave_index", "_slave_index", SCALAR),
        ("words", "_words", SCALAR),
        ("word", "_word", SCALAR),
        ("waits_left", "_waits_left", SCALAR),
        ("read_back", "_read_back", LIST),
        ("wait_cycles", "wait_cycles", SCALAR),
    )

    def __init__(
        self,
        index: int,
        blocking: bool,
        sim: Simulator,
        clock: Clock,
        wires: MsSignals,
        slaves: List[MsSlaveModule],
        items: Iterator[SequenceItem],
        txn_ids: TxnIdAllocator,
        drop_fault: Optional[FaultPlan] = None,
    ):
        super().__init__(index, sim, clock, wires, items, txn_ids)
        self.blocking = blocking
        self.slaves = slaves
        self.drop_fault = drop_fault
        self.wait_cycles = 0
        self._slave_index = 0
        self._words = 0
        self._word = 0
        self._waits_left = 0
        self._read_back: List[int] = []

    def _phase_fetch(self) -> Optional[bool]:
        item = self._next_item()
        if item is None:
            self.done = True
            self._phase = self._phase_done
            return None
        self._item = item
        self._idle_left = item.idle
        self._phase = self._phase_idle if item.idle else self._phase_post
        return None

    def _phase_idle(self) -> Optional[bool]:
        if self._idle_left > 0:
            self._idle_left -= 1
            return True
        self._phase = self._phase_post
        return None

    def _phase_post(self) -> Optional[bool]:
        item = self._item
        assert item is not None
        words = BLOCKING_BURST if self.blocking else 1
        self._words = words
        self._word = 0
        self._slave_index = item.target % len(self.slaves)
        offset = min(item.address_offset, 0x100 - words)
        payload = tuple(item.payload[:words])
        if item.is_write:
            payload += (0,) * (words - len(payload))
        self._payload = payload
        self._txn = Transaction(
            master=self.name,
            address=self._slave_index * 0x100 + offset,
            is_write=item.is_write,
            data=payload,
            mode=BusMode.BLOCKING if self.blocking else BusMode.NON_BLOCKING,
            start_cycle=self.clock.cycle_count,
            txn_id=self.txn_ids.allocate(),
        )
        self.issued += 1
        self.in_flight = True
        # request / grant handshake (same discipline as the
        # free-running MsMasterModule, so the property suite binds)
        self.wires.want[self.index].write(True)
        self._phase = self._phase_grant
        return True

    def _phase_grant(self) -> Optional[bool]:
        if self.wires.owner.read() != self.index:
            self.wait_cycles += 1
            return True
        self.wires.want[self.index].write(False)
        self._phase = self._phase_busy
        return None

    def _phase_busy(self) -> Optional[bool]:
        busy = self.wires.slave_busy[self._slave_index]
        if busy.read():
            self.wait_cycles += 1
            return True
        busy.write(True)
        self.wires.transferring[self.index].write(True)
        self._read_back = []
        self._word = 0
        self._waits_left = self.slaves[self._slave_index].wait_states
        self._phase = self._phase_transfer
        return None

    def _phase_transfer(self) -> Optional[bool]:
        if self._waits_left > 0:
            self._waits_left -= 1
            return True
        item = self._item
        txn = self._txn
        assert item is not None and txn is not None
        slave = self.slaves[self._slave_index]
        address = txn.address + self._word
        # repro: allow[race.shared-state] only the granted master reaches the data phase, so slave bookkeeping has one writer per delta
        value = slave.access(
            address, self._payload[self._word] if item.is_write else None
        )
        if not item.is_write:
            self._read_back.append(value)
        self.words_moved += 1
        self._word += 1
        if self._word < self._words:
            self._waits_left = slave.wait_states
        else:
            self._phase = self._phase_finish
        return True

    def _phase_finish(self) -> Optional[bool]:
        item = self._item
        txn = self._txn
        assert item is not None and txn is not None
        self.wires.transferring[self.index].write(False)
        self.wires.slave_busy[self._slave_index].write(False)
        self.wires.owner.write(-1)
        if not item.is_write:
            txn.data = tuple(self._read_back)
        txn.end_cycle = self.clock.cycle_count
        txn.status = BusStatus.OK
        self.completed += 1
        self.in_flight = False
        dropped = (
            self.drop_fault is not None
            and self.drop_fault.kind == "drop"
            and self.drop_fault.unit == self.index
            and self.completed == self.drop_fault.nth
        )
        if not dropped:
            self.records.append((txn, item))
        self._phase = self._phase_gap
        return None

    def _phase_gap(self) -> Optional[bool]:
        self._phase = self._phase_fetch
        return True


class MsScenarioSystem(ScenarioSystem):
    """Top level for one seeded Master/Slave scenario."""

    letter = MS_LETTER

    def __init__(
        self,
        n_blocking: int,
        n_non_blocking: int,
        n_slaves: int,
        sequence: Sequence,
        seed: int,
        fault: Optional[FaultPlan] = None,
        clock_period: int = MS_CLOCK_PERIOD_PS,
        address_span: int = 16,
    ):
        self.n_blocking = n_blocking
        self.n_non_blocking = n_non_blocking
        self.n_masters = n_blocking + n_non_blocking
        self.n_slaves = n_slaves
        self.fault = fault
        self.seed = seed
        self.address_span = address_span
        self.simulator = Simulator(
            f"ms_scenario_{n_blocking}b_{n_non_blocking}nb_{n_slaves}s_seed{seed}"
        )
        self.clock = Clock("bus_clk", clock_period, self.simulator)
        self.wires = MsSignals(self.simulator, self.n_masters, n_slaves)
        self.txn_ids = TxnIdAllocator()
        self.slaves: List[MsSlaveModule] = []
        for j in range(n_slaves):
            if fault is not None and fault.kind == "corrupt-read" and fault.unit == j:
                self.slaves.append(
                    FaultyMsSlave(
                        j, self.simulator, self.clock, self.wires,
                        wait_states=j % 2, corrupt_from_nth_read=fault.nth,
                    )
                )
            else:
                self.slaves.append(
                    MsSlaveModule(
                        j, self.simulator, self.clock, self.wires,
                        wait_states=j % 2,
                    )
                )
        root = ScenarioRng(seed, "ms")
        self.masters: List[MsSequenceMaster] = []
        for index in range(self.n_masters):
            blocking = index < n_blocking
            words = BLOCKING_BURST if blocking else 1
            ctx = StimulusContext(
                n_targets=n_slaves,
                min_burst=words,
                max_burst=words,
                address_span=address_span,
            )
            items = sequence.for_unit(index).items(root.derive(f"master{index}"), ctx)
            self.masters.append(
                MsSequenceMaster(
                    index, blocking, self.simulator, self.clock, self.wires,
                    self.slaves, items, self.txn_ids,
                    drop_fault=fault,
                )
            )
        self.arbiter = MsArbiterModule(
            "arbiter", self.simulator, self.clock, self.wires
        )

    def rebind_sequence(self, sequence: Sequence) -> None:
        """Swap every master's stimulus source for a new sequence.

        The checkpoint fork path: a restored system keeps its bus,
        memory and scoreboard history but plays a *different* goal set
        from here on.  Item streams re-derive from the system seed under
        a distinct rng scope so forks are deterministic yet uncorrelated
        with the original run's draws.
        """
        root = ScenarioRng(self.seed, "ms-fork")
        for index, master in enumerate(self.masters):
            words = BLOCKING_BURST if master.blocking else 1
            ctx = StimulusContext(
                n_targets=self.n_slaves,
                min_burst=words,
                max_burst=words,
                address_span=self.address_span,
            )
            master.rebind_items(
                sequence.for_unit(index).items(root.derive(f"master{index}"), ctx)
            )

    @property
    def blocking_flags(self) -> List[bool]:
        return [m.blocking for m in self.masters]

    # -- scoreboard plumbing (generic parts on ScenarioSystem) --------------

    def reference_adapter(self) -> "MsReferenceAdapter":
        return MsReferenceAdapter(
            self.n_blocking, self.n_non_blocking, self.n_slaves
        )

    def coverage_context(self):
        ctx = StimulusContext(
            n_targets=self.n_slaves, min_burst=1, max_burst=BLOCKING_BURST
        )
        return ctx, 0x100, 0

    def fsm_events(self) -> List[Tuple[str, str, tuple]]:
        """The run as coarse ASM events: requests (overlap-aware, see
        :meth:`ScenarioSystem._serialized_fsm_events` for the soundness
        rule) plus one atomic
        ``arbiter.grant_and_transfer(slave, is_write)`` per completed
        transaction -- the ASM's ``choose_min`` matches the SystemC
        arbiter's lowest-index grant, so attribution is consistent.
        """
        return self._serialized_fsm_events(
            lambda txn, owner: [
                (
                    "arbiter",
                    "grant_and_transfer",
                    (txn.address // 0x100, txn.is_write),
                )
            ]
        )


#: idle cycles that land a request inside another master's warm-up
#: transfer (shortest transfer: 2 words, zero wait states, ~4 cycles)
_WARMUP_OVERLAP_IDLE = 2


def lower_path_to_goals(
    calls,
    n_blocking: int,
    n_non_blocking: int,
    n_slaves: int,
) -> Optional[List["TransactionGoal"]]:
    """Lower a planned coarse-action FSM path to directed goals.

    Each ``arbiter.grant_and_transfer(slave, is_write)`` becomes one
    transaction goal for the master the ASM's ``choose_min`` would
    grant; request interleavings become idle timing:

    * requests planned before the first transfer in ascending master
      order post simultaneously (idle 0) -- the arbiter resolves the
      tie in exactly that order;
    * a plan that needs a *higher*-index master pending first is not
      realizable from reset (the lowest-index arbiter would grant it
      immediately), so the eventual winner gets a warm-up transaction
      and the earlier requesters aim into its transfer window;
    * masters the path leaves pending get a drain goal -- a sequence
      master only posts a request as part of driving a transaction.

    Returns None when the path uses actions outside the drivers'
    vocabulary.
    """
    from ...scenarios.directed import TransactionGoal

    n_masters = n_blocking + n_non_blocking
    goals: List[TransactionGoal] = []
    pending: List[int] = []
    request_idle: Dict[int, int] = {}
    requests_before_transfer: List[int] = []
    saw_transfer = False

    def burst_of(master: int) -> int:
        return BLOCKING_BURST if master < n_blocking else 1

    for call in calls:
        if call.machine.startswith("master") and call.action == "request":
            master = int(call.machine[len("master"):])
            if master >= n_masters or master in pending:
                return None
            pending.append(master)
            request_idle[master] = 0
            if not saw_transfer:
                requests_before_transfer.append(master)
        elif call.machine == "arbiter" and call.action == "grant_and_transfer":
            if not pending:
                return None
            slave, is_write = call.args
            if not 0 <= slave < n_slaves:
                return None
            winner = min(pending)
            if not saw_transfer:
                saw_transfer = True
                order = requests_before_transfer
                if order != sorted(order):
                    # unrealizable-from-reset interleaving: warm up the
                    # winner so the others can request mid-transfer
                    goals.append(
                        TransactionGoal(
                            unit=winner,
                            target=slave,
                            is_write=is_write,
                            burst=burst_of(winner),
                            idle=0,
                        )
                    )
                    for master in order:
                        if master != winner:
                            request_idle[master] = _WARMUP_OVERLAP_IDLE
            pending.remove(winner)
            goals.append(
                TransactionGoal(
                    unit=winner,
                    target=slave,
                    is_write=is_write,
                    burst=burst_of(winner),
                    idle=request_idle.pop(winner, 0),
                )
            )
        elif call.machine == "system":
            continue
        else:
            return None
    # masters left pending only requested: drain them through a real
    # transaction so the request actually gets posted
    for master in pending:
        goals.append(
            TransactionGoal(
                unit=master,
                target=0,
                is_write=False,
                burst=burst_of(master),
                idle=request_idle.get(master, 0),
            )
        )
    return goals


#: one completed Master/Slave transaction on the reference model
MS_REPLAY = ReplayScript(
    name="master_slave.transaction",
    roles=(("master", MsMaster), ("arbiter", MsArbiter)),
    params=("slave", "is_write", "words"),
    steps=(
        ReplayStep("master", "request"),
        ReplayStep("arbiter", "grant"),
        ReplayStep("master", "start_transfer", ("slave", "is_write")),
        ReplayStep("master", "transfer_word", repeat="words"),
        ReplayStep("arbiter", "release"),
    ),
)


class MsReferenceAdapter(ReferenceAdapter):
    """ASM-lockstep golden reference for the Master/Slave bus."""

    script = MS_REPLAY

    def __init__(self, n_blocking: int, n_non_blocking: int, n_slaves: int):
        self.n_blocking = n_blocking
        self.n_non_blocking = n_non_blocking
        self.n_slaves = n_slaves
        self.golden: Dict[int, int] = {}
        self.expected_words: Dict[int, Tuple[int, int]] = {}  # slave -> (reads, writes)
        self.protocol_diverged = False

    def build_reference(self):
        return build_master_slave_model(
            self.n_blocking, self.n_non_blocking, self.n_slaves
        )

    def begin(self) -> None:
        super().begin()
        self.golden = {}
        self.expected_words = {
            j: (0, 0) for j in range(self.n_slaves)
        }
        self.protocol_diverged = False

    def observe(self, txn: Transaction, item: SequenceItem) -> Tuple[Mismatch, ...]:
        assert self.lockstep is not None, "begin() not called"
        slave_index = txn.address // 0x100
        words = txn.burst_length
        diverged = self._replay_transaction(
            txn, (txn.master, "arbiter"), (slave_index, txn.is_write, words)
        )
        if diverged is not None:
            self.protocol_diverged = True
            return (diverged,)
        reads, writes = self.expected_words[slave_index]
        if txn.is_write:
            self.expected_words[slave_index] = (reads, writes + words)
            for word in range(words):
                self.golden[txn.address + word] = (
                    txn.data[word] if word < len(txn.data) else 0
                )
        else:
            self.expected_words[slave_index] = (reads + words, writes)
            expected = tuple(
                self.golden.get(txn.address + word, 0) for word in range(words)
            )
            if txn.data != expected:
                return (
                    Mismatch(
                        kind=DivergenceKind.DATA,
                        master=txn.master,
                        txn_id=txn.txn_id,
                        detail=(
                            f"readback diverged from golden memory at "
                            f"{txn.address:#06x} ({txn.describe()})"
                        ),
                        expected=repr(expected),
                        observed=repr(txn.data),
                        reference_state=self.lockstep.state_dump(),
                    ),
                )
        return ()

    def finish(
        self,
        completed: Mapping[str, int],
        recorded: Mapping[str, int],
    ) -> Iterable[Mismatch]:
        yield from self._dropped_mismatches(completed, recorded)
        if self.lockstep is not None and not self.protocol_diverged:
            model = self.lockstep.model
            slaves = sorted(model.machines_of(MsSlave), key=lambda m: m.index)
            for slave in slaves:
                reads, writes = self.expected_words.get(slave.index, (0, 0))
                if (slave.m_reads, slave.m_writes) != (reads, writes):
                    yield Mismatch(
                        kind=DivergenceKind.COUNTER,
                        master=slave.name,
                        txn_id=-1,
                        detail="reference word counters diverged",
                        expected=f"reads={reads} writes={writes}",
                        observed=(
                            f"reads={slave.m_reads} writes={slave.m_writes}"
                        ),
                    )
