"""Scenario driving for the PCI bus.

Sequence-driven stimulus and scoreboard binding for the Table 1 model:

* :class:`PciSequenceMaster` -- an initiator executing
  :class:`~repro.scenarios.sequences.SequenceItem` stimulus through
  the full REQ#/GNT#/FRAME#/IRDY# protocol, including STOP# back-off
  and retry.  The payload the item carries is what the master reports
  having moved, so the scoreboard can check payload integrity end to
  end; a ``corrupt-read`` fault models a data-path defect between the
  bus and the master's completion record.
* :class:`PciScenarioSystem` -- clock + arbiter + sequence masters +
  the unmodified :class:`~.systemc_model.PciTargetModule` targets,
  exposing the canonical property namespace for assertion monitors.
* :class:`PciReferenceAdapter` -- replays each completed transaction
  on the verified PCI ASM model: request, hidden arbitration
  (update_m_req/grant), address phase, target response, all data
  phases, and the turnaround.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

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
from ...sysc.signal import Signal
from ...sysc.state import SCALAR
from .asm_model import PciArbiter, PciMaster, PciTarget, build_pci_model
from .protocol import MAX_BURST_LENGTH, PCI_CLOCK_PERIOD_PS, PciCommand
from .systemc_model import PCI_LETTER, PciArbiterModule, PciSignals, PciTargetModule


class PciSequenceMaster(SequenceMaster):
    """A PCI initiator executing a sequence of items.

    Like :class:`~repro.models.master_slave.scenario.MsSequenceMaster`,
    a phase machine: the whole suspended protocol (including mid-burst
    data phases and STOP# back-off) lives in declared registers.
    """

    STATE = SequenceMaster.STATE + (
        ("target", "_target", SCALAR),
        ("burst", "_burst", SCALAR),
        ("words_left", "_words_left", SCALAR),
        ("waited", "_waited", SCALAR),
        ("backoff_left", "_backoff_left", SCALAR),
        ("reads_completed", "reads_completed", SCALAR),
        ("retries", "retries", SCALAR),
    )

    def __init__(
        self,
        index: int,
        sim: Simulator,
        clock: Clock,
        wires: PciSignals,
        n_targets: int,
        items: Iterator[SequenceItem],
        txn_ids: TxnIdAllocator,
        fault: Optional[FaultPlan] = None,
    ):
        super().__init__(index, sim, clock, wires, items, txn_ids)
        self.n_targets = n_targets
        self.fault = fault
        self.reads_completed = 0
        self.retries = 0
        self._target = 0
        self._burst = 0
        self._words_left = 0
        self._waited = 0
        self._backoff_left = 0
        self.data_flag = Signal(False, f"master{index}_data", sim)
        self.idle_flag = Signal(True, f"master{index}_idle", sim)

    def _phase_fetch(self) -> Optional[bool]:
        item = self._next_item()
        if item is None:
            self.done = True
            self._phase = self._phase_done
            return None
        self._item = item
        self._idle_left = item.idle
        self._phase = self._phase_idle if item.idle else self._phase_build
        return None

    def _phase_idle(self) -> Optional[bool]:
        if self._idle_left > 0:
            self._idle_left -= 1
            return True
        self._phase = self._phase_build
        return None

    def _phase_build(self) -> Optional[bool]:
        item = self._item
        assert item is not None
        self._target = item.target % self.n_targets
        burst = max(1, min(item.burst, MAX_BURST_LENGTH))
        self._burst = burst
        payload = tuple(item.payload[:burst])
        payload += (0,) * (burst - len(payload))
        self._payload = payload
        self._txn = Transaction(
            master=self.name,
            address=0x1000 * (self._target + 1) + item.address_offset,
            is_write=item.is_write,
            data=payload,
            mode=BusMode.BLOCKING,
            start_cycle=self.clock.cycle_count,
            txn_id=self.txn_ids.allocate(),
        )
        self.issued += 1
        self.in_flight = True
        self._phase = self._phase_req
        return None

    def _phase_req(self) -> Optional[bool]:
        """Start one attempt: same signal discipline as the free-running
        :class:`~.systemc_model.PciMasterModule`, so the Table 1
        property suite binds to scenario runs unchanged."""
        self.idle_flag.write(False)
        self.wires.req[self.index].write(True)
        self._phase = self._phase_gnt
        return None

    def _phase_gnt(self) -> Optional[bool]:
        if not self.wires.gnt[self.index].read():
            return True
        self._phase = self._phase_bus_wait
        return None

    def _phase_bus_wait(self) -> Optional[bool]:
        wires = self.wires
        if (
            wires.frame.read()
            or wires.owner.read() != -1
            or wires.stop[self._target].read()
        ):
            return True
        wires.req[self.index].write(False)
        wires.frame.write(True)
        wires.owner.write(self.index)
        wires.addr.write(self._target)
        wires.command.write(
            PciCommand.MEM_WRITE if self._item.is_write else PciCommand.MEM_READ
        )
        self._phase = self._phase_data_start
        return True

    def _phase_data_start(self) -> Optional[bool]:
        self.wires.irdy.write(True)
        self.data_flag.write(True)
        self._words_left = self._burst
        self._waited = 0
        self._phase = self._phase_data
        return True

    def _phase_data(self) -> Optional[bool]:
        wires = self.wires
        if wires.stop[self._target].read():
            self._release_writes()
            self._backoff_left = 2
            self._phase = self._phase_backoff
            return True  # STOP#-ed: this wake is the release cycle
        if wires.trdy[self._target].read():
            self._words_left -= 1
            self.words_moved += 1
            self._waited = 0
            if self._words_left == 0:
                wires.frame.write(False)
                self._phase = self._phase_turnaround
            return True
        self._waited += 1
        if self._waited > 16:  # defensive: no livelock
            self._release_writes()
            self._backoff_left = 2
            self._phase = self._phase_backoff
        return True

    def _phase_backoff(self) -> Optional[bool]:
        if self._backoff_left == 2:
            self.retries += 1
        if self._backoff_left > 0:
            self._backoff_left -= 1
            return True
        self._phase = self._phase_req
        return None

    def _phase_turnaround(self) -> Optional[bool]:
        self._release_writes()
        self._phase = self._phase_complete
        return True

    def _phase_complete(self) -> Optional[bool]:
        item = self._item
        txn = self._txn
        assert item is not None and txn is not None
        txn.end_cycle = self.clock.cycle_count
        txn.status = BusStatus.OK
        self.completed += 1
        if not item.is_write:
            self.reads_completed += 1
        self.in_flight = False
        # corrupt-read matches the MS fault contract: the data path
        # flips a bit on reads from the nth one onward
        corrupt = (
            not item.is_write
            and self.fault is not None
            and self.fault.kind == "corrupt-read"
            and self.fault.unit == self.index
            and self.reads_completed >= self.fault.nth
        )
        if corrupt:
            txn.data = (self._payload[0] ^ 0x1,) + self._payload[1:]
        dropped = (
            self.fault is not None
            and self.fault.kind == "drop"
            and self.fault.unit == self.index
            and self.completed == self.fault.nth
        )
        if not dropped:
            self.records.append((txn, item))
        self._phase = self._phase_fetch
        return None

    def _release_writes(self) -> None:
        wires = self.wires
        wires.frame.write(False)
        wires.irdy.write(False)
        wires.owner.write(-1)
        wires.addr.write(-1)
        self.data_flag.write(False)
        self.idle_flag.write(True)


class PciScenarioSystem(ScenarioSystem):
    """Top level for one seeded PCI scenario."""

    letter = PCI_LETTER

    def __init__(
        self,
        n_masters: int,
        n_targets: int,
        sequence: Sequence,
        seed: int,
        fault: Optional[FaultPlan] = None,
        clock_period: int = PCI_CLOCK_PERIOD_PS,
        stop_probability: float = 0.05,
        address_span: int = 16,
    ):
        self.n_masters = n_masters
        self.n_targets = n_targets
        self.fault = fault
        self.seed = seed
        self.address_span = address_span
        self.simulator = Simulator(
            f"pci_scenario_{n_masters}m_{n_targets}s_seed{seed}"
        )
        self.clock = Clock("pci_clk", clock_period, self.simulator)
        self.wires = PciSignals(self.simulator, n_masters, n_targets)
        self.txn_ids = TxnIdAllocator()
        self.arbiter = PciArbiterModule(
            "arbiter", self.simulator, self.clock, self.wires
        )
        root = ScenarioRng(seed, "pci")
        ctx = StimulusContext(
            n_targets=n_targets,
            min_burst=1,
            max_burst=MAX_BURST_LENGTH,
            address_span=address_span,
        )
        self.masters = [
            PciSequenceMaster(
                i, self.simulator, self.clock, self.wires, n_targets,
                sequence.for_unit(i).items(root.derive(f"master{i}"), ctx),
                self.txn_ids, fault=fault,
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
                decode_latency=1 + (j % 3),
                stop_probability=stop_probability,
            )
            for j in range(n_targets)
        ]

    def rebind_sequence(self, sequence: Sequence) -> None:
        """Swap every master's stimulus source for a new sequence.

        The checkpoint fork path: a restored system keeps its bus,
        memory and scoreboard history but plays a *different* goal set
        from here on.  Item streams re-derive from the system seed under
        a distinct rng scope so forks are deterministic yet uncorrelated
        with the original run's draws.
        """
        root = ScenarioRng(self.seed, "pci-fork")
        ctx = StimulusContext(
            n_targets=self.n_targets,
            min_burst=1,
            max_burst=MAX_BURST_LENGTH,
            address_span=self.address_span,
        )
        for index, master in enumerate(self.masters):
            master.rebind_items(
                sequence.for_unit(index).items(root.derive(f"master{index}"), ctx)
            )

    # -- scoreboard plumbing (generic parts on ScenarioSystem) --------------

    def reference_adapter(self) -> "PciReferenceAdapter":
        return PciReferenceAdapter(self.n_masters, self.n_targets)

    def coverage_context(self):
        # PCI maps target t at page t+1 (protocol.target_address)
        ctx = StimulusContext(
            n_targets=self.n_targets, min_burst=1, max_burst=MAX_BURST_LENGTH
        )
        return ctx, 0x1000, 1

    def fsm_events(self) -> List[Tuple[str, str, tuple]]:
        """The run as coarse ASM events, one full transaction script per
        completed record: request (overlap-aware, see
        :meth:`ScenarioSystem._serialized_fsm_events` for the soundness
        rule -- ``update_m_req``'s lowest-index latch matches it),
        hidden arbitration, the address phase, the target's fused
        response, all data phases fused, and the target release.
        STOP#-ed attempts leave no completed record and therefore no
        events -- conservative, never false credit.
        """

        def transaction_events(txn, owner):
            target = txn.address // 0x1000 - 1
            return [
                ("arbiter", "update_m_req", ()),
                ("arbiter", "grant", ()),
                (
                    f"master{owner}",
                    "start_transaction",
                    (target, txn.burst_length),
                ),
                (f"target{target}", "respond", ()),
                (f"master{owner}", "run_data_phases", ()),
                (f"target{target}", "complete", ()),
            ]

        return self._serialized_fsm_events(transaction_events)


def lower_path_to_goals(
    calls, n_masters: int, n_targets: int
) -> Optional[List["TransactionGoal"]]:
    """Lower a planned coarse-action PCI FSM path to directed goals.

    ``master{i}.start_transaction(target, burst)`` names its initiator
    explicitly, so attribution is direct; arbitration and target
    bookkeeping actions (``update_m_req``/``grant``/``reclaim``,
    ``respond``/``complete``, ``run_data_phases``) are implied by the
    goal and skipped.  Paths that need target-initiated behaviour
    (``stop_transaction``/``handle_stop``/``clear_stop``) are not
    expressible as transaction goals -> None.  Transfer direction is
    not part of the PCI FSM vocabulary, so goals alternate write/read
    deterministically.
    """
    from ...scenarios.directed import TransactionGoal

    goals: List[TransactionGoal] = []
    pending: List[int] = []
    request_idle: Dict[int, int] = {}
    requests_seen = 0
    for call in calls:
        if call.machine.startswith("master"):
            master = int(call.machine[len("master"):])
            if master >= n_masters:
                return None
            if call.action == "request":
                if master in pending:
                    return None
                pending.append(master)
                # ascending same-cycle requests resolve in index order;
                # a later position only needs a later posting
                request_idle[master] = (
                    0 if pending == sorted(pending) else requests_seen
                )
                requests_seen += 1
            elif call.action == "start_transaction":
                target, burst = call.args
                if master not in pending or not 0 <= target < n_targets:
                    return None
                pending.remove(master)
                goals.append(
                    TransactionGoal(
                        unit=master,
                        target=target,
                        is_write=len(goals) % 2 == 0,
                        burst=max(1, min(burst, MAX_BURST_LENGTH)),
                        idle=request_idle.pop(master, 0),
                    )
                )
            elif call.action == "run_data_phases":
                continue
            else:
                return None  # handle_stop & fine-grained actions
        elif call.machine == "arbiter" and call.action in (
            "update_m_req",
            "grant",
            "reclaim",
        ):
            continue
        elif call.machine.startswith("target") and call.action in (
            "respond",
            "complete",
        ):
            continue
        elif call.machine == "system":
            continue
        else:
            return None
    for master in pending:
        goals.append(
            TransactionGoal(
                unit=master,
                target=0,
                is_write=False,
                burst=1,
                idle=request_idle.get(master, 0),
            )
        )
    return goals


#: one completed PCI transaction on the reference model
PCI_REPLAY = ReplayScript(
    name="pci.transaction",
    roles=(("master", PciMaster), ("arbiter", PciArbiter), ("target", PciTarget)),
    params=("target_index", "burst"),
    steps=(
        ReplayStep("master", "request"),
        ReplayStep("arbiter", "update_m_req"),
        ReplayStep("arbiter", "grant"),
        ReplayStep("master", "start_transaction", ("target_index", "burst")),
        ReplayStep("target", "respond"),
        ReplayStep("master", "assert_irdy"),
        ReplayStep("master", "data_phase", repeat="burst"),
        ReplayStep("master", "finish"),
        ReplayStep("target", "complete"),
    ),
)


class PciReferenceAdapter(ReferenceAdapter):
    """ASM-lockstep golden reference for the PCI bus."""

    script = PCI_REPLAY

    def __init__(self, n_masters: int, n_targets: int):
        self.n_masters = n_masters
        self.n_targets = n_targets

    def build_reference(self):
        return build_pci_model(self.n_masters, self.n_targets)

    def observe(self, txn: Transaction, item: SequenceItem) -> Tuple[Mismatch, ...]:
        assert self.lockstep is not None, "begin() not called"
        target_index = txn.address // 0x1000 - 1
        burst = txn.burst_length
        diverged = self._replay_transaction(
            txn,
            (txn.master, "arbiter", f"target{target_index}"),
            (target_index, burst),
        )
        if diverged is not None:
            return (diverged,)
        expected = tuple(item.payload[:burst])
        while len(expected) < burst:
            expected += (0,)
        if txn.data != expected:
            return (
                Mismatch(
                    kind=DivergenceKind.DATA,
                    master=txn.master,
                    txn_id=txn.txn_id,
                    detail=(
                        f"reported payload diverged from the driven stimulus "
                        f"({txn.describe()})"
                    ),
                    expected=repr(expected),
                    observed=repr(txn.data),
                    reference_state=self.lockstep.state_dump(),
                ),
            )
        return ()

    # finish() inherited: the default dropped-transaction accounting
    # is the whole end-of-run story for PCI (no target-side memory)
