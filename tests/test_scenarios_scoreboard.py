"""Scoreboard divergence paths: faults must produce mismatches, clean
designs must not, and everything must reproduce from its seed."""

import pytest

from repro.models.master_slave.scenario import MsReferenceAdapter, MsScenarioSystem
from repro.models.pci.scenario import PciReferenceAdapter, PciScenarioSystem
from repro.scenarios.scoreboard import (
    DivergenceKind,
    FaultPlan,
    Mismatch,
    Scoreboard,
)
from repro.scenarios.sequences import SequenceItem, sequence_for_profile
from repro.sysc.bus import BusMode, BusStatus, Transaction

SEQUENCE = sequence_for_profile("default")
CYCLES = 300


def ms_system(seed=7, fault=None):
    system = MsScenarioSystem(1, 2, 2, SEQUENCE, seed=seed, fault=fault)
    system.run_cycles(CYCLES)
    return system


def pci_system(seed=7, fault=None):
    system = PciScenarioSystem(2, 2, SEQUENCE, seed=seed, fault=fault)
    system.run_cycles(CYCLES)
    return system


class TestCleanDesigns:
    def test_master_slave_matches_asm_reference(self):
        report = ms_system().check()
        assert report.ok, report.summary()
        assert report.matches > 20
        assert report.words_checked > report.matches  # blocking bursts move >1 word
        assert report.replayed_calls > report.matches * 4

    def test_pci_matches_asm_reference(self):
        system = pci_system()
        report = system.check()
        assert report.ok, report.summary()
        assert report.matches > 20
        # STOP#-retried attempts never produce records, only retries
        assert sum(m.completed for m in system.masters) == len(system.records())

    def test_transactions_carry_correlation_fields(self):
        for txn, _ in ms_system().records():
            assert txn.txn_id >= 0
            assert txn.end_cycle >= txn.start_cycle >= 0
            assert txn.latency >= 0
            assert txn.status is BusStatus.OK
        ids = [txn.txn_id for txn, _ in ms_system().records()]
        assert len(ids) == len(set(ids))  # unique per system


class TestInjectedFaults:
    def test_ms_slave_corruption_is_detected(self):
        report = ms_system(fault=FaultPlan("corrupt-read", unit=0, nth=3)).check()
        assert not report.ok
        kinds = {m.kind for m in report.mismatches}
        assert DivergenceKind.DATA in kinds
        first = next(m for m in report.mismatches if m.kind is DivergenceKind.DATA)
        assert first.expected and first.observed and first.expected != first.observed
        assert "txn#" in first.describe()

    def test_ms_dropped_transaction_is_detected(self):
        report = ms_system(fault=FaultPlan("drop", unit=1, nth=2)).check()
        assert not report.ok
        kinds = {m.kind for m in report.mismatches}
        assert DivergenceKind.DROPPED in kinds
        dropped = next(
            m for m in report.mismatches if m.kind is DivergenceKind.DROPPED
        )
        assert dropped.master == "master1"

    def test_pci_corruption_is_detected(self):
        report = pci_system(fault=FaultPlan("corrupt-read", unit=0, nth=2)).check()
        assert not report.ok
        assert {m.kind for m in report.mismatches} == {DivergenceKind.DATA}

    def test_pci_dropped_transaction_is_detected(self):
        report = pci_system(fault=FaultPlan("drop", unit=1, nth=1)).check()
        assert not report.ok
        assert {m.kind for m in report.mismatches} == {DivergenceKind.DROPPED}

    def test_fault_reports_reproduce_from_seed(self):
        fault = FaultPlan("corrupt-read", unit=0, nth=3)
        first = ms_system(fault=fault).check("x")
        second = ms_system(fault=fault).check("x")
        assert not first.ok
        assert first.digest() == second.digest()
        assert [m.describe() for m in first.mismatches] == [
            m.describe() for m in second.mismatches
        ]

    def test_fault_plan_validation(self):
        with pytest.raises(ValueError):
            FaultPlan("meltdown")
        with pytest.raises(ValueError):
            FaultPlan("drop", nth=0)


class TestProtocolDivergence:
    def _observe(self, adapter, txn):
        adapter.begin()
        item = SequenceItem(target=0, is_write=txn.is_write, burst=1, address_offset=0)
        return list(adapter.observe(txn, item))

    def test_ms_rejects_transaction_to_unmapped_slave(self):
        adapter = MsReferenceAdapter(1, 1, 2)
        txn = Transaction(
            master="master0", address=5 * 0x100, is_write=True, data=(1, 2),
            mode=BusMode.BLOCKING, start_cycle=0, end_cycle=3, txn_id=0,
        )
        mismatches = self._observe(adapter, txn)
        assert [m.kind for m in mismatches] == [DivergenceKind.PROTOCOL]
        assert "rejected" in mismatches[0].observed
        assert mismatches[0].reference_state  # divergence context present

    def test_ms_rejects_short_blocking_burst(self):
        # blocking master0 must move BLOCKING_BURST words; a 1-word
        # record cannot replay (arbiter.release finds the master busy)
        adapter = MsReferenceAdapter(1, 1, 2)
        txn = Transaction(
            master="master0", address=0, is_write=True, data=(1,),
            mode=BusMode.BLOCKING, start_cycle=0, end_cycle=2, txn_id=0,
        )
        mismatches = self._observe(adapter, txn)
        assert [m.kind for m in mismatches] == [DivergenceKind.PROTOCOL]

    def test_ms_recovers_after_divergence(self):
        # a bad transaction must not poison checking of later good ones
        adapter = MsReferenceAdapter(1, 1, 2)
        bad = Transaction(
            master="master0", address=5 * 0x100, is_write=True, data=(1, 2),
            mode=BusMode.BLOCKING, start_cycle=0, end_cycle=3, txn_id=0,
        )
        good = Transaction(
            master="master1", address=0x100, is_write=True, data=(9,),
            mode=BusMode.NON_BLOCKING, start_cycle=4, end_cycle=6, txn_id=1,
        )
        item = SequenceItem(target=1, is_write=True, burst=1, address_offset=0,
                            payload=(9,))
        report = Scoreboard(adapter, "recovery").check(
            [(bad, item), (good, item)]
        )
        assert report.matches == 1
        assert len(report.mismatches) == 1

    def test_pci_rejects_unmapped_target(self):
        adapter = PciReferenceAdapter(1, 1)
        txn = Transaction(
            master="master0", address=0x5000, is_write=False, data=(0,),
            mode=BusMode.BLOCKING, start_cycle=0, end_cycle=9, txn_id=0,
        )
        adapter.begin()
        item = SequenceItem(target=4, is_write=False, burst=1, address_offset=0)
        mismatches = list(adapter.observe(txn, item))
        assert [m.kind for m in mismatches] == [DivergenceKind.PROTOCOL]
        assert "rejected" in mismatches[0].observed

    @pytest.mark.parametrize(
        "adapter,address,good",
        [
            (MsReferenceAdapter(1, 1, 2), 0x100, "master1"),
            (PciReferenceAdapter(2, 2), 0x2000, "master1"),
        ],
        ids=["master_slave", "pci"],
    )
    def test_unknown_master_is_a_divergence_not_a_crash(self, adapter, address, good):
        # a record naming a master the reference lacks diverges, names
        # that master, and leaves later records checked as usual
        item = SequenceItem(target=1, is_write=True, burst=1, address_offset=0,
                            payload=(9,))
        ghost, valid = (
            Transaction(
                master=master, address=address, is_write=True, data=(9,),
                mode=BusMode.NON_BLOCKING, start_cycle=4 * n, end_cycle=4 * n + 2,
                txn_id=n,
            )
            for n, master in enumerate(("master7", good))
        )
        report = Scoreboard(adapter, "ghost").check([(ghost, item), (valid, item)])
        assert report.matches == 1
        [mismatch] = report.mismatches
        assert mismatch.kind is DivergenceKind.PROTOCOL
        assert mismatch.master == "master7"
        assert "master7" in mismatch.observed and "master7" in mismatch.detail


class TestDeterminism:
    def test_same_seed_byte_identical_stream(self):
        assert (
            ms_system(seed=99).transaction_stream()
            == ms_system(seed=99).transaction_stream()
        )
        assert (
            pci_system(seed=99).transaction_stream()
            == pci_system(seed=99).transaction_stream()
        )

    def test_different_seed_different_stream(self):
        assert (
            ms_system(seed=1).transaction_stream()
            != ms_system(seed=2).transaction_stream()
        )

    def test_verdict_digest_is_stable(self):
        assert ms_system(seed=5).check("s").digest() == ms_system(seed=5).check("s").digest()
