"""Scoreboard divergence paths: faults must produce mismatches, clean
designs must not, and everything must reproduce from its seed."""

import threading
from dataclasses import replace

import pytest

from repro.asm.machine import ActionCall
from repro.dispatch import HttpHost, ShardDispatcher
from repro.dispatch.worker import start_worker
from repro.models.master_slave.scenario import MsReferenceAdapter, MsScenarioSystem
from repro.models.pci.scenario import PciReferenceAdapter, PciScenarioSystem
from repro.scenarios import scoreboard
from repro.scenarios.references import REFERENCES, ReferencePool
from repro.scenarios.regression import RegressionRunner, build_specs
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


def _fresh_state(adapter):
    """The full state a freshly built, initialized reference has."""
    model = adapter.build_reference()
    model.execute(ActionCall("system", "init"))
    return model.full_state()


class TestReferencePool:
    """One armed reference per (adapter class, topology), checked out
    by one check at a time and re-armed by restore."""

    @pytest.fixture
    def pool(self, monkeypatch):
        """A fresh process pool, so a key holds only what a test made."""
        pool = ReferencePool()
        monkeypatch.setattr(scoreboard, "REFERENCES", pool)
        return pool

    def test_concurrent_checkouts_of_one_key_get_distinct_models(self):
        pool = ReferencePool()
        barrier = threading.Barrier(2, timeout=30)
        held = []

        def check_out():
            reference = pool.checkout(MsReferenceAdapter(1, 1, 2))
            held.append(reference)
            barrier.wait()  # both hold theirs at once
            pool.checkin(reference)

        threads = [threading.Thread(target=check_out) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        first, second = held
        assert first.key == second.key
        assert first.model is not second.model
        assert first.replay is not second.replay
        # both went back; the next two checkouts reuse them
        again = {id(pool.checkout(MsReferenceAdapter(1, 1, 2)).model) for _ in range(2)}
        assert again == {id(first.model), id(second.model)}

    @pytest.mark.parametrize(
        "make,fault",
        [
            (ms_system, FaultPlan("corrupt-read", unit=0, nth=2)),
            (ms_system, FaultPlan("drop", unit=1, nth=2)),
            (pci_system, FaultPlan("corrupt-read", unit=0, nth=2)),
            (pci_system, FaultPlan("drop", unit=1, nth=2)),
        ],
        ids=["ms-corrupt-read", "ms-drop", "pci-corrupt-read", "pci-drop"],
    )
    def test_a_faulty_check_leaves_a_reference_that_rearms_fresh(self, pool, make, fault):
        system = make(fault=fault)
        adapter = system.reference_adapter()
        report = Scoreboard(adapter, "fault").check(
            system.records(), system.completed_counts()
        )
        assert not report.ok
        dirty = adapter.lockstep.model
        fresh = _fresh_state(adapter)
        if make is ms_system:
            # the slaves' word counters moved (a PCI replay ends every
            # transaction back at idle)
            assert dirty.full_state() != fresh
        again = system.reference_adapter()
        again.begin()
        assert again.lockstep.model is dirty
        assert dirty.full_state() == fresh

    @pytest.mark.parametrize(
        "make,address,good",
        [
            (lambda: MsReferenceAdapter(1, 1, 2), 0x100, "master1"),
            (lambda: PciReferenceAdapter(2, 2), 0x2000, "master1"),
        ],
        ids=["master_slave", "pci"],
    )
    def test_a_protocol_divergence_rearms_fresh(self, pool, make, address, good):
        adapter = make()
        item = SequenceItem(target=1, is_write=True, burst=1, address_offset=0,
                            payload=(9,))
        valid, ghost = (
            Transaction(
                master=master, address=address, is_write=True, data=(9,),
                mode=BusMode.NON_BLOCKING, start_cycle=4 * n, end_cycle=4 * n + 2,
                txn_id=n,
            )
            for n, master in enumerate((good, "master7"))
        )
        report = Scoreboard(adapter, "ghost").check([(valid, item), (ghost, item)])
        assert [m.kind for m in report.mismatches] == [DivergenceKind.PROTOCOL]
        # the ghost re-armed the reference mid-check
        assert adapter.lockstep.model.full_state() == _fresh_state(adapter)
        again = make()
        again.begin()
        assert again.lockstep.model is adapter.lockstep.model
        assert again.lockstep.model.full_state() == _fresh_state(adapter)

    def test_the_pool_stays_bounded_under_adapter_subclasses(self):
        pool = ReferencePool()
        n_classes = pool.MAX_KEYS + 3
        for n in range(n_classes):
            subclass = type(f"Sub{n}", (MsReferenceAdapter,), {})
            taken = [pool.checkout(subclass(1, 1, 2)) for _ in range(pool.PER_KEY + 1)]
            for reference in taken:
                pool.checkin(reference)
        assert len(pool._free) == pool.MAX_KEYS
        assert {len(free) for free in pool._free.values()} == {pool.PER_KEY}
        # the least recently used keys went first
        assert [key[0].__name__ for key in pool._free][0] == "Sub3"

    def test_the_process_pool_is_bounded(self):
        assert len(REFERENCES._free) <= REFERENCES.MAX_KEYS
        assert all(len(free) <= REFERENCES.PER_KEY for free in REFERENCES._free.values())

    def test_an_embedded_worker_checks_concurrent_runs_of_one_topology(
        self, monkeypatch
    ):
        """Two ``/run``s in flight on one in-process worker check
        scenarios of one topology at once, on its handler threads, each
        on its own reference, and reach the serial digest."""
        specs = [
            replace(spec, topology=(1, 1, 2))
            for spec in build_specs(models=("master_slave",), count=4, cycles=200)
        ]
        serial = RegressionRunner(specs, workers=1).run()
        barrier = threading.Barrier(2, timeout=60)
        first_taken = {}
        checkout = REFERENCES.checkout

        def checkout_in_step(adapter):
            reference = checkout(adapter)
            thread = threading.get_ident()
            if thread not in first_taken:
                # each handler thread's first check waits for the other's
                first_taken[thread] = reference.model
                barrier.wait()
            return reference

        monkeypatch.setattr(REFERENCES, "checkout", checkout_in_step)
        handle = start_worker()
        try:
            hosts = [HttpHost(handle.address, name=name) for name in ("a", "b")]
            outcome = ShardDispatcher(specs, shards=2, hosts=hosts).run()
        finally:
            handle.stop()
        assert outcome.report.digest() == serial.digest()
        assert len(first_taken) == 2
        first, second = first_taken.values()
        assert first is not second
