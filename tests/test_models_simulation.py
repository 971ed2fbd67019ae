"""Simulation-level tests for both case studies (SystemC models + ABV).

Each model has one SystemC top, its scenario system; here it runs the
way ``simulate_abv`` runs it, driven by endless seeded random traffic.
"""

import pytest

from repro.abv import AbvHarness, FailureAction
from repro.psl import Verdict, build_monitor
from repro.models.master_slave import (
    BLOCKING_BURST,
    MsScenarioSystem,
    ms_invariant_properties,
    ms_timed_properties,
)
from repro.models.pci import PciScenarioSystem
from repro.models.pci.properties import (
    pci_cover_properties,
    pci_safety_properties,
)
from repro.scenarios import RandomTraffic
from repro.scenarios.scoreboard import ScenarioSystem
from repro.workbench import default_registry
from repro.workbench.registry import ModelRegistry


def pci_system(n_masters, n_targets, seed=2005, **options):
    return PciScenarioSystem(n_masters, n_targets, RandomTraffic(), seed, **options)


def run_pci(n_masters=2, n_targets=2, cycles=2000, seed=2005):
    system = pci_system(n_masters, n_targets, seed=seed)
    harness = AbvHarness(system.simulator, system.clock, system.letter)
    monitors = [
        build_monitor(d) for d in pci_safety_properties(n_masters, n_targets)
    ]
    harness.add_monitors(monitors)
    system.run_cycles(cycles)
    harness.finish()
    return system, harness, monitors


class TestPciSimulation:
    def test_transactions_complete(self):
        system, harness, _ = run_pci()
        stats = system.collect_statistics()
        assert stats.transactions > 10
        assert stats.words_moved >= stats.transactions

    def test_all_assertions_hold(self):
        system, harness, monitors = run_pci()
        failed = [m.name for m in monitors if m.verdict() is Verdict.FAILS]
        assert failed == []

    def test_assertions_are_not_vacuous(self):
        from repro.psl import SuffixImplicationMonitor

        system, harness, monitors = run_pci(cycles=3000)
        triggered = [
            m.triggered
            for m in monitors
            if isinstance(m, SuffixImplicationMonitor)
        ]
        assert any(t > 0 for t in triggered)

    def test_retries_happen_with_high_stop_probability(self):
        system = pci_system(2, 1, seed=11, stop_probability=0.4)
        system.run_cycles(3000)
        assert sum(m.retries for m in system.masters) > 0
        assert sum(t.stops_issued for t in system.targets) > 0

    def test_coverage_goals_hit(self):
        system = pci_system(2, 2, seed=5, stop_probability=0.3)
        harness = AbvHarness(system.simulator, system.clock, system.letter)
        covers = [build_monitor(d) for d in pci_cover_properties(2, 2)]
        harness.add_monitors(covers)
        system.run_cycles(6000)
        hits = {m.name: m.hits for m in covers}
        assert hits["cover_txn_0"] > 0
        assert hits["cover_txn_1"] > 0
        assert hits["cover_stop"] > 0

    def test_deterministic_with_seed(self):
        first, _, _ = run_pci(cycles=500, seed=42)
        second, _, _ = run_pci(cycles=500, seed=42)
        stats_a = first.collect_statistics()
        stats_b = second.collect_statistics()
        assert stats_a.transactions == stats_b.transactions
        assert stats_a.words_moved == stats_b.words_moved

    def test_different_seeds_differ(self):
        first, _, _ = run_pci(cycles=800, seed=1)
        second, _, _ = run_pci(cycles=800, seed=2)
        assert (
            first.collect_statistics().words_moved
            != second.collect_statistics().words_moved
        )

    def test_stop_action_halts_on_injected_violation(self):
        """Wire a deliberately wrong assertion; STOP must halt the run."""
        from repro.psl import parse_formula

        system = pci_system(1, 1, seed=3)
        harness = AbvHarness(system.simulator, system.clock, system.letter)
        wrong = build_monitor(parse_formula("never req0"), "wrong")
        harness.add_monitor(
            wrong, actions=[FailureAction.REPORT, FailureAction.STOP]
        )
        system.run_cycles(2000)
        assert system.simulator.stopped
        assert wrong.verdict() is Verdict.FAILS


def run_ms(n_blocking=1, n_non_blocking=1, n_slaves=2, cycles=2000, seed=2005):
    system = MsScenarioSystem(
        n_blocking, n_non_blocking, n_slaves, RandomTraffic(), seed
    )
    harness = AbvHarness(system.simulator, system.clock, system.letter)
    n_masters = n_blocking + n_non_blocking
    monitors = [
        build_monitor(d)
        for d in ms_invariant_properties(n_masters, n_slaves, include_handshake=False)
        + ms_timed_properties(n_masters, n_slaves, system.blocking_flags)
    ]
    harness.add_monitors(monitors)
    system.run_cycles(cycles)
    harness.finish()
    return system, harness, monitors


class TestMasterSlaveSimulation:
    def test_transfers_complete_in_both_modes(self):
        system, harness, _ = run_ms()
        blocking = [m for m in system.masters if m.blocking]
        non_blocking = [m for m in system.masters if not m.blocking]
        assert all(m.records for m in blocking)
        assert all(m.records for m in non_blocking)
        # blocking masters move BLOCKING_BURST words per transaction
        for master in blocking:
            transaction, _ = master.records[0]
            assert transaction.burst_length == BLOCKING_BURST

    def test_all_assertions_hold(self):
        system, harness, monitors = run_ms(2, 2, 3, cycles=3000)
        failed = [m.name for m in monitors if m.verdict() is Verdict.FAILS]
        assert failed == []

    def test_statistics_aggregate(self):
        system, harness, _ = run_ms(cycles=3000)
        stats = system.collect_statistics()
        assert stats.transactions > 0
        assert stats.arbitration_rounds >= stats.transactions
        assert "transactions" in stats.summary()

    def test_burst_atomicity_monitor_triggers(self):
        from repro.psl import SuffixImplicationMonitor

        system, harness, monitors = run_ms(cycles=3000)
        burst_monitors = [
            m
            for m in monitors
            if m.name.startswith("burst_atomic")
            and isinstance(m, SuffixImplicationMonitor)
        ]
        assert burst_monitors
        assert all(m.triggered > 0 for m in burst_monitors)

    def test_slave_memory_written(self):
        system, _, _ = run_ms(cycles=3000)
        assert any(s.memory for s in system.slaves)
        assert any(s.writes > 0 for s in system.slaves)

    def test_wait_states_slow_but_do_not_break(self):
        system, harness, monitors = run_ms(1, 1, 2, cycles=2500, seed=9)
        failed = [m.name for m in monitors if m.verdict() is Verdict.FAILS]
        assert failed == []
        # slave 1 has one wait state; transfers to it take longer
        assert system.slaves[1].wait_states == 1


@pytest.mark.parametrize("model", ModelRegistry().names())
def test_the_simulated_system_is_the_scenario_system(model):
    """Each case study simulates the one design its regressions run,
    and its bus statistics are read off the scoreboard's records."""
    system = default_registry().get(model).systemc_factory(2005)
    assert isinstance(system, ScenarioSystem)
    system.run_cycles(1500)
    stats = system.collect_statistics()
    transactions = [txn for txn, _ in system.records()]
    assert stats.transactions == len(transactions) > 10
    assert stats.words_moved == sum(t.burst_length for t in transactions)
    assert stats.writes == sum(t.is_write for t in transactions)
    assert stats.reads == stats.transactions - stats.writes
    assert stats.wait_cycles == sum(m.wait_cycles for m in system.masters)
    assert stats.arbitration_rounds >= stats.transactions
    per_master = {
        m.name: {
            "transactions": len(m.records),
            "words": sum(t.burst_length for t, _ in m.records),
        }
        for m in system.masters
    }
    assert stats.per_master == per_master
    system.close()
