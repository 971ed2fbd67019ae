"""The paper's Tables 1 and 2, reproduced through the Workbench stages.

A row is one bus configuration: the FSM nodes and transitions of
``Workbench.explore`` and the simulation delta of
``Workbench.simulate_abv`` (monitors built by ``compile_properties``).
Our counts differ from the paper's because this explorer keys states
on other variables than the AsmL tester; the reproduction target is
the shape.  Rows that explore in seconds are pinned here; CI's
``paper-tables`` job explores the rest under a 40,000-state cap.

Topologies are the registry's: pci (masters, targets), master_slave
(blocking, non-blocking, slaves).  Table 2 lists (slaves, blocking,
non-blocking).
"""

import functools

import pytest

from repro.asm import Domain
from repro.explorer import ExplorationConfig, SearchOrder, explore
from repro.models.pci import (
    build_pci_model,
    pci_coarse_actions,
    pci_domains,
    pci_init_call,
    pci_letter_from_model,
)
from repro.psl import AssertionProperty, parse_formula
from repro.workbench import StageStatus, Workbench, default_registry

#: (model, topology) -> (FSM nodes, FSM transitions)
ROWS = {
    ("pci", (1, 1)): (34, 60),
    ("pci", (1, 2)): (182, 485),
    ("pci", (3, 1)): (820, 2375),
    ("pci", (2, 2)): (1080, 3465),
    ("master_slave", (1, 1, 2)): (8, 29),
    ("master_slave", (1, 1, 3)): (8, 39),
    ("master_slave", (1, 1, 4)): (8, 49),
    ("master_slave", (3, 3, 2)): (256, 1731),
}

#: every configuration of both tables -> monitors simulate_abv binds
MONITORS = {
    ("pci", (1, 1)): 8, ("pci", (1, 2)): 10, ("pci", (3, 1)): 20,
    ("pci", (2, 2)): 15, ("pci", (2, 3)): 17, ("pci", (3, 2)): 22,
    ("pci", (3, 3)): 24,
    ("master_slave", (1, 1, 2)): 11, ("master_slave", (1, 1, 3)): 12,
    ("master_slave", (1, 1, 4)): 13, ("master_slave", (3, 3, 2)): 41,
    ("master_slave", (3, 3, 3)): 42, ("master_slave", (3, 3, 4)): 43,
    ("master_slave", (3, 4, 2)): 51, ("master_slave", (3, 4, 3)): 52,
    ("master_slave", (3, 4, 4)): 53, ("master_slave", (4, 4, 2)): 62,
    ("master_slave", (4, 4, 3)): 63, ("master_slave", (4, 4, 4)): 64,
}


def label(value):
    return value if isinstance(value, str) else ",".join(map(str, value))


def workbench(model, topology):
    return Workbench(default_registry().get(model, *topology))


@functools.lru_cache(maxsize=None)
def explored(model, topology):
    """(status, nodes, transitions) of one row, explored once per run."""
    result = workbench(model, topology).explore()
    return result.status, result.data["states"], result.data["transitions"]


@pytest.mark.parametrize("model, topology", sorted(ROWS), ids=label)
def test_row(model, topology):
    expected = (StageStatus.PASSED, *ROWS[model, topology])
    assert explored(model, topology) == expected


def test_pci_nodes_more_than_double_per_step():
    nodes = [explored("pci", t)[1] for t in ((1, 1), (1, 2), (2, 2))]
    assert nodes[1] > 2 * nodes[0] and nodes[2] > 2 * nodes[1], nodes


def test_ms_nodes_stay_flat_across_slave_counts():
    nodes = [explored("master_slave", (1, 1, s))[1] for s in (2, 3, 4)]
    assert max(nodes) <= 1.25 * min(nodes), nodes


def test_ms_nodes_grow_with_the_master_count():
    few, many = (explored("master_slave", (m, m, 2))[1] for m in (1, 3))
    assert many > 4 * few


def test_ms_transitions_rise_with_the_slave_count():
    series = [explored("master_slave", (1, 1, s))[2] for s in (2, 3, 4)]
    assert series[0] < series[1] < series[2], series


@pytest.mark.parametrize("model, topology", sorted(MONITORS), ids=label)
def test_simulation_passes_every_monitor(model, topology):
    stage = workbench(model, topology).simulate_abv(cycles=20_000)
    assert stage.status is StageStatus.PASSED, stage.summary
    assert stage.data["cycles"] == 20_000
    assert stage.data["monitors"] == MONITORS[model, topology]
    assert stage.data["failed_assertions"] == []


def _pci_config(masters=2, targets=2, **overrides):
    fields = dict(
        domains=pci_domains(targets),
        init_action=pci_init_call(),
        actions=pci_coarse_actions(masters, targets),
        max_states=60_000,
        max_transitions=600_000,
    )
    fields.update(overrides)
    return ExplorationConfig(**fields)


def _explore_injected_bug(**overrides):
    """PCI (2,2) against a property no run satisfies (a design error)."""
    bug = AssertionProperty(
        parse_formula("never (req0 && req1)"),
        extractor=pci_letter_from_model,
        name="injected_bug",
    )
    return explore(build_pci_model(2, 2), _pci_config(properties=[bug], **overrides))


class TestDesignChoices:
    """The explorer's design choices, measured on the PCI model."""

    def test_violation_filter_prunes_radically(self):
        # Section 3.1: stopping at the first violating state "minimizes
        # radically ... the FSM size and its generation time"
        stopped = _explore_injected_bug(stop_on_violation=True)
        full = _explore_injected_bug(stop_on_violation=False)
        assert not stopped.ok and not full.ok
        assert stopped.counterexample is not None
        assert stopped.fsm.state_count() < full.fsm.state_count() / 5

    def test_wider_burst_domain_inflates_transitions(self):
        # rule R4: the domain bounds the candidate argument set
        def transitions(widest_burst):
            domains = dict(pci_domains(1))
            domains["start_transaction.burst"] = Domain.int_range(
                "burst", 1, widest_burst
            )
            config = _pci_config(2, 1, domains=domains)
            return explore(build_pci_model(2, 1), config).fsm.transition_count()

        assert transitions(1) < transitions(3)

    def test_fine_actions_explode_the_state_count(self):
        coarse = explore(build_pci_model(1, 2), _pci_config(1, 2))
        fine = explore(build_pci_model(1, 2), _pci_config(1, 2, actions=None))
        assert fine.fsm.state_count() > coarse.fsm.state_count()

    def test_bfs_counterexample_is_no_longer_than_dfs(self):
        bfs = _explore_injected_bug(search_order=SearchOrder.BFS)
        dfs = _explore_injected_bug(search_order=SearchOrder.DFS)
        assert bfs.counterexample is not None and dfs.counterexample is not None
        assert bfs.counterexample.length <= dfs.counterexample.length
