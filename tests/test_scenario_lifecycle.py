"""A scenario's lifecycle: build, run, check, close.

A finished scenario frees itself by reference counting: no system,
reference model, harness, closure loop or ``simulate_abv`` stage is
left in a reference cycle
for the cyclic collector, so peak memory is a property of one pass.
A closed system refuses to run or snapshot with a typed error.
"""

import gc
from dataclasses import replace

import pytest

from repro.checkpoint import snapshot_system
from repro.psl.compiled import set_default_engine
from repro.scenarios.regression import ScenarioSpec, _build_system, run_scenario
from repro.scenarios.scoreboard import FaultPlan
from repro.sysc.errors import SyscError
from repro.workbench import Workbench

TOPOLOGIES = {"master_slave": (1, 2, 2), "pci": (2, 2)}


def _spec(model, **fields):
    return ScenarioSpec(
        model=model, seed=2005, topology=TOPOLOGIES[model], profile="default",
        cycles=200, **fields,
    )


def cyclic_garbage(run):
    """How many objects ``run()`` leaves for the cyclic collector, once
    warm (compile caches, the reference pool and lazy imports filled)."""
    run()
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


@pytest.fixture(params=["compiled", "interpreted"])
def engine(request):
    previous = set_default_engine(request.param)
    yield request.param
    set_default_engine(previous)


@pytest.mark.parametrize("model", sorted(TOPOLOGIES))
class TestNoCyclicGarbage:
    def test_plain(self, model):
        spec = _spec(model)
        assert cyclic_garbage(lambda: run_scenario(spec)) == 0

    def test_monitored(self, model, engine):
        spec = _spec(model, with_monitors=True)
        assert cyclic_garbage(lambda: run_scenario(spec)) == 0

    @pytest.mark.parametrize("monitors", [False, True], ids=["plain", "monitored"])
    def test_checkpoint_capture_and_resume(self, model, monitors):
        capture = _spec(model, with_monitors=monitors, checkpoint_at=120)
        assert cyclic_garbage(lambda: run_scenario(capture)) == 0
        frontier = run_scenario(capture).checkpoint
        resume = _spec(model, with_monitors=monitors, resume_from=frontier.digest)
        assert cyclic_garbage(lambda: run_scenario(resume, frontier)) == 0

    @pytest.mark.parametrize("kind", ["corrupt-read", "drop"])
    def test_fault(self, model, kind):
        spec = _spec(model, fault=FaultPlan(kind, unit=0, nth=2))
        assert not run_scenario(spec).ok
        assert cyclic_garbage(lambda: run_scenario(spec)) == 0


@pytest.mark.parametrize("model", sorted(TOPOLOGIES))
def test_simulate_abv_leaves_no_cyclic_garbage(model):
    def simulate():
        stage = Workbench(model).simulate_abv(cycles=200)
        assert set(stage.payload) == {"report"}

    assert cyclic_garbage(simulate) == 0


def test_explore_leaves_no_cyclic_garbage():
    assert cyclic_garbage(lambda: Workbench("master_slave").explore()) == 0


def test_frontier_closure_leaves_no_cyclic_garbage():
    def close():
        result = Workbench("master_slave").close_coverage(
            rounds=6, cycles=160, max_goals=6, frontier=True
        )
        assert result.data["forked_goals"] == 2

    assert cyclic_garbage(close) == 0


class TestUseAfterClose:
    """Running or snapshotting a closed system is a typed error naming
    it, never an AttributeError or a silent no-op."""

    @pytest.fixture
    def closed(self):
        system = _build_system(_spec("master_slave"))
        system.run_cycles(10)
        system.close()
        return system

    def test_simulator_run(self, closed):
        with pytest.raises(SyscError, match=closed.simulator.name):
            closed.simulator.run(100)

    def test_run_cycles(self, closed):
        cycle_count = closed.clock.cycle_count
        with pytest.raises(SyscError, match=closed.simulator.name):
            closed.run_cycles(5)
        assert closed.clock.cycle_count == cycle_count

    def test_snapshot_system(self, closed):
        spec = replace(_spec("master_slave"), cycles=10)
        with pytest.raises(SyscError, match=closed.simulator.name):
            snapshot_system(closed, spec, 10)

    def test_a_closed_system_keeps_its_records(self, closed):
        assert closed.simulator.closed
        assert closed.check("closed").ok
        closed.close()  # closing twice does nothing
