#!/usr/bin/env python3
"""The generic Master/Slave bus case study (paper Section 4.1, Table 2).

Exercises the blocking (burst) vs non-blocking (single word) modes:
model checks the arbiter/transfer invariants, verifies eventual service
for the highest-priority master on the FSM, then simulates the mixed
system (the scenario system every regression runs, under endless
random traffic) and reports per-master throughput plus the
burst-atomicity assertions.

Run:  python examples/master_slave_bus.py [blocking] [non_blocking] [slaves]
"""

import sys

from repro.abv import AbvHarness
from repro.explorer import ExplorationConfig, check_eventually, explore
from repro.psl import AssertionProperty, compile_properties
from repro.models.master_slave import (
    build_master_slave_model,
    master_slave_domains,
    master_slave_init_call,
    ms_coarse_actions,
    ms_invariant_properties,
    ms_letter_from_model,
    ms_timed_properties,
    want_trigger,
)
from repro.models.master_slave.duv import build_duv
from repro.models.master_slave.properties import served_goal


def main(n_blocking: int = 1, n_non_blocking: int = 1, n_slaves: int = 2) -> None:
    n_masters = n_blocking + n_non_blocking
    print(
        f"== Master/Slave bus: {n_blocking} blocking + "
        f"{n_non_blocking} non-blocking masters, {n_slaves} slaves =="
    )

    # -- model checking ----------------------------------------------------------
    model = build_master_slave_model(n_blocking, n_non_blocking, n_slaves)
    properties = [
        AssertionProperty(d.prop, extractor=ms_letter_from_model, name=d.prop.name)
        for d in ms_invariant_properties(n_masters, n_slaves)
    ]
    config = ExplorationConfig(
        domains=master_slave_domains(n_slaves),
        init_action=master_slave_init_call(),
        actions=ms_coarse_actions(n_masters),
        properties=properties,
        max_states=60_000,
    )
    result = explore(model, config)
    print(result.summary())

    print("\n== liveness on the FSM ==")
    highest = check_eventually(
        result.fsm, want_trigger(0), served_goal(0), "master0_served"
    )
    print(highest.summary())
    lowest = check_eventually(
        result.fsm,
        want_trigger(n_masters - 1),
        served_goal(n_masters - 1),
        f"master{n_masters - 1}_served",
    )
    print(lowest.summary())
    if not lowest.holds:
        print("   (the fixed-priority arbiter can starve the last master)")

    # -- simulation with monitors ---------------------------------------------------
    print("\n== SystemC simulation ==")
    system = build_duv(n_blocking, n_non_blocking, n_slaves).systemc_factory(2005)
    harness = AbvHarness(system.simulator, system.clock, system.letter)
    monitors = compile_properties(
        ms_invariant_properties(n_masters, n_slaves, include_handshake=False)
        + ms_timed_properties(n_masters, n_slaves, system.blocking_flags)
    )
    harness.add_monitors(monitors)
    cycles = 30_000
    system.run_cycles(cycles)
    harness.finish()

    wall = system.simulator.stats.wall_seconds
    print(harness.summary())
    print(f"delta = {wall * 1e9 / cycles:.0f} ns/cycle")

    print("\n-- per-master throughput --")
    for master in system.masters:
        mode = "blocking " if master.blocking else "non-block"
        print(
            f"  {master.name:<12} [{mode}] {len(master.records):>5} "
            f"transfers, {master.words_moved:>6} words, "
            f"{master.wait_cycles:>6} wait cycles"
        )
    print(system.collect_statistics().summary())
    harness.close()
    system.close()


if __name__ == "__main__":
    blocking = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    non_blocking = int(sys.argv[2]) if len(sys.argv) > 2 else 1
    slaves = int(sys.argv[3]) if len(sys.argv) > 3 else 2
    main(blocking, non_blocking, slaves)
