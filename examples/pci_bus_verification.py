#!/usr/bin/env python3
"""The PCI case study end to end (paper Section 4.1/4.2, Table 1).

* builds the PCI ASM model for a chosen number of masters and targets,
* model checks the invariant suite during FSM generation,
* checks the liveness properties on the generated FSM (the results
  "that cannot be verified using simulation"),
* simulates the SystemC PCI model (the scenario system every
  regression runs, under endless random traffic) with the full
  assertion suite and reports the delta (ns/cycle) figure of Table 1.

Run:  python examples/pci_bus_verification.py [masters] [targets]
"""

import sys

from repro.abv import AbvHarness
from repro.explorer import ExplorationConfig, check_eventually, explore
from repro.psl import AssertionProperty, compile_properties
from repro.models.pci import (
    build_pci_model,
    grant_goal,
    pci_coarse_actions,
    pci_domains,
    pci_init_call,
    pci_letter_from_model,
    request_trigger,
)
from repro.models.pci.duv import build_duv
from repro.models.pci.properties import (
    pci_cover_properties,
    pci_invariant_properties,
    pci_safety_properties,
)


def main(n_masters: int = 2, n_targets: int = 2) -> None:
    # -- model checking --------------------------------------------------------
    print(f"== PCI {n_masters} masters / {n_targets} targets ==")
    model = build_pci_model(n_masters, n_targets)
    properties = [
        AssertionProperty(d.prop, extractor=pci_letter_from_model, name=d.prop.name)
        for d in pci_invariant_properties(n_masters, n_targets)
    ]
    config = ExplorationConfig(
        domains=pci_domains(n_targets),
        init_action=pci_init_call(),
        actions=pci_coarse_actions(n_masters, n_targets),
        properties=properties,
        max_states=60_000,
    )
    result = explore(model, config)
    print(result.summary())

    # -- liveness on the FSM ------------------------------------------------------
    print("\n== liveness (model checking only) ==")
    for master in range(n_masters):
        liveness = check_eventually(
            result.fsm,
            request_trigger(master),
            grant_goal(master),
            f"req{master}_eventually_granted",
        )
        print(liveness.summary())
        if not liveness.holds and liveness.violation is not None:
            print("   (fixed-priority arbitration starves low-priority masters;")
            print("    the lasso witness:)")
            text = liveness.violation.describe(result.fsm)
            print("   " + "\n   ".join(text.splitlines()[:6]))

    # -- assertion-based verification by simulation --------------------------------
    print("\n== SystemC simulation with assertion monitors ==")
    system = build_duv(n_masters, n_targets).systemc_factory(2005)
    harness = AbvHarness(system.simulator, system.clock, system.letter)
    monitors = compile_properties(
        pci_safety_properties(n_masters, n_targets)
        + pci_cover_properties(n_masters, n_targets)
    )
    harness.add_monitors(monitors)
    cycles = 50_000
    system.run_cycles(cycles)
    harness.finish()

    wall = system.simulator.stats.wall_seconds
    print(harness.summary())
    print(f"delta = {wall * 1e9 / cycles:.0f} ns/cycle ({cycles} cycles in {wall:.2f}s)")
    stats = system.collect_statistics()
    print(stats.summary())

    from repro.abv import CoverageCollector

    print("\n-- coverage --")
    print(CoverageCollector(monitors).report())
    harness.close()
    system.close()


if __name__ == "__main__":
    masters = int(sys.argv[1]) if len(sys.argv) > 1 else 2
    targets = int(sys.argv[2]) if len(sys.argv) > 2 else 2
    main(masters, targets)
