"""The PCI Local Bus as a registered design-under-verification."""

from __future__ import annotations

from ...explorer.config import ExplorationConfig
from ...scenarios.sequences import RandomTraffic
from ...workbench.duv import DUV, LivenessCheck
from .asm_model import (
    build_pci_model,
    pci_coarse_actions,
    pci_domains,
    pci_init_call,
)
from .properties import (
    grant_goal,
    pci_invariant_properties,
    pci_letter_from_model,
    pci_safety_properties,
    request_trigger,
    transaction_goal,
)
from .protocol import PCI_CLOCK_PERIOD_PS
from .scenario import PciScenarioSystem


def build_duv(
    n_masters: int = 2,
    n_targets: int = 2,
    max_states: int = 50_000,
    max_transitions: int = 500_000,
) -> DUV:
    """The Table 1 case study as one Workbench bundle."""
    return DUV(
        name="pci",
        description=(
            f"PCI Local Bus, {n_masters} masters, {n_targets} targets "
            "(paper Table 1)"
        ),
        model_factory=lambda: build_pci_model(n_masters, n_targets),
        directives=pci_invariant_properties(n_masters, n_targets),
        extractor=pci_letter_from_model,
        exploration=ExplorationConfig(
            domains=pci_domains(n_targets),
            init_action=pci_init_call(),
            actions=pci_coarse_actions(n_masters, n_targets),
            max_states=max_states,
            max_transitions=max_transitions,
        ),
        liveness_checks=(
            LivenessCheck("grant0", request_trigger(0), grant_goal(0)),
            LivenessCheck("transaction0", request_trigger(0), transaction_goal(0)),
        ),
        systemc_factory=lambda seed: PciScenarioSystem(
            n_masters, n_targets, RandomTraffic(), seed
        ),
        simulation_directives=pci_safety_properties(n_masters, n_targets),
        scenario_model="pci",
        clock_period_ps=PCI_CLOCK_PERIOD_PS,
        metadata={"topology": (n_masters, n_targets)},
    )
