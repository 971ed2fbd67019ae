"""The PCI Local Bus case study (paper Section 4, Table 1)."""

from .asm_model import (
    PciArbiter,
    PciBus,
    PciMaster,
    PciSystem,
    PciTarget,
    build_pci_model,
    pci_domains,
    pci_init_call,
    pci_coarse_actions,
)
from .properties import (
    grant_goal,
    pci_cover_properties,
    pci_letter_from_model,
    pci_safety_properties,
    request_trigger,
    transaction_goal,
)
from .protocol import (
    DEVSEL_TIMEOUT_CYCLES,
    MAX_BURST_LENGTH,
    PCI_CLOCK_PERIOD_PS,
    MasterState,
    PciCommand,
    TargetResponse,
    TargetState,
    decode_target,
    target_address,
)

__all__ = [
    "PciArbiter", "PciBus", "PciMaster", "PciSystem", "PciTarget",
    "build_pci_model", "pci_domains", "pci_init_call", "pci_coarse_actions",
    "grant_goal", "pci_cover_properties", "pci_letter_from_model",
    "pci_safety_properties", "request_trigger", "transaction_goal",
    "DEVSEL_TIMEOUT_CYCLES", "MAX_BURST_LENGTH", "PCI_CLOCK_PERIOD_PS",
    "MasterState", "PciCommand", "TargetResponse", "TargetState",
    "decode_target", "target_address",
]

from .systemc_model import (
    PciArbiterModule,
    PciMasterModule,
    PciSignals,
    PciSystemModel,
    PciTargetModule,
)

__all__ += [
    "PciArbiterModule",
    "PciMasterModule",
    "PciSignals",
    "PciSystemModel",
    "PciTargetModule",
]

from .scenario import (
    PciReferenceAdapter,
    PciScenarioSystem,
    PciSequenceMaster,
)

__all__ += [
    "PciReferenceAdapter",
    "PciScenarioSystem",
    "PciSequenceMaster",
]
