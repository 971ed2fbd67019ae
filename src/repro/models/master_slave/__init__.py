"""The generic Master/Slave bus case study (paper Section 4, Table 2)."""

from .asm_model import (
    BLOCKING_BURST,
    MsArbiter,
    MsBusSystem,
    MsMaster,
    MsMasterState,
    MsSlave,
    build_master_slave_model,
    master_slave_domains,
    master_slave_init_call,
    ms_coarse_actions,
)
from .properties import (
    ms_cover_properties,
    ms_invariant_properties,
    ms_letter_from_model,
    ms_timed_properties,
    owner_goal,
    want_trigger,
)
from .scenario import (
    FaultyMsSlave,
    MsReferenceAdapter,
    MsScenarioSystem,
    MsSequenceMaster,
)
from .systemc_model import (
    MS_CLOCK_PERIOD_PS,
    MsArbiterModule,
    MsMasterModule,
    MsSignals,
    MsSlaveModule,
    MsSystemModel,
)

__all__ = [
    "BLOCKING_BURST",
    "MsArbiter",
    "MsBusSystem",
    "MsMaster",
    "MsMasterState",
    "MsSlave",
    "build_master_slave_model",
    "master_slave_domains",
    "master_slave_init_call",
    "ms_coarse_actions",
    "ms_cover_properties",
    "ms_invariant_properties",
    "ms_letter_from_model",
    "ms_timed_properties",
    "owner_goal",
    "want_trigger",
    "MS_CLOCK_PERIOD_PS",
    "MsArbiterModule",
    "MsMasterModule",
    "MsSignals",
    "MsSlaveModule",
    "MsSystemModel",
    "FaultyMsSlave",
    "MsReferenceAdapter",
    "MsScenarioSystem",
    "MsSequenceMaster",
]
