"""The Master/Slave bus as a registered design-under-verification."""

from __future__ import annotations

from ...explorer.config import ExplorationConfig
from ...scenarios.sequences import RandomTraffic
from ...workbench.duv import DUV, LivenessCheck
from .asm_model import (
    build_master_slave_model,
    master_slave_domains,
    master_slave_init_call,
    ms_coarse_actions,
)
from .properties import (
    ms_invariant_properties,
    ms_letter_from_model,
    ms_timed_properties,
    served_goal,
    want_trigger,
)
from .scenario import MsScenarioSystem
from .systemc_model import MS_CLOCK_PERIOD_PS


def build_duv(
    n_blocking: int = 1,
    n_non_blocking: int = 1,
    n_slaves: int = 2,
    max_states: int = 50_000,
    max_transitions: int = 500_000,
) -> DUV:
    """The Table 2 case study as one Workbench bundle."""
    n_masters = n_blocking + n_non_blocking
    blocking_flags = [True] * n_blocking + [False] * n_non_blocking
    return DUV(
        name="master_slave",
        description=(
            f"Generic Master/Slave bus, {n_blocking} blocking + "
            f"{n_non_blocking} non-blocking masters, {n_slaves} slaves "
            "(paper Table 2)"
        ),
        model_factory=lambda: build_master_slave_model(
            n_blocking, n_non_blocking, n_slaves
        ),
        directives=ms_invariant_properties(n_masters, n_slaves),
        extractor=ms_letter_from_model,
        exploration=ExplorationConfig(
            domains=master_slave_domains(n_slaves),
            init_action=master_slave_init_call(),
            actions=ms_coarse_actions(n_masters),
            max_states=max_states,
            max_transitions=max_transitions,
        ),
        liveness_checks=(
            LivenessCheck("served0", want_trigger(0), served_goal(0)),
        ),
        systemc_factory=lambda seed: MsScenarioSystem(
            n_blocking, n_non_blocking, n_slaves, RandomTraffic(), seed
        ),
        simulation_directives=(
            ms_invariant_properties(n_masters, n_slaves, include_handshake=False)
            + ms_timed_properties(n_masters, n_slaves, blocking_flags)
        ),
        scenario_model="master_slave",
        clock_period_ps=MS_CLOCK_PERIOD_PS,
        metadata={"topology": (n_blocking, n_non_blocking, n_slaves)},
    )
