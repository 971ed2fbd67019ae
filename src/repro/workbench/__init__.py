"""The unified verification-session API.

One facade over the whole Figure 1 flow: register a design-under-
verification once (a :class:`DUV` bundle -- ASM model, properties,
SystemC factory, scenario binding), then compose typed stages --
``explore()``, ``check_liveness()``, ``translate()``,
``simulate_abv()``, ``regress()`` -- on a :class:`Workbench` session,
or run a declarative :class:`VerificationPlan` end to end.  Stages fan
out through a pluggable :class:`Engine` (the engine classes live below
this layer, in :mod:`repro.scenarios.engines` and
:mod:`repro.dispatch`, and are re-exported here); every session folds
into one :class:`SessionReport` with a worker-count-invariant digest.

Quickstart::

    from repro.workbench import Workbench, VerificationPlan

    report = Workbench("master_slave").run_plan(VerificationPlan.figure1())
    assert report.ok
    print(report.summary())

The two case studies (``"master_slave"``, ``"pci"``) are discoverable
by name through the :class:`ModelRegistry`; ``python -m repro`` is the
CLI over this API.
"""

from .duv import DUV, CoverageResidue, LivenessCheck
from ..dispatch import ShardedEngine
from ..scenarios.engines import (
    Engine,
    MultiprocessingEngine,
    SerialEngine,
    resolve_engine,
)
from .plan import STAGE_NAMES, StageCall, VerificationPlan
from .registry import ModelRegistry, UnknownModelError, default_registry
from .session import Workbench
from .stages import (
    SessionReport,
    SimulationReport,
    StageResult,
    StageStatus,
)

__all__ = [
    "DUV",
    "CoverageResidue",
    "LivenessCheck",
    "Engine",
    "MultiprocessingEngine",
    "SerialEngine",
    "ShardedEngine",
    "resolve_engine",
    "STAGE_NAMES",
    "StageCall",
    "VerificationPlan",
    "ModelRegistry",
    "UnknownModelError",
    "default_registry",
    "Workbench",
    "SessionReport",
    "SimulationReport",
    "StageResult",
    "StageStatus",
]
