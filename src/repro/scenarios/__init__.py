"""Constrained-random scenario engine with ASM-reference checking.

The stimulus-and-checking subsystem layered over ``repro.sysc`` (the
simulated designs), ``repro.asm`` (the golden reference) and
``repro.abv`` (the assertion monitors):

* :mod:`.random_` -- seeded, derivable randomization primitives,
* :mod:`.sequences` -- a UVM-style sequence library emitting abstract
  transaction items for both bus modes,
* :mod:`.scoreboard` -- the transaction scoreboard that replays every
  completed SystemC-level transaction on the verified ASM model,
* :mod:`.coverage_driven` -- the coverage feedback loop that biases
  the next sequences toward unhit stimulus bins,
* :mod:`.engines` -- the engine seam and the local serial /
  multiprocessing engines the runner fans out through,
* :mod:`.regression` -- the parallel regression runner and its wire
  forms (``python -m repro regress`` is its command line).

Model bindings (drivers + reference adapters) live with their models:
:mod:`repro.models.master_slave.scenario` and
:mod:`repro.models.pci.scenario`.
"""

from .coverage_driven import (
    BinCoverage,
    CoverageDrivenLoop,
    CoverageFeedback,
    StimulusBin,
    burst_bucket,
)
from .directed import (
    ClosureRound,
    DirectedClosureLoop,
    DirectedSequence,
    TransactionGoal,
    lower_path_for_model,
)
from .random_ import BURST_PROFILES, BurstProfile, ScenarioRng, derive_seed
from .regression import (
    RegressionReport,
    ScenarioSpec,
    ScenarioVerdict,
    build_specs,
    run_scenario,
)
from .scoreboard import (
    AsmLockstep,
    DivergenceKind,
    FaultPlan,
    Mismatch,
    ReferenceAdapter,
    ScenarioSystem,
    Scoreboard,
    ScoreboardReport,
)
from .sequences import (
    NAMED_PROFILES,
    AddressWalk,
    BurstSweep,
    Chain,
    Interleave,
    Mix,
    RandomTraffic,
    Repeat,
    Sequence,
    SequenceItem,
    StimulusContext,
    TrafficProfile,
    WriteReadback,
    sequence_for_profile,
)

__all__ = [
    "BinCoverage",
    "CoverageDrivenLoop",
    "CoverageFeedback",
    "StimulusBin",
    "burst_bucket",
    "ClosureRound",
    "DirectedClosureLoop",
    "DirectedSequence",
    "TransactionGoal",
    "lower_path_for_model",
    "BURST_PROFILES",
    "BurstProfile",
    "ScenarioRng",
    "derive_seed",
    "RegressionReport",
    "ScenarioSpec",
    "ScenarioVerdict",
    "build_specs",
    "run_scenario",
    "AsmLockstep",
    "DivergenceKind",
    "FaultPlan",
    "Mismatch",
    "ReferenceAdapter",
    "ScenarioSystem",
    "Scoreboard",
    "ScoreboardReport",
    "NAMED_PROFILES",
    "AddressWalk",
    "BurstSweep",
    "Chain",
    "Interleave",
    "Mix",
    "RandomTraffic",
    "Repeat",
    "Sequence",
    "SequenceItem",
    "StimulusContext",
    "TrafficProfile",
    "WriteReadback",
    "sequence_for_profile",
]
