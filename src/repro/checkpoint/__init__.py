"""Checkpoint/restore for scenario systems.

The paper's flow -- and PR 4's directed-closure loop on top of it --
re-runs every simulation from reset, replaying the same warm-up to
revisit a frontier state.  This package makes simulation state a
first-class, shippable object instead:

* :mod:`~repro.checkpoint.snapshot` -- the :class:`Checkpoint` wire
  object: canonical JSON, SHA-256 digest, typed rejection of corrupt /
  truncated / stale-version documents.
* :mod:`~repro.checkpoint.capture` -- :func:`snapshot_system` /
  :func:`restore_system`: deep state capture of the pure-Python
  SystemC side (kernel clocking, signals, phase-machine modules,
  monitor letter streams) with the restore-equivalence guarantee
  ``restore(snapshot(T)) + k cycles == run(T + k)``, byte-identical
  digests included.
* :mod:`~repro.checkpoint.store` -- the digest-keyed global registry
  (a :class:`~repro.store.ContentStore`) with disk spill
  (``REPRO_CHECKPOINT_DIR``) plus single-file reading for the CLI.

Consumers: ``ScenarioSpec.resume_from`` (regression runs forked from a
frontier state), the directed-closure frontier planner
(:mod:`repro.workbench.session`), the dispatch workers' by-reference
``/checkpoints`` uploads, and the coordinator's resumable jobs.  See
``docs/checkpoint.md``.
"""

from .capture import (
    restore_scenario,
    restore_system,
    snapshot_scenario_run,
    snapshot_system,
)
from .errors import (
    CheckpointError,
    CheckpointFormatError,
    CheckpointIntegrityError,
    CheckpointStateError,
    CheckpointVersionError,
    UnknownCheckpointError,
)
from .snapshot import WIRE_VERSION, Checkpoint
from .store import (
    SPILL_DIR_ENV,
    checkpoint_store,
    ensure_spill_dir,
    global_registry,
    load_checkpoint,
    reset_global_registry,
)

__all__ = [
    "Checkpoint",
    "CheckpointError",
    "CheckpointFormatError",
    "CheckpointIntegrityError",
    "CheckpointStateError",
    "CheckpointVersionError",
    "SPILL_DIR_ENV",
    "UnknownCheckpointError",
    "WIRE_VERSION",
    "checkpoint_store",
    "ensure_spill_dir",
    "global_registry",
    "load_checkpoint",
    "reset_global_registry",
    "restore_scenario",
    "restore_system",
    "snapshot_scenario_run",
    "snapshot_system",
]
