"""Checkpoint persistence and by-digest sharing.

* :func:`global_registry` -- the process-global
  :class:`~repro.store.ContentStore` of checkpoints keyed by digest
  (``put`` returns the digest, ``get`` raises
  :class:`UnknownCheckpointError`).  With a spill directory every
  ``put`` also lands on disk and every miss falls back to disk, which
  is what lets ``ScenarioSpec.resume_from`` cross process boundaries:
  the serial engine resolves digests from memory, multiprocessing
  workers and :class:`~repro.dispatch.hosts.LocalSubprocessHost` shard
  subprocesses resolve the same digests from the directory named by
  ``REPRO_CHECKPOINT_DIR``.  HTTP workers use the daemons'
  ``/checkpoints`` upload instead (:mod:`repro.dispatch.worker`).

* :func:`load_checkpoint` -- single-file reading for the CLI, whose
  ``checkpoint --out`` writes through :func:`repro.store.atomic_write`;
  a torn file is rejected by the digest check in ``Checkpoint.from_json``.
"""

from __future__ import annotations

import atexit
import json
import os
import shutil
import tempfile
import threading
from typing import Callable, Optional

from ..store import ContentStore
from .errors import CheckpointFormatError, UnknownCheckpointError
from .snapshot import Checkpoint

#: processes inherit this to share one spill directory across a fan-out
SPILL_DIR_ENV = "REPRO_CHECKPOINT_DIR"


def checkpoint_store(
    directory: Optional[str] = None,
    limit: Optional[int] = None,
    missing: Optional[Callable[[str], Exception]] = None,
) -> ContentStore:
    """A digest-keyed checkpoint store (see :class:`~repro.store.ContentStore`)."""
    return ContentStore(
        key_of=lambda checkpoint: checkpoint.digest,
        encode=Checkpoint.to_json,
        decode=Checkpoint.from_json,
        limit=limit,
        directory=directory,
        missing=missing
        or (lambda digest: UnknownCheckpointError(
            f"unknown checkpoint {digest!r}"
        )),
    )


def load_checkpoint(path: str) -> Checkpoint:
    """Read and verify one checkpoint file (CLI ``resume --from``)."""
    try:
        with open(path, "r", encoding="utf-8") as stream:
            doc = json.load(stream)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointFormatError(
            f"cannot read checkpoint file {path!r}: {exc}"
        ) from exc
    return Checkpoint.from_json(doc)


#: the process-global registry ``ScenarioSpec.resume_from`` resolves
#: against; its spill directory follows ``REPRO_CHECKPOINT_DIR`` so
#: worker subprocesses inherit the parent's checkpoints
_GLOBAL: Optional[ContentStore] = None
_GLOBAL_LOCK = threading.Lock()


def global_registry() -> ContentStore:
    """The lazily-created process-global checkpoint store.

    Re-reads ``REPRO_CHECKPOINT_DIR`` when the registry is first
    created in this process, which is exactly when a freshly spawned
    worker inherits the fan-out's spill directory.
    """
    global _GLOBAL
    with _GLOBAL_LOCK:
        if _GLOBAL is None:
            _GLOBAL = checkpoint_store(os.environ.get(SPILL_DIR_ENV))
        return _GLOBAL


def reset_global_registry() -> None:
    """Drop the process-global registry (tests, spill-dir changes)."""
    global _GLOBAL
    with _GLOBAL_LOCK:
        _GLOBAL = None


def _remove_spill_dir(spill: str, creator: int) -> None:
    """Exit hook: delete a spill directory this process created.

    Forked children inherit the hook; only the creating process runs
    it, so a child never deletes the directory under its parent.
    """
    if os.getpid() == creator:
        shutil.rmtree(spill, ignore_errors=True)


def ensure_spill_dir() -> str:
    """Make the global registry's checkpoints reachable by child processes.

    Gives the process-global registry a disk spill if it has none,
    exports it as ``REPRO_CHECKPOINT_DIR`` so spawned workers and
    ``--shard K/N`` subprocesses inherit it, and flushes
    already-registered checkpoints to it.  Without the variable the
    spill is a temp directory this process creates and removes at
    exit; a directory named by the variable is never removed.
    Idempotent; returns the spill directory.
    """
    registry = global_registry()
    if registry.directory:
        os.environ.setdefault(SPILL_DIR_ENV, registry.directory)
        return registry.directory
    spill = os.environ.get(SPILL_DIR_ENV)
    if not spill:
        spill = tempfile.mkdtemp(prefix="repro-checkpoints-")
        atexit.register(_remove_spill_dir, spill, os.getpid())
    os.environ[SPILL_DIR_ENV] = spill
    registry.attach(spill)
    return spill
