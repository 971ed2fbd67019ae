"""Checkpoint stores and single-file reading.

* :func:`global_registry` -- the process-global, in-memory
  :class:`~repro.store.ContentStore` ``ScenarioSpec.resume_from``
  resolves against (``get`` raises :class:`UnknownCheckpointError`).
  No other process sees it: a capture comes back on its verdict
  (``ScenarioVerdict.checkpoint``), and :func:`resume_checkpoints`
  ships resume sources out in a spec file or a ``/checkpoints`` upload.

* :func:`load_checkpoint` -- single-file reading for the CLI, whose
  ``checkpoint --out`` writes through :func:`repro.store.atomic_write`;
  a torn file is rejected by the digest check in ``Checkpoint.from_json``.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Iterable, List, Optional

from ..store import ContentStore
from .errors import CheckpointFormatError, UnknownCheckpointError
from .snapshot import Checkpoint

#: The name of the retired spill-directory variable.  Nothing in the
#: package reads it; it stays importable only for the benchmark
#: harness, which sets it on older trees too (like ``CachingHttpHost``).
SPILL_DIR_ENV = "REPRO_CHECKPOINT_DIR"


def checkpoint_store(
    limit: Optional[int] = None,
    missing: Optional[Callable[[str], Exception]] = None,
) -> ContentStore:
    """A digest-keyed, in-memory :class:`~repro.store.ContentStore`."""
    return ContentStore(
        key_of=lambda checkpoint: checkpoint.digest,
        limit=limit,
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


#: the process-global registry ``ScenarioSpec.resume_from`` resolves against
_GLOBAL = checkpoint_store()


def global_registry() -> ContentStore:
    """The process-global checkpoint store."""
    return _GLOBAL


def hold_checkpoints(checkpoints: Iterable[Checkpoint]) -> None:
    """Register checkpoints that arrived as values (a pool child's
    initializer: a spawned child inherits no registry)."""
    for checkpoint in checkpoints:
        _GLOBAL.put(checkpoint)


def resume_checkpoints(specs: Iterable[Any]) -> List[Checkpoint]:
    """The checkpoints ``specs`` resume from, in digest order, out of
    :func:`global_registry` (:class:`UnknownCheckpointError` for a
    digest nobody registered): what a transport ships with the specs."""
    digests = sorted({spec.resume_from for spec in specs if spec.resume_from})
    return [global_registry().get(digest) for digest in digests]


def reset_global_registry() -> None:
    """Replace the process-global registry with an empty one."""
    global _GLOBAL
    _GLOBAL = checkpoint_store()
