"""Pluggable execution engines: where a fan-out's work units run.

An :class:`Engine` is the seam between "what work a stage fans out"
and "where that work runs".  This module holds the two local ones --
in-process :class:`SerialEngine` and :class:`MultiprocessingEngine`
over a ``multiprocessing`` pool -- and :func:`resolve_engine`, the
local default :class:`~repro.scenarios.regression.RegressionRunner`
falls back to.  The cross-host engines build on the scenario wire
forms and so live above this layer: the sharded dispatcher
(:class:`repro.dispatch.ShardedEngine`) and the coordinator fleet
(:class:`repro.coordinator.CoordinatorEngine`).
:func:`repro.dispatch.select_engine` is the one place that picks among
all of them from ``workers``, ``shards``, ``hosts`` and
``coordinator``.

The contract mirrors ``multiprocessing.Pool.imap_unordered``:
``imap(fn, items)`` yields one result per item, in *any* order, as
they complete.  Callers that need a canonical order re-sort (the
regression report already does, which is what keeps its digest
worker-count invariant).  Closing the generator early (e.g. a
fail-fast break) must release the engine's resources.
"""

from __future__ import annotations

import multiprocessing
from typing import Callable, Iterable, Iterator, Optional, Protocol, TypeVar, runtime_checkable

_Item = TypeVar("_Item")
_Result = TypeVar("_Result")


@runtime_checkable
class Engine(Protocol):
    """Where stage work units run."""

    #: human-readable engine kind ("serial", "multiprocessing", ...)
    name: str
    #: degree of parallelism the engine will use
    workers: int

    def imap(
        self, fn: Callable[[_Item], _Result], items: Iterable[_Item]
    ) -> Iterator[_Result]:
        """Yield ``fn(item)`` for every item, unordered, as completed."""
        ...


class SerialEngine:
    """Runs every work unit inline, in submission order."""

    name = "serial"
    workers = 1

    def imap(
        self, fn: Callable[[_Item], _Result], items: Iterable[_Item]
    ) -> Iterator[_Result]:
        """Apply ``fn`` to each item inline; order is submission order."""
        for item in items:
            yield fn(item)

    def __repr__(self) -> str:
        return "SerialEngine()"


class MultiprocessingEngine:
    """Fans work units across a local process pool.

    ``fn`` and the items must be picklable (scenario specs are); the
    checkpoints that items' ``resume_from`` names go to every child
    with the pool.  Small batches (one item, or one worker) degrade to
    inline execution so a pool is never spawned for nothing.
    """

    name = "multiprocessing"

    def __init__(self, workers: Optional[int] = None):
        if workers is None:
            workers = min(multiprocessing.cpu_count(), 8)
        self.workers = max(workers, 1)

    def imap(
        self, fn: Callable[[_Item], _Result], items: Iterable[_Item]
    ) -> Iterator[_Result]:
        """Yield ``fn(item)`` from the pool as results complete."""
        pending = list(items)
        if self.workers == 1 or len(pending) <= 1:
            for item in pending:
                yield fn(item)
            return
        resumes = [i for i in pending if getattr(i, "resume_from", None)]
        options: dict = {}
        if resumes:
            from ..checkpoint.store import hold_checkpoints, resume_checkpoints

            options = dict(
                initializer=hold_checkpoints,
                initargs=(resume_checkpoints(resumes),),
            )
        pool = multiprocessing.Pool(processes=self.workers, **options)
        try:
            yield from pool.imap_unordered(fn, pending)
        finally:
            # terminate() (not close()) so an early generator close --
            # the fail-fast path -- kills in-flight workers too
            pool.terminate()
            pool.join()

    def __repr__(self) -> str:
        return f"MultiprocessingEngine(workers={self.workers})"


def resolve_engine(workers: Optional[int], n_items: int) -> Engine:
    """The default engine choice for a fan-out of ``n_items``.

    Mirrors the historical ``RegressionRunner`` heuristic: at most 8
    processes, never more workers than items, serial when one worker
    suffices.
    """
    if workers is None:
        workers = min(multiprocessing.cpu_count(), 8, max(n_items, 1))
    workers = max(workers, 1)
    if workers == 1:
        return SerialEngine()
    return MultiprocessingEngine(workers)
