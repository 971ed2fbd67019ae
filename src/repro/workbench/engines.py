"""Pluggable execution engines.

An :class:`Engine` is the seam between "what work a stage fans out"
and "where that work runs".  Three implementations are registered:
in-process serial, local ``multiprocessing``, and the sharded
subprocess-host dispatcher (:class:`ShardedEngine`, the ROADMAP's
cross-host scaling tier) -- the scenario regression runner executes
through any of them without changing stage code.

The contract mirrors ``multiprocessing.Pool.imap_unordered``:
``imap(fn, items)`` yields one result per item, in *any* order, as
they complete.  Callers that need a canonical order re-sort (the
regression report already does, which is what keeps its digest
worker-count invariant).  Closing the generator early (e.g. a
fail-fast break) must release the engine's resources.
"""

from __future__ import annotations

import multiprocessing
from typing import Any, Callable, Iterable, Iterator, Optional, Protocol, TypeVar, runtime_checkable

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

    ``fn`` and the items must be picklable (scenario specs are).  Small
    batches (one item, or one worker) degrade to inline execution so a
    pool is never spawned for nothing.
    """

    name = "multiprocessing"

    def __init__(
        self,
        workers: Optional[int] = None,
        start_method: Optional[str] = None,
    ):
        if workers is None:
            workers = min(multiprocessing.cpu_count(), 8)
        self.workers = max(workers, 1)
        self.start_method = start_method

    def imap(
        self, fn: Callable[[_Item], _Result], items: Iterable[_Item]
    ) -> Iterator[_Result]:
        """Yield ``fn(item)`` from the pool as results complete."""
        pending = list(items)
        if self.workers == 1 or len(pending) <= 1:
            for item in pending:
                yield fn(item)
            return
        context = (
            multiprocessing.get_context(self.start_method)
            if self.start_method
            else multiprocessing.get_context()
        )
        pool = context.Pool(processes=self.workers)
        try:
            yield from pool.imap_unordered(fn, pending)
        finally:
            # terminate() (not close()) so an early generator close --
            # the fail-fast path -- kills in-flight workers too
            pool.terminate()
            pool.join()

    def __repr__(self) -> str:
        return f"MultiprocessingEngine(workers={self.workers})"


class ShardedEngine:
    """Fans scenario specs across shard hosts (subprocess or HTTP).

    The cross-host scaling tier behind the same :class:`Engine` seam:
    ``imap`` partitions the items with the deterministic shard planner,
    hands shards to :class:`~repro.dispatch.Host`\\ s under the
    dispatcher's work-stealing schedule (default hosts: one ``python -m
    repro.scenarios --shard`` subprocess per shard; pass a pool of
    :class:`~repro.dispatch.HttpHost` for remote ``python -m
    repro.dispatch.worker`` daemons), and yields the merged verdicts.
    Because shard reports cross the host boundary as JSON, the work
    units must be :class:`~repro.scenarios.regression.ScenarioSpec` run
    through ``run_scenario`` -- the one fan-out whose results have a
    wire form.  Anything else raises ``TypeError``.

    The last dispatch's bookkeeping (per-shard hosts, retries,
    duplicate completions) is kept on :attr:`last_outcome` for
    reporting layers.
    """

    name = "sharded"

    def __init__(
        self,
        shards: int = 2,
        hosts: Optional[Any] = None,
        max_attempts: Optional[int] = None,
        workers_per_shard: Optional[int] = None,
    ):
        if shards < 1:
            raise ValueError(f"shard count must be >= 1, got {shards}")
        self.shards = shards
        self.workers = shards
        self.hosts = hosts
        self.max_attempts = max_attempts
        self.workers_per_shard = workers_per_shard
        self.last_outcome: Optional[Any] = None

    def imap(
        self, fn: Callable[[_Item], _Result], items: Iterable[_Item]
    ) -> Iterator[_Result]:
        """Dispatch the specs across shard hosts; yield merged verdicts."""
        # imported lazily: repro.dispatch builds on repro.scenarios,
        # which imports this module at its top level
        from ..dispatch import ShardDispatcher
        from ..scenarios.regression import ScenarioSpec, run_scenario

        specs = list(items)
        if fn is not run_scenario or not all(
            isinstance(item, ScenarioSpec) for item in specs
        ):
            raise TypeError(
                "ShardedEngine only runs scenario regressions "
                "(run_scenario over ScenarioSpec items); other fan-outs "
                "have no cross-host wire form"
            )
        dispatcher = ShardDispatcher(
            specs,
            shards=self.shards,
            hosts=self.hosts,
            max_attempts=self.max_attempts,
            workers_per_shard=self.workers_per_shard,
        )
        outcome = dispatcher.run()
        self.last_outcome = outcome
        yield from outcome.report.verdicts

    def __repr__(self) -> str:
        return f"ShardedEngine(shards={self.shards})"


def _coordinator_engine(**options: Any) -> Engine:
    """Factory for the coordinator-fleet engine, imported lazily.

    :mod:`repro.coordinator.client` imports the regression wire forms,
    which import this module at their top level -- the same cycle
    :class:`ShardedEngine` breaks by importing inside ``imap``.
    """
    from ..coordinator.client import CoordinatorEngine

    return CoordinatorEngine(**options)


#: The registered engine kinds, by name (the CLI / config seam).
ENGINES: dict = {
    "serial": SerialEngine,
    "multiprocessing": MultiprocessingEngine,
    "sharded": ShardedEngine,
    "coordinator": _coordinator_engine,
}


def engine_from_name(name: str, **options: Any) -> Engine:
    """Instantiate a registered engine by name with its options."""
    try:
        factory = ENGINES[name]
    except KeyError:
        raise ValueError(
            f"unknown engine {name!r} (registered: {', '.join(sorted(ENGINES))})"
        ) from None
    return factory(**options)


def resolve_engine(
    workers: Optional[int],
    n_items: int,
    start_method: Optional[str] = None,
) -> Engine:
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
    return MultiprocessingEngine(workers, start_method=start_method)
