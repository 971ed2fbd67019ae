"""The cross-host engine and the one engine selection.

:class:`ShardedEngine` puts the shard dispatcher behind the
:class:`~repro.scenarios.engines.Engine` seam, and
:func:`select_engine` is the single place that turns a fan-out's
``workers`` / ``shards`` / ``hosts`` / ``coordinator`` arguments into
an engine.  The workbench session and ``python -m repro regress``
both call it, so every flag means the same thing at every tier.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Optional, Sequence, TypeVar

from ..scenarios.engines import Engine, resolve_engine
from ..scenarios.regression import ScenarioSpec, run_scenario
from .dispatcher import ShardDispatcher
from .planner import shards_for_hosts

_Item = TypeVar("_Item")
_Result = TypeVar("_Result")


class ShardedEngine:
    """Fans scenario specs across shard hosts (subprocess or HTTP).

    The cross-host scaling tier behind the same
    :class:`~repro.scenarios.engines.Engine` seam: ``imap`` partitions
    the items with the deterministic shard planner, hands shards to
    :class:`~repro.dispatch.Host`\\ s under the dispatcher's
    work-stealing schedule (default hosts: one ``python -m repro
    regress --shard`` subprocess per shard; pass a pool of
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


def select_engine(
    workers: Optional[int],
    shards: Optional[int],
    hosts: Optional[Sequence[Any]],
    n_specs: int,
    coordinator: Optional[str] = None,
    token: Optional[str] = None,
) -> Engine:
    """Engine for a scenario fan-out of ``n_specs`` sized by its arguments.

    ``coordinator`` (a daemon URL) wins over everything local: the
    whole fan-out ships to the elastic fleet as one job, with
    ``token`` as the fleet's shared bearer secret.  ``hosts`` (a pool
    of :class:`~repro.dispatch.Host`\\ s, e.g. from
    :func:`repro.dispatch.parse_hosts`) selects cross-host dispatch
    with ``shards`` defaulting to the planner's oversubscription so
    work stealing has a tail to rebalance; plain ``shards=N`` fans
    over N local subprocess hosts; neither falls back to the local
    serial/multiprocessing heuristic.  ``workers`` sizes the pool
    inside each local shard (a ``--shards`` subprocess); an HTTP worker
    daemon ignores it and runs each shard on one child per CPU it may
    use.
    """
    if coordinator:
        # the coordinator layer builds on this one; only a fleet run
        # pays for importing it
        from ..coordinator.client import CoordinatorEngine

        return CoordinatorEngine(url=coordinator, token=token)
    if hosts:
        hosts = list(hosts)
        return ShardedEngine(
            shards or shards_for_hosts(len(hosts), n_specs),
            hosts=hosts,
            workers_per_shard=workers,
        )
    if shards is not None:
        return ShardedEngine(shards, workers_per_shard=workers)
    return resolve_engine(workers, n_specs)
