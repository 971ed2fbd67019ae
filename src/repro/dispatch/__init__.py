"""Sharded regression dispatch: partition, fan over hosts, merge.

The scaling tier above the local engines of
:mod:`repro.scenarios.engines`.  A regression's spec list is
partitioned into deterministic shards (:mod:`.planner`), each shard
runs on a :class:`Host` -- a ``python -m repro regress --spec-file F
--shard K/N`` subprocess on this machine (:mod:`.hosts`) or a
``python -m repro.dispatch.worker`` HTTP daemon on another one
(:mod:`.http_host` / :mod:`.worker`) -- and the per-shard reports fold
back together in canonical spec order (:mod:`.dispatcher`), so the
merged :class:`~repro.scenarios.regression.RegressionReport` digest is
byte-identical to a serial run at any shard count, including after
host failures, retries and work-stealing races.

:func:`select_engine` (:mod:`.engine`) is the one place that picks an
engine from ``workers``, ``shards``, ``hosts`` and ``coordinator``;
:class:`ShardedEngine` mounts the dispatcher behind the engine seam.

Three ways in:

* engine seam -- ``Workbench(...).regress(shards=3)`` or
  ``regress(hosts=parse_hosts("h1:8421,h2:8421"))``,
* CLI -- ``python -m repro regress --shards 3`` (local subprocess
  hosts), ``--hosts h1:8421,h2:8421`` (remote HTTP workers) or
  ``--shard K/N`` + ``--merge`` (manual cross-host dispatch),
* direct -- ``ShardDispatcher(specs, shards=3).run()``.

``docs/dispatch.md`` specifies the wire contract and the scheduler.

The HTTP transport (:mod:`.http_host`) loads on first use of one of
its names, so a serial or subprocess-sharded session never imports it.
"""

from .dispatcher import (
    DispatchError,
    DispatchOutcome,
    ShardDispatcher,
    ShardQueue,
    ShardRun,
    merge_reports,
)
from .engine import ShardedEngine, select_engine
from .hosts import (
    FAILURE_KINDS,
    Host,
    HostFailure,
    InProcessHost,
    LocalSubprocessHost,
    ShardWork,
)
from .planner import (
    OVERSUBSCRIPTION,
    Shard,
    plan_digest,
    plan_shards,
    shards_for_hosts,
    specs_fingerprint,
)

__all__ = [
    "DispatchError",
    "DispatchOutcome",
    "ShardDispatcher",
    "ShardQueue",
    "ShardRun",
    "merge_reports",
    "ShardedEngine",
    "select_engine",
    "CachingHttpHost",
    "FAILURE_KINDS",
    "Host",
    "HostFailure",
    "HttpHost",
    "InProcessHost",
    "LocalSubprocessHost",
    "ShardWork",
    "parse_hosts",
    "OVERSUBSCRIPTION",
    "Shard",
    "plan_digest",
    "plan_shards",
    "shards_for_hosts",
    "specs_fingerprint",
]


def __getattr__(name: str):
    """Load the HTTP transport on first use of one of its names."""
    if name in ("CachingHttpHost", "HttpHost", "parse_hosts"):
        from . import http_host

        return getattr(http_host, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
