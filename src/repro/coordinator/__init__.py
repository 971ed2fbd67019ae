"""Regression-as-a-service: an elastic coordinator over the shard fleet.

The tier above :mod:`repro.dispatch`'s fixed-pool dispatcher.  Where
``ShardDispatcher`` is handed a host list and owns it for one
dispatch, the coordinator daemon (``python -m repro.coordinator``) is
long-lived and its pool is *elastic*: workers
(``python -m repro.dispatch.worker --coordinator URL``) register
themselves, heartbeat to stay in, and may join or die while a job is
mid-flight -- the merged
:class:`~repro.scenarios.regression.RegressionReport` digest stays
byte-identical to a serial run regardless, because shard content is a
pure function of the spec list and the merge re-sorts canonically.

Around that core, the service adds what a shared daemon needs:

* **spec caching** -- a regression's spec list crosses the wire once,
  keyed by :func:`~repro.dispatch.planner.specs_fingerprint`; jobs and
  worker shard requests then reference the 16-hex key,
* **a persistent result store** (a :class:`~repro.store.ContentStore`
  of :class:`~.service.StoredReport` entries) -- repeat submissions of
  the same ``(fingerprint, seed set)`` are answered from disk with the
  digest re-verified on read,
* **shared-secret auth** -- one ``--token`` across coordinator,
  workers, and clients.

Three ways in: the daemon's HTTP API (:mod:`.daemon`, contract in
``docs/coordinator.md``), the blocking client
(:class:`~.client.CoordinatorClient`), and the workbench seam
(:class:`~.client.CoordinatorEngine`, i.e. ``regress(coordinator=URL)``
or ``python -m repro regress --coordinator URL``).
"""

from .client import CoordinatorClient, CoordinatorEngine, CoordinatorError
from .daemon import CoordinatorHandle, start_coordinator
from .service import (
    Coordinator,
    Job,
    StoredReport,
    UnknownFingerprintError,
    WorkerRegistry,
    report_store,
    store_key,
)

__all__ = [
    "Coordinator",
    "CoordinatorClient",
    "CoordinatorEngine",
    "CoordinatorError",
    "CoordinatorHandle",
    "Job",
    "StoredReport",
    "UnknownFingerprintError",
    "WorkerRegistry",
    "report_store",
    "start_coordinator",
    "store_key",
]
