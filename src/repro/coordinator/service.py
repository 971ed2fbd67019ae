"""The coordinator's core: worker registry, job queue, elastic dispatch.

Pure service objects with no HTTP in sight -- the daemon
(:mod:`.daemon`) is a thin wire adapter over :class:`Coordinator`, and
the elastic churn tests drive this layer directly with injected host
factories.

The pieces:

* :class:`WorkerRegistry` -- the live worker pool.  Workers register
  an address, heartbeat to stay live, and are pruned after
  ``stale_after`` seconds of silence; the registry builds one
  :class:`~repro.dispatch.http_host.HttpHost` per worker (via an
  injectable factory), primed with a job's spec list while the job
  runs and made to forget it when the job ends.
* :class:`Job` -- one submitted regression: a spec-list fingerprint,
  its seed set, a lifecycle status, and eventually the merged
  report's result-store key (or the abort reason).  The job table
  keeps every queued and running job and the newest
  :data:`FINISHED_JOBS_KEPT` finished ones.
* :class:`Coordinator` -- ties them together.  Spec lists arrive
  through ``POST /specs`` in the worker's bounded LRU spec cache
  (:func:`~repro.dispatch.worker.make_spec_cache`); ``submit`` names
  one by fingerprint, and a queued job keeps its own list, so an
  eviction cannot break a job already accepted.  ``submit`` answers from
  the persistent result store (a :class:`~repro.store.ContentStore` of
  :class:`StoredReport` entries) when the exact
  ``(fingerprint, seed set)`` ran before (digest re-verified on read),
  otherwise queues a job; ``run_next`` executes the oldest queued job
  over *whatever workers are live while it runs* -- the pool may grow
  (a worker registers mid-run and starts stealing shards) and shrink
  (a worker dies mid-shard; its shard is re-queued elsewhere) without
  changing the merged digest, because shard content is a pure function
  of the spec list and the merge re-sorts canonically.

Jobs are additionally *resumable*: every completed shard's report is
checkpointed to the shard store (same entries, keyed by the shard's
plan geometry too) as it lands, so a job
that dies mid-run (every worker gone, daemon killed) picks up from its
last completed shard on resubmission -- checkpointed shards are
pre-completed from disk, only the remainder is dispatched, and the
merged digest is byte-identical to an uninterrupted run.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from collections import deque

from ..dispatch.dispatcher import (
    DispatchError,
    ShardQueue,
    merge_reports,
    primed_hosts,
)
from ..dispatch.hosts import Host, HostFailure, ShardWork
from ..dispatch.http_host import HttpHost
from ..dispatch.planner import OVERSUBSCRIPTION, plan_shards
from ..dispatch.worker import make_spec_cache
from ..obs.metrics import MetricsRegistry
from ..obs.runtime import OBS
from ..scenarios.regression import RegressionReport, ScenarioSpec
from ..service import BadRequest, NotFound
from ..store import ContentStore, KeyMismatchError

#: Failure kinds that mean "the worker itself is gone", retiring it
#: from the pool, as opposed to "this shard's run went wrong on an
#: otherwise healthy worker" (non-200, garbage-json, digest-mismatch,
#: bad-report), which only re-queues the shard.
FATAL_WORKER_KINDS = frozenset({"refused", "reset", "timeout", "transport"})


#: Store entry wire-format version, bumped if the entry layout changes.
STORE_VERSION = 1


def store_key(
    fingerprint: str, seeds: Sequence[int], shard: Tuple[int, ...] = ()
) -> str:
    """The filename-safe key for one ``(fingerprint, seed set)`` entry.

    The fingerprint already covers the full spec content (seeds
    included), but the key states the seed set explicitly so the
    pairing the paper's regression protocol cares about -- *which
    seeds produced this digest* -- is part of the identity.  A shard
    resume checkpoint adds its plan geometry ``(index, of)``.
    """
    seed_part = ",".join(str(seed) for seed in sorted(set(seeds)))
    key = hashlib.sha256(
        f"{fingerprint}:{seed_part}".encode("utf-8")
    ).hexdigest()[:32]
    return key + (f".shard-{shard[0]}-of-{shard[1]}" if shard else "")


class StoredReport(NamedTuple):
    """One stored report and the job identity it answers.

    A merged job report has no ``shard``; a shard resume checkpoint
    carries its ``(index, of)``.  Decoding rebuilds the report from its
    wire form and re-verifies the recorded digest against the verdict
    lines, so a rotted or tampered entry never decodes.
    """

    fingerprint: str
    seeds: Tuple[int, ...]
    report: RegressionReport
    shard: Tuple[int, ...] = ()

    def key(self) -> str:
        """The store key this entry belongs under."""
        return store_key(self.fingerprint, self.seeds, self.shard)

    def to_json(self) -> Dict[str, Any]:
        """The on-disk document."""
        return {
            "version": STORE_VERSION,
            "fingerprint": self.fingerprint,
            "seeds": sorted(set(self.seeds)),
            "shard": list(self.shard),
            "report": self.report.to_json(),
        }

    @classmethod
    def from_json(cls, doc: Dict[str, Any]) -> "StoredReport":
        """Decode and verify one document (raises on any corruption)."""
        stored = doc["report"]
        report = RegressionReport.from_json(stored)
        if report.digest() != stored["digest"]:
            raise ValueError("stored digest does not match content")
        return cls(
            doc["fingerprint"], tuple(doc["seeds"]), report, tuple(doc["shard"])
        )


def report_store(directory: str) -> ContentStore:
    """A directory of :class:`StoredReport` entries, read from disk
    (and re-verified) on every fetch."""
    return ContentStore(
        key_of=StoredReport.key,
        encode=StoredReport.to_json,
        decode=StoredReport.from_json,
        limit=0,
        directory=directory,
    )


@dataclass
class WorkerRecord:
    """One registered worker: its transport plus liveness bookkeeping."""

    address: str
    host: Host
    version: str = ""
    registered_at: float = 0.0
    last_seen: float = 0.0
    shards_completed: int = 0


def _default_host_factory(address: str, token: Optional[str]) -> HttpHost:
    """Build the production transport for one worker address."""
    return HttpHost(address, token=token)


class WorkerRegistry:
    """The live worker pool, fed by registrations and heartbeats.

    ``host_factory(address, token)`` is injectable so the elastic
    tests can register in-process fakes with controlled latency and
    failure behaviour; production uses
    :class:`~repro.dispatch.http_host.HttpHost`.
    """

    def __init__(
        self,
        token: Optional[str] = None,
        stale_after: float = 10.0,
        host_factory: Optional[Callable[[str, Optional[str]], Host]] = None,
    ):
        self.token = token
        self.stale_after = stale_after
        self.joins = 0
        self.leaves = 0
        self._factory = host_factory or _default_host_factory
        self._workers: Dict[str, WorkerRecord] = {}
        self._lock = threading.Lock()

    def register(self, address: str, version: str = "") -> WorkerRecord:
        """Add (or refresh) a worker; re-registering is idempotent."""
        now = time.monotonic()
        with self._lock:
            record = self._workers.get(address)
            if record is None:
                record = WorkerRecord(
                    address=address,
                    host=self._factory(address, self.token),
                    version=version,
                    registered_at=now,
                )
                self._workers[address] = record
                self.joins += 1
            record.last_seen = now
            if version:
                record.version = version
            return record

    def heartbeat(self, address: str) -> bool:
        """Refresh a worker's liveness; False = unknown, re-register."""
        with self._lock:
            record = self._workers.get(address)
            if record is None:
                return False
            record.last_seen = time.monotonic()
            return True

    def deregister(self, address: str) -> bool:
        """Remove a worker (clean shutdown or dispatch-detected death)."""
        with self._lock:
            record = self._workers.pop(address, None)
            if record is not None:
                self.leaves += 1
            return record is not None

    def live(self) -> List[WorkerRecord]:
        """Current pool, pruning workers silent past ``stale_after``."""
        horizon = time.monotonic() - self.stale_after
        with self._lock:
            stale = [
                address
                for address, record in self._workers.items()
                if record.last_seen < horizon
            ]
            for address in stale:
                del self._workers[address]
                self.leaves += 1
            return list(self._workers.values())

    def to_json(self) -> List[Dict[str, Any]]:
        """Status-endpoint view of the live pool."""
        now = time.monotonic()
        return [
            {
                "address": record.address,
                "version": record.version,
                "seconds_since_seen": round(now - record.last_seen, 3),
                "shards_completed": record.shards_completed,
            }
            for record in self.live()
        ]


#: Job lifecycle states, in order.
JOB_STATUSES = ("queued", "running", "done", "failed")

#: Finished (done or failed) jobs the coordinator keeps answering for;
#: past this many the oldest is forgotten and its id answers 404.
#: Queued and running jobs are always kept.
FINISHED_JOBS_KEPT = 256


@dataclass
class Job:
    """One submitted regression job and everything known about it.

    A done job holds its merged report's result-store key, not the
    report: :attr:`report_doc` reads (and re-verifies) it from
    ``store`` on each access.
    """

    job_id: str
    fingerprint: str
    seeds: Tuple[int, ...]
    n_specs: int
    status: str = "queued"
    from_cache: bool = False
    report_key: Optional[str] = None
    error: Optional[str] = None
    dispatch: Dict[str, Any] = field(default_factory=dict)
    submitted_at: float = field(default_factory=time.time)
    store: Optional[ContentStore] = field(default=None, repr=False, compare=False)

    @property
    def report_doc(self) -> Optional[Dict[str, Any]]:
        """The merged report's wire form, read from the result store
        (None until the job is done, or if the entry is gone)."""
        if self.report_key is None or self.store is None:
            return None
        stored = self.store.fetch(self.report_key)
        return None if stored is None else stored.report.to_json()

    def to_json(self) -> Dict[str, Any]:
        """The ``GET /jobs/<id>`` wire form."""
        return {
            "job": self.job_id,
            "status": self.status,
            "fingerprint": self.fingerprint,
            "seeds": list(self.seeds),
            "specs": self.n_specs,
            "from_cache": self.from_cache,
            "report": self.report_doc,
            "error": self.error,
            "dispatch": self.dispatch,
        }


class Coordinator:
    """Job queue + spec cache + result store over an elastic worker pool.

    One coordinator serves many clients: a spec list is uploaded into
    :attr:`spec_cache` (keyed by
    :func:`~repro.dispatch.planner.specs_fingerprint`, bounded like a
    worker's; again after an eviction), submissions reference the
    fingerprint, repeat submissions are served straight from the result store rooted at ``store_path``
    (shard resume checkpoints live in its ``shards`` subdirectory).
    Jobs run one at a time in submission order (the worker pool is the
    parallelism, not the job queue).
    """

    def __init__(
        self,
        store_path: str,
        registry: Optional[WorkerRegistry] = None,
        token: Optional[str] = None,
        max_attempts: int = 6,
        idle_timeout: float = 30.0,
        poll_interval: float = 0.05,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.store = report_store(store_path)
        self.shard_store = report_store(os.path.join(store_path, "shards"))
        self.registry = registry or WorkerRegistry(token=token)
        self.max_attempts = max_attempts
        self.idle_timeout = idle_timeout
        self.poll_interval = poll_interval
        # the daemon's own registry, never the process-global OBS one
        self.metrics = metrics or MetricsRegistry(enabled=True)
        self.started_monotonic = time.monotonic()
        self.spec_cache = make_spec_cache()
        self._jobs: Dict[str, Job] = {}
        #: finished job ids, oldest first (bounded by FINISHED_JOBS_KEPT)
        self._finished: Deque[str] = deque()
        # a queued job carries its own spec list: the LRU may evict it
        self._queue: Deque[Tuple[Job, List[ScenarioSpec]]] = deque()
        self._counter = 0
        self._lock = threading.Lock()

    # -- submission ---------------------------------------------------------------

    def submit(
        self,
        fingerprint: Optional[str] = None,
        specs: Optional[Sequence[ScenarioSpec]] = None,
    ) -> Job:
        """Queue a regression (or answer it straight from the store).

        ``fingerprint`` alone names a list uploaded to
        :attr:`spec_cache` (``POST /specs``) and raises
        :class:`~repro.dispatch.worker.UnknownFingerprintError` when it
        was never uploaded or has been evicted.  ``specs`` (in-process
        callers) puts the list into the cache first.  A store hit
        returns an already-``done`` job with ``from_cache`` set -- no
        worker is touched and the stored report's digest was
        re-verified by the store read.
        """
        if specs is not None:
            specs = list(specs)
            try:
                fingerprint = self.spec_cache.put(specs, key=fingerprint)
            except KeyMismatchError as exc:
                raise BadRequest(f"fingerprint mismatch: {exc}") from exc
        elif fingerprint is None:
            raise BadRequest("submit needs a fingerprint or a spec list")
        else:
            specs = self.spec_cache.get(fingerprint)
        seeds = tuple(sorted({spec.seed for spec in specs}))
        with self._lock:
            self._counter += 1
            job = Job(
                job_id=f"job-{self._counter:04d}-{fingerprint[:8]}",
                fingerprint=fingerprint,
                seeds=seeds,
                n_specs=len(specs),
                store=self.store,
            )
            self._jobs[job.job_id] = job
        self.metrics.counter("coordinator.jobs_submitted").inc()
        key = store_key(fingerprint, seeds)
        if self.store.fetch(key) is not None:
            job.status = "done"
            job.from_cache = True
            job.report_key = key
            self._finish(job)
            self.metrics.counter("coordinator.jobs_from_store").inc()
            return job
        with self._lock:
            self._queue.append((job, specs))
        return job

    def job(self, job_id: str) -> Job:
        """Look a job up by id (:class:`NotFound` -> daemon 404, also
        for a finished job the table has since forgotten)."""
        with self._lock:
            if job_id not in self._jobs:
                raise NotFound(f"unknown or expired job {job_id!r}")
            return self._jobs[job_id]

    def _finish(self, job: Job) -> None:
        """Record ``job`` as finished; forget the oldest finished jobs
        beyond :data:`FINISHED_JOBS_KEPT`."""
        with self._lock:
            self._finished.append(job.job_id)
            while len(self._finished) > FINISHED_JOBS_KEPT:
                self._jobs.pop(self._finished.popleft(), None)

    def jobs(self) -> List[Job]:
        """Every job this coordinator has seen, oldest first."""
        with self._lock:
            return sorted(self._jobs.values(), key=lambda j: j.job_id)

    # -- execution ----------------------------------------------------------------

    def run_next(self) -> Optional[Job]:
        """Run the oldest queued job to completion; None = queue empty."""
        with self._lock:
            if not self._queue:
                return None
            job, specs = self._queue.popleft()
        self._run_job(job, specs)
        return job

    def run_pending(self) -> int:
        """Drain the queue serially; returns how many jobs ran."""
        ran = 0
        while self.run_next() is not None:
            ran += 1
        return ran

    def _bytes_saved(self) -> int:
        """Fleet-wide spec-cache bytes avoided so far (best effort)."""
        return sum(
            getattr(record.host, "bytes_saved", 0)
            for record in self.registry.live()
        )

    def _run_job(self, job: Job, specs: List[ScenarioSpec]) -> None:
        """Execute one job over the elastic pool (the tentpole loop).

        Shards are planned once from the job's spec list; serving
        threads are spawned for workers as they appear (including ones
        that register while the job is already running) and retire
        their worker on connection-class failures.  The monitor loop
        re-opens shards whose exclusions cover every live worker --
        the churn case the fixed-pool dispatcher never sees -- and
        aborts only after ``idle_timeout`` seconds with no live worker
        at all.
        """
        if OBS.enabled:
            with OBS.tracer.span(
                "coordinator.job", "coordinator", job=job.job_id,
                fingerprint=job.fingerprint, specs=job.n_specs,
            ) as span:
                self._run_job_inner(job, specs)
                span.set(status=job.status, from_cache=job.from_cache)
            return
        self._run_job_inner(job, specs)

    def _run_job_inner(self, job: Job, specs: List[ScenarioSpec]) -> None:
        job.status = "running"
        started = time.perf_counter()
        live = self.registry.live()
        shard_count = max(
            1, min(len(specs), max(4, OVERSUBSCRIPTION * max(1, len(live))))
        )
        plan = plan_shards(specs, shard_count)
        shards = [shard for shard in plan if shard.specs]
        # Resume: shards whose completed report survived an earlier,
        # interrupted run of this exact (fingerprint, seeds, plan) are
        # pre-completed from the shard store instead of re-dispatched.
        # The plan is deterministic for a given live-pool size, so a
        # resubmission against the same pool reuses every checkpoint;
        # a different pool size replans and the stale entries simply
        # miss.
        precompleted: List[Tuple[Any, RegressionReport]] = []
        remaining = []
        for shard in shards:
            cached = self.shard_store.fetch(
                store_key(job.fingerprint, job.seeds, (shard.index, shard.of))
            )
            if cached is not None and len(cached.report.verdicts) == len(
                shard.specs
            ):
                precompleted.append((shard, cached.report))
            else:
                remaining.append(shard)
        if precompleted:
            self.metrics.counter("coordinator.checkpoint.resume").inc()
            self.metrics.counter(
                "coordinator.checkpoint.shards_skipped"
            ).inc(len(precompleted))
        queue = ShardQueue(remaining, [], self.max_attempts)
        threads: Dict[str, threading.Thread] = {}
        dead: set = set()
        bytes_saved_before = self._bytes_saved()

        def serve(record: WorkerRecord) -> None:
            host = record.host
            while True:
                pending = queue.take(host.name)
                if pending is None:
                    return
                work = ShardWork(
                    shard=pending.shard,
                    spec_file="",
                    fingerprint=job.fingerprint,
                )
                attempt_started = time.perf_counter()
                try:
                    report = host.run_shard(work)
                except HostFailure as exc:
                    queue.fail(pending, host.name, exc.reason, kind=exc.kind)
                    if exc.kind in FATAL_WORKER_KINDS:
                        dead.add(host.name)
                        if self.registry.deregister(record.address):
                            self.metrics.counter(
                                "coordinator.worker_deaths"
                            ).inc()
                        return
                except Exception as exc:  # noqa: BLE001 -- a crashed serving thread must abort, not hang, the job
                    queue.abort(
                        DispatchError(
                            f"worker {host.name} crashed the coordinator on "
                            f"{pending.shard.label}: "
                            f"{type(exc).__name__}: {exc}"
                        )
                    )
                    return
                else:
                    if queue.complete(
                        pending,
                        host.name,
                        report,
                        wall_seconds=time.perf_counter() - attempt_started,
                    ):
                        record.shards_completed += 1
                        # Checkpoint the completed shard so a job
                        # interrupted later resumes past it.
                        self.shard_store.put(
                            StoredReport(
                                job.fingerprint,
                                job.seeds,
                                report,
                                (pending.shard.index, pending.shard.of),
                            )
                        )

        def serve_primed(record: WorkerRecord) -> None:
            # one prime per worker per job, forgotten when its serving ends
            with primed_hosts([record.host], job.fingerprint, specs):
                serve(record)

        idle_since: Optional[float] = None
        while not queue.finished:
            live_names = set()
            for record in self.registry.live():
                name = record.host.name
                if name in dead:
                    continue
                live_names.add(name)
                if name not in threads:
                    queue.add_host(name)
                    thread = threading.Thread(
                        target=serve_primed,
                        args=(record,),
                        name=f"coordinator-{name}",
                        daemon=True,
                    )
                    threads[name] = thread
                    thread.start()
            if live_names:
                idle_since = None
                queue.release_exclusions(live_names)
            else:
                if idle_since is None:
                    idle_since = time.monotonic()
                elif time.monotonic() - idle_since > self.idle_timeout:
                    queue.abort(
                        DispatchError(
                            f"no live workers for {self.idle_timeout:.0f}s "
                            f"with {job.job_id} incomplete -- register a "
                            "worker and resubmit"
                        )
                    )
                    break
            time.sleep(self.poll_interval)
        for thread in threads.values():
            thread.join(timeout=10)
        error = queue.error
        if error is not None:
            job.status = "failed"
            job.error = str(error)
            self._finish(job)
            self.metrics.counter("coordinator.jobs_failed").inc()
            return
        results = queue.results(remaining)
        merged = merge_reports(
            [report for _, report in precompleted]
            + [report for _, report in results]
        )
        merged.wall_seconds = time.perf_counter() - started
        merged.workers = len(shards) or 1
        report_key = self.store.put(StoredReport(job.fingerprint, job.seeds, merged))
        for shard in shards:
            self.shard_store.discard(
                store_key(job.fingerprint, job.seeds, (shard.index, shard.of))
            )
        saved_delta = max(0, self._bytes_saved() - bytes_saved_before)
        job.dispatch = {
            "shards": len(shards),
            "shards_resumed": len(precompleted),
            "hosts": sorted({run.host for run, _ in results}),
            "retries": sum(run.attempts - 1 for run, _ in results),
            "duplicates": queue.duplicates,
            "worker_joins": self.registry.joins,
            "worker_leaves": self.registry.leaves,
            "spec_cache_bytes_saved": saved_delta,
        }
        job.report_key = report_key
        job.status = "done"
        self._finish(job)
        self.metrics.counter("coordinator.jobs_completed").inc()
        self.metrics.counter("coordinator.shards_dispatched").inc(len(shards))
        self.metrics.counter("coordinator.spec_cache_bytes_saved").inc(
            saved_delta
        )
        self.metrics.histogram("coordinator.job_seconds").observe(
            merged.wall_seconds
        )

    # -- status -------------------------------------------------------------------

    def status(self) -> Dict[str, Any]:
        """The ``GET /status`` document."""
        with self._lock:
            queued = len(self._queue)
            jobs = len(self._jobs)
        return {
            "ok": True,
            "uptime_seconds": round(
                time.monotonic() - self.started_monotonic, 3
            ),
            "workers": self.registry.to_json(),
            "worker_joins": self.registry.joins,
            "worker_leaves": self.registry.leaves,
            "jobs": jobs,
            "jobs_queued": queued,
            "spec_lists_cached": len(self.spec_cache),
            "store_entries": len(self.store),
            "store_corruptions": self.store.corruptions,
            "shard_checkpoints": len(self.shard_store),
        }
