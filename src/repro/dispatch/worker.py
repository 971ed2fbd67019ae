"""The shard worker daemon: ``python -m repro.dispatch.worker --port N``.

The remote end of the HTTP transport: a route table over the shared
JSON service base (:mod:`repro.service`, which owns body reading,
auth, the error taxonomy and the server).  A worker accepts one kind
of work -- "run this shard of a scenario regression" -- and speaks
nothing but the established JSON wire forms
(:class:`~repro.scenarios.regression.ScenarioSpec` in,
:class:`~repro.scenarios.regression.RegressionReport` out), so a
worker on another machine needs only this package and a port.

Endpoints (full wire contract in ``docs/dispatch.md``):

``POST /run``
    Body: ``{"version": 1, "shard": {"index": K, "of": N,
    "fingerprint": F}, "workers": M}``.  The worker re-derives the
    shard's slice from the ``POST /specs`` upload keyed by ``F`` with
    the shared deterministic planner, runs it through a
    :class:`~repro.scenarios.regression.RegressionRunner` (``M`` local
    worker processes, default 1 -- the shard is the unit of
    parallelism) and responds ``200`` with the report's ``to_json()``
    form, digest included.  ``404`` with ``"unknown spec fingerprint"``
    when the worker does not hold ``F``; inline ``"specs"`` get ``400``.

``POST /specs``
    Body: ``{"version": 1, "fingerprint": F, "specs": [...]}`` -- the
    spec-cache upload: one regression's full spec list, shipped once
    per worker and addressed by
    :func:`~repro.dispatch.planner.specs_fingerprint` thereafter.  A
    list that does not hash to ``F`` is refused (``400``).  The cache
    is a bounded LRU (:data:`SPEC_CACHE_LIMIT`); a ``/run`` that
    references an evicted entry gets the 404 and the client re-uploads.
    The coordinator's ``/specs`` is the same function.

``POST /checkpoints``
    Body: ``{"version": 1, "checkpoint": <wire doc>}`` -- the
    checkpoint upload backing ``ScenarioSpec.resume_from``, addressed
    by its SHA-256 digest thereafter.  Corrupt, truncated or
    stale-version documents get ``400``; a ``/run`` whose specs
    reference a digest this worker does not hold gets ``404`` with
    ``"unknown checkpoint"`` and the client re-uploads.  The cache is
    a bounded LRU (:data:`CHECKPOINT_CACHE_LIMIT`).

``GET /healthz``
    A JSON liveness document (version, uptime, shards served, cache
    sizes, PSL engine and compile-cache counters).

``GET /metrics``
    ``{"ok": true, "metrics": {...}}`` -- the worker's own counters and
    histograms (:meth:`repro.obs.MetricsRegistry.to_json`), which the
    dispatcher folds into the session report's fleet aggregate.

Auth: started with ``--token SECRET`` every endpoint except ``/`` and
``/healthz`` needs ``Authorization: Bearer SECRET`` (``401``).
Started with ``--coordinator URL`` the worker self-registers with a
coordinator daemon and heartbeats it every ``--heartbeat`` seconds
(re-registering whenever the coordinator forgot it), which is how an
elastic fleet grows.  In-process embedding goes through
:func:`start_worker`.
"""

from __future__ import annotations

import argparse
import sys
import threading
import time
from typing import Any, Dict, Optional, Sequence

from .. import __version__
from ..cliutil import route_warnings_to_stderr
from ..obs.metrics import MetricsRegistry
from ..service import (
    WIRE_VERSION,
    BadRequest,
    JsonService,
    NotFound,
    ServiceHandle,
    checked_envelope,
    encode,
    http_request,
    serve_main,
)
from ..store import ContentStore, KeyMismatchError

#: Spec-cache capacity in distinct fingerprints.  A worker usually
#: serves a handful of concurrent regressions; least recently used
#: entries are evicted and simply re-uploaded on the next reference.
SPEC_CACHE_LIMIT = 32

#: Checkpoint-cache capacity in distinct digests.  Checkpoints are an
#: order of magnitude bigger than spec lists (full simulation state
#: plus a monitor letter stream), so the worker keeps fewer of them;
#: eviction just costs the client one re-upload.
CHECKPOINT_CACHE_LIMIT = 16

#: Default seconds between heartbeats to a ``--coordinator``.
DEFAULT_HEARTBEAT = 2.0

#: A request the worker understood enough to refuse (-> 400).
WorkerError = BadRequest


class UnknownFingerprintError(NotFound):
    """A spec fingerprint this daemon does not hold (-> 404).

    Raised by a worker's ``/run`` and a coordinator's ``/jobs``; the
    404 tells the client to re-upload rather than treat the daemon as
    broken.
    """


class UnknownCheckpointDigestError(UnknownFingerprintError):
    """A /run referenced a checkpoint this worker does not hold (-> 404).

    Same 404 contract as :class:`UnknownFingerprintError`, but the
    error text names a *checkpoint* so the client re-ships via
    ``POST /checkpoints`` rather than ``POST /specs``.
    """


def make_spec_cache(limit: int = SPEC_CACHE_LIMIT) -> ContentStore:
    """A daemon's LRU of uploaded spec lists, keyed by fingerprint.

    A put whose list does not hash to its claimed fingerprint is
    refused, so a corrupt upload cannot poison later by-reference runs.
    """
    from .planner import specs_fingerprint

    return ContentStore(
        key_of=specs_fingerprint,
        limit=limit,
        missing=lambda fingerprint: UnknownFingerprintError(
            f"unknown spec fingerprint {fingerprint} "
            "(never uploaded, or evicted -- POST /specs and retry)"
        ),
    )


def make_checkpoint_cache(limit: int = CHECKPOINT_CACHE_LIMIT) -> ContentStore:
    """The worker's LRU of uploaded checkpoints, keyed by digest."""
    from ..checkpoint.store import checkpoint_store

    return checkpoint_store(
        limit=limit,
        missing=lambda digest: UnknownCheckpointDigestError(
            f"unknown checkpoint {digest} (never uploaded, or "
            "evicted -- POST /checkpoints and retry)"
        ),
    )


def store_specs_request(
    body: Dict[str, Any],
    cache: ContentStore,
    metrics: Optional[MetricsRegistry] = None,
) -> Dict[str, Any]:
    """Execute one ``POST /specs`` body against a spec cache.

    The one spec upload path of both daemons: the worker and the
    coordinator each store into their own :func:`make_spec_cache`.
    Pure request -> response like :func:`run_shard_request`; raises
    :class:`WorkerError` for malformed bodies and fingerprint
    mismatches.
    """
    from ..scenarios.regression import ScenarioSpec

    body = checked_envelope(body)
    fingerprint = body.get("fingerprint")
    if not isinstance(fingerprint, str) or not fingerprint:
        raise WorkerError('spec upload needs a string "fingerprint"')
    if not isinstance(body.get("specs"), list):
        raise WorkerError('spec upload needs a "specs" list')
    try:
        specs = [ScenarioSpec.from_json(doc) for doc in body["specs"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise WorkerError(f"unparseable spec in upload: {exc}") from exc
    try:
        cache.put(specs, key=fingerprint)
    except KeyMismatchError as exc:
        raise WorkerError(f"spec upload fingerprint mismatch: {exc}") from exc
    if metrics is not None:
        metrics.counter("worker.spec_uploads").inc()
        metrics.counter("worker.spec_upload_specs").inc(len(specs))
    return {"ok": True, "fingerprint": fingerprint, "specs": len(specs)}


def store_checkpoint_request(
    body: Dict[str, Any],
    store: ContentStore,
    metrics: Optional[MetricsRegistry] = None,
    counter: str = "worker.checkpoint_uploads",
) -> Dict[str, Any]:
    """Execute one ``POST /checkpoints`` body against a checkpoint store.

    The one upload path of both daemons: the worker stores into its
    bounded cache, the coordinator into the process-global registry
    (counting under ``counter``).  The wire document is verified end
    to end by :meth:`~repro.checkpoint.snapshot.Checkpoint.from_json`
    -- wrong kind, truncated payload, stale/newer wire version and
    digest mismatch all surface as :class:`WorkerError` (-> 400) with
    the typed checkpoint error's message, so a corrupt upload can never
    poison a later by-reference resume.
    """
    from ..checkpoint.errors import CheckpointError
    from ..checkpoint.snapshot import Checkpoint

    body = checked_envelope(body)
    if not isinstance(body.get("checkpoint"), dict):
        raise WorkerError('checkpoint upload needs a "checkpoint" object')
    try:
        checkpoint = Checkpoint.from_json(body["checkpoint"])
    except CheckpointError as exc:
        raise WorkerError(f"rejected checkpoint upload: {exc}") from exc
    digest = store.put(checkpoint)
    if metrics is not None:
        metrics.counter(counter).inc()
    return {
        "ok": True,
        "digest": digest,
        "cycles_run": checkpoint.cycles_run,
        "label": checkpoint.spec.label,
    }


def _resolve_resume_checkpoints(
    specs: Sequence[Any],
    checkpoint_cache: Optional[ContentStore],
    workers: int,
    metrics: Optional[MetricsRegistry] = None,
) -> None:
    """Make every ``resume_from`` digest in ``specs`` resolvable.

    Digests are pulled from the worker's upload cache into the
    process-global checkpoint registry (where ``run_scenario``
    resolves them); a digest held by neither raises the 404-class miss
    so the client re-uploads.  With a multiprocess fan-out the registry
    additionally gets a disk spill so spawned children inherit the
    checkpoints through ``REPRO_CHECKPOINT_DIR``.
    """
    digests = sorted({s.resume_from for s in specs if s.resume_from})
    if not digests:
        return
    from ..checkpoint.store import ensure_spill_dir, global_registry

    registry = global_registry()
    if workers > 1:
        ensure_spill_dir()
        registry = global_registry()
    for digest in digests:
        if digest in registry:
            continue
        if checkpoint_cache is None:
            raise UnknownCheckpointDigestError(
                f"unknown checkpoint {digest} (this worker has no "
                "checkpoint cache; POST /checkpoints first)"
            )
        registry.put(checkpoint_cache.get(digest))
    if metrics is not None:
        metrics.counter("worker.checkpoint_resumes").inc(len(digests))


def run_shard_request(
    body: Dict[str, Any],
    spec_cache: ContentStore,
    metrics: Optional[MetricsRegistry] = None,
    checkpoint_cache: Optional[ContentStore] = None,
) -> Dict[str, Any]:
    """Execute one ``POST /run`` body and return the report wire form.

    Pure request -> response: no HTTP in sight, which is what the
    in-process tests exercise.  Raises :class:`WorkerError` for a
    malformed body (inline specs included) and
    :class:`UnknownFingerprintError` for a fingerprint ``spec_cache``
    does not hold; anything else propagating out is a genuine worker
    crash and maps to a 500.  ``metrics`` (the serving daemon's own
    registry, never the process-global one) receives the worker-side
    counters the ``GET /metrics`` endpoint reports.
    """
    # imported lazily so `--help` and handler import stay instant
    from ..scenarios.regression import RegressionRunner
    from .planner import plan_shards

    body = checked_envelope(body)
    shard = body.get("shard")
    if not isinstance(shard, dict) or "specs" in shard:
        raise WorkerError(
            'request needs a "shard" object of "index", "of" and '
            '"fingerprint" (specs go up once, through POST /specs)'
        )
    fingerprint, index, of = (shard.get(k) for k in ("fingerprint", "index", "of"))
    if not isinstance(fingerprint, str) or not isinstance(index, int) or not (
        isinstance(of, int) and 0 <= index < of
    ):
        raise WorkerError(
            "shard needs a string fingerprint and integer index/of with "
            f"0 <= index < of, got {fingerprint!r}, {index!r}, {of!r}"
        )
    # re-derive the slice from the cached list with the shared
    # planner, exactly like a --shard K/N child does
    specs = list(plan_shards(spec_cache.get(fingerprint), of)[index].specs)
    if metrics is not None:
        metrics.counter("worker.spec_cache_hits").inc()
    workers = body.get("workers") or 1
    _resolve_resume_checkpoints(specs, checkpoint_cache, workers, metrics)
    # spawn, not fork: this runs on a handler thread of a threading
    # HTTP server, and forking a pool while another handler thread may
    # hold a lock (stderr logging, imports) can deadlock the child
    started = time.perf_counter()
    report = RegressionRunner(
        specs, workers=workers, mp_start_method="spawn" if workers > 1 else None
    ).run()
    if metrics is not None:
        metrics.counter("worker.shards_served").inc()
        metrics.counter("worker.scenarios_run").inc(len(report.verdicts))
        metrics.counter("worker.scenarios_failed").inc(len(report.failed))
        metrics.counter("worker.transactions").inc(report.transactions)
        metrics.histogram("worker.shard_seconds").observe(
            time.perf_counter() - started
        )
    doc = report.to_json()
    doc["shard"] = {"index": index, "of": of}
    return doc


class _WorkerState:
    """One worker daemon's caches and counters, plus its route table."""

    def __init__(self) -> None:
        self.shards_served = 0
        self.spec_cache = make_spec_cache()
        self.checkpoint_cache = make_checkpoint_cache()
        self.started_monotonic = time.monotonic()
        # the daemon's own registry (not the process-global OBS one):
        # an in-process worker embedded by tests must not leak its
        # counters into -- or read them from -- the embedding run
        self.metrics = MetricsRegistry(enabled=True)

    def health_doc(self, body: Dict[str, Any]) -> Dict[str, Any]:
        """The ``GET /healthz`` body: liveness plus serving facts."""
        from ..psl.compiled import compile_cache_stats, default_engine

        return {
            "ok": True,
            "version": __version__,
            "uptime_seconds": round(time.monotonic() - self.started_monotonic, 3),
            "shards_served": self.shards_served,
            "spec_cache_entries": len(self.spec_cache),
            "checkpoint_cache_entries": len(self.checkpoint_cache),
            # the per-worker property-compilation cache: one compile
            # per distinct property, however many shards x seeds run
            "psl_engine": default_engine(),
            "compile_cache": compile_cache_stats(),
        }

    def run(self, body: Dict[str, Any]) -> Dict[str, Any]:
        """``POST /run``: one shard, counted once it answered."""
        doc = run_shard_request(
            body,
            self.spec_cache,
            metrics=self.metrics,
            checkpoint_cache=self.checkpoint_cache,
        )
        self.shards_served += 1
        return doc

    def routes(self) -> Dict[Any, Any]:
        """The worker's route table over the shared service base."""
        return {
            ("GET", "/"): self.health_doc,
            ("GET", "/healthz"): self.health_doc,
            ("GET", "/metrics"): lambda body: {
                "ok": True,
                "metrics": self.metrics.to_json(),
            },
            ("POST", "/run"): self.run,
            ("POST", "/specs"): lambda body: store_specs_request(
                body, self.spec_cache, metrics=self.metrics
            ),
            ("POST", "/checkpoints"): lambda body: store_checkpoint_request(
                body, self.checkpoint_cache, metrics=self.metrics
            ),
        }


def worker_service(
    host: str = "127.0.0.1", port: int = 0, token: Optional[str] = None
) -> JsonService:
    """Bind one worker daemon (not yet serving)."""
    return JsonService(
        (host, port), "repro-worker", _WorkerState().routes(), token=token
    )


class _CoordinatorLink(threading.Thread):
    """Background registration + heartbeat loop toward a coordinator.

    Registers the worker's advertised address on startup, heartbeats
    every ``interval`` seconds, and re-registers whenever the
    coordinator answers 404 (it restarted, or pruned us as stale) or
    the transport fails.  Failures are logged to stderr and retried --
    a worker must keep serving even while its coordinator is away.
    """

    def __init__(
        self,
        coordinator: str,
        advertise: str,
        token: Optional[str],
        interval: float = DEFAULT_HEARTBEAT,
    ):
        super().__init__(name="repro-worker-heartbeat", daemon=True)
        self.coordinator = coordinator.rstrip("/")
        if "://" not in self.coordinator:
            self.coordinator = f"http://{self.coordinator}"
        self.advertise = advertise
        self.token = token
        self.interval = interval
        # not named _stop: threading.Thread has a private _stop() method
        self._halt = threading.Event()
        self.registrations = 0
        self.heartbeats = 0

    def _announce(self, path: str) -> int:
        doc = {
            "version": WIRE_VERSION,
            "address": self.advertise,
            "worker_version": __version__,
        }
        status, _ = http_request(
            f"{self.coordinator}{path}", encode(doc), self.token, timeout=10.0
        )
        return status

    def run(self) -> None:
        """Register, then heartbeat until :meth:`stop` (daemon thread)."""
        registered = False
        while not self._halt.is_set():
            try:
                if not registered:
                    status = self._announce("/workers/register")
                    registered = status == 200
                    if registered:
                        self.registrations += 1
                else:
                    status = self._announce("/workers/heartbeat")
                    if status == 200:
                        self.heartbeats += 1
                    else:
                        registered = False       # coordinator forgot us
                        continue                 # re-register immediately
            except OSError as exc:
                registered = False
                sys.stderr.write(
                    f"repro-worker heartbeat to {self.coordinator} failed: {exc}\n"
                )
            self._halt.wait(self.interval)

    def stop(self) -> None:
        """Best-effort deregister, then end the loop."""
        self._halt.set()
        try:
            self._announce("/workers/deregister")
        except OSError:
            pass


class WorkerHandle(ServiceHandle):
    """An in-process worker daemon (tests, benchmarks, examples)."""

    @property
    def link(self) -> Optional[_CoordinatorLink]:
        """The coordinator heartbeat loop, when one was asked for."""
        return self.companions[0] if self.companions else None


def start_worker(
    port: int = 0,
    host: str = "127.0.0.1",
    token: Optional[str] = None,
    coordinator: Optional[str] = None,
    heartbeat: float = DEFAULT_HEARTBEAT,
) -> WorkerHandle:
    """Serve the worker endpoints from a daemon thread; port 0 = ephemeral.

    ``coordinator`` points at a coordinator daemon to self-register
    with (heartbeating every ``heartbeat`` seconds); ``token`` both
    guards this worker's endpoints and authenticates toward the
    coordinator -- one shared secret across the fleet.
    """
    server = worker_service(host, port, token)
    links = []
    if coordinator:
        bound_host, bound_port = server.server_address[:2]
        links.append(
            _CoordinatorLink(
                coordinator, f"{bound_host}:{bound_port}", token, heartbeat
            )
        )
    handle = WorkerHandle(server, *links)
    for link in links:
        link.start()
    return handle


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry: bind, announce readiness on stdout, serve until killed."""
    parser = argparse.ArgumentParser(
        prog="repro.dispatch.worker",
        description="Shard worker daemon: accepts POST /run shard "
        "requests and returns regression-report JSON.",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=8421,
        help="TCP port to listen on (0 picks an ephemeral port, "
        "announced on stdout)",
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="interface to bind (default loopback; 0.0.0.0 to serve "
        "a real dispatcher)",
    )
    parser.add_argument(
        "--token",
        default=None,
        help="shared fleet secret: refuse every endpoint but /healthz "
        "without this bearer token, and present it to --coordinator",
    )
    parser.add_argument(
        "--coordinator",
        default=None,
        metavar="URL",
        help="coordinator daemon to self-register with (e.g. "
        "http://10.0.0.1:8400); the worker joins its elastic pool "
        "and heartbeats until killed",
    )
    parser.add_argument(
        "--advertise",
        default=None,
        metavar="HOST:PORT",
        help="address to register at the coordinator (default: the "
        "bound host:port; needed when binding 0.0.0.0)",
    )
    parser.add_argument(
        "--heartbeat",
        type=float,
        default=DEFAULT_HEARTBEAT,
        help=f"seconds between coordinator heartbeats "
        f"(default {DEFAULT_HEARTBEAT})",
    )
    options = parser.parse_args(argv)
    route_warnings_to_stderr()
    server = worker_service(options.host, options.port, options.token)
    bound_host, bound_port = server.server_address[:2]
    links = []
    if options.coordinator:
        links.append(
            _CoordinatorLink(
                options.coordinator,
                options.advertise or f"{bound_host}:{bound_port}",
                options.token,
                interval=options.heartbeat,
            )
        )
    for link in links:
        link.start()
    return serve_main(server, *links)

if __name__ == "__main__":
    sys.exit(main())
