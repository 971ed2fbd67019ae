"""The coordinator daemon: ``python -m repro.coordinator --port N``.

A route table over :class:`~.service.Coordinator` on the shared JSON
service base (:mod:`repro.service`, which owns body reading, auth, the
error taxonomy and the server).  One long-lived daemon fronts an
elastic worker fleet: workers self-register and heartbeat, clients
submit regression jobs and poll for the merged report, and repeat
submissions are answered from the persistent result store without
touching a worker.

Endpoints (full contract in ``docs/coordinator.md``; every request and
response body is JSON):

``POST /workers/register``
    ``{"version": 1, "address": "host:port", "worker_version": ...}``
    -- a worker joins the pool.  Idempotent; re-registering refreshes
    liveness.
``POST /workers/heartbeat``
    Same body; ``404`` when the coordinator does not know the address
    (it restarted, or pruned the worker as stale) -- the worker reacts
    by re-registering.
``POST /workers/deregister``
    Clean worker shutdown.
``POST /specs``
    ``{"version": 1, "fingerprint": F, "specs": [...]}`` -- the
    worker's upload (:func:`~repro.dispatch.worker.store_specs_request`)
    into the coordinator's own bounded spec cache.
``POST /jobs``
    ``{"version": 1, "fingerprint": F}`` submits by reference to an
    uploaded list (``"specs"`` in the body: ``400``); ``404`` with
    ``"unknown spec fingerprint"`` (never uploaded, or evicted) asks
    the client to ``POST /specs`` and submit again.  The response is
    the job document; a result-store hit comes back already ``done``
    with ``from_cache`` set.
``GET /jobs/<id>``
    The job document: status, and once ``done`` the merged report
    (digest included) plus dispatch facts.
``POST /checkpoints``
    ``{"version": 1, "checkpoint": {...}}`` uploads one scenario
    checkpoint into the process-global registry so specs submitted
    with ``resume_from`` resolve it; the coordinator's per-worker hosts
    re-ship it to whichever worker draws the shard.  The worker's
    upload function
    (:func:`~repro.dispatch.worker.store_checkpoint_request`):
    malformed, truncated, or stale-version documents get ``400``.
``GET /status``
    Pool and queue overview (live workers, joins/leaves, store size).
``GET /metrics``
    The coordinator's counters and histograms
    (:meth:`repro.obs.MetricsRegistry.to_json` wire shape).
``GET /healthz``
    Bare liveness, always open.

Auth is the worker daemon's: started with ``--token SECRET`` every
endpoint except ``/`` and ``/healthz`` requires ``Authorization:
Bearer SECRET`` (``401`` otherwise).

Jobs execute on a single background runner thread in submission order
-- the worker pool is the parallelism, not the job queue.  In-process
embedding goes through :func:`start_coordinator`.
"""

from __future__ import annotations

import argparse
import sys
import threading
from typing import Any, Callable, Dict, Optional, Sequence

from ..cliutil import route_warnings_to_stderr
from ..service import BadRequest, JsonService, NotFound, ServiceHandle, serve_main
from .service import Coordinator, WorkerRegistry

#: Default on-disk result-store location (relative to the CWD the
#: daemon was started in).
DEFAULT_STORE = ".repro-results"


class _JobRunner(threading.Thread):
    """Single background thread draining the coordinator's job queue."""

    def __init__(self, coordinator: Coordinator, interval: float = 0.05):
        super().__init__(name="repro-coordinator-jobs", daemon=True)
        self.coordinator = coordinator
        self.interval = interval
        # not named _stop: threading.Thread has a private _stop() method
        self._halt = threading.Event()

    def run(self) -> None:
        """Run queued jobs to completion until :meth:`stop`."""
        while not self._halt.is_set():
            if self.coordinator.run_next() is None:
                self._halt.wait(self.interval)

    def stop(self) -> None:
        """End the loop after the current job (if any) finishes."""
        self._halt.set()
        self.join(timeout=30)


def _submit(coordinator: Coordinator, body: Dict[str, Any]) -> Dict[str, Any]:
    """``POST /jobs``: by the fingerprint of a ``POST /specs`` upload."""
    fingerprint = body.get("fingerprint")
    if "specs" in body or not isinstance(fingerprint, str) or not fingerprint:
        raise BadRequest(
            'a job is a string "fingerprint" alone: upload its spec list '
            "with POST /specs first"
        )
    return coordinator.submit(fingerprint=fingerprint).to_json()


def _worker_call(
    action: Callable[[str, Dict[str, Any]], bool]
) -> Callable[[Dict[str, Any]], Dict[str, Any]]:
    """A ``/workers/*`` route: validate the address, apply ``action``."""

    def call(body: Dict[str, Any]) -> Dict[str, Any]:
        address = body.get("address")
        if not isinstance(address, str) or not address:
            raise BadRequest('worker calls need an "address"')
        if not action(address, body):
            raise NotFound(f"unknown worker {address!r} -- re-register")
        return {"ok": True, "address": address}

    return call


def coordinator_service(
    coordinator: Coordinator, host: str = "127.0.0.1", port: int = 0
) -> JsonService:
    """Bind the coordinator's route table (not yet serving)."""
    from ..checkpoint.store import global_registry
    from ..dispatch.worker import store_checkpoint_request, store_specs_request

    registry = coordinator.registry

    def health(body: Dict[str, Any]) -> Dict[str, Any]:
        return {"ok": True, "role": "coordinator"}

    routes = {
        ("GET", "/"): health,
        ("GET", "/healthz"): health,
        ("GET", "/status"): lambda body: coordinator.status(),
        ("GET", "/metrics"): lambda body: {
            "ok": True,
            "metrics": coordinator.metrics.to_json(),
        },
        ("GET", "/jobs/*"): lambda body, job_id: coordinator.job(job_id).to_json(),
        ("POST", "/jobs"): lambda body: _submit(coordinator, body),
        ("POST", "/specs"): lambda body: store_specs_request(
            body, coordinator.spec_cache
        ),
        ("POST", "/workers/register"): _worker_call(
            lambda address, body: bool(
                registry.register(
                    address, version=str(body.get("worker_version", ""))
                )
            )
        ),
        ("POST", "/workers/heartbeat"): _worker_call(
            lambda address, body: registry.heartbeat(address)
        ),
        ("POST", "/workers/deregister"): _worker_call(
            lambda address, body: registry.deregister(address) or True
        ),
        ("POST", "/checkpoints"): lambda body: store_checkpoint_request(
            body,
            global_registry(),
            coordinator.metrics,
            counter="coordinator.checkpoint_uploads",
        ),
    }
    return JsonService(
        (host, port), "repro-coordinator", routes, token=registry.token
    )


class CoordinatorHandle(ServiceHandle):
    """An in-process coordinator daemon (tests, benchmarks, examples)."""

    @property
    def runner(self) -> _JobRunner:
        """The background job runner."""
        return self.companions[0]

    @property
    def coordinator(self) -> Coordinator:
        """The service object behind the routes."""
        return self.runner.coordinator


def _coordinator(
    store_path: str, token: Optional[str], stale_after: float, idle_timeout: float
) -> Coordinator:
    return Coordinator(
        store_path,
        registry=WorkerRegistry(token=token, stale_after=stale_after),
        idle_timeout=idle_timeout,
    )


def start_coordinator(
    port: int = 0,
    host: str = "127.0.0.1",
    store_path: str = DEFAULT_STORE,
    token: Optional[str] = None,
    stale_after: float = 10.0,
    idle_timeout: float = 30.0,
) -> CoordinatorHandle:
    """Serve the coordinator from daemon threads; port 0 = ephemeral.

    ``store_path`` roots the persistent result store; ``token`` is the
    fleet's shared bearer secret; ``stale_after`` bounds how long a
    silent worker stays in the pool; ``idle_timeout`` bounds how long a
    running job waits for the pool to become non-empty before failing.
    """
    coordinator = _coordinator(store_path, token, stale_after, idle_timeout)
    runner = _JobRunner(coordinator)
    handle = CoordinatorHandle(
        coordinator_service(coordinator, host, port), runner
    )
    runner.start()
    return handle


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry: bind, announce readiness on stdout, serve until killed."""
    parser = argparse.ArgumentParser(
        prog="repro.coordinator",
        description="Regression coordinator daemon: workers register into "
        "an elastic pool, clients submit jobs and poll for the merged "
        "report; repeat submissions are served from the result store.",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=8400,
        help="TCP port to listen on (0 picks an ephemeral port, "
        "announced on stdout)",
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="interface to bind (default loopback; 0.0.0.0 to serve "
        "a real fleet)",
    )
    parser.add_argument(
        "--store",
        default=DEFAULT_STORE,
        metavar="DIR",
        help=f"result-store directory (default {DEFAULT_STORE!r}; "
        "created if missing, survives restarts)",
    )
    parser.add_argument(
        "--token",
        default=None,
        help="shared fleet secret: require this bearer token on every "
        "endpoint except /healthz",
    )
    parser.add_argument(
        "--stale-after",
        type=float,
        default=10.0,
        help="seconds of heartbeat silence before a worker is pruned "
        "from the pool (default 10)",
    )
    parser.add_argument(
        "--idle-timeout",
        type=float,
        default=30.0,
        help="seconds a running job waits with zero live workers "
        "before failing (default 30)",
    )
    options = parser.parse_args(argv)
    route_warnings_to_stderr()
    coordinator = _coordinator(
        options.store, options.token, options.stale_after, options.idle_timeout
    )
    server = coordinator_service(coordinator, options.host, options.port)
    runner = _JobRunner(coordinator)
    runner.start()
    return serve_main(server, runner)

if __name__ == "__main__":
    sys.exit(main())
