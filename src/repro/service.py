"""One JSON-over-HTTP service base for both daemons.

The shard worker (:mod:`repro.dispatch.worker`) and the coordinator
(:mod:`repro.coordinator.daemon`) are route tables over this module:
``(method, path) -> fn(body) -> doc``, where a path ending in ``*`` is
a prefix and its function also receives the rest of the path
(``GET /jobs/*`` serves ``GET /jobs/<id>``).  Everything else lives here exactly once:

* **one body reader** -- ``Content-Length`` must be a non-negative
  integer (else ``400``) no larger than :data:`MAX_BODY_BYTES` (else
  ``413``, answered without reading the body); the body must be a JSON
  object whose optional ``version`` is an integer no newer than
  :data:`WIRE_VERSION` (else ``400``);
* **one auth rule** -- with a token set, every route except ``/`` and
  ``/healthz`` needs ``Authorization: Bearer <token>``, compared with
  :func:`hmac.compare_digest` (else ``401``);
* **one error taxonomy** -- route functions raise :class:`BadRequest`
  (``400``), :class:`NotFound` (``404``) or any other exception
  (``500``); every error body is ``{"error": message, "kind": kind}``;
* **one threaded server**, one start/stop handle
  (:class:`ServiceHandle`) and one ready-line CLI idiom
  (:func:`serve_main`);
* **one client request helper** (:func:`http_request`) that attaches
  the bearer header, used by every caller of either daemon.
"""

from __future__ import annotations

import hmac
import json
import signal
import sys
import threading
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Optional, Tuple

#: Wire-format version both daemons speak; requests carrying a higher
#: version are rejected rather than half-understood.
WIRE_VERSION = 1

#: Largest request body either daemon reads, in bytes.  The biggest
#: bodies the test suite, CI and perfbench send are a 60-cycle
#: monitored checkpoint upload (32,623 B) and perfbench's regress-http
#: spec upload (8,452 B).  A monitored checkpoint grows ~480 B per
#: simulated cycle, so 16 MiB leaves room for ~35k-cycle checkpoints.
MAX_BODY_BYTES = 16 * 1024 * 1024

#: The routes that answer without the bearer token (liveness probes).
OPEN_PATHS = ("/", "/healthz")

Route = Callable[..., Dict[str, Any]]


class ServiceError(Exception):
    """Base of the error taxonomy; ``status`` is the HTTP answer."""

    status = 500
    kind = "crash"


class BadRequest(ServiceError, ValueError):
    """The request was understood enough to refuse (-> 400)."""

    status = 400
    kind = "bad-request"


class Unauthorized(ServiceError):
    """Missing or wrong bearer token (-> 401)."""

    status = 401
    kind = "unauthorized"


class NotFound(ServiceError, LookupError):
    """Unknown path, fingerprint, digest, job or worker (-> 404)."""

    status = 404
    kind = "not-found"


class BodyTooLarge(ServiceError):
    """``Content-Length`` above :data:`MAX_BODY_BYTES` (-> 413)."""

    status = 413
    kind = "too-large"


def checked_envelope(body: Any) -> Dict[str, Any]:
    """The request envelope rule: a JSON object with a known version."""
    if not isinstance(body, dict):
        raise BadRequest("request body must be a JSON object")
    version = body.get("version", WIRE_VERSION)
    if not isinstance(version, int) or isinstance(version, bool):
        raise BadRequest(f"wire version must be an integer, got {version!r}")
    if version > WIRE_VERSION:
        raise BadRequest(
            f"wire version {version} is newer than this daemon ({WIRE_VERSION})"
        )
    return body


def encode(doc: Dict[str, Any]) -> bytes:
    """The canonical JSON wire bytes of one document."""
    return json.dumps(doc, sort_keys=True).encode("utf-8")


class _JsonHandler(BaseHTTPRequestHandler):
    """Auth, body reading, routing and error mapping for every route."""

    protocol_version = "HTTP/1.1"
    server: "JsonService"

    def do_GET(self) -> None:  # noqa: N802 -- http.server API
        """Serve one GET route."""
        self._serve("GET")

    def do_POST(self) -> None:  # noqa: N802 -- http.server API
        """Serve one POST route."""
        self._serve("POST")

    def _serve(self, method: str) -> None:
        try:
            if self.path not in OPEN_PATHS and not self._authorized():
                raise Unauthorized(
                    f"missing or invalid bearer token ({self.server.name} "
                    "has --token)"
                )
            route, tail = self.server.route(method, self.path)
            body = self._read_body() if method == "POST" else {}
            doc = route(body, tail) if tail is not None else route(body)
        except ServiceError as exc:
            self._respond(exc.status, {"error": str(exc), "kind": exc.kind})
        except Exception as exc:  # noqa: BLE001 -- crash maps to 500, daemon survives
            self._respond(
                500,
                {
                    "error": f"request crashed: {type(exc).__name__}: {exc}",
                    "kind": ServiceError.kind,
                },
            )
        else:
            self._respond(200, doc)

    def _authorized(self) -> bool:
        token = self.server.token
        if not token:
            return True
        presented = self.headers.get("Authorization", "")
        return hmac.compare_digest(
            presented.encode("utf-8"), f"Bearer {token}".encode("utf-8")
        )

    def _read_body(self) -> Dict[str, Any]:
        """The one body reader: bounded length, JSON object, version."""
        text = self.headers.get("Content-Length", "0")
        try:
            length = int(text)
        except ValueError:
            length = -1
        if length < 0:
            raise BadRequest(
                f"Content-Length must be a non-negative integer, got {text!r}"
            )
        if length > MAX_BODY_BYTES:
            raise BodyTooLarge(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte cap"
            )
        if not length:
            return {}
        try:
            body = json.loads(self.rfile.read(length))
        except ValueError as exc:
            raise BadRequest(f"unparseable request body: {exc}") from exc
        return checked_envelope(body)

    def _respond(self, status: int, doc: Dict[str, Any]) -> None:
        payload = encode(doc)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        if status != 200:
            # the request body may be unread: never parse it as the
            # next request on this connection
            self.send_header("Connection", "close")
            self.close_connection = True
        self.end_headers()
        self.wfile.write(payload)

    def version_string(self) -> str:
        """``Server:`` header: the daemon's name."""
        return f"{self.server.name}/1"

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        """Request log to stderr; stdout carries only the ready line."""
        sys.stderr.write(
            f"{self.server.name} {self.address_string()} {format % args}\n"
        )


class JsonService(ThreadingHTTPServer):
    """A threaded JSON daemon serving one route table.

    Threaded so health probes answer while a long request (a shard
    run, a job dispatch) is in flight.  ``maintenance`` runs on the
    serving thread after every request and every idle poll -- the one
    place a daemon's main thread gets to act while it serves.
    """

    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        name: str,
        routes: Dict[Tuple[str, str], Route],
        token: Optional[str] = None,
        maintenance: Optional[Callable[[], None]] = None,
    ):
        super().__init__(address, _JsonHandler)
        self.name = name
        self.routes = routes
        self.token = token
        self.maintenance = maintenance

    def service_actions(self) -> None:
        """Run the ``maintenance`` hook (socketserver's loop calls this)."""
        if self.maintenance is not None:
            self.maintenance()

    def route(self, method: str, path: str) -> Tuple[Route, Optional[str]]:
        """The function serving ``method path`` plus its prefix tail."""
        exact = self.routes.get((method, path))
        if exact is not None:
            return exact, None
        for (route_method, pattern), route in self.routes.items():
            prefix = pattern[:-1]
            if (
                route_method == method
                and pattern.endswith("*")
                and path.startswith(prefix)
                and len(path) > len(prefix)
            ):
                return route, path[len(prefix):]
        raise NotFound(f"unknown path {path!r}")


class ServiceHandle:
    """An in-process daemon (tests, benchmarks, examples).

    Serves ``server`` from a daemon thread; ``companions`` are
    background loops (a heartbeat link, a job runner) stopped before
    the server shuts down.
    """

    def __init__(self, server: JsonService, *companions: Any):
        self.server = server
        self.companions = companions
        self.thread = threading.Thread(
            target=server.serve_forever, name=server.name, daemon=True
        )
        self.thread.start()

    @property
    def port(self) -> int:
        """The actually-bound TCP port (resolved when port 0 was asked)."""
        return self.server.server_address[1]

    @property
    def address(self) -> str:
        """``host:port`` as :class:`~repro.dispatch.HttpHost` wants it."""
        return f"{self.server.server_address[0]}:{self.port}"

    @property
    def url(self) -> str:
        """Base URL clients and workers point at."""
        return f"http://{self.address}"

    def stop(self) -> None:
        """Stop the companions, shut the server down, join its thread."""
        for companion in self.companions:
            companion.stop()
        self.server.shutdown()
        self.thread.join(timeout=10)
        self.server.server_close()


def serve_main(server: JsonService, *companions: Any) -> int:
    """CLI body: announce readiness on stdout, serve until interrupted.

    Writes exactly one stdout line, ``<name> listening on
    http://HOST:PORT``, so a parent that spawned the daemon with
    ``--port 0`` can parse the ephemeral port.  SIGTERM ends it like
    Ctrl-C: the companions stop, the socket closes, the exit status
    is 0.
    """
    host, port = server.server_address[:2]
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    print(f"{server.name} listening on http://{host}:{port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        for companion in companions:
            companion.stop()
        server.server_close()
    return 0


def http_request(
    url: str,
    payload: Optional[bytes] = None,
    token: Optional[str] = None,
    timeout: float = 30.0,
) -> Tuple[int, bytes]:
    """One client round trip: POST ``payload`` (GET when None).

    Returns ``(status, body bytes)`` for every answer, error statuses
    included; transport failures (refused, reset, timed out) raise
    :class:`OSError` (:class:`urllib.error.URLError` is one).  The
    bearer header is attached whenever ``token`` is set.
    """
    headers = {"Content-Type": "application/json"}
    if token:
        headers["Authorization"] = f"Bearer {token}"
    request = urllib.request.Request(
        url,
        data=payload,
        headers=headers,
        method="GET" if payload is None else "POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def error_text(raw: bytes) -> str:
    """The ``error`` field of an error body, or ``""`` (best effort)."""
    try:
        doc = json.loads(raw)
    except ValueError:
        return ""
    return str(doc.get("error", "")) if isinstance(doc, dict) else ""
