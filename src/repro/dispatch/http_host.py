"""The remote HTTP transport behind the :class:`~.hosts.Host` protocol.

An :class:`HttpHost` is a shard executor living at ``host:port`` --
a ``python -m repro.dispatch.worker`` daemon, usually on another
machine.  A spec list moves one way only: :meth:`HttpHost.prime`
hands the host a regression's full list under its
:func:`~.planner.specs_fingerprint`, the first ``run_shard`` that
needs it on this worker uploads it (``POST /specs``), and every shard
travels as a ``(fingerprint, index, of)`` reference to ``/run`` --
the worker re-derives the slice with the shared deterministic planner,
so the list crosses the wire once per (worker, regression) pair
instead of once per shard.  The response is rebuilt into a
:class:`~repro.scenarios.regression.RegressionReport` whose digest is
re-verified after the round trip, exactly like
:class:`~.hosts.LocalSubprocessHost` does.  Running a fingerprint the
host was never primed with is a caller bug (:class:`ValueError`).

Checkpoints ride the same pattern: a shard whose specs carry
``resume_from`` digests gets those checkpoints shipped first (``POST
/checkpoints``, once per (worker, digest) pair, resolved from this
process's :func:`repro.checkpoint.global_registry`).  One recovery
rule covers both uploads: a worker that answers the typed 404 for an
item (``unknown spec fingerprint`` or ``unknown checkpoint`` -- it
restarted, or evicted the entry) gets that item re-shipped once and
the run retried.

Failure taxonomy is unchanged from the subprocess transport: a
connection that refuses, resets or times out, a non-200 status, an
unparseable body and a digest mismatch all raise
:class:`~.hosts.HostFailure` -- "this machine is gone", never "the
regression failed" -- and the dispatcher retries the shard elsewhere.

:func:`parse_hosts` turns the CLI's ``--hosts host:port,host:port``
string into a host pool.  A host accepts a shared-secret ``token``
and sends it as an ``Authorization: Bearer`` header on every request,
probes included (workers started with ``--token`` refuse everything
but ``/healthz`` without it).
"""

from __future__ import annotations

import json
import socket
import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..scenarios.regression import RegressionReport, ScenarioSpec
from ..service import WIRE_VERSION, encode, error_text, http_request
from .hosts import HostFailure, ShardWork
from .planner import Shard

#: Default per-shard HTTP timeout (seconds): generous, because a shard
#: legitimately takes as long as its slowest scenario.
DEFAULT_TIMEOUT = 600.0


class HttpHost:
    """One remote worker daemon, addressed as ``host:port``.

    The wire contract (``docs/dispatch.md``): ``/run`` carries the
    shard's ``(index, of)`` coordinate and the fingerprint of a list
    uploaded through ``POST /specs``; the response is the shard
    report's ``to_json()`` form.  Nothing but JSON crosses the
    boundary, so the worker end needs no shared filesystem and no
    pickle compatibility.  ``token`` is the fleet's shared secret; when
    set, every request carries it as a bearer header.

    ``bytes_shipped`` / ``bytes_saved`` account for the wire cost:
    shipped is what ``POST /specs`` actually cost, saved is the size
    each shard's body would have had with its specs inline.  The
    coordinator folds both into its ``/metrics``.
    """

    def __init__(
        self,
        address: str,
        name: Optional[str] = None,
        timeout: float = DEFAULT_TIMEOUT,
        token: Optional[str] = None,
    ):
        self.address = _checked_address(address)
        self.name = name or self.address
        self.timeout = timeout
        self.token = token
        self.bytes_saved = 0
        self.bytes_shipped = 0
        self._specs: Dict[str, List[ScenarioSpec]] = {}
        #: (endpoint, key) pairs this worker is known to hold
        self._uploaded: Set[Tuple[str, str]] = set()
        self._lock = threading.Lock()

    def prime(self, fingerprint: str, specs: Sequence[ScenarioSpec]) -> None:
        """Associate a fingerprint with its full spec list (no I/O yet).

        The upload happens lazily on the first ``run_shard`` that
        references the fingerprint, so priming every host in a pool
        costs nothing for hosts the scheduler never picks.
        """
        with self._lock:
            self._specs[fingerprint] = list(specs)

    def forget(self, fingerprint: str) -> None:
        """Drop a finished regression's specs (and its upload record)."""
        with self._lock:
            self._specs.pop(fingerprint, None)
            self._uploaded.discard(("/specs", fingerprint))

    def _post(self, path: str, payload: bytes, label: str) -> bytes:
        """One POST round trip; every transport mishap is a HostFailure."""
        try:
            status, raw = http_request(
                f"http://{self.address}{path}", payload, self.token, self.timeout
            )
        except OSError as exc:
            # refused / reset / timed out / DNS -- the machine is gone
            reason = getattr(exc, "reason", exc)
            raise HostFailure(
                self.name,
                label,
                f"transport failed: {reason}",
                kind=_transport_kind(exc),
            ) from exc
        if status != 200:
            # the worker answered but refused: surface its error body
            detail = error_text(raw)
            raise HostFailure(
                self.name,
                label,
                f"worker returned HTTP {status}" + (f": {detail}" if detail else ""),
                kind="non-200",
            )
        return raw

    def _execute_run(self, body: bytes, shard: Shard) -> RegressionReport:
        """POST one ``/run`` body and verify the report that comes back."""
        raw = self._post("/run", body, shard.label)
        try:
            doc = json.loads(raw)
            report = RegressionReport.from_json(doc)
        except (KeyError, TypeError, ValueError) as exc:
            raise HostFailure(
                self.name,
                shard.label,
                f"unparseable shard report: {exc}",
                kind="garbage-json",
            ) from exc
        if report.digest() != doc.get("digest"):
            raise HostFailure(
                self.name,
                shard.label,
                "shard report failed digest verification",
                kind="digest-mismatch",
            )
        if len(report.verdicts) != len(shard.specs):
            raise HostFailure(
                self.name,
                shard.label,
                f"worker returned {len(report.verdicts)} verdicts "
                f"for {len(shard.specs)} specs",
                kind="bad-report",
            )
        return report

    def _upload(
        self,
        path: str,
        key: str,
        label: str,
        force: bool,
        document: Callable[[], Dict[str, Any]],
    ) -> int:
        """POST ``document()`` unless the worker holds ``key`` and not
        ``force``; returns the bytes sent."""
        with self._lock:
            if not force and (path, key) in self._uploaded:
                return 0
        payload = encode({"version": WIRE_VERSION, **document()})
        self._post(path, payload, label)
        with self._lock:
            self._uploaded.add((path, key))
        return len(payload)

    def _ship(
        self,
        work: ShardWork,
        specs: Sequence[ScenarioSpec],
        force: Optional[str] = None,
    ) -> None:
        """Upload the checkpoints and spec list the shard needs.

        Each item goes once per worker; ``force`` names the endpoint
        whose items are re-shipped regardless -- the answer to the
        worker's typed 404 for them.  Checkpoint digests resolve in
        this process's registry (whoever created the resume specs
        registered them there), so a digest nobody registered fails
        here, before the spec list is sent.
        """
        label = work.shard.label
        digests = sorted(
            {spec.resume_from for spec in work.shard.specs if spec.resume_from}
        )
        if digests:
            from ..checkpoint.store import global_registry

            registry = global_registry()
            for digest in digests:
                self._upload(
                    "/checkpoints",
                    digest,
                    label,
                    force == "/checkpoints",
                    lambda digest=digest: {
                        "checkpoint": registry.get(digest).to_json()
                    },
                )
        shipped = self._upload(
            "/specs",
            work.fingerprint,
            label,
            force == "/specs",
            lambda: {
                "fingerprint": work.fingerprint,
                "specs": [spec.to_json() for spec in specs],
            },
        )
        with self._lock:
            self.bytes_shipped += shipped

    def run_shard(self, work: ShardWork) -> RegressionReport:
        """Run the shard by fingerprint and verify the returned report."""
        with self._lock:
            specs = self._specs.get(work.fingerprint)
        if specs is None:
            raise ValueError(
                f"{self.name} was never primed with spec fingerprint "
                f"{work.fingerprint!r} (prime the host before run_shard)"
            )
        shard = work.shard
        envelope = {"version": WIRE_VERSION}
        coordinate = {"index": shard.index, "of": shard.of}
        body = encode(
            {**envelope, "shard": {**coordinate, "fingerprint": work.fingerprint}}
        )
        self._ship(work, specs)
        reshipped: Set[str] = set()
        while True:
            try:
                report = self._execute_run(body, shard)
                break
            except HostFailure as exc:
                path = _reupload_for(exc)
                if path is None or path in reshipped:
                    raise
                reshipped.add(path)
                self._ship(work, specs, force=path)
        # what the shard would have cost with its specs inline
        inline = {
            **envelope,
            "shard": {
                **coordinate,
                "specs": [spec.to_json() for spec in shard.specs],
            },
        }
        with self._lock:
            self.bytes_saved += len(encode(inline))
        return report

    def _get_json(self, path: str) -> Optional[dict]:
        """Best-effort GET returning the parsed body; None on any problem."""
        try:
            status, raw = http_request(
                f"http://{self.address}{path}",
                token=self.token,
                timeout=min(self.timeout, 5.0),
            )
            doc = json.loads(raw) if status == 200 else None
        except Exception:  # noqa: BLE001 -- a probe never raises
            return None
        return doc if isinstance(doc, dict) else None

    def healthy(self) -> bool:
        """Probe ``/healthz``; False on any transport or status problem."""
        doc = self._get_json("/healthz")
        return bool(doc and doc.get("ok", False))

    def fetch_metrics(self) -> Optional[dict]:
        """Pull the worker's ``/metrics`` document; None on any problem.

        Best-effort like :meth:`healthy`: observability must never turn
        a finished dispatch into a failure, so a dead or pre-metrics
        worker simply yields nothing for the fleet aggregate.
        """
        doc = self._get_json("/metrics")
        if doc is None:
            return None
        metrics = doc.get("metrics")
        return metrics if isinstance(metrics, dict) else None

    def __repr__(self) -> str:
        return f"HttpHost({self.address!r})"


#: Kept importable under this name: the benchmark harness uses it.
CachingHttpHost = HttpHost


def _reupload_for(exc: HostFailure) -> Optional[str]:
    """The upload endpoint a worker's typed 404 asks for again, if any."""
    if exc.kind != "non-200" or "HTTP 404" not in exc.reason:
        return None
    if "unknown spec fingerprint" in exc.reason:
        return "/specs"
    return "/checkpoints" if "unknown checkpoint" in exc.reason else None


def _transport_kind(exc: Exception) -> str:
    """Classify a URLError/OSError into the failure-kind taxonomy."""
    causes = [exc, getattr(exc, "reason", None), exc.__cause__]
    for cause in causes:
        if isinstance(cause, ConnectionRefusedError):
            return "refused"
        if isinstance(cause, ConnectionResetError):
            return "reset"
        if isinstance(cause, (TimeoutError, socket.timeout)):
            return "timeout"
    text = str(exc).lower()
    if "refused" in text:
        return "refused"
    if "reset" in text:
        return "reset"
    if "timed out" in text or "timeout" in text:
        return "timeout"
    return "transport"


def _checked_address(text: str) -> str:
    """Validate one ``host:port`` (the port must be an int in range)."""
    host, separator, port_text = text.strip().rpartition(":")
    if not separator or not host:
        raise ValueError(f"host address must look like host:port, got {text!r}")
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(
            f"host address port must be an integer, got {text!r}"
        ) from None
    if not 1 <= port <= 65535:
        raise ValueError(
            f"host address port must be in 1-65535, got {port} in {text!r}"
        )
    return f"{host}:{port}"


def parse_hosts(
    text: str,
    timeout: float = DEFAULT_TIMEOUT,
    token: Optional[str] = None,
) -> List[HttpHost]:
    """``"h1:p1,h2:p2"`` -> a pool of :class:`HttpHost` (CLI ``--hosts``).

    Strict about its input, because a malformed ``--hosts`` that slips
    through only surfaces minutes later as a connection error on some
    retry path: an empty or whitespace-only entry (``"h1:8421,,h2:"``
    style typos) and any entry whose port is not an integer in 1-65535
    raise :class:`ValueError` naming the bad token and its position.
    """
    entries = text.split(",")
    if not any(entry.strip() for entry in entries):
        raise ValueError("--hosts needs at least one host:port")
    hosts: List[HttpHost] = []
    for position, entry in enumerate(entries, start=1):
        stripped = entry.strip()
        if not stripped:
            raise ValueError(
                f"--hosts entry {position} of {len(entries)} is "
                f"empty/whitespace in {text!r}"
            )
        try:
            hosts.append(HttpHost(stripped, timeout=timeout, token=token))
        except ValueError as exc:
            raise ValueError(f"--hosts entry {position}: {exc}") from None
    return hosts
