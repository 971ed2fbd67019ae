"""The remote HTTP transport behind the :class:`~.hosts.Host` protocol.

An :class:`HttpHost` is a shard executor living at ``host:port`` --
a ``python -m repro.dispatch.worker`` daemon, usually on another
machine.  ``run_shard`` POSTs the shard's spec slice as JSON to the
worker's ``/run`` endpoint and rebuilds the
:class:`~repro.scenarios.regression.RegressionReport` from the
response, re-verifying its digest after the round trip exactly like
:class:`~.hosts.LocalSubprocessHost` does.

:class:`CachingHttpHost` adds the spec-cache protocol on top: the
regression's *full* spec list is uploaded to the worker once (``POST
/specs``, keyed by :func:`~.planner.specs_fingerprint`) and every
shard thereafter travels as a ``(fingerprint, index, of)`` reference
-- the worker re-derives the slice with the shared deterministic
planner, so the dominant wire cost (re-shipping specs per shard) is
paid once per (worker, regression) pair instead of once per shard.

Checkpoints ride the same pattern: a shard whose specs carry
``resume_from`` digests gets those checkpoints shipped to the worker
first (``POST /checkpoints``, once per (worker, digest) pair, resolved
from this process's :func:`repro.checkpoint.global_registry`), and a
worker that answers ``404 "unknown checkpoint"`` -- restart, eviction
-- gets one re-upload and a retry, exactly like the spec cache.

Failure taxonomy is unchanged from the subprocess transport: a
connection that refuses, resets or times out, a non-200 status, an
unparseable body and a digest mismatch all raise
:class:`~.hosts.HostFailure` -- "this machine is gone", never "the
regression failed" -- and the dispatcher retries the shard elsewhere.

:func:`parse_hosts` turns the CLI's ``--hosts host:port,host:port``
string into a host pool.  Both host classes accept a shared-secret
``token`` and send it as an ``Authorization: Bearer`` header on every
request, probes included (workers started with ``--token`` refuse
everything but ``/healthz`` without it).
"""

from __future__ import annotations

import json
import socket
import threading
from typing import Dict, List, Optional, Sequence, Set

from ..scenarios.regression import RegressionReport, ScenarioSpec
from ..service import encode, error_text, http_request
from .hosts import HostFailure, ShardWork
from .planner import Shard

#: Default per-shard HTTP timeout (seconds): generous, because a shard
#: legitimately takes as long as its slowest scenario.
DEFAULT_TIMEOUT = 600.0


class HttpHost:
    """One remote worker daemon, addressed as ``host:port``.

    The wire contract (``docs/dispatch.md``): the request body carries
    the shard's own spec slice plus its ``(index, of)`` coordinate, the
    response is the shard report's ``to_json()`` form.  Nothing but
    JSON crosses the boundary, so the worker end needs no shared
    filesystem and no pickle compatibility.  ``token`` is the fleet's
    shared secret; when set, every request carries it as a bearer header.
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
        self._shipped_checkpoints: Set[str] = set()
        self._checkpoint_lock = threading.Lock()

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

    def _run_body(self, work: ShardWork) -> Dict:
        """The by-value ``POST /run`` body: the slice travels inline."""
        shard = work.shard
        return {
            "version": 1,
            "shard": {
                "index": shard.index,
                "of": shard.of,
                "specs": [spec.to_json() for spec in shard.specs],
            },
            "workers": work.workers or 1,
        }

    def _execute_run(self, body: Dict, shard: Shard) -> RegressionReport:
        """POST one ``/run`` body and verify the report that comes back."""
        raw = self._post("/run", encode(body), shard.label)
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

    def _ensure_checkpoints(self, shard: Shard, force: bool = False) -> None:
        """Ship every checkpoint the shard's specs resume from.

        Digests are resolved from this process's checkpoint registry
        (:func:`repro.checkpoint.global_registry` -- whoever created the
        resume specs registered them there) and uploaded via ``POST
        /checkpoints`` once per (worker, digest) pair.  ``force``
        re-ships digests already recorded as uploaded -- the retry path
        for a worker that restarted or evicted them.
        """
        digests = sorted(
            {spec.resume_from for spec in shard.specs if spec.resume_from}
        )
        if not digests:
            return
        from ..checkpoint.store import global_registry

        registry = global_registry()
        for digest in digests:
            with self._checkpoint_lock:
                if not force and digest in self._shipped_checkpoints:
                    continue
            checkpoint = registry.get(digest)
            payload = encode({"version": 1, "checkpoint": checkpoint.to_json()})
            self._post("/checkpoints", payload, shard.label)
            with self._checkpoint_lock:
                self._shipped_checkpoints.add(digest)

    def _execute_run_with_checkpoints(
        self, body: Dict, shard: Shard
    ) -> RegressionReport:
        """:meth:`_execute_run` plus the checkpoint-upload protocol.

        Mirrors the spec-cache 404 dance: ship referenced checkpoints
        up front, and when the worker still answers "unknown
        checkpoint" (restart, eviction), re-ship once and retry before
        the failure surfaces.
        """
        self._ensure_checkpoints(shard)
        try:
            return self._execute_run(body, shard)
        except HostFailure as exc:
            if exc.kind != "non-200" or "unknown checkpoint" not in exc.reason:
                raise
            self._ensure_checkpoints(shard, force=True)
            return self._execute_run(body, shard)

    def run_shard(self, work: ShardWork) -> RegressionReport:
        """POST the shard to the worker and verify the returned report."""
        return self._execute_run_with_checkpoints(self._run_body(work), work.shard)

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


class CachingHttpHost(HttpHost):
    """An :class:`HttpHost` that ships each regression's specs once.

    :meth:`prime` hands the host the regression's full spec list and
    its :func:`~.planner.specs_fingerprint`; ``run_shard`` then sends
    shards as ``(fingerprint, index, of)`` references, uploading the
    list via ``POST /specs`` the first time this worker sees the
    fingerprint.  A worker that answers "unknown spec fingerprint" --
    it restarted, or evicted the entry -- gets one re-upload and a
    retry before the failure surfaces; a host never primed behaves
    exactly like a plain :class:`HttpHost`.

    ``bytes_saved`` / ``bytes_shipped`` account for the wire cost:
    saved is the by-value body size avoided on every by-reference run,
    shipped is what ``POST /specs`` actually cost.  The coordinator
    folds both into its ``/metrics``.
    """

    def __init__(
        self,
        address: str,
        name: Optional[str] = None,
        timeout: float = DEFAULT_TIMEOUT,
        token: Optional[str] = None,
    ):
        super().__init__(address, name=name, timeout=timeout, token=token)
        self._specs: Dict[str, Sequence[ScenarioSpec]] = {}
        self._uploaded: Set[str] = set()
        self._lock = threading.Lock()
        self.bytes_saved = 0
        self.bytes_shipped = 0

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
            self._uploaded.discard(fingerprint)

    def _upload(self, fingerprint: str, label: str) -> None:
        """``POST /specs``: ship the full list once, keyed by fingerprint."""
        with self._lock:
            specs = self._specs.get(fingerprint)
        if specs is None:
            raise HostFailure(
                self.name,
                label,
                f"spec cache was never primed for fingerprint {fingerprint}",
                kind="bad-report",
            )
        payload = encode(
            {
                "version": 1,
                "fingerprint": fingerprint,
                "specs": [spec.to_json() for spec in specs],
            }
        )
        self._post("/specs", payload, label)
        with self._lock:
            self._uploaded.add(fingerprint)
            self.bytes_shipped += len(payload)

    def _fingerprint_for(self, work: ShardWork) -> Optional[str]:
        """The primed fingerprint whose plan produced this shard, if any."""
        with self._lock:
            for fingerprint, specs in self._specs.items():
                if work.shard.specs == tuple(specs[work.shard.index :: work.shard.of]):
                    return fingerprint
        return None

    def run_shard(self, work: ShardWork) -> RegressionReport:
        """Run the shard by reference when primed, by value otherwise."""
        fingerprint = self._fingerprint_for(work)
        if fingerprint is None:
            return super().run_shard(work)
        shard = work.shard
        body = {
            "version": 1,
            "shard": {
                "index": shard.index,
                "of": shard.of,
                "fingerprint": fingerprint,
            },
            "workers": work.workers or 1,
        }
        by_value_cost = len(encode(self._run_body(work)))
        with self._lock:
            needs_upload = fingerprint not in self._uploaded
        if needs_upload:
            self._upload(fingerprint, shard.label)
        try:
            report = self._execute_run_with_checkpoints(body, shard)
        except HostFailure as exc:
            if exc.kind != "non-200" or "unknown spec fingerprint" not in exc.reason:
                raise
            # the worker lost the entry (restart, eviction): re-ship once
            with self._lock:
                self._uploaded.discard(fingerprint)
            self._upload(fingerprint, shard.label)
            report = self._execute_run_with_checkpoints(body, shard)
        with self._lock:
            self.bytes_saved += by_value_cost
        return report

    def __repr__(self) -> str:
        return f"CachingHttpHost({self.address!r})"


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
