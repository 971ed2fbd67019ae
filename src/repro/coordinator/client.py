"""Client side of the coordinator: submit, poll, verify, engine seam.

:class:`CoordinatorClient` speaks the daemon's job protocol --
fingerprint-first submission (the spec list crosses the wire only when
the coordinator asks for it), polling until the job resolves, and
digest verification of the returned report (recomputed from the
verdict lines, compared against the wire value; a coordinator cannot
hand back a report whose digest does not match its content).

:class:`CoordinatorEngine` mounts that protocol behind the
:class:`~repro.scenarios.engines.Engine` seam, so
``Workbench(...).regress(coordinator="http://host:8400")`` and
``python -m repro regress --coordinator URL`` run their regressions on
the elastic fleet without the session code knowing the difference.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from ..dispatch.planner import specs_fingerprint
from ..obs.runtime import OBS
from ..scenarios.regression import RegressionReport, ScenarioSpec, run_scenario
from ..service import WIRE_VERSION, encode, http_request


class CoordinatorError(RuntimeError):
    """The coordinator refused, failed, or corrupted a job."""


class CoordinatorClient:
    """Blocking JSON-over-HTTP client for one coordinator daemon."""

    def __init__(
        self,
        url: str,
        token: Optional[str] = None,
        timeout: float = 600.0,
        poll_interval: float = 0.2,
        request_timeout: float = 30.0,
    ):
        url = url.rstrip("/")
        if "://" not in url:
            url = f"http://{url}"
        self.url = url
        self.token = token
        self.timeout = timeout
        self.poll_interval = poll_interval
        self.request_timeout = request_timeout

    def _request(
        self, path: str, doc: Optional[Dict[str, Any]] = None
    ) -> Tuple[int, Dict[str, Any]]:
        """One request; returns (status, body) with HTTP errors decoded."""
        try:
            status, raw = http_request(
                f"{self.url}{path}",
                encode(doc) if doc is not None else None,
                self.token,
                self.request_timeout,
            )
        except OSError as exc:
            raise CoordinatorError(
                f"coordinator {self.url} unreachable: {exc}"
            ) from exc
        try:
            body = json.loads(raw)
        except ValueError:
            if status == 200:
                raise CoordinatorError(
                    f"coordinator {self.url} sent an unparseable body"
                ) from None
            body = {"error": f"HTTP {status}"}
        return status, body

    def upload_checkpoints(self, specs: List[ScenarioSpec]) -> None:
        """Ship every checkpoint the specs resume from (out of this
        process's :func:`repro.checkpoint.global_registry`) to the
        coordinator, which can fan them out only if it holds them."""
        if any(spec.resume_from for spec in specs):
            from ..checkpoint.store import resume_checkpoints

            for checkpoint in resume_checkpoints(specs):
                doc = {"checkpoint": checkpoint.to_json()}
                self._upload("/checkpoints", doc)

    def _upload(self, path: str, doc: Dict[str, Any]) -> None:
        """POST one upload (``/specs``, ``/checkpoints``); raise unless 200."""
        status, body = self._request(path, {"version": WIRE_VERSION, **doc})
        if status != 200:
            raise CoordinatorError(
                f"upload to {path} failed ({status}): "
                f"{body.get('error', body)}"
            )

    def submit(self, specs: List[ScenarioSpec]) -> Dict[str, Any]:
        """Submit a regression; returns the job document.

        Fingerprint-first: the first attempt sends only the 16-hex
        content key.  A 404 naming an unknown spec fingerprint means
        this coordinator does not hold the list (never uploaded,
        evicted, or the daemon restarted), so the client uploads it
        through ``POST /specs`` and submits once more.  Specs resuming
        from checkpoints get those shipped first (see
        :meth:`upload_checkpoints`).
        """
        self.upload_checkpoints(specs)
        fingerprint = specs_fingerprint(specs)
        job = {"version": WIRE_VERSION, "fingerprint": fingerprint}
        status, body = self._request("/jobs", job)
        if status == 404 and "unknown spec fingerprint" in str(
            body.get("error", "")
        ):
            self._upload(
                "/specs",
                {
                    "fingerprint": fingerprint,
                    "specs": [spec.to_json() for spec in specs],
                },
            )
            status, body = self._request("/jobs", job)
        if status != 200:
            raise CoordinatorError(
                f"job submission failed ({status}): "
                f"{body.get('error', body)}"
            )
        return body

    def job(self, job_id: str) -> Dict[str, Any]:
        """One poll of ``GET /jobs/<id>``."""
        status, body = self._request(f"/jobs/{job_id}")
        if status != 200:
            raise CoordinatorError(
                f"job {job_id} lookup failed ({status}): "
                f"{body.get('error', body)}"
            )
        return body

    def wait(self, job_id: str) -> Dict[str, Any]:
        """Poll until the job resolves; raises on failure or timeout."""
        deadline = time.monotonic() + self.timeout
        while True:
            doc = self.job(job_id)
            if doc["status"] == "done":
                return doc
            if doc["status"] == "failed":
                raise CoordinatorError(
                    f"job {job_id} failed: {doc.get('error', 'unknown')}"
                )
            if time.monotonic() > deadline:
                raise CoordinatorError(
                    f"job {job_id} still {doc['status']!r} after "
                    f"{self.timeout:.0f}s"
                )
            time.sleep(self.poll_interval)

    def run(
        self, specs: List[ScenarioSpec]
    ) -> Tuple[RegressionReport, Dict[str, Any]]:
        """Submit + wait + verify: the full client round trip.

        The returned report is rebuilt from the wire form (recomputing
        its digest from the verdict lines) and checked against the
        digest the coordinator claimed -- mismatch is an error, not a
        warning, because a wrong report with a plausible digest is
        exactly the failure a regression service must never serve.
        """
        submitted = self.submit(specs)
        doc = (
            submitted
            if submitted["status"] in ("done", "failed")
            else self.wait(submitted["job"])
        )
        if doc["status"] == "failed":
            raise CoordinatorError(
                f"job {doc['job']} failed: {doc.get('error', 'unknown')}"
            )
        report_doc = doc.get("report")
        if not isinstance(report_doc, dict):
            raise CoordinatorError(
                f"job {doc['job']} is done but carries no report"
            )
        report = RegressionReport.from_json(report_doc)
        if report.digest() != report_doc.get("digest"):
            raise CoordinatorError(
                f"job {doc['job']} report digest mismatch: content is "
                f"{report.digest()}, coordinator claimed "
                f"{report_doc.get('digest')}"
            )
        return report, doc

    def status(self) -> Dict[str, Any]:
        """The coordinator's ``GET /status`` document."""
        status, body = self._request("/status")
        if status != 200:
            raise CoordinatorError(
                f"status failed ({status}): {body.get('error', body)}"
            )
        return body


class CoordinatorEngine:
    """Runs scenario regressions on a coordinator's elastic fleet.

    The fleet :class:`~repro.scenarios.engines.Engine`
    (:func:`repro.dispatch.select_engine` picks it for a coordinator URL):
    ``imap`` ships the whole spec list to the coordinator as one job
    (fingerprint-first, so a warm coordinator sees sixteen hex chars
    instead of the list) and yields the merged, digest-verified
    verdicts.  Like :class:`~repro.dispatch.ShardedEngine` it
    only accepts the one fan-out with a wire form -- ``run_scenario``
    over :class:`~repro.scenarios.regression.ScenarioSpec` items.

    The last job's document (status, ``from_cache``, dispatch facts)
    is kept on :attr:`last_job` for reporting layers.
    """

    name = "coordinator"

    def __init__(
        self,
        url: str,
        token: Optional[str] = None,
        timeout: float = 600.0,
    ):
        self.url = url
        self.workers = 1
        self.client = CoordinatorClient(url, token=token, timeout=timeout)
        self.last_job: Optional[Dict[str, Any]] = None

    def imap(
        self, fn: Callable[[Any], Any], items: Iterable[Any]
    ) -> Iterator[Any]:
        """Submit the specs as one coordinator job; yield merged verdicts."""
        specs = list(items)
        if fn is not run_scenario or not all(
            isinstance(item, ScenarioSpec) for item in specs
        ):
            raise TypeError(
                "CoordinatorEngine only runs scenario regressions "
                "(run_scenario over ScenarioSpec items); other fan-outs "
                "have no cross-host wire form"
            )
        if OBS.enabled:
            with OBS.tracer.span(
                "coordinator.client_job",
                "coordinator",
                url=self.url,
                specs=len(specs),
            ) as span:
                report, job = self.client.run(specs)
                span.set(
                    job=job["job"],
                    from_cache=job.get("from_cache", False),
                )
        else:
            report, job = self.client.run(specs)
        self.last_job = job
        yield from report.verdicts

    def __repr__(self) -> str:
        return f"CoordinatorEngine(url={self.url!r})"
