"""Typed stage results and the unified session report.

Every :class:`~.session.Workbench` stage returns a :class:`StageResult`
whose deterministic content (``data``) is digestable; wall-clock and
fan-out facts live in ``metrics`` and never enter a digest.  A
:class:`SessionReport` folds the stage digests, in order, into one
stable session digest -- byte-identical for the same DUV, seeds and
stage options regardless of worker count or machine speed.

:class:`SimulationReport` is the ABV stage's typed payload.
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


class StageStatus(enum.Enum):
    """Outcome class of one stage run."""

    PASSED = "passed"
    FAILED = "failed"      # the stage ran; the design did not verify
    ERROR = "error"        # the stage itself blew up
    SKIPPED = "skipped"    # an earlier plan stage failed


def _canonical(data: Any) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"), default=str)


@dataclass
class StageResult:
    """What one stage produced.

    ``data`` is JSON-safe and fully determined by (DUV, seeds, stage
    options); ``metrics`` holds run facts (wall seconds, worker count,
    throughput) that may differ between otherwise identical runs;
    ``payload`` carries the rich in-process objects (exploration
    results, regression reports, rendered sources) for callers that
    compose stages programmatically.
    """

    stage: str
    status: StageStatus
    summary: str = ""
    data: Dict[str, Any] = field(default_factory=dict)
    metrics: Dict[str, Any] = field(default_factory=dict)
    payload: Any = None
    error: str = ""
    #: the original exception for ERROR results (never serialized)
    exception: Optional[BaseException] = None

    @property
    def ok(self) -> bool:
        return self.status is StageStatus.PASSED

    def digest(self) -> str:
        """Deterministic fingerprint of the stage's verifiable content."""
        body = _canonical(
            {"stage": self.stage, "status": self.status.value, "data": self.data}
        )
        return hashlib.sha256(body.encode("utf-8")).hexdigest()[:16]

    def to_json(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "stage": self.stage,
            "status": self.status.value,
            "ok": self.ok,
            "summary": self.summary,
            "digest": self.digest(),
            "data": self.data,
            "metrics": self.metrics,
        }
        if self.error:
            doc["error"] = self.error
        return doc


@dataclass
class SessionReport:
    """Everything one verification session produced, stage by stage.

    ``observability`` carries run telemetry (the session's metrics
    registry, per-stage fleet ``/metrics`` aggregates) and is strictly
    outside :meth:`digest` -- two sessions that verified identically
    keep identical digests no matter what was traced or measured.
    """

    duv: str
    stages: List[StageResult] = field(default_factory=list)
    #: non-digested telemetry (populated only when observability is on)
    observability: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return bool(self.stages) and all(
            s.status not in (StageStatus.FAILED, StageStatus.ERROR)
            for s in self.stages
        )

    def stage(self, name: str) -> Optional[StageResult]:
        """The most recent result of the named stage (None if never run)."""
        for result in reversed(self.stages):
            if result.stage == name:
                return result
        return None

    def digest(self) -> str:
        """One stable digest over the ordered stage digests."""
        lines = [f"{s.stage}:{s.digest()}" for s in self.stages]
        body = f"duv:{self.duv}\n" + "\n".join(lines)
        return hashlib.sha256(body.encode("utf-8")).hexdigest()[:16]

    def summary(self) -> str:
        verdict = "VERIFIED" if self.ok else "FAILED"
        lines = [f"=== workbench session: {self.duv} ==="]
        for result in self.stages:
            status = result.status.value.upper()
            head = f"[{status}] {result.stage}"
            if result.summary:
                head += f": {result.summary.splitlines()[0]}"
            elif result.error:
                head += f": {result.error.splitlines()[0]}"
            lines.append(head)
        lines.append(f"=== overall: {verdict} (digest {self.digest()}) ===")
        return "\n".join(lines)

    def to_json(self) -> Dict[str, Any]:
        doc = {
            "duv": self.duv,
            "ok": self.ok,
            "digest": self.digest(),
            "stages": [s.to_json() for s in self.stages],
        }
        if self.observability:
            doc["observability"] = self.observability
        return doc


@dataclass
class SimulationReport:
    """Outcome of the ABV simulation stage."""

    cycles: int
    wall_seconds: float
    harness_summary: str
    failed_assertions: List[str]
    monitor_verdicts: Dict[str, str]

    @property
    def ok(self) -> bool:
        return not self.failed_assertions

    @property
    def delta_ns_per_cycle(self) -> float:
        """The paper's delta: average wall time per simulated cycle."""
        if self.cycles == 0:
            return 0.0
        return self.wall_seconds * 1e9 / self.cycles

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return (
            f"[{status}] simulation: {self.cycles} cycles in "
            f"{self.wall_seconds:.2f}s (delta = {self.delta_ns_per_cycle:.0f} "
            f"ns/cycle); {self.harness_summary}"
        )
