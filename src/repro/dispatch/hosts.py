"""Execution hosts: where a planned shard actually runs.

A :class:`Host` is the dispatch layer's unit of failure.  Three
implementations exist behind the protocol: :class:`LocalSubprocessHost`
runs every shard in its own ``python -m repro regress --shard K/N``
process on this machine, :class:`~.http_host.HttpHost` POSTs the shard
to a ``python -m repro.dispatch.worker`` daemon on another machine,
and :class:`InProcessHost` runs the shard inline for tests and
degenerate one-shard runs.  Only JSON wire forms cross a host boundary
-- :class:`~repro.scenarios.regression.ScenarioSpec` (goals and
``track_fsm`` included, so directed-closure shards travel too) going
in, a :class:`~repro.scenarios.regression.RegressionReport` coming out
-- which is why the transports are interchangeable above this module.

A host that dies, times out, emits unparseable output or returns a
report that fails digest verification raises :class:`HostFailure`; the
dispatcher treats that as "this machine is gone", not "the regression
failed", and retries the shard elsewhere.  A *regression* failure (the
scenarios genuinely diverged) is a valid report and is never retried.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import List, Optional, Protocol, runtime_checkable

from ..scenarios.engines import SerialEngine
from ..scenarios.regression import RegressionReport, RegressionRunner
from .planner import Shard


@dataclass(frozen=True)
class ShardWork:
    """One shard assignment handed to a host.

    ``shard`` carries the planned slice itself (``shard.specs``) --
    network transports serialize exactly that.  ``spec_file`` holds the
    *full* serialized spec list for transports that re-derive the slice
    host-side from ``(spec_file, index, of)`` via the shared planner,
    which is what :class:`LocalSubprocessHost`'s ``--shard K/N`` child
    does.  Both routes produce the same specs by construction (the
    planner is deterministic), so which one a transport uses is
    invisible in the merged digest.
    """

    shard: Shard
    spec_file: str
    workers: Optional[int] = None     # per-host worker processes


#: The failure-kind taxonomy (``HostFailure.kind``).  The dispatcher
#: keeps these as per-host counters (``DispatchOutcome.failure_counts``)
#: instead of collapsing every failure into one retry path.
FAILURE_KINDS = (
    "refused",          # connection refused (worker not listening)
    "reset",            # connection reset mid-transfer
    "timeout",          # transport or subprocess deadline exceeded
    "non-200",          # worker answered with an HTTP error status
    "garbage-json",     # body/stdout did not parse as a shard report
    "digest-mismatch",  # report parsed but failed digest verification
    "spawn",            # subprocess could not even start
    "killed",           # subprocess died on a signal
    "bad-report",       # report parsed and verified but is incoherent
    "transport",        # other transport-level failure (DNS, ...)
)


class HostFailure(RuntimeError):
    """A host (not the regression) failed: crash, timeout, bad output.

    ``kind`` classifies the failure into the :data:`FAILURE_KINDS`
    taxonomy so the dispatcher can count *why* hosts fail, per host,
    rather than only that they did.
    """

    def __init__(
        self, host: str, shard_label: str, reason: str, kind: str = "transport"
    ):
        super().__init__(f"{host} failed on {shard_label}: {reason}")
        self.host = host
        self.shard_label = shard_label
        self.reason = reason
        self.kind = kind


@runtime_checkable
class Host(Protocol):
    """Somewhere a shard can run."""

    name: str

    def run_shard(self, work: ShardWork) -> RegressionReport:
        """Execute the shard and return its report, or raise HostFailure."""
        ...


class InProcessHost:
    """Runs the shard inline in this process (tests, one-shard runs)."""

    def __init__(self, name: str = "inline"):
        self.name = name

    def run_shard(self, work: ShardWork) -> RegressionReport:
        """Run the shard's own spec slice serially, in this process."""
        return RegressionRunner(work.shard.specs, engine=SerialEngine()).run()

    def __repr__(self) -> str:
        return f"InProcessHost({self.name!r})"


def _child_env() -> dict:
    """The child must import ``repro`` even when the parent got it via
    ``sys.path`` manipulation (pytest's ``pythonpath`` ini) rather than
    an installed package or an inherited PYTHONPATH."""
    import repro

    src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    if src_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (
            src_root + os.pathsep + existing if existing else src_root
        )
    return env


class LocalSubprocessHost:
    """One shard per ``python -m repro regress --shard`` subprocess.

    Stands in for a remote machine: the spec file and the ``--shard
    K/N`` coordinate go in, a JSON report comes out on stdout, and the
    report's digest is re-verified after the round trip.  ``workers``
    sizes the *within-shard* fan-out (default 1 -- the shard process is
    the unit of parallelism, so nested pools would oversubscribe).
    """

    #: tells the dispatcher to materialize ShardWork.spec_file (this
    #: transport's child re-derives its slice from it host-side)
    uses_spec_file = True

    def __init__(
        self,
        name: str = "local0",
        python: Optional[str] = None,
        workers: Optional[int] = None,
        timeout: float = 600.0,
    ):
        self.name = name
        self.python = python or sys.executable
        self.workers = workers
        self.timeout = timeout

    def _command(self, work: ShardWork) -> List[str]:
        shard = work.shard
        return [
            self.python,
            "-m",
            "repro",
            "regress",
            "--spec-file",
            work.spec_file,
            "--shard",
            f"{shard.index + 1}/{shard.of}",
            "--workers",
            str(work.workers or self.workers or 1),
            "--json",
        ]

    def _started(self, process: subprocess.Popen) -> None:
        """Hook invoked right after spawn; tests override it to inject
        host failures (e.g. kill the child mid-shard)."""

    def run_shard(self, work: ShardWork) -> RegressionReport:
        """Spawn the ``--shard K/N`` child and verify its JSON report."""
        label = work.shard.label
        try:
            process = subprocess.Popen(
                self._command(work),
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                env=_child_env(),
                text=True,
            )
        except OSError as exc:
            raise HostFailure(
                self.name, label, f"spawn failed: {exc}", kind="spawn"
            ) from exc
        try:
            self._started(process)
            try:
                stdout, stderr = process.communicate(timeout=self.timeout)
            except subprocess.TimeoutExpired as exc:
                raise HostFailure(
                    self.name,
                    label,
                    f"timed out after {self.timeout}s",
                    kind="timeout",
                ) from exc
        finally:
            # every exit from this block must leave the child reaped --
            # a timed-out (or hook-crashed) shard that skipped wait()
            # would accumulate zombies across a long sharded CI run
            if process.poll() is None:
                process.kill()
                process.communicate()
        if process.returncode < 0:
            raise HostFailure(
                self.name,
                label,
                f"killed by signal {-process.returncode}",
                kind="killed",
            )
        try:
            doc = json.loads(stdout)
        except ValueError as exc:
            detail = (stderr or stdout or "").strip().splitlines()
            tail = detail[-1] if detail else "no output"
            raise HostFailure(
                self.name,
                label,
                f"unparseable report (exit {process.returncode}): {tail}",
                kind="garbage-json",
            ) from exc
        report = RegressionReport.from_json(doc)
        if report.digest() != doc.get("digest"):
            raise HostFailure(
                self.name,
                label,
                "shard report failed digest verification",
                kind="digest-mismatch",
            )
        return report

    def __repr__(self) -> str:
        return f"LocalSubprocessHost({self.name!r})"
