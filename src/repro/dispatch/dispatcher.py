"""The shard dispatcher: plan, hand shards to hosts as they free up, merge.

``ShardDispatcher`` partitions a spec list with the deterministic
planner and runs every (non-empty) shard on a pool of
:class:`Host`\\ s by work stealing: one serving thread per host pulls
the next pending shard from a shared :class:`ShardQueue` the moment it
finishes its previous one.  Skewed shard runtimes therefore stop
bounding wall clock on the slowest host: a fast host "steals" the
queue's tail while a slow host grinds through one shard.  Use more
shards than hosts (``planner.shards_for_hosts``) so there is a tail to
steal.

Fault tolerance: a :class:`HostFailure` re-queues the shard away from
the host that failed it, up to ``max_attempts`` total tries.  Completion is idempotent per shard --
the first result wins, any later one is counted and dropped.  With
today's blocking transports a serving thread either fails or completes
(never both), so duplicates cannot actually arise through the
dispatcher; the dedupe is the queue's *invariant*, there so a future
transport that can complete late (async ssh, a resumed connection
whose "timed-out" worker actually finished) still cannot double-merge
verdicts.  Because a shard is a pure function of the spec list, a
retried or stolen shard reproduces byte-identical verdicts.

The merge invariant (the whole point): ``merge_reports`` re-sorts the
concatenated verdicts exactly like ``RegressionRunner.run`` does, so
the merged digest is byte-identical to a serial run of the same specs
at any shard count, any host pool -- subprocess or HTTP -- and any
recovered failure pattern.
"""

from __future__ import annotations

import os
import tempfile
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple

from ..obs.runtime import OBS
from ..scenarios.regression import (
    RegressionReport,
    ScenarioSpec,
    save_specs,
)
from .hosts import Host, HostFailure, LocalSubprocessHost, ShardWork
from .planner import Shard, plan_digest, plan_shards

class DispatchError(RuntimeError):
    """A shard exhausted every attempt; the regression has no verdicts
    for it and the merged digest would be wrong, so nothing is merged."""


@dataclass
class ShardRun:
    """How one shard eventually got executed."""

    shard: Shard
    host: str                          # the host that completed it
    attempts: int                      # 1 = first try succeeded
    failures: Tuple[str, ...] = ()     # HostFailure reasons, in order
    #: the failure taxonomy alongside ``failures``: (host, kind) pairs
    #: in the same order (kind from ``hosts.FAILURE_KINDS``)
    failure_kinds: Tuple[Tuple[str, str], ...] = ()
    #: wall time of the successful attempt on the completing host
    #: (run fact: per-host latency, never part of any digest)
    wall_seconds: float = 0.0

    @property
    def retried(self) -> bool:
        """True when at least one host failed this shard first."""
        return self.attempts > 1


@dataclass
class DispatchOutcome:
    """A merged report plus the dispatch bookkeeping around it."""

    report: RegressionReport
    runs: List[ShardRun] = field(default_factory=list)
    hosts: Tuple[str, ...] = ()
    plan_fingerprint: str = ""
    #: completions dropped because the shard had already completed
    #: elsewhere -- always 0 with today's blocking transports (a
    #: serving thread fails or completes, never both); the counter
    #: exists for transports that can complete late
    duplicates: int = 0
    #: per-host ``/metrics`` documents pulled after the dispatch from
    #: hosts that expose one (observability only, never digested)
    host_metrics: Dict[str, Dict] = field(default_factory=dict)

    @property
    def retries(self) -> int:
        """Total failed host attempts that were recovered."""
        return sum(run.attempts - 1 for run in self.runs)

    def host_loads(self) -> Dict[str, int]:
        """Completed shards per host (the rebalance benchmark's metric)."""
        loads: Dict[str, int] = {name: 0 for name in self.hosts}
        for run in self.runs:
            loads[run.host] = loads.get(run.host, 0) + 1
        return loads

    def failure_counts(self) -> Dict[str, Dict[str, int]]:
        """Failed attempts per host, split by failure kind.

        The :data:`~.hosts.FAILURE_KINDS` taxonomy, preserved instead
        of collapsed: ``{"w1": {"timeout": 2}, "w2": {"refused": 1}}``.
        Hosts that never failed are absent.
        """
        counts: Dict[str, Dict[str, int]] = {}
        for run in self.runs:
            for host, kind in run.failure_kinds:
                per_host = counts.setdefault(host, {})
                per_host[kind] = per_host.get(kind, 0) + 1
        return counts

    def log_lines(self) -> List[str]:
        """Human-readable dispatch trace (CLIs print it to stderr)."""
        lines = [
            f"dispatch: {len(self.runs)} shard(s) over "
            f"{len(self.hosts)} host(s), work-stealing schedule, "
            f"plan {self.plan_fingerprint}"
        ]
        for run in self.runs:
            note = f" after {run.attempts - 1} failed attempt(s)" if run.retried else ""
            lines.append(
                f"  {run.shard.label}: {len(run.shard)} specs on {run.host}{note}"
            )
            lines.extend(f"    failure: {reason}" for reason in run.failures)
        if self.duplicates:
            lines.append(f"  {self.duplicates} duplicate completion(s) dropped")
        failures = self.failure_counts()
        if failures:
            rendered = "; ".join(
                f"{host}: "
                + ", ".join(
                    f"{kind} x{count}"
                    for kind, count in sorted(kinds.items())
                )
                for host, kinds in sorted(failures.items())
            )
            lines.append(f"  failure kinds: {rendered}")
        return lines


def merge_reports(reports: Sequence[RegressionReport]) -> RegressionReport:
    """Fold per-shard reports into one canonical report.

    Verdicts are re-sorted by spec exactly as ``RegressionRunner.run``
    sorts them, which makes the merged digest byte-identical to a
    serial run of the union of specs.  ``wall_seconds`` is the slowest
    shard (shards run in parallel); a dispatcher that measured the real
    wall clock overwrites it.
    """
    merged = RegressionReport(
        workers=sum(r.workers for r in reports) or 1,
        stopped_early=any(r.stopped_early for r in reports),
        wall_seconds=max((r.wall_seconds for r in reports), default=0.0),
    )
    for report in reports:
        merged.verdicts.extend(report.verdicts)
    merged.verdicts.sort(key=lambda v: (v.spec.model, v.spec.seed, v.spec.label))
    return merged


class _PendingShard:
    """One shard's place in the queue: its failure history travels with it."""

    __slots__ = ("shard", "failures", "failure_kinds", "excluded")

    def __init__(self, shard: Shard):
        self.shard = shard
        self.failures: List[str] = []
        self.failure_kinds: List[Tuple[str, str]] = []   # (host, kind)
        self.excluded: Set[str] = set()    # host names that failed it


class ShardQueue:
    """The work-stealing heart: a thread-safe shard queue with retry
    bookkeeping and duplicate-completion dedupe.

    Hosts call :meth:`take` when idle and get the first pending shard
    they have not already failed (or ``None`` when the dispatch is
    finished or aborted), then report back through :meth:`complete` or
    :meth:`fail`.  A failed shard re-enters the queue excluded from the
    host that failed it -- unless every host has now failed it once, in
    which case the exclusions reset so a flaky-but-alive pool can still
    finish.  A shard whose failure count reaches ``max_attempts``
    aborts the whole dispatch (the merged digest would otherwise be
    missing its verdicts).

    :meth:`complete` is idempotent per shard: the first completion
    wins, later ones are counted in :attr:`duplicates` and dropped.
    The dispatcher's blocking transports can never trigger this (a
    serving thread that raised never also completes), so it is an
    invariant rather than a recovery path -- it guarantees that a
    future late-completing transport, or any direct user of this
    queue, cannot double-merge verdicts or drift the digest.
    """

    def __init__(
        self,
        shards: Sequence[Shard],
        host_names: Sequence[str],
        max_attempts: int,
    ):
        self._pending: Deque[_PendingShard] = deque(
            _PendingShard(shard) for shard in shards
        )
        self._hosts = set(host_names)
        self._max_attempts = max_attempts
        self._in_flight = 0
        self._results: Dict[int, Tuple[ShardRun, RegressionReport]] = {}
        self._error: Optional[DispatchError] = None
        self._condition = threading.Condition()
        self.duplicates = 0

    @property
    def error(self) -> Optional[DispatchError]:
        """The abort reason, if a shard exhausted its attempts."""
        with self._condition:
            return self._error

    @property
    def finished(self) -> bool:
        """True once every shard completed (or the dispatch aborted).

        The elastic coordinator polls this while it grows and shrinks
        the serving pool mid-dispatch; the fixed-pool dispatcher simply
        joins its serving threads instead.
        """
        with self._condition:
            return self._error is not None or (
                not self._pending and self._in_flight == 0
            )

    def add_host(self, host_name: str) -> None:
        """Register a host that joined after the queue was built.

        Keeps the exclusion-reset accounting honest: a shard is only
        eligible for the every-host-failed-it reset once the *current*
        host set -- including late joiners -- has failed it.
        """
        with self._condition:
            self._hosts.add(host_name)
            self._condition.notify_all()

    def release_exclusions(self, live_hosts: Set[str]) -> None:
        """Re-open pending shards whose exclusions cover every live host.

        With a fixed pool the reset in :meth:`fail` suffices, but under
        churn a shard can end up excluded from every host still alive
        (the others having left) without any host failing it again to
        trigger that reset -- the serving threads would then block in
        :meth:`take` forever.  The coordinator calls this periodically
        with the currently live host names.
        """
        with self._condition:
            released = False
            for pending in self._pending:
                if live_hosts and live_hosts <= pending.excluded:
                    pending.excluded.clear()
                    released = True
            if released:
                self._condition.notify_all()

    def take(self, host_name: str) -> Optional[_PendingShard]:
        """Block until a shard is available for this host; None = done.

        "Done" means the dispatch finished (nothing pending, nothing in
        flight) or aborted -- an idle host whose only pending shards
        are ones it already failed waits for them to resolve elsewhere.
        """
        with self._condition:
            while True:
                if self._error is not None:
                    return None
                for position, pending in enumerate(self._pending):
                    if host_name not in pending.excluded:
                        del self._pending[position]
                        self._in_flight += 1
                        return pending
                if not self._pending and self._in_flight == 0:
                    return None
                self._condition.wait()

    def complete(
        self,
        pending: _PendingShard,
        host_name: str,
        report: RegressionReport,
        wall_seconds: float = 0.0,
    ) -> bool:
        """Record a finished shard; False = duplicate, result dropped."""
        with self._condition:
            self._in_flight = max(0, self._in_flight - 1)
            index = pending.shard.index
            accepted = index not in self._results
            if accepted:
                self._results[index] = (
                    ShardRun(
                        shard=pending.shard,
                        host=host_name,
                        attempts=len(pending.failures) + 1,
                        failures=tuple(pending.failures),
                        failure_kinds=tuple(pending.failure_kinds),
                        wall_seconds=wall_seconds,
                    ),
                    report,
                )
            else:
                self.duplicates += 1
            self._condition.notify_all()
            return accepted

    def fail(
        self,
        pending: _PendingShard,
        host_name: str,
        reason: str,
        kind: str = "transport",
    ) -> None:
        """Re-queue a failed shard away from the host that failed it."""
        with self._condition:
            self._in_flight = max(0, self._in_flight - 1)
            pending.failures.append(f"{host_name}: {reason}")
            pending.failure_kinds.append((host_name, kind))
            pending.excluded.add(host_name)
            if len(pending.failures) >= self._max_attempts:
                self._error = DispatchError(
                    f"{pending.shard.label} failed on every host after "
                    f"{len(pending.failures)} attempt(s): "
                    f"{'; '.join(pending.failures)}"
                )
            else:
                if self._hosts <= pending.excluded:
                    # every host failed it once; let any of them retry
                    # rather than deadlocking a flaky-but-alive pool
                    pending.excluded.clear()
                self._pending.append(pending)
            self._condition.notify_all()

    def abort(self, error: DispatchError) -> None:
        """Abort the dispatch (a serving thread crashed outside run_shard)."""
        with self._condition:
            self._in_flight = max(0, self._in_flight - 1)
            if self._error is None:
                self._error = error
            self._condition.notify_all()

    def results(
        self, shards: Sequence[Shard]
    ) -> List[Tuple[ShardRun, RegressionReport]]:
        """Completed (run, report) pairs in planned shard order."""
        with self._condition:
            return [
                self._results[shard.index]
                for shard in shards
                if shard.index in self._results
            ]


class ShardDispatcher:
    """Fans a spec list over shard hosts and merges the results.

    ``hosts`` defaults to one :class:`LocalSubprocessHost` per shard;
    pass a pool of :class:`~.http_host.HttpHost` for remote dispatch.
    ``max_attempts`` bounds how
    many tries a shard gets before the dispatch aborts (default: one
    try per host, minimum 2 so even a single flaky host gets one
    retry).
    """

    def __init__(
        self,
        specs: Sequence[ScenarioSpec],
        shards: int,
        hosts: Optional[Sequence[Host]] = None,
        max_attempts: Optional[int] = None,
        workers_per_shard: Optional[int] = None,
    ):
        if shards < 1:
            raise ValueError(f"shard count must be >= 1, got {shards}")
        self.specs = list(specs)
        self.shards = shards
        self.hosts: List[Host] = list(
            hosts
            if hosts is not None
            else [LocalSubprocessHost(f"local{i}") for i in range(shards)]
        )
        if not self.hosts:
            raise ValueError("at least one host is required")
        names = [host.name for host in self.hosts]
        if len(set(names)) != len(names):
            raise ValueError(
                f"host names must be unique, got {sorted(names)} "
                "(failure exclusion is by name)"
            )
        self.max_attempts = (
            max_attempts if max_attempts is not None else max(2, len(self.hosts))
        )
        self.workers_per_shard = workers_per_shard

    def _serve(self, host: Host, queue: ShardQueue, spec_file: str) -> None:
        """One host's serving loop: pull, run, report, repeat."""
        while True:
            pending = queue.take(host.name)
            if pending is None:
                return
            work = ShardWork(
                shard=pending.shard,
                spec_file=spec_file,
                workers=self.workers_per_shard,
            )
            attempt_started = time.perf_counter()
            try:
                report = host.run_shard(work)
            except HostFailure as exc:
                queue.fail(pending, host.name, exc.reason, kind=exc.kind)
            except Exception as exc:  # noqa: BLE001 -- a crashed server thread must abort, not hang, the dispatch
                queue.abort(
                    DispatchError(
                        f"host {host.name} crashed the dispatcher on "
                        f"{pending.shard.label}: {type(exc).__name__}: {exc}"
                    )
                )
                return
            else:
                queue.complete(
                    pending,
                    host.name,
                    report,
                    wall_seconds=time.perf_counter() - attempt_started,
                )

    def _dispatch(
        self, live: Sequence[Shard], spec_file: str
    ) -> List[Tuple[ShardRun, RegressionReport]]:
        queue = ShardQueue(
            live, [host.name for host in self.hosts], self.max_attempts
        )
        threads = [
            threading.Thread(
                target=self._serve,
                args=(host, queue, spec_file),
                name=f"dispatch-{host.name}",
                daemon=True,
            )
            for host in self.hosts
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        error = queue.error
        if error is not None:
            raise error
        self._last_duplicates = queue.duplicates
        return queue.results(live)

    # -- entry point --------------------------------------------------------------

    def run(self) -> DispatchOutcome:
        """Plan, dispatch, merge, report."""
        if OBS.enabled:
            with OBS.tracer.span(
                "dispatch.run",
                "dispatch",
                shards=self.shards,
                hosts=len(self.hosts),
            ) as span:
                outcome = self._run()
                span.set(
                    retries=outcome.retries, duplicates=outcome.duplicates
                )
                self._emit_observability(outcome, span.span_id)
            return outcome
        return self._run()

    def _run(self) -> DispatchOutcome:
        started = time.perf_counter()
        plan = plan_shards(self.specs, self.shards)
        live = [shard for shard in plan if shard.specs]
        self._last_duplicates = 0
        with tempfile.TemporaryDirectory(prefix="repro-dispatch-") as tmp:
            # the spec file only exists for transports that re-derive
            # their slice host-side (subprocess --shard K/N); network
            # hosts serialize the slice into the request instead, so
            # an all-HTTP pool skips the disk round trip entirely
            spec_file = ""
            if any(getattr(host, "uses_spec_file", False) for host in self.hosts):
                spec_file = os.path.join(tmp, "specs.json")
                save_specs(self.specs, spec_file)
            results = self._dispatch(live, spec_file) if live else []
        runs = [run for run, _ in results]
        merged = merge_reports([report for _, report in results])
        merged.wall_seconds = time.perf_counter() - started
        merged.workers = len(live) or 1
        return DispatchOutcome(
            report=merged,
            runs=runs,
            hosts=tuple(host.name for host in self.hosts),
            plan_fingerprint=plan_digest(plan),
            duplicates=self._last_duplicates,
            host_metrics=self._fetch_host_metrics(),
        )

    def _fetch_host_metrics(self) -> Dict[str, Dict]:
        """Best-effort ``/metrics`` pull from every capable host."""
        documents: Dict[str, Dict] = {}
        for host in self.hosts:
            fetch = getattr(host, "fetch_metrics", None)
            if fetch is None:
                continue
            doc = fetch()
            if doc is not None:
                documents[host.name] = doc
        return documents

    def _emit_observability(
        self, outcome: DispatchOutcome, parent_id: Optional[int]
    ) -> None:
        """Fold the finished dispatch into the tracer and registry.

        Shard lifecycle becomes synthetic ``dispatch.shard/...`` spans
        under the ``dispatch.run`` span (attempt counts, completing
        host, measured wall time); retry/steal/duplicate totals and the
        per-host latency histogram go to the metrics registry.
        """
        if OBS.tracer.enabled:
            for run in outcome.runs:
                OBS.tracer.record(
                    f"dispatch.shard/{run.shard.label}",
                    "dispatch",
                    run.wall_seconds,
                    parent_id=parent_id,
                    shard=run.shard.label,
                    host=run.host,
                    attempts=run.attempts,
                    specs=len(run.shard),
                )
        if OBS.metrics.enabled:
            registry = OBS.metrics
            registry.counter("dispatch.shards_completed").inc(
                len(outcome.runs)
            )
            registry.counter("dispatch.retries").inc(outcome.retries)
            registry.counter("dispatch.duplicates").inc(outcome.duplicates)
            for run in outcome.runs:
                registry.histogram(
                    "dispatch.shard_seconds", host=run.host
                ).observe(run.wall_seconds)
            for host, kinds in outcome.failure_counts().items():
                for kind, count in kinds.items():
                    registry.counter(
                        "dispatch.host_failures", host=host, kind=kind
                    ).inc(count)
