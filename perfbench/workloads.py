"""The benchmark's fixed workloads: spec lists and one warm pass each.

Every workload is a closed loop with one client: a pass submits one
fixed, seeded spec list and waits for the merged result.  The seed is
the only input; the spec *shape* (models x topologies x profiles x
cycles) is fixed so that two seeds differ only in their random
streams, not in how much work a pass does.

Imports of ``repro`` happen inside functions: ``run.py`` puts the
checkout's ``src`` on ``sys.path`` first, and a ref that lacks an API
a workload needs raises :class:`Unavailable` instead of crashing.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import shutil
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

#: cycles per regression scenario; 40 specs x 300 = 12,000 cycles a pass
CYCLES = 300
#: 2 models x 4 topologies per traffic profile (build_specs cycles both)
SPECS_PER_PROFILE = 8
#: the close-frontier regime ``benchmarks/bench_checkpoint.py`` pins
CLOSE_ROUNDS = 6
CLOSE_CYCLES = 160
CLOSE_MAX_GOALS = 6
#: shards per regress-http pass, all served by one worker connection
HTTP_SHARDS = 4

WORKLOADS = ("regress-plain", "regress-monitored", "close-frontier", "regress-http")


class Unavailable(Exception):
    """The checked-out program lacks an API this workload needs."""


@dataclass
class PassResult:
    """What one warm pass produced (the correctness gate reads it)."""

    digest: str
    #: per-scenario (ok, host wall seconds)
    verdicts: List[tuple]
    transactions: int
    #: simulated cycles actually run (a resumed spec counts its remainder)
    cycles: int
    facts: Dict[str, Any] = field(default_factory=dict)
    #: what the traced pass compares: the verdict list (regress, close)
    #: or the dispatch outcome (http)
    payload: Any = None


def regression_specs(
    seed: int,
    with_monitors: bool,
    cycles: int = CYCLES,
    profiles: Optional[Sequence[str]] = None,
):
    """Both models x every topology x every named profile, seeded."""
    from repro.scenarios import NAMED_PROFILES, build_specs

    names = sorted(NAMED_PROFILES) if profiles is None else list(profiles)
    specs = []
    for index, profile in enumerate(names):
        specs += build_specs(
            count=SPECS_PER_PROFILE,
            base_seed=seed + SPECS_PER_PROFILE * index,
            cycles=cycles,
            with_monitors=with_monitors,
            profiles=[profile],
        )
    return specs


def property_set(spec) -> list:
    """The PSL directives a monitored run of ``spec`` binds."""
    if spec.model == "master_slave":
        from repro.models.master_slave.properties import ms_invariant_properties

        blocking, non_blocking, slaves = spec.topology
        return ms_invariant_properties(
            blocking + non_blocking, slaves, include_handshake=False
        )
    from repro.models.pci.properties import pci_safety_properties

    masters, targets = spec.topology
    return pci_safety_properties(masters, targets)


def distinct_property_sets(specs) -> list:
    """One directive list per distinct (model, topology) in ``specs``."""
    seen = {}
    for spec in specs:
        if spec.with_monitors:
            seen.setdefault((spec.model, spec.topology), spec)
    return [property_set(spec) for spec in seen.values()]


def compile_sets(directive_sets) -> None:
    """Compile every set through the public construction path."""
    from repro.psl import compile_properties

    for directives in directive_sets:
        compile_properties(directives)


class RecordingEngine:
    """Serial engine that keeps every verdict it produced.

    ``runner`` replaces the work function the caller passes (the traced
    pass hands in its layer-by-layer composition of ``run_scenario``).
    """

    name = "serial"
    workers = 1

    def __init__(self, runner=None):
        self.runner = runner
        self.verdicts: list = []

    def imap(self, fn, items):
        run = self.runner or fn
        for item in items:
            verdict = run(item)
            self.verdicts.append(verdict)
            yield verdict


class Workload:
    """One named workload: ``setup`` once, then warm ``run_pass`` calls."""

    name = ""
    uses_monitors = False

    def __init__(self, seed: int, root: str, workdir: str, small: bool = False):
        self.seed = seed
        self.root = root
        self.workdir = workdir
        #: tiny sizes for the self-tests; never used by a measured run
        self.small = small

    def setup(self) -> None:
        """Build inputs and warm lazy state (not part of any pass)."""

    def run_pass(self, runner=None) -> PassResult:
        raise NotImplementedError

    def close(self) -> None:
        """Release processes and files the workload holds."""

    # helpers ---------------------------------------------------------------

    def _specs(self, with_monitors: bool):
        if self.small:
            return regression_specs(
                self.seed, with_monitors, cycles=40, profiles=["bursty"]
            )
        return regression_specs(self.seed, with_monitors)


class Regress(Workload):
    """Serial ``RegressionRunner`` over the fixed spec list."""

    def __init__(self, *args, monitors: bool, **kwargs):
        super().__init__(*args, **kwargs)
        self.uses_monitors = monitors
        self.name = "regress-monitored" if monitors else "regress-plain"
        self.specs: list = []

    def setup(self) -> None:
        self.specs = self._specs(self.uses_monitors)
        if self.uses_monitors:
            compile_sets(distinct_property_sets(self.specs))

    def run_pass(self, runner=None) -> PassResult:
        from repro.scenarios.regression import RegressionRunner

        engine = RecordingEngine(runner)
        report = RegressionRunner(self.specs, engine=engine).run()
        return PassResult(
            digest=report.digest(),
            verdicts=[(v.ok, v.wall_seconds) for v in report.verdicts],
            transactions=report.transactions,
            cycles=sum(spec.cycles for spec in self.specs),
            payload=report.verdicts,
        )


class CloseFrontier(Workload):
    """``explore()`` then ``close_coverage(frontier=True)`` on Master/Slave."""

    name = "close-frontier"

    def setup(self) -> None:
        try:
            import repro.checkpoint  # noqa: F401 -- capability probe
            from repro.workbench import Workbench
        except ImportError as exc:
            raise Unavailable(f"no checkpoint layer: {exc}") from exc
        if "frontier" not in inspect.signature(Workbench.close_coverage).parameters:
            raise Unavailable("close_coverage has no frontier mode")

    @property
    def spill(self) -> str:
        """The checkpoint spill directory, inside the work directory."""
        return os.path.join(self.workdir, "checkpoints")

    def _fresh_registry(self) -> None:
        """Every pass starts from an empty checkpoint store, memory and disk."""
        from repro.checkpoint import SPILL_DIR_ENV, reset_global_registry

        shutil.rmtree(self.spill, ignore_errors=True)
        os.makedirs(self.spill)
        os.environ[SPILL_DIR_ENV] = self.spill
        reset_global_registry()

    def run_pass(self, runner=None, tracer=None) -> PassResult:
        from repro.workbench import Workbench

        self._fresh_registry()
        engine = RecordingEngine(runner)
        rounds, cycles = (2, 60) if self.small else (CLOSE_ROUNDS, CLOSE_CYCLES)
        started = time.perf_counter()
        workbench = Workbench("master_slave", engine=engine, seed=self.seed)
        with _span(tracer, "explorer.explore", "explorer"):
            explored = workbench.explore()
        explore_s = time.perf_counter() - started
        with _span(tracer, "close.close_coverage", "close"):
            result = workbench.close_coverage(
                rounds=rounds,
                cycles=cycles,
                max_goals=CLOSE_MAX_GOALS,
                frontier=True,
            )
        data = result.data
        if not result.ok or "achieved" not in data:
            raise RuntimeError(f"close_coverage failed: {result.summary}")
        outcome = {
            "closed": data["achieved"],
            "of": data["residue_before"]["uncovered_transitions"],
            "cycles_simulated": data["cycles_simulated"],
            "forked_goals": data["forked_goals"],
            "round_digests": [r["regression_digest"] for r in data["run"]],
        }
        digest = hashlib.sha256(
            json.dumps(outcome, sort_keys=True).encode("utf-8")
        ).hexdigest()[:16]
        return PassResult(
            digest=digest,
            verdicts=[(v.ok, v.wall_seconds) for v in engine.verdicts],
            transactions=sum(r["transactions"] for r in data["run"]),
            cycles=data["cycles_simulated"],
            facts={
                **{k: v for k, v in outcome.items() if k != "round_digests"},
                "cycles_saved": data["cycles_saved"],
                "explore_s": explore_s,
                "states": explored.data["states"],
                "transitions": explored.data["transitions"],
                "specs": [v.spec for v in engine.verdicts],
            },
            payload=engine.verdicts,
        )

    def close(self) -> None:
        shutil.rmtree(self.spill, ignore_errors=True)


class RegressHttp(Workload):
    """regress-plain's spec list through one HTTP worker subprocess."""

    name = "regress-http"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.process: Optional[subprocess.Popen] = None
        self.address = ""
        self.specs: list = []

    def setup(self) -> None:
        try:
            from repro.dispatch import CachingHttpHost, ShardDispatcher  # noqa: F401
        except ImportError as exc:
            raise Unavailable(f"no caching HTTP dispatch: {exc}") from exc
        self.specs = self._specs(False)
        self.process, self.address = spawn_worker(self.root, self.workdir)

    def run_pass(self, runner=None, wrap_host=None, tracer=None) -> PassResult:
        from repro.dispatch import CachingHttpHost, ShardDispatcher, specs_fingerprint

        host = CachingHttpHost(self.address, name="worker0")
        host.prime(specs_fingerprint(self.specs), self.specs)
        with _span(tracer, "dispatch.run", "dispatch") as span:
            pool_host = wrap_host(host, span.span_id) if wrap_host else host
            outcome = ShardDispatcher(
                self.specs, shards=HTTP_SHARDS, hosts=[pool_host]
            ).run()
        report = outcome.report
        return PassResult(
            digest=report.digest(),
            verdicts=[(v.ok, v.wall_seconds) for v in report.verdicts],
            transactions=report.transactions,
            cycles=sum(spec.cycles for spec in self.specs),
            facts={
                "retries": outcome.retries,
                "bytes_shipped": host.bytes_shipped,
                "bytes_saved": host.bytes_saved,
            },
            payload=outcome,
        )

    def worker_peak_rss_kb(self) -> int:
        """The worker's high-water resident set (Linux /proc), 0 if unknown."""
        if self.process is None:
            return 0
        try:
            with open(f"/proc/{self.process.pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1])
        except OSError:
            pass
        return 0

    def close(self) -> None:
        stop_process(self.process)
        self.process = None


def make_workload(name: str, seed: int, root: str, workdir: str, small=False):
    """The workload object for ``name``."""
    args = (seed, root, workdir)
    if name == "regress-plain":
        return Regress(*args, monitors=False, small=small)
    if name == "regress-monitored":
        return Regress(*args, monitors=True, small=small)
    if name == "close-frontier":
        return CloseFrontier(*args, small=small)
    if name == "regress-http":
        return RegressHttp(*args, small=small)
    raise ValueError(f"unknown workload {name!r} (choose from {', '.join(WORKLOADS)})")


# -- subprocess plumbing -------------------------------------------------------


def child_env(root: str, workdir: str) -> Dict[str, str]:
    """Environment for children: the checkout's ``src``, temp files in workdir."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["TMPDIR"] = workdir
    return env


def spawn_worker(root: str, workdir: str, timeout: float = 60.0):
    """Start ``python -m repro.dispatch.worker --port 0``; wait for /healthz."""
    log = open(os.path.join(workdir, "worker.log"), "ab")
    try:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.dispatch.worker", "--port", "0"],
            cwd=root,
            env=child_env(root, workdir),
            stdout=subprocess.PIPE,
            stderr=log,
            text=True,
        )
    finally:
        log.close()
    try:
        line = process.stdout.readline()
        if "http://" not in line:
            raise RuntimeError(f"worker did not announce an address: {line!r}")
        address = line.rsplit("http://", 1)[1].strip()
        deadline = time.monotonic() + timeout
        while not _healthy(address):
            if process.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("worker never answered /healthz")
            time.sleep(0.01)
    except BaseException:
        stop_process(process)
        raise
    return process, address


def _healthy(address: str) -> bool:
    try:
        with urllib.request.urlopen(f"http://{address}/healthz", timeout=2) as reply:
            return bool(json.loads(reply.read()).get("ok"))
    except (OSError, ValueError):
        return False


def stop_process(process: Optional[subprocess.Popen]) -> None:
    """Terminate a child and wait until it has exited."""
    if process is None:
        return
    if process.poll() is None:
        process.terminate()
        try:
            process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    if process.stdout is not None:
        process.stdout.close()


class _NoSpan:
    span_id = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None


def _span(tracer, name: str, component: str):
    return tracer.span(name, component) if tracer is not None else _NoSpan()
