"""Parallel regression running for scenario verification.

Fans N seeded scenarios across an execution engine, checks every one
against its ASM reference scoreboard (plus, optionally, the PSL
assertion monitors), and aggregates verdicts, stimulus coverage and
throughput into one report.

Determinism contract: a :class:`ScenarioSpec` fully determines its
scenario -- same spec, same transaction stream, same verdict digest --
so the report's :meth:`RegressionReport.digest` is stable across runs,
worker counts and schedulers (results are re-sorted by spec before
aggregation).  Wall-clock numbers live outside the digest.

The command line is ``python -m repro regress``: without ``--model``
it runs :func:`build_specs` over every scenario model (or a
``--spec-file`` written by :func:`save_specs`) and prints this
module's :meth:`RegressionReport.to_json` with ``--json``; ``--shard
K/N`` and ``--merge`` slice and fold that report for cross-host
dispatch, and the merged digest is byte-identical to a serial run::

    python -m repro regress --scenarios 60 --shard 1/3 --json > s1.json
    python -m repro regress --scenarios 60 --shard 2/3 --json > s2.json
    python -m repro regress --scenarios 60 --shard 3/3 --json > s3.json
    python -m repro regress --merge s1.json s2.json s3.json --json

Fan-out runs through the pluggable engine seam
(:mod:`repro.scenarios.engines`; the cross-host engines and the one
engine selection live in :mod:`repro.dispatch`); the session-level
entry point is :meth:`repro.workbench.Workbench.regress`.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..obs.runtime import OBS
from .coverage_driven import BinCoverage
from .directed import DirectedSequence, TransactionGoal
from .engines import Engine, resolve_engine
from .random_ import ScenarioRng
from .scoreboard import FaultPlan
from .sequences import NAMED_PROFILES, sequence_for_profile

#: Topologies cycled through by :func:`build_specs`, per model.
MS_TOPOLOGIES: Tuple[Tuple[int, int, int], ...] = (
    (1, 1, 2), (1, 2, 2), (2, 1, 3), (2, 2, 2),
)
PCI_TOPOLOGIES: Tuple[Tuple[int, int], ...] = (
    (1, 1), (2, 2), (2, 3), (3, 2),
)

MODELS = ("master_slave", "pci")


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully determined scenario (picklable for worker dispatch)."""

    model: str                       # "master_slave" | "pci"
    seed: int
    topology: Tuple[int, ...]        # ms: (blocking, non_blocking, slaves); pci: (masters, targets)
    profile: str = "default"
    cycles: int = 400
    fault: Optional[FaultPlan] = None
    with_monitors: bool = False
    #: directed transaction goals; non-empty switches the stimulus from
    #: the named profile to a DirectedSequence playing exactly these
    goals: Tuple[TransactionGoal, ...] = ()
    #: reconstruct the run's coarse ASM event stream into the verdict
    #: (the simulation->FSM mapping the closure loop folds back)
    track_fsm: bool = False
    #: checkpoint digest to resume from instead of running from reset;
    #: ``cycles`` stays the *total* -- the run covers the remainder.
    #: Resolved against the running process's
    #: :func:`repro.checkpoint.global_registry` (a ``--shard`` child
    #: fills it from its spec file) or a worker's ``/checkpoints`` cache.
    resume_from: Optional[str] = None
    #: cycle boundary to snapshot at (<= ``cycles``); the checkpoint
    #: travels back as the verdict's ``checkpoint`` sidecar, its digest
    #: as ``frontier_digest``.  The closure loop sets this to cache
    #: frontier states its next round can fork from.
    checkpoint_at: Optional[int] = None

    @property
    def label(self) -> str:
        shape = "x".join(str(n) for n in self.topology)
        return f"{self.model}[{shape}]#{self.seed}/{self.profile}"

    def to_json(self) -> Dict[str, Any]:
        """Model-agnostic wire form: everything a remote host needs to
        rebuild the spec is plain JSON scalars, no pickling."""
        return {
            "model": self.model,
            "seed": self.seed,
            "topology": list(self.topology),
            "profile": self.profile,
            "cycles": self.cycles,
            "fault": self.fault.to_json() if self.fault else None,
            "with_monitors": self.with_monitors,
            "goals": [g.to_json() for g in self.goals],
            "track_fsm": self.track_fsm,
            "resume_from": self.resume_from,
            "checkpoint_at": self.checkpoint_at,
        }

    @classmethod
    def from_json(cls, doc: Dict[str, Any]) -> "ScenarioSpec":
        fault = doc.get("fault")
        return cls(
            model=doc["model"],
            seed=doc["seed"],
            topology=tuple(doc["topology"]),
            profile=doc.get("profile", "default"),
            cycles=doc.get("cycles", 400),
            fault=FaultPlan.from_json(fault) if fault else None,
            with_monitors=doc.get("with_monitors", False),
            goals=tuple(
                TransactionGoal.from_json(g) for g in doc.get("goals", ())
            ),
            track_fsm=doc.get("track_fsm", False),
            resume_from=doc.get("resume_from"),
            checkpoint_at=doc.get("checkpoint_at"),
        )


@dataclass
class ScenarioVerdict:
    """What one scenario run produced (returned from the worker)."""

    spec: ScenarioSpec
    ok: bool
    matches: int
    mismatches: Tuple[str, ...]          # described divergences
    mismatch_kinds: Tuple[str, ...]
    failed_assertions: Tuple[str, ...]
    transactions: int
    words: int
    cycles: int
    wall_seconds: float
    stream_digest: str                   # sha256 of the transaction stream
    scoreboard_digest: str
    #: stimulus-bin hits ("target0/W/short" -> count), for coverage
    #: aggregation across the regression
    bin_hits: Tuple[Tuple[str, int], ...] = ()
    #: coarse ASM events reconstructed from the run's records
    #: (only when the spec asked for ``track_fsm``)
    fsm_events: Tuple[Tuple[str, str, tuple], ...] = ()
    #: digest of the checkpoint ``spec.checkpoint_at`` captured, if any
    frontier_digest: Optional[str] = None
    #: that checkpoint itself, riding back with the verdict (pickle or
    #: ``to_json``): a sidecar outside equality and every digest
    checkpoint: Optional[Any] = field(default=None, compare=False, repr=False)

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        line = (
            f"[{status}] {self.spec.label}: {self.transactions} txns, "
            f"{self.words} words, {self.matches} matched"
        )
        if self.mismatches:
            line += f", {len(self.mismatches)} mismatched ({', '.join(sorted(set(self.mismatch_kinds)))})"
        if self.failed_assertions:
            line += f", assertions failed: {', '.join(self.failed_assertions)}"
        return line

    def to_json(self) -> Dict[str, Any]:
        """Machine-readable verdict (wall time excluded from digests).

        Lossless: ``from_json`` rebuilds an equal verdict, which is what
        lets a shard host ship its results back as JSON and the merger
        fold them into a report whose digest matches a serial run.  A
        ``checkpoint`` sidecar is emitted only when present.
        """
        doc = {
            "label": self.spec.label,
            "model": self.spec.model,
            "seed": self.spec.seed,
            "profile": self.spec.profile,
            "spec": self.spec.to_json(),
            "ok": self.ok,
            "matches": self.matches,
            "mismatches": list(self.mismatch_kinds),
            "mismatch_detail": list(self.mismatches),
            "failed_assertions": list(self.failed_assertions),
            "transactions": self.transactions,
            "words": self.words,
            "cycles": self.cycles,
            "wall_seconds": round(self.wall_seconds, 6),
            "stream_digest": self.stream_digest,
            "scoreboard_digest": self.scoreboard_digest,
            "bin_hits": [[name, hits] for name, hits in self.bin_hits],
            "fsm_events": [
                [machine, action, list(args)]
                for machine, action, args in self.fsm_events
            ],
            "frontier_digest": self.frontier_digest,
        }
        if self.checkpoint is not None:
            doc["checkpoint"] = self.checkpoint.to_json()
        return doc

    @classmethod
    def from_json(cls, doc: Dict[str, Any]) -> "ScenarioVerdict":
        """Rebuild a verdict, verifying its sidecar (a damaged one, or one
        that is not ``frontier_digest``, raises a ``CheckpointError``)."""
        checkpoint = doc.get("checkpoint")
        if checkpoint is not None:
            checkpoint = _verified_sidecar(
                checkpoint, doc.get("frontier_digest")
            )
        return cls(
            spec=ScenarioSpec.from_json(doc["spec"]),
            ok=doc["ok"],
            matches=doc["matches"],
            mismatches=tuple(doc.get("mismatch_detail", ())),
            mismatch_kinds=tuple(doc["mismatches"]),
            failed_assertions=tuple(doc["failed_assertions"]),
            transactions=doc["transactions"],
            words=doc["words"],
            cycles=doc["cycles"],
            wall_seconds=doc["wall_seconds"],
            stream_digest=doc["stream_digest"],
            scoreboard_digest=doc["scoreboard_digest"],
            bin_hits=tuple((name, hits) for name, hits in doc.get("bin_hits", ())),
            fsm_events=tuple(
                (machine, action, tuple(args))
                for machine, action, args in doc.get("fsm_events", ())
            ),
            frontier_digest=doc.get("frontier_digest"),
            checkpoint=checkpoint,
        )


def _verified_sidecar(doc: Any, frontier_digest: Optional[str]) -> Any:
    """The checkpoint a verdict document carries, verified end to end."""
    from ..checkpoint.errors import CheckpointIntegrityError
    from ..checkpoint.snapshot import Checkpoint

    checkpoint = Checkpoint.from_json(doc)
    if checkpoint.digest != frontier_digest:
        raise CheckpointIntegrityError(
            f"verdict sidecar is checkpoint {checkpoint.digest}, but its "
            f"frontier_digest is {frontier_digest!r}"
        )
    return checkpoint


def _build_system(spec: ScenarioSpec):
    """Instantiate the scenario system for a spec (worker side)."""
    if spec.goals:
        sequence: Any = DirectedSequence(spec.goals)
    else:
        sequence = sequence_for_profile(spec.profile)
    if spec.model == "master_slave":
        from ..models.master_slave.scenario import MsScenarioSystem

        blocking, non_blocking, slaves = spec.topology
        return MsScenarioSystem(
            blocking, non_blocking, slaves, sequence, spec.seed, fault=spec.fault
        )
    if spec.model == "pci":
        from ..models.pci.scenario import PciScenarioSystem

        masters, targets = spec.topology
        # a directed PCI run disables random STOP#s: target back-off is
        # not expressible as a transaction goal, so letting it fire
        # would only knock planned schedules off their path
        extra = {"stop_probability": 0.0} if spec.goals else {}
        return PciScenarioSystem(
            masters, targets, sequence, spec.seed, fault=spec.fault, **extra
        )
    raise ValueError(f"unknown model {spec.model!r}")


def _monitor_directives(model: str, topology: tuple) -> list:
    """The model's PSL assertion suite for one topology."""
    if model == "master_slave":
        from ..models.master_slave.properties import ms_invariant_properties

        blocking, non_blocking, slaves = topology
        return ms_invariant_properties(
            blocking + non_blocking, slaves, include_handshake=False
        )
    from ..models.pci.properties import pci_safety_properties

    masters, targets = topology
    return pci_safety_properties(masters, targets)


def _attach_monitors(spec: ScenarioSpec, system):
    """Optionally bind the model's PSL assertion suite to the run.

    The suite's plans are resolved once per (model, topology, engine)
    in the process (:func:`repro.psl.compiled.compile_suite`); each
    scenario builds only fresh monitors from them.
    """
    from ..abv.harness import AbvHarness
    from ..psl.compiled import compile_suite

    monitors = compile_suite(
        (spec.model, spec.topology),
        lambda: _monitor_directives(spec.model, spec.topology),
    )
    harness = AbvHarness(system.simulator, system.clock, system.letter)
    harness.add_monitors(monitors)
    return harness


def run_scenario(
    spec: ScenarioSpec, checkpoint: Optional[Any] = None
) -> ScenarioVerdict:
    """Execute one spec end to end (the multiprocessing work unit).

    ``checkpoint`` is the one ``spec.resume_from`` names, when the
    caller already holds it (a worker daemon hands each scenario the
    checkpoints its request uploaded); without it the digest resolves
    in :func:`repro.checkpoint.global_registry`.  A ``checkpoint_at``
    capture is the verdict's sidecar, and no registry's entry.
    """
    if OBS.enabled:
        with OBS.tracer.span(
            "scenarios.run_scenario",
            "scenarios",
            model=spec.model,
            label=spec.label,
            seed=spec.seed,
        ) as span:
            verdict = _run_scenario(spec, checkpoint)
            span.set(transactions=verdict.transactions, ok=verdict.ok)
        return verdict
    return _run_scenario(spec, checkpoint)


def _capture_frontier(spec: ScenarioSpec, system, harness, at_cycles: int):
    """Snapshot the (quiescent) system: the verdict's sidecar."""
    from dataclasses import replace

    from ..checkpoint.capture import snapshot_system

    base = replace(
        spec, cycles=at_cycles, resume_from=None, checkpoint_at=None
    )
    checkpoint = snapshot_system(system, base, at_cycles, harness=harness)
    if OBS.metrics.enabled:
        OBS.metrics.counter("checkpoint.captured").inc()
    return checkpoint


def _run_scenario(spec: ScenarioSpec, checkpoint: Optional[Any]) -> ScenarioVerdict:
    started = time.perf_counter()
    if spec.resume_from:
        # resume: rebuild the system in its checkpointed state and run
        # only the remainder (spec.cycles is the total).  Imported
        # lazily -- repro.checkpoint builds on this module.
        from ..checkpoint.capture import restore_scenario

        if checkpoint is None:
            from ..checkpoint.store import global_registry

            checkpoint = global_registry().get(spec.resume_from)
        system, harness = restore_scenario(spec, checkpoint)
        done = checkpoint.cycles_run
        if OBS.metrics.enabled:
            OBS.metrics.counter("checkpoint.resume").inc()
            OBS.metrics.counter("checkpoint.cycles_skipped").inc(done)
    else:
        system = _build_system(spec)
        harness = _attach_monitors(spec, system) if spec.with_monitors else None
        if harness is not None and spec.checkpoint_at is not None:
            # the snapshot replays the letter stream; record from cycle 0
            harness.record_letters = True
        done = 0
    try:
        return _drive(spec, system, harness, done, started)
    finally:
        if harness is not None:
            harness.close()
        system.close()


def _drive(
    spec: ScenarioSpec, system, harness, done: int, started: float
) -> ScenarioVerdict:
    """Run a built (or restored) system through ``spec.cycles`` and
    check it: the verdict of :func:`_run_scenario`."""
    frontier = None
    if (
        spec.checkpoint_at is not None
        and done < spec.checkpoint_at <= spec.cycles
    ):
        system.run_cycles(spec.checkpoint_at - done)
        frontier = _capture_frontier(spec, system, harness, spec.checkpoint_at)
        done = spec.checkpoint_at
    if spec.cycles > done:
        system.run_cycles(spec.cycles - done)
    if harness is not None:
        harness.wrap_up()
    with OBS.tracer.span("scenarios.check", "scenarios", label=spec.label):
        report = system.check(spec.label)
        stream = system.transaction_stream()
        records = system.records()
        ctx, window, base = system.coverage_context()
        bins = BinCoverage(ctx)
        bins.record_many((txn for txn, _ in records), window, base)
    failed = tuple(
        binding.monitor.name for binding in (harness.failed if harness else [])
    )
    wall = time.perf_counter() - started
    events = (
        tuple((m, a, tuple(args)) for m, a, args in system.fsm_events())
        if spec.track_fsm
        else ()
    )
    return ScenarioVerdict(
        spec=spec,
        ok=report.ok and not failed,
        matches=report.matches,
        mismatches=tuple(m.describe() for m in report.mismatches),
        mismatch_kinds=tuple(m.kind.value for m in report.mismatches),
        failed_assertions=failed,
        transactions=len(records),
        words=report.words_checked,
        cycles=spec.cycles,
        wall_seconds=wall,
        stream_digest=hashlib.sha256(stream.encode("utf-8")).hexdigest()[:16],
        scoreboard_digest=report.digest(),
        bin_hits=tuple(
            sorted((bin_.describe(), hits) for bin_, hits in bins.hits.items())
        ),
        fsm_events=events,
        frontier_digest=frontier.digest if frontier is not None else None,
        checkpoint=frontier,
    )


def build_specs(
    models: Sequence[str] = MODELS,
    count: int = 20,
    base_seed: int = 2005,
    cycles: int = 400,
    with_monitors: bool = False,
    profiles: Optional[Sequence[str]] = None,
    track_fsm: bool = False,
) -> List[ScenarioSpec]:
    """N specs spread over the models, topologies and named profiles.

    Spec construction is itself seeded (``base_seed``), so a regression
    is reproducible end to end from one integer.  ``profiles`` narrows
    the traffic-profile pool (default: every named profile) -- the
    workbench's coverage-residue bias passes the pressure profiles
    here.
    """
    picker = ScenarioRng(base_seed, "regression-specs")
    if profiles is None:
        profiles = sorted(NAMED_PROFILES)
    else:
        unknown = sorted(set(profiles) - set(NAMED_PROFILES))
        if unknown:
            raise ValueError(
                f"unknown traffic profiles {unknown!r} "
                f"(choose from {', '.join(sorted(NAMED_PROFILES))})"
            )
        profiles = sorted(set(profiles))
    specs: List[ScenarioSpec] = []
    for index in range(count):
        model = models[index % len(models)]
        if model == "master_slave":
            topology: Tuple[int, ...] = MS_TOPOLOGIES[
                (index // len(models)) % len(MS_TOPOLOGIES)
            ]
        else:
            topology = PCI_TOPOLOGIES[(index // len(models)) % len(PCI_TOPOLOGIES)]
        profile = profiles[
            picker.derive(f"profile{index}").ranged_int(0, len(profiles) - 1)
        ]
        specs.append(
            ScenarioSpec(
                model=model,
                seed=base_seed + index,
                topology=topology,
                profile=profile,
                cycles=cycles,
                with_monitors=with_monitors,
                track_fsm=track_fsm,
            )
        )
    return specs


#: The spec-file format :func:`save_specs` writes and :func:`load_specs` reads.
SPEC_FILE_VERSION = 1


class SpecFileError(ValueError):
    """A spec file is unreadable, not a spec document, or malformed."""


def save_specs(specs: Sequence[ScenarioSpec], path: str) -> None:
    """Write a spec list as the versioned JSON wire format, with the
    wire documents of the checkpoints its specs resume from
    (``"checkpoints"``) so the loading process can resolve them."""
    doc: Dict[str, Any] = {
        "version": SPEC_FILE_VERSION,
        "specs": [s.to_json() for s in specs],
    }
    if any(spec.resume_from for spec in specs):
        from ..checkpoint.store import resume_checkpoints

        doc["checkpoints"] = [c.to_json() for c in resume_checkpoints(specs)]
    text = json.dumps(doc, indent=2, sort_keys=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def load_specs(path: str) -> List[ScenarioSpec]:
    """Read a spec list written by :func:`save_specs`.

    Every way the file can be wrong -- unreadable, not JSON, not a
    spec document, another format version, an entry that does not
    rebuild a spec of a known model, an embedded checkpoint that fails
    verification -- raises :class:`SpecFileError` naming the path (and
    the entry), never a bare parse error.  The verified checkpoints go
    into this process's :func:`repro.checkpoint.global_registry`.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise SpecFileError(f"{path}: cannot read spec file: {exc.strerror}") from exc
    except ValueError as exc:
        raise SpecFileError(f"{path}: not JSON: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("specs"), list):
        raise SpecFileError(f"{path}: not a scenario spec file")
    version = doc.get("version")
    if version != SPEC_FILE_VERSION:
        raise SpecFileError(
            f"{path}: unsupported spec file version {version!r} "
            f"(expected {SPEC_FILE_VERSION})"
        )
    specs = []
    for index, entry in enumerate(doc["specs"]):
        try:
            spec = ScenarioSpec.from_json(entry)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise SpecFileError(
                f"{path}: malformed spec entry {index}: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        if spec.model not in MODELS:
            raise SpecFileError(
                f"{path}: spec entry {index} names unknown model "
                f"{spec.model!r} (choose from {', '.join(MODELS)})"
            )
        specs.append(spec)
    if doc.get("checkpoints"):
        _register_checkpoints(path, doc["checkpoints"])
    return specs


def _register_checkpoints(path: str, docs: Any) -> None:
    """Verify and register a spec file's checkpoint documents."""
    from ..checkpoint.errors import CheckpointError
    from ..checkpoint.snapshot import Checkpoint
    from ..checkpoint.store import global_registry

    if not isinstance(docs, list):
        raise SpecFileError(f"{path}: \"checkpoints\" is not a list")
    for index, entry in enumerate(docs):
        try:
            global_registry().put(Checkpoint.from_json(entry))
        except CheckpointError as exc:
            raise SpecFileError(
                f"{path}: checkpoint entry {index} rejected: {exc}"
            ) from exc


@dataclass
class RegressionReport:
    """Aggregate outcome of one regression run."""

    verdicts: List[ScenarioVerdict] = field(default_factory=list)
    wall_seconds: float = 0.0
    workers: int = 1
    stopped_early: bool = False

    @property
    def ok(self) -> bool:
        return bool(self.verdicts) and all(v.ok for v in self.verdicts)

    @property
    def failed(self) -> List[ScenarioVerdict]:
        return [v for v in self.verdicts if not v.ok]

    @property
    def transactions(self) -> int:
        return sum(v.transactions for v in self.verdicts)

    @property
    def words(self) -> int:
        return sum(v.words for v in self.verdicts)

    @property
    def throughput(self) -> float:
        """Checked transactions per wall second across the whole fan-out."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.transactions / self.wall_seconds

    def bin_totals(self) -> Dict[str, int]:
        """Aggregate stimulus-bin hits across every scenario."""
        totals: Dict[str, int] = {}
        for verdict in self.verdicts:
            for name, hits in verdict.bin_hits:
                totals[name] = totals.get(name, 0) + hits
        return totals

    def digest(self) -> str:
        """Deterministic fingerprint: specs + streams + verdicts, no wall
        times -- byte-identical for the same seeds, any worker count."""
        lines = [
            f"{v.spec.label} {v.ok} {v.stream_digest} {v.scoreboard_digest}"
            for v in self.verdicts
        ]
        return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:16]

    def to_json(self) -> Dict[str, Any]:
        """Machine-readable report for CI and dispatchers (no text parsing).

        The ``digest`` field is the worker-count-invariant fingerprint;
        ``workers``/``wall_seconds``/``throughput`` are run facts and
        deliberately live outside it.
        """
        return {
            "ok": self.ok,
            "digest": self.digest(),
            "scenarios": len(self.verdicts),
            "passed": len(self.verdicts) - len(self.failed),
            "failed": [v.spec.label for v in self.failed],
            "stopped_early": self.stopped_early,
            "workers": self.workers,
            "wall_seconds": round(self.wall_seconds, 6),
            "transactions": self.transactions,
            "words": self.words,
            "throughput_txn_per_s": round(self.throughput, 1),
            "bin_totals": dict(sorted(self.bin_totals().items())),
            "verdicts": [v.to_json() for v in self.verdicts],
        }

    @classmethod
    def from_json(cls, doc: Dict[str, Any]) -> "RegressionReport":
        """Rebuild a report from its ``to_json`` form (shard transport).

        The digest is always recomputed from the verdicts, never read
        back, so a truncated or hand-edited shard report cannot smuggle
        a stale fingerprint past the merger.
        """
        return cls(
            verdicts=[ScenarioVerdict.from_json(v) for v in doc["verdicts"]],
            wall_seconds=doc.get("wall_seconds", 0.0),
            workers=doc.get("workers", 1),
            stopped_early=doc.get("stopped_early", False),
        )

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        lines = [
            f"=== scenario regression: {status} ===",
            (
                f"{len(self.verdicts)} scenarios on {self.workers} worker(s): "
                f"{len(self.verdicts) - len(self.failed)} passed, "
                f"{len(self.failed)} failed"
                + (" (stopped early)" if self.stopped_early else "")
            ),
            (
                f"{self.transactions} transactions / {self.words} words checked "
                f"in {self.wall_seconds:.2f}s "
                f"({self.throughput:.0f} txn/s aggregate)"
            ),
            f"{len(self.bin_totals())} distinct stimulus bins hit",
            f"digest: {self.digest()}",
        ]
        for verdict in self.failed:
            lines.append(verdict.summary())
            for mismatch in verdict.mismatches[:3]:
                lines.extend("    " + line for line in mismatch.splitlines())
        return "\n".join(lines)


class RegressionRunner:
    """Fans specs across an execution engine and folds the verdicts
    back together.

    The engine seam (:mod:`repro.scenarios.engines`) is pluggable:
    serial and local-multiprocessing engines live beside this runner,
    and the cross-host ones (:mod:`repro.dispatch`,
    :mod:`repro.coordinator`) slot in without changing it -- verdict
    order never matters because the report re-sorts by spec.
    """

    def __init__(
        self,
        specs: Sequence[ScenarioSpec],
        workers: Optional[int] = None,
        fail_fast: bool = False,
        engine: Optional[Engine] = None,
    ):
        self.specs = list(specs)
        if engine is None:
            engine = resolve_engine(workers, len(self.specs))
        self.engine = engine
        self.workers = engine.workers
        self.fail_fast = fail_fast

    def run(self) -> RegressionReport:
        if OBS.enabled:
            with OBS.tracer.span(
                "scenarios.regression",
                "scenarios",
                scenarios=len(self.specs),
                workers=self.workers,
            ) as span:
                report = self._run()
                span.set(ok=report.ok, failed=len(report.failed))
            self._record_metrics(report)
            return report
        return self._run()

    def _run(self) -> RegressionReport:
        started = time.perf_counter()
        report = RegressionReport(workers=self.workers)
        results = self.engine.imap(run_scenario, self.specs)
        try:
            for verdict in results:
                report.verdicts.append(verdict)
                if self.fail_fast and not verdict.ok:
                    report.stopped_early = len(report.verdicts) < len(self.specs)
                    break
        finally:
            # an early fail-fast break must release engine resources
            # (closing the generator terminates a multiprocessing pool)
            close = getattr(results, "close", None)
            if close is not None:
                close()
        # canonical order: results arrive in scheduler order, the report
        # must not depend on it (the full label disambiguates specs
        # sharing a (model, seed) pair)
        report.verdicts.sort(key=lambda v: (v.spec.model, v.spec.seed, v.spec.label))
        report.wall_seconds = time.perf_counter() - started
        return report

    def _record_metrics(self, report: RegressionReport) -> None:
        """Fold the finished report into the metrics registry.

        Counted on the aggregation side (not inside ``run_scenario``)
        so verdicts computed by remote hosts or worker subprocesses --
        where the registry is off -- still show up, exactly once.
        """
        if not OBS.metrics.enabled:
            return
        registry = OBS.metrics
        registry.counter("scenarios.completed").inc(len(report.verdicts))
        registry.counter("scenarios.failed").inc(len(report.failed))
        registry.counter("scenarios.transactions").inc(report.transactions)
        for verdict in report.verdicts:
            registry.histogram("scenarios.wall_seconds").observe(
                verdict.wall_seconds
            )
            for kind in verdict.mismatch_kinds:
                registry.counter(
                    "scenarios.scoreboard_divergence", kind=kind
                ).inc()
