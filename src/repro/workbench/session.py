"""The verification-session facade.

A :class:`Workbench` binds one :class:`~.duv.DUV` (by object or by
registered name) and composes verification stages over it::

    from repro.workbench import Workbench, VerificationPlan

    wb = Workbench("master_slave")
    wb.explore()                 # FSM generation + on-the-fly checking
    wb.check_liveness()          # lasso/deadlock search on the FSM
    wb.simulate_abv(cycles=5000) # SystemC simulation with PSL monitors
    wb.regress(scenarios=40)     # constrained-random scoreboarded fan-out
    wb.close_coverage()          # directed goals for the formal-only residue
    print(wb.report().summary())

or runs a declarative plan end to end::

    report = Workbench("pci").run_plan(VerificationPlan.figure1())

Every stage returns a typed :class:`~.stages.StageResult`; the
session's :class:`~.stages.SessionReport` digest is byte-identical for
the same DUV, seeds and options at any worker count.  Stage fan-out
executes through a pluggable :class:`~repro.scenarios.engines.Engine`
chosen by :func:`repro.dispatch.select_engine` unless the session was
built with one.
"""

from __future__ import annotations

import hashlib
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..abv.harness import AbvHarness, FailureAction
from ..checkpoint import ensure_spill_dir, global_registry
from ..dispatch import select_engine
from ..obs.runtime import OBS
from ..explorer.engine import ExplorationResult, explore as run_exploration
from ..explorer.fsm import Fsm
from ..explorer.goal_planner import GoalPlanner, walk_fsm_events
from ..explorer.liveness import check_eventually
from ..explorer.rules import check_rules
from ..explorer.sim_coverage import CoverageTracker
from ..psl.asm_embedding import AssertionProperty, state_extractor
from ..psl.compiled import compile_properties
from ..psl.monitor import Monitor
from ..scenarios.directed import DirectedClosureLoop, lower_path_for_model
from ..scenarios.engines import Engine
from ..scenarios.random_ import derive_seed
from ..scenarios.regression import RegressionRunner, ScenarioSpec, build_specs
from ..translate.class_rules import translate_class
from ..translate.csharp_gen import render_monitor_suite
from ..translate.runtime import build_runtime
from ..translate.systemc_gen import render_translation_unit
from .duv import DUV, CoverageResidue
from .plan import STAGE_NAMES, VerificationPlan
from .registry import ModelRegistry, default_registry
from .stages import (
    SessionReport,
    SimulationReport,
    StageResult,
    StageStatus,
)

#: transition-coverage ratio below which a residue bias re-weights the
#: regression toward pressure profiles (most of the FSM was reached
#: only formally -> the random traffic is too tame)
RESIDUE_BIAS_THRESHOLD = 0.75

#: profiles a residue bias steers toward: long low-idle bursts plus
#: boundary-length traffic, the shapes that reach corner interleavings
RESIDUE_BIAS_PROFILES: Tuple[str, ...] = ("bursty", "edges")


def _fsm_digest(fsm: Fsm) -> str:
    """Stable fingerprint of a generated FSM (topology, not key bits)."""
    lines = sorted(
        f"s{t.source} --{t.label()}--> s{t.target}" for t in fsm.transitions
    )
    body = f"states:{fsm.state_count()}\n" + "\n".join(lines)
    return hashlib.sha256(body.encode("utf-8")).hexdigest()[:16]


class Workbench:
    """One verification session over one registered design."""

    def __init__(
        self,
        duv: Union[DUV, str],
        engine: Optional[Engine] = None,
        registry: Optional[ModelRegistry] = None,
        seed: int = 2005,
        **duv_params: Any,
    ):
        if isinstance(duv, str):
            duv = (registry or default_registry()).get(duv, **duv_params)
        elif duv_params:
            raise TypeError("duv_params only apply when resolving a DUV by name")
        self.duv = duv
        self.engine = engine
        self.seed = seed
        self._stages: List[StageResult] = []
        self._exploration: Optional[ExplorationResult] = None
        self._residue: Optional[CoverageResidue] = None
        #: per-stage fleet /metrics aggregates (observability only,
        #: never digested); populated by dispatching stages when the
        #: engine's hosts expose a metrics endpoint
        self._fleet_metrics: List[Dict[str, Any]] = []

    # -- session state ---------------------------------------------------------

    @property
    def residue(self) -> Optional[CoverageResidue]:
        """The current formal-only coverage residue (None before explore)."""
        return self._residue

    def report(self) -> SessionReport:
        """The session so far: every stage result, one stable digest.

        When observability is enabled the report also carries a
        non-digested ``observability`` section: the session's metrics
        registry plus any per-stage fleet ``/metrics`` aggregates --
        pure telemetry, guaranteed absent from the digest.
        """
        observability: Dict[str, Any] = {}
        if OBS.metrics.enabled:
            observability["metrics"] = OBS.metrics.to_json()
        if self._fleet_metrics:
            observability["fleet_metrics"] = list(self._fleet_metrics)
        return SessionReport(
            duv=self.duv.name,
            stages=list(self._stages),
            observability=observability,
        )

    # -- stage plumbing ---------------------------------------------------------

    def _execute(
        self,
        stage: str,
        impl: Callable[..., StageResult],
        kwargs: Dict[str, Any],
    ) -> StageResult:
        started = time.perf_counter()
        try:
            if OBS.enabled:
                with OBS.tracer.span(
                    f"workbench.{stage}", "workbench", duv=self.duv.name
                ):
                    result = impl(**kwargs)
            else:
                result = impl(**kwargs)
        except Exception as exc:  # noqa: BLE001 -- stages never raise; plans skip
            result = StageResult(
                stage=stage,
                status=StageStatus.ERROR,
                error=f"{type(exc).__name__}: {exc}",
                exception=exc,
                data={"exception": type(exc).__name__},
            )
            result.metrics["traceback"] = traceback.format_exc(limit=8)
        result.metrics.setdefault(
            "wall_seconds", round(time.perf_counter() - started, 6)
        )
        self._stages.append(result)
        return result

    def _skip(self, stage: str, reason: str) -> StageResult:
        result = StageResult(
            stage=stage,
            status=StageStatus.SKIPPED,
            summary=reason,
            data={"reason": reason},
        )
        self._stages.append(result)
        return result

    # -- stage: analyze (static analysis: races + property lint) ----------------

    def analyze(
        self, witness: bool = False, witness_cycles: Optional[int] = None
    ) -> StageResult:
        """Static analysis of the DUV: delta-cycle race detection over
        the SystemC sources plus a property lint of the directive set;
        ``witness=True`` cross-checks with a witnessed kernel run.

        Findings (with their suppressions) land in digested ``data``;
        witness statistics are run facts and stay in ``metrics`` so
        the session digest is identical with the witness on or off for
        a clean model.
        """
        return self._execute(
            "analyze",
            self._analyze_impl,
            {"witness": witness, "witness_cycles": witness_cycles},
        )

    def _analyze_impl(
        self, witness: bool = False, witness_cycles: Optional[int] = None
    ) -> StageResult:
        # Imported lazily: repro.analyze imports workbench submodules,
        # so a module-level import here would be circular.
        from ..analyze.runner import DEFAULT_WITNESS_CYCLES, analyze_duv

        report = analyze_duv(
            self.duv,
            witness=witness,
            witness_cycles=(
                DEFAULT_WITNESS_CYCLES if witness_cycles is None
                else witness_cycles
            ),
            seed=self.seed,
        )
        unsuppressed = report.unsuppressed()
        return StageResult(
            stage="analyze",
            status=StageStatus.PASSED if report.ok else StageStatus.FAILED,
            summary=report.summary(),
            data={
                "findings": [f.to_json() for f in report.findings],
                "findings_digest": report.digest(),
                "rules": report.rule_counts(),
                "unsuppressed": len(unsuppressed),
            },
            metrics={"facts": report.facts},
            payload=report,
        )

    # -- stage: explore (FSM-generation model checking) -------------------------

    def explore(self, **overrides: Any) -> StageResult:
        """Model check by FSM generation; exports the coverage residue.

        ``overrides`` are :class:`ExplorationConfig` field replacements
        (``max_states=...``, ``stop_on_violation=...``, ...).
        """
        return self._execute("explore", self._explore_impl, overrides)

    def _explore_impl(self, **overrides: Any) -> StageResult:
        duv = self.duv
        model = duv.model_factory()
        extractor = duv.extractor or state_extractor
        properties = [
            AssertionProperty(d.prop, extractor=extractor, name=d.prop.name)
            for d in duv.assert_directives()
        ]
        config = duv.exploration.with_overrides(properties=properties, **overrides)
        findings = check_rules(model, config)
        result = run_exploration(model, config)
        self._exploration = result
        residue = CoverageResidue.from_fsm(result.fsm)
        self._residue = residue
        status = StageStatus.PASSED if result.ok else StageStatus.FAILED
        return StageResult(
            stage="explore",
            status=status,
            summary=result.summary().splitlines()[0],
            data={
                "states": result.fsm.state_count(),
                "transitions": result.fsm.transition_count(),
                "completed": result.stats.completed,
                "violations": [
                    {"property": v.property_name, "state": v.state_index}
                    for v in result.violations
                ],
                "properties": [d.prop.name for d in duv.assert_directives()],
                "rule_warnings": sum(1 for f in findings if f.level == "warning"),
                "fsm_digest": _fsm_digest(result.fsm),
                "residue": residue.to_json(),
            },
            metrics={"explore_seconds": round(result.stats.elapsed_seconds, 6)},
            payload={
                "exploration": result,
                "rule_findings": findings,
                "residue": residue,
            },
        )

    # -- stage: liveness on the generated FSM -----------------------------------

    def check_liveness(self) -> StageResult:
        """Check every registered liveness obligation on the FSM."""
        return self._execute("check_liveness", self._check_liveness_impl, {})

    def _check_liveness_impl(self) -> StageResult:
        if self._exploration is None:
            self.explore()
        assert self._exploration is not None
        checks = list(self.duv.liveness_checks)
        results = [
            check_eventually(self._exploration.fsm, c.trigger, c.goal, c.name)
            for c in checks
        ]
        holds = all(r.holds for r in results)
        summary = (
            "; ".join(r.summary() for r in results)
            if results
            else "no liveness checks registered"
        )
        return StageResult(
            stage="check_liveness",
            status=StageStatus.PASSED if holds else StageStatus.FAILED,
            summary=summary,
            data={
                "checks": [
                    {
                        "name": r.name,
                        "holds": r.holds,
                        "triggers_checked": r.triggers_checked,
                    }
                    for r in results
                ]
            },
            payload={"results": results},
        )

    # -- stage: translation artifacts (rules R1-R3 + C# monitors) ---------------

    def translate(self, clock_period: Optional[int] = None) -> StageResult:
        """Render the SystemC translation unit and the C# monitor suite."""
        return self._execute(
            "translate", self._translate_impl, {"clock_period": clock_period}
        )

    def _translate_impl(self, clock_period: Optional[int] = None) -> StageResult:
        duv = self.duv
        period = clock_period or duv.clock_period_ps
        model = duv.model_factory()
        machine_classes = sorted(
            {type(m) for m in model.machines.values()}, key=lambda c: c.__name__
        )
        specs = [translate_class(cls) for cls in machine_classes]
        instances = [
            (name, type(machine).__name__)
            for name, machine in sorted(model.machines.items())
        ]
        cpp = render_translation_unit(specs, instances, period // 1000)
        csharp = render_monitor_suite(list(duv.directives))
        return StageResult(
            stage="translate",
            status=StageStatus.PASSED,
            summary=(
                f"{len(specs)} SC_MODULEs ({len(cpp.splitlines())} lines C++), "
                f"{len(duv.directives)} monitors "
                f"({len(csharp.splitlines())} lines C#)"
            ),
            data={
                "modules": [s.name for s in specs],
                "systemc_sha": hashlib.sha256(cpp.encode()).hexdigest()[:16],
                "csharp_sha": hashlib.sha256(csharp.encode()).hexdigest()[:16],
                "clock_period_ps": period,
            },
            payload={"systemc": cpp, "csharp": csharp},
        )

    # -- stage: ABV simulation ---------------------------------------------------

    def simulate_abv(
        self,
        cycles: int = 2_000,
        seed: Optional[int] = None,
        stop_on_failure: bool = False,
        clock_period: Optional[int] = None,
        policy: Any = None,
    ) -> StageResult:
        """Simulate with the PSL monitor suite bound (paper Section 3.2).

        On the generic ASM-runtime path the run's FSM coverage is
        folded back into the session residue; the hand-written SystemC
        models (both registered case studies) do not expose their ASM
        action stream, so there the residue keeps its post-``explore``
        value -- the whole formally explored FSM (``residue_updated``
        in the stage data says which case applied).
        """
        return self._execute(
            "simulate_abv",
            self._simulate_impl,
            {
                "cycles": cycles,
                "seed": seed,
                "stop_on_failure": stop_on_failure,
                "clock_period": clock_period,
                "policy": policy,
            },
        )

    def _simulate_impl(
        self,
        cycles: int,
        seed: Optional[int],
        stop_on_failure: bool,
        clock_period: Optional[int],
        policy: Any,
    ) -> StageResult:
        duv = self.duv
        seed = self.seed if seed is None else seed
        actions = (
            (FailureAction.REPORT, FailureAction.STOP)
            if stop_on_failure
            else (FailureAction.REPORT,)
        )
        directives = duv.monitor_directives()
        monitors: List[Monitor] = compile_properties(directives)
        residue_json: Optional[dict] = None

        if duv.systemc_factory is not None:
            system = duv.systemc_factory(seed)
            harness = AbvHarness(system.simulator, system.clock, system.letter)
            for monitor in monitors:
                harness.add_monitor(monitor, actions)
            started = time.perf_counter()
            system.run_cycles(cycles)
            wall = time.perf_counter() - started
            harness.finish()
        else:
            model = duv.model_factory()
            period = clock_period or duv.clock_period_ps
            simulator, clock, module = build_runtime(
                model, clock_period=period, policy=policy
            )
            harness = AbvHarness(simulator, clock, module.letter)
            for monitor in monitors:
                harness.add_monitor(monitor, actions)
            started = time.perf_counter()
            simulator.run(period * cycles)
            wall = time.perf_counter() - started
            harness.finish()
            if self._exploration is not None:
                # fold the run's FSM coverage back into the residue --
                # what remains is the model checker's added value
                tracker = CoverageTracker(
                    self._exploration.fsm,
                    module.asm_model,
                    selected=self._exploration.selected_variables,
                )
                coverage = tracker.observe_run(module)
                self._residue = CoverageResidue.from_sim_coverage(coverage)
                residue_json = self._residue.to_json()

        report = SimulationReport(
            cycles=harness.cycles_observed,
            wall_seconds=wall,
            harness_summary=harness.summary(),
            failed_assertions=[b.monitor.name for b in harness.failed],
            monitor_verdicts={m.name: m.verdict().value for m in monitors},
        )
        data: Dict[str, Any] = {
            "cycles": report.cycles,
            "seed": seed,
            "monitors": len(monitors),
            "failed_assertions": report.failed_assertions,
            "monitor_verdicts": report.monitor_verdicts,
            # False on the hand-written SystemC path: those models do
            # not expose their ASM action stream, so FSM coverage is
            # not folded back and the residue stays the explored whole
            "residue_updated": residue_json is not None,
        }
        if residue_json is not None:
            data["residue"] = residue_json
        return StageResult(
            stage="simulate_abv",
            status=StageStatus.PASSED if report.ok else StageStatus.FAILED,
            summary=report.summary(),
            data=data,
            metrics={
                "sim_wall_seconds": round(wall, 6),
                "delta_ns_per_cycle": round(report.delta_ns_per_cycle, 3),
            },
            payload={"report": report, "harness": harness},
        )

    def _dispatch_facts(self, outcome: Any, stage: str) -> Dict[str, Any]:
        """Run facts for one finished dispatch (metrics-side only).

        Everything here -- per-host loads, the per-host
        failure-kind counters, duplicate completions -- describes *how*
        the fan-out ran, never *what* it verified, so it rides in stage
        ``metrics`` and stays outside the session digest.  When the
        outcome carries fleet ``/metrics`` documents they are folded
        into the session's ``observability`` section as well.
        """
        facts: Dict[str, Any] = {
            "shards": len(outcome.runs),
            "hosts": list(outcome.hosts),
            "retries": outcome.retries,
            "duplicates": outcome.duplicates,
            "host_loads": outcome.host_loads(),
            "failures": outcome.failure_counts(),
        }
        host_metrics = getattr(outcome, "host_metrics", None)
        if host_metrics:
            from ..obs.metrics import merge_metric_docs

            self._fleet_metrics.append(
                {
                    "stage": stage,
                    "hosts": host_metrics,
                    "aggregate": merge_metric_docs(host_metrics.values()),
                }
            )
        return facts

    def _coordinator_facts(self, job: Dict[str, Any]) -> Dict[str, Any]:
        """Run facts for one coordinator job (metrics-side only).

        The job document minus the report itself: the merged verdicts
        already flowed through the engine and the full report would
        duplicate them inside stage metrics.  Like ``_dispatch_facts``
        this rides outside the session digest.
        """
        return {
            "job": job.get("job"),
            "fingerprint": job.get("fingerprint"),
            "from_cache": job.get("from_cache", False),
            "dispatch": job.get("dispatch", {}),
        }

    # -- stage: scenario regression ----------------------------------------------

    def regress(
        self,
        scenarios: int = 24,
        cycles: int = 300,
        workers: Optional[int] = None,
        shards: Optional[int] = None,
        hosts: Optional[Sequence[Any]] = None,
        coordinator: Optional[str] = None,
        token: Optional[str] = None,
        seed: Optional[int] = None,
        specs: Optional[Sequence[Any]] = None,
        bias: Union[CoverageResidue, bool, None] = None,
        fail_fast: bool = False,
        with_monitors: bool = False,
        profiles: Optional[Sequence[str]] = None,
    ) -> StageResult:
        """Fan seeded, scoreboarded scenarios over the session engine.

        ``bias`` closes the formal->simulation loop: pass a
        :class:`CoverageResidue` (or ``True`` for the session's own)
        and, when most of the FSM was reached only by the model
        checker, spec construction re-weights toward pressure traffic
        profiles.  Explicit ``specs`` bypass spec construction, so a
        bias never applies to them.

        ``workers`` sizes the default local engine; ``shards=N``
        selects the sharded dispatcher instead (N subprocess shard
        hosts); ``hosts`` -- a pool of
        :class:`~repro.dispatch.Host`\\ s, e.g.
        ``parse_hosts("h1:8421,h2:8421")`` -- dispatches to remote
        worker daemons under the work-stealing schedule, with
        ``shards`` (default: two per host) sizing the queue;
        ``coordinator`` (a ``python -m repro.coordinator`` URL, with
        ``token`` as the fleet secret) ships the whole fan-out to the
        elastic coordinator fleet as one job instead.  In every case
        the merged digest is identical to a serial run.  An engine
        injected at construction always wins over all of them.
        """
        return self._execute(
            "regress",
            self._regress_impl,
            {
                "scenarios": scenarios,
                "cycles": cycles,
                "workers": workers,
                "shards": shards,
                "hosts": hosts,
                "coordinator": coordinator,
                "token": token,
                "seed": seed,
                "specs": specs,
                "bias": bias,
                "fail_fast": fail_fast,
                "with_monitors": with_monitors,
                "profiles": profiles,
            },
        )

    def _regress_impl(
        self,
        scenarios: int,
        cycles: int,
        workers: Optional[int],
        shards: Optional[int],
        hosts: Optional[Sequence[Any]],
        coordinator: Optional[str],
        token: Optional[str],
        seed: Optional[int],
        specs: Optional[Sequence[Any]],
        bias: Union[CoverageResidue, bool, None],
        fail_fast: bool,
        with_monitors: bool,
        profiles: Optional[Sequence[str]],
    ) -> StageResult:
        residue = self._residue if bias is True else bias or None
        bias_applied = False
        if specs is None:
            if self.duv.scenario_model is None:
                raise ValueError(
                    f"DUV {self.duv.name!r} has no scenario binding; "
                    "pass explicit specs to regress()"
                )
            if (
                profiles is None
                and isinstance(residue, CoverageResidue)
                and residue.transition_coverage < RESIDUE_BIAS_THRESHOLD
            ):
                profiles = RESIDUE_BIAS_PROFILES
                bias_applied = True
            specs = build_specs(
                models=[self.duv.scenario_model],
                count=scenarios,
                base_seed=self.seed if seed is None else seed,
                cycles=cycles,
                with_monitors=with_monitors,
                profiles=profiles,
            )
        else:
            # explicit specs bypass spec construction entirely -- a
            # bias cannot apply to them, so never report one
            profiles = None
        specs = list(specs)
        # an engine injected at construction is the session's choice of
        # execution seam and always wins; ``workers``/``shards``/``hosts``
        # only size the default engine
        engine = self.engine
        if engine is None:
            engine = select_engine(
                workers, shards, hosts, len(specs),
                coordinator=coordinator, token=token,
            )
        runner = RegressionRunner(specs, engine=engine, fail_fast=fail_fast)
        report = runner.run()
        data: Dict[str, Any] = {
            "scenarios": len(report.verdicts),
            "passed": len(report.verdicts) - len(report.failed),
            "failed": [v.spec.label for v in report.failed],
            "transactions": report.transactions,
            "words": report.words,
            "stimulus_bins": len(report.bin_totals()),
            "regression_digest": report.digest(),
            "bias": {
                "applied": bias_applied,
                "profiles": sorted(profiles) if profiles else [],
                "transition_coverage": (
                    round(residue.transition_coverage, 4)
                    if isinstance(residue, CoverageResidue)
                    else None
                ),
            },
        }
        metrics: Dict[str, Any] = {
            "workers": report.workers,
            "engine": engine.name,
            "regress_wall_seconds": round(report.wall_seconds, 6),
            "throughput_txn_per_s": round(report.throughput, 1),
            "stopped_early": report.stopped_early,
        }
        outcome = getattr(engine, "last_outcome", None)
        if outcome is not None:
            # run facts, not results: which hosts served which shards
            # (and how many retries it took) must not perturb the
            # engine-invariant session digest, so this lives in metrics
            metrics["dispatch"] = self._dispatch_facts(outcome, "regress")
        job = getattr(engine, "last_job", None)
        if job is not None:
            metrics["coordinator"] = self._coordinator_facts(job)
        return StageResult(
            stage="regress",
            status=StageStatus.PASSED if report.ok else StageStatus.FAILED,
            summary=report.summary().splitlines()[1],
            data=data,
            metrics=metrics,
            payload={"report": report},
        )

    # -- stage: directed coverage closure ------------------------------------------

    def close_coverage(
        self,
        rounds: int = 3,
        cycles: int = 160,
        max_goals: Optional[int] = None,
        workers: Optional[int] = None,
        shards: Optional[int] = None,
        hosts: Optional[Sequence[Any]] = None,
        coordinator: Optional[str] = None,
        token: Optional[str] = None,
        seed: Optional[int] = None,
        frontier: bool = True,
    ) -> StageResult:
        """Close the formal-only residue with directed sequence goals.

        The other leg of the formal<->simulation loop (``regress(bias=...)``
        re-weights randomness; this stage *directs* it): plan a BFS path
        over the explored FSM from the initial state to every residue
        transition, lower each path into per-master transaction goals,
        fan the directed scenarios through the session engine, and fold
        the transitions the runs demonstrably exercised back into the
        residue -- re-planning until the residue stops shrinking or
        ``rounds`` is spent.  Residue transitions the SystemC
        implementation cannot reach at transaction level (the model
        checker's true added value) remain and are reported as such.

        The directed goals travel on the same ``ScenarioSpec`` wire
        form as random specs (``goals`` + ``track_fsm`` fields), so
        ``shards=N`` fans each round across N local subprocess hosts,
        ``hosts=[...]`` across remote HTTP workers, and
        ``coordinator=URL`` submits each round as one job to the
        elastic coordinator fleet -- in each case the per-round
        regression digest matches a serial run.

        With ``frontier=True`` (the default) every directed run
        snapshots its end state into the checkpoint registry, keyed by
        the FSM state its event walk stopped in.  The next round's
        planner treats those covered frontier states as extra path
        origins: a residue edge strictly closer to a frontier state
        than to reset is planned from there, and its scenario *forks*
        the cached checkpoint (``resume_from``) instead of re-walking
        the warm-up -- same achieved-edge accounting, measurably fewer
        simulated cycles per round (each round reports
        ``cycles_simulated`` and ``cycles_saved``).
        """
        return self._execute(
            "close_coverage",
            self._close_coverage_impl,
            {
                "rounds": rounds,
                "cycles": cycles,
                "max_goals": max_goals,
                "workers": workers,
                "shards": shards,
                "hosts": hosts,
                "coordinator": coordinator,
                "token": token,
                "seed": seed,
                "frontier": frontier,
            },
        )

    def _close_coverage_impl(
        self,
        rounds: int,
        cycles: int,
        max_goals: Optional[int],
        workers: Optional[int],
        shards: Optional[int],
        hosts: Optional[Sequence[Any]],
        coordinator: Optional[str],
        token: Optional[str],
        seed: Optional[int],
        frontier: bool,
    ) -> StageResult:
        if self._exploration is None:
            self.explore()
        assert self._exploration is not None and self._residue is not None
        duv = self.duv
        if duv.scenario_model is None:
            raise ValueError(
                f"DUV {duv.name!r} has no scenario binding; "
                "directed closure needs a driver to lower goals onto"
            )
        topology = tuple(duv.metadata.get("topology", ()))
        if not topology:
            raise ValueError(
                f"DUV {duv.name!r} metadata carries no topology; "
                "directed closure cannot size the scenario system"
            )
        fsm = self._exploration.fsm
        residue_before = self._residue
        base_seed = self.seed if seed is None else seed
        planner = GoalPlanner(fsm)

        round_data: List[Dict[str, Any]] = []
        visited_states: set = set()
        unlowerable: set = set()
        dispatch_metrics: List[Dict[str, Any]] = []
        coordinator_metrics: List[Dict[str, Any]] = []

        use_frontier = bool(frontier)
        checkpoint_registry = None
        if use_frontier:
            # the spill dir makes subprocess-captured checkpoints
            # resolvable here when a later round forks them
            ensure_spill_dir()
            checkpoint_registry = global_registry()
        #: covered FSM state -> (checkpoint digest, cycles run, seed) of
        #: the directed run whose event walk stopped there
        frontier_checkpoints: Dict[int, Tuple[str, int, int]] = {}
        fork_facts: Dict[int, Dict[str, int]] = {}

        def plan_round(edges: Tuple[str, ...], round_index: int) -> List[Any]:
            planned = []
            available = (
                sorted(
                    state
                    for state, (digest, _, _) in frontier_checkpoints.items()
                    if digest in checkpoint_registry
                )
                if use_frontier
                else []
            )
            facts = fork_facts.setdefault(
                round_index,
                {"forked_goals": 0, "cycles_saved": 0, "cycles_simulated": 0},
            )
            # the cap counts *lowerable from-reset* plans: paths the
            # drivers cannot realize (e.g. PCI STOP# edges) must not use
            # up the budget, and neither do frontier forks -- they skip
            # the warm-up, so they ride along as cheap extras
            from_reset_planned = 0
            for plan in planner.plan(edges, frontier=available):
                goals = lower_path_for_model(
                    duv.scenario_model, plan.calls(), topology
                )
                if not goals and plan.origin_state is not None:
                    # the frontier path is not drivable from an idle
                    # system (it starts mid-pattern); fall back to the
                    # from-reset plan rather than dropping the edge
                    fallback = planner.replan_from_initial(plan)
                    if fallback is not None:
                        plan = fallback
                        goals = lower_path_for_model(
                            duv.scenario_model, plan.calls(), topology
                        )
                if not goals:
                    unlowerable.add(plan.target_edge)
                    continue
                if plan.origin_state is not None:
                    # fork the frontier checkpoint: the restored system
                    # already sits in origin_state, so the spec carries
                    # only the path onward -- a strictly shorter goal
                    # list -- and gets a budget prorated to it (never
                    # more than a from-reset run would have spent)
                    digest, cp_cycles, cp_seed = frontier_checkpoints[
                        plan.origin_state
                    ]
                    if plan.initial_steps:
                        extra = -(
                            -cycles * len(plan.transitions)
                            // plan.initial_steps
                        )
                        extra = min(cycles, max(extra, 16))
                    else:
                        extra = cycles
                    spec = ScenarioSpec(
                        model=duv.scenario_model,
                        seed=cp_seed,    # restore pins the seed
                        topology=topology,
                        profile="directed",
                        cycles=cp_cycles + extra,
                        goals=tuple(goals),
                        track_fsm=True,
                        resume_from=digest,
                        checkpoint_at=cp_cycles + extra,
                    )
                    facts["forked_goals"] += 1
                    facts["cycles_saved"] += cycles - extra
                    facts["cycles_simulated"] += extra
                else:
                    if (
                        max_goals is not None
                        and from_reset_planned >= max_goals
                    ):
                        continue
                    from_reset_planned += 1
                    spec_seed = derive_seed(
                        base_seed, f"close/round{round_index}/goal{plan.index}"
                    ) % (2**31)
                    spec = ScenarioSpec(
                        model=duv.scenario_model,
                        seed=spec_seed,
                        topology=topology,
                        profile="directed",
                        cycles=cycles,
                        goals=tuple(goals),
                        track_fsm=True,
                        checkpoint_at=cycles if use_frontier else None,
                    )
                    facts["cycles_simulated"] += cycles
                planned.append((plan, spec))
            return planned

        def run_round(planned: List[Any], round_index: int) -> List[str]:
            specs = [spec for _, spec in planned]
            engine = self.engine
            if engine is None:
                engine = select_engine(
                    workers, shards, hosts, len(specs),
                    coordinator=coordinator, token=token,
                )
            report = RegressionRunner(specs, engine=engine).run()
            achieved: set = set()
            off_path = 0
            for verdict in report.verdicts:
                walk = walk_fsm_events(fsm, verdict.fsm_events)
                achieved.update(walk.exercised)
                visited_states.update(walk.visited_states)
                off_path += walk.off_path
                if (
                    use_frontier
                    and verdict.frontier_digest
                    and walk.final_state is not None
                    and walk.final_state not in frontier_checkpoints
                ):
                    frontier_checkpoints[walk.final_state] = (
                        verdict.frontier_digest,
                        verdict.spec.cycles,
                        verdict.spec.seed,
                    )
            facts = fork_facts.get(round_index, {})
            round_data.append(
                {
                    "round": round_index,
                    "goals": len(planned),
                    "scenarios": len(report.verdicts),
                    "scenarios_failed": [v.spec.label for v in report.failed],
                    "transactions": report.transactions,
                    "off_path_events": off_path,
                    "regression_digest": report.digest(),
                    "forked_goals": facts.get("forked_goals", 0),
                    "cycles_saved": facts.get("cycles_saved", 0),
                    "cycles_simulated": facts.get("cycles_simulated", 0),
                }
            )
            outcome = getattr(engine, "last_outcome", None)
            if outcome is not None:
                facts = self._dispatch_facts(outcome, "close_coverage")
                facts["round"] = round_index
                dispatch_metrics.append(facts)
            job = getattr(engine, "last_job", None)
            if job is not None:
                facts = self._coordinator_facts(job)
                facts["round"] = round_index
                coordinator_metrics.append(facts)
            return sorted(achieved)

        loop = DirectedClosureLoop(
            residue_before.uncovered_transitions,
            plan_round,
            run_round,
            max_rounds=rounds,
        )
        closure_rounds = loop.run()

        closed = tuple(
            sorted(
                set(residue_before.uncovered_transitions) - set(loop.remaining)
            )
        )
        residue_after = CoverageResidue(
            states_total=residue_before.states_total,
            transitions_total=residue_before.transitions_total,
            uncovered_states=tuple(
                s
                for s in residue_before.uncovered_states
                if s not in visited_states
            ),
            uncovered_transitions=loop.remaining,
            samples=residue_before.samples + 1,
        )
        self._residue = residue_after

        had_residue = bool(residue_before.uncovered_transitions)
        status = (
            StageStatus.PASSED if closed or not had_residue else StageStatus.FAILED
        )
        summary = (
            f"directed closure: {len(closed)}/"
            f"{len(residue_before.uncovered_transitions)} residue transitions "
            f"exercised in {len(closure_rounds)} round(s); "
            f"{len(loop.remaining)} remain"
        )
        if loop.remaining and loop.went_dry:
            summary += " (closure went dry: remainder is formal-only at this budget)"
        return StageResult(
            stage="close_coverage",
            status=status,
            summary=summary,
            data={
                "rounds": [
                    {
                        "round": r.index,
                        "goals_planned": r.goals_planned,
                        "edges_closed": len(r.achieved_edges),
                        "residue_before": r.residue_before,
                        "residue_after": r.residue_after,
                    }
                    for r in closure_rounds
                ],
                "run": round_data,
                "closed_transitions": list(closed),
                "achieved": len(closed),
                "went_dry": loop.went_dry,
                "unlowerable_edges": sorted(unlowerable),
                "frontier": use_frontier,
                "frontier_states": sorted(frontier_checkpoints),
                "forked_goals": sum(
                    f.get("forked_goals", 0) for f in fork_facts.values()
                ),
                "cycles_saved": sum(
                    f.get("cycles_saved", 0) for f in fork_facts.values()
                ),
                "cycles_simulated": sum(
                    f.get("cycles_simulated", 0) for f in fork_facts.values()
                ),
                "residue_before": residue_before.to_json(),
                "residue": residue_after.to_json(),
            },
            metrics={
                key: value
                for key, value in (
                    ("dispatch", dispatch_metrics),
                    ("coordinator", coordinator_metrics),
                )
                if value
            },
            payload={
                "loop": loop,
                "residue_before": residue_before,
                "residue": residue_after,
            },
        )

    # -- plan execution ------------------------------------------------------------

    def run_plan(self, plan: VerificationPlan) -> SessionReport:
        """Execute every planned stage in order; failures skip the rest."""
        failed = False
        for call in plan.stages:
            if failed and not plan.continue_on_failure:
                self._skip(call.stage, "skipped: earlier stage failed")
                continue
            if call.stage not in STAGE_NAMES:
                # VerificationPlan validates on construction; this guards
                # hand-built plans that bypassed it
                self._skip(call.stage, f"skipped: unknown stage {call.stage!r}")
                failed = True
                continue
            result = getattr(self, call.stage)(**call.kwargs())
            if result.status in (StageStatus.FAILED, StageStatus.ERROR):
                failed = True
        return self.report()
