"""The unified Workbench verification-session API.

Covers the DUV registry, the typed stages, plan execution with
failure/error propagation, the coverage-residue export and its
regression bias and the pluggable engines.
"""

import json

import pytest

from repro.asm import AsmModel
from repro.explorer import ExplorationConfig
from repro.psl import Property, parse_formula
from repro.workbench import (
    DUV,
    CoverageResidue,
    LivenessCheck,
    ModelRegistry,
    MultiprocessingEngine,
    SerialEngine,
    StageCall,
    StageStatus,
    UnknownModelError,
    VerificationPlan,
    Workbench,
    default_registry,
    resolve_engine,
)
from conftest import BrokenArbiter, ToyArbiter, ToyMaster

MUTEX = Property("mutex", parse_formula("never (m0.m_gnt && m1.m_gnt)"))


def toy_factory(broken: bool = False):
    def factory() -> AsmModel:
        model = AsmModel("toy")
        ToyMaster(model=model, name="m0")
        ToyMaster(model=model, name="m1")
        (BrokenArbiter if broken else ToyArbiter)(model=model, name="arbiter")
        model.seal()
        return model

    return factory


def toy_duv(broken: bool = False, **kwargs) -> DUV:
    def m0_req(key):
        return key.value("m0", "m_req") is True

    def m0_gnt(key):
        return key.value("m0", "m_gnt") is True

    kwargs.setdefault(
        "liveness_checks", (LivenessCheck("grant0", m0_req, m0_gnt),)
    )
    return DUV(
        name="toy",
        model_factory=toy_factory(broken),
        directives=[MUTEX],
        **kwargs,
    )


class TestRegistry:
    def test_builtin_models_discoverable(self):
        registry = default_registry()
        assert "master_slave" in registry.names()
        assert "pci" in registry.names()

    def test_get_builds_parameterized_duv(self):
        duv = default_registry().get("pci", 1, 1)
        assert duv.name == "pci"
        assert duv.metadata["topology"] == (1, 1)
        assert duv.scenario_model == "pci"

    def test_unknown_model_raises(self):
        with pytest.raises(UnknownModelError):
            default_registry().get("nonexistent")

    def test_fresh_registry_register_and_conflict(self):
        registry = ModelRegistry(builtins={})
        registry.register("toy", toy_duv)
        assert registry.get("toy").name == "toy"
        with pytest.raises(ValueError):
            registry.register("toy", toy_duv)
        registry.register("toy", toy_duv, replace=True)

    def test_describe(self):
        assert "Master/Slave" in default_registry().describe("master_slave")

    def test_non_default_registry_resolves_builtins(self):
        registry = ModelRegistry()
        duv = registry.get("master_slave")
        assert duv.name == "master_slave"
        assert "pci" in registry.names()


class TestStages:
    def test_explore_passes_and_exports_residue(self):
        wb = Workbench(toy_duv())
        result = wb.explore()
        assert result.ok and result.status is StageStatus.PASSED
        assert result.data["states"] > 0
        assert result.data["violations"] == []
        # before any simulation the residue is the whole FSM
        residue = result.payload["residue"]
        assert isinstance(residue, CoverageResidue)
        assert residue.transition_coverage == 0.0
        assert len(residue.uncovered_states) == result.data["states"]
        assert result.data["residue"]["uncovered_states"] == result.data["states"]

    def test_explore_fails_on_broken_design(self):
        wb = Workbench(toy_duv(broken=True))
        result = wb.explore()
        assert result.status is StageStatus.FAILED
        assert result.data["violations"]
        assert result.payload["exploration"].counterexample is not None

    def test_check_liveness_auto_explores(self):
        wb = Workbench(toy_duv())
        result = wb.check_liveness()
        assert result.ok
        # the implicit explore stage was recorded first
        assert [s.stage for s in wb.report().stages] == ["explore", "check_liveness"]
        assert result.data["checks"][0]["holds"] is True

    def test_translate_renders_artifacts(self):
        wb = Workbench(toy_duv())
        result = wb.translate()
        assert result.ok
        assert "SC_MODULE(ToyArbiter)" in result.payload["systemc"]
        assert "class MutexMonitor" in result.payload["csharp"]
        assert result.data["systemc_sha"]

    def test_simulate_abv_runtime_path_updates_residue(self):
        wb = Workbench(toy_duv())
        wb.explore()
        before = wb.residue
        result = wb.simulate_abv(cycles=400)
        assert result.ok
        assert result.data["monitor_verdicts"]["mutex"] == "holds"
        # the simulation covered part of the FSM: the residue shrank
        after = wb.residue
        assert after.samples > 0
        assert after.transition_coverage > before.transition_coverage
        assert len(after.uncovered_states) < len(before.uncovered_states)
        assert result.data["residue"] == after.to_json()

    def test_regress_with_explicit_specs(self):
        from repro.scenarios.regression import build_specs

        wb = Workbench(toy_duv())
        specs = build_specs(models=["master_slave"], count=3, cycles=150)
        result = wb.regress(specs=specs, workers=1)
        assert result.ok
        assert result.data["scenarios"] == 3
        assert result.data["regression_digest"]
        assert result.metrics["engine"] == "serial"

    def test_regress_without_binding_or_specs_errors(self):
        wb = Workbench(toy_duv())
        result = wb.regress(scenarios=2)
        assert result.status is StageStatus.ERROR
        assert "scenario binding" in result.error


class TestResidueBias:
    def test_low_coverage_residue_biases_profiles(self):
        wb = Workbench("master_slave", seed=7)
        residue = CoverageResidue(
            states_total=10,
            transitions_total=10,
            uncovered_states=tuple(range(10)),
            uncovered_transitions=tuple(f"t{i}" for i in range(10)),
        )
        result = wb.regress(scenarios=4, cycles=150, workers=1, bias=residue)
        assert result.ok
        assert result.data["bias"]["applied"] is True
        assert result.data["bias"]["profiles"] == ["bursty", "edges"]
        profiles = {
            v.spec.profile for v in result.payload["report"].verdicts
        }
        assert profiles <= {"bursty", "edges"}

    def test_high_coverage_residue_leaves_profiles_alone(self):
        wb = Workbench("master_slave", seed=7)
        residue = CoverageResidue(
            states_total=10,
            transitions_total=10,
            uncovered_states=(),
            uncovered_transitions=(),
            samples=100,
        )
        result = wb.regress(scenarios=4, cycles=150, workers=1, bias=residue)
        assert result.data["bias"]["applied"] is False

    def test_session_residue_via_bias_true(self):
        wb = Workbench(toy_duv())
        wb.explore()  # residue = whole FSM -> bias applies
        from repro.scenarios.regression import build_specs

        # explicit specs bypass profile construction; the bias must be
        # reported as NOT applied even though the residue was supplied
        result = wb.regress(
            specs=build_specs(models=["master_slave"], count=2, cycles=150),
            workers=1,
            bias=True,
        )
        assert result.data["bias"]["transition_coverage"] == 0.0
        assert result.data["bias"]["applied"] is False
        assert result.data["bias"]["profiles"] == []


class TestPlans:
    def test_figure1_plan_verifies_toy_design(self):
        duv = toy_duv()
        duv.scenario_model = "master_slave"  # borrow the ms scenario binding
        report = Workbench(duv).run_plan(
            VerificationPlan.figure1(
                cycles=300, scenarios=2, scenario_cycles=150, workers=1
            )
        )
        assert report.ok
        assert [s.stage for s in report.stages] == [
            "explore",
            "check_liveness",
            "translate",
            "simulate_abv",
            "regress",
        ]
        assert all(s.ok for s in report.stages)
        assert report.digest() == report.digest()

    def test_failed_stage_skips_the_rest(self):
        duv = toy_duv(broken=True)
        report = Workbench(duv).run_plan(
            VerificationPlan.figure1(cycles=200, scenarios=2, workers=1)
        )
        assert not report.ok
        statuses = {s.stage: s.status for s in report.stages}
        assert statuses["explore"] is StageStatus.FAILED
        assert statuses["check_liveness"] is StageStatus.SKIPPED
        assert statuses["translate"] is StageStatus.SKIPPED
        assert statuses["simulate_abv"] is StageStatus.SKIPPED
        assert statuses["regress"] is StageStatus.SKIPPED

    def test_erroring_stage_is_captured_not_raised(self):
        def explode():
            raise RuntimeError("factory on fire")

        duv = DUV(name="broken-factory", model_factory=explode, directives=[MUTEX])
        wb = Workbench(duv)
        report = wb.run_plan(
            VerificationPlan.figure1(cycles=100, scenarios=2, workers=1)
        )
        assert not report.ok
        explore = report.stage("explore")
        assert explore.status is StageStatus.ERROR
        assert "factory on fire" in explore.error
        assert explore.exception is not None
        assert report.stage("regress").status is StageStatus.SKIPPED

    def test_continue_on_failure_runs_everything(self):
        plan = VerificationPlan(
            name="stubborn",
            stages=(
                StageCall.of("explore"),
                StageCall.of("translate"),
            ),
            continue_on_failure=True,
        )
        report = Workbench(toy_duv(broken=True)).run_plan(plan)
        assert report.stage("translate").status is StageStatus.PASSED
        assert not report.ok

    def test_unknown_stage_rejected_at_construction(self):
        with pytest.raises(ValueError):
            VerificationPlan(name="bad", stages=(StageCall.of("blastoff"),))

    def test_report_json_is_serializable(self):
        report = Workbench(toy_duv()).run_plan(
            VerificationPlan(name="mc", stages=(StageCall.of("explore"),))
        )
        doc = json.loads(json.dumps(report.to_json()))
        assert doc["ok"] is True
        assert doc["stages"][0]["stage"] == "explore"
        assert doc["digest"] == report.digest()


class TestSessionDigest:
    @pytest.mark.slow
    def test_digest_is_worker_count_invariant(self):
        plan_args = dict(cycles=400, scenarios=4, scenario_cycles=150)
        digests = set()
        for workers in (1, 2):
            report = Workbench("master_slave", seed=11).run_plan(
                VerificationPlan.figure1(workers=workers, **plan_args)
            )
            assert report.ok, report.summary()
            digests.add(report.digest())
        assert len(digests) == 1

    def test_digest_changes_with_seed(self):
        reports = [
            Workbench("master_slave", seed=seed).run_plan(
                VerificationPlan(
                    name="regress-only",
                    stages=(StageCall.of("regress", scenarios=2, cycles=150, workers=1),),
                )
            )
            for seed in (1, 2)
        ]
        assert reports[0].digest() != reports[1].digest()


class TestEngines:
    def test_serial_engine_preserves_order(self):
        assert list(SerialEngine().imap(abs, [-3, -1, -2])) == [3, 1, 2]

    def test_multiprocessing_engine_computes_everything(self):
        engine = MultiprocessingEngine(workers=2)
        assert sorted(engine.imap(abs, [-5, -6, -7, -8])) == [5, 6, 7, 8]

    def test_multiprocessing_engine_degrades_inline_for_one_item(self):
        engine = MultiprocessingEngine(workers=4)
        assert list(engine.imap(abs, [-9])) == [9]

    def test_resolve_engine_heuristics(self):
        assert isinstance(resolve_engine(1, 100), SerialEngine)
        engine = resolve_engine(3, 100)
        assert isinstance(engine, MultiprocessingEngine)
        assert engine.workers == 3
        # never more workers than items
        assert resolve_engine(None, 1).workers == 1

    def test_workbench_uses_injected_engine(self):
        from repro.scenarios.regression import build_specs

        wb = Workbench(toy_duv(), engine=SerialEngine())
        result = wb.regress(
            specs=build_specs(models=["master_slave"], count=2, cycles=150)
        )
        assert result.metrics["engine"] == "serial"
        assert result.metrics["workers"] == 1

    def test_injected_engine_wins_over_workers_argument(self):
        from repro.scenarios.regression import build_specs

        wb = Workbench(toy_duv(), engine=SerialEngine())
        result = wb.regress(
            specs=build_specs(models=["master_slave"], count=2, cycles=150),
            workers=4,
        )
        assert result.metrics["engine"] == "serial"
        assert result.metrics["workers"] == 1

