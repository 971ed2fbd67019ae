"""The parallel regression runner and its Figure 1 plan stage."""

import pytest

from repro.asm import AsmModel
from repro.psl import Property, parse_formula
from repro.scenarios.regression import (
    MODELS,
    RegressionRunner,
    ScenarioSpec,
    build_specs,
    run_scenario,
)
from repro.scenarios.scoreboard import FaultPlan
from conftest import ToyArbiter, ToyMaster


class TestSpecs:
    def test_build_specs_is_deterministic(self):
        assert build_specs(count=30) == build_specs(count=30)

    def test_build_specs_spreads_models_and_profiles(self):
        specs = build_specs(count=30)
        assert {s.model for s in specs} == set(MODELS)
        assert len({s.profile for s in specs}) > 1
        assert len({s.topology for s in specs}) > 2
        assert len({s.seed for s in specs}) == 30

    def test_spec_label(self):
        spec = ScenarioSpec("pci", 9, (2, 2), "bursty", 100)
        assert spec.label == "pci[2x2]#9/bursty"


class TestRunScenario:
    def test_verdict_ok_and_digests_stable(self):
        spec = ScenarioSpec("master_slave", 77, (1, 1, 2), "default", 250)
        first = run_scenario(spec)
        second = run_scenario(spec)
        assert first.ok, first.summary()
        assert first.transactions > 10
        assert first.stream_digest == second.stream_digest
        assert first.scoreboard_digest == second.scoreboard_digest
        assert dict(first.bin_hits) == dict(second.bin_hits)

    def test_verdict_with_monitors(self):
        spec = ScenarioSpec("pci", 5, (2, 2), "default", 250, with_monitors=True)
        verdict = run_scenario(spec)
        assert verdict.ok, verdict.summary()
        assert verdict.failed_assertions == ()

    def test_faulty_spec_fails(self):
        spec = ScenarioSpec(
            "master_slave", 5, (1, 1, 2), "default", 250,
            fault=FaultPlan("corrupt-read", unit=0, nth=2),
        )
        verdict = run_scenario(spec)
        assert not verdict.ok
        assert "data" in verdict.mismatch_kinds

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            run_scenario(ScenarioSpec("vme", 1, (1, 1), "default", 10))


class TestRunner:
    def test_two_worker_smoke_matches_inline_digest(self):
        specs = build_specs(count=8, cycles=150)
        inline = RegressionRunner(specs, workers=1).run()
        fanned = RegressionRunner(specs, workers=2).run()
        assert inline.ok, inline.summary()
        assert fanned.ok, fanned.summary()
        assert inline.digest() == fanned.digest()
        assert fanned.workers == 2
        assert fanned.throughput > 0

    def test_fail_fast_stops_early_inline(self):
        bad = ScenarioSpec(
            "master_slave", 3, (1, 1, 2), "default", 200,
            fault=FaultPlan("drop", unit=0, nth=1),
        )
        good = [
            ScenarioSpec("master_slave", 100 + i, (1, 1, 2), "default", 200)
            for i in range(5)
        ]
        report = RegressionRunner([bad] + good, workers=1, fail_fast=True).run()
        assert not report.ok
        assert report.stopped_early
        assert len(report.verdicts) == 1

    def test_fail_fast_under_multiprocessing(self):
        specs = [
            ScenarioSpec(
                "master_slave", 200 + i, (1, 1, 2), "default", 150,
                fault=FaultPlan("drop", unit=0, nth=1),
            )
            for i in range(6)
        ]
        report = RegressionRunner(specs, workers=2, fail_fast=True).run()
        assert not report.ok
        assert report.failed

    def test_report_aggregates(self):
        specs = build_specs(count=6, cycles=150)
        report = RegressionRunner(specs, workers=1).run()
        assert report.transactions == sum(v.transactions for v in report.verdicts)
        assert report.bin_totals()
        assert "scenario regression" in report.summary()


@pytest.mark.slow
class TestAtScale:
    def test_200_scenarios_across_both_models_multiprocessing(self):
        """Acceptance criterion: >= 200 seeded scenarios over both
        models under multiprocessing with zero scoreboard mismatches."""
        specs = build_specs(models=list(MODELS), count=200, cycles=120)
        assert {s.model for s in specs} == set(MODELS)
        report = RegressionRunner(specs, workers=4).run()
        assert len(report.verdicts) == 200
        assert report.ok, report.summary()
        assert sum(len(v.mismatches) for v in report.verdicts) == 0
        assert report.transactions > 2000


class TestFlowStage:
    """The regression stage rides behind any design's Figure 1 plan;
    a toy arbiter keeps the formal and ABV legs fast."""

    def _flow(self, specs):
        """Run explore -> ABV simulation (-> regress, given specs)."""
        from repro.workbench import DUV, StageCall, VerificationPlan, Workbench

        def factory() -> AsmModel:
            model = AsmModel("toy")
            ToyMaster(model=model, name="m0")
            ToyMaster(model=model, name="m1")
            ToyArbiter(model=model, name="arbiter")
            model.seal()
            return model

        mutex = Property("mutex", parse_formula("never (m0.m_gnt && m1.m_gnt)"))
        stages = [StageCall.of("explore"), StageCall.of("simulate_abv", cycles=300)]
        if specs:
            stages.append(StageCall.of("regress", specs=tuple(specs), workers=1))
        duv = DUV(name="toy", model_factory=factory, directives=[mutex])
        return Workbench(duv).run_plan(
            VerificationPlan(name="flow", stages=tuple(stages))
        )

    def test_flow_runs_scenario_regression_stage(self):
        specs = build_specs(count=4, cycles=150)
        report = self._flow(specs)
        assert report.ok
        regression = report.stage("regress").payload["report"]
        assert regression.ok
        assert len(regression.verdicts) == 4
        assert "regress" in report.summary()

    def test_flow_fails_when_regression_fails(self):
        specs = [
            ScenarioSpec(
                "master_slave", 1, (1, 1, 2), "default", 150,
                fault=FaultPlan("drop", unit=0, nth=1),
            )
        ]
        report = self._flow(specs)
        assert not report.stage("regress").payload["report"].ok
        assert not report.ok

    def test_flow_without_specs_skips_stage(self):
        report = self._flow(())
        assert [s.stage for s in report.stages] == ["explore", "simulate_abv"]
        assert report.ok
