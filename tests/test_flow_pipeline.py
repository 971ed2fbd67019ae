"""End-to-end tests of the Figure 1 design flow, through the Workbench.

Explore -> liveness -> translate -> ABV simulation on an ad-hoc DUV,
the same legs ``python -m repro flow`` runs as a plan.
"""

from repro.asm import AsmModel
from repro.explorer import ExplorationConfig
from repro.models.master_slave import (
    build_master_slave_model,
    master_slave_domains,
    master_slave_init_call,
    ms_coarse_actions,
    ms_invariant_properties,
    ms_letter_from_model,
    want_trigger,
)
from repro.models.master_slave.properties import served_goal
from repro.psl import Property, parse_formula
from repro.workbench import (
    DUV,
    LivenessCheck,
    StageCall,
    StageStatus,
    VerificationPlan,
    Workbench,
)
from conftest import BrokenArbiter, ToyArbiter, ToyMaster


def toy_model_factory(broken: bool = False):
    def factory() -> AsmModel:
        model = AsmModel("toy")
        ToyMaster(model=model, name="m0")
        ToyMaster(model=model, name="m1")
        (BrokenArbiter if broken else ToyArbiter)(model=model, name="arbiter")
        model.seal()
        return model

    return factory


MUTEX = Property("mutex", parse_formula("never (m0.m_gnt && m1.m_gnt)"))


def toy_duv(broken: bool = False, **kwargs) -> DUV:
    return DUV(
        name="toy",
        model_factory=toy_model_factory(broken),
        directives=[MUTEX],
        **kwargs,
    )


#: The Figure 1 legs without the scenario regression (the toy design
#: has no scenario binding).
FLOW = VerificationPlan(
    name="flow",
    stages=(
        StageCall.of("explore"),
        StageCall.of("check_liveness"),
        StageCall.of("translate"),
        StageCall.of("simulate_abv", cycles=300),
    ),
)


class TestModelCheckingLeg:
    def test_pass_on_correct_design(self):
        result = Workbench(toy_duv()).explore()
        assert result.ok
        exploration = result.payload["exploration"]
        assert exploration.stats.completed
        assert "PASS" in exploration.summary()

    def test_fail_with_counterexample_on_broken_design(self):
        result = Workbench(toy_duv(broken=True)).explore()
        assert result.status is StageStatus.FAILED
        assert result.payload["exploration"].counterexample is not None

    def test_liveness_checks_included(self):
        def m0_req(key):
            return key.value("m0", "m_req") is True

        def m0_gnt(key):
            return key.value("m0", "m_gnt") is True

        duv = toy_duv(liveness_checks=(LivenessCheck("grant0", m0_req, m0_gnt),))
        result = Workbench(duv).check_liveness()
        assert result.ok
        assert result.payload["results"][0].holds

    def test_rule_findings_reported(self):
        result = Workbench(toy_duv()).explore()
        # no init action configured -> R2 warning
        assert any(f.rule == "R2_FSM" for f in result.payload["rule_findings"])


class TestTranslationLeg:
    def test_simulation_report_and_artifacts(self):
        workbench = Workbench(toy_duv())
        report = workbench.simulate_abv(cycles=300).payload["report"]
        assert report.ok
        assert report.cycles >= 299
        assert report.delta_ns_per_cycle > 0
        translated = workbench.translate().payload
        cpp, csharp = translated["systemc"], translated["csharp"]
        assert "SC_MODULE(ToyArbiter)" in cpp
        assert "SC_MODULE(ToyMaster)" in cpp
        assert "int sc_main" in cpp
        assert "class MutexMonitor" in csharp

    def test_monitors_fail_on_broken_design_in_simulation(self):
        from repro.translate import RandomPolicy

        result = Workbench(toy_duv(broken=True)).simulate_abv(
            cycles=2000, policy=RandomPolicy(seed=99)
        )
        report = result.payload["report"]
        assert not report.ok
        assert "mutex" in report.failed_assertions


class TestFullFlow:
    def test_run_verified_design(self):
        report = Workbench(toy_duv()).run_plan(FLOW)
        assert report.ok
        assert report.stage("simulate_abv").payload["report"].ok
        assert "VERIFIED" in report.summary()

    def test_run_stops_before_simulation_on_mc_failure(self):
        report = Workbench(toy_duv(broken=True)).run_plan(FLOW)
        assert not report.ok
        # never translated or simulated
        assert report.stage("translate").status is StageStatus.SKIPPED
        assert report.stage("simulate_abv").status is StageStatus.SKIPPED

    def test_feedback_loop_iterations(self):
        """The Figure 1 'Updates Sequence Diagram' edge: a failed check
        hands back its counterexample, the design is repaired, and the
        flow re-runs on the amended DUV."""
        attempts = []
        duv = toy_duv(broken=True)
        for iteration in range(1, 4):
            report = Workbench(duv).run_plan(FLOW)
            if report.ok:
                break
            attempts.append(
                report.stage("explore").payload["exploration"].counterexample
            )
            duv = toy_duv(broken=False)  # repair = swap in the correct design
        assert report.ok
        assert iteration == 2
        assert len(attempts) == 1
        assert attempts[0] is not None  # the counterexample was delivered


class TestFlowOnMasterSlave:
    def test_master_slave_flow_end_to_end(self):
        n_masters, n_slaves = 2, 2
        duv = DUV(
            name="master_slave_adhoc",
            model_factory=lambda: build_master_slave_model(1, 1, n_slaves),
            directives=ms_invariant_properties(n_masters, n_slaves),
            extractor=ms_letter_from_model,
            exploration=ExplorationConfig(
                domains=master_slave_domains(n_slaves),
                init_action=master_slave_init_call(),
                actions=ms_coarse_actions(n_masters),
                max_states=5_000,
            ),
            liveness_checks=(
                LivenessCheck("served0", want_trigger(0), served_goal(0)),
            ),
        )
        workbench = Workbench(duv)
        explored = workbench.explore()
        assert explored.ok, explored.summary
        liveness = workbench.check_liveness()
        assert liveness.payload["results"][0].holds
