"""Tests for R-FSM rule checking, DOT export, and exploration stats."""

import inspect

import pytest

from repro.asm import AsmMachine, AsmModel, Domain, StateVar, action, require
from repro.explorer import (
    ExplorationConfig,
    Filter,
    RuleFinding,
    assert_rules,
    check_rules,
    counterexample_to_dot,
    explore,
    fsm_to_dot,
    violation_filter,
)
from repro.asm.errors import ModelRuleViolation
from repro.asm import lower
from repro.models.master_slave.asm_model import build_master_slave_model
from repro.models.pci.asm_model import build_pci_model
from conftest import ToyMaster


class TestRuleChecker:
    def test_empty_model_is_r1_error(self):
        model = AsmModel("empty")
        model.seal()
        findings = check_rules(model)
        assert any(f.rule == "R1_FSM" and f.level == "error" for f in findings)

    def test_missing_init_action_is_r2_warning(self, arbiter_model):
        findings = check_rules(arbiter_model)
        assert any(f.rule == "R2_FSM" and f.level == "warning" for f in findings)

    def test_bad_init_action_is_r2_error(self, arbiter_model):
        config = ExplorationConfig(init_action="ghost.init")
        findings = check_rules(arbiter_model, config)
        assert any(f.rule == "R2_FSM" and f.level == "error" for f in findings)

    def test_init_action_must_be_action(self, arbiter_model):
        config = ExplorationConfig(init_action="m0.state_items")
        findings = check_rules(arbiter_model, config)
        assert any(f.rule == "R2_FSM" and f.level == "error" for f in findings)

    def test_action_without_require_is_r3_warning(self):
        class Unguarded(AsmMachine):
            x = StateVar(0)

            @action
            def anything(self):
                self.x = 1

        model = AsmModel()
        Unguarded(model=model, name="u")
        model.seal()
        findings = check_rules(model)
        assert any(f.rule == "R3_FSM" for f in findings)

    def test_r3_text_is_unchanged_and_source_is_read_once(self, monkeypatch):
        class Unguarded(AsmMachine):
            x = StateVar(0)

            @action
            def anything(self):
                self.x = 1

            @action
            def guarded(self):
                require(self.x == 0)

        model = AsmModel()
        Unguarded(model=model, name="u")
        model.seal()
        first = [str(f) for f in check_rules(model) if f.rule == "R3_FSM"]
        assert first == [
            "[warning] R3_FSM: action u.anything declares no require(...) precondition"
        ]
        reads = []
        original = lower.inspect.getsource
        monkeypatch.setattr(
            lower.inspect, "getsource", lambda f: reads.append(f) or original(f)
        )
        assert [str(f) for f in check_rules(model) if f.rule == "R3_FSM"] == first
        assert reads == []

    @pytest.mark.parametrize("model_name", ["master_slave", "pci"])
    def test_r3_on_shipped_models_matches_a_source_scan(self, model_name):
        """The memoized answer equals a fresh ``inspect.getsource`` scan."""
        if model_name == "master_slave":
            model = build_master_slave_model(1, 1, 2)
        else:
            model = build_pci_model(2, 2)
        expected = []
        for machine_name in sorted(model.machines):
            machine = model.machines[machine_name]
            for action_name in type(machine).declared_actions():
                source = inspect.getsource(inspect.unwrap(getattr(machine, action_name)))
                if "require(" not in source:
                    expected.append(f"{machine_name}.{action_name}")
        found = [f.message for f in check_rules(model) if f.rule == "R3_FSM"]
        assert found == [
            f"action {name} declares no require(...) precondition" for name in expected
        ]

    def test_missing_domain_is_r4_error(self):
        class Param(AsmMachine):
            @action
            def act(self, much):
                require(True)

        model = AsmModel()
        Param(model=model, name="p")
        model.seal()
        findings = check_rules(model)
        assert any(f.rule == "R4_FSM" and f.level == "error" for f in findings)

    def test_huge_domain_is_r4_warning(self):
        class Wide(AsmMachine):
            @action(params={"v": Domain.int_range("v", 0, 5000)})
            def act(self, v):
                require(True)

        model = AsmModel()
        Wide(model=model, name="w")
        model.seal()
        findings = check_rules(model)
        assert any(f.rule == "R4_FSM" and f.level == "warning" for f in findings)

    def test_assert_rules_raises_on_error(self):
        model = AsmModel("empty")
        model.seal()
        with pytest.raises(ModelRuleViolation):
            assert_rules(model)

    def test_clean_model_with_init(self, arbiter_model):
        findings = check_rules(
            arbiter_model, ExplorationConfig(init_action="m0.request")
        )
        assert not [f for f in findings if f.level == "error"]

    def test_finding_str(self):
        finding = RuleFinding("R1_FSM", "error", "boom")
        assert "R1_FSM" in str(finding) and "error" in str(finding)


class TestDotExport:
    def test_fsm_dot_structure(self, arbiter_model):
        result = explore(arbiter_model)
        dot = fsm_to_dot(result.fsm)
        assert dot.startswith("digraph")
        assert "s0" in dot
        assert "->" in dot
        assert "doublecircle" in dot  # initial state marker

    def test_violation_state_highlighted(self, broken_arbiter_model):
        from test_explorer_engine import MutexProperty

        result = explore(
            broken_arbiter_model,
            ExplorationConfig(properties=[MutexProperty()]),
        )
        dot = fsm_to_dot(result.fsm, highlight=result.counterexample)
        assert "ffdddd" in dot  # violation fill colour
        assert "color=red" in dot

    def test_counterexample_dot(self, broken_arbiter_model):
        from test_explorer_engine import MutexProperty

        result = explore(
            broken_arbiter_model,
            ExplorationConfig(properties=[MutexProperty()]),
        )
        dot = counterexample_to_dot(result.counterexample)
        assert dot.count("->") == result.counterexample.length

    def test_label_escaping(self, arbiter_model):
        result = explore(arbiter_model)
        dot = fsm_to_dot(result.fsm)
        assert '\\"' not in dot.replace('\\\\"', "")  # parse sanity


class TestStatsAndSummaries:
    def test_summary_mentions_bounds(self, arbiter_model):
        result = explore(arbiter_model, ExplorationConfig(max_states=2))
        assert "state-bound" in result.stats.summary()

    def test_enabled_ratio(self, counter_model):
        result = explore(counter_model)
        assert 0 < result.stats.enabled_ratio <= 1

    def test_exploration_result_summary(self, counter_model):
        result = explore(counter_model)
        assert "[PASS]" in result.summary()

    def test_filter_name_in_terminal_reason(self, counter_model):
        low = Filter("low", lambda m: m.machine("counter").value < 1)
        result = explore(counter_model, ExplorationConfig(filters=[low]))
        reasons = {
            s.terminal_reason
            for s in result.fsm.terminal_states()
            if s.terminal_reason
        }
        assert "filter:low" in reasons

    def test_violation_filter_name(self):
        filt = violation_filter([])
        assert filt.name == "no-violation(none)"
