"""Unit tests for machines, actions, update-set semantics and models.

The step-semantics cases run on both execution paths: the compiled
actions a sealed model dispatches to (:mod:`repro.asm.lower`) and the
interpreted reference, reached by clearing the model's private
``_lowered`` table.
"""

import inspect

import pytest

from repro.asm import (
    ActionCall,
    AsmError,
    AsmMachine,
    AsmModel,
    Domain,
    DomainError,
    InconsistentUpdateError,
    ModelRuleViolation,
    NoChoiceError,
    PARALLEL,
    RequirementFailure,
    SEQUENTIAL,
    StateVar,
    action,
    choose_any,
    choose_max,
    choose_min,
    exists_where,
    for_all,
    require,
)
from repro.asm.lower import compile_action
from repro.models.master_slave.asm_model import build_master_slave_model
from conftest import Counter, ToyArbiter, ToyMaster

PATHS = ("interpreted", "lowered")


def sealed(machine_cls, path, name="m"):
    """One machine in a sealed model, running on the chosen path."""
    model = AsmModel()
    machine = machine_cls(model=model, name=name)
    model.seal()
    if path == "interpreted":
        model._lowered = None
    return model, machine


def assert_path(model, machine, action_name, path):
    """The lowered path really ran compiled code (no silent fallback)."""
    if path == "lowered":
        info = type(machine)._actions[action_name]
        func = inspect.unwrap(getattr(type(machine), action_name))
        assert compile_action(type(machine), func, info.mode).declined is None
        assert model._lowered[type(machine), func] is not None


def outcome(call):
    """(exception type, message) of a call, or (None, result)."""
    try:
        return None, call()
    except Exception as error:  # noqa: BLE001 -- compared across paths
        return type(error), str(error)


class TestStateVar:
    def test_default_values(self):
        counter = Counter()
        assert counter.value == 0
        assert counter.limit == 3

    def test_free_write_outside_action(self):
        counter = Counter()
        counter.value = 7
        assert counter.value == 7

    def test_values_are_frozen(self):
        class Holder(AsmMachine):
            items = StateVar([])

        holder = Holder()
        holder.items = [1, 2]
        assert hash(holder.items) is not None  # Seq, hashable

    def test_domain_enforced_on_write(self):
        class Limited(AsmMachine):
            mode = StateVar("off", domain=Domain.of("modes", "off", "on"))

        machine = Limited()
        machine.mode = "on"
        with pytest.raises(Exception):
            machine.mode = "blink"

    def test_declared_state_vars(self):
        assert set(Counter.declared_state_vars()) == {"value", "limit"}


class TestActions:
    def test_action_applies_on_success(self):
        counter = Counter()
        counter.tick()
        assert counter.value == 1

    def test_failed_require_rolls_back(self):
        counter = Counter()
        counter.value = 3
        with pytest.raises(RequirementFailure):
            counter.tick()
        assert counter.value == 3

    def test_parallel_reads_see_prestate(self):
        class Swap(AsmMachine):
            a = StateVar(1)
            b = StateVar(2)

            @action
            def swap(self):
                self.a = self.b
                self.b = self.a

        machine = Swap()
        machine.swap()
        assert (machine.a, machine.b) == (2, 1)

    def test_parallel_conflict_detected(self):
        class Conflict(AsmMachine):
            x = StateVar(0)

            @action
            def clash(self):
                self.x = 1
                self.x = 2

        with pytest.raises(InconsistentUpdateError):
            Conflict().clash()

    def test_parallel_duplicate_update_allowed(self):
        class Duplicate(AsmMachine):
            x = StateVar(0)

            @action
            def same(self):
                self.x = 5
                self.x = 5

        machine = Duplicate()
        machine.same()
        assert machine.x == 5

    def test_sequential_mode_reads_own_writes(self):
        class Accumulate(AsmMachine):
            total = StateVar(0)

            @action(mode=SEQUENTIAL)
            def add_twice(self):
                self.total = self.total + 1
                self.total = self.total + 1

        machine = Accumulate()
        machine.add_twice()
        assert machine.total == 2

    def test_sequential_rollback_on_failure(self):
        class Guarded(AsmMachine):
            total = StateVar(0)

            @action(mode=SEQUENTIAL)
            def bump_then_fail(self):
                self.total = self.total + 1
                require(False, "always fails")

        machine = Guarded()
        with pytest.raises(RequirementFailure):
            machine.bump_then_fail()
        assert machine.total == 0

    def test_nested_action_shares_step(self):
        class Outer(AsmMachine):
            a = StateVar(0)
            b = StateVar(0)

            @action
            def inner(self):
                self.b = 10

            @action
            def outer(self):
                self.a = 1
                self.inner()

        machine = Outer()
        machine.outer()
        assert (machine.a, machine.b) == (1, 10)

    def test_action_metadata(self):
        info = Counter.declared_actions()["tick"]
        assert info.name == "tick"
        assert info.params == ()

    def test_unknown_domain_param_rejected(self):
        with pytest.raises(AsmError):
            class Bad(AsmMachine):  # noqa: F841
                @action(params={"nope": Domain.boolean()})
                def act(self):
                    pass


class TestModel:
    def test_registration_and_lookup(self, arbiter_model):
        assert set(arbiter_model.machines) == {"m0", "m1", "arbiter"}
        assert isinstance(arbiter_model.machine("arbiter"), ToyArbiter)
        assert len(arbiter_model.machines_of(ToyMaster)) == 2

    def test_duplicate_names_disambiguated(self):
        model = AsmModel()
        first = Counter(model=model)
        second = Counter(model=model)
        assert first.name != second.name

    def test_register_after_seal_rejected(self, counter_model):
        with pytest.raises(ModelRuleViolation):
            Counter(model=counter_model)

    def test_invalid_machine_name_rejected(self):
        model = AsmModel()
        with pytest.raises(AsmError):
            Counter(model=model, name="$reserved")

    def test_execute_call(self, counter_model):
        result_ok, _ = counter_model.try_execute(ActionCall("counter", "tick"))
        assert result_ok
        assert counter_model.machine("counter").value == 1

    def test_try_execute_disabled(self, counter_model):
        counter_model.machine("counter").value = 3
        ok, _ = counter_model.try_execute(ActionCall("counter", "tick"))
        assert not ok
        assert counter_model.machine("counter").value == 3

    def test_execute_non_action_rejected(self, counter_model):
        with pytest.raises(AsmError):
            counter_model.execute(ActionCall("counter", "state_items"))

    def test_snapshot_restore_roundtrip(self, arbiter_model):
        before = arbiter_model.full_state()
        arbiter_model.execute(ActionCall("m0", "request"))
        arbiter_model.execute(ActionCall("arbiter", "grant"))
        assert arbiter_model.full_state() != before
        arbiter_model.restore(before)
        assert arbiter_model.full_state() == before

    def test_reset_returns_to_seal_state(self, counter_model):
        counter_model.execute(ActionCall("counter", "tick"))
        counter_model.reset()
        assert counter_model.machine("counter").value == 0

    def test_state_key_uses_selected_vars_only(self, counter_model):
        key = counter_model.state_key()
        names = [loc.variable for loc, _ in key.items()]
        assert "value" in names
        assert "limit" not in names  # state_variable=False

    def test_globals_in_state(self):
        model = AsmModel()
        Counter(model=model)
        model.set_global("flag", True)
        model.seal()
        assert model.get_global("flag") is True
        state = model.full_state()
        assert state.get("$globals", "flag") is True
        model.set_global("flag", False)
        model.restore(state)
        assert model.get_global("flag") is True

    def test_globals_update_inside_action_buffered(self):
        class Init(AsmMachine):
            @action
            def init(self):
                self.model.set_global("ready", True)
                require(False, "abort after global write")

        model = AsmModel()
        Init(model=model, name="init")
        model.seal()
        ok, _ = model.try_execute(ActionCall("init", "init"))
        assert not ok
        assert model.get_global("ready") is None

    def test_candidate_calls_with_domains(self, counter_model):
        calls = list(counter_model.candidate_calls())
        labels = {c.label() for c in calls}
        assert "counter.tick()" in labels
        assert "counter.reset()" in labels

    def test_candidate_calls_missing_domain_raises(self):
        class Param(AsmMachine):
            @action
            def act(self, amount):
                pass

        model = AsmModel()
        Param(model=model, name="p")
        model.seal()
        with pytest.raises(ModelRuleViolation):
            list(model.candidate_calls())

    def test_candidate_calls_domain_override(self):
        class Param(AsmMachine):
            @action
            def act(self, amount):
                require(amount >= 0)

        model = AsmModel()
        Param(model=model, name="p")
        model.seal()
        calls = list(
            model.candidate_calls(
                extra_domains={"amount": Domain.int_range("amt", 0, 2)}
            )
        )
        assert [c.args for c in calls] == [(0,), (1,), (2,)]

    def test_action_filter_by_name(self, arbiter_model):
        calls = list(arbiter_model.candidate_calls(actions=["arbiter.grant"]))
        assert all(c.action == "grant" for c in calls)

    def test_action_groups(self):
        class Grouped(AsmMachine):
            @action(group="fast")
            def quick(self):
                pass

            @action(group="slow")
            def slow(self):
                pass

        model = AsmModel()
        Grouped(model=model, name="g")
        model.seal()
        calls = list(model.candidate_calls(groups=["fast"]))
        assert [c.action for c in calls] == ["quick"]


class TestChooseHelpers:
    def test_choose_min_max(self):
        assert choose_min([3, 1, 2]) == 1
        assert choose_max([3, 1, 2]) == 3
        assert choose_min([3, 1, 2], where=lambda x: x > 1) == 2

    def test_choose_any_deterministic(self):
        assert choose_any([5, 6, 7], where=lambda x: x % 2 == 0) == 6

    def test_choose_raises_when_empty(self):
        with pytest.raises(NoChoiceError):
            choose_min([], where=lambda x: True)
        with pytest.raises(NoChoiceError):
            choose_any([1], where=lambda x: x > 5)

    def test_quantifiers(self):
        assert exists_where([1, 2, 3], lambda x: x == 2)
        assert not exists_where([1, 3], lambda x: x == 2)
        assert for_all([2, 4], lambda x: x % 2 == 0)
        assert not for_all([2, 3], lambda x: x % 2 == 0)


class Swap(AsmMachine):
    a = StateVar(1)
    b = StateVar(2)

    @action
    def swap(self):
        self.a = self.b
        self.b = self.a


class Conflict(AsmMachine):
    x = StateVar(0)

    @action
    def clash(self):
        self.x = 1
        self.x = 2

    @action
    def same(self):
        self.x = 5
        self.x = 5


class Accumulate(AsmMachine):
    total = StateVar(0)

    @action(mode=SEQUENTIAL)
    def add_twice(self):
        self.total = self.total + 1
        self.total = self.total + 1

    @action(mode=SEQUENTIAL)
    def bump_then_fail(self):
        self.total = self.total + 1
        require(False, "always fails")

    @action
    def write_then_fail(self):
        self.total = 9
        require(self.total == 9, "parallel reads see the pre-state")


class Outer(AsmMachine):
    a = StateVar(0)
    b = StateVar(0)

    @action
    def inner(self):
        self.b = 10

    @action
    def outer(self):
        self.a = 1
        self.inner()

    @action
    def outer_clash(self):
        self.b = 3
        self.inner()


class Limited(AsmMachine):
    mode = StateVar("off", domain=Domain.of("modes", "off", "on"))

    @action
    def switch(self, value):
        self.mode = value


class GlobalWriter(AsmMachine):
    flag = StateVar(False)

    @action
    def publish(self, value):
        self.model.set_global("shared", value)
        self.model.set_global("shared", value)
        self.flag = True

    @action
    def publish_clash(self):
        self.model.set_global("shared", 1)
        self.model.set_global("shared", 2)

    @action
    def read_back(self):
        require(self.model.get_global("shared", 0) == 7, "not published")
        self.flag = False


@pytest.mark.parametrize("path", PATHS)
class TestStepSemanticsOnBothPaths:
    def test_parallel_reads_see_prestate(self, path):
        model, machine = sealed(Swap, path)
        machine.swap()
        assert (machine.a, machine.b) == (2, 1)
        assert_path(model, machine, "swap", path)

    def test_parallel_conflict(self, path):
        model, machine = sealed(Conflict, path)
        kind, text = outcome(machine.clash)
        assert kind is InconsistentUpdateError
        assert text == (
            "inconsistent update set: location 'm.x' assigned both 1 and 2 "
            "in the same step"
        )
        assert machine.x == 0
        assert_path(model, machine, "clash", path)

    def test_duplicate_same_value_write(self, path):
        model, machine = sealed(Conflict, path)
        machine.same()
        assert machine.x == 5
        assert_path(model, machine, "same", path)

    def test_sequential_reads_own_writes(self, path):
        model, machine = sealed(Accumulate, path)
        machine.add_twice()
        assert machine.total == 2
        assert_path(model, machine, "add_twice", path)

    def test_rollback_on_failed_require(self, path):
        model, machine = sealed(Accumulate, path)
        assert outcome(machine.bump_then_fail) == (RequirementFailure, "always fails")
        assert outcome(machine.write_then_fail) == (
            RequirementFailure, "parallel reads see the pre-state"
        )
        assert machine.total == 0
        assert_path(model, machine, "bump_then_fail", path)
        assert_path(model, machine, "write_then_fail", path)

    def test_nested_action_shares_step(self, path):
        model, machine = sealed(Outer, path)
        machine.outer()
        assert (machine.a, machine.b) == (1, 10)
        kind, text = outcome(machine.outer_clash)
        assert kind is InconsistentUpdateError and "'m.b'" in text
        assert_path(model, machine, "outer", path)

    def test_domain_enforced_inside_action(self, path):
        model, machine = sealed(Limited, path)
        machine.switch("on")
        assert machine.mode == "on"
        assert outcome(lambda: machine.switch("blink")) == (
            DomainError, "m.mode: value 'blink' outside domain 'modes'"
        )
        assert machine.mode == "on"
        assert_path(model, machine, "switch", path)

    def test_globals_are_buffered_and_checked(self, path):
        model, machine = sealed(GlobalWriter, path)
        assert outcome(machine.read_back)[0] is RequirementFailure
        machine.publish(7)
        assert model.get_global("shared") == 7 and machine.flag
        kind, text = outcome(machine.publish_clash)
        assert kind is InconsistentUpdateError and "'$globals.shared'" in text
        assert model.get_global("shared") == 7
        machine.read_back()
        assert not machine.flag
        assert_path(model, machine, "publish", path)

    def test_reset_restores_globals_exactly(self, path):
        model = build_master_slave_model(1, 1, 2)
        if path == "interpreted":
            model._lowered = None
        model.execute(ActionCall("system", "init"))
        assert model._globals == {"system_init": True}
        globals_dict = model._globals
        model.reset()
        assert model.full_state() == model.initial_state()
        assert model._globals == {} and model._globals is globals_dict
        # rule R2: nothing is enabled before init runs again
        ok, _ = model.try_execute(ActionCall("master0", "request"))
        assert not ok
        model.execute(ActionCall("system", "init"))
        assert model.try_execute(ActionCall("master0", "request"))[0]


class Escaping(AsmMachine):
    total = StateVar(0)

    @action
    def bump(self):
        self.total = self.total + 1
        return self.total

    @action
    def hand_out(self):
        choose_any([self])
        self.total = 0


def test_declined_actions_run_interpreted():
    """An action outside the lowered subset falls back, per action."""
    model, machine = sealed(Escaping, "lowered")
    for name in ("bump", "hand_out"):
        func = inspect.unwrap(getattr(Escaping, name))
        assert compile_action(Escaping, func, PARALLEL).declined
    assert machine.bump() == 0  # the interpreted step returns pre-state reads
    assert machine.total == 1
    machine.hand_out()
    assert machine.total == 0
    assert set(model._lowered.values()) == {None}


@pytest.mark.parametrize("path", PATHS)
def test_argument_errors_read_the_same_on_both_paths(path):
    model, machine = sealed(Limited, path)
    assert outcome(lambda: machine.switch()) == (
        TypeError, "Limited.switch() missing 1 required positional argument: 'value'"
    )
    assert outcome(lambda: machine.switch("on", "off"))[1] == (
        "Limited.switch() takes 2 positional arguments but 3 were given"
    )
