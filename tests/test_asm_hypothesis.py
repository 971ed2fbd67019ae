"""Property-based tests for the ASM substrate."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.asm import (
    ActionCall,
    AsmMachine,
    AsmModel,
    AsmSet,
    InconsistentUpdateError,
    Map,
    RequirementFailure,
    Seq,
    StateVar,
    action,
    freeze,
    require,
)
from repro.asm.state import FullState, Location, StateKey
from repro.asm.updates import PARALLEL, SEQUENTIAL, StepMode, UpdateSet

scalars = st.one_of(
    st.booleans(), st.integers(-100, 100), st.text(max_size=5)
)
values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.integers(0, 5), children, max_size=3),
    ),
    max_leaves=8,
)


@settings(max_examples=150, deadline=None)
@given(values)
def test_freeze_is_idempotent_and_hashable(value):
    frozen = freeze(value)
    assert freeze(frozen) == frozen
    hash(frozen)


@settings(max_examples=150, deadline=None)
@given(st.lists(scalars, max_size=6))
def test_seq_roundtrip_and_immutability(items):
    sequence = Seq(items)
    extended = sequence.add("sentinel")
    assert list(sequence) == items
    assert extended[-1] == "sentinel"
    assert len(extended) == len(items) + 1


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.integers(0, 10), scalars, max_size=6))
def test_map_set_remove_laws(data):
    mapping = Map(data)
    grown = mapping.set("k", 1)
    assert grown["k"] == 1
    assert "k" not in mapping
    assert grown.remove("k") == mapping
    assert hash(Map(dict(data))) == hash(mapping)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(["a", "b", "c"]), st.integers(0, 3)),
        min_size=1,
        max_size=8,
    )
)
def test_update_set_parallel_consistency(assignments):
    """A parallel update set raises iff some location receives two
    different values; otherwise the last recording sticks."""
    updates = UpdateSet(StepMode.PARALLEL)
    expected: dict = {}
    conflict = False
    for name, value in assignments:
        if name in expected and expected[name] != value:
            conflict = True
            break
        expected[name] = value
    try:
        for name, value in assignments:
            updates.record(Location("m", name), value)
    except InconsistentUpdateError:
        assert conflict
    else:
        assert not conflict
        assert {loc.variable: v for loc, v in updates.items()} == expected


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(["a", "b"]), st.integers(0, 3)),
        min_size=1,
        max_size=8,
    )
)
def test_update_set_sequential_last_write_wins(assignments):
    updates = UpdateSet(StepMode.SEQUENTIAL)
    for name, value in assignments:
        updates.record(Location("m", name), value)
    final: dict = {}
    for name, value in assignments:
        final[name] = value
    assert {loc.variable: v for loc, v in updates.items()} == final


class Walker(AsmMachine):
    """A machine whose actions form a random-walkable state space."""

    position = StateVar(0)
    fuel = StateVar(4)

    @action
    def forward(self):
        require(self.fuel > 0 and self.position < 3)
        self.position = self.position + 1
        self.fuel = self.fuel - 1

    @action
    def back(self):
        require(self.fuel > 0 and self.position > 0)
        self.position = self.position - 1
        self.fuel = self.fuel - 1

    @action
    def refuel(self):
        require(self.fuel == 0)
        self.fuel = 4


def _walker_model() -> AsmModel:
    model = AsmModel("walk")
    Walker(model=model, name="w")
    model.seal()
    return model


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(["forward", "back", "refuel"]), max_size=12))
def test_snapshot_restore_is_exact_after_any_run(script):
    """full_state/restore round-trips through arbitrary action runs."""
    model = _walker_model()
    initial = model.full_state()
    for name in script:
        model.try_execute(ActionCall("w", name))
    middle = model.full_state()
    for name in reversed(script):
        model.try_execute(ActionCall("w", name))
    model.restore(middle)
    assert model.full_state() == middle
    model.restore(initial)
    assert model.full_state() == initial


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(["forward", "back", "refuel"]), max_size=12))
def test_failed_actions_never_mutate_state(script):
    model = _walker_model()
    for name in script:
        before = model.full_state()
        ok, _ = model.try_execute(ActionCall("w", name))
        if not ok:
            assert model.full_state() == before


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(["forward", "back", "refuel"]), max_size=10))
def test_state_key_is_function_of_full_state(script):
    """Equal full states always project to equal keys."""
    model_a = _walker_model()
    model_b = _walker_model()
    for name in script:
        model_a.try_execute(ActionCall("w", name))
        model_b.try_execute(ActionCall("w", name))
    assert model_a.full_state() == model_b.full_state()
    assert model_a.state_key() == model_b.state_key()
    assert hash(model_a.state_key()) == hash(model_b.state_key())


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(["x", "y", "z"]), st.integers(0, 4)),
        min_size=1,
        max_size=6,
        unique_by=lambda kv: kv[0],
    )
)
def test_full_state_ordering_is_canonical(pairs):
    """FullState equality/hash are insertion-order independent."""
    forward = FullState([(Location("m", k), v) for k, v in pairs])
    backward = FullState([(Location("m", k), v) for k, v in reversed(pairs)])
    assert forward == backward
    assert hash(forward) == hash(backward)
    assert forward.locations() == backward.locations()


def test_exploration_deterministic():
    """Two explorations of the same sealed model agree exactly."""
    from repro.explorer import explore

    first = explore(_walker_model())
    second = explore(_walker_model())
    assert first.fsm.state_count() == second.fsm.state_count()
    assert first.fsm.transition_count() == second.fsm.transition_count()
    assert {s.key for s in first.fsm.states} == {s.key for s in second.fsm.states}


# -- Map updates: bisection keeps the repr order exactly -------------------------

map_keys = st.one_of(
    st.integers(0, 40),  # ints >= 10 sort differently by repr than by value
    st.booleans(),
    st.text(alphabet="ab1", max_size=3),
    st.tuples(st.integers(0, 12), st.booleans()),
)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(map_keys, st.integers(), max_size=12), map_keys, st.integers())
def test_map_set_matches_rebuilt_map(data, key, value):
    updated = Map(data).set(key, value)
    rebuilt = Map({**data, key: value})
    assert updated._pairs == rebuilt._pairs
    assert hash(updated) == hash(rebuilt) and repr(updated) == repr(rebuilt)
    assert list(updated) == list(rebuilt) and updated == rebuilt


@settings(max_examples=150, deadline=None)
@given(
    st.dictionaries(map_keys, st.integers(), max_size=10),
    st.dictionaries(map_keys, st.integers(), max_size=4),
    map_keys,
)
def test_map_merge_and_remove_match_rebuilt_map(data, other, key):
    mapping = Map(data)
    assert mapping.merge(other)._pairs == Map({**data, **other})._pairs
    remaining = {k: v for k, v in data.items() if k != key}
    assert mapping.remove(key)._pairs == Map(remaining)._pairs
    assert mapping.set(key, 0).remove(key)._pairs == Map(remaining)._pairs


# -- compiled actions against the interpreted reference ------------------------------
#
# Random action-call sequences over both shipped models run on two
# copies of one topology: one dispatching to the compiled actions of
# repro.asm.lower, one forced onto the interpreted path (the model's
# private ``_lowered`` table cleared).  After every call the two must
# agree on enabledness, the exception type and message, and the whole
# full_state().

import inspect  # noqa: E402

from repro.asm.lower import compile_action  # noqa: E402
from repro.models.master_slave import asm_model as ms_asm  # noqa: E402
from repro.models.pci import asm_model as pci_asm  # noqa: E402


def _ms_calls(n_masters, n_slaves, coarse):
    slaves = range(-1, n_slaves + 1)  # out-of-range slaves included
    calls = [("system", "init", ())]
    for i in range(n_masters):
        calls.append((f"master{i}", "request", ()))
        if not coarse:
            calls += [(f"master{i}", "transfer_word", ())]
            calls += [
                (f"master{i}", "start_transfer", (s, w))
                for s in slaves for w in (False, True)
            ]
    calls += [("arbiter", "grant_and_transfer", (s, w)) for s in slaves for w in (False, True)]
    if not coarse:
        calls += [("arbiter", "grant", ()), ("arbiter", "release", ())]
    return calls


def _pci_calls(n_masters, n_targets, coarse):
    calls = [("system", "init", ())]
    master_actions = (
        ["request", "run_data_phases", "handle_stop"]
        if coarse
        else ["request", "assert_irdy", "data_phase", "finish", "run_data_phases", "handle_stop"]
    )
    target_actions = (
        ["respond", "stop_transaction", "clear_stop", "complete"]
        if coarse
        else ["claim", "ready", "respond", "stop_transaction", "clear_stop", "complete"]
    )
    for i in range(n_masters):
        calls += [(f"master{i}", a, ()) for a in master_actions]
        calls += [
            (f"master{i}", "start_transaction", (t, b))
            for t in range(-1, n_targets + 1)
            for b in range(0, 4)
        ]
    for j in range(n_targets):
        calls += [(f"target{j}", a, ()) for a in target_actions]
    calls += [("arbiter", a, ()) for a in ("update_m_req", "grant", "reclaim")]
    return calls


@st.composite
def _topologies(draw):
    """A model builder and its call vocabulary (fine or coarse)."""
    coarse = draw(st.booleans())
    if draw(st.booleans()):
        n_blocking = draw(st.integers(0, 2))
        n_non_blocking = draw(st.integers(1 if n_blocking == 0 else 0, 3 - n_blocking))
        n_slaves = draw(st.integers(1, 3))
        build = lambda: ms_asm.build_master_slave_model(n_blocking, n_non_blocking, n_slaves)
        calls = _ms_calls(n_blocking + n_non_blocking, n_slaves, coarse)
    else:
        n_masters = draw(st.integers(1, 3))
        n_targets = draw(st.integers(1, 3))
        build = lambda: pci_asm.build_pci_model(n_masters, n_targets)
        calls = _pci_calls(n_masters, n_targets, coarse)
    return build, [ActionCall(*call) for call in calls]


def _run(model, call):
    try:
        return True, repr(model.execute(call))
    except RequirementFailure as failure:
        return False, str(failure)
    except Exception as error:  # noqa: BLE001 -- compared across paths
        return type(error).__name__, str(error)


def _enabled(model, calls):
    """The calls enabled in the current state (each probe rolled back)."""
    state = model.full_state()
    enabled = []
    for call in calls:
        if _run(model, call)[0] is True:
            enabled.append(call)
        model.restore(state)
    return enabled


@settings(max_examples=80, deadline=None)
@given(_topologies(), st.data())
def test_compiled_actions_match_interpreted_reference(topology, data):
    """Random walks, biased towards enabled calls so they reach deep
    states, agree step by step between the two paths."""
    build, calls = topology
    compiled, reference = build(), build()
    reference._lowered = None
    for _ in range(data.draw(st.integers(0, 30))):
        enabled = _enabled(reference, calls)
        assert _enabled(compiled, calls) == enabled
        pool = enabled if enabled and data.draw(st.integers(0, 3)) else calls
        call = data.draw(st.sampled_from(pool))
        assert _run(compiled, call) == _run(reference, call), call.label()
        assert compiled.full_state() == reference.full_state(), call.label()
    assert reference._lowered is None


@settings(max_examples=40, deadline=None)
@given(_topologies(), st.lists(st.integers(0, 10_000), max_size=25))
def test_restore_is_exact_on_both_paths(topology, picks):
    build, calls = topology
    for lowered in (True, False):
        model = build()
        if not lowered:
            model._lowered = None
        states = []
        for pick in picks:
            states.append(model.full_state())
            _run(model, calls[pick % len(calls)])
        for state in reversed(states):
            model.restore(state)
            assert model.full_state() == state


@pytest.mark.parametrize("module", [ms_asm, pci_asm], ids=["master_slave", "pci"])
def test_every_shipped_action_lowers(module):
    """Nothing in the shipped models falls back to the interpreter."""
    classes = [
        value for value in vars(module).values()
        if isinstance(value, type) and issubclass(value, AsmMachine)
        and value.__module__ == module.__name__
    ]
    checked = 0
    for cls in classes:
        for name, info in cls.declared_actions().items():
            func = inspect.unwrap(getattr(cls, name))
            compiled = compile_action(cls, func, info.mode)
            assert compiled.declined is None, f"{cls.__name__}.{name}: {compiled.declined}"
            checked += 1
    assert checked >= 7
