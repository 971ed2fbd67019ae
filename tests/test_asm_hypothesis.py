"""Property-based tests for the ASM substrate."""

import hypothesis.strategies as st
import pytest
from hypothesis import find, given, settings

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


# -- the generated scoreboard replay against a step-by-step reference ----------------
#
# Streams of completed-transaction records (valid ones, corrupted data,
# and records a ``require`` rejects) go through the shipped adapters,
# whose replay is one generated function per transaction kind, and
# through a test-side reference that expands the same declaration and
# runs it one action at a time through AsmLockstep.call on an
# interpreted model.  A drawn prefix of actions, run on both
# references after ``system.init``, leaves masters requesting,
# slaves busy or the bus granted, so rejections land on every step
# of the scripts.

from dataclasses import replace  # noqa: E402

from repro.asm import AsmError  # noqa: E402
from repro.asm.lower import ReplayScript, ReplayStep, compile_replay  # noqa: E402
from repro.models.master_slave.scenario import MS_REPLAY, MsReferenceAdapter  # noqa: E402
from repro.models.pci.protocol import MAX_BURST_LENGTH  # noqa: E402
from repro.models.pci.scenario import PCI_REPLAY, PciReferenceAdapter  # noqa: E402
from repro.scenarios.regression import (  # noqa: E402
    MS_TOPOLOGIES,
    PCI_TOPOLOGIES,
    ScenarioSpec,
    _build_system,
    run_scenario,
)
from repro.scenarios.scoreboard import (  # noqa: E402
    DivergenceKind,
    FaultPlan,
    Mismatch,
    Scoreboard,
)
from repro.scenarios.sequences import SequenceItem  # noqa: E402
from repro.sysc.bus import BusMode, Transaction  # noqa: E402


def _stepwise(adapter_cls):
    """``adapter_cls`` replaying its script one lockstep call at a time
    on an interpreted reference model."""

    class Stepwise(adapter_cls):
        def build_reference(self):
            model = super().build_reference()
            model._lowered = None
            return model

        def _replay_transaction(self, txn, roles, params):
            names = dict(zip([role for role, _ in self.script.roles], roles))
            values = dict(zip(self.script.params, params))
            for step in self.script.steps:
                args = [values[arg] for arg in step.args]
                for _ in range(1 if step.repeat is None else values[step.repeat]):
                    error = self.lockstep.call(names[step.role], step.action, *args)
                    if error is None:
                        continue
                    state = self.lockstep.state_dump()
                    self._rearm()
                    return Mismatch(
                        kind=DivergenceKind.PROTOCOL,
                        master=txn.master,
                        txn_id=txn.txn_id,
                        detail=f"ASM reference rejected replay of {txn.describe()}",
                        expected="action enabled in the verified design",
                        observed=error,
                        reference_state=state,
                    )
            return None

    return Stepwise


def _primed(adapter_cls, prime):
    """``adapter_cls`` whose every check starts from ``prime``'s state."""

    class Primed(adapter_cls):
        def begin(self):
            super().begin()
            for call in prime:
                self.lockstep.model.try_execute(call)

    return Primed


def _report_fields(report):
    return (
        report.scenario,
        report.matches,
        report.words_checked,
        report.replayed_calls,
        report.mismatches,
        [m.describe() for m in report.mismatches],
        report.summary(),
        report.digest(),
    )


@st.composite
def _record_streams(draw):
    """A topology, its adapter factory, a prime prefix, a record stream
    and per-master completed counts."""
    if draw(st.booleans()):
        n_blocking = draw(st.integers(0, 2))
        n_non_blocking = draw(st.integers(1 if n_blocking == 0 else 0, 3 - n_blocking))
        n_slaves = draw(st.integers(1, 3))
        n_masters = n_blocking + n_non_blocking
        make = lambda cls: cls(n_blocking, n_non_blocking, n_slaves)  # noqa: E731
        adapter_cls, units = MsReferenceAdapter, n_slaves
        vocabulary = _ms_calls(n_masters, n_slaves, coarse=False)
        page = lambda unit: unit * 0x100  # noqa: E731
    else:
        n_masters = draw(st.integers(1, 3))
        n_targets = draw(st.integers(1, 3))
        make = lambda cls: cls(n_masters, n_targets)  # noqa: E731
        adapter_cls, units = PciReferenceAdapter, n_targets
        vocabulary = _pci_calls(n_masters, n_targets, coarse=False)
        page = lambda unit: (unit + 1) * 0x1000  # noqa: E731
    # prime: a prefix of one transaction's script, then a few calls
    # from the whole vocabulary (most of them disabled)
    script = adapter_cls.script
    owner, primed_unit = draw(st.integers(0, n_masters - 1)), draw(st.integers(0, units - 1))
    if adapter_cls is MsReferenceAdapter:
        roles, params = (f"master{owner}", "arbiter"), (primed_unit, draw(st.booleans()), 2)
    else:
        roles, params = (f"master{owner}", "arbiter", f"target{primed_unit}"), (primed_unit, 1)
    # all but the last step leaves a PCI target stuck in TRANSFER
    prefix = draw(st.integers(0, script.calls(params)) | st.just(script.calls(params) - 1))
    prime = [ActionCall(*script.step_at(n, roles, params)) for n in range(prefix)]
    prime += [
        ActionCall(*vocabulary[pick])
        for pick in draw(st.lists(st.integers(0, len(vocabulary) - 1), max_size=2))
    ]
    golden: dict = {}
    records = []
    for txn_id in range(draw(st.integers(0, 8))):
        master = draw(st.integers(0, n_masters - 1))
        kind = draw(st.sampled_from(["valid", "valid", "data", "unmapped", "burst"]))
        unit = draw(st.integers(0, units - 1) | st.just(primed_unit))
        if kind == "unmapped":
            unit = draw(st.sampled_from([-1, units]))
        if adapter_cls is MsReferenceAdapter:
            words = 2 if master < n_blocking else 1
        else:
            words = draw(st.integers(1, MAX_BURST_LENGTH))
        if kind == "burst":  # outside the master's burst domain
            words = draw(st.sampled_from([1, 3] if words == 2 else [2, MAX_BURST_LENGTH + 1]))
        address = page(unit) + draw(st.integers(0, 3))
        is_write = draw(st.booleans())
        payload = tuple(draw(st.lists(st.integers(0, 3), min_size=words, max_size=words)))
        if adapter_cls is MsReferenceAdapter and not is_write:
            data = tuple(golden.get(address + k, 0) for k in range(words))
        else:
            data = payload
        if kind == "data":
            data = (data[0] + 1,) + data[1:]
        elif adapter_cls is MsReferenceAdapter and is_write and kind == "valid":
            golden.update((address + k, data[k]) for k in range(words))
        txn = Transaction(
            master=f"master{master}", address=address, is_write=is_write, data=data,
            mode=BusMode.BLOCKING, start_cycle=10 * txn_id, end_cycle=10 * txn_id + 5,
            txn_id=txn_id,
        )
        item = SequenceItem(
            target=unit, is_write=is_write, burst=words, address_offset=0, payload=payload
        )
        records.append((txn, item))
    completed = {}
    for txn, _ in records:
        completed[txn.master] = completed.get(txn.master, 0) + 1
    for index in draw(st.lists(st.integers(0, n_masters - 1), max_size=2)):
        completed[f"master{index}"] = completed.get(f"master{index}", 0) + 1
    return make, adapter_cls, prime, records, completed


@settings(max_examples=150, deadline=None)
@given(_record_streams())
def test_generated_replay_matches_stepwise_reference(stream):
    """Every report field and every mismatch text, reference state and
    replayed-call count included, equals the step-by-step reference."""
    make, adapter_cls, prime, records, completed = stream
    shipped = make(_primed(adapter_cls, prime))
    reference = make(_primed(_stepwise(adapter_cls), prime))
    got = Scoreboard(shipped, "stream").check(records, completed)
    want = Scoreboard(reference, "stream").check(records, completed)
    assert _report_fields(got) == _report_fields(want)
    assert reference.lockstep.model._lowered is None
    assert shipped.lockstep.model._lowered is not None


#: every step a ``require`` can reject once the steps before it
#: succeeded (PCI's grant, assert_irdy, data phases, finish and
#: complete cannot fail after their predecessors ran)
_CAN_FAIL = [
    (MS_REPLAY, action)
    for action in ("request", "grant", "start_transfer", "transfer_word", "release")
] + [(PCI_REPLAY, action) for action in ("request", "update_m_req", "start_transaction", "respond")]


@pytest.mark.parametrize(
    "script,action", _CAN_FAIL, ids=[f"{s.name}.{a}" for s, a in _CAN_FAIL]
)
def test_streams_reach_a_rejection_at_each_step(script, action):
    """The record streams above make each script fail at every step
    that can fail."""

    def rejects_there(stream):
        make, adapter_cls, prime, records, completed = stream
        if adapter_cls.script is not script:
            return False
        report = Scoreboard(make(_primed(adapter_cls, prime)), "stream").check(records)
        return any(
            m.kind is DivergenceKind.PROTOCOL and f".{action}(" in m.observed.split(" rejected")[0]
            for m in report.mismatches
        )

    find(_record_streams(), rejects_there, settings=settings(
        max_examples=2000, deadline=None, database=None
    ))


@pytest.mark.parametrize("model,topology", [("master_slave", (1, 2, 2)), ("pci", (2, 2))])
@pytest.mark.parametrize("fault", [FaultPlan("corrupt-read", 0, 1), FaultPlan("drop", 0, 2)])
def test_fault_plans_match_the_stepwise_reference(model, topology, fault):
    """Both injected-fault kinds, end to end through run_scenario."""
    spec = ScenarioSpec(model, 2005, topology, "default", 300, fault)
    verdict = run_scenario(spec)
    system = _build_system(spec)
    system.run_cycles(spec.cycles)
    adapter_cls = MsReferenceAdapter if model == "master_slave" else PciReferenceAdapter
    reference = Scoreboard(_stepwise(adapter_cls)(*topology), spec.label).check(
        system.records(), system.completed_counts()
    )
    assert not verdict.ok and reference.mismatches
    assert verdict.mismatches == tuple(m.describe() for m in reference.mismatches)
    assert (verdict.matches, verdict.words) == (reference.matches, reference.words_checked)
    assert verdict.scoreboard_digest == reference.digest()
    assert _report_fields(system.check(spec.label)) == _report_fields(reference)


@pytest.mark.parametrize(
    "adapter_cls,topologies",
    [(MsReferenceAdapter, MS_TOPOLOGIES), (PciReferenceAdapter, PCI_TOPOLOGIES)],
    ids=["master_slave", "pci"],
)
def test_one_replay_code_object_per_kind(adapter_cls, topologies):
    """Every topology binds the same generated code, and every declared
    step binds to a lowered entry: nothing on the replay path runs
    interpreted."""
    script = adapter_cls.script
    actions = {(step.role, step.action) for step in script.steps}
    codes = set()
    for topology in topologies:
        adapter = adapter_cls(*topology)
        adapter.begin()
        replay = adapter._replay
        codes.add(replay.__code__)
        entries = [cell.cell_contents for cell in replay.__closure__]
        assert AsmError in entries and len(entries) == len(actions) + 1
        for entry in entries:
            if entry is not AsmError:
                assert entry.__code__.co_filename.startswith("<asm-lowered"), entry
    assert len(codes) == 1
    assert compile_replay(script).factory.__code__.co_consts[1] is next(iter(codes))


def test_replay_declarations_are_checked():
    """A step naming an undeclared role or parameter, or a method that
    is not an @action, is refused when the replay is generated."""
    steps = (ReplayStep("arbiter", "grant"),)
    base = ReplayScript("toy", (("arbiter", ms_asm.MsArbiter),), ("n",), steps)
    assert compile_replay(base) is compile_replay(replace(base))
    for bad in (
        (ReplayStep("master", "request"),),
        (ReplayStep("arbiter", "grant", ("slave",)),),
        (ReplayStep("arbiter", "grant", repeat="words"),),
        (ReplayStep("arbiter", "__init__"),),
    ):
        with pytest.raises(ValueError):
            compile_replay(replace(base, steps=bad))
    with pytest.raises(ValueError):
        compile_replay(replace(base, params=("arbiter",)))
