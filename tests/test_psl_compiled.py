"""Differential tests: compiled (table-driven) vs interpreted monitors.

The compiled engine's whole contract is *byte-identical verdicts*: any
property, any trace, every cycle, both engines must agree.  This suite
drives both engines in lockstep over

* every property the two bus models ship (invariants, timed, covers),
* a seeded corpus of randomly generated SEREs and suffix implications,

and additionally checks the redesigned ``compile_properties`` API
surface (bindings, engine selection, the deprecation shim, cache
counters), the fused property sets (Hypothesis streams through whole
shipped suites, harness stop cycles, replay restore) and the kernel
fast path the compiled engine rides on.
"""

import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.master_slave.properties import (
    ms_cover_properties,
    ms_invariant_properties,
    ms_timed_properties,
)
from repro.models.pci.properties import (
    pci_cover_properties,
    pci_safety_properties,
)
from repro.abv import AbvHarness, FailureAction
from repro.psl import (
    Verdict,
    compile_properties,
    parse_formula,
)
from repro.psl.compiled import (
    ENGINE_ENV_VAR,
    CompiledProperty,
    FusedPropertySet,
    clear_compile_caches,
    compile_cache_stats,
    compile_property,
    default_engine,
    property_digest,
    set_default_engine,
    shared_automaton,
)
from repro.psl.parser import parse_sere
from repro.sysc import Clock, Simulator, SimulationStopped, ns


# ---------------------------------------------------------------------------
# lockstep driving
# ---------------------------------------------------------------------------


def random_trace(variables, cycles: int, seed: int, bias: float = 0.5):
    """A seeded boolean trace over ``variables`` (sorted for stability)."""
    rng = random.Random(seed)
    names = sorted(variables) or ["p"]
    return [
        {name: rng.random() < bias for name in names} for _ in range(cycles)
    ]


def lockstep(source, trace, *, bindings=None):
    """Step both engines over ``trace``; assert per-cycle agreement.

    Returns the shared verdict sequence so callers can make additional
    assertions about the trace itself.
    """
    compiled, = compile_properties([source], bindings=bindings, engine="compiled")
    interpreted, = compile_properties(
        [source], bindings=bindings, engine="interpreted"
    )
    assert compiled.variables() == interpreted.variables()
    compiled.reset()
    interpreted.reset()
    verdicts = []
    for cycle, letter in enumerate(trace):
        got = compiled.step(letter)
        want = interpreted.step(letter)
        assert got is want, (
            f"engines diverge at cycle {cycle} for {source!r}: "
            f"compiled={got} interpreted={want}"
        )
        assert compiled.verdict() is interpreted.verdict()
        verdicts.append(got)
    return verdicts


MODEL_SUITES = {
    "ms_invariants": lambda: ms_invariant_properties(2, 2),
    "ms_timed": lambda: ms_timed_properties(2, 2, [True, False]),
    "ms_covers": lambda: ms_cover_properties(2, 2),
    "pci_safety": lambda: pci_safety_properties(2, 2),
    "pci_covers": lambda: pci_cover_properties(2, 2),
}


class TestModelProperties:
    """Every shipped model property agrees across engines."""

    @pytest.mark.parametrize("suite", sorted(MODEL_SUITES), ids=str)
    def test_random_traces_agree(self, suite):
        directives = MODEL_SUITES[suite]()
        assert directives, f"suite {suite} is empty"
        for directive in directives:
            monitor, = compile_properties([directive], engine="compiled")
            for seed in (1, 2, 3):
                trace = random_trace(monitor.variables(), 40, seed)
                lockstep(directive, trace)

    @pytest.mark.parametrize("suite", sorted(MODEL_SUITES), ids=str)
    def test_quiet_traces_agree(self, suite):
        """All-false and all-true letters: the degenerate corners."""
        for directive in MODEL_SUITES[suite]():
            monitor, = compile_properties([directive], engine="compiled")
            names = sorted(monitor.variables())
            for value in (False, True):
                trace = [{name: value for name in names}] * 12
                lockstep(directive, trace)


# ---------------------------------------------------------------------------
# random formula corpus
# ---------------------------------------------------------------------------

ATOMS = ("a", "b", "c")


def random_sere(rng: random.Random, depth: int = 0) -> str:
    atom = rng.choice(ATOMS)
    if depth >= 2:
        return atom
    pick = rng.randrange(7)
    if pick == 0:
        return atom
    if pick == 1:
        return f"{random_sere(rng, depth + 1)} ; {random_sere(rng, depth + 1)}"
    if pick == 2:
        return f"{{{random_sere(rng, depth + 1)}}} | {{{random_sere(rng, depth + 1)}}}"
    if pick == 3:
        return f"{atom}[*]"
    if pick == 4:
        return f"{atom}[+]"
    if pick == 5:
        lo = rng.randrange(0, 3)
        return f"{atom}[*{lo}:{lo + rng.randrange(1, 3)}]"
    return f"({atom} && {rng.choice(ATOMS)})"


def random_formula(rng: random.Random) -> str:
    shape = rng.randrange(6)
    if shape == 0:
        return f"always {{{random_sere(rng)}}} |=> {{{random_sere(rng)}}}"
    if shape == 1:
        return f"always {{{random_sere(rng)}}} |-> {{{random_sere(rng)}}}"
    if shape == 2:
        return f"never {{{random_sere(rng)}}}"
    if shape == 3:
        return f"always ({rng.choice(ATOMS)} -> {rng.choice(ATOMS)})"
    if shape == 4:
        return f"{rng.choice(ATOMS)} until {rng.choice(ATOMS)}"
    return f"eventually! {rng.choice(ATOMS)}"


class TestRandomCorpus:
    def test_generated_formulas_agree(self):
        rng = random.Random(20050307)
        for index in range(60):
            text = random_formula(rng)
            trace = random_trace(ATOMS, 30, seed=index, bias=rng.choice((0.3, 0.7)))
            lockstep(text, trace)

    def test_generated_covers_agree(self):
        rng = random.Random(77)
        for index in range(30):
            text = f"cover {{{random_sere(rng)}}};"
            trace = random_trace(ATOMS, 25, seed=1000 + index)
            lockstep(text, trace)


# ---------------------------------------------------------------------------
# fused property sets: whole shipped suites, Hypothesis letter streams
# ---------------------------------------------------------------------------


def _suite(choice):
    kind, first, second, handshake = choice
    if kind == "ms_invariants":
        return ms_invariant_properties(first, second, include_handshake=handshake)
    if kind == "pci_safety":
        return pci_safety_properties(first, second)
    return pci_cover_properties(first, second)


SUITE_CHOICES = st.one_of(
    st.tuples(
        st.just("ms_invariants"), st.integers(1, 3), st.integers(1, 2), st.booleans()
    ),
    st.tuples(
        st.sampled_from(["pci_safety", "pci_covers"]),
        st.integers(1, 2),
        st.integers(1, 2),
        st.just(False),
    ),
)


def observables(monitor):
    """Everything a caller can read off a monitor."""
    return (
        monitor.verdict(),
        monitor.cycle,
        monitor.failure_cycle,
        getattr(monitor, "hits", None),
        getattr(monitor, "triggered", None),
        monitor.report(),
    )


def _letters(data, monitors, max_size=30):
    names = sorted(frozenset().union(*(m.variables() for m in monitors)))
    letter = st.fixed_dictionaries({name: st.booleans() for name in names})
    return data.draw(st.lists(letter, max_size=max_size), label="letters")


def _harness(directives, engine, actions=(FailureAction.REPORT,)):
    simulator = Simulator()
    clock = Clock("clk", ns(10), simulator)
    harness = AbvHarness(simulator, clock, dict)
    harness.add_properties(directives, engine=engine, actions=actions)
    return harness


def _harness_view(harness):
    return (
        harness.cycles_observed,
        [binding.fired for binding in harness.bindings],
        [observables(binding.monitor) for binding in harness.bindings],
        [(r.label, r.message) for r in harness.reports.errors()],
    )


class TestFusedSets:
    @settings(max_examples=40, deadline=None)
    @given(choice=SUITE_CHOICES, data=st.data())
    def test_fused_set_matches_interpreter(self, choice, data):
        directives = _suite(choice)
        fused = compile_properties(directives, engine="compiled")
        reference = compile_properties(directives, engine="interpreted")
        assert all(isinstance(m, CompiledProperty) for m in fused)
        property_set = fused[0].property_set
        assert property_set.members == tuple(fused)
        letters = _letters(data, reference)
        for letter in letters:
            property_set.step(letter)
            for monitor in reference:
                monitor.step(letter)
            for got, want in zip(fused, reference):
                assert observables(got) == observables(want), got.name
        # a member's own step() runs it as a singleton set
        singles = compile_properties(directives, engine="compiled")
        for single, want in zip(singles, reference):
            for letter in letters:
                single.step(letter)
            assert len(single.property_set.members) == (1 if letters else len(singles))
            assert observables(single) == observables(want), single.name

    @settings(max_examples=25, deadline=None)
    @given(choice=SUITE_CHOICES, data=st.data())
    def test_stop_action_halts_at_the_same_cycle(self, choice, data):
        directives = _suite(choice)
        letters = _letters(data, compile_properties(directives), max_size=25)
        views = []
        for engine in ("compiled", "interpreted"):
            harness = _harness(
                directives, engine, (FailureAction.REPORT, FailureAction.STOP)
            )
            stopped = None
            try:
                harness.replay_letters(letters)
            except SimulationStopped as stop:
                stopped = str(stop)
            views.append((stopped, _harness_view(harness)))
        assert views[0] == views[1]

    @settings(max_examples=25, deadline=None)
    @given(choice=SUITE_CHOICES, data=st.data())
    def test_replay_restore_then_continue_matches_a_straight_run(self, choice, data):
        """restore(snapshot(T)) + k == run(T + k), via replay_letters."""
        directives = _suite(choice)
        letters = _letters(data, compile_properties(directives))
        split = data.draw(st.integers(0, len(letters)), label="T")
        straight = _harness(directives, "compiled")
        straight.replay_letters(letters)
        first = _harness(directives, "compiled")
        first.record_letters = True
        first.replay_letters(letters[:split])
        resumed = _harness(directives, "compiled")
        resumed.replay_letters(first.recorded_letters)
        resumed.replay_letters(letters[split:])
        assert _harness_view(resumed) == _harness_view(straight)

    def test_partially_bound_set_splits_and_agrees(self):
        """Binding only some members steps those alone; the rest of
        the set is left untouched."""
        directives = ms_invariant_properties(2, 2)
        monitors = compile_properties(directives, engine="compiled")
        reference = compile_properties(directives, engine="interpreted")
        simulator = Simulator()
        harness = AbvHarness(simulator, Clock("clk", ns(10), simulator), dict)
        harness.add_monitors(monitors[:3])
        trace = random_trace(monitors[0].variables() | monitors[3].variables(), 30, 5)
        for letter in trace:
            harness._observe(letter)
            for monitor in reference[:3]:
                monitor.step(letter)
        for got, want in zip(monitors[:3], reference[:3]):
            assert observables(got) == observables(want)
        assert all(m.cycle == -1 for m in monitors[3:])

    def test_step_functions_are_memoized_per_suite(self):
        clear_compile_caches()
        try:
            first = compile_properties(pci_safety_properties(2, 2))
            second = compile_properties(pci_safety_properties(2, 2))
            first[0].property_set.step({})
            second[0].property_set.step({})
            assert compile_cache_stats()["step_functions"] == 1
            assert first[0].property_set.source == second[0].property_set.source
        finally:
            clear_compile_caches()

    def test_split_bumps_the_generation(self):
        monitors = compile_properties(["always a", "never b"], engine="compiled")
        before = FusedPropertySet.generation
        monitors[0].step({"a": True, "b": False})
        assert FusedPropertySet.generation == before + 1
        assert monitors[1].property_set is not monitors[0].property_set


# ---------------------------------------------------------------------------
# snapshot / restore
# ---------------------------------------------------------------------------


class TestSnapshotRestore:
    CASES = [
        "always {a} |=> {b ; c}",
        "always {a ; a} |-> {b[*1:3] ; c}",
        "never {a ; b}",
        "a until b",
        "eventually! c",
        "cover {a ; b ; c};",
    ]

    @pytest.mark.parametrize("engine", ["compiled", "interpreted"])
    @pytest.mark.parametrize("text", CASES, ids=range(len(CASES)))
    def test_mid_stream_round_trip(self, engine, text):
        """Restoring a mid-trace snapshot replays the identical tail."""
        trace = random_trace(ATOMS, 30, seed=sum(text.encode()))
        monitor, = compile_properties([text], engine=engine)
        monitor.reset()
        for letter in trace[:11]:
            monitor.step(letter)
        snap = monitor.snapshot()
        tail = [monitor.step(letter) for letter in trace[11:]]
        monitor.restore(snap)
        replayed = [monitor.step(letter) for letter in trace[11:]]
        assert replayed == tail

    def test_snapshot_is_inert(self):
        """Stepping after a snapshot does not mutate the snapshot."""
        monitor, = compile_properties(["always {a} |=> {b}"], engine="compiled")
        monitor.reset()
        monitor.step({"a": True, "b": False})
        snap = monitor.snapshot()
        monitor.step({"a": False, "b": False})  # consequent fails
        assert monitor.verdict() is Verdict.FAILS
        monitor.restore(snap)
        assert monitor.verdict() is not Verdict.FAILS
        monitor.step({"a": False, "b": True})
        assert monitor.verdict() is not Verdict.FAILS


# ---------------------------------------------------------------------------
# API surface
# ---------------------------------------------------------------------------


class TestCompileApi:
    def test_engine_validation(self):
        with pytest.raises(ValueError, match="unknown PSL engine"):
            compile_properties(["always p"], engine="jit")
        with pytest.raises(ValueError, match="unknown PSL engine"):
            set_default_engine("turbo")

    def test_default_engine_round_trip(self):
        previous = set_default_engine("interpreted")
        try:
            assert default_engine() == "interpreted"
            monitor, = compile_properties(["always p"])
            assert not isinstance(monitor, CompiledProperty)
        finally:
            set_default_engine(previous)

    def test_env_var_overrides_default(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "interpreted")
        assert default_engine() == "interpreted"
        monkeypatch.setenv(ENGINE_ENV_VAR, "warp")
        with pytest.raises(ValueError, match="unknown PSL engine"):
            default_engine()

    def test_bindings_rename_signals(self):
        monitor, = compile_properties(
            ["always {req} |=> {gnt}"],
            bindings={"req": "want0", "gnt": "owner0"},
        )
        assert monitor.variables() == frozenset({"want0", "owner0"})
        monitor.reset()
        monitor.step({"want0": True, "owner0": False})
        monitor.step({"want0": False, "owner0": True})
        assert monitor.verdict() is not Verdict.FAILS

    def test_bindings_and_engines_agree(self):
        bindings = {"a": "x", "b": "y"}
        trace = random_trace(("x", "y"), 20, seed=9)
        lockstep("always {a} |=> {b}", trace, bindings=bindings)

    def test_source_forms_are_interchangeable(self):
        text = "always {a} |=> {b}"
        formula = parse_formula(text)
        from_text, = compile_properties([text])
        from_ast, = compile_properties([formula])
        assert type(from_text) is type(from_ast)
        assert property_digest(text) == property_digest(formula)

    def test_rejects_unknown_source_type(self):
        with pytest.raises(TypeError, match="cannot compile"):
            compile_property(42)

    def test_unsupported_patterns_fall_back(self):
        """Patterns outside the table engine run interpreted -- silently."""
        monitor, = compile_properties(["always (always a)"], engine="compiled")
        assert not isinstance(monitor, CompiledProperty)
        trace = random_trace(("a",), 10, seed=3)
        lockstep("always (always a)", trace)


class TestDeprecationShim:
    """The construction path emits no warning under either engine."""

    def test_compile_properties_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            compile_properties(["always p"], engine="interpreted")
            compile_properties(["always p"], engine="compiled")


# ---------------------------------------------------------------------------
# caches
# ---------------------------------------------------------------------------


class TestCompileCaches:
    def test_plan_cache_hits_on_repeat(self):
        clear_compile_caches()
        try:
            compile_properties(["always {a} |=> {b}"] * 3)
            stats = compile_cache_stats()
            assert stats["plan_misses"] == 1
            assert stats["plan_hits"] == 2
        finally:
            clear_compile_caches()

    def test_bindings_are_part_of_the_cache_key(self):
        clear_compile_caches()
        try:
            compile_properties(["always {a} |=> {b}"])
            compile_properties(["always {a} |=> {b}"], bindings={"a": "x"})
            stats = compile_cache_stats()
            assert stats["plan_misses"] == 2
        finally:
            clear_compile_caches()

    def test_automata_are_shared_across_monitors(self):
        clear_compile_caches()
        try:
            item = parse_sere("a ; b[*] ; c")
            first = shared_automaton(item)
            second = shared_automaton(item)
            assert first is second
            stats = compile_cache_stats()
            assert stats["automaton_hits"] >= 1
        finally:
            clear_compile_caches()


# ---------------------------------------------------------------------------
# kernel fast path
# ---------------------------------------------------------------------------


class TestKernelFastPath:
    def build(self, cycles=60):
        from repro.models.master_slave.scenario import MsScenarioSystem
        from repro.scenarios import sequence_for_profile

        system = MsScenarioSystem(
            1, 1, 2, sequence_for_profile("default"), seed=2005
        )
        system.run_cycles(cycles)
        return system

    def test_fast_path_dominates_plain_scenarios(self):
        system = self.build()
        stats = system.simulator.stats
        assert stats.fast_path_instants > 0
        assert stats.fast_path_instants > stats.full_path_instants

    def test_fast_path_preserves_results(self):
        fast = self.build()
        report = fast.check()
        assert report.ok

    def test_hooks_force_full_path(self):
        from repro.models.master_slave.scenario import MsScenarioSystem
        from repro.scenarios import sequence_for_profile

        system = MsScenarioSystem(
            1, 1, 2, sequence_for_profile("default"), seed=2005
        )
        system.simulator.on_delta.append(lambda sim: None)
        system.run_cycles(20)
        stats = system.simulator.stats
        assert stats.fast_path_instants == 0
        assert stats.full_path_instants > 0
