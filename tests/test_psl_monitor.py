"""Unit tests for the online assertion monitors."""

import pytest

from repro.psl import (
    BooleanInvariantMonitor,
    BooleanUntilMonitor,
    CoverMonitor,
    Directive,
    DirectiveKind,
    EventuallyMonitor,
    NeverSereMonitor,
    Property,
    ReplayMonitor,
    SereTracker,
    SuffixImplicationMonitor,
    Verdict,
    build_monitor,
    parse_formula,
    parse_sere,
    run_monitor,
)
from repro.psl.monitor import EPSILON, derivatives, nullable, _LetterView


def trace(*bits: str) -> list[dict]:
    names = "pqrabgd"
    return [{n: n in cycle for n in names} for cycle in bits]


def direct(cls, *args, **kwargs):
    """Instantiate a monitor class directly.

    These tests exercise the interpreted monitor classes on purpose;
    everything else goes through ``compile_properties``.
    """
    return cls(*args, **kwargs)


class TestDerivatives:
    def view(self, **letter):
        return _LetterView([letter])

    def test_bool_step(self):
        item = parse_sere("a")
        assert derivatives(item, self.view(a=True)) == frozenset({EPSILON})
        assert derivatives(item, self.view(a=False)) == frozenset()

    def test_concat_advances(self):
        item = parse_sere("a ; b")
        residuals = derivatives(item, self.view(a=True, b=False))
        assert residuals == frozenset({parse_sere("b")})

    def test_nullable(self):
        assert nullable(parse_sere("a[*]"))
        assert not nullable(parse_sere("a"))
        assert nullable(parse_sere("a[*0:2]"))
        assert not nullable(parse_sere("a[+]"))
        assert nullable(EPSILON)

    def test_repeat_derivative_decrements(self):
        item = parse_sere("a[*2]")
        (residual,) = derivatives(item, self.view(a=True))
        assert nullable(residual) is False  # one 'a' still required
        (residual2,) = derivatives(residual, self.view(a=True))
        assert nullable(residual2)

    def test_tracker_detects_match(self):
        tracker = SereTracker(parse_sere("a ; b"))
        state = tracker.start()
        state, matched = tracker.advance(state, _LetterView([{"a": True, "b": False}]))
        assert not matched
        state, matched = tracker.advance(state, _LetterView([{"a": False, "b": True}]))
        assert matched


class TestBooleanInvariantMonitor:
    def test_always_holds(self):
        monitor = direct(BooleanInvariantMonitor, parse_formula("p").expr, True, "inv")
        assert run_monitor(monitor, trace("p", "p")) is Verdict.HOLDS

    def test_always_fails_and_latches(self):
        monitor = direct(BooleanInvariantMonitor, parse_formula("p").expr, True, "inv")
        monitor.reset()
        monitor.step({"p": True})
        monitor.step({"p": False})
        assert monitor.verdict() is Verdict.FAILS
        assert monitor.failure_cycle == 1
        # verdicts latch: later good cycles do not recover
        monitor.step({"p": True})
        assert monitor.verdict() is Verdict.FAILS

    def test_never(self):
        monitor = direct(BooleanInvariantMonitor, parse_formula("q").expr, False, "nev")
        assert run_monitor(monitor, trace("p", "q")) is Verdict.FAILS


class TestSuffixImplicationMonitor:
    def build(self, text: str):
        return build_monitor(parse_formula(text), name=text)

    def test_simple_req_gnt(self):
        monitor = self.build("always {p} |=> {q}")
        assert run_monitor(monitor, trace("p", "q", "", "p", "q")) is Verdict.HOLDS
        assert run_monitor(monitor, trace("p", "")) is Verdict.FAILS

    def test_overlapping(self):
        monitor = self.build("always {p} |-> {q}")
        assert run_monitor(monitor, trace("pq")) is Verdict.HOLDS
        assert run_monitor(monitor, trace("p")) is Verdict.FAILS

    def test_triggered_counts_antecedent_matches(self):
        monitor = self.build("always {p} |=> {q}")
        run_monitor(monitor, trace("p", "pq", "q"))
        assert monitor.triggered == 2

    def test_sequence_antecedent(self):
        monitor = self.build("always {p ; p} |=> {q}")
        assert run_monitor(monitor, trace("p", "p", "q")) is Verdict.HOLDS
        assert run_monitor(monitor, trace("p", "p", "")) is Verdict.FAILS

    def test_windowed_consequent(self):
        monitor = self.build("always {p} |=> {(!q)[*0:2] ; q}")
        assert run_monitor(monitor, trace("p", "", "", "q")) is Verdict.HOLDS
        assert run_monitor(monitor, trace("p", "", "", "")) is Verdict.FAILS

    def test_strong_consequent_pending(self):
        monitor = self.build("always {p} |=> {q}!")
        verdict = run_monitor(monitor, trace("p"))
        assert verdict is Verdict.PENDING


class TestOtherMonitors:
    def test_never_sere(self):
        monitor = direct(NeverSereMonitor, parse_sere("q ; q"), "nosq")
        assert run_monitor(monitor, trace("q", "p", "q")) is Verdict.HOLDS
        assert run_monitor(monitor, trace("p", "q", "q")) is Verdict.FAILS

    def test_cover_counts_hits(self):
        monitor = direct(CoverMonitor, parse_sere("p ; q"), "cov")
        run_monitor(monitor, trace("p", "q", "p", "q"), stop_early=False)
        assert monitor.hits == 2
        assert monitor.verdict() is Verdict.HOLDS_STRONGLY

    def test_cover_uncovered_pending(self):
        monitor = direct(CoverMonitor, parse_sere("p ; q"), "cov")
        assert run_monitor(monitor, trace("p", "p")) is Verdict.PENDING

    def test_eventually(self):
        monitor = direct(EventuallyMonitor, parse_formula("p").expr, "ev")
        assert run_monitor(monitor, trace("", "")) is Verdict.PENDING
        assert run_monitor(monitor, trace("", "p")) is Verdict.HOLDS_STRONGLY

    def test_boolean_until(self):
        monitor = direct(
            BooleanUntilMonitor,
            parse_formula("p").expr, parse_formula("q").expr, strong=True,
        )
        assert run_monitor(monitor, trace("p", "pq")) is Verdict.HOLDS_STRONGLY
        assert run_monitor(monitor, trace("p", "p")) is Verdict.PENDING
        assert run_monitor(monitor, trace("", "q") [:1]) is Verdict.FAILS

    def test_replay_monitor_general(self):
        monitor = direct(ReplayMonitor, parse_formula("eventually! (p && next q)"), "rp")
        assert run_monitor(monitor, trace("", "p", "q")) is Verdict.HOLDS_STRONGLY


class TestBuilder:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("always p", BooleanInvariantMonitor),
            ("never p", BooleanInvariantMonitor),
            ("always !p", BooleanInvariantMonitor),
            ("always {p} |=> {q}", SuffixImplicationMonitor),
            ("always (p -> next[2] q)", SuffixImplicationMonitor),
            ("never {p ; q}", NeverSereMonitor),
            ("eventually! p", EventuallyMonitor),
            ("p until! q", BooleanUntilMonitor),
            ("always (p -> eventually! q)", ReplayMonitor),
        ],
    )
    def test_strategy_selection(self, text, expected):
        monitor = build_monitor(parse_formula(text))
        assert isinstance(monitor, expected)

    def test_cover_directive_builds_cover_monitor(self):
        directive = Directive(
            DirectiveKind.COVER, Property("c", parse_formula("{p ; q}"))
        )
        assert isinstance(build_monitor(directive), CoverMonitor)

    def test_property_report_carried(self):
        prop = Property("named", parse_formula("always p"), report="p must hold")
        monitor = build_monitor(prop)
        monitor.reset()
        monitor.step({"p": False})
        assert monitor.report().message == "p must hold"

    def test_monitor_report_lists_variables(self):
        monitor = build_monitor(parse_formula("always (p -> q)"))
        monitor.reset()
        monitor.step({"p": True, "q": False})
        assert set(monitor.report().watched) == {"p", "q"}


class TestSnapshotRestore:
    def test_suffix_monitor_roundtrip(self):
        monitor = build_monitor(parse_formula("always {p ; p} |=> {q}"))
        monitor.reset()
        monitor.step({"p": True, "q": False})
        snap = monitor.snapshot()
        monitor.step({"p": True, "q": False})
        monitor.step({"p": False, "q": False})  # obligation fails
        assert monitor.verdict() is Verdict.FAILS
        monitor.restore(snap)
        assert monitor.verdict() is not Verdict.FAILS
        # replaying the good path after restore succeeds
        monitor.step({"p": True, "q": False})
        monitor.step({"p": False, "q": True})
        assert monitor.verdict() is not Verdict.FAILS

    def test_snapshots_hashable(self):
        for text in ("always p", "always {p} |=> {q}", "never {p ; q}",
                     "eventually! p", "p until! q"):
            monitor = build_monitor(parse_formula(text))
            monitor.reset()
            monitor.step({"p": True, "q": False})
            hash(monitor.snapshot())
