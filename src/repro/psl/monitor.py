"""Executable assertion monitors.

The paper compiles each PSL property (embedded in ASM) into a C# class
that runs next to the SystemC simulation as an *assertion monitor*
(Section 3.2).  This module is the executable equivalent: a monitor
consumes the design state cycle by cycle and maintains a four-valued
:class:`~repro.psl.semantics.Verdict`.

Two implementation strategies:

* **Incremental monitors** -- for the safety-shaped properties that
  dominate bus protocols (``always``/``never`` over booleans, SERE
  suffix implications, ``eventually!``/``until`` over booleans, SERE
  coverage).  These track Brzozowski-style *derivative residual sets*
  of the SEREs involved, so a step costs O(|residuals|) regardless of
  trace length -- essential for the paper's million-cycle simulations
  -- and their internal state is compact and hashable, which lets the
  FSM explorer embed it into state keys (the paper's "property
  embedded in every state").

* **ReplayMonitor** -- the general fallback: it records the trace and
  re-evaluates the full four-valued semantics each cycle.  Exact for
  every formula, at O(n) memory and O(n^2) total time; used for short
  traces and as the differential-testing oracle for the incremental
  monitors.

:func:`build_monitor` picks the best strategy automatically.
"""

from __future__ import annotations

import threading
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter as _perf_counter
from typing import Any, Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from ..obs.runtime import OBS
from .ast_nodes import (
    Const,
    Directive,
    DirectiveKind,
    EvalContext,
    Expr,
    FlAlways,
    FlBool,
    FlEventually,
    FlImplies,
    FlNever,
    FlNext,
    FlNextA,
    FlNextE,
    FlNot,
    FlSere,
    FlSuffixImpl,
    FlUntil,
    Formula,
    Func,
    Not,
    Property,
    Sere,
    SereAnd,
    SereBool,
    SereConcat,
    SereFusion,
    SereOr,
    SereRepeat,
    TRUE,
)
from .codegen import bool_function
from .errors import PslUnsupportedError
from .letter import FrozenLetter, freeze_letter
from .semantics import Evaluator, Verdict
from .sere import desugar

Letter = Mapping[str, Any]

#: The empty-word SERE (epsilon): zero repetitions of anything.
EPSILON = SereRepeat(SereBool(TRUE), 0, 0)


# ---------------------------------------------------------------------------
# History depth: how many past letters boolean built-ins need
# ---------------------------------------------------------------------------


def history_depth(expression: Expr) -> int:
    """Past-cycle window the expression's built-ins require."""
    if isinstance(expression, Func):
        inner = max((history_depth(a) for a in expression.args), default=0)
        if expression.name == "prev":
            depth = 1
            if len(expression.args) == 2 and isinstance(expression.args[1], Const):
                depth = int(expression.args[1].value)
            return inner + depth
        if expression.name in ("rose", "fell", "stable"):
            return inner + 1
        if expression.name == "next":
            raise PslUnsupportedError(
                "next() needs lookahead and cannot run in an online monitor"
            )
        return inner
    children = [
        getattr(expression, name)
        for name in ("operand", "left", "right", "base", "index")
        if hasattr(expression, name)
    ]
    if hasattr(expression, "args"):
        children.extend(expression.args)
    return max((history_depth(c) for c in children if isinstance(c, Expr)), default=0)


def sere_history_depth(item: Sere) -> int:
    if isinstance(item, SereBool):
        return history_depth(item.expr)
    if isinstance(item, SereConcat):
        return max((sere_history_depth(p) for p in item.parts), default=0)
    if isinstance(item, (SereFusion, SereOr, SereAnd)):
        return max(sere_history_depth(item.left), sere_history_depth(item.right))
    if isinstance(item, SereRepeat):
        return sere_history_depth(item.body)
    return sere_history_depth(desugar(item))


# ---------------------------------------------------------------------------
# Derivative machinery
# ---------------------------------------------------------------------------


#: nullable() is called once per residual per cycle; memoize globally
#: (SEREs are immutable).
_NULLABLE_CACHE: Dict[Sere, bool] = {}


def nullable(item: Sere) -> bool:
    """Can the SERE match the empty word?"""
    cached = _NULLABLE_CACHE.get(item)
    if cached is not None:
        return cached
    result = _compute_nullable(item)
    _NULLABLE_CACHE[item] = result
    return result


def _compute_nullable(item: Sere) -> bool:
    item = desugar(item)
    if isinstance(item, SereBool):
        return False
    if isinstance(item, SereConcat):
        return all(nullable(p) for p in item.parts)
    if isinstance(item, SereFusion):
        return False  # both sides non-empty, sharing one letter
    if isinstance(item, SereOr):
        return nullable(item.left) or nullable(item.right)
    if isinstance(item, SereAnd):
        return nullable(item.left) and nullable(item.right)
    if isinstance(item, SereRepeat):
        return item.low == 0 or nullable(item.body)
    raise TypeError(f"unknown SERE node {type(item).__name__}")


def _concat(head: Sere, tail: Sere) -> Sere:
    """Smart concatenation dropping epsilons."""
    if head == EPSILON:
        return tail
    if tail == EPSILON:
        return head
    head_parts = head.parts if isinstance(head, SereConcat) else (head,)
    tail_parts = tail.parts if isinstance(tail, SereConcat) else (tail,)
    return SereConcat(head_parts + tail_parts)


class _LetterView:
    """Evaluation window: current letter plus bounded history.

    ``holds`` memoizes per view (i.e. per letter): a derivative step
    asks about the same atom once per residual containing it, so
    shared subexpressions evaluate once per cycle, not once per
    residual-set member.  Atoms evaluate through the generated
    per-expression functions of :mod:`repro.psl.codegen`.
    """

    __slots__ = ("history", "_memo")

    def __init__(self, history: Sequence[Letter]):
        self.history = history
        self._memo: Dict[Expr, bool] = {}

    def holds(self, expression: Expr) -> bool:
        value = self._memo.get(expression)
        if value is None:
            value = bool(bool_function(expression)(self.history))
            self._memo[expression] = value
        return value


def derivatives(item: Sere, view: _LetterView) -> FrozenSet[Sere]:
    """Residual SEREs after consuming the current letter."""
    item = desugar(item)
    if isinstance(item, SereBool):
        if view.holds(item.expr):
            return frozenset({EPSILON})
        return frozenset()
    if isinstance(item, SereConcat):
        head, tail = item.parts[0], item.parts[1:]
        rest: Sere = (
            EPSILON
            if not tail
            else (tail[0] if len(tail) == 1 else SereConcat(tail))
        )
        result = {
            _concat(d, rest) for d in derivatives(head, view)
        }
        if nullable(head):
            result |= set(derivatives(rest, view))
        return frozenset(result)
    if isinstance(item, SereFusion):
        result: set[Sere] = set()
        left_derivs = derivatives(item.left, view)
        for d in left_derivs:
            if d != EPSILON:
                # The left match continues past this letter.
                result.add(SereFusion(d, item.right))
        if any(nullable(d) for d in left_derivs):
            # The left match can end exactly here, so the right side
            # starts on this very letter (the fusion overlap).
            result |= set(derivatives(item.right, view))
        return frozenset(result)
    if isinstance(item, SereOr):
        return derivatives(item.left, view) | derivatives(item.right, view)
    if isinstance(item, SereAnd):
        if not item.length_matching:
            # r1 & r2  ==  (r1 && {r2;true[*]}) | ({r1;true[*]} && r2)
            padded_left = _concat(item.left, SereRepeat(SereBool(TRUE), 0, None))
            padded_right = _concat(item.right, SereRepeat(SereBool(TRUE), 0, None))
            rewritten = SereOr(
                SereAnd(item.left, padded_right, length_matching=True),
                SereAnd(padded_left, item.right, length_matching=True),
            )
            return derivatives(rewritten, view)
        result = set()
        for dl in derivatives(item.left, view):
            for dr in derivatives(item.right, view):
                if dl == EPSILON and dr == EPSILON:
                    result.add(EPSILON)
                else:
                    result.add(SereAnd(dl, dr, length_matching=True))
        return frozenset(result)
    if isinstance(item, SereRepeat):
        low, high = item.low, item.high
        if high is not None and high == 0:
            return frozenset()
        if nullable(item.body):
            low = 0  # empty body iterations satisfy any lower bound
        next_high = None if high is None else high - 1
        next_low = max(low - 1, 0)
        rest = SereRepeat(item.body, next_low, next_high)
        result = set()
        for d in derivatives(item.body, view):
            result.add(_concat(d, rest))
        return frozenset(result)
    raise TypeError(f"unknown SERE node {type(item).__name__}")


class SereTracker:
    """Tracks all in-flight matches of one SERE, one anchor at a time.

    ``advance`` consumes the next letter for an existing residual set;
    ``start`` returns the initial residual set for a match anchored at
    the current cycle.  A completed match is signalled by a nullable
    residual.
    """

    #: Safety valve: residual sets beyond this size indicate a SERE the
    #: derivative engine cannot track compactly.
    MAX_RESIDUALS = 512

    def __init__(self, item: Sere):
        self.sere = desugar(item)
        self.depth = sere_history_depth(self.sere)

    def start(self) -> FrozenSet[Sere]:
        return frozenset({self.sere})

    def advance(
        self, residuals: FrozenSet[Sere], view: _LetterView
    ) -> Tuple[FrozenSet[Sere], bool]:
        """Returns ``(new_residuals, match_completed_now)``."""
        result: set[Sere] = set()
        for residual in residuals:
            result |= derivatives(residual, view)
        if len(result) > self.MAX_RESIDUALS:
            raise PslUnsupportedError(
                f"SERE residual set exceeded {self.MAX_RESIDUALS} terms; "
                f"use the ReplayMonitor for this property"
            )
        matched = any(nullable(r) for r in result)
        return frozenset(result), matched


# ---------------------------------------------------------------------------
# Monitor base
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonitorReport:
    """Status record a monitor can emit (paper: "write a report about
    the assertion status and all its variables")."""

    name: str
    verdict: Verdict
    cycle: int
    message: str = ""
    watched: Tuple[str, ...] = ()

    def __str__(self) -> str:
        text = f"[{self.verdict.value}] {self.name} @ cycle {self.cycle}"
        if self.message:
            text += f": {self.message}"
        return text


#: Thread-local nesting depth of sanctioned monitor construction.
#: Non-zero inside :func:`build_monitor` / ``compile_properties``;
#: zero depth at ``Monitor.__init__`` means a direct instantiation,
#: which is deprecated (mirroring the DesignFlow -> Workbench shim).
_SANCTION = threading.local()


def _sanction_depth() -> int:
    return getattr(_SANCTION, "depth", 0)


@contextmanager
def _sanctioned_construction():
    """Mark monitor construction as coming from a blessed factory."""
    _SANCTION.depth = _sanction_depth() + 1
    try:
        yield
    finally:
        _SANCTION.depth -= 1


class Monitor:
    """Base class: consume letters, maintain a verdict."""

    #: Definite verdicts latch (assertion semantics).  Cover monitors
    #: override this to keep counting hits after the goal is reached.
    latch_definite = True

    #: Which stepping engine backs this monitor ("interpreted" here;
    #: "compiled" for the table-driven classes in ``psl.compiled``).
    engine = "interpreted"

    #: Cover directives report coverage, not failure; the ABV harness
    #: keys off this instead of concrete classes so both engines work.
    is_cover = False

    def __init__(self, name: str, report: str = ""):
        if _sanction_depth() == 0:
            warnings.warn(
                "direct Monitor construction is deprecated; build monitors "
                "through repro.psl.compile_properties()",
                DeprecationWarning,
                stacklevel=3,
            )
        self.name = name
        self.report_message = report
        self.cycle = -1
        self._verdict = Verdict.HOLDS
        self.failure_cycle: Optional[int] = None
        #: observability accumulators (attributed per property by the
        #: ABV harness at finish time; zero-cost unless OBS is enabled)
        self.steps_traced = 0
        self.step_seconds = 0.0

    # -- protocol ---------------------------------------------------------

    def reset(self) -> None:
        self.cycle = -1
        self._verdict = Verdict.HOLDS
        self.failure_cycle = None
        self.steps_traced = 0
        self.step_seconds = 0.0

    def step(self, letter: Letter) -> Verdict:
        """Consume one cycle of design state; return the running verdict."""
        self.cycle += 1
        if self.latch_definite and self._verdict.is_definite:
            return self._verdict
        if OBS.enabled:
            started = _perf_counter()
            self._verdict = self._advance(letter)
            self.step_seconds += _perf_counter() - started
            self.steps_traced += 1
        else:
            self._verdict = self._advance(letter)
        if self._verdict is Verdict.FAILS and self.failure_cycle is None:
            self.failure_cycle = self.cycle
        return self._verdict

    def verdict(self) -> Verdict:
        return self._verdict

    def report(self) -> MonitorReport:
        return MonitorReport(
            name=self.name,
            verdict=self._verdict,
            cycle=self.cycle,
            message=self.report_message if self._verdict is Verdict.FAILS else "",
            watched=tuple(sorted(self.variables())),
        )

    def variables(self) -> frozenset[str]:
        return frozenset()

    # -- exploration support (StateProperty protocol) -------------------------

    def snapshot(self) -> Any:
        raise NotImplementedError

    def restore(self, snap: Any) -> None:
        raise NotImplementedError

    def _advance(self, letter: Letter) -> Verdict:
        raise NotImplementedError


class _HistoryMixin:
    """Bounded history window shared by the incremental monitors.

    Letters arriving as :class:`FrozenLetter` are stored by reference
    (cheap, shared across monitors); plain dicts are defensively
    frozen.  Snapshots are therefore tuples of hashable letters.
    """

    def _init_history(self, depth: int) -> None:
        self._depth = depth
        self._history: List[Letter] = []

    def _push(self, letter: Letter) -> _LetterView:
        self._history.append(freeze_letter(letter))
        if len(self._history) > self._depth + 1:
            self._history.pop(0)
        return _LetterView(self._history)

    def _history_snapshot(self) -> tuple:
        return tuple(self._history)

    def _history_restore(self, snap: tuple) -> None:
        self._history = list(snap)


# ---------------------------------------------------------------------------
# Incremental monitors
# ---------------------------------------------------------------------------


class BooleanInvariantMonitor(Monitor, _HistoryMixin):
    """``always b`` (expect=True) or ``never b`` (expect=False)."""

    def __init__(self, expression: Expr, expect: bool, name: str, report: str = ""):
        super().__init__(name, report)
        self.expression = expression
        self.expect = expect
        self._init_history(history_depth(expression))

    def reset(self) -> None:
        super().reset()
        self._history = []

    def _advance(self, letter: Letter) -> Verdict:
        view = self._push(letter)
        if view.holds(self.expression) != self.expect:
            return Verdict.FAILS
        return Verdict.HOLDS

    def variables(self) -> frozenset[str]:
        return self.expression.variables()

    def snapshot(self) -> Any:
        return (self._verdict, self._history_snapshot())

    def restore(self, snap: Any) -> None:
        self._verdict, history = snap
        self._history_restore(history)


class SuffixImplicationMonitor(Monitor, _HistoryMixin):
    """``always {r} |->/|=> {s}`` with derivative-tracked obligations.

    Every cycle anchors a fresh antecedent attempt (the ``always``);
    each completed antecedent match spawns a consequent obligation.  An
    obligation whose residual set dies without having matched fails the
    assertion.  ``strong_consequent`` marks unfinished obligations at
    end of trace as PENDING rather than HOLDS.
    """

    def __init__(
        self,
        antecedent: Sere,
        consequent: Sere,
        *,
        overlapping: bool,
        strong_consequent: bool = False,
        name: str = "suffix_implication",
        report: str = "",
    ):
        super().__init__(name, report)
        self.antecedent_tracker = SereTracker(antecedent)
        self.consequent_tracker = SereTracker(consequent)
        self.overlapping = overlapping
        self.strong_consequent = strong_consequent
        self._antecedent_sets: FrozenSet[FrozenSet[Sere]] = frozenset()
        self._obligations: FrozenSet[FrozenSet[Sere]] = frozenset()
        #: obligations created this cycle that start consuming next cycle
        self._fresh_obligations: FrozenSet[FrozenSet[Sere]] = frozenset()
        depth = max(
            self.antecedent_tracker.depth, self.consequent_tracker.depth
        )
        self._init_history(depth)
        self.triggered = 0  # completed antecedent matches (activity metric)

    def reset(self) -> None:
        super().reset()
        self._antecedent_sets = frozenset()
        self._obligations = frozenset()
        self._fresh_obligations = frozenset()
        self._history = []
        self.triggered = 0

    def variables(self) -> frozenset[str]:
        return self.antecedent_tracker.sere.variables() | (
            self.consequent_tracker.sere.variables()
        )

    def _advance(self, letter: Letter) -> Verdict:
        view = self._push(letter)

        # 1. advance antecedent attempts (plus a fresh anchor at this cycle)
        attempts = set(self._antecedent_sets)
        attempts.add(self.antecedent_tracker.start())
        new_attempts: set[FrozenSet[Sere]] = set()
        matched_now = False
        for attempt in attempts:
            residuals, matched = self.antecedent_tracker.advance(attempt, view)
            if matched:
                matched_now = True
            if residuals:
                new_attempts.add(residuals)
        self._antecedent_sets = frozenset(new_attempts)

        # 2. advance outstanding obligations (those spawned before this cycle)
        live: set[FrozenSet[Sere]] = set()
        failed = False
        pending_obligations = set(self._obligations) | set(self._fresh_obligations)
        self._fresh_obligations = frozenset()
        for obligation in pending_obligations:
            residuals, matched = self.consequent_tracker.advance(obligation, view)
            if matched:
                continue  # discharged
            if not residuals:
                failed = True
                continue
            live.add(residuals)

        # 3. a completed antecedent spawns a consequent obligation
        if matched_now:
            self.triggered += 1
            start = self.consequent_tracker.start()
            if self.overlapping:
                # |->: the consequent's first letter is the match's last
                # letter, i.e. the current one: consume it immediately.
                residuals, matched = self.consequent_tracker.advance(start, view)
                if not matched:
                    if not residuals:
                        failed = True
                    else:
                        live.add(residuals)
            else:
                # |=>: the consequent starts next cycle.
                self._fresh_obligations = frozenset({start})

        self._obligations = frozenset(live)
        if failed:
            return Verdict.FAILS
        if (self._obligations or self._fresh_obligations) and self.strong_consequent:
            return Verdict.PENDING
        return Verdict.HOLDS

    def snapshot(self) -> Any:
        # ``triggered`` is a running statistic, not semantic monitor
        # state; keeping it out of the snapshot lets the explorer merge
        # states reached along different paths.
        return (
            self._verdict,
            self._antecedent_sets,
            self._obligations,
            self._fresh_obligations,
            self._history_snapshot(),
        )

    def restore(self, snap: Any) -> None:
        (
            self._verdict,
            self._antecedent_sets,
            self._obligations,
            self._fresh_obligations,
            history,
        ) = snap
        self._history_restore(history)


class NeverSereMonitor(Monitor, _HistoryMixin):
    """``never {r}``: no tight match of r may ever complete."""

    def __init__(self, item: Sere, name: str = "never_sere", report: str = ""):
        super().__init__(name, report)
        self.tracker = SereTracker(item)
        self._attempts: FrozenSet[FrozenSet[Sere]] = frozenset()
        self._init_history(self.tracker.depth)

    def reset(self) -> None:
        super().reset()
        self._attempts = frozenset()
        self._history = []

    def variables(self) -> frozenset[str]:
        return self.tracker.sere.variables()

    def _advance(self, letter: Letter) -> Verdict:
        view = self._push(letter)
        attempts = set(self._attempts)
        attempts.add(self.tracker.start())
        survivors: set[FrozenSet[Sere]] = set()
        for attempt in attempts:
            residuals, matched = self.tracker.advance(attempt, view)
            if matched:
                return Verdict.FAILS
            if residuals:
                survivors.add(residuals)
        self._attempts = frozenset(survivors)
        return Verdict.HOLDS

    def snapshot(self) -> Any:
        return (self._verdict, self._attempts, self._history_snapshot())

    def restore(self, snap: Any) -> None:
        self._verdict, self._attempts, history = snap
        self._history_restore(history)


class CoverMonitor(Monitor, _HistoryMixin):
    """``cover {r}``: counts completed matches; FAILS only at finish()
    time if nothing was ever covered."""

    latch_definite = False  # keep counting after the first hit
    is_cover = True

    def __init__(self, item: Sere, name: str = "cover", report: str = ""):
        super().__init__(name, report)
        self.tracker = SereTracker(item)
        self._attempts: FrozenSet[FrozenSet[Sere]] = frozenset()
        self.hits = 0
        self._init_history(self.tracker.depth)

    def reset(self) -> None:
        super().reset()
        self._attempts = frozenset()
        self._history = []
        self.hits = 0

    def variables(self) -> frozenset[str]:
        return self.tracker.sere.variables()

    def _advance(self, letter: Letter) -> Verdict:
        view = self._push(letter)
        attempts = set(self._attempts)
        attempts.add(self.tracker.start())
        survivors: set[FrozenSet[Sere]] = set()
        for attempt in attempts:
            residuals, matched = self.tracker.advance(attempt, view)
            if matched:
                self.hits += 1
            if residuals:
                survivors.add(residuals)
        self._attempts = frozenset(survivors)
        return Verdict.HOLDS_STRONGLY if self.hits else Verdict.PENDING

    def snapshot(self) -> Any:
        # ``hits`` stays out: it is a statistic, and a covered/uncovered
        # bit is what distinguishes monitor states semantically.
        return (
            self._verdict,
            self._attempts,
            self.hits > 0,
            self._history_snapshot(),
        )

    def restore(self, snap: Any) -> None:
        self._verdict, self._attempts, covered, history = snap
        if covered and self.hits == 0:
            self.hits = 1
        self._history_restore(history)


class EventuallyMonitor(Monitor, _HistoryMixin):
    """``eventually! b``: PENDING until b holds once."""

    def __init__(self, expression: Expr, name: str = "eventually", report: str = ""):
        super().__init__(name, report)
        self.expression = expression
        self._init_history(history_depth(expression))
        self._verdict = Verdict.PENDING

    def reset(self) -> None:
        super().reset()
        self._verdict = Verdict.PENDING
        self._history = []

    def variables(self) -> frozenset[str]:
        return self.expression.variables()

    def _advance(self, letter: Letter) -> Verdict:
        view = self._push(letter)
        if view.holds(self.expression):
            return Verdict.HOLDS_STRONGLY
        return Verdict.PENDING

    def snapshot(self) -> Any:
        return (self._verdict, self._history_snapshot())

    def restore(self, snap: Any) -> None:
        self._verdict, history = snap
        self._history_restore(history)


class BooleanUntilMonitor(Monitor, _HistoryMixin):
    """``a until b`` / ``a until! b`` over boolean operands."""

    def __init__(
        self,
        left: Expr,
        right: Expr,
        *,
        strong: bool,
        inclusive: bool = False,
        name: str = "until",
        report: str = "",
    ):
        super().__init__(name, report)
        self.left = left
        self.right = right
        self.strong = strong
        self.inclusive = inclusive
        self._released = False
        depth = max(history_depth(left), history_depth(right))
        self._init_history(depth)
        self._verdict = Verdict.PENDING if strong else Verdict.HOLDS

    def reset(self) -> None:
        super().reset()
        self._released = False
        self._verdict = Verdict.PENDING if self.strong else Verdict.HOLDS
        self._history = []

    def variables(self) -> frozenset[str]:
        return self.left.variables() | self.right.variables()

    def _advance(self, letter: Letter) -> Verdict:
        if self._released:
            return self._verdict
        view = self._push(letter)
        release = view.holds(self.right)
        if release and (not self.inclusive or view.holds(self.left)):
            self._released = True
            return Verdict.HOLDS_STRONGLY
        if not view.holds(self.left):
            return Verdict.FAILS
        return Verdict.PENDING if self.strong else Verdict.HOLDS

    def snapshot(self) -> Any:
        return (self._verdict, self._released, self._history_snapshot())

    def restore(self, snap: Any) -> None:
        self._verdict, self._released, history = snap
        self._history_restore(history)


# ---------------------------------------------------------------------------
# Replay monitor (general fallback + differential-testing oracle)
# ---------------------------------------------------------------------------


class ReplayMonitor(Monitor):
    """Exact but O(trace) memory: re-evaluates the full semantics."""

    def __init__(self, formula: Formula, name: str = "replay", report: str = ""):
        super().__init__(name, report)
        self.formula = formula
        self._trace: List[Letter] = []

    def reset(self) -> None:
        super().reset()
        self._trace = []

    def variables(self) -> frozenset[str]:
        return self.formula.variables()

    def _advance(self, letter: Letter) -> Verdict:
        self._trace.append(freeze_letter(letter))
        return Evaluator(self._trace).verdict(self.formula)

    def snapshot(self) -> Any:
        return (self._verdict, tuple(self._trace))

    def restore(self, snap: Any) -> None:
        self._verdict, trace = snap
        self._trace = list(trace)


# ---------------------------------------------------------------------------
# Builder
# ---------------------------------------------------------------------------


def _as_sere(formula: Formula) -> Optional[Sere]:
    """View a consequent formula as a SERE when possible."""
    if isinstance(formula, FlSere):
        return formula.sere
    if isinstance(formula, FlBool):
        return SereBool(formula.expr)
    if isinstance(formula, FlNext) and isinstance(formula.operand, FlBool):
        # next[k] b  ==  {true[*k] ; b} as a |->-anchored SERE
        return SereConcat(
            (SereRepeat(SereBool(TRUE), formula.count, formula.count),
             SereBool(formula.operand.expr))
        )
    if isinstance(formula, FlNextE) and isinstance(formula.operand, FlBool):
        # next_e[l:h] b  ==  {true[*l+1:h+1] : b} (fusion pins b in window)
        return SereFusion(
            SereRepeat(SereBool(TRUE), formula.low + 1, formula.high + 1),
            SereBool(formula.operand.expr),
        )
    if isinstance(formula, FlNextA) and isinstance(formula.operand, FlBool):
        # next_a[l:h] b  ==  {true[*l] ; b[*h-l+1]}
        return SereConcat(
            (SereRepeat(SereBool(TRUE), formula.low, formula.low),
             SereRepeat(SereBool(formula.operand.expr),
                        formula.high - formula.low + 1,
                        formula.high - formula.low + 1))
        )
    return None


def _consequent_is_strong(formula: Formula) -> bool:
    if isinstance(formula, FlSere):
        return formula.strong
    if isinstance(formula, (FlNext, FlNextE, FlNextA)):
        return formula.strong
    return False


def build_monitor(
    source: Property | Directive | Formula,
    name: str | None = None,
) -> Monitor:
    """Compile a property into the most efficient applicable monitor.

    ``cover`` directives build a :class:`CoverMonitor`; everything else
    is matched against the incremental patterns and falls back to
    :class:`ReplayMonitor`.
    """
    report = ""
    kind = DirectiveKind.ASSERT
    if isinstance(source, Directive):
        kind = source.kind
        report = source.prop.report
        formula = source.prop.formula
        name = name or source.prop.name
    elif isinstance(source, Property):
        formula = source.formula
        report = source.report
        name = name or source.name
    else:
        formula = source
        name = name or "property"

    with _sanctioned_construction():
        if kind == DirectiveKind.COVER:
            target = formula
            if isinstance(target, FlEventually):
                target = target.operand
            if isinstance(target, FlSere):
                return CoverMonitor(target.sere, name=name, report=report)
            if isinstance(target, FlBool):
                return CoverMonitor(SereBool(target.expr), name=name, report=report)
            return ReplayMonitor(formula, name=name, report=report)

        monitor = _match_incremental(formula, name, report)
        if monitor is not None:
            return monitor
        return ReplayMonitor(formula, name=name, report=report)


def _match_incremental(
    formula: Formula, name: str, report: str
) -> Optional[Monitor]:
    if isinstance(formula, FlAlways):
        body = formula.operand
        if isinstance(body, FlBool):
            return BooleanInvariantMonitor(body.expr, True, name, report)
        if isinstance(body, FlNot) and isinstance(body.operand, FlBool):
            return BooleanInvariantMonitor(body.operand.expr, False, name, report)
        if isinstance(body, FlSuffixImpl):
            consequent = _as_sere(body.consequent)
            if consequent is not None:
                return SuffixImplicationMonitor(
                    body.antecedent,
                    consequent,
                    overlapping=body.overlapping,
                    strong_consequent=_consequent_is_strong(body.consequent),
                    name=name,
                    report=report,
                )
        if isinstance(body, FlImplies) and isinstance(body.left, FlBool):
            consequent = _as_sere(body.right)
            if consequent is not None:
                # always (b -> f)  ==  always {b} |-> {consequent-as-sere}
                return SuffixImplicationMonitor(
                    SereBool(body.left.expr),
                    consequent,
                    overlapping=True,
                    strong_consequent=_consequent_is_strong(body.right),
                    name=name,
                    report=report,
                )
    if isinstance(formula, FlNever):
        body = formula.operand
        if isinstance(body, FlBool):
            return BooleanInvariantMonitor(body.expr, False, name, report)
        if isinstance(body, FlSere):
            return NeverSereMonitor(body.sere, name=name, report=report)
    if isinstance(formula, FlEventually) and isinstance(formula.operand, FlBool):
        return EventuallyMonitor(formula.operand.expr, name=name, report=report)
    if isinstance(formula, FlUntil):
        if isinstance(formula.left, FlBool) and isinstance(formula.right, FlBool):
            return BooleanUntilMonitor(
                formula.left.expr,
                formula.right.expr,
                strong=formula.strong,
                inclusive=formula.inclusive,
                name=name,
                report=report,
            )
    return None


def run_monitor(
    monitor: Monitor, trace: Sequence[Letter], stop_early: bool = True
) -> Verdict:
    """Feed an entire trace through a monitor; returns the final verdict.

    ``stop_early`` skips the remaining letters once the verdict is
    definite; pass False to keep statistics (e.g. cover hits) exact.
    """
    monitor.reset()
    last = monitor.verdict()
    for letter in trace:
        last = monitor.step(letter)
        if stop_early and last.is_definite:
            break
    return monitor.verdict()
