"""Compiled assertion monitors: fused, generated property sets.

:mod:`repro.psl.monitor` interprets Brzozowski derivative sets
symbolically every cycle: each ``step()`` re-walks the SERE AST,
allocates fresh residual ``frozenset``s and hashes structural SERE
nodes.  That is exact but slow, and it repeats identical work for
every scenario in a regression (same properties x thousands of seeds).

This module lowers the properties of one :func:`compile_properties`
call into one :class:`FusedPropertySet`.  Each cycle the set

* freezes the letter once and pushes it into one history window sized
  to the set's deepest property;
* evaluates the union of the set's Boolean atoms once, as straight-line
  Python generated by :mod:`repro.psl.codegen` with every signal read
  hoisted into a local;
* advances every property in the same generated function: invariants,
  ``eventually!`` and ``until`` are inline compares; SERE, cover and
  suffix-implication members look their next state up in shared
  :class:`SereAutomaton` tables (lazily filled by running the
  interpreted :func:`~repro.psl.monitor.derivatives` over a symbolic
  letter, so both engines agree by construction), with the common
  "only the start state is live" cycle inlined.  One-letter SERE
  operands (``{b}``) skip the table and compare inline too.

Set state is one flat list; the members returned to the caller are
:class:`CompiledProperty` views over their slice of it, keeping the
:class:`~repro.psl.monitor.Monitor` protocol (``verdict``, ``report``,
``cycle``, ``snapshot``/``restore``).  A member's own ``step()`` (and
``reset``/``restore``) first splits it into a singleton set, run
through the same generator.

Generated step functions are memoized process-wide per (property-set
key, binding), beside the per-property plans and the shared automata,
so a regression generates code once per distinct suite.  Cache
hit/miss counts are surfaced through ``OBS.metrics`` as
``psl.compile.cache`` / ``psl.compile.automaton`` counters and through
:func:`compile_cache_stats` for the worker ``/healthz`` endpoint.

:func:`compile_properties` is the public construction path for *all*
monitors (both engines); the ``lint.monitor-construction`` repo rule
flags direct ``Monitor`` subclass instantiation outside this package.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from time import perf_counter as _perf_counter
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..obs.runtime import OBS
from .ast_nodes import (
    Const,
    Directive,
    DirectiveKind,
    Expr,
    FlAlways,
    FlBool,
    FlEventually,
    FlImplies,
    FlNever,
    FlNot,
    FlSere,
    FlSuffixImpl,
    FlUntil,
    Formula,
    Property,
    Sere,
    SereAnd,
    SereBool,
    SereConcat,
    SereFusion,
    SereOr,
    SereRepeat,
    TRUE,
    Var,
)
from .codegen import Lowering, Unsupported, bool_function, define
from .errors import PslParseError, PslUnsupportedError
from .letter import freeze_letter
from .monitor import (
    Monitor,
    SereTracker,
    _as_sere,
    _consequent_is_strong,
    build_monitor,
    derivatives,
    history_depth,
    nullable,
    sere_history_depth,
)
from .semantics import Verdict
from .sere import desugar

Letter = Mapping[str, Any]

#: Engine names accepted by :func:`compile_properties`.
ENGINES = ("compiled", "interpreted")

#: Environment variable overriding the default engine (inherited by
#: worker subprocesses, so one switch flips a whole fleet).
ENGINE_ENV_VAR = "REPRO_PSL_ENGINE"

_DEFAULT_ENGINE = "compiled"


def default_engine() -> str:
    """Engine used when ``compile_properties(engine=None)``.

    ``REPRO_PSL_ENGINE`` (if set) wins over the process default so a
    regression fleet can be flipped without touching wire forms.
    """
    env = os.environ.get(ENGINE_ENV_VAR)
    if env:
        return _validate_engine(env)
    return _DEFAULT_ENGINE


def set_default_engine(engine: str) -> str:
    """Set the process default engine; returns the previous default."""
    global _DEFAULT_ENGINE
    previous = _DEFAULT_ENGINE
    _DEFAULT_ENGINE = _validate_engine(engine)
    return previous


def _validate_engine(engine: str) -> str:
    if engine not in ENGINES:
        raise ValueError(
            f"unknown PSL engine {engine!r}; expected one of {ENGINES}"
        )
    return engine


# ---------------------------------------------------------------------------
# Symbolic letters: drive the interpreted derivative engine over a
# truth assignment instead of a concrete letter
# ---------------------------------------------------------------------------


class _SymbolicView:
    """Letter view answering ``holds`` from a fixed truth assignment.

    Used while filling transition-table cells: the cell's symbol fixes
    the truth of every atom, so :func:`~repro.psl.monitor.derivatives`
    runs unchanged over this view.  Meeting an expression outside the
    collected atom set means atom collection missed a reachable
    ``SereBool`` -- surfaced as unsupported rather than mis-evaluated.
    """

    __slots__ = ("_truth",)

    def __init__(self, truth: Dict[Expr, bool]):
        self._truth = truth

    def holds(self, expression: Expr) -> bool:
        value = self._truth.get(expression)
        if value is None:
            raise PslUnsupportedError(
                f"expression {expression} escaped atom collection; "
                f"cannot compile this SERE to an automaton"
            )
        return value


def _collect_atoms(item: Sere, out: Dict[Expr, None]) -> None:
    """Ordered-set walk of every Boolean atom reachable via desugaring.

    Desugaring happens *here* too (goto/non-consecutive repetition
    introduce negated atoms the surface SERE never mentions), so the
    collected set covers everything ``derivatives`` can ask about.
    """
    item = desugar(item)
    if isinstance(item, SereBool):
        out.setdefault(item.expr)
    elif isinstance(item, SereConcat):
        for part in item.parts:
            _collect_atoms(part, out)
    elif isinstance(item, (SereFusion, SereOr, SereAnd)):
        _collect_atoms(item.left, out)
        _collect_atoms(item.right, out)
    elif isinstance(item, SereRepeat):
        _collect_atoms(item.body, out)
    else:  # pragma: no cover - desugar() returns only the above
        raise TypeError(f"unknown SERE node {type(item).__name__}")


# ---------------------------------------------------------------------------
# The automaton
# ---------------------------------------------------------------------------


class SereAutomaton:
    """Lazily-enumerated DFA over derivative residual sets.

    States are integer indices into ``_states`` (index ``i`` is the
    residual ``frozenset`` the interpreted engine would carry);
    ``start`` is the state for a match anchored *now*.  ``advance``
    consumes one symbol and returns ``(next_state, matched)`` where
    ``next_state`` is :data:`DEAD` when the residual set died and
    ``matched`` mirrors ``SereTracker.advance``'s completed-match flag.

    Transition cells are filled on first use by running the symbolic
    derivative engine, then hit as plain dict lookups forever after.
    Instances are shared (via :func:`shared_automaton`) across every
    monitor compiled from an equal SERE in the process.
    """

    #: Sentinel state index: the residual set became empty.
    DEAD = -1

    def __init__(self, item: Sere):
        self.sere = desugar(item)
        self.depth = sere_history_depth(self.sere)
        atoms: Dict[Expr, None] = {}
        _collect_atoms(self.sere, atoms)
        # The non-length-matching && rewrite pads with true[*]; make
        # sure TRUE is always a known atom.
        atoms.setdefault(TRUE)
        self.atoms: Tuple[Expr, ...] = tuple(atoms)
        self._atom_fns = tuple(bool_function(a) for a in self.atoms)
        start_set = frozenset({self.sere})
        self._states: List[frozenset] = [start_set]
        self._index: Dict[frozenset, int] = {start_set: 0}
        self._table: List[Dict[int, Tuple[int, bool]]] = [{}]
        self.start = 0
        self.table_fills = 0  # cells computed (diagnostic / bench)

    # -- hot path ---------------------------------------------------------

    def valuation(self, history: Sequence[Letter]) -> int:
        """Pack the atoms' truth over ``history`` into one symbol."""
        symbol = 0
        bit = 1
        for fn in self._atom_fns:
            if fn(history):
                symbol |= bit
            bit <<= 1
        return symbol

    def advance(self, state: int, symbol: int) -> Tuple[int, bool]:
        """One transition; fills the table cell on first visit."""
        entry = self._table[state].get(symbol)
        if entry is None:
            entry = self._fill(state, symbol)
        return entry

    def advance_all(self, states: int, symbol: int) -> Tuple[int, int]:
        """Advance a bitset of live states: ``(survivors, matches)``."""
        table = self._table
        survivors = 0
        matches = 0
        while states:
            low = states & -states
            state = low.bit_length() - 1
            states ^= low
            entry = table[state].get(symbol) or self._fill(state, symbol)
            if entry[1]:
                matches += 1
            if entry[0] >= 0:
                survivors |= 1 << entry[0]
        return survivors, matches

    def discharge(self, obligations: int, symbol: int) -> Tuple[int, bool]:
        """Advance consequent obligations: ``(still_live, any_failed)``.

        A matching obligation is discharged; one whose residual set
        died without matching fails the property.
        """
        table = self._table
        live = 0
        failed = False
        while obligations:
            low = obligations & -obligations
            state = low.bit_length() - 1
            obligations ^= low
            entry = table[state].get(symbol) or self._fill(state, symbol)
            if entry[1]:
                continue
            if entry[0] < 0:
                failed = True
            else:
                live |= 1 << entry[0]
        return live, failed

    # -- cold path --------------------------------------------------------

    def _fill(self, state: int, symbol: int) -> Tuple[int, bool]:
        truth: Dict[Expr, bool] = {}
        bit = 1
        for atom in self.atoms:
            truth[atom] = bool(symbol & bit)
            bit <<= 1
        view = _SymbolicView(truth)
        result: set = set()
        for residual in self._states[state]:
            result |= derivatives(residual, view)
        if len(result) > SereTracker.MAX_RESIDUALS:
            raise PslUnsupportedError(
                f"SERE residual set exceeded {SereTracker.MAX_RESIDUALS} "
                f"terms; use the ReplayMonitor for this property"
            )
        matched = any(nullable(r) for r in result)
        if not result:
            entry = (self.DEAD, matched)
        else:
            new_set = frozenset(result)
            index = self._index.get(new_set)
            if index is None:
                index = len(self._states)
                self._states.append(new_set)
                self._index[new_set] = index
                self._table.append({})
            entry = (index, matched)
        self._table[state][symbol] = entry
        self.table_fills += 1
        return entry

    # -- introspection ----------------------------------------------------

    @property
    def state_count(self) -> int:
        """States discovered so far (grows as the table fills)."""
        return len(self._states)

    def variables(self) -> frozenset:
        """Signal names this monitor samples each cycle."""
        return self.sere.variables()


#: Process-wide automaton cache: equal (desugared) SEREs share one
#: automaton and therefore one transition table.
_AUTOMATON_CACHE: Dict[Sere, SereAutomaton] = {}


def shared_automaton(item: Sere) -> SereAutomaton:
    """Automaton for ``item``, shared process-wide by SERE equality."""
    key = desugar(item)
    automaton = _AUTOMATON_CACHE.get(key)
    if automaton is None:
        _bump("automaton_misses", "psl.compile.automaton", "miss")
        automaton = SereAutomaton(key)
        _AUTOMATON_CACHE[key] = automaton
    else:
        _bump("automaton_hits", "psl.compile.automaton", "hit")
    return automaton


# ---------------------------------------------------------------------------
# Per-property plans
# ---------------------------------------------------------------------------

#: A SERE operand: an automaton, or a bare expression when the SERE
#: is one Boolean letter (``{b}`` matches exactly when ``b`` holds).
Operand = Any

#: State slots per member in the set's flat state list.
_VERDICT, _FAILED_AT, _STAT, _K0, _K1, _K2 = range(6)
_WIDTH = 6


def _operand(item: Sere) -> Operand:
    core = desugar(item)
    if isinstance(core, SereBool):
        return core.expr
    return shared_automaton(core)


def _operand_depth(operand: Operand) -> int:
    if isinstance(operand, SereAutomaton):
        return operand.depth
    return history_depth(operand)  # raises on next(), like an automaton


@dataclasses.dataclass(frozen=True, eq=False)
class _Plan:
    """One compiled property: what the step generator lowers.

    ``kind`` is ``invariant`` / ``eventually`` / ``until`` / ``never``
    / ``cover`` / ``implication``; ``left``/``right`` are its operands
    (expressions, or SERE operands for the last three); ``depth`` is
    the history window it needs beyond the current letter.  Calling a
    plan builds a fresh, unattached member.
    """

    kind: str
    name: str
    report: str
    left: Operand
    right: Operand = None
    depth: int = 0
    expect: bool = True  # invariant: always (True) / never (False)
    strong: bool = False
    inclusive: bool = False  # until
    overlapping: bool = False  # implication: |-> vs |=>
    key: Tuple = ()

    def variables(self) -> frozenset:
        """Signal names the property samples."""
        names = self.left.variables()
        if self.right is not None:
            names = names | self.right.variables()
        return names

    def initial_verdict(self) -> Verdict:
        """Verdict before the first letter (mirrors the interpreter)."""
        if self.kind == "eventually" or (self.kind == "until" and self.strong):
            return Verdict.PENDING
        return Verdict.HOLDS

    def __call__(self) -> "CompiledProperty":
        cls = {
            "cover": CompiledCover,
            "implication": CompiledSuffixImplication,
        }.get(self.kind, CompiledProperty)
        return cls(self)


# ---------------------------------------------------------------------------
# The step generator
# ---------------------------------------------------------------------------


class _StepSource:
    """Builds one set's generated step function.

    ``step(letter, H, S, c) -> changed``: push ``letter`` into the
    window ``H``, evaluate the atom union, advance every member's slots
    in ``S`` at cycle ``c``; ``changed`` is true when some member's
    verdict became definite (failed, or held strongly) this cycle.
    """

    def __init__(self, plans: Sequence[_Plan]):
        self.plans = plans
        self.reads: Dict[Tuple[str, int], int] = {}
        self.bool_reads: Dict[Tuple[str, int], None] = {}
        self.atoms: Dict[Expr, str] = {}
        self.atom_lines: List[str] = []
        self.slow_lines: List[str] = []
        self.namespace: Dict[str, Any] = {
            "FAILS": Verdict.FAILS,
            "HOLDS": Verdict.HOLDS,
            "PENDING": Verdict.PENDING,
            "HOLDS_STRONGLY": Verdict.HOLDS_STRONGLY,
        }
        self.lowering = Lowering(self._read, self._read_bool, guarded=False)
        self._automata: Dict[int, str] = {}

    # -- atoms -------------------------------------------------------------

    def _read(self, name: str, offset: int) -> str:
        index = self.reads.setdefault((name, offset), len(self.reads))
        return f"v{index}"

    def _read_bool(self, name: str, offset: int) -> str:
        self._read(name, offset)
        self.bool_reads.setdefault((name, offset))
        return f"b{self.reads[(name, offset)]}"

    def atom(self, expression: Expr) -> str:
        """Local holding ``expression``'s truth this cycle."""
        local = self.atoms.get(expression)
        if local is not None:
            return local
        index = len(self.atoms)
        function = f"F{index}"
        self.namespace[function] = bool_function(expression)
        try:
            source = self.lowering.boolean(expression)
        except Unsupported:
            source = f"{function}(H)"
        if source in ("True", "False") or source.isidentifier():
            local = source
        else:
            local = f"t{index}"
            self.atom_lines.append(f"{local} = {source}")
        if local not in ("True", "False"):
            self.slow_lines.append(f"{local} = {function}(H)")
        self.atoms[expression] = local
        return local

    def automaton(self, automaton: SereAutomaton) -> str:
        """Namespace suffix binding an automaton, its start row and fill."""
        suffix = self._automata.get(id(automaton))
        if suffix is None:
            suffix = str(len(self._automata))
            self._automata[id(automaton)] = suffix
            self.namespace[f"A{suffix}"] = automaton
            self.namespace[f"R{suffix}"] = automaton._table[automaton.start]
            self.namespace[f"FILL{suffix}"] = automaton._fill
        return suffix

    def symbol(self, automaton: SereAutomaton) -> str:
        """Source packing ``automaton``'s atoms into its symbol."""
        constant = 0
        parts = []
        for bit, expression in enumerate(automaton.atoms):
            if isinstance(expression, Const) and isinstance(expression.value, bool):
                constant |= expression.value << bit
                continue
            local = self.atom(expression)
            parts.append(local if bit == 0 else f"({local} << {bit})")
        if constant or not parts:
            parts.append(str(constant))
        return " | ".join(parts)

    # -- members -----------------------------------------------------------

    def member(self, plan: _Plan, base: int) -> List[str]:
        """Statements advancing one member whose slots start at ``base``."""
        v, stat, k0 = (f"S[{base + slot}]" for slot in (_VERDICT, _STAT, _K0))
        fail = [
            f"{v} = FAILS",
            f"S[{base + _FAILED_AT}] = c",
            "ch = True",
        ]
        kind = plan.kind
        if kind == "invariant":
            truth = self.atom(plan.left)
            test = f"not {truth}" if plan.expect else truth
            return [f"if {test} and {v} is not FAILS:", *_indent(fail)]
        if kind == "eventually":
            return [
                f"if {v} is PENDING and {self.atom(plan.left)}:",
                f"    {v} = HOLDS_STRONGLY",
                "    ch = True",
            ]
        if kind == "until":
            left, right = self.atom(plan.left), self.atom(plan.right)
            release = f"{right} and {left}" if plan.inclusive else right
            return [
                f"if {v} is not HOLDS_STRONGLY and {v} is not FAILS:",
                f"    if {release}:",
                f"        {v} = HOLDS_STRONGLY",
                "        ch = True",
                f"    elif not {left}:",
                *_indent(fail, 2),
            ]
        if kind == "never":
            lines, matched = self._attempts(plan.left, k0)
            return [
                f"if {v} is not FAILS:",
                *_indent(lines),
                f"    if {matched}:",
                *_indent(fail, 2),
            ]
        if kind == "cover":
            lines, matched = self._attempts(plan.left, k0)
            return [
                *lines,
                f"if {matched}:",
                f"    {stat} += {matched}",
                f"{v} = HOLDS_STRONGLY if {stat} else PENDING",
            ]
        return [f"if {v} is not FAILS:", *_indent(self._implication(plan, base, fail))]

    def _attempts(self, operand: Operand, slot: str) -> Tuple[List[str], str]:
        """Advance attempts anchored every cycle; returns the statements
        and a source expression that is truthy (the match count) when
        an attempt completed this cycle."""
        if not isinstance(operand, SereAutomaton):
            return [], self.atom(operand)
        n = self.automaton(operand)
        symbol = self.symbol(operand)
        return [
            f"y = {symbol}",
            f"if {slot} <= 1:",  # only the start state is live
            f"    e = R{n}.get(y) or FILL{n}(0, y)",
            "    m = e[1]",
            f"    {slot} = 1 << e[0] if e[0] >= 0 else 0",
            "else:",
            f"    {slot}, m = A{n}.advance_all({slot} | 1, y)",
        ], "m"

    def _implication(self, plan: _Plan, base: int, fail: List[str]) -> List[str]:
        """``always {r} |->/|=> {s}``; slots: antecedent attempts,
        obligations, obligations spawned last cycle (``|=>``)."""
        stat = f"S[{base + _STAT}]"
        verdict = f"S[{base + _VERDICT}]"
        attempts, obligations, fresh = (
            f"S[{base + slot}]" for slot in (_K0, _K1, _K2)
        )
        lines, matched = self._attempts(plan.left, attempts)
        consequent = plan.right
        if not isinstance(consequent, SereAutomaton):
            truth = self.atom(consequent)
            if plan.overlapping:
                return [
                    *lines,
                    f"if {matched}:",
                    f"    {stat} += 1",
                    f"    if not {truth}:",
                    *_indent(fail, 2),
                ]
            lines += [
                f"f = {fresh} and not {truth}",
                f"if {matched}:",
                f"    {stat} += 1",
                f"    {fresh} = 1",
                "else:",
                f"    {fresh} = 0",
                "if f:",
                *_indent(fail),
            ]
            if plan.strong:
                lines += [
                    "else:",
                    f"    {verdict} = PENDING if {fresh} else HOLDS",
                ]
            return lines
        n = self.automaton(consequent)
        symbol = self.symbol(consequent)
        lines += [
            "f = False",
            "live = 0",
            f"if {obligations} or {fresh}:",
            f"    live, f = A{n}.discharge({obligations} | {fresh}, {symbol})",
            f"{fresh} = 0",
            f"if {matched}:",
            f"    {stat} += 1",
        ]
        if plan.overlapping:
            lines += [
                f"    y = {symbol}",
                f"    e = R{n}.get(y) or FILL{n}(0, y)",
                "    if not e[1]:",
                "        if e[0] < 0:",
                "            f = True",
                "        else:",
                "            live |= 1 << e[0]",
            ]
        else:
            lines.append(f"    {fresh} = 1")
        lines += [f"{obligations} = live", "if f:", *_indent(fail)]
        if plan.strong:
            lines += [
                "else:",
                f"    {verdict} = PENDING if live or {fresh} else HOLDS",
            ]
        return lines

    # -- the function --------------------------------------------------------

    def build(self) -> Callable:
        members: List[str] = []
        for index, plan in enumerate(self.plans):
            members += [f"# {plan.kind} {plan.name}"]
            members += self.member(plan, index * _WIDTH)
        window = max((plan.depth for plan in self.plans), default=0) + 1
        offsets = sorted({offset for _, offset in self.reads})
        prologue = [
            f"L{offset} = letter._data" if offset == 0
            else f"L{offset} = H[-{offset + 1}]._data"
            for offset in offsets
        ]
        for (name, offset), index in self.reads.items():
            prologue.append(f"v{index} = L{offset}[{name!r}]")
            if (name, offset) in self.bool_reads:
                prologue.append(
                    f"b{index} = v{index} is True or "
                    f"(v{index} is not False and as_bool(v{index}))"
                )
        prologue += self.atom_lines
        body = [
            "H.append(letter)",
            f"if len(H) > {window}:",
            "    del H[0]",
        ]
        if prologue:
            # any surprise (missing signal, short window, odd value)
            # re-evaluates every atom exactly, one function each
            body += [
                "try:",
                *_indent(prologue),
                "except Exception:",
                *_indent(self.slow_lines or ["pass"]),
            ]
        body += ["ch = False", *members, "return ch"]
        namespace = {**self.lowering.namespace, **self.namespace}
        names = sorted(namespace)
        source = "\n".join([
            f"def make({', '.join(names)}):",
            "    def step(letter, H, S, c):",
            *_indent(body, 2),
            "    return step",
            "",
        ])
        make = define(source, "make", {})
        step = make(**namespace)
        step.source = source
        return step


def _indent(lines: Sequence[str], depth: int = 1) -> List[str]:
    pad = "    " * depth
    return [pad + line for line in lines]


#: Generated step functions: tuple of member plan keys -> function.
_STEP_CACHE: Dict[Tuple, Callable] = {}


def _step_function(plans: Sequence[_Plan]) -> Callable:
    key = tuple(plan.key for plan in plans)
    function = _STEP_CACHE.get(key)
    if function is None:
        function = _StepSource(plans).build()
        _STEP_CACHE[key] = function
    return function


# ---------------------------------------------------------------------------
# Fused property sets and their members
# ---------------------------------------------------------------------------


class FusedPropertySet:
    """One generated step for every compiled property of a set.

    Owns the shared letter window, the cycle counter and the flat
    member state; :meth:`step` returns true when some member's verdict
    became definite, so a harness only scans verdicts on those cycles.
    With observability on, one ``perf_counter`` pair times each set
    step; members apportion it by their step counts.
    """

    #: Bumped whenever a set splits, so holders of sets can regroup.
    generation = 0

    def __init__(
        self,
        members: Sequence["CompiledProperty"],
        cycle: int = -1,
        history: Sequence[Letter] = (),
    ):
        self.members: Tuple[CompiledProperty, ...] = tuple(members)
        self.plans = tuple(member.plan for member in self.members)
        self.depth = max((plan.depth for plan in self.plans), default=0)
        self.history: List[Letter] = list(history)[-(self.depth + 1):] if history else []
        self.cycle = cycle
        self.retired = False
        self.obs_seconds = 0.0
        self.obs_steps = 0
        state: List[Any] = []
        for member in self.members:
            state += member._join(self, len(state))
        self.state = state
        self._latched = self._latched_members()
        self._function: Optional[Callable] = None

    def step(self, letter: Letter) -> bool:
        """Advance every member by one letter; true if a verdict latched."""
        letter = freeze_letter(letter)
        self.cycle += 1
        function = self._function or self._compile()
        if OBS.enabled:
            for member in self._latched:
                member._obs_skipped += 1
            started = _perf_counter()
            changed = function(letter, self.history, self.state, self.cycle)
            self.obs_seconds += _perf_counter() - started
            self.obs_steps += 1
        else:
            changed = function(letter, self.history, self.state, self.cycle)
        if changed:
            self._latched = self._latched_members()
        return changed

    def reset(self) -> None:
        """Every member back to its pre-trace state."""
        self.history = []
        self.cycle = -1
        self.obs_seconds = 0.0
        self.obs_steps = 0
        for member in self.members:
            member._obs_steps_base = 0
            member._obs_seconds_base = 0.0
            member._obs_skipped = 0
            self.state[member._base:member._base + _WIDTH] = member._initial()
        self._latched = []

    @property
    def source(self) -> str:
        """The generated Python source of this set's step function."""
        return (self._function or self._compile()).source

    def _compile(self) -> Callable:
        self._function = _step_function(self.plans)
        return self._function

    def _latched_members(self) -> List["CompiledProperty"]:
        return [
            m for m in self.members
            if m.latch_definite and m.verdict().is_definite
        ]

    def _split(self, member: "CompiledProperty") -> "FusedPropertySet":
        """Move ``member`` into a singleton set (and the rest into
        another); returns the singleton."""
        rest = [m for m in self.members if m is not member]
        self.retired = True
        FusedPropertySet.generation += 1
        if rest:
            FusedPropertySet(rest, self.cycle, self.history)
        return FusedPropertySet([member], self.cycle, self.history)


class CompiledProperty(Monitor):
    """A member of a :class:`FusedPropertySet`: the monitor protocol as
    a view over the set's state.

    Same protocol as the interpreted :class:`Monitor` --
    ``reset/step/verdict/snapshot/restore/variables`` -- so harness,
    explorer and workbench code cannot tell the engines apart except
    by the ``engine`` tag and by speed.
    """

    engine = "compiled"

    def __init__(self, plan: _Plan):
        self.plan = plan
        self.name = plan.name
        self.report_message = plan.report
        self.property_set: Optional[FusedPropertySet] = None
        self._base = 0
        self._obs_steps_base = 0
        self._obs_seconds_base = 0.0
        self._obs_skipped = 0

    # -- views over the set --------------------------------------------------

    @property
    def _verdict(self) -> Verdict:
        return self.property_set.state[self._base + _VERDICT]

    @property
    def cycle(self) -> int:
        """Index of the last letter stepped (-1 before the first)."""
        return self.property_set.cycle

    @property
    def failure_cycle(self) -> Optional[int]:
        """Cycle at which the property first failed, if it did."""
        return self.property_set.state[self._base + _FAILED_AT]

    @property
    def steps_traced(self) -> int:
        """Steps taken while observability was on (latched cycles skip)."""
        return self._obs_steps_base + self.property_set.obs_steps - self._obs_skipped

    @property
    def step_seconds(self) -> float:
        """This member's share of its sets' timed step seconds."""
        fused = self.property_set
        total = sum(fused.obs_steps - m._obs_skipped for m in fused.members)
        share = 0.0
        if total:
            steps = fused.obs_steps - self._obs_skipped
            share = fused.obs_seconds * steps / total
        return self._obs_seconds_base + share

    def variables(self) -> frozenset:
        """Signal names this monitor samples each cycle."""
        return self.plan.variables()

    # -- protocol --------------------------------------------------------------

    def step(self, letter: Letter) -> Verdict:
        """Consume one letter through a singleton set; the verdict."""
        self._solo().step(letter)
        return self.verdict()

    def reset(self) -> None:
        """Return to the initial (pre-trace) monitor state."""
        self._solo().reset()

    def snapshot(self) -> Any:
        """Opaque, immutable state for :meth:`restore`.

        Statistics (cover hit counts beyond "covered", implication
        trigger counts) stay out, mirroring the interpreted monitors.
        """
        fused = self.property_set
        base = self._base
        state = fused.state
        window = tuple(fused.history[-(self.plan.depth + 1):])
        return (
            state[base + _VERDICT],
            tuple(state[base + _K0:base + _WIDTH]),
            self.is_cover and state[base + _STAT] > 0,
            window,
        )

    def restore(self, snap: Any) -> None:
        """Reinstate monitor state captured by :meth:`snapshot`."""
        fused = self._solo()
        verdict, kind_state, covered, window = snap
        base = self._base
        fused.state[base + _VERDICT] = verdict
        fused.state[base + _K0:base + _WIDTH] = kind_state
        if covered and fused.state[base + _STAT] == 0:
            fused.state[base + _STAT] = 1
        fused.history = list(window)
        fused._latched = fused._latched_members()

    # -- set membership ------------------------------------------------------------

    def _initial(self) -> List[Any]:
        return [self.plan.initial_verdict(), None, 0, 0, 0, 0]

    def _join(self, fused: FusedPropertySet, base: int) -> List[Any]:
        """Move into ``fused`` at ``base``; returns the slots to carry."""
        previous = self.property_set
        if previous is None:
            slots = self._initial()
        else:
            slots = previous.state[self._base:self._base + _WIDTH]
            self._obs_steps_base = self.steps_traced
            self._obs_seconds_base = self.step_seconds
            self._obs_skipped = 0
        self.property_set = fused
        self._base = base
        return slots

    def _solo(self) -> FusedPropertySet:
        fused = self.property_set
        if len(fused.members) > 1:
            fused = fused._split(self)
        return fused


class CompiledCover(CompiledProperty):
    """``cover {r}``: counts completed matches."""

    latch_definite = False  # keep counting after the first hit
    is_cover = True

    @property
    def hits(self) -> int:
        """Completed matches so far."""
        return self.property_set.state[self._base + _STAT]


class CompiledSuffixImplication(CompiledProperty):
    """``always {r} |->/|=> {s}`` (and ``always b -> f``)."""

    @property
    def triggered(self) -> int:
        """Cycles on which the antecedent completed a match."""
        return self.property_set.state[self._base + _STAT]


# ---------------------------------------------------------------------------
# The public compilation API
# ---------------------------------------------------------------------------


#: Per-property compilation plans: (engine, kind, property AST,
#: binding) -> zero-arg monitor factory.
_PLAN_CACHE: Dict[Tuple, Callable[[], Monitor]] = {}

_CACHE_STATS = {
    "plan_hits": 0,
    "plan_misses": 0,
    "automaton_hits": 0,
    "automaton_misses": 0,
}


def _bump(stat: str, metric: str, result: str) -> None:
    _CACHE_STATS[stat] += 1
    metrics = OBS.metrics
    if metrics.enabled:
        metrics.counter(metric, result=result).inc()


def compile_cache_stats() -> Dict[str, int]:
    """Process-wide compile-cache counters (plans and automata).

    Exposed on the worker ``/healthz`` endpoint; hits should dwarf
    misses in any real regression (same properties x many seeds).
    """
    stats = dict(_CACHE_STATS)
    stats["plans"] = len(_PLAN_CACHE)
    stats["automata"] = len(_AUTOMATON_CACHE)
    stats["automaton_states"] = sum(
        a.state_count for a in _AUTOMATON_CACHE.values()
    )
    stats["step_functions"] = len(_STEP_CACHE)
    return stats


def clear_compile_caches() -> None:
    """Drop all compilation caches (tests and memory-pressure hooks)."""
    _PLAN_CACHE.clear()
    _AUTOMATON_CACHE.clear()
    _STEP_CACHE.clear()
    for key in _CACHE_STATS:
        _CACHE_STATS[key] = 0


def property_digest(source: Property | Directive | Formula | str) -> str:
    """Stable hex digest of a property's source form.

    Equal sources parse to equal ASTs and equal ASTs print back to
    equal canonical text, so this digest is interchangeable with the
    AST as a cache identity; it exists for logs and cross-process
    comparison where shipping the AST is impractical.
    """
    directive = _as_directive(source)
    text = f"{directive.kind}:{directive.prop.name}:{directive.prop.formula}"
    return hashlib.sha256(text.encode()).hexdigest()


def _as_directive(source: Property | Directive | Formula | str) -> Directive:
    """Normalize any accepted source form to an assert/cover directive."""
    if isinstance(source, Directive):
        return source
    if isinstance(source, Property):
        return Directive(kind=DirectiveKind.ASSERT, prop=source)
    if isinstance(source, str):
        from .parser import parse_directive, parse_formula

        try:
            return _as_directive(parse_directive(source))
        except PslParseError:
            return _as_directive(parse_formula(source))
    if isinstance(source, Formula):
        return Directive(
            kind=DirectiveKind.ASSERT,
            prop=Property(name="property", formula=source),
        )
    raise TypeError(
        f"cannot compile {type(source).__name__}; expected "
        f"Directive, Property, Formula or source text"
    )


def _rebind(node: Any, bindings: Mapping[str, str]) -> Any:
    """Rename signal references throughout a (frozen dataclass) AST."""
    if isinstance(node, Var):
        renamed = bindings.get(node.name)
        return Var(renamed) if renamed is not None else node
    if dataclasses.is_dataclass(node) and not isinstance(node, type):
        changes = {}
        for field in dataclasses.fields(node):
            value = getattr(node, field.name)
            rebound = _rebind(value, bindings)
            if rebound is not value:
                changes[field.name] = rebound
        return dataclasses.replace(node, **changes) if changes else node
    if isinstance(node, tuple):
        rebound = tuple(_rebind(v, bindings) for v in node)
        return rebound if rebound != node else node
    return node


def compile_properties(
    sources: Iterable[Property | Directive | Formula | str],
    *,
    bindings: Optional[Mapping[str, str]] = None,
    engine: Optional[str] = None,
) -> List[Monitor]:
    """Compile properties into monitors -- the one construction path.

    ``sources`` may mix parsed :class:`Directive`/:class:`Property`/
    :class:`Formula` objects and PSL source text.  ``bindings``
    renames signal references (formal -> actual) before compilation
    and is part of the cache key.  ``engine`` selects ``"compiled"``
    (one fused, generated property set, the default) or
    ``"interpreted"`` (the original derivative interpreter); ``None``
    defers to :func:`default_engine`, i.e. ``REPRO_PSL_ENGINE`` when
    set.

    Under the compiled engine every returned :class:`CompiledProperty`
    is a member of one :class:`FusedPropertySet`.  Properties it
    cannot lower (deep ``until`` nests, unbounded-residual SEREs, ...)
    transparently fall back to the interpreted :func:`build_monitor`
    result, so both engines accept the full supported PSL subset and
    produce identical verdict traces.
    """
    resolved = _validate_engine(engine) if engine is not None else default_engine()
    monitors = [_compile_one(source, bindings, resolved) for source in sources]
    members = [m for m in monitors if isinstance(m, CompiledProperty)]
    if members:
        FusedPropertySet(members)
    return monitors


def compile_property(
    source: Property | Directive | Formula | str,
    *,
    name: Optional[str] = None,
    bindings: Optional[Mapping[str, str]] = None,
    engine: Optional[str] = None,
) -> Monitor:
    """Compile one property (see :func:`compile_properties`)."""
    resolved = _validate_engine(engine) if engine is not None else default_engine()
    monitor = _compile_one(source, bindings, resolved)
    if isinstance(monitor, CompiledProperty):
        FusedPropertySet([monitor])
    if name is not None:
        monitor.name = name
    return monitor


def _compile_one(
    source: Property | Directive | Formula | str,
    bindings: Optional[Mapping[str, str]],
    engine: str,
) -> Monitor:
    directive = _as_directive(source)
    if bindings:
        directive = _rebind(directive, dict(bindings))
    binding_key = (
        tuple(sorted(bindings.items())) if bindings else None
    )
    key = (engine, directive.kind, directive.prop, binding_key)
    plan = _PLAN_CACHE.get(key)
    if plan is None:
        _bump("plan_misses", "psl.compile.cache", "miss")
        plan = _build_plan(directive, engine, key)
        _PLAN_CACHE[key] = plan
    else:
        _bump("plan_hits", "psl.compile.cache", "hit")
    return plan()


def _build_plan(
    directive: Directive, engine: str, key: Tuple
) -> Callable[[], Monitor]:
    """Build the per-property monitor factory for one engine.

    Compiled plans build their automata now, so unsupported SEREs
    surface (and fall back) here rather than mid-regression.
    """
    if engine == "compiled":
        try:
            plan = _match_compiled(directive, key)
        except PslUnsupportedError:
            plan = None
        if plan is not None:
            return plan

    def interpreted_plan() -> Monitor:
        return build_monitor(directive)

    return interpreted_plan


def _match_compiled(directive: Directive, key: Tuple) -> Optional[_Plan]:
    """Mirror of ``build_monitor``'s pattern match, building plans for
    the step generator; ``None`` means no compiled lowering exists."""
    prop = directive.prop
    formula = prop.formula

    def make(kind: str, left: Operand, right: Operand = None, **fields: Any) -> _Plan:
        operands = (left,) if right is None else (left, right)
        depth = max(_operand_depth(operand) for operand in operands)
        return _Plan(
            kind, prop.name, prop.report, left, right, depth, key=key, **fields
        )

    if directive.kind == DirectiveKind.COVER:
        target = formula
        if isinstance(target, FlEventually):
            target = target.operand
        if isinstance(target, FlSere):
            return make("cover", _operand(target.sere))
        if isinstance(target, FlBool):
            return make("cover", _operand(SereBool(target.expr)))
        return None

    if isinstance(formula, FlAlways):
        body = formula.operand
        if isinstance(body, FlBool):
            return make("invariant", body.expr)
        if isinstance(body, FlNot) and isinstance(body.operand, FlBool):
            return make("invariant", body.operand.expr, expect=False)
        if isinstance(body, FlSuffixImpl):
            consequent = _as_sere(body.consequent)
            if consequent is not None:
                return make(
                    "implication",
                    _operand(body.antecedent),
                    right=_operand(consequent),
                    overlapping=body.overlapping,
                    strong=_consequent_is_strong(body.consequent),
                )
        if isinstance(body, FlImplies) and isinstance(body.left, FlBool):
            consequent = _as_sere(body.right)
            if consequent is not None:
                return make(
                    "implication",
                    _operand(SereBool(body.left.expr)),
                    right=_operand(consequent),
                    overlapping=True,
                    strong=_consequent_is_strong(body.right),
                )
    if isinstance(formula, FlNever):
        body = formula.operand
        if isinstance(body, FlBool):
            return make("invariant", body.expr, expect=False)
        if isinstance(body, FlSere):
            operand = _operand(body.sere)
            if isinstance(operand, SereAutomaton):
                return make("never", operand)
            return make("invariant", operand, expect=False)
    if isinstance(formula, FlEventually) and isinstance(formula.operand, FlBool):
        return make("eventually", formula.operand.expr)
    if isinstance(formula, FlUntil):
        if isinstance(formula.left, FlBool) and isinstance(formula.right, FlBool):
            return make(
                "until",
                formula.left.expr,
                right=formula.right.expr,
                strong=formula.strong,
                inclusive=formula.inclusive,
            )
    return None

