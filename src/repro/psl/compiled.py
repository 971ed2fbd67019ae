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
  :class:`~repro.psl.automaton.SereAutomaton` tables (lazily filled
  by running the interpreted :func:`~repro.psl.monitor.derivatives`
  over a symbolic letter, so both engines agree by construction),
  with the common "only the start state is live" cycle inlined.
  One-letter SERE operands (``{b}``) skip the table and compare
  inline too.

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
    SereBool,
    Var,
)
from .automaton import _AUTOMATON_CACHE, SereAutomaton, shared_automaton
from .codegen import (
    COMPILE_STATS,
    Lowering,
    Unsupported,
    bool_function,
    count_lookup,
    define,
)
from .errors import PslParseError, PslUnsupportedError
from .letter import FrozenLetter, freeze_letter
from .monitor import (
    Monitor,
    _as_sere,
    _consequent_is_strong,
    build_monitor,
    history_depth,
)
from .semantics import Verdict
from .sere import desugar

Letter = Mapping[str, Any]


class LetterSource:
    """One letter shape as straight-line source, for a sample-and-step.

    ``params`` name the objects a bound sampler closes over (signals,
    signal lists, attribute owners); ``lines`` are statements run first
    (hoisted reads); ``values`` holds one Python expression per letter
    entry, in ``names`` order.  ``key`` identifies the shape in the
    step cache.  Locals and parameters must keep clear of the step's
    own names (``v``/``b``/``t``/``n`` plus an index, ``W``, ``S``,
    ``c``...); :mod:`repro.abv.letters` produces these.
    """

    __slots__ = ("key", "names", "params", "lines", "values")

    def __init__(
        self,
        key: Any,
        names: Tuple[str, ...],
        params: Tuple[str, ...],
        lines: Tuple[str, ...],
        values: Tuple[str, ...],
    ):
        self.key = key
        self.names = names
        self.params = params
        self.lines = lines
        self.values = values


def letters_of(names: Tuple[str, ...], window: Sequence[tuple]) -> List[Letter]:
    """Dict letters of a sampled window's value tuples."""
    letters = []
    for values in window:
        letter = object.__new__(FrozenLetter)
        letter._data = dict(zip(names, values))
        letter._hash = None
        letters.append(letter)
    return letters


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
    #: signal names the property samples (worked out once, at build)
    names: frozenset = frozenset()

    def variables(self) -> frozenset:
        """Signal names the property samples."""
        return self.names

    def initial_verdict(self) -> Verdict:
        """Verdict before the first letter (mirrors the interpreter)."""
        if self.kind == "eventually" or (self.kind == "until" and self.strong):
            return Verdict.PENDING
        return Verdict.HOLDS

    def __call__(self) -> "CompiledProperty":
        return _MEMBER_CLASSES.get(self.kind, CompiledProperty)(self)


# ---------------------------------------------------------------------------
# The step generator
# ---------------------------------------------------------------------------


class _StepSource:
    """Builds one set's generated step function, with one of two prologues.

    ``step(letter, H, S, c) -> changed``: push ``letter`` into the
    window ``H``, evaluate the atom union, advance every member's slots
    in ``S`` at cycle ``c``; ``changed`` is true when some member's
    verdict became definite (failed, or held strongly) this cycle.

    Given a :class:`LetterSource`, the same members get the *sampled*
    prologue instead: ``bind(*objects)`` returns ``sample(W, S, c)``,
    which evaluates the letter's entries straight into the atom inputs
    and pushes one value tuple (the letter's values, in name order)
    into the window ``W``.  Reads further back index those tuples.
    """

    def __init__(self, plans: Sequence[_Plan]):
        self.plans = plans
        self.reads: Dict[Tuple[str, int], int] = {}
        self.raw_reads: Dict[Tuple[str, int], None] = {}
        self.bool_reads: Dict[Tuple[str, int], None] = {}
        self.atoms: Dict[Expr, str] = {}
        self.atom_lines: List[str] = []
        self.slow_lines: List[str] = []
        #: an atom the lowering cannot take reads the letter window
        self.reads_window = False
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
        self.raw_reads.setdefault((name, offset))
        return f"v{index}"

    def _read_bool(self, name: str, offset: int) -> str:
        index = self.reads.setdefault((name, offset), len(self.reads))
        self.bool_reads.setdefault((name, offset))
        return f"b{index}"

    def _local(self, read: Tuple[str, int]) -> str:
        """The local a read lands in: its raw ``v`` when an atom uses
        the raw value, else straight into its PSL Boolean ``b``."""
        prefix = "v" if read in self.raw_reads else "b"
        return f"{prefix}{self.reads[read]}"

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
            self.reads_window = True
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
        return self._implication(plan, base, fail)

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
        """``always {r} |->/|=> {s}``, stepped while not failed; slots:
        antecedent attempts, obligations, obligations spawned last
        cycle (``|=>``)."""
        stat = f"S[{base + _STAT}]"
        verdict = f"S[{base + _VERDICT}]"
        attempts, obligations, fresh = (
            f"S[{base + slot}]" for slot in (_K0, _K1, _K2)
        )
        guard = f"if {verdict} is not FAILS:"
        lines, matched = self._attempts(plan.left, attempts)
        consequent = plan.right
        if not isinstance(consequent, SereAutomaton):
            truth = self.atom(consequent)
            if plan.overlapping:
                check = [f"    {stat} += 1", f"    if not {truth}:", *_indent(fail, 2)]
                if not lines:
                    # a Boolean antecedent rarely holds: test it first
                    return [f"if {matched} and {verdict} is not FAILS:", *check]
                return [guard, *_indent([*lines, f"if {matched}:", *check])]
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
            return [guard, *_indent(lines)]
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
        return [guard, *_indent(lines)]

    # -- the function --------------------------------------------------------

    def _coerce(self, read: Tuple[str, int]) -> str:
        """Statement making ``b`` the read's PSL Boolean (``as_bool``,
        skipped for a bool: that is the common case)."""
        index = self.reads[read]
        if read not in self.raw_reads:  # read straight into b: coerce in place
            return f"if b{index}.__class__ is not bool: b{index} = as_bool(b{index})"
        return f"b{index} = v{index} if v{index}.__class__ is bool else as_bool(v{index})"

    def build(self, letter: Optional[LetterSource] = None) -> Optional[Callable]:
        """The step function, or with ``letter`` the sampler factory
        (None when the properties read a name the letter lacks)."""
        members: List[str] = []
        for index, plan in enumerate(self.plans):
            members += [f"# {plan.kind} {plan.name}"]
            members += self.member(plan, index * _WIDTH)
        window = max((plan.depth for plan in self.plans), default=0) + 1
        offsets = sorted({offset for _, offset in self.reads})
        slow = self.slow_lines or ["pass"]
        namespace = {**self.lowering.namespace, **self.namespace}
        if letter is None:
            head = [
                "H.append(letter)",
                f"if len(H) > {window}:",
                "    del H[0]",
            ]
            prologue = [
                f"L{offset} = letter._data" if offset == 0
                else f"L{offset} = H[-{offset + 1}]._data"
                for offset in offsets
            ]
            for read in self.reads:
                name, offset = read
                prologue.append(f"{self._local(read)} = L{offset}[{name!r}]")
                if read in self.bool_reads:
                    prologue.append(self._coerce(read))
            signature, binds = "letter, H, S, c", ()
        else:
            position = {name: k for k, name in enumerate(letter.names)}
            if any(name not in position for name, _ in self.reads):
                return None
            current = {read[0]: self._local(read) for read in self.reads if not read[1]}
            locals_ = [
                current.get(name, f"n{k}") for k, name in enumerate(letter.names)
            ]
            head = [
                *letter.lines,
                *(f"{local} = {value}" for local, value in zip(locals_, letter.values)),
                f"W.append(({', '.join(locals_)},))",
                f"if len(W) > {window}:",
                "    del W[0]",
            ]
            prologue = ["H = LETTERS(NAMES, W)"] if self.reads_window else []
            prologue += [
                f"L{offset} = W[-{offset + 1}]" for offset in offsets if offset
            ]
            for read in self.reads:
                name, offset = read
                if offset:
                    prologue.append(f"{self._local(read)} = L{offset}[{position[name]}]")
                if read in self.bool_reads:
                    prologue.append(self._coerce(read))
            slow = ["H = LETTERS(NAMES, W)", *slow]
            namespace.update(LETTERS=letters_of, NAMES=letter.names)
            signature, binds = "W, S, c", letter.params
        prologue += self.atom_lines
        body = list(head)
        if prologue:
            # any surprise (missing signal, short window, odd value)
            # re-evaluates every atom exactly, one function each
            body += ["try:", *_indent(prologue), "except Exception:", *_indent(slow)]
        body += ["ch = False", *members, "return ch"]
        function = "sample" if letter is not None else "step"
        lines = [f"def {function}({signature}):", *_indent(body), f"return {function}"]
        if letter is not None:
            lines = [f"def bind({', '.join(binds)}):", *_indent(lines), "return bind"]
        names = sorted(namespace)
        source = "\n".join([f"def make({', '.join(names)}):", *_indent(lines), ""])
        make = define(source, "make", {})
        built = make(**namespace)
        built.source = source
        return built


def _indent(lines: Sequence[str], depth: int = 1) -> List[str]:
    pad = "    " * depth
    return [pad + line for line in lines]


#: Generated step functions: member plans -> function; sampler
#: factories: (letter shape key, member plans) -> factory or None.
#: Plans hash by identity, and the plan cache holds one per key.
_STEP_CACHE: Dict[Tuple, Optional[Callable]] = {}


def _step_function(plans: Tuple[_Plan, ...]) -> Callable:
    function = _STEP_CACHE.get(plans)
    if function is None:
        function = _STEP_CACHE[plans] = _StepSource(plans).build()
    return function


def _sampler_factory(plans: Tuple[_Plan, ...], letter: LetterSource) -> Optional[Callable]:
    key = (letter.key, plans)
    try:
        return _STEP_CACHE[key]
    except KeyError:
        factory = _STEP_CACHE[key] = _StepSource(plans).build(letter)
        return factory


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

    A harness that reads a generated letter steps the set through
    :meth:`sample` instead: then the window holds value tuples, and
    :attr:`history` turns them back into dict letters when asked.
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
        #: the last ``depth + 1`` letters -- or, while ``_names`` is
        #: set, their value tuples in ``_names`` order
        self._window: List[Any] = list(history)[-(self.depth + 1):] if history else []
        self._names: Optional[Tuple[str, ...]] = None
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

    @property
    def history(self) -> List[Letter]:
        """The letter window (current letter last)."""
        if self._names is not None:
            self._window = letters_of(self._names, self._window)
            self._names = None
        return self._window

    @history.setter
    def history(self, letters: List[Letter]) -> None:
        """Adopt ``letters`` (current letter last) as the window."""
        self._window = letters
        self._names = None

    def step(self, letter: Letter) -> bool:
        """Advance every member by one letter; true if a verdict latched."""
        letter = freeze_letter(letter)
        window = self.history
        self.cycle += 1
        function = self._function or self._compile()
        if OBS.enabled:
            for member in self._latched:
                member._obs_skipped += 1
            started = _perf_counter()
            changed = function(letter, window, self.state, self.cycle)
            self.obs_seconds += _perf_counter() - started
            self.obs_steps += 1
        else:
            changed = function(letter, window, self.state, self.cycle)
        if changed:
            self._latched = self._latched_members()
        return changed

    def sampler(self, letter: LetterSource) -> Optional[Callable]:
        """This set's sample-and-step factory for one letter shape:
        ``factory(*objects)`` is a sampler for :meth:`sample`.  None
        when the properties read a name the letter does not have."""
        return _sampler_factory(self.plans, letter)

    def sample(self, sample: Callable, names: Tuple[str, ...]) -> Optional[bool]:
        """Advance every member by one cycle read by a bound sampler over
        a letter with ``names``, as :meth:`step` would on that letter.
        None (nothing stepped) when the window cannot hold the
        sampler's value tuples (:meth:`_adopt`)."""
        if self._names is not names and not self._adopt(names):
            return None
        self.cycle += 1
        if OBS.enabled:
            for member in self._latched:
                member._obs_skipped += 1
            started = _perf_counter()
            changed = sample(self._window, self.state, self.cycle)
            self.obs_seconds += _perf_counter() - started
            self.obs_steps += 1
        else:
            changed = sample(self._window, self.state, self.cycle)
        if changed:
            self._latched = self._latched_members()
        return changed

    def _adopt(self, names: Tuple[str, ...]) -> bool:
        """Hold the window as value tuples in ``names`` order; False
        (window untouched) when a letter in it has other names."""
        window = self.history
        if any(len(letter) != len(names) for letter in window):
            return False
        try:
            tuples = [tuple([letter[name] for name in names]) for letter in window]
        except KeyError:
            return False
        self._window = tuples
        self._names = names
        return True

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

    def close(self) -> None:
        """Let go of the members once their run is over: the set and
        its members refer to each other, and only this side can go.
        The members keep reading their verdicts and counters from
        :attr:`state`; the set steps no one any more."""
        self.members = ()
        self._latched = []

    @property
    def source(self) -> str:
        """The generated Python source of this set's step function."""
        return (self._function or self._compile()).source

    def _compile(self) -> Callable:
        self._function = _step_function(self.plans)
        return self._function

    def _latched_members(self) -> List["CompiledProperty"]:
        state = self.state
        return [
            m for m in self.members
            if m.latch_definite and state[m._base + _VERDICT].is_definite
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
    #: the set this member is a view into, and where its slots start
    property_set: Optional[FusedPropertySet] = None
    _base = 0
    #: observability step counts carried over from earlier sets
    _obs_steps_base = 0
    _obs_seconds_base = 0.0
    _obs_skipped = 0

    def __init__(self, plan: _Plan):
        self.plan = plan
        self.name = plan.name
        self.report_message = plan.report

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


#: member class per plan kind (every other kind: CompiledProperty)
_MEMBER_CLASSES = {"cover": CompiledCover, "implication": CompiledSuffixImplication}


# ---------------------------------------------------------------------------
# The public compilation API
# ---------------------------------------------------------------------------


#: Per-property compilation plans: (engine, kind, property AST,
#: binding) -> zero-arg monitor factory.
_PLAN_CACHE: Dict[Tuple, Callable[[], Monitor]] = {}

def compile_cache_stats() -> Dict[str, int]:
    """Process-wide compile-cache counters (plans and automata).

    Exposed on the worker ``/healthz`` endpoint; hits should dwarf
    misses in any real regression (same properties x many seeds).
    """
    stats = dict(COMPILE_STATS)
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
    _SUITE_CACHE.clear()
    _AUTOMATON_CACHE.clear()
    _STEP_CACHE.clear()
    for key in COMPILE_STATS:
        COMPILE_STATS[key] = 0


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
    return _instantiate([_plan_for(source, bindings, resolved) for source in sources])


#: Suites compiled by :func:`compile_suite`: (engine, key) -> plans.
_SUITE_CACHE: Dict[Tuple, Tuple[Callable[[], Monitor], ...]] = {}


def compile_suite(
    key: Any,
    sources: Callable[[], Iterable[Property | Directive | Formula | str]],
) -> List[Monitor]:
    """``compile_properties(sources())``, resolved once per ``key``.

    The first call per (``key``, :func:`default_engine`) builds the
    source list and looks its plans up; later calls skip both, build
    fresh monitors from the same plans and count one plan hit per
    property -- what the lookups would have counted.  ``key`` must fix
    the source list (a regression keys its model and topology).
    """
    resolved = default_engine()
    plans = _SUITE_CACHE.get((resolved, key))
    if plans is None:
        plans = tuple(_plan_for(source, None, resolved) for source in sources())
        _SUITE_CACHE[(resolved, key)] = plans
    else:
        count_lookup("plan_hits", "psl.compile.cache", "hit", len(plans))
    return _instantiate(plans)


def _instantiate(plans: Sequence[Callable[[], Monitor]]) -> List[Monitor]:
    """Fresh monitors from plans; the compiled ones fused into one set."""
    monitors = [plan() for plan in plans]
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
    monitor = _plan_for(source, bindings, resolved)()
    if isinstance(monitor, CompiledProperty):
        FusedPropertySet([monitor])
    if name is not None:
        monitor.name = name
    return monitor


def _plan_for(
    source: Property | Directive | Formula | str,
    bindings: Optional[Mapping[str, str]],
    engine: str,
) -> Callable[[], Monitor]:
    directive = _as_directive(source)
    if bindings:
        directive = _rebind(directive, dict(bindings))
    binding_key = (
        tuple(sorted(bindings.items())) if bindings else None
    )
    key = (engine, directive.kind, directive.prop, binding_key)
    plan = _PLAN_CACHE.get(key)
    if plan is None:
        count_lookup("plan_misses", "psl.compile.cache", "miss")
        plan = _build_plan(directive, engine)
        _PLAN_CACHE[key] = plan
    else:
        count_lookup("plan_hits", "psl.compile.cache", "hit")
    return plan


def _build_plan(directive: Directive, engine: str) -> Callable[[], Monitor]:
    """Build the per-property monitor factory for one engine.

    Compiled plans build their automata now, so unsupported SEREs
    surface (and fall back) here rather than mid-regression.
    """
    if engine == "compiled":
        try:
            plan = _match_compiled(directive)
        except PslUnsupportedError:
            plan = None
        if plan is not None:
            return plan

    def interpreted_plan() -> Monitor:
        return build_monitor(directive)

    return interpreted_plan


def _match_compiled(directive: Directive) -> Optional[_Plan]:
    """Mirror of ``build_monitor``'s pattern match, building plans for
    the step generator; ``None`` means no compiled lowering exists."""
    prop = directive.prop
    formula = prop.formula

    def make(kind: str, left: Operand, right: Operand = None, **fields: Any) -> _Plan:
        operands = (left,) if right is None else (left, right)
        depth = max(_operand_depth(operand) for operand in operands)
        names = frozenset().union(*(operand.variables() for operand in operands))
        return _Plan(
            kind, prop.name, prop.report, left, right, depth, names=names, **fields
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

