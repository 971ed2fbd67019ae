"""Lazily-enumerated SERE automata, shared process-wide.

A :class:`SereAutomaton` is the compiled engine's table for one SERE:
a DFA whose states are the residual sets the interpreted derivative
engine (:func:`~repro.psl.monitor.derivatives`) would carry, with
transition cells filled on first use by running that engine over a
symbolic letter, so both engines agree by construction.  Equal
(desugared) SEREs share one automaton through
:func:`shared_automaton`.  The fused property sets of
:mod:`repro.psl.compiled` inline their lookups into the generated
step; ``repro.analyze.proplint`` reads the tables too.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Sequence, Tuple

from .ast_nodes import (
    Expr,
    Sere,
    SereAnd,
    SereBool,
    SereConcat,
    SereFusion,
    SereOr,
    SereRepeat,
    TRUE,
)
from .codegen import bool_function, count_lookup
from .errors import PslUnsupportedError
from .monitor import SereTracker, derivatives, nullable, sere_history_depth
from .sere import desugar

Letter = Mapping[str, Any]


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
        count_lookup("automaton_misses", "psl.compile.automaton", "miss")
        automaton = SereAutomaton(key)
        _AUTOMATON_CACHE[key] = automaton
    else:
        count_lookup("automaton_hits", "psl.compile.automaton", "hit")
    return automaton
