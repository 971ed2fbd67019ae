"""Property linter over the compiled table-driven automata.

A property that is vacuously true -- an antecedent that can never
match, an atom no signal assignment satisfies, a cover that cannot be
hit -- passes every regression while checking nothing.  This pass
lints directives *statically*, using the same machinery the runtime
uses: :func:`repro.psl.compiled.shared_automaton` for the DFA and the
generated Boolean functions for atom evaluation, so what the linter
reasons about is exactly what the monitors execute.

Satisfiability is decided by bounded enumeration: each variable ranges
over ``False``/``True`` plus every numeric constant the property
compares against (so ``owner == 2`` is realizable even though signals
are not Boolean), across enough letters to cover the property's
``prev`` depth.  Every check is capped (atoms, domain values,
histories, automaton states) and *skips silently* past the cap --
the linter never reports a finding it could not fully decide, so
over-budget properties produce no false positives.

Rules::

    prop.unknown-signal     variable absent from the model's letter
    prop.contradiction      property can never hold / cover never hit
    prop.tautology          property holds on every trace
    prop.dead-atom          atom unsatisfiable under any assignment
    prop.vacuity            suffix-implication antecedent never matches
    prop.unreachable-state  automaton states only contradictory
                            symbols can reach
"""

from __future__ import annotations

import dataclasses
from itertools import product
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..psl.ast_nodes import (
    TRUE,
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
    Sere,
    SereBool,
)
from ..psl.codegen import bool_function
from ..psl.compiled import SereAutomaton, _as_directive, shared_automaton
from ..psl.errors import PslError, PslUnsupportedError
from ..psl.monitor import history_depth
from .findings import Finding

#: Enumeration budgets: a check that would exceed one is skipped, not
#: approximated -- the linter prefers silence to a false positive.
MAX_ATOMS = 10
MAX_DOMAIN = 6
MAX_HISTORIES = 4096
MAX_STATES = 256


def _walk_nodes(node: object):
    """Generic recursive walk over the (frozen dataclass) PSL AST."""
    yield node
    if dataclasses.is_dataclass(node) and not isinstance(node, type):
        for field in dataclasses.fields(node):
            value = getattr(node, field.name)
            if isinstance(value, (list, tuple)):
                for item in value:
                    yield from _walk_nodes(item)
            elif dataclasses.is_dataclass(value):
                yield from _walk_nodes(value)


def _comparison_constants(node: object) -> List[object]:
    """Numeric constants the property mentions, for variable domains."""
    values: Dict[object, None] = {}
    for child in _walk_nodes(node):
        if isinstance(child, Const) and isinstance(child.value, (int, float)):
            if not isinstance(child.value, bool):
                values.setdefault(child.value)
    return sorted(values, key=repr)[: MAX_DOMAIN - 2]


def _histories(
    variables: Sequence[str], depth: int, domain: Sequence[object]
) -> Optional[List[List[Dict[str, object]]]]:
    """Every letter history up to ``depth + 1`` long over ``domain``.

    Includes *shorter* histories too, so ``prev`` at trace start (where
    the compiled closures answer False on the missing letter) is
    covered.  Returns None when the enumeration would exceed
    :data:`MAX_HISTORIES`.
    """
    names = list(variables)
    positions = depth + 1
    total = 0
    per_letter = len(domain) ** len(names) if names else 1
    for length in range(1, positions + 1):
        total += per_letter ** length
        if total > MAX_HISTORIES:
            return None
    histories: List[List[Dict[str, object]]] = []
    letter_choices = [
        dict(zip(names, combo))
        for combo in product(domain, repeat=len(names))
    ] or [{}]
    for length in range(1, positions + 1):
        for combo in product(range(len(letter_choices)), repeat=length):
            histories.append([letter_choices[i] for i in combo])
    return histories


def _expr_profile(expr: Expr) -> Optional[Tuple[bool, bool]]:
    """(can be True, can be False) under bounded enumeration, or None
    when over budget / the expression is unsupported."""
    try:
        depth = history_depth(expr)
        fn = bool_function(expr)
    except PslError:
        return None
    variables = sorted(expr.variables())
    domain = [False, True, *_comparison_constants(expr)]
    histories = _histories(variables, depth, domain)
    if histories is None:
        return None
    can_true = can_false = False
    for history in histories:
        if fn(history):
            can_true = True
        else:
            can_false = True
        if can_true and can_false:
            break
    return can_true, can_false


def _automaton_for(item: Sere) -> Optional[SereAutomaton]:
    try:
        automaton = shared_automaton(item)
    except PslError:
        return None
    if len(automaton.atoms) > MAX_ATOMS:
        return None
    return automaton


def _realizable_symbols(automaton: SereAutomaton) -> Optional[Set[int]]:
    """Valuation symbols some variable assignment actually produces."""
    variables = sorted(automaton.variables())
    domain = [False, True, *_comparison_constants(automaton.sere)]
    histories = _histories(variables, automaton.depth, domain)
    if histories is None:
        return None
    return {automaton.valuation(history) for history in histories}


def _syntactic_symbols(automaton: SereAutomaton) -> Optional[List[int]]:
    """The full symbol space, with constant atoms pinned to their value
    (a symbol claiming ``true`` is false is noise, not a reachability
    witness)."""
    free_bits: List[int] = []
    fixed = 0
    for position, atom in enumerate(automaton.atoms):
        if isinstance(atom, Const):
            if atom.value:
                fixed |= 1 << position
        else:
            free_bits.append(position)
    if len(free_bits) > MAX_ATOMS:
        return None
    symbols = []
    for combo in range(1 << len(free_bits)):
        symbol = fixed
        for offset, position in enumerate(free_bits):
            if combo & (1 << offset):
                symbol |= 1 << position
        symbols.append(symbol)
    return symbols


def _explore(
    automaton: SereAutomaton, symbols: Iterable[int]
) -> Optional[Tuple[Set[int], bool]]:
    """BFS from start over ``symbols``: (reachable states, any match).

    None when the automaton grows past :data:`MAX_STATES` or the
    residual set explodes (over budget -- skip the check).
    """
    symbol_list = list(symbols)
    reachable = {automaton.start}
    matched = False
    frontier = [automaton.start]
    try:
        while frontier:
            state = frontier.pop()
            for symbol in symbol_list:
                next_state, hit = automaton.advance(state, symbol)
                if hit:
                    matched = True
                if next_state != automaton.DEAD and next_state not in reachable:
                    reachable.add(next_state)
                    if len(reachable) > MAX_STATES:
                        return None
                    frontier.append(next_state)
    except PslUnsupportedError:
        return None
    return reachable, matched


def _atom_satisfiable(automaton: SereAutomaton, atom: Expr) -> Optional[bool]:
    profile = _expr_profile(atom)
    if profile is None:
        return None
    return profile[0]


class _DirectiveLinter:
    """Lints one directive; findings accumulate in ``self.findings``."""

    def __init__(self, directive: Directive, path: str, model: str):
        self.directive = directive
        self.path = path
        self.model = model
        self.findings: List[Finding] = []

    def _emit(self, rule: str, severity: str, message: str) -> None:
        self.findings.append(Finding(
            rule=rule,
            severity=severity,
            path=self.path,
            line=0,
            message=message,
            model=self.model,
            prop=self.directive.name,
        ))

    # -- rules ------------------------------------------------------------

    def check_unknown_signals(self, namespace: Optional[Set[str]]) -> None:
        if namespace is None:
            return
        unknown = sorted(self.directive.prop.variables() - set(namespace))
        if unknown:
            self._emit(
                "prop.unknown-signal",
                "error",
                f"references signal(s) not in the model letter: "
                f"{', '.join(unknown)}",
            )

    def check_boolean_formula(self) -> None:
        """Tautology/contradiction on the Boolean-invariant shapes."""
        formula = self.directive.prop.formula
        expr: Optional[Expr] = None
        negated = False
        if isinstance(formula, FlAlways):
            body = formula.operand
            if isinstance(body, FlBool):
                expr = body.expr
            elif isinstance(body, FlNot) and isinstance(body.operand, FlBool):
                expr, negated = body.operand.expr, True
        elif isinstance(formula, FlNever) and isinstance(formula.operand, FlBool):
            expr, negated = formula.operand.expr, True
        elif isinstance(formula, FlEventually) and isinstance(
            formula.operand, FlBool
        ):
            profile = _expr_profile(formula.operand.expr)
            if profile is not None and not profile[0]:
                self._emit(
                    "prop.contradiction",
                    "error",
                    "eventually! of an unsatisfiable expression can never hold",
                )
            return
        elif isinstance(formula, FlUntil) and isinstance(formula.right, FlBool):
            if formula.strong:
                profile = _expr_profile(formula.right.expr)
                if profile is not None and not profile[0]:
                    self._emit(
                        "prop.contradiction",
                        "error",
                        "strong until with an unsatisfiable right side "
                        "can never hold",
                    )
            return
        if expr is None:
            return
        profile = _expr_profile(expr)
        if profile is None:
            return
        can_true, can_false = profile
        # the invariant demands expr (negated: !expr) every cycle
        always_holds = not can_false if not negated else not can_true
        never_holds = not can_true if not negated else not can_false
        if always_holds:
            self._emit(
                "prop.tautology",
                "warning",
                "invariant holds under every assignment; it checks nothing",
            )
        elif never_holds:
            self._emit(
                "prop.contradiction",
                "error",
                "invariant fails under every assignment; it cannot hold "
                "on any trace",
            )

    def _sere_targets(self) -> List[Tuple[str, Sere]]:
        """(role, SERE) pairs this directive compiles to automata."""
        formula = self.directive.prop.formula
        targets: List[Tuple[str, Sere]] = []
        if self.directive.kind == DirectiveKind.COVER:
            body = formula
            if isinstance(body, FlEventually):
                body = body.operand
            if isinstance(body, FlSere):
                targets.append(("cover", body.sere))
            elif isinstance(body, FlBool):
                targets.append(("cover", SereBool(body.expr)))
            return targets
        if isinstance(formula, FlNever) and isinstance(formula.operand, FlSere):
            targets.append(("never", formula.operand.sere))
        if isinstance(formula, FlAlways):
            body = formula.operand
            if isinstance(body, FlSuffixImpl):
                targets.append(("antecedent", body.antecedent))
                consequent = body.consequent
                if isinstance(consequent, FlSere):
                    targets.append(("consequent", consequent.sere))
                elif isinstance(consequent, FlBool):
                    targets.append(("consequent", SereBool(consequent.expr)))
            elif isinstance(body, FlImplies) and isinstance(body.left, FlBool):
                targets.append(("antecedent", SereBool(body.left.expr)))
                if isinstance(body.right, FlSere):
                    targets.append(("consequent", body.right.sere))
                elif isinstance(body.right, FlBool):
                    targets.append(("consequent", SereBool(body.right.expr)))
        return targets

    def check_automata(self) -> None:
        """Dead atoms, vacuity, unhittable covers, unreachable states."""
        for role, sere in self._sere_targets():
            automaton = _automaton_for(sere)
            if automaton is None:
                continue
            dead_atoms = self._check_dead_atoms(role, automaton)
            realizable = _realizable_symbols(automaton)
            if realizable is None:
                continue
            real = _explore(automaton, realizable)
            if real is None:
                continue
            real_states, real_match = real
            if not real_match:
                if role == "antecedent":
                    self._emit(
                        "prop.vacuity",
                        "warning",
                        "the antecedent SERE never matches under any "
                        "assignment: the implication holds vacuously",
                    )
                elif role == "cover":
                    self._emit(
                        "prop.contradiction",
                        "error",
                        "the cover SERE never matches under any "
                        "assignment: the goal is unreachable",
                    )
                elif role == "never":
                    self._emit(
                        "prop.tautology",
                        "warning",
                        "the forbidden SERE never matches under any "
                        "assignment: the never holds trivially",
                    )
            # Unreachable states are only reported when a *dead atom*
            # explains them: the full symbol space also contains
            # valuations where satisfiable atoms are merely jointly
            # contradictory (e.g. one atom is the negation of
            # another), and the table states those reach are lazy-DFA
            # artifacts, not property bugs.
            if not dead_atoms:
                continue
            syntactic = _syntactic_symbols(automaton)
            if syntactic is None:
                continue
            full = _explore(automaton, syntactic)
            if full is None:
                continue
            full_states, _ = full
            orphaned = full_states - real_states
            if orphaned:
                self._emit(
                    "prop.unreachable-state",
                    "warning",
                    f"{len(orphaned)} of {len(full_states)} {role} "
                    f"automaton state(s) are reachable only through the "
                    f"unsatisfiable atom(s) "
                    f"{', '.join(repr(str(a)) for a in dead_atoms)}",
                )

    def _check_dead_atoms(
        self, role: str, automaton: SereAutomaton
    ) -> List[Expr]:
        dead: List[Expr] = []
        for atom in automaton.atoms:
            if isinstance(atom, Const):
                continue  # true[*] padding and literals are structural
            satisfiable = _atom_satisfiable(automaton, atom)
            if satisfiable is False:
                dead.append(atom)
                self._emit(
                    "prop.dead-atom",
                    "warning",
                    f"{role} atom '{atom}' is unsatisfiable under any "
                    f"assignment",
                )
        return dead


def lint_directive(
    directive: Directive,
    *,
    namespace: Optional[Set[str]] = None,
    path: str = "<properties>",
    model: str = "",
) -> List[Finding]:
    """All property-lint findings for one directive."""
    linter = _DirectiveLinter(directive, path, model)
    linter.check_unknown_signals(namespace)
    linter.check_boolean_formula()
    linter.check_automata()
    return linter.findings


def lint_properties(
    sources: Iterable,
    *,
    namespace: Optional[Iterable[str]] = None,
    path: str = "<properties>",
    model: str = "",
) -> List[Finding]:
    """Lint a property set (Directives, Properties, Formulas or PSL text).

    ``namespace`` is the model's letter namespace -- the signal names a
    sampled letter carries -- enabling ``prop.unknown-signal``; None
    disables that rule (fixture properties have no model).
    """
    names = set(namespace) if namespace is not None else None
    findings: List[Finding] = []
    for source in sources:
        directive = _as_directive(source)
        findings.extend(
            lint_directive(directive, namespace=names, path=path, model=model)
        )
    return findings
