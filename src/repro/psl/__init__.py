"""Property Specification Language (Accellera PSL 1.01 subset).

Implements the three layers the paper's methodology uses (Section 2.1):
the Boolean layer (typed expressions and built-in functions), the
temporal layer (SEREs and FL formulas with the LRM's four-valued
finite-trace semantics), and the verification layer (directives and
vunits).  The modeling layer is VHDL/Verilog-specific and intentionally
out of scope, exactly as in the paper.

Entry points:

* :func:`parse_formula` / :func:`parse_vunit` -- concrete syntax,
* :func:`verdict` -- four-valued evaluation on a recorded trace,
* :func:`compile_properties` -- build online assertion monitors (the
  table-driven compiled engine by default, the derivative interpreter
  on request) -- the one public construction path,
* :class:`AssertionProperty` -- embed a property into FSM exploration.
"""

from .ast_nodes import (
    FALSE,
    INFINITY,
    TRUE,
    And,
    Arith,
    Compare,
    Const,
    Directive,
    DirectiveKind,
    EvalContext,
    Expr,
    FlAbort,
    FlAlways,
    FlAnd,
    FlBefore,
    FlBool,
    FlClocked,
    FlEventually,
    FlIff,
    FlImplies,
    FlNever,
    FlNext,
    FlNextA,
    FlNextE,
    FlNextEvent,
    FlNot,
    FlOr,
    FlSere,
    FlSuffixImpl,
    FlUntil,
    Formula,
    Func,
    Iff,
    Implies,
    Index,
    Not,
    Or,
    Property,
    Sere,
    SereAnd,
    SereBool,
    SereConcat,
    SereFusion,
    SereGoto,
    SereNonConsec,
    SereOr,
    SereRepeat,
    Var,
    VUnit,
    Xor,
    always,
    eventually,
    never,
    next_,
    sere,
    sere_within,
    strong_next,
    suffix_implication,
    until,
)
from .asm_embedding import (
    AssertionProperty,
    PslAssertion,
    PslOperator,
    PslPropertyAsm,
    PslSequence,
    PslSere,
    SereEvaluation,
    state_extractor,
)
from .boolean_layer import (
    PslBit,
    PslBitVector,
    PslBoolean,
    PslNumeric,
    PslString,
    PslType,
    SignalHistory,
    coerce,
)
from .errors import (
    PslError,
    PslEvaluationError,
    PslParseError,
    PslTypeError,
    PslUnsupportedError,
)
from .compiled import (
    CompiledCover,
    CompiledProperty,
    CompiledSuffixImplication,
    FusedPropertySet,
    SereAutomaton,
    clear_compile_caches,
    compile_cache_stats,
    compile_properties,
    compile_property,
    default_engine,
    property_digest,
    set_default_engine,
    shared_automaton,
)
from .monitor import (
    BooleanInvariantMonitor,
    BooleanUntilMonitor,
    CoverMonitor,
    EventuallyMonitor,
    Monitor,
    MonitorReport,
    NeverSereMonitor,
    ReplayMonitor,
    SereTracker,
    SuffixImplicationMonitor,
    build_monitor,
    run_monitor,
)
from .parser import parse_bool, parse_directive, parse_formula, parse_sere, parse_vunit
from .semantics import Evaluator, Verdict, View, satisfies, verdict
from .sere import Matcher, match_ends, tightly_matches

__all__ = [
    # ast
    "FALSE", "INFINITY", "TRUE", "And", "Arith", "Compare", "Const",
    "Directive", "DirectiveKind", "EvalContext", "Expr", "FlAbort",
    "FlAlways", "FlAnd", "FlBefore", "FlBool", "FlClocked", "FlEventually",
    "FlIff", "FlImplies", "FlNever", "FlNext", "FlNextA", "FlNextE",
    "FlNextEvent", "FlNot", "FlOr", "FlSere", "FlSuffixImpl", "FlUntil",
    "Formula", "Func", "Iff", "Implies", "Index", "Not", "Or", "Property",
    "Sere", "SereAnd", "SereBool", "SereConcat", "SereFusion", "SereGoto",
    "SereNonConsec", "SereOr", "SereRepeat", "Var", "VUnit", "Xor",
    "always", "eventually", "never", "next_", "sere", "sere_within",
    "strong_next", "suffix_implication", "until",
    # embedding
    "AssertionProperty", "PslAssertion", "PslOperator", "PslPropertyAsm",
    "PslSequence", "PslSere", "SereEvaluation", "state_extractor",
    # boolean layer
    "PslBit", "PslBitVector", "PslBoolean", "PslNumeric", "PslString",
    "PslType", "SignalHistory", "coerce",
    # errors
    "PslError", "PslEvaluationError", "PslParseError", "PslTypeError",
    "PslUnsupportedError",
    # monitors
    "BooleanInvariantMonitor", "BooleanUntilMonitor", "CoverMonitor",
    "EventuallyMonitor", "Monitor", "MonitorReport", "NeverSereMonitor",
    "ReplayMonitor", "SereTracker", "SuffixImplicationMonitor",
    "build_monitor", "run_monitor",
    # compiled engine
    "CompiledCover", "CompiledProperty", "CompiledSuffixImplication",
    "FusedPropertySet", "SereAutomaton", "clear_compile_caches",
    "compile_cache_stats", "compile_properties", "compile_property",
    "default_engine", "property_digest", "set_default_engine",
    "shared_automaton",
    # parsing
    "parse_bool", "parse_directive", "parse_formula", "parse_sere",
    "parse_vunit",
    # semantics
    "Evaluator", "Verdict", "View", "satisfies", "verdict",
    # sere
    "Matcher", "match_ends", "tightly_matches",
]
