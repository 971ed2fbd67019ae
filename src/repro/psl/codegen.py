"""Boolean-layer source generator: one lowering for every engine.

The paper compiles PSL (via AsmL) to C# for execution speed.  The
equivalent lever here is lowering each Boolean-layer expression to
Python *source* once and compiling it with :func:`compile`, so a cycle
evaluates straight-line code instead of walking the AST.

Two consumers share the one lowering (:class:`Lowering`):

* :func:`bool_function` -- a per-expression function ``(history) ->
  bool`` over a letter window (current letter last).  The interpreted
  engine's letter view, :class:`~repro.psl.automaton.SereAutomaton`
  valuations and the fused property sets' exact slow path all call it;
* the fused property sets of :mod:`repro.psl.compiled`, which lower
  the union of a set's atoms into one generated step function with
  the signal reads hoisted into locals.

Supported nodes: variables, constants, Boolean connectives,
comparisons, arithmetic, bit selection and the built-ins ``prev``
(constant depth), ``rose``, ``fell``, ``stable``, ``countones``,
``onehot`` and ``onehot0``.  An expression containing anything else
(``isunknown``, ``next``, ``prev`` with a computed depth) is evaluated
whole by :meth:`Expr.eval` -- correctness never depends on the
generator.  A Boolean function maps a missing signal, a too-short
history and :class:`PslEvaluationError` to ``False`` (the monitor
convention); every other exception propagates.

The module also keeps the hit/miss counters of the PSL compile caches
(:data:`COMPILE_STATS`, counted through :func:`count_lookup`), which
:mod:`repro.psl.compiled` and :mod:`repro.psl.automaton` both update.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict, Mapping, Sequence

from ..obs.runtime import OBS
from .ast_nodes import (
    And,
    Arith,
    Compare,
    Const,
    EvalContext,
    Expr,
    Func,
    Iff,
    Implies,
    Index,
    Not,
    Or,
    Var,
    Xor,
    as_bool,
)
from .errors import PslEvaluationError

History = Sequence[Mapping[str, Any]]

#: The exceptions a Boolean function maps to ``False``.
FALSE_ON = (KeyError, IndexError, PslEvaluationError)

#: Nodes whose lowered source already yields a Python bool.
_BOOLEAN_NODES = (Not, And, Or, Xor, Implies, Iff, Index)
_BOOLEAN_FUNCS = ("rose", "fell", "onehot", "onehot0")

_LITERALS = (bool, int, float, str, type(None))


class Unsupported(Exception):
    """An expression node the generator cannot lower."""


def countones(value: Any) -> int:
    """Population count of a BitVector or an integer."""
    if hasattr(value, "count_ones"):
        return value.count_ones()
    return bin(int(value)).count("1")


class Lowering:
    """Lowers Boolean-layer expressions to Python source text.

    ``read(name, offset)`` returns the source of signal ``name``'s raw
    value ``offset`` cycles back; ``read_bool`` its PSL truth (defaults
    to coercing ``read``).  With ``guarded`` the edge built-ins test
    the window length (``H``) first, as a stand-alone function must;
    the fused step function hoists its reads instead, so a short window
    raises and takes the exact slow path.  Values that have no literal
    form land in :attr:`namespace`.
    """

    def __init__(
        self,
        read: Callable[[str, int], str],
        read_bool: Callable[[str, int], str] | None = None,
        guarded: bool = True,
    ):
        self.read = read
        self.read_bool = read_bool
        self.guarded = guarded
        self.namespace: Dict[str, Any] = {
            "as_bool": as_bool,
            "countones": countones,
        }
        self._temps = 0

    def coerce(self, source: str) -> str:
        """``as_bool(source)`` with the common bool case inlined."""
        self._temps += 1
        temp = f"_c{self._temps}"
        return f"({temp} if ({temp} := {source}).__class__ is bool else as_bool({temp}))"

    def boolean(self, expression: Expr, offset: int = 0) -> str:
        """Source of ``as_bool(expression)`` at ``offset`` cycles back."""
        if isinstance(expression, Const) and isinstance(expression.value, bool):
            return repr(expression.value)
        if self.read_bool is not None:
            if isinstance(expression, Var):
                return self.read_bool(expression.name, offset)
            if (
                isinstance(expression, Func)
                and expression.name == "prev"
                and isinstance(expression.args[0], Var)
            ):
                depth = _prev_depth(expression)
                return self.read_bool(expression.args[0].name, offset + depth)
        source = self.value(expression, offset)
        if isinstance(expression, _BOOLEAN_NODES) or (
            isinstance(expression, Func) and expression.name in _BOOLEAN_FUNCS
        ):
            return source
        return self.coerce(source)

    def value(self, expression: Expr, offset: int = 0) -> str:
        """Source of the expression's raw value at ``offset``."""
        if isinstance(expression, Const):
            value = expression.value
            if isinstance(value, _LITERALS):
                return repr(value)
            name = f"_k{len(self.namespace)}"
            self.namespace[name] = value
            return name
        if isinstance(expression, Var):
            return self.read(expression.name, offset)
        if isinstance(expression, Not):
            return f"(not {self.boolean(expression.operand, offset)})"
        if isinstance(expression, (And, Or, Xor, Implies, Iff)):
            left = self.boolean(expression.left, offset)
            right = self.boolean(expression.right, offset)
            if isinstance(expression, And):
                return f"({left} and {right})"
            if isinstance(expression, Or):
                return f"({left} or {right})"
            if isinstance(expression, Xor):
                return f"({left} != {right})"
            if isinstance(expression, Implies):
                return f"((not {left}) or {right})"
            return f"({left} == {right})"
        if isinstance(expression, Compare):
            left = self.value(expression.left, offset)
            right = self.value(expression.right, offset)
            return f"({left} {expression.op} {right})"
        if isinstance(expression, Arith):
            op = "//" if expression.op == "/" else expression.op
            left = self.value(expression.left, offset)
            right = self.value(expression.right, offset)
            return f"({left} {op} {right})"
        if isinstance(expression, Index):
            base = self.value(expression.base, offset)
            index = self.value(expression.index, offset)
            return f"bool(int({base}[int({index})]))"
        if isinstance(expression, Func):
            return self._func(expression, offset)
        raise Unsupported(type(expression).__name__)

    def _func(self, expression: Func, offset: int) -> str:
        name = expression.name
        argument = expression.args[0]
        if name == "prev":
            return self.value(argument, offset + _prev_depth(expression))
        if name in ("rose", "fell", "stable"):
            guard = f"len(H) >= {offset + 2} and " if self.guarded else ""
            if name == "stable":
                current = self.value(argument, offset)
                previous = self.value(argument, offset + 1)
                return f"({guard}{current} == {previous})"
            current = self.boolean(argument, offset)
            previous = self.boolean(argument, offset + 1)
            if name == "rose":
                return f"({guard}({current} and not {previous}))"
            return f"({guard}((not {current}) and {previous}))"
        if name == "countones":
            return f"countones({self.value(argument, offset)})"
        if name in ("onehot", "onehot0"):
            limit = "== 1" if name == "onehot" else "<= 1"
            return f"(countones({self.value(argument, offset)}) {limit})"
        raise Unsupported(f"built-in {name}()")


#: Hit/miss counts of the PSL compile caches (plans and automata),
#: reported by :func:`repro.psl.compiled.compile_cache_stats`.
COMPILE_STATS: Dict[str, int] = {
    "plan_hits": 0,
    "plan_misses": 0,
    "automaton_hits": 0,
    "automaton_misses": 0,
}


def count_lookup(stat: str, metric: str, result: str, n: int = 1) -> None:
    """Count ``n`` compile-cache lookups in :data:`COMPILE_STATS` and,
    with metrics on, in the ``metric`` counter labelled ``result``."""
    COMPILE_STATS[stat] += n
    metrics = OBS.metrics
    if metrics.enabled:
        metrics.counter(metric, result=result).inc(n)


def _prev_depth(expression: Func) -> int:
    """How many cycles back ``prev(x)`` / ``prev(x, n)`` reads."""
    if len(expression.args) == 2:
        if not isinstance(expression.args[1], Const):
            raise Unsupported("prev with a computed depth")
        return int(expression.args[1].value)
    return 1


def _history_read(name: str, offset: int) -> str:
    return f"H[-{offset + 1}][{name!r}]"


def define(source: str, name: str, namespace: Mapping[str, Any]) -> Any:
    """Compile generated ``source`` and return its top-level ``name``."""
    scope = dict(namespace)
    exec(compile(source, f"<psl-generated {name}>", "exec"), scope)
    return scope[name]


@functools.lru_cache(maxsize=None)
def bool_function(expression: Expr) -> Callable[[History], bool]:
    """``(history) -> bool``: the expression's PSL truth at the window's
    end, ``False`` on a missing signal, short history or evaluation
    error.  Memoized per (immutable) expression."""
    lowering = Lowering(_history_read)
    try:
        body = lowering.boolean(expression)
    except Unsupported:
        def interpret(history: History) -> bool:
            try:
                return as_bool(
                    expression.eval(EvalContext(history, len(history) - 1))
                )
            except FALSE_ON:
                return False

        return interpret
    source = (
        "def evaluate(H):\n"
        "    try:\n"
        f"        return {body}\n"
        "    except FALSE_ON:\n"
        "        return False\n"
    )
    return define(source, "evaluate", {**lowering.namespace, "FALSE_ON": FALSE_ON})
