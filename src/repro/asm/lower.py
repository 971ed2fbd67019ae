"""Compiled ASM actions: each ``@action`` lowered once to plain Python.

The paper compiles its AsmL model to C# so the verified design runs
instead of being interpreted.  This module is that step with Python as
the target.  :func:`compile_action` turns one action of one machine
class into a generated function, from the action's source AST, using
:func:`compile`; :func:`bind` closes it over one sealed
:class:`~repro.asm.machine.AsmModel`.  The ``@action`` wrapper calls
the bound function whenever the owner is a sealed model and no step is
active, so every caller (scoreboard lockstep, explorer, runtime) gets
it through the one dispatch path.

The generated code works on the same ``machine._state`` dicts and
``model._globals`` dict the interpreted path uses, and keeps the ASM
step semantics exact:

* a StateVar read on a machine receiver reads the pre-step ``_state``
  in PARALLEL mode, and the step's own pending write first in
  SEQUENTIAL mode;
* a write keeps :func:`freeze`'s fast path and the static-domain
  check.  A PARALLEL write to a location no other write of the step
  can reach (one site, in the action's own body, outside loops) is
  held in locals; every other write is buffered in a dict keyed
  ``(machine, variable)``, and a PARALLEL write that conflicts with an
  earlier one raises the interpreted path's
  :class:`InconsistentUpdateError`;
* ``require(c, msg)`` is an inline ``raise RequirementFailure(msg)``;
* the writes are applied at the end of the action body, so a raise
  leaves the state untouched;
* helper methods and nested ``@action`` calls on machines are lowered
  into the same unit and share the caller's buffer and mode.

The lowerer declines any function it cannot prove it handles (see
``docs/compiled-asm.md`` for the accepted subset), and the action then
runs interpreted.  The decision depends on the source alone.

:func:`compile_replay` generates the scoreboard's per-transaction
replay from a :class:`ReplayScript` declaration: one straight-line
function per script that calls the bound lowered entries directly.
"""

from __future__ import annotations

import ast
import builtins
import copy
import enum
import functools
import inspect
import keyword
import textwrap
import types
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .collections_ import _ATOMIC, _PASSTHROUGH, AsmSet, Map, Seq, freeze
from .errors import AsmError, DomainError, InconsistentUpdateError, RequirementFailure
from .machine import (
    AsmMachine,
    StateVar,
    choose_any,
    choose_max,
    choose_min,
    exists_where,
    for_all,
    require,
)
from .updates import _MISSING, StepMode

__all__ = [
    "CompiledAction",
    "has_require",
    "compile_action",
    "bind",
    "ReplayStep",
    "ReplayScript",
    "CompiledReplay",
    "compile_replay",
]

#: builtins a lowered body may name (pure over data values)
_BUILTINS = frozenset(
    (
        "abs", "all", "any", "bool", "dict", "divmod", "enumerate", "float",
        "frozenset", "hash", "int", "isinstance", "len", "list", "max", "min",
        "range", "repr", "reversed", "round", "set", "sorted", "str", "sum",
        "tuple", "zip",
    )
)

#: ASM vocabulary a lowered body may call (they only see data values)
_HELPERS = (choose_min, choose_max, choose_any, exists_where, for_all, freeze, Seq, Map, AsmSet)

_PREFIX = "_asm_"

#: statements and expressions the lowerer never accepts
_OUTSIDE = (
    ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Global, ast.Nonlocal,
    ast.Import, ast.ImportFrom, ast.With, ast.AsyncWith, ast.Try, ast.Delete,
    ast.NamedExpr, ast.Yield, ast.YieldFrom, ast.Await, ast.AsyncFor, ast.AnnAssign,
)


class _Decline(Exception):
    """The lowerer cannot prove it handles a construct."""


# -- reading source -------------------------------------------------------------

#: function -> rule-R3 answer, filled by whichever reads the source first
_HAS_REQUIRE: Dict[Callable, Optional[bool]] = {}


def _read(func: Callable) -> Optional[str]:
    try:
        source = inspect.getsource(func)
    except (OSError, TypeError):
        source = None
    _HAS_REQUIRE[func] = None if source is None else "require(" in source
    return source


def has_require(func: Callable) -> Optional[bool]:
    """Whether ``func``'s source contains ``require(`` (rule R3), or
    ``None`` without source.  The source is read at most once per
    process, by the rule check or by lowering, whichever comes first."""
    if func not in _HAS_REQUIRE:
        _read(func)
    return _HAS_REQUIRE[func]


def _parse(func: Callable) -> Optional[ast.FunctionDef]:
    """The function's AST, for one lowering; the tree is not kept."""
    source = _read(func)
    if source is None:
        return None
    try:
        body = ast.parse(textwrap.dedent(source)).body
    except SyntaxError:
        return None
    return body[0] if len(body) == 1 and isinstance(body[0], ast.FunctionDef) else None


# -- static types of receiver expressions --------------------------------------


class _Machine(NamedTuple):
    cls: type  # a machine whose type is exactly ``cls``


class _Machines(NamedTuple):
    cls: type  # ``model.machines_of(cls)``


#: the static type of ``self.model``
_MODEL = object()


def _node(source: str) -> ast.expr:
    return ast.parse(source, mode="eval").body


def _src(node: ast.AST) -> str:
    return f"({ast.unparse(node)})"


@dataclass
class _Site:
    """One StateVar write; rendered once the whole unit is known."""

    location: Tuple[type, str]  # (exact machine class, variable)
    body: str
    top_level: bool
    in_loop: bool
    pad: str
    value: str
    receiver: str
    plain: bool  # receiver is the body's own ``self``
    freeze: bool
    domain: Optional[str]
    #: index of the locals holding this write, when it needs no buffer
    local: Optional[int] = None


class _Unit:
    """Everything one entry point reaches: bodies and model-bound names."""

    def __init__(self, mode: StepMode):
        self.mode = mode
        self.names: Dict[Tuple[Callable, type], str] = {}
        self.active: set = set()
        self.bodies: List[Tuple[str, list]] = []
        self.sites: List[_Site] = []
        self.classes: List[type] = []
        self.statevars: List[StateVar] = []
        self.globals: Optional[dict] = None
        #: whether the entry needs the shared buffer dict
        self.buffered = mode is StepMode.SEQUENTIAL

    def machines(self, cls: type) -> str:
        if cls not in self.classes:
            self.classes.append(cls)
        return f"{_PREFIX}ms{self.classes.index(cls)}"

    def statevar(self, var: StateVar) -> str:
        if var not in self.statevars:
            self.statevars.append(var)
        return f"{_PREFIX}sv{self.statevars.index(var)}"

    def body(self, func: Callable, cls: type, name: Optional[str] = None) -> str:
        """Generated name of ``func``'s body with ``self`` typed ``cls``."""
        key = (func, cls)
        if key in self.active:
            raise _Decline(f"recursive call of {func.__qualname__}")
        known = self.names.get(key)
        if known is not None:
            return known
        name = name or f"{_PREFIX}b{len(self.names)}"
        self.names[key] = name
        self.active.add(key)
        self.bodies.append((name, _Body(self, func, cls, name).lower()))
        self.active.discard(key)
        return name

    # -- rendering ---------------------------------------------------------------

    def render(self) -> List[str]:
        """Final source lines of every body, entry last."""
        counts: Dict[tuple, int] = {}
        for site in self.sites:
            counts[site.location] = counts.get(site.location, 0) + 1
        local = [
            site for site in self.sites
            if self.mode is StepMode.PARALLEL
            and site.body == _ENTRY
            and counts[site.location] == 1
            and not site.in_loop
        ]
        for n, site in enumerate(local):
            site.local = n
        self.buffered = self.buffered or len(local) < len(self.sites)
        lines: List[str] = []
        for name, body in self.bodies:
            if name == _ENTRY:
                prologue = [f"    {_PREFIX}w = {{}}"] if self.buffered else []
                prologue += [
                    f"    {_PREFIX}r{site.local} = None" for site in local if not site.top_level
                ]
                body = body[:1] + prologue + body[1:] + self._commit(local)
            for line in body:
                lines += self._site(line) if isinstance(line, _Site) else [line]
        return lines

    def _site(self, site: _Site) -> List[str]:
        pad, n = site.pad, site.local
        value = f"{_PREFIX}v" if n is None else f"{_PREFIX}v{n}"
        lines = [f"{pad}{value} = {site.value}"]
        if site.plain and (n is None or site.top_level):
            receiver = site.receiver
        else:
            receiver = f"{_PREFIX}r" if n is None else f"{_PREFIX}r{n}"
            lines.append(f"{pad}{receiver} = {site.receiver}")
        if site.freeze:
            lines += [
                f"{pad}{_PREFIX}c = {value}.__class__",
                f"{pad}if {_PREFIX}c not in {_PREFIX}AT and {_PREFIX}c not in {_PREFIX}PT:",
                f"{pad}    {value} = {_PREFIX}freeze({value})",
            ]
        if site.domain is not None:
            lines += [
                f"{pad}if not {site.domain}.domain.contains({value}):",
                f"{pad}    raise {_PREFIX}domain_error({site.domain}, {receiver}, {value})",
            ]
        if n is not None:
            return lines
        key = f"({receiver}, {site.location[1]!r})"
        if self.mode is not StepMode.PARALLEL:
            return lines + [f"{pad}{_PREFIX}w[{key}] = {value}"]
        k, p = f"{_PREFIX}k", f"{_PREFIX}p"
        return lines + [
            f"{pad}{k} = {key}",
            f"{pad}{p} = {_PREFIX}w.get({k}, {_PREFIX}MISS)",
            f"{pad}if {p} is not {_PREFIX}MISS and {p} != {value}:",
            f"{pad}    raise {_PREFIX}conflict({k}, {p}, {value})",
            f"{pad}{_PREFIX}w[{k}] = {value}",
        ]

    def _commit(self, local: List[_Site]) -> List[str]:
        """Apply the step at the end of the entry: its own writes (a
        nested one only if it ran), then the buffer."""
        lines = []
        for site in local:
            store = f"._state[{site.location[1]!r}] = {_PREFIX}v{site.local}"
            if site.top_level:
                receiver = site.receiver if site.plain else f"{_PREFIX}r{site.local}"
                lines.append(f"    {receiver}{store}")
            else:
                lines += [
                    f"    if {_PREFIX}r{site.local} is not None:",
                    f"        {_PREFIX}r{site.local}{store}",
                ]
        if self.buffered:
            lines += [
                f"    for ({_PREFIX}m, {_PREFIX}n), {_PREFIX}x in {_PREFIX}w.items():",
                f"        {_PREFIX}m._state[{_PREFIX}n] = {_PREFIX}x",
            ]
        return lines


_ENTRY = f"{_PREFIX}entry"


def _lambda_params(node: ast.Lambda) -> List[str]:
    args = node.args
    named = args.posonlyargs + args.args + args.kwonlyargs
    return [a.arg for a in named + [args.vararg, args.kwarg] if a is not None]


def _machine_class(cls: type) -> None:
    if cls.__eq__ is not object.__eq__ or cls.__hash__ is not object.__hash__:
        raise _Decline(f"{cls.__name__} overrides identity equality")


class _Body(ast.NodeTransformer):
    """Lowers one function body (an action or a helper) of a unit."""

    def __init__(self, unit: _Unit, func: Callable, cls: type, name: str):
        self.unit = unit
        self.func = func
        self.cls = cls
        self.name = name
        self.parallel = unit.mode is StepMode.PARALLEL
        _machine_class(cls)
        tree = _parse(func)
        if tree is None:
            raise _Decline(f"no source for {func.__qualname__}")
        if func.__code__.co_freevars:
            raise _Decline(f"{func.__qualname__} closes over local variables")
        if unit.globals is None:
            unit.globals = func.__globals__
        elif unit.globals is not func.__globals__:
            raise _Decline(f"{func.__qualname__} lives in another module")
        self.tree = tree
        self.params = self._params(tree)
        self.types: Dict[str, Any] = {}
        self._infer_types()

    # -- signature and name typing ---------------------------------------------

    def _params(self, tree: ast.FunctionDef) -> List[str]:
        args = tree.args
        if (
            args.posonlyargs or args.vararg or args.kwonlyargs or args.kwarg
            or args.defaults or not args.args
        ):
            raise _Decline(f"{self.func.__qualname__}: unsupported signature")
        if any(not self._decorator_ok(d) for d in tree.decorator_list):
            raise _Decline(f"{self.func.__qualname__}: unsupported decorator")
        names = [a.arg for a in args.args]
        if any(n.startswith(_PREFIX) for n in names):
            raise _Decline("reserved name")
        return names

    def _decorator_ok(self, node: ast.expr) -> bool:
        target = node.func if isinstance(node, ast.Call) else node
        return isinstance(target, ast.Name) and target.id == "action"

    def _infer_types(self) -> None:
        """Type every local name; decline when one name binds both
        machines and values, or when a construct is outside the subset."""
        nodes = [node for stmt in self.tree.body for node in ast.walk(stmt)]
        bound = set(self.params)
        for node in nodes:
            if isinstance(node, _OUTSIDE) or type(node).__name__ in ("Match", "TryStar"):
                raise _Decline(f"{type(node).__name__} is outside the lowered subset")
            if isinstance(node, ast.Name):
                if node.id.startswith(_PREFIX):
                    raise _Decline("reserved name")
                if isinstance(node.ctx, ast.Store):
                    bound.add(node.id)
            elif isinstance(node, ast.Lambda):
                bound.update(_lambda_params(node))
        self.local_names = frozenset(bound)

        # name -> binding sites: ("type", t), ("expr", e), ("iter", e)
        sites: Dict[str, List[Tuple[str, Any]]] = {name: [] for name in bound}
        sites[self.params[0]].append(("type", _Machine(self.cls)))
        unpacked: List[ast.expr] = []

        def bind_target(target: ast.expr, kind: str, source: ast.expr) -> None:
            if isinstance(target, ast.Name):
                sites[target.id].append((kind, source))
            elif (
                kind == "iter"
                and isinstance(target, ast.Tuple)
                and len(target.elts) == 2
                and all(isinstance(e, ast.Name) for e in target.elts)
                and self._is_builtin_call(source, "enumerate", 1)
            ):
                sites[target.elts[0].id].append(("data", None))
                sites[target.elts[1].id].append(("iter", source.args[0]))
            elif isinstance(target, (ast.Tuple, ast.List, ast.Starred)):
                unpacked.append(source)
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
                        sites[sub.id].append(("data", None))

        for node in nodes:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    bind_target(target, "expr", node.value)
            elif isinstance(node, (ast.For, ast.comprehension)):
                bind_target(node.target, "iter", node.iter)
            elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
                sites[node.target.id].append(("data", None))
            elif isinstance(node, ast.Lambda):
                for name in _lambda_params(node):
                    sites[name].append(("data", None))
        if len(sites[self.params[0]]) > 1:
            raise _Decline(f"{self.params[0]!r} is rebound")
        for name in self.params[1:]:
            sites[name].append(("data", None))

        def site_type(kind: str, source: Any) -> Any:
            if kind == "type":
                return source
            if kind == "data":
                return None
            if kind == "expr":
                return self.typ(source)
            found = self.typ(source)  # iteration: machines lists yield machines
            return _Machine(found.cls) if isinstance(found, _Machines) else None

        # optimistic fixpoint, then a check that every site agrees
        for _ in range(len(sites) + 1):
            changed = False
            for name, entries in sites.items():
                found = [t for t in (site_type(k, s) for k, s in entries) if t is not None]
                kind = found[0] if found else None
                if self.types.get(name) != kind:
                    self.types[name] = kind
                    changed = True
            if not changed:
                break
        for name, entries in sites.items():
            kind = self.types.get(name)
            if any(site_type(k, s) != kind for k, s in entries):
                raise _Decline(f"{name!r} is bound to both machines and values")
        for source in unpacked:
            if self.typ(source) is not None:
                raise _Decline("unpacking machines")

    def _is_builtin_call(self, node: Any, name: str, nargs: int) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == name
            and self._builtin(name)
            and len(node.args) == nargs
            and not node.keywords
            and not any(isinstance(a, ast.Starred) for a in node.args)
        )

    def _builtin(self, name: str) -> bool:
        return name not in self.local_names and name not in self.func.__globals__

    def typ(self, node: ast.expr) -> Any:
        """Static type of an expression: a machine, a machines list, the
        model, or ``None`` for a data value."""
        if isinstance(node, ast.Name):
            return self.types.get(node.id)
        if isinstance(node, ast.Attribute):
            owner = self.typ(node.value)
            if isinstance(owner, _Machine) and node.attr == "model":
                return _MODEL
            return None
        if isinstance(node, ast.Subscript):
            owner = self.typ(node.value)
            return _Machine(owner.cls) if isinstance(owner, _Machines) else None
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "machines_of"
            and self.typ(node.func.value) is _MODEL
            and len(node.args) == 1
            and not node.keywords
            and isinstance(node.args[0], ast.Name)
        ):
            cls = self._global(node.args[0].id)
            if isinstance(cls, type) and issubclass(cls, AsmMachine):
                return _Machines(cls)
            raise _Decline("machines_of() of a non-machine class")
        return None

    def _global(self, name: str) -> Any:
        if name in self.local_names:
            return _MISSING
        value = self.func.__globals__.get(name, _MISSING)
        if value is _MISSING:
            return getattr(builtins, name, _MISSING)
        return value

    # -- expressions -------------------------------------------------------------

    def expr(self, node: ast.expr) -> str:
        return _src(self.visit(copy.deepcopy(node)))

    def receiver(self, node: ast.expr) -> ast.expr:
        """Lower an expression that may be a machine, a machines list or
        the model -- only legal where the caller consumes that type."""
        kind = self.typ(node)
        if kind is None:
            return self.visit(node)
        if isinstance(node, ast.Name):
            return node
        if isinstance(node, ast.Attribute):  # <machine>.model
            return ast.Attribute(self.receiver(node.value), "model", ast.Load())
        if isinstance(node, ast.Subscript):
            return ast.Subscript(self.receiver(node.value), self.visit(node.slice), ast.Load())
        return ast.Name(self.unit.machines(kind.cls), ast.Load())

    def truth(self, node: ast.expr) -> str:
        if isinstance(self.typ(node), _Machines):
            return _src(self.receiver(copy.deepcopy(node)))
        return self.expr(node)

    def visit_Name(self, node: ast.Name) -> ast.expr:
        if not isinstance(node.ctx, ast.Load):
            if isinstance(node.ctx, ast.Del):
                raise _Decline("del")
            return node
        if node.id in self.local_names:
            if self.types.get(node.id) is not None:
                raise _Decline(f"machine value {node.id!r} escapes")
            return node
        value = self._global(node.id)
        if value is _MISSING:
            raise _Decline(f"unresolved name {node.id!r}")
        if node.id not in self.func.__globals__:
            if node.id not in _BUILTINS and not (
                isinstance(value, type) and issubclass(value, BaseException)
            ):
                raise _Decline(f"builtin {node.id!r}")
            return node
        if any(value is helper for helper in _HELPERS):
            return node
        if isinstance(value, type):
            if issubclass(value, (enum.Enum, BaseException)):
                return node
            raise _Decline(f"class {node.id!r}")
        if callable(value) or isinstance(value, types.ModuleType):
            raise _Decline(f"global {node.id!r}")
        return node

    def visit_Attribute(self, node: ast.Attribute) -> ast.expr:
        owner = self.typ(node.value)
        if owner is None:
            return self.generic_visit(node)
        if not isinstance(owner, _Machine) or not isinstance(node.ctx, ast.Load):
            raise _Decline(f"attribute {node.attr!r} of the model or a machines list")
        cls = owner.cls
        if node.attr in cls._state_vars:
            target = _src(self.receiver(node.value))
            if self.parallel:
                return _node(f"{target}._state[{node.attr!r}]")
            return _node(f"{_PREFIX}sq({_PREFIX}w, {target}, {node.attr!r})")
        static = inspect.getattr_static(cls, node.attr, _MISSING)
        if node.attr == "model" or (static is not _MISSING and hasattr(type(static), "__get__")):
            raise _Decline(f"{cls.__name__}.{node.attr} used as a value")
        node.value = self.receiver(node.value)
        return node

    def visit_Subscript(self, node: ast.Subscript) -> ast.expr:
        if self.typ(node) is not None or self.typ(node.value) is not None:
            raise _Decline("machine subscript outside a receiver position")
        return self.generic_visit(node)

    def visit_UnaryOp(self, node: ast.UnaryOp) -> ast.expr:
        if isinstance(node.op, ast.Not) and isinstance(self.typ(node.operand), _Machines):
            node.operand = self.receiver(node.operand)
            return node
        return self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> ast.comprehension:
        node.iter = self._iterable(node.iter)
        node.target = self.visit(node.target)
        node.ifs = [self.visit(test) for test in node.ifs]
        return node

    def _iterable(self, node: ast.expr) -> ast.expr:
        if isinstance(self.typ(node), _Machines):
            return self.receiver(node)
        if self._is_builtin_call(node, "enumerate", 1) and isinstance(
            self.typ(node.args[0]), _Machines
        ):
            node.args[0] = self.receiver(node.args[0])
            return node
        return self.visit(node)

    def visit_Call(self, node: ast.Call) -> ast.expr:
        func = node.func
        if isinstance(func, ast.Attribute):
            owner = self.typ(func.value)
            if owner is _MODEL:
                return self._model_call(node, func.attr)
            if isinstance(owner, _Machine):
                return self._machine_call(node, func, owner.cls)
            if owner is not None:
                raise _Decline("method call on a machines list")
        if self._is_builtin_call(node, "len", 1) and isinstance(self.typ(node.args[0]), _Machines):
            node.args[0] = self.receiver(node.args[0])
            return node
        return self.generic_visit(node)

    def _positional(self, node: ast.Call, low: int, high: int) -> List[str]:
        if node.keywords or any(isinstance(a, ast.Starred) for a in node.args):
            raise _Decline("keyword or starred arguments")
        if not low <= len(node.args) <= high:
            raise _Decline("wrong argument count")
        return [self.expr(a) for a in node.args]

    def _model_call(self, node: ast.Call, method: str) -> ast.expr:
        if method == "get_global":
            args = self._positional(node, 1, 2)
            if self.parallel:
                return _node(f"{_PREFIX}G.get({', '.join(args)})")
            return _node(f"{_PREFIX}gq({_PREFIX}w, {_PREFIX}GO, {', '.join(args)})")
        if method == "set_global":
            args = self._positional(node, 2, 2)
            self.unit.buffered = True
            return _node(
                f"{_PREFIX}sg({_PREFIX}w, {_PREFIX}GO, {', '.join(args)}, {self.parallel})"
            )
        raise _Decline(f"model.{method}")

    def _machine_call(self, node: ast.Call, func: ast.Attribute, cls: type) -> ast.expr:
        static = inspect.getattr_static(cls, func.attr, _MISSING)
        target = inspect.unwrap(static) if hasattr(static, "asm_action") else static
        if not isinstance(target, types.FunctionType):
            raise _Decline(f"{cls.__name__}.{func.attr} is not a plain method")
        params = target.__code__.co_argcount - 1
        args = self._positional(node, params, params)
        name = self.unit.body(target, cls)
        self.unit.buffered = True
        receiver = _src(self.receiver(func.value))
        return _node(f"{name}({_PREFIX}w, {', '.join([receiver] + args)})")

    def generic_visit(self, node: ast.AST) -> ast.AST:
        if isinstance(node, ast.expr) and not isinstance(node, ast.Lambda):
            if self.typ(node) is not None:
                raise _Decline("machine value escapes")
        return super().generic_visit(node)

    # -- statements ----------------------------------------------------------------

    def lower(self) -> list:
        """The body's lines; write sites and entry returns stay markers."""
        params = ", ".join(self.params)
        head = params if self.name == _ENTRY else f"{_PREFIX}w, {params}"
        lines: list = [f"def {self.name}({head}):"]
        lines += self.block(self.tree.body, 1, False)
        return lines

    def block(self, body: List[ast.stmt], depth: int, loop: bool) -> list:
        lines: list = []
        for stmt in body:
            lines += self.statement(stmt, depth, loop)
        return lines or ["    " * depth + "pass"]

    def statement(self, stmt: ast.stmt, depth: int, loop: bool) -> list:
        pad = "    " * depth
        if isinstance(stmt, ast.Expr):
            value = stmt.value
            if isinstance(value, ast.Constant):
                return []
            if (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and self._global(value.func.id) is require
            ):
                return self._require(value, pad)
            return [pad + self.expr(value)]
        if isinstance(stmt, ast.Assign):
            return self._assign(stmt, depth, loop)
        if isinstance(stmt, ast.AugAssign):
            if not isinstance(stmt.target, (ast.Name, ast.Subscript)):
                raise _Decline("augmented attribute assignment")
            return [pad + ast.unparse(self.visit(copy.deepcopy(stmt)))]
        if isinstance(stmt, ast.If):
            lines = [f"{pad}if {self.truth(stmt.test)}:"] + self.block(stmt.body, depth + 1, loop)
            if stmt.orelse:
                lines += [f"{pad}else:"] + self.block(stmt.orelse, depth + 1, loop)
            return lines
        if isinstance(stmt, (ast.For, ast.While)):
            if isinstance(stmt, ast.For):
                iterable = _src(self._iterable(copy.deepcopy(stmt.iter)))
                target = ast.unparse(self.visit(copy.deepcopy(stmt.target)))
                head = f"{pad}for {target} in {iterable}:"
            else:
                head = f"{pad}while {self.truth(stmt.test)}:"
            lines = [head] + self.block(stmt.body, depth + 1, True)
            if stmt.orelse:
                lines += [f"{pad}else:"] + self.block(stmt.orelse, depth + 1, True)
            return lines
        if isinstance(stmt, ast.Return):
            if self.name == _ENTRY:
                raise _Decline("return in an action body")
            value = "" if stmt.value is None else f" {self.expr(stmt.value)}"
            return [f"{pad}return{value}"]
        if isinstance(stmt, (ast.Pass, ast.Break, ast.Continue, ast.Raise, ast.Assert)):
            return [pad + ast.unparse(self.visit(copy.deepcopy(stmt)))]
        raise _Decline(f"{type(stmt).__name__} is outside the lowered subset")

    def _require(self, call: ast.Call, pad: str) -> List[str]:
        if call.keywords or any(isinstance(a, ast.Starred) for a in call.args):
            raise _Decline("require() with keyword arguments")
        if not 1 <= len(call.args) <= 2:
            raise _Decline("require() argument count")
        condition = self.truth(call.args[0])
        message = call.args[1] if len(call.args) == 2 else ast.Constant("")
        if isinstance(message, ast.Constant):
            return [
                f"{pad}if not {condition}:",
                f"{pad}    raise {_PREFIX}RF({message.value!r})",
            ]
        # a computed message is evaluated before the test, as a call would
        return [
            f"{pad}{_PREFIX}c = {condition}",
            f"{pad}{_PREFIX}t = {self.expr(message)}",
            f"{pad}if not {_PREFIX}c:",
            f"{pad}    raise {_PREFIX}RF({_PREFIX}t)",
        ]

    def _assign(self, stmt: ast.Assign, depth: int, loop: bool) -> list:
        pad = "    " * depth
        if len(stmt.targets) != 1:
            raise _Decline("chained assignment")
        target = stmt.targets[0]
        if isinstance(target, ast.Name):
            if self.types.get(target.id) is not None:
                value = _src(self.receiver(copy.deepcopy(stmt.value)))
            else:
                value = self.expr(stmt.value)
            return [f"{pad}{target.id} = {value}"]
        if isinstance(target, ast.Attribute):
            return [self._write(target, stmt.value, depth, loop)]
        if any(isinstance(n, ast.Attribute) for n in ast.walk(target)):
            raise _Decline("attribute inside an unpacking target")
        return [pad + ast.unparse(self.visit(copy.deepcopy(stmt)))]

    def _write(self, target: ast.Attribute, value: ast.expr, depth: int, loop: bool) -> _Site:
        owner = self.typ(target.value)
        if not isinstance(owner, _Machine) or target.attr not in owner.cls._state_vars:
            raise _Decline(f"assignment to attribute {target.attr!r}")
        var = owner.cls._state_vars[target.attr]
        domain = None
        if var.domain is not None and var.domain.is_static:
            domain = self.unit.statevar(var)
        plain = isinstance(target.value, ast.Name) and target.value.id == self.params[0]
        site = _Site(
            location=(owner.cls, target.attr),
            body=self.name,
            top_level=depth == 1,
            in_loop=loop,
            pad="    " * depth,
            value=self.expr(value),
            receiver=_src(self.receiver(copy.deepcopy(target.value))),
            plain=plain,
            freeze=not self._frozen_constant(value),
            domain=domain,
        )
        self.unit.sites.append(site)
        return site

    def _frozen_constant(self, node: ast.expr) -> bool:
        """Whether ``node`` always yields a value :func:`freeze` keeps."""
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            node = node.operand
        if isinstance(node, ast.Constant):
            return type(node.value) in _ATOMIC
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            owner = self._global(node.value.id)
            if isinstance(owner, type) and issubclass(owner, enum.Enum):
                member = getattr(owner, node.attr, None)
                return isinstance(member, owner) and not isinstance(
                    member, (list, tuple, set, frozenset, dict)
                )
        return False


# -- runtime helpers the generated code closes over -------------------------------


class _Globals:
    """Stands in for a machine in buffer keys of ``set_global`` writes."""

    __slots__ = ("_state",)
    name = "$globals"

    def __init__(self, state: dict):
        self._state = state


def _conflict(key: tuple, first: Any, second: Any) -> InconsistentUpdateError:
    return InconsistentUpdateError(f"{key[0].name}.{key[1]}", first, second)


def _domain_error(var: StateVar, machine: AsmMachine, value: Any) -> DomainError:
    return DomainError(
        f"{machine.name}.{var.name}: value {value!r} outside "
        f"domain {var.domain.name!r}"
    )


def _sequential_read(pending: dict, machine: AsmMachine, variable: str) -> Any:
    value = pending.get((machine, variable), _MISSING)
    return machine._state[variable] if value is _MISSING else value


def _sequential_global(pending: dict, holder: _Globals, name: str, default: Any = None) -> Any:
    value = pending.get((holder, name), _MISSING)
    return holder._state.get(name, default) if value is _MISSING else value


def _set_global(pending: dict, holder: _Globals, name: str, value: Any, parallel: bool) -> None:
    value = freeze(value)
    key = (holder, name)
    previous = pending.get(key, _MISSING)
    if parallel and previous is not _MISSING and previous != value:
        raise _conflict(key, previous, value)
    pending[key] = value


#: the factory's parameters, in order; every name gets the prefix
_FACTORY_PARAMS = (
    "GO", "ms", "sv", "RF", "AT", "PT", "freeze", "MISS",
    "conflict", "domain_error", "sq", "gq", "sg",
)


@dataclass(frozen=True)
class CompiledAction:
    """One lowered action: a factory to bind, or the reason it declined."""

    declined: Optional[str]
    factory: Optional[Callable] = None
    classes: Tuple[type, ...] = ()
    constants: tuple = ()


def _generated_factory(unit: _Unit, func: Callable) -> Callable:
    params = ", ".join(f"{_PREFIX}{p}" for p in _FACTORY_PARAMS)
    lines = [f"def {_PREFIX}factory({params}):", f"    {_PREFIX}G = {_PREFIX}GO._state"]
    for slot in range(len(unit.classes)):
        lines.append(f"    {_PREFIX}ms{slot} = {_PREFIX}ms[{slot}]")
    for slot in range(len(unit.statevars)):
        lines.append(f"    {_PREFIX}sv{slot} = {_PREFIX}sv[{slot}]")
    lines += ["    " + line for line in unit.render()]
    # name the entry after the action, so argument errors read the same
    lines.append(f"    {_ENTRY}.__name__ = {func.__name__!r}")
    lines.append(f"    {_ENTRY}.__qualname__ = {func.__qualname__!r}")
    lines.append(f"    return {_ENTRY}")
    module = compile("\n".join(lines), f"<asm-lowered {func.__qualname__}>", "exec")
    factory = next(c for c in module.co_consts if isinstance(c, types.CodeType))
    return types.FunctionType(factory, unit.globals)


@functools.lru_cache(maxsize=None)
def compile_action(cls: type, func: Callable, mode: StepMode) -> CompiledAction:
    """Lower action ``func`` with ``self`` of exactly ``cls``; memoized."""
    unit = _Unit(mode)
    try:
        unit.body(func, cls, _ENTRY)
    except _Decline as reason:
        return CompiledAction(declined=str(reason))
    constants = (
        tuple(unit.statevars),
        RequirementFailure,
        _ATOMIC,
        _PASSTHROUGH,
        freeze,
        _MISSING,
        _conflict,
        _domain_error,
        _sequential_read,
        _sequential_global,
        _set_global,
    )
    factory = _generated_factory(unit, func)
    return CompiledAction(None, factory, tuple(unit.classes), constants)


def bind(model: Any, cls: type, func: Callable, mode: StepMode) -> Optional[Callable]:
    """The lowered entry of ``func`` closed over sealed ``model``, or
    ``None`` when the action runs interpreted.

    Binding checks what the source cannot show: every machine the body
    reaches through ``machines_of(C)`` is exactly of class ``C``.
    """
    compiled = compile_action(cls, func, mode)
    if compiled.factory is None:
        return None
    lists = []
    for kind in compiled.classes:
        machines = model.machines_of(kind)
        if any(type(machine) is not kind for machine in machines):
            return None
        lists.append(machines)
    return compiled.factory(_Globals(model._globals), lists, *compiled.constants)


# -- scoreboard replay: one generated function per transaction script -------------


@dataclass(frozen=True)
class ReplayStep:
    """One call of a transaction script: ``role.action(*args)``, run
    once, or ``repeat`` times when it names a parameter."""

    role: str
    action: str
    args: Tuple[str, ...] = ()
    repeat: Optional[str] = None


@dataclass(frozen=True)
class ReplayScript:
    """A transaction kind's replay on a reference model, declared as data.

    ``roles`` pairs each machine role with its exact machine class;
    ``params`` names the transaction's data.  The generated replay takes
    the role machines, then the parameters, in declared order.
    """

    name: str
    roles: Tuple[Tuple[str, type], ...]
    params: Tuple[str, ...]
    steps: Tuple[ReplayStep, ...]

    def calls(self, params: Sequence[Any]) -> int:
        """How many calls one replay with ``params`` makes."""
        count, repeats = self._counts
        for index in repeats:
            if params[index] > 0:
                count += params[index]
        return count

    @functools.cached_property
    def _counts(self) -> Tuple[int, Tuple[int, ...]]:
        """(calls of the once-steps, param index of each repeat count)"""
        once = sum(step.repeat is None for step in self.steps)
        repeats = [self.params.index(s.repeat) for s in self.steps if s.repeat is not None]
        return once, tuple(repeats)

    def step_at(
        self, n: int, roles: Sequence[Any], params: Sequence[Any]
    ) -> Tuple[Any, str, Tuple[Any, ...]]:
        """The ``n``-th call (0-based) as ``(role value, action, args)``,
        ``roles`` and ``params`` given in declared order."""
        names = [role for role, _ in self.roles]
        for step in self.steps:
            count = 1
            if step.repeat is not None:
                count = max(params[self.params.index(step.repeat)], 0)
            if n < count:
                args = tuple(params[self.params.index(arg)] for arg in step.args)
                return roles[names.index(step.role)], step.action, args
            n -= count
        raise IndexError(f"replay {self.name!r}: call index past the script's end")

    def bind(self, model: Any) -> Callable:
        """The generated replay closed over sealed ``model``'s entries.

        Each action's entry is the model's lowered one (bound on first
        use, as the ``@action`` wrapper would); a declined action, a role
        class with subclassed instances in ``model`` or a model that runs
        interpreted gets the ``@action`` function itself, which takes
        the same ``(self, *args)``.
        """
        compiled = self._compiled
        lowered = model._lowered
        entries = []
        for cls, wrapper in compiled.actions:
            entry = None
            if lowered is not None and all(type(m) is cls for m in model.machines_of(cls)):
                func = wrapper.__wrapped__
                entry = lowered.get((cls, func), _MISSING)
                if entry is _MISSING:
                    entry = model._bind_lowered(cls, func, wrapper.asm_action.mode)
            entries.append(wrapper if entry is None else entry)
        return compiled.factory(AsmError, *entries)

    @functools.cached_property
    def _compiled(self) -> "CompiledReplay":
        return compile_replay(self)


@dataclass(frozen=True)
class CompiledReplay:
    """One script's generated replay: a factory over its actions."""

    factory: Callable
    #: (role class, @action function) per factory slot, in slot order
    actions: Tuple[Tuple[type, Callable], ...]


def _replay_source(script: ReplayScript, slots: Dict[Tuple[str, str], int]) -> List[str]:
    roles = dict(script.roles)
    names = list(roles) + list(script.params)
    if len(set(names)) != len(names) or not all(
        name.isidentifier() and not keyword.iskeyword(name) and not name.startswith(_PREFIX)
        for name in names
    ):
        raise ValueError(f"replay {script.name!r}: roles and params need distinct plain names")
    lines = [f"def replay({', '.join(names)}):"]
    once, repeated = 0, []  # calls made before the current step
    for step in script.steps:
        if step.role not in roles or not {*step.args, step.repeat} <= {*script.params, None}:
            raise ValueError(f"replay {script.name!r}: undeclared name in {step}")
        if not hasattr(getattr(roles[step.role], step.action, None), "asm_action"):
            raise ValueError(f"replay {script.name!r}: {step.action!r} is not an @action")
        slot = slots.setdefault((step.role, step.action), len(slots))
        call = f"{_PREFIX}e{slot}({', '.join((step.role,) + step.args)})"
        before = " + ".join([str(once)] + repeated)
        if step.repeat is None:
            lines += [
                "    try:",
                f"        {call}",
                f"    except {_PREFIX}AE:",
                f"        return {before}",
            ]
            once += 1
        else:
            count = step.repeat
            lines += [
                "    try:",
                f"        for {_PREFIX}k in range({count}):",
                f"            {call}",
                f"    except {_PREFIX}AE:",
                f"        return {before} + {_PREFIX}k",
            ]
            repeated.append(f"({count} if {count} > 0 else 0)")
    return lines + ["    return -1"]


@functools.lru_cache(maxsize=None)
def compile_replay(script: ReplayScript) -> CompiledReplay:
    """Generate ``script``'s replay once per declaration; memoized.

    The replay calls every step's action straight-line (a ``for`` loop
    for a repeated step) and returns -1 when every call succeeded, or
    else how many calls succeeded before one raised an
    :class:`AsmError`.  Any other exception propagates.
    """
    slots: Dict[Tuple[str, str], int] = {}
    lines = _replay_source(script, slots)
    params = ", ".join([f"{_PREFIX}AE"] + [f"{_PREFIX}e{slot}" for slot in range(len(slots))])
    source = [f"def {_PREFIX}factory({params}):"] + ["    " + line for line in lines]
    source.append("    return replay")
    module = compile("\n".join(source), f"<asm-replay {script.name}>", "exec")
    factory = next(c for c in module.co_consts if isinstance(c, types.CodeType))
    roles = dict(script.roles)
    actions = tuple((roles[role], getattr(roles[role], name)) for role, name in slots)
    return CompiledReplay(types.FunctionType(factory, {"__builtins__": builtins}), actions)
