"""Declared monitor letters and the readers generated from them.

The paper's monitors take "the signals that are used in the assertion
... as external signals" (Section 3.2).  A model says once which
signals and module attributes its letter exposes, as an ordered table
of ``name -> expression``::

    MS_LETTER = LetterDeclaration(
        ("bus_free", "wires.owner == -1"),
        each("i", "n_masters",
             ("want{i}", "wires.want[i]"),
             ("blocking{i}", "masters[i].blocking")),
    )

    class MsScenarioSystem(ScenarioSystem):
        letter = MS_LETTER

An expression is a Python expression over the system's attributes.  A
*path* (``wires.want[i]``, ``masters[i].blocking``, ``n_targets``)
resolves against the system once: a path that ends on a
:class:`~repro.sysc.signal.Signal` reads that signal's committed value,
any other path re-reads its last attribute on every sample.  Loop
variables of :func:`each` are constants.  Two helpers are understood:
``any(path)`` over a list of signals and ``bool(x)``; a list of signals
may also be indexed by a run-time value (``wires.stop[wires.addr]``).

Each system *shape* (repetition counts and what each path resolves
to) is lowered once to straight-line source: the bound objects, the
hoisted signal reads and one expression per entry
(:class:`~repro.psl.compiled.LetterSource`).  ``system.letter`` is a
reader generated from it, which reads ``Signal._current`` slots into
one dict literal, in declaration order, and wraps it in a
:class:`~repro.psl.letter.FrozenLetter` that adopts the dict without
copying it.  The same source is the prologue of a fused property
set's sample-and-step, which reads the slots straight into its
property step without building a letter; an ABV harness finds the
shape and the bound objects on the reader (``bound_letter``).  Each
is compiled once per shape on first use and bound to each system's
objects, so building a system costs a few attribute walks and a run
that only samples never compiles the reader.
"""

from __future__ import annotations

import ast
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..psl.compiled import LetterSource
from ..psl.letter import FrozenLetter
from ..sysc.signal import Signal

#: a path step: ("attr", name) or ("index", int)
Step = Tuple[str, Any]
Path = Tuple[Step, ...]

_HELPERS = ("any", "bool")


class _Each:
    """A group of entries repeated for ``var`` in ``range(system.<count>)``."""

    def __init__(self, var: str, count: str, entries: Tuple[Tuple[str, str], ...]):
        self.var = var
        self.count = count
        self.entries = entries


def each(var: str, count: str, *entries: Tuple[str, str]) -> _Each:
    """Repeat ``entries`` once per index below the system's ``count``
    attribute; ``{var}`` in a name and ``var`` in an expression stand
    for the index."""
    return _Each(var, count, entries)


class LetterDeclaration:
    """A model's monitor letter, declared once.

    Assigned as a class attribute, it is a non-data descriptor: the
    first ``system.letter`` builds the system's reader and caches it on
    the instance.
    """

    def __init__(self, *entries: Any):
        self.entries = entries
        self._attr = "letter"
        #: counts -> (names, (expression, loop binding) pairs, paths)
        self._plans: Dict[tuple, tuple] = {}
        #: (counts, kinds) -> the lowered letter of that system shape
        self._factories: Dict[tuple, _Shape] = {}

    def __set_name__(self, owner: type, name: str) -> None:
        self._attr = name

    def __get__(self, system: Any, owner: type = None) -> Any:
        if system is None:
            return self
        reader = self.reader(system)
        system.__dict__[self._attr] = reader
        return reader

    # -- building a reader -----------------------------------------------------

    def reader(self, system: Any) -> Callable[[], FrozenLetter]:
        """A fresh reader bound to ``system``'s signals and modules.

        The reader carries ``(shape, args)`` as ``bound_letter``: an
        ABV harness that finds it reads the same slots straight into
        its generated sample-and-step instead of calling the reader.
        A shape's reader code compiles on the first call of a reader,
        so a run that only ever samples never compiles it.
        """
        shape, args = self.bind(system)
        factory = shape.factory
        if factory is not None:
            read = factory(object.__new__, FrozenLetter, *args)
        else:
            bound = None

            def read() -> FrozenLetter:
                nonlocal bound
                if bound is None:
                    factory = shape.factory or shape.compile()
                    bound = factory(object.__new__, FrozenLetter, *args)
                return bound()

        read.bound_letter = (shape, args)
        return read

    def bind(self, system: Any) -> Tuple["_Shape", List[Any]]:
        """``system``'s letter shape and the objects its code reads."""
        counts = tuple(
            getattr(system, entry.count)
            for entry in self.entries if isinstance(entry, _Each)
        )
        plan = self._plans.get(counts)
        if plan is None:
            plan = self._plans[counts] = self._plan(counts)
        names, expressions, paths = plan
        args: List[Any] = []
        kinds = []
        for path in paths:
            parent, value = _resolve(system, path)
            if isinstance(value, Signal):
                kinds.append("signal")
                args.append(value)
            elif (
                isinstance(value, (list, tuple))
                and all(isinstance(item, Signal) for item in value)
            ):
                kinds.append(len(value))
                args.append(value)
                args.extend(value)
            else:
                kinds.append("value")
                args.append(parent)
        key = (counts, tuple(kinds))
        shape = self._factories.get(key)
        if shape is None:
            shape = self._factories[key] = _Shape(
                (self, key), names, expressions, paths, kinds
            )
        return shape, args

    def _plan(self, counts: tuple) -> tuple:
        """Expand the groups for ``counts``: names, expressions, and the
        distinct paths they read (the trees are re-parsed only when a
        new shape compiles, so the cache holds no syntax trees)."""
        names: List[str] = []
        expressions: List[Tuple[str, Dict[str, int]]] = []
        groups = iter(counts)
        for entry in self.entries:
            if isinstance(entry, _Each):
                for index in range(next(groups)):
                    for name, source in entry.entries:
                        names.append(name.format(**{entry.var: index}))
                        expressions.append((source, {entry.var: index}))
            else:
                name, source = entry
                names.append(name)
                expressions.append((source, {}))
        paths: List[Path] = []
        for source, env in expressions:
            for node in ast.walk(_parse(source, env)):
                path = getattr(node, "path", None)
                if path is not None and path not in paths:
                    paths.append(path)
        return names, expressions, paths


def _parse(source: str, env: Dict[str, int]) -> ast.expr:
    """Parse one expression; substitute loop variables, tag paths."""
    tree = ast.parse(source, mode="eval").body
    tree = _Substitute(env).visit(tree)
    _tag_paths(tree)
    return tree


class _Substitute(ast.NodeTransformer):
    def __init__(self, env: Dict[str, int]):
        self.env = env

    def visit_Name(self, node: ast.Name) -> ast.expr:
        if node.id in self.env:
            return ast.copy_location(ast.Constant(self.env[node.id]), node)
        return node


def _path_of(node: ast.expr):
    """The step tuple of a pure path expression, else None."""
    if isinstance(node, ast.Name):
        return (("attr", node.id),)
    if isinstance(node, ast.Attribute):
        base = _path_of(node.value)
        return None if base is None else base + (("attr", node.attr),)
    if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant):
        base = _path_of(node.value)
        return None if base is None else base + (("index", node.slice.value),)
    return None


def _tag_paths(node: ast.expr) -> None:
    """Mark each maximal path node with its steps (``node.path``)."""
    path = _path_of(node)
    if path is not None:
        node.path = path  # type: ignore[attr-defined]
        return
    children = (
        node.args + [k.value for k in node.keywords]
        if isinstance(node, ast.Call) else ast.iter_child_nodes(node)
    )
    for child in children:
        _tag_paths(child)


def _resolve(system: Any, path: Path) -> Tuple[Any, Any]:
    """(parent, value) of ``path`` on ``system``."""
    parent, value = None, system
    for kind, key in path:
        parent = value
        value = getattr(value, key) if kind == "attr" else value[key]
    return parent, value


class _Shape:
    """One system shape's letter, lowered to Python source once.

    ``source`` is the straight-line code -- bound-object parameters,
    hoisted signal reads and one expression per letter entry -- that
    both the reader (compiled on first use by :meth:`compile`) and a
    fused property set's sample-and-step
    (:meth:`~repro.psl.compiled.FusedPropertySet.sampler`) are built
    from.  Its locals are ``s``/``o``/``l``/``e``/``r`` plus an index,
    names the step generator leaves alone.
    """

    def __init__(
        self,
        key: tuple,
        names: List[str],
        expressions: List[Tuple[str, Dict[str, int]]],
        paths: List[Path],
        kinds: List[Any],
    ):
        params: List[str] = []
        for k, kind in enumerate(kinds):
            if kind == "signal":
                params.append(f"s{k}")
            elif kind == "value":
                params.append(f"o{k}")
            else:
                params.append(f"l{k}")
                params.extend(f"e{k}_{j}" for j in range(kind))
        index = {path: k for k, path in enumerate(paths)}
        trees = [_parse(source, env) for source, env in expressions]
        # a signal read more than once is read into a local first
        uses = [0] * len(paths)
        for tree in trees:
            for node in ast.walk(tree):
                if hasattr(node, "path"):
                    uses[index[node.path]] += 1
        hoisted = [
            k for k, kind in enumerate(kinds) if kind == "signal" and uses[k] > 1
        ]
        lower = _Lower(index, kinds, set(hoisted))
        self.source = LetterSource(
            key=key,
            names=tuple(names),
            params=tuple(params),
            lines=tuple(f"r{k} = s{k}._current" for k in hoisted),
            values=tuple(ast.unparse(lower.visit(tree)) for tree in trees),
        )
        #: the compiled reader factory, once a reader was called
        self.factory: Optional[Callable] = None

    def compile(self) -> Callable:
        """Generate and compile the reader factory for this shape."""
        letter = self.source
        items = ", ".join(
            f"{name!r}: {value}" for name, value in zip(letter.names, letter.values)
        )
        lines = [f"def bind(_new, _FL, {', '.join(letter.params)}):", "    def read():"]
        lines += [f"        {line}" for line in letter.lines]
        lines += [
            "        letter = _new(_FL)",
            f"        letter._data = {{{items}}}",
            "        letter._hash = None",
            "        return letter",
            "    return read",
        ]
        source = "\n".join(lines) + "\n"
        scope: Dict[str, Any] = {}
        exec(compile(source, "<letter reader>", "exec"), scope)
        factory = scope["bind"]
        factory.source = source
        self.factory = factory
        return factory


def _as_bool(test: ast.expr) -> ast.expr:
    """``True if test else False``: bool() without the call."""
    return ast.IfExp(test, ast.Constant(True), ast.Constant(False))


class _Lower(ast.NodeTransformer):
    """Rewrite an expression tree into reads of the bound objects."""

    def __init__(self, index: Dict[Path, int], kinds: List[Any], hoisted: set):
        self.index = index
        self.kinds = kinds
        self.hoisted = hoisted

    def _path(self, node: ast.expr):
        path = getattr(node, "path", None)
        return None if path is None else self.index[path]

    def generic_visit(self, node: ast.AST) -> ast.AST:
        k = self._path(node)  # type: ignore[arg-type]
        if k is None:
            return super().generic_visit(node)
        kind = self.kinds[k]
        if kind == "signal":
            if k in self.hoisted:
                return ast.Name(f"r{k}", ast.Load())
            return ast.Attribute(ast.Name(f"s{k}", ast.Load()), "_current", ast.Load())
        if kind == "value":
            step, key = node.path[-1]  # type: ignore[attr-defined]
            owner = ast.Name(f"o{k}", ast.Load())
            if step == "attr":
                return ast.Attribute(owner, key, ast.Load())
            return ast.Subscript(owner, ast.Constant(key), ast.Load())
        raise TypeError(
            f"letter expression uses the signal list {ast.unparse(node)!r} "
            f"as a value; wrap it in any(...) or index it"
        )

    def visit_Call(self, node: ast.Call) -> ast.expr:
        func = node.func
        if not (isinstance(func, ast.Name) and func.id in _HELPERS
                and len(node.args) == 1 and not node.keywords):
            raise TypeError(
                f"letter expressions may call only any(x) and bool(x), "
                f"not {ast.unparse(node)!r}"
            )
        (arg,) = node.args
        if func.id == "bool":
            return _as_bool(self.visit(arg))
        k = self._path(arg)
        if k is None or not isinstance(self.kinds[k], int):
            raise TypeError(f"any() takes a list of signals, not {ast.unparse(arg)!r}")
        width = self.kinds[k]
        if width == 0:
            return ast.Constant(False)
        reads = [
            ast.Attribute(ast.Name(f"e{k}_{j}", ast.Load()), "_current", ast.Load())
            for j in range(width)
        ]
        test = reads[0] if width == 1 else ast.BoolOp(ast.Or(), reads)
        return _as_bool(test)

    def visit_Subscript(self, node: ast.Subscript) -> ast.expr:
        k = self._path(node.value)
        if k is None or not isinstance(self.kinds[k], int):
            return self.generic_visit(node)  # type: ignore[return-value]
        # a signal list indexed by a run-time value
        item = ast.Subscript(
            ast.Name(f"l{k}", ast.Load()), self.visit(node.slice), ast.Load()
        )
        return ast.Attribute(item, "_current", ast.Load())
