"""Static delta-cycle race detection over SystemC-style model sources.

The models under ``models/*/systemc_model.py`` follow one layout: a
signal-container class whose ``__init__`` builds :class:`Signal`s, a
set of :class:`Module` subclasses registering generator processes, and
a top-level system class instantiating modules (some plurally -- list
comprehensions or append loops).  This pass rebuilds that structure
from the AST, extracts every signal access in every process body (with
local-alias resolution, so ``owner = wires.owner; owner.write(i)``
counts), and checks the delta-cycle discipline the kernel assumes:

``race.multi-driver``
    A signal writable by two different module classes, or by a
    plurally-instantiated class through anything but a
    ``self``-anchored index (the instance's own ``self.index``).  Two
    same-delta writes are last-write-wins in :meth:`Signal.write` --
    scheduler order decides the value.
``race.read-after-write``
    A process reads a signal it wrote earlier in the same straight-
    line segment (no ``yield`` between): the read sees the pre-delta
    value, which is correct SystemC semantics but a classic
    "why is my write not visible" ordering trap.
``race.shared-state``
    A plurally-instantiated process calls a method on a shared peer
    object that mutates plain (non-Signal) attributes: those updates
    commit immediately, so same-delta ordering between callers is
    scheduler-defined.
``race.wait-free-loop``
    A ``while`` loop in a process body with no ``yield`` on any path:
    the process can never cede control inside it, a livelock candidate
    the kernel would only catch as a delta-cycle-limit blowup.

The pass is a heuristic linter, not a proof: branches are walked in
sequence, loops once, and indexes classify only as literal /
``self``-anchored / dynamic.  Intentional protocol patterns (a bus
grant serializing writers, for instance) are expected -- document them
with ``# repro: allow[rule] reason`` on the signal declaration or the
flagged access.
"""

from __future__ import annotations

import ast
import copy
import functools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from .findings import Finding

#: Base-class names that mark a class as a module with processes.
_MODULE_BASES = {"Module"}
#: Base-class names that mark a native kernel process (``execute`` body).
_PROCESS_BASES = {"Process", "ThreadProcess", "MethodProcess"}
#: Method names that register a process body on a module.
_PROCESS_REGISTRARS = {"thread", "method"}


@dataclass(frozen=True)
class SignalDecl:
    """One ``self.attr = Signal(...)`` (or list-of) declaration."""

    container: str
    attr: str
    kind: str  # "scalar" | "array"
    lineno: int
    #: constant parts of the Signal name argument, for witness mapping
    #: (f"want{i}" -> ("want", ""); "owner" -> ("owner",))
    name_parts: Tuple[str, ...] = ()
    #: the source file declaring it
    path: str = ""


@dataclass(frozen=True)
class SignalRef:
    """A resolved signal access target."""

    scope: str  # "shared" or the owning class name (module-local)
    attr: str
    index: Optional[object] = None  # None | "self" | "dyn" | ("lit", n)


@dataclass(frozen=True)
class ObjChain:
    """A resolved non-signal object reference (``self.slaves[i]``)."""

    path: Tuple[str, ...]
    index: Optional[object] = None


@dataclass(frozen=True)
class Access:
    """One signal read/write (or peer method call) inside a process."""

    kind: str  # "read" | "write" | "call"
    target: Union[SignalRef, ObjChain]
    method: str  # callee name for kind == "call", else ""
    lineno: int
    cls: str
    process: str
    path: str


@dataclass
class ModelStructure:
    """Everything the checks need, rebuilt from the sources."""

    path: str
    decls: Dict[str, SignalDecl] = field(default_factory=dict)
    plural: Dict[str, str] = field(default_factory=dict)  # class -> mult
    #: module classes each top-level class builds (transitively); two
    #: module classes share a design only if one of these holds both
    systems: List[Set[str]] = field(default_factory=list)
    accesses: List[Access] = field(default_factory=list)
    #: (class, process, path, line) of each while loop with no yield
    wait_free_loops: List[Tuple[str, str, str, int]] = field(
        default_factory=list
    )
    mutating_methods: Dict[Tuple[str, str], int] = field(default_factory=dict)
    #: per-process ordered (read/write/call/yield) event streams; each
    #: non-yield event ends with the path of the file its line is in
    streams: List[Tuple[Tuple[str, str], List[tuple]]] = field(
        default_factory=list
    )
    process_count: int = 0


def _base_names(cls: ast.ClassDef) -> Set[str]:
    names: Set[str] = set()
    for base in cls.bases:
        if isinstance(base, ast.Name):
            names.add(base.id)
        elif isinstance(base, ast.Attribute):
            names.add(base.attr)
    return names


def _init_of(cls: ast.ClassDef) -> Optional[ast.FunctionDef]:
    for node in cls.body:
        if isinstance(node, ast.FunctionDef) and node.name == "__init__":
            return node
    return None


def _is_signal_call(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and (
        (isinstance(node.func, ast.Name) and node.func.id == "Signal")
        or (isinstance(node.func, ast.Attribute) and node.func.attr == "Signal")
    )


def _signal_name_parts(call: ast.Call) -> Tuple[str, ...]:
    """Constant fragments of the Signal name argument (args[1])."""
    if len(call.args) < 2:
        return ()
    name = call.args[1]
    if isinstance(name, ast.Constant) and isinstance(name.value, str):
        return (name.value,)
    if isinstance(name, ast.JoinedStr):
        parts: List[str] = []
        for value in name.values:
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                parts.append(value.value)
            else:
                parts.append("")
        return tuple(parts)
    return ()


def _self_attr_target(node: ast.AST) -> Optional[str]:
    """``self.X`` assignment target -> ``X``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _contains_signal_call(node: ast.AST) -> Optional[ast.Call]:
    for child in ast.walk(node):
        if _is_signal_call(child):
            return child  # type: ignore[return-value]
    return None


def _collect_signal_decls(
    cls: ast.ClassDef, path: str = ""
) -> Dict[str, SignalDecl]:
    """``self.X = Signal(...)`` / ``self.X = [Signal(...) ...]`` in __init__."""
    decls: Dict[str, SignalDecl] = {}
    init = _init_of(cls)
    if init is None:
        return decls
    for stmt in ast.walk(init):
        if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
            continue
        attr = _self_attr_target(stmt.targets[0])
        if attr is None:
            continue
        if _is_signal_call(stmt.value):
            decls[attr] = SignalDecl(
                cls.name, attr, "scalar", stmt.lineno,
                _signal_name_parts(stmt.value),  # type: ignore[arg-type]
                path,
            )
        elif isinstance(stmt.value, (ast.ListComp, ast.List)):
            call = _contains_signal_call(stmt.value)
            if call is not None:
                decls[attr] = SignalDecl(
                    cls.name, attr, "array", stmt.lineno,
                    _signal_name_parts(call), path,
                )
    return decls


def _classify_index(node: ast.AST) -> object:
    """Literal / ``self``-anchored / dynamic index classification.

    Only the instance's own ``self.index`` anchors: a register such as
    ``self._slave_index`` selects a shared slot that several instances
    may pick, so it is dynamic."""
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return ("lit", node.value)
    for child in ast.walk(node):
        if (
            isinstance(child, ast.Attribute)
            and child.attr == "index"
            and isinstance(child.value, ast.Name)
            and child.value.id == "self"
        ):
            return "self"
    return "dyn"


def _self_callees(cls: ast.ClassDef) -> Dict[str, List[str]]:
    """``self.<attr>(...)`` -> the same-class methods that call runs.

    A method runs itself.  A phase machine's handler register
    (``self._phase = self._phase_fetch``, dispatched as
    ``self._phase()``) runs every method the class ever assigns to it,
    in definition order.
    """
    methods = [n.name for n in cls.body if isinstance(n, ast.FunctionDef)]
    callees = {name: [name] for name in methods}
    held: Dict[str, Set[str]] = {}
    for node in ast.walk(cls):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            attr = _self_attr_target(node.targets[0])
            if attr is not None and attr not in callees:
                for value in ast.walk(node.value):
                    held.setdefault(attr, set()).add(_self_attr_target(value))
    for attr, names in held.items():
        handlers = [name for name in methods if name in names]
        if handlers:
            callees[attr] = handlers
    return callees


class _ProcessWalker:
    """Walks one process body in source order, emitting ordered events.

    Events are tuples: ``("read"|"write", SignalRef, lineno, path)``,
    ``("call", ObjChain, lineno, method, path)``, ``("yield",)``; the
    path is the file of the method the line is in (an inherited method
    lives in its base class's file).  Same-class
    helper calls (``yield from self._helper(...)`` or plain
    ``self._helper(...)``) are inlined so their traffic lands in the
    caller's stream at the call point; a phase dispatch through a
    handler register (``self._phase()``) inlines every handler the
    register can hold, in definition order.
    """

    def __init__(self, cls: ast.ClassDef, shared_attrs: Dict[str, SignalDecl],
                 local_attrs: Dict[str, SignalDecl], paths: Dict[int, str],
                 callees: Dict[str, List[str]]):
        self.cls = cls
        #: id(method node) -> its file; the walk's current file
        self.paths = paths
        self.path = ""
        self.methods = {
            n.name: n for n in cls.body if isinstance(n, ast.FunctionDef)
        }
        self.callees = callees
        self.shared_attrs = shared_attrs
        self.local_attrs = local_attrs
        self.aliases: Dict[str, object] = {}
        self._visited: Set[str] = set()

    # -- resolution -------------------------------------------------------

    def resolve(self, node: ast.AST) -> Optional[object]:
        """Expression -> SignalRef / ObjChain / None."""
        if isinstance(node, ast.Name):
            return self.aliases.get(node.id)
        if isinstance(node, ast.Attribute):
            attr = node.attr
            if attr in self.shared_attrs:
                return SignalRef("shared", attr)
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                if attr in self.local_attrs:
                    return SignalRef(self.cls.name, attr)
                return ObjChain(("self", attr))
            base = self.resolve(node.value)
            if isinstance(base, ObjChain):
                return ObjChain(base.path + (attr,), base.index)
            return None
        if isinstance(node, ast.Subscript):
            base = self.resolve(node.value)
            index = _classify_index(node.slice)
            if isinstance(base, SignalRef) and base.index is None:
                return SignalRef(base.scope, base.attr, index)
            if isinstance(base, ObjChain) and base.index is None:
                return ObjChain(base.path, index)
            return None
        return None

    # -- expression walking (eval order approximated) ---------------------

    def walk_expr(self, node: ast.AST, events: List[tuple]) -> None:
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute):
                target = self.resolve(func.value)
                if isinstance(target, SignalRef) and func.attr in ("read", "write"):
                    for arg in node.args:
                        self.walk_expr(arg, events)
                    events.append((func.attr, target, node.lineno, self.path))
                    return
                if isinstance(target, ObjChain):
                    for arg in node.args:
                        self.walk_expr(arg, events)
                    events.append(
                        ("call", target, node.lineno, func.attr, self.path)
                    )
                    return
                # unresolved receiver: maybe a same-class helper call
                # or a phase dispatch
                reached = self.callees.get(_self_attr_target(func) or "")
                if reached:
                    for arg in node.args:
                        self.walk_expr(arg, events)
                    for method in reached:
                        self._inline(method, events)
                    return
            for child in ast.iter_child_nodes(node):
                self.walk_expr(child, events)
            return
        if isinstance(node, ast.YieldFrom):
            # ``yield from self._helper(...)``: inline the helper's
            # events (its own yields included) at this point.
            value = node.value
            if (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and isinstance(value.func.value, ast.Name)
                and value.func.value.id == "self"
                and value.func.attr in self.methods
            ):
                for arg in value.args:
                    self.walk_expr(arg, events)
                self._inline(value.func.attr, events)
                return
            self.walk_expr(value, events)
            events.append(("yield",))
            return
        if isinstance(node, ast.Yield):
            if node.value is not None:
                self.walk_expr(node.value, events)
            events.append(("yield",))
            return
        for child in ast.iter_child_nodes(node):
            self.walk_expr(child, events)

    def _inline(self, method: str, events: List[tuple]) -> None:
        if method in self._visited:
            return
        self._visited.add(method)
        caller_path = self.path
        node = self.methods[method]
        self.path = self.paths.get(id(node), caller_path)
        self.walk_stmts(node.body, events)
        self.path = caller_path
        self._visited.discard(method)

    # -- statement walking ------------------------------------------------

    def walk_stmts(self, stmts: Sequence[ast.stmt], events: List[tuple]) -> None:
        for stmt in stmts:
            if isinstance(stmt, ast.Assign):
                self.walk_expr(stmt.value, events)
                if len(stmt.targets) == 1 and isinstance(stmt.targets[0], ast.Name):
                    resolved = self.resolve(stmt.value)
                    if resolved is not None:
                        self.aliases[stmt.targets[0].id] = resolved
                    else:
                        self.aliases.pop(stmt.targets[0].id, None)
                else:
                    for target in stmt.targets:
                        self.walk_expr(target, events)
            elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
                if stmt.value is not None:
                    self.walk_expr(stmt.value, events)
            elif isinstance(stmt, ast.Expr):
                self.walk_expr(stmt.value, events)
            elif isinstance(stmt, ast.While):
                self.walk_expr(stmt.test, events)
                self.walk_stmts(stmt.body, events)
                self.walk_stmts(stmt.orelse, events)
            elif isinstance(stmt, ast.For):
                self.walk_expr(stmt.iter, events)
                self._alias_loop_target(stmt)
                self.walk_stmts(stmt.body, events)
                self.walk_stmts(stmt.orelse, events)
            elif isinstance(stmt, ast.If):
                self.walk_expr(stmt.test, events)
                self.walk_stmts(stmt.body, events)
                self.walk_stmts(stmt.orelse, events)
            elif isinstance(stmt, ast.Try):
                self.walk_stmts(stmt.body, events)
                for handler in stmt.handlers:
                    self.walk_stmts(handler.body, events)
                self.walk_stmts(stmt.orelse, events)
                self.walk_stmts(stmt.finalbody, events)
            elif isinstance(stmt, ast.With):
                for item in stmt.items:
                    self.walk_expr(item.context_expr, events)
                self.walk_stmts(stmt.body, events)
            elif isinstance(stmt, ast.Return) and stmt.value is not None:
                self.walk_expr(stmt.value, events)
            # pass/break/continue/raise: no signal traffic to extract

    def _alias_loop_target(self, stmt: ast.For) -> None:
        """``for x in array`` / ``for i, x in enumerate(array)``: ``x``
        aliases a dynamically-indexed element of the array."""
        iter_node = stmt.iter
        element_target: Optional[ast.Name] = None
        array_node: Optional[ast.AST] = None
        if (
            isinstance(iter_node, ast.Call)
            and isinstance(iter_node.func, ast.Name)
            and iter_node.func.id == "enumerate"
            and iter_node.args
            and isinstance(stmt.target, ast.Tuple)
            and len(stmt.target.elts) == 2
            and isinstance(stmt.target.elts[1], ast.Name)
        ):
            element_target = stmt.target.elts[1]
            array_node = iter_node.args[0]
        elif isinstance(stmt.target, ast.Name):
            element_target = stmt.target
            array_node = iter_node
        if element_target is None or array_node is None:
            return
        base = self.resolve(array_node)
        if isinstance(base, SignalRef) and base.index is None:
            self.aliases[element_target.id] = SignalRef(base.scope, base.attr, "dyn")
        elif isinstance(base, ObjChain) and base.index is None:
            self.aliases[element_target.id] = ObjChain(base.path, "dyn")
        else:
            self.aliases.pop(element_target.id, None)

    def run(self, body_method: str) -> List[tuple]:
        """Walk ``body_method`` and return its ordered event stream."""
        events: List[tuple] = []
        method = self.methods.get(body_method)
        if method is None:
            return events
        self._visited.add(body_method)
        self.path = self.paths.get(id(method), "")
        self.walk_stmts(method.body, events)
        return events


def _process_bodies(cls: ast.ClassDef) -> List[str]:
    """Process entry methods: ``self.thread(self.run)`` registrations,
    plus ``execute`` for native Process subclasses."""
    bodies: List[str] = []
    if _base_names(cls) & _PROCESS_BASES:
        bodies.append("execute")
    init = _init_of(cls)
    if init is not None:
        for node in ast.walk(init):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _PROCESS_REGISTRARS
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "self"
                and node.args
            ):
                body = node.args[0]
                if (
                    isinstance(body, ast.Attribute)
                    and isinstance(body.value, ast.Name)
                    and body.value.id == "self"
                ):
                    bodies.append(body.attr)
    return bodies


def _instantiations(cls: ast.ClassDef, names: Set[str]) -> Dict[str, str]:
    """The classes of ``names`` that ``cls.__init__`` instantiates, each
    ``"plural"`` (comprehension, loop, or instantiated twice) or
    ``"singular"``."""
    found: Dict[str, str] = {}
    init = _init_of(cls)
    if init is None:
        return found

    def called_class(node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else None
            )
            if name in names:
                return name
        return None

    comprehension_nodes: Set[int] = set()
    for node in ast.walk(init):
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            name = called_class(node.elt)
            if name is not None:
                _record(found, name, "plural")
                for sub in ast.walk(node):
                    comprehension_nodes.add(id(sub))
        elif isinstance(node, ast.For):
            for child in ast.walk(node):
                name = called_class(child)
                if name is not None:
                    _record(found, name, "plural")
                    comprehension_nodes.add(id(child))
    for node in ast.walk(init):
        if id(node) in comprehension_nodes:
            continue
        name = called_class(node)
        if name is not None:
            _record(found, name, "singular")
    return found


def _record(found: Dict[str, str], name: str, mult: str) -> None:
    if found.get(name) == "plural" or mult == "plural":
        found[name] = "plural"
    else:
        # a second singular instantiation still means two instances
        found[name] = "plural" if name in found else "singular"


def _collect_systems(
    other_classes: List[ast.ClassDef], module_names: Set[str],
    structure: ModelStructure,
) -> None:
    """Module multiplicity and coexistence, per top-level class.

    A top-level class is a non-module class no other source class
    instantiates (a system); it builds the module classes it
    instantiates, directly or through the non-module classes it
    instantiates (a clock building its driver).  Two tops in one source
    set are two designs, so their modules neither share a design nor
    multiply each other's instances.
    """
    other_names = {cls.name for cls in other_classes}
    direct = {
        cls.name: _instantiations(cls, module_names | other_names)
        for cls in other_classes
    }
    instantiated = {name for found in direct.values() for name in found}

    def built(name: str, seen: Set[str]) -> Dict[str, str]:
        modules: Dict[str, str] = {}
        for child, mult in direct.get(name, {}).items():
            if child in module_names:
                _record(modules, child, mult)
            elif child not in seen:
                for module, inner in built(child, seen | {child}).items():
                    _record(modules, module, "plural" if mult == "plural" else inner)
        return modules

    for name in direct:
        if name in instantiated:
            continue
        modules = built(name, {name})
        if not modules:
            continue
        structure.systems.append(set(modules))
        for module, mult in modules.items():
            if structure.plural.get(module) != "plural":
                structure.plural[module] = mult


def _mutates_self_state(method: ast.FunctionDef) -> bool:
    """Does the method assign plain ``self`` attributes (incl. items)?"""
    for node in ast.walk(method):
        targets: List[ast.AST] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        for target in targets:
            inner = target
            if isinstance(inner, ast.Subscript):
                inner = inner.value
            if (
                isinstance(inner, ast.Attribute)
                and isinstance(inner.value, ast.Name)
                and inner.value.id == "self"
            ):
                return True
    return False


@functools.lru_cache(maxsize=32)
def _parse(path: str, text: str) -> ast.Module:
    """Parse one source, memoized on its text: both models share the
    clock and scoreboard files, and a workbench re-analyzes unchanged
    sources.  The pass only reads the trees (:func:`_flatten` copies)."""
    return ast.parse(text, filename=path)


def _flatten(
    cls: ast.ClassDef, bases: List[ast.ClassDef]
) -> ast.ClassDef:
    """``cls`` as its instances see it: the methods of every base in
    the sources (nearest base last), overridden by its own, and one
    ``__init__`` running each chain member's body (root first), so
    process registrations and signal declarations a base makes count
    for the subclass too."""
    if not bases:
        return cls
    chain = [*reversed(bases), cls]
    methods: Dict[str, ast.FunctionDef] = {}
    inits: List[ast.stmt] = []
    for member in chain:
        for node in member.body:
            if isinstance(node, ast.FunctionDef):
                if node.name == "__init__":
                    inits.extend(node.body)
                methods[node.name] = node
    flat = copy.copy(cls)
    body: List[ast.stmt] = list(methods.values())
    init = methods.get("__init__")
    if init is not None:
        merged = copy.copy(init)
        merged.body = inits
        body = [merged if node is init else node for node in body]
    flat.body = body
    return flat


def build_structure(sources: Dict[str, str], path: str) -> ModelStructure:
    """Parse the model sources into one :class:`ModelStructure`.

    ``sources`` maps report paths to source text; ``path`` names the
    primary model file.  All files contribute signal containers,
    modules and processes -- pass the ``sysc/`` primitives alongside
    the model file to cover native kernel processes like the clock
    driver, and the scenario files to cover the sequence masters.  A
    class deriving from a module class of the sources is a module
    class too, analyzed with its inherited methods; a base that no
    source class instantiates (an abstract base) is analyzed only
    through its subclasses.  Every access, declaration and loop keeps
    the path of the file its line is in.
    """
    structure = ModelStructure(path=path)
    trees = {p: _parse(p, text) for p, text in sources.items()}

    classes: List[Tuple[str, ast.ClassDef]] = []
    for file_path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                classes.append((file_path, node))
    by_name = {cls.name: cls for _, cls in classes}
    paths: Dict[int, str] = {}
    for file_path, cls in classes:
        for node in cls.body:
            if isinstance(node, ast.FunctionDef):
                paths[id(node)] = file_path

    def source_bases(cls: ast.ClassDef) -> List[ast.ClassDef]:
        """Base classes defined in the sources, nearest first."""
        found: List[ast.ClassDef] = []
        current = cls
        while True:
            parents = [by_name[n] for n in _base_names(current) if n in by_name]
            if not parents or parents[0] in found or parents[0] is cls:
                return found
            current = parents[0]
            found.append(current)

    roots = _MODULE_BASES | _PROCESS_BASES
    module_classes: List[ast.ClassDef] = []
    other_classes: List[ast.ClassDef] = []
    extended: Set[str] = set()
    for file_path, cls in classes:
        bases = source_bases(cls)
        if any(_base_names(c) & roots for c in (cls, *bases)):
            module_classes.append(_flatten(cls, bases))
            extended.update(base.name for base in bases)
        else:
            other_classes.append(cls)
            structure.decls.update(_collect_signal_decls(cls, file_path))

    module_names = {cls.name for cls in module_classes}
    _collect_systems(other_classes, module_names, structure)
    module_classes = [
        cls for cls in module_classes
        if cls.name not in extended or cls.name in structure.plural
    ]

    local_decls: Dict[str, Dict[str, SignalDecl]] = {}
    for cls in module_classes:
        decls = _collect_signal_decls(cls)
        if decls:
            local_decls[cls.name] = decls
        for node in cls.body:
            if isinstance(node, ast.FunctionDef) and node.name != "__init__":
                if _mutates_self_state(node):
                    structure.mutating_methods[(cls.name, node.name)] = node.lineno

    for cls in module_classes:
        methods = {n.name: n for n in cls.body if isinstance(n, ast.FunctionDef)}
        callees = _self_callees(cls)
        for body_name in _process_bodies(cls):
            structure.process_count += 1
            walker = _ProcessWalker(
                cls, structure.decls, local_decls.get(cls.name, {}), paths,
                callees,
            )
            events = walker.run(body_name)
            structure.streams.append(((cls.name, body_name), events))
            for event in events:
                if event[0] in ("read", "write"):
                    structure.accesses.append(Access(
                        event[0], event[1], "", event[2], cls.name, body_name,
                        event[3],
                    ))
                elif event[0] == "call":
                    structure.accesses.append(Access(
                        "call", event[1], event[3], event[2], cls.name,
                        body_name, event[4],
                    ))
            # wait-free loops over every method reachable from the body
            seen: Set[str] = set()
            stack = [body_name]
            while stack:
                name = stack.pop()
                if name in seen or name not in methods:
                    continue
                seen.add(name)
                for node in ast.walk(methods[name]):
                    if isinstance(node, ast.While) and not any(
                        isinstance(sub, (ast.Yield, ast.YieldFrom))
                        for sub in ast.walk(node)
                    ):
                        structure.wait_free_loops.append((
                            cls.name, body_name,
                            paths.get(id(methods[name]), path), node.lineno,
                        ))
                    if isinstance(node, ast.Call):
                        stack.extend(callees.get(
                            _self_attr_target(node.func) or "", ()
                        ))
    return structure


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _coexisting(structure: ModelStructure, classes: Set[str]) -> List[Set[str]]:
    """Each set of two or more of ``classes`` that one system builds
    together (a class no system builds counts as in every one)."""
    if len(classes) < 2:
        return []
    if not structure.systems:
        return [set(classes)]
    unplaced = classes - set().union(*structure.systems)
    groups: List[Set[str]] = []
    for system in structure.systems:
        together = (classes & system) | unplaced
        if len(together) > 1 and together not in groups:
            groups.append(together)
    return groups


def _writer_summary(writers: Sequence[Access]) -> str:
    names = sorted({f"{a.cls}.{a.process}" for a in writers})
    return ", ".join(names)


def check_multi_driver(structure: ModelStructure, model: str) -> List[Finding]:
    """Flag signals writable by >1 class or by a plural class unsafely."""
    findings: List[Finding] = []
    by_attr: Dict[str, List[Access]] = {}
    for access in structure.accesses:
        if access.kind != "write" or not isinstance(access.target, SignalRef):
            continue
        if access.target.scope != "shared":
            continue  # module-local signals are per-instance by construction
        by_attr.setdefault(access.target.attr, []).append(access)
    for attr in sorted(by_attr):
        writers = by_attr[attr]
        decl = structure.decls.get(attr)
        where = (decl.path, decl.lineno) if decl else (
            writers[0].path, writers[0].lineno
        )
        file_path, line = where[0] or structure.path, where[1]
        groups = _coexisting(structure, {a.cls for a in writers})
        for group in groups:
            sharing = [a for a in writers if a.cls in group]
            findings.append(Finding(
                rule="race.multi-driver",
                severity="error",
                path=file_path,
                line=line,
                message=(
                    f"signal '{attr}' is written by multiple module classes "
                    f"({_writer_summary(sharing)}); same-delta writes are "
                    f"last-write-wins in scheduler order"
                ),
                model=model,
            ))
        if groups:
            continue
        for cls in sorted({a.cls for a in writers}):
            if structure.plural.get(cls) != "plural":
                continue
            unsafe = [
                a for a in writers
                if a.cls == cls
                and isinstance(a.target, SignalRef)
                and a.target.index != "self"
            ]
            if not unsafe:
                continue
            findings.append(Finding(
                rule="race.multi-driver",
                severity="error",
                path=file_path,
                line=line,
                message=(
                    f"signal '{attr}' is written by every instance of plural "
                    f"module {cls} without a self-anchored index "
                    f"({_writer_summary(unsafe)}); instances racing in one "
                    f"delta are resolved by scheduler order"
                ),
                model=model,
            ))
    return findings


def check_read_after_write(structure: ModelStructure, model: str) -> List[Finding]:
    """Flag same-segment reads of a just-written signal (stale read)."""
    findings: List[Finding] = []
    for (_cls, _process), events in structure.streams:
        written: Dict[Tuple[str, str], int] = {}
        for event in events:
            if event[0] == "yield":
                written.clear()
            elif event[0] == "write" and isinstance(event[1], SignalRef):
                written[(event[1].scope, event[1].attr)] = event[2]
            elif event[0] == "read" and isinstance(event[1], SignalRef):
                ref = event[1]
                write_line = written.get((ref.scope, ref.attr))
                if write_line is not None:
                    findings.append(Finding(
                        rule="race.read-after-write",
                        severity="warning",
                        path=event[3] or structure.path,
                        line=event[2],
                        message=(
                            f"'{ref.attr}' is read after being written at "
                            f"line {write_line} with no yield between: the "
                            f"read sees the pre-delta value (writes commit "
                            f"at the delta boundary)"
                        ),
                        model=model,
                    ))
    return findings


def check_shared_state(structure: ModelStructure, model: str) -> List[Finding]:
    """Flag plural processes mutating shared peers through method calls."""
    findings: List[Finding] = []
    mutating_names = {name for (_, name) in structure.mutating_methods}
    for access in structure.accesses:
        if access.kind != "call" or not isinstance(access.target, ObjChain):
            continue
        if access.method not in mutating_names:
            continue
        if structure.plural.get(access.cls) != "plural":
            continue
        owners = sorted(
            cls for (cls, name) in structure.mutating_methods
            if name == access.method
        )
        findings.append(Finding(
            rule="race.shared-state",
            severity="warning",
            path=access.path or structure.path,
            line=access.lineno,
            message=(
                f"plural module {access.cls}.{access.process} calls "
                f"{'/'.join(owners)}.{access.method}(), which mutates plain "
                f"attributes immediately: same-delta calls from sibling "
                f"instances commit in scheduler order"
            ),
            model=model,
        ))
    return findings


def check_wait_free_loops(structure: ModelStructure, model: str) -> List[Finding]:
    """Flag while loops that can never yield (livelock candidates)."""
    return [
        Finding(
            rule="race.wait-free-loop",
            severity="warning",
            path=file_path or structure.path,
            line=lineno,
            message=(
                f"while loop in process {cls}.{process} contains no yield: "
                f"the process cannot cede control inside it (livelock "
                f"candidate; the kernel would abort at the delta-cycle limit)"
            ),
            model=model,
        )
        for cls, process, file_path, lineno in sorted(
            set(structure.wait_free_loops)
        )
    ]


def analyze_sources(
    sources: Dict[str, str], path: str, model: str = ""
) -> Tuple[List[Finding], ModelStructure]:
    """Run all four race checks over the model sources.

    Returns the findings (not yet suppression-filtered -- the caller
    applies ``# repro: allow`` scanning) plus the rebuilt structure,
    which the witness mode uses to anchor runtime conflicts back to
    declaration lines.
    """
    structure = build_structure(sources, path)
    findings = [
        *check_multi_driver(structure, model),
        *check_read_after_write(structure, model),
        *check_shared_state(structure, model),
        *check_wait_free_loops(structure, model),
    ]
    return findings, structure


def declaration_for(
    structure: ModelStructure, signal_name: str
) -> Tuple[str, int]:
    """Map a *runtime* signal name back to its declaration's
    ``(path, line)``.

    Runtime names come from the Signal name argument: a constant
    (``"owner"``) or an f-string (``f"want{i}"`` -> name_parts
    ``("want", "")``).  Matching is prefix/suffix against the constant
    fragments; ``(structure.path, 0)`` when no declaration matches
    (witness findings then anchor to the whole model file).
    """
    for decl in structure.decls.values():
        parts = decl.name_parts
        if not parts:
            continue
        if len(parts) == 1:
            if signal_name == parts[0]:
                return decl.path or structure.path, decl.lineno
            continue
        prefix, suffix = parts[0], parts[-1]
        if signal_name.startswith(prefix) and signal_name.endswith(suffix) and (
            len(signal_name) >= len(prefix) + len(suffix)
        ):
            return decl.path or structure.path, decl.lineno
    return structure.path, 0
