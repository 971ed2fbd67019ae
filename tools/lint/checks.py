"""The built-in repo lint checks beyond docstrings.

``lint.monitor-construction``
    PR 8 made :func:`repro.psl.compile_properties` the single monitor
    construction API; direct ``Monitor`` subclass instantiation
    outside ``src/repro/psl/`` bypasses the engine selection and the
    shared-automaton cache.
``lint.wall-clock``
    Digest-bearing code must not read the wall clock: ``time.time``,
    ``time.localtime``/``ctime`` and ``datetime.now``/``utcnow``/
    ``today`` make output run-dependent.  ``perf_counter`` (duration
    measurement, reported as metrics only) stays allowed.
``lint.wire-parity``
    A class with both ``to_json`` and ``from_json`` must read only
    fields it writes: ``from_json`` consuming a key ``to_json`` never
    emits is a wire-contract break that serial/sharded/remote
    equivalence tests would hit only on the failing path.
``lint.http-plumbing``
    Both daemons are route tables over :mod:`repro.service`, which
    owns the one request handler, body reader, auth check and error
    mapping.  A ``BaseHTTPRequestHandler`` subclass or an
    ``rfile.read`` anywhere else under ``src/repro`` is a second copy
    of that plumbing (and of its hardening).
``lint.letter-declaration``
    A model's monitor letter is declared once, as a
    :class:`repro.abv.letters.LetterDeclaration` table that the harness
    compiles into a reader.  A ``letter()`` function building a dict
    under ``src/repro/models`` is a second, hand-maintained copy of
    that namespace -- the drift the declarations replaced.
``lint.layering``
    The packages under ``src/repro`` form one import order
    (:data:`LAYERS`, lowest first; ``docs/architecture.md`` gives the
    table).  A module-level import may reach its own layer or a lower
    one only.  An upward import inside a function body stays allowed
    -- it runs when that function is called, not when the module
    loads, so it adds no load-time cycle and no cold-start cost to the
    lower layer -- and ``if TYPE_CHECKING:`` imports never run.  A
    module whose package is missing from the table is flagged too, so
    the order stays complete.
``ckpt.undeclared-state``
    A stateful module declares the registers a checkpoint carries once,
    as a class-level ``STATE`` table (:mod:`repro.sysc.state`).  In a
    class with a non-empty table (its own or inherited), a
    ``self.x = ...`` / ``self.x op= ...`` outside ``__init__`` whose
    ``x`` the table does not declare is state a restore would silently
    drop.  Deliberate exceptions (stimulus plumbing rebuilt from the
    spec) take a justified allow comment.

All checks walk the AST of ``src/repro`` -- tests and ``perfbench/``
are free to construct monitors or read clocks directly.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Optional, Set

from .registry import Finding, register, repo_relative

_BANNED_TIME_ATTRS = {"time", "localtime", "ctime"}
_BANNED_DATETIME_ATTRS = {"now", "utcnow", "today"}


def _source_files(root: Path) -> List[Path]:
    return sorted((root / "src" / "repro").rglob("*.py"))


def _monitor_class_names(root: Path) -> Set[str]:
    """Monitor subclasses defined in the PSL package (transitively)."""
    names: Set[str] = {"Monitor"}
    parents: Dict[str, Set[str]] = {}
    for path in sorted((root / "src" / "repro" / "psl").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases = set()
                for base in node.bases:
                    if isinstance(base, ast.Name):
                        bases.add(base.id)
                    elif isinstance(base, ast.Attribute):
                        bases.add(base.attr)
                parents[node.name] = bases
    changed = True
    while changed:
        changed = False
        for name, bases in parents.items():
            if name not in names and bases & names:
                names.add(name)
                changed = True
    return names


@register(
    "lint.monitor-construction",
    "monitors are built via compile_properties, not constructed directly",
)
def lint_monitor_construction(root: Path) -> List[Finding]:
    """Flag Monitor-subclass instantiation outside ``src/repro/psl``."""
    monitor_names = _monitor_class_names(root)
    findings: List[Finding] = []
    psl_dir = (root / "src" / "repro" / "psl").resolve()
    for path in _source_files(root):
        if psl_dir in path.resolve().parents:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (
                func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute)
                else None
            )
            if name in monitor_names:
                findings.append(Finding(
                    rule="lint.monitor-construction",
                    severity="error",
                    path=repo_relative(path, root),
                    line=node.lineno,
                    message=(
                        f"direct {name}(...) construction bypasses "
                        f"repro.psl.compile_properties (the single monitor "
                        f"construction API since PR 8)"
                    ),
                ))
    return findings


class _ClockImports(ast.NodeVisitor):
    """Collect how a module can reach the wall clock."""

    def __init__(self) -> None:
        self.time_aliases: Set[str] = set()
        self.datetime_aliases: Set[str] = set()
        self.banned_names: Set[str] = set()

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "time":
                self.time_aliases.add(alias.asname or "time")
            elif alias.name == "datetime":
                self.datetime_aliases.add(alias.asname or "datetime")

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "time":
            for alias in node.names:
                if alias.name in _BANNED_TIME_ATTRS:
                    self.banned_names.add(alias.asname or alias.name)
        elif node.module == "datetime":
            for alias in node.names:
                if alias.name in ("datetime", "date"):
                    self.datetime_aliases.add(alias.asname or alias.name)


@register(
    "lint.wall-clock",
    "digest-bearing code never reads the wall clock (perf_counter is fine)",
)
def lint_wall_clock(root: Path) -> List[Finding]:
    """Flag wall-clock reads anywhere under ``src/repro``."""
    findings: List[Finding] = []
    for path in _source_files(root):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imports = _ClockImports()
        imports.visit(tree)
        if not (
            imports.time_aliases
            or imports.datetime_aliases
            or imports.banned_names
        ):
            continue
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            flagged: Optional[str] = None
            if isinstance(func, ast.Name) and func.id in imports.banned_names:
                flagged = func.id
            elif isinstance(func, ast.Attribute):
                value = func.value
                if (
                    isinstance(value, ast.Name)
                    and value.id in imports.time_aliases
                    and func.attr in _BANNED_TIME_ATTRS
                ):
                    flagged = f"{value.id}.{func.attr}"
                elif func.attr in _BANNED_DATETIME_ATTRS:
                    base = value
                    while isinstance(base, ast.Attribute):
                        base = base.value
                    if (
                        isinstance(base, ast.Name)
                        and base.id in imports.datetime_aliases
                    ):
                        flagged = f"{base.id}...{func.attr}"
            if flagged is not None:
                findings.append(Finding(
                    rule="lint.wall-clock",
                    severity="error",
                    path=repo_relative(path, root),
                    line=node.lineno,
                    message=(
                        f"wall-clock call {flagged}() in library code; "
                        f"digested output must not depend on the clock "
                        f"(use perf_counter for durations, and keep them "
                        f"in metrics)"
                    ),
                ))
    return findings


def _to_json_keys(fn: ast.FunctionDef) -> Set[str]:
    """String keys ``to_json`` emits: returned dict literals' top-level
    keys plus ``doc["key"] = ...`` item assignments."""
    keys: Set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Return) and isinstance(node.value, ast.Dict):
            for key in node.value.keys:
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    keys.add(key.value)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.slice, ast.Constant)
                    and isinstance(target.slice.value, str)
                ):
                    keys.add(target.slice.value)
    return keys


def _from_json_reads(fn: ast.FunctionDef) -> Dict[str, int]:
    """Keys ``from_json`` reads off its document parameter -> line."""
    args = fn.args.args
    if len(args) < 2:  # (cls/self, doc)
        return {}
    doc_name = args[1].arg
    reads: Dict[str, int] = {}
    for node in ast.walk(fn):
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id == doc_name
            and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str)
        ):
            reads.setdefault(node.slice.value, node.lineno)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == doc_name
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            reads.setdefault(node.args[0].value, node.lineno)
    return reads


@register(
    "lint.wire-parity",
    "from_json reads only fields the paired to_json writes",
)
def lint_wire_parity(root: Path) -> List[Finding]:
    """Flag wire-form classes whose reader expects unwritten fields."""
    findings: List[Finding] = []
    for path in _source_files(root):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            methods = {
                n.name: n for n in node.body if isinstance(n, ast.FunctionDef)
            }
            to_json = methods.get("to_json")
            from_json = methods.get("from_json")
            if to_json is None or from_json is None:
                continue
            written = _to_json_keys(to_json)
            if not written:
                continue  # emitted indirectly; nothing to compare against
            for key, lineno in sorted(_from_json_reads(from_json).items()):
                if key not in written:
                    findings.append(Finding(
                        rule="lint.wire-parity",
                        severity="error",
                        path=repo_relative(path, root),
                        line=lineno,
                        message=(
                            f"{node.name}.from_json reads field {key!r} "
                            f"that {node.name}.to_json never writes"
                        ),
                    ))
    return findings


@register(
    "lint.http-plumbing",
    "HTTP handlers and body reads live only in repro/service.py",
)
def lint_http_plumbing(root: Path) -> List[Finding]:
    """Flag request-handler classes and body reads outside the service base."""
    service = (root / "src" / "repro" / "service.py").resolve()
    findings: List[Finding] = []
    for path in _source_files(root):
        if path.resolve() == service:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            flagged: Optional[str] = None
            if isinstance(node, ast.ClassDef) and any(
                (base.id if isinstance(base, ast.Name) else
                 base.attr if isinstance(base, ast.Attribute) else None)
                == "BaseHTTPRequestHandler"
                for base in node.bases
            ):
                flagged = f"class {node.name}(BaseHTTPRequestHandler)"
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "read"
                and isinstance(node.func.value, ast.Attribute)
                and node.func.value.attr == "rfile"
            ):
                flagged = "rfile.read(...)"
            if flagged is not None:
                findings.append(Finding(
                    rule="lint.http-plumbing",
                    severity="error",
                    path=repo_relative(path, root),
                    line=node.lineno,
                    message=(
                        f"{flagged} outside repro/service.py duplicates the "
                        f"shared JSON service base; add a route instead"
                    ),
                ))
    return findings


@register(
    "lint.letter-declaration",
    "model letters are LetterDeclaration tables, not hand-built letter() dicts",
)
def lint_letter_declaration(root: Path) -> List[Finding]:
    """Flag a ``letter()`` that builds a dict under ``src/repro/models``."""
    findings: List[Finding] = []
    for path in sorted((root / "src" / "repro" / "models").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name == "letter"
            ):
                continue
            if any(
                isinstance(inner, (ast.Dict, ast.DictComp))
                or (
                    isinstance(inner, ast.Call)
                    and isinstance(inner.func, ast.Name)
                    and inner.func.id == "dict"
                )
                for inner in ast.walk(node)
            ):
                findings.append(Finding(
                    rule="lint.letter-declaration",
                    severity="error",
                    path=repo_relative(path, root),
                    line=node.lineno,
                    message=(
                        "hand-built letter() dict; declare the letter as a "
                        "repro.abv.letters.LetterDeclaration instead"
                    ),
                ))
    return findings


def _state_expr(cls: ast.ClassDef) -> Optional[ast.expr]:
    """The class-level ``STATE = ...`` value, if the class declares one."""
    for node in cls.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id == "STATE" for t in targets):
            return node.value
    return None


class _StateIndex:
    """Every class under ``src/repro`` by name, resolving each one's
    declared ``STATE`` attributes through ``Parent.STATE + (...)``
    extensions and plain inheritance."""

    def __init__(self, trees: Dict[Path, ast.Module]):
        self.classes: Dict[str, ast.ClassDef] = {}
        for tree in trees.values():
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef):
                    self.classes[node.name] = node
        self._memo: Dict[str, Optional[Set[str]]] = {}

    def declared(self, name: str) -> Optional[Set[str]]:
        """Attributes class ``name`` declares; None when unresolvable."""
        if name not in self._memo:
            self._memo[name] = None  # cycle guard
            cls = self.classes.get(name)
            result: Optional[Set[str]] = None
            if cls is not None:
                expr = _state_expr(cls)
                if expr is not None:
                    result = self._attrs(expr)
                else:
                    for base in cls.bases:
                        base_name = (
                            base.id if isinstance(base, ast.Name)
                            else base.attr if isinstance(base, ast.Attribute)
                            else None
                        )
                        if base_name is not None:
                            result = self.declared(base_name)
                            if result:
                                break
            self._memo[name] = result
        return self._memo[name]

    def _attrs(self, expr: ast.expr) -> Optional[Set[str]]:
        if isinstance(expr, (ast.Tuple, ast.List)):
            attrs: Set[str] = set()
            for entry in expr.elts:
                if not (
                    isinstance(entry, ast.Tuple)
                    and len(entry.elts) >= 2
                    and isinstance(entry.elts[1], ast.Constant)
                    and isinstance(entry.elts[1].value, str)
                ):
                    return None
                attrs.add(entry.elts[1].value)
            return attrs
        if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Add):
            left, right = self._attrs(expr.left), self._attrs(expr.right)
            if left is None or right is None:
                return None
            return left | right
        if (
            isinstance(expr, ast.Attribute)
            and expr.attr == "STATE"
            and isinstance(expr.value, ast.Name)
        ):
            return self.declared(expr.value.id)
        return None


def _self_targets(node: ast.AST) -> List[ast.Attribute]:
    """``self.x`` targets of an assignment statement (tuples unpacked)."""
    if isinstance(node, ast.Assign):
        pending = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        pending = [node.target]
    else:
        return []
    found: List[ast.Attribute] = []
    while pending:
        target = pending.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            pending.extend(target.elts)
        elif isinstance(target, ast.Starred):
            pending.append(target.value)
        elif (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            found.append(target)
    return found


@register(
    "ckpt.undeclared-state",
    "stateful modules assign outside __init__ only registers their STATE declares",
)
def lint_undeclared_state(root: Path) -> List[Finding]:
    """Flag ``self.x`` writes a stateful module's ``STATE`` omits."""
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in _source_files(root)
    }
    index = _StateIndex(trees)
    findings: List[Finding] = []
    for path, tree in trees.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            declared = index.declared(cls.name)
            if not declared:
                continue
            for method in cls.body:
                if not isinstance(
                    method, (ast.FunctionDef, ast.AsyncFunctionDef)
                ) or method.name == "__init__":
                    continue
                for node in ast.walk(method):
                    for target in _self_targets(node):
                        if target.attr in declared:
                            continue
                        findings.append(Finding(
                            rule="ckpt.undeclared-state",
                            severity="error",
                            path=repo_relative(path, root),
                            line=node.lineno,
                            message=(
                                f"{cls.name}.{method.name} assigns "
                                f"self.{target.attr}, which {cls.name}.STATE "
                                f"does not declare: a checkpoint restore "
                                f"would drop it"
                            ),
                        ))
    return findings


#: The import order of ``src/repro``'s packages, lowest first.  Names in
#: one tuple share a layer; ``models.*.duv`` (a model's workbench
#: bundle, loaded only through the registry) sits with ``workbench``.
LAYERS = (
    ("obs", "store", "service", "cliutil"),
    ("asm",),
    ("sysc",),
    ("psl",),
    ("abv",),
    ("explorer",),
    ("translate",),
    ("uml",),
    ("scenarios",),
    ("models",),
    ("checkpoint",),
    ("dispatch",),
    ("coordinator",),
    ("workbench", "models.*.duv"),
    ("analyze",),
    ("cli",),
)

#: modules of the root package that no layer holds: ``repro/__init__``
#: (resolved lazily) and ``python -m repro``'s ``__main__``
_UNLAYERED = ("", "__main__")


def _layer_of(parts: List[str]) -> Optional[int]:
    """Layer index of a module given as its parts below ``repro``."""
    if len(parts) >= 3 and parts[0] == "models" and parts[2] == "duv":
        key = "models.*.duv"
    elif parts:
        key = parts[0]
    else:
        return None
    for index, names in enumerate(LAYERS):
        if key in names:
            return index
    return None


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _load_time_imports(body: List[ast.stmt]) -> List[ast.stmt]:
    """Import statements that run when the module loads.

    Descends into every compound statement except function bodies and
    ``if TYPE_CHECKING:`` branches (class bodies run at load time).
    """
    found: List[ast.stmt] = []
    pending = list(body)
    while pending:
        node = pending.pop(0)
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found.append(node)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        elif isinstance(node, ast.If) and _is_type_checking(node.test):
            pending.extend(node.orelse)
        else:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.stmt):
                    pending.append(child)
                elif isinstance(child, ast.excepthandler):
                    pending.extend(child.body)
    return found


def _import_targets(node: ast.stmt, package: List[str]) -> List[List[str]]:
    """Modules an import statement loads, as parts below ``repro``."""
    if isinstance(node, ast.Import):
        return [
            alias.name.split(".")[1:]
            for alias in node.names
            if alias.name.split(".")[0] == "repro"
        ]
    assert isinstance(node, ast.ImportFrom)
    if node.level:
        if node.level - 1 > len(package):
            return []
        base = package[: len(package) - (node.level - 1)]
        module = base + (node.module.split(".") if node.module else [])
    elif node.module and node.module.split(".")[0] == "repro":
        module = node.module.split(".")[1:]
    else:
        return []
    if not module:
        # ``from repro import x``: each name may be a subpackage
        return [[alias.name] for alias in node.names]
    return [module]


@register(
    "lint.layering",
    "module-level imports never go up the package layer order",
)
def lint_layering(root: Path) -> List[Finding]:
    """Flag load-time imports of a higher layer, and unlayered packages."""
    src = root / "src" / "repro"
    findings: List[Finding] = []
    for path in _source_files(root):
        parts = list(path.relative_to(src).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
            package = parts
        else:
            package = parts[:-1]
        name = ".".join(["repro"] + parts)
        if ".".join(parts) in _UNLAYERED:
            continue
        layer = _layer_of(parts)
        if layer is None:
            findings.append(Finding(
                rule="lint.layering",
                severity="error",
                path=repo_relative(path, root),
                line=1,
                message=(
                    f"{name} belongs to no layer; add its package to "
                    f"tools/lint/checks.py LAYERS"
                ),
            ))
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in _load_time_imports(tree.body):
            for target in _import_targets(node, package):
                target_layer = _layer_of(target)
                if target_layer is None or target_layer <= layer:
                    continue
                findings.append(Finding(
                    rule="lint.layering",
                    severity="error",
                    path=repo_relative(path, root),
                    line=node.lineno,
                    message=(
                        f"{name} imports repro.{'.'.join(target)} at module "
                        f"level, which is above it in the layer order; "
                        f"import it inside the function that needs it"
                    ),
                ))
    return findings
