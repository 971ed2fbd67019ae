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

All checks walk the AST of ``src/repro`` -- tests and benchmarks are
free to construct monitors or read clocks directly.
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
