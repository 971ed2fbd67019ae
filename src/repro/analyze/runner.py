"""Drive all analyzer passes over registered models into one report.

``analyze_duv`` resolves a DUV's SystemC sources (the model file, the
``sysc`` clock primitive, so native kernel processes are seen, and the
scenario sources -- the model's ``scenario.py`` and
``scenarios/scoreboard.py`` -- so the sequence masters every
regression runs are analyzed too),
runs the static race detector, lints the DUV's property set against
the model's letter namespace, optionally cross-checks with a witnessed
kernel run, applies inline ``# repro: allow`` suppressions, and folds
everything into one :class:`AnalysisReport`.  ``analyze_models`` does
that for every (or a chosen subset of) registered model(s) and merges
the reports -- the shape behind ``python -m repro analyze`` and the
``Workbench.analyze()`` stage.

Witnessed conflicts that the static pass already reported (same
signal declaration line) are dropped rather than duplicated, so a
witnessed run over a model digests identically to the static run
unless the witness catches something the AST walk missed.  Witness
statistics are facts/metrics, never findings -- digest invariance is
the contract.
"""

from __future__ import annotations

import inspect
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set

from ..obs.runtime import OBS
from ..workbench.duv import DUV
from ..workbench.registry import default_registry
from .findings import AnalysisReport, Finding, apply_suppressions
from .proplint import lint_properties
from .race import ModelStructure, analyze_sources, declaration_for
from .witness import DeltaWitness

#: Default witnessed-run length, in clock cycles of the model.
DEFAULT_WITNESS_CYCLES = 200

_REPO_ROOT = Path(__file__).resolve().parents[3]


def _repo_relative(path: Path) -> str:
    try:
        return path.resolve().relative_to(_REPO_ROOT).as_posix()
    except ValueError:
        return path.as_posix()


def _model_source_path(duv: DUV, seed: int) -> Path:
    """The file declaring the DUV's SystemC wires (its signal class),
    the model file the other sources are found beside."""
    system = duv.systemc_factory(seed)
    wires = type(system.wires)
    system.close()
    source = inspect.getsourcefile(wires)
    if source is None:  # pragma: no cover - source always on disk here
        raise FileNotFoundError(f"no source file for {wires!r}")
    return Path(source)


def duv_sources(duv: DUV, seed: int = 2005) -> Dict[str, str]:
    """Repo-relative path -> text of every file the race pass reads
    for ``duv``: its SystemC model file first, then the ``sysc`` clock
    (the native driver process), the model's ``scenario.py`` and
    ``scenarios/scoreboard.py`` (the sequence masters)."""
    from ..scenarios import scoreboard as _scoreboard_module
    from ..sysc import clock as _clock_module

    model_file = _model_source_path(duv, seed)
    sources = {_repo_relative(model_file): model_file.read_text(encoding="utf-8")}
    for extra in (
        Path(inspect.getsourcefile(_clock_module) or ""),
        model_file.with_name("scenario.py"),
        Path(inspect.getsourcefile(_scoreboard_module) or ""),
    ):
        if extra.is_file():
            sources[_repo_relative(extra)] = extra.read_text(encoding="utf-8")
    return sources


def _unique_directives(duv: DUV) -> List:
    """Formal + simulation directives, deduplicated by property name."""
    seen: Set[str] = set()
    out: List = []
    for directive in (*duv.directives, *duv.simulation_directives):
        name = getattr(directive, "name", None) or str(directive)
        if name in seen:
            continue
        seen.add(name)
        out.append(directive)
    return out


def _letter_namespace(duv: DUV) -> Optional[Set[str]]:
    """Signal names a sampled letter carries (None = unknown)."""
    try:
        return set(duv.extractor(duv.model_factory()).keys())
    except Exception:
        return None


def _witness_findings(
    duv: DUV,
    structure: ModelStructure,
    cycles: int,
    seed: int,
) -> tuple:
    """Run a witnessed simulation; (findings, witness stats)."""
    system = duv.systemc_factory(seed)
    duration = cycles * duv.clock_period_ps
    with DeltaWitness(system.simulator) as witness:
        system.simulator.run(duration)
    findings = []
    for name, writers in witness.conflict_summaries():
        path, line = declaration_for(structure, name)
        findings.append(Finding(
            rule="race.multi-driver",
            severity="error",
            path=path,
            line=line,
            message=(
                f"witnessed: signal '{name}' written by multiple processes "
                f"in one delta ({writers}); the committed value is "
                f"scheduler-order dependent"
            ),
            model=duv.name,
        ))
    system.close()
    return findings, witness.stats


def analyze_duv(
    duv: DUV,
    *,
    witness: bool = False,
    witness_cycles: Optional[int] = None,
    seed: int = 2005,
) -> AnalysisReport:
    """Run every analyzer pass over one DUV."""
    if witness_cycles is None:
        witness_cycles = DEFAULT_WITNESS_CYCLES
    sources = duv_sources(duv, seed)
    model_path = next(iter(sources))
    model_file = _REPO_ROOT / model_path
    findings, structure = analyze_sources(sources, model_path, model=duv.name)

    properties_file = model_file.with_name("properties.py")
    properties_path = (
        _repo_relative(properties_file) if properties_file.is_file()
        else model_path
    )
    findings.extend(lint_properties(
        _unique_directives(duv),
        namespace=_letter_namespace(duv),
        path=properties_path,
        model=duv.name,
    ))

    facts: Dict[str, object] = {"passes": ["race", "proplint"]}
    if witness:
        static_lines = {
            (f.rule, f.path, f.line) for f in findings
        }
        witnessed, stats = _witness_findings(
            duv, structure, witness_cycles, seed
        )
        findings.extend(
            f for f in witnessed
            if (f.rule, f.path, f.line) not in static_lines
        )
        facts["passes"] = ["race", "proplint", "witness"]
        facts["witness"] = stats.to_json()
        if OBS.metrics.enabled:
            registry = OBS.metrics
            registry.counter("analyze.witness.deltas", model=duv.name).inc(
                stats.deltas
            )
            registry.counter(
                "analyze.witness.max_read_set", model=duv.name
            ).inc(stats.max_read_set)
            registry.counter(
                "analyze.witness.max_write_set", model=duv.name
            ).inc(stats.max_write_set)

    suppression_sources = {
        path: text.splitlines() for path, text in sources.items()
    }
    findings = apply_suppressions(findings, suppression_sources)

    report = AnalysisReport(findings=findings, facts=facts)
    if OBS.metrics.enabled:
        for rule, count in report.rule_counts().items():
            OBS.metrics.counter(
                "analyze.findings", rule=rule, model=duv.name
            ).inc(count)
    return report


def analyze_models(
    names: Optional[Sequence[str]] = None,
    *,
    witness: bool = False,
    witness_cycles: Optional[int] = None,
    seed: int = 2005,
) -> AnalysisReport:
    """Analyze the named (default: all registered) models, merged.

    Per-model facts nest under ``facts["models"]``; findings carry
    their model attribution, so the merged report stays canonical and
    digest-stable regardless of analysis order.
    """
    registry = default_registry()
    model_names = list(names) if names else registry.names()
    merged = AnalysisReport()
    model_facts: Dict[str, object] = {}
    for name in model_names:
        duv = registry.get(name)
        if OBS.enabled:
            with OBS.tracer.span("analyze.model", "analyze", model=name):
                report = analyze_duv(
                    duv,
                    witness=witness,
                    witness_cycles=witness_cycles,
                    seed=seed,
                )
        else:
            report = analyze_duv(
                duv,
                witness=witness,
                witness_cycles=witness_cycles,
                seed=seed,
            )
        merged.extend(report.findings)
        model_facts[name] = report.facts
    merged.facts = {"models": model_facts, "witness_enabled": witness}
    return merged
