"""Design-for-verification static analysis.

Three passes behind one findings pipeline:

- :mod:`.race` -- the delta-cycle race detector: an AST walk over a
  model's process bodies building a process <-> signal access graph,
  flagging multi-driver signals, same-delta read-after-write ordering
  traps, shared-state mutation from plural modules, and wait-free
  loops.
- :mod:`.proplint` -- the property linter over the compiled automata:
  unknown signals, tautologies/contradictions, dead atoms, vacuous
  suffix implications, unreachable automaton states.
- :mod:`.witness` -- the opt-in kernel witness: records actual
  per-delta read/write sets during a real run and cross-checks the
  static race findings.

Findings fold into a deterministic, digest-stable
:class:`~repro.analyze.findings.AnalysisReport`; intentional patterns
are documented in place with ``# repro: allow[rule-id] reason``.
Surfaces: ``python -m repro analyze``, ``Workbench.analyze()``, and
:func:`analyze_models` for direct use.
"""

from .findings import (
    SEVERITIES,
    AnalysisReport,
    Finding,
    apply_suppressions,
    suppression_for,
)
from .proplint import lint_directive, lint_properties
from .race import ModelStructure, analyze_sources, declaration_for
from .runner import DEFAULT_WITNESS_CYCLES, analyze_duv, analyze_models
from .witness import DeltaWitness, WitnessStats, run_witnessed

__all__ = [
    "SEVERITIES",
    "AnalysisReport",
    "Finding",
    "apply_suppressions",
    "suppression_for",
    "lint_directive",
    "lint_properties",
    "ModelStructure",
    "analyze_sources",
    "declaration_for",
    "DEFAULT_WITNESS_CYCLES",
    "analyze_duv",
    "analyze_models",
    "DeltaWitness",
    "WitnessStats",
    "run_witnessed",
]
