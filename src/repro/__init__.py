"""repro -- Design for Verification of SystemC Transaction Level Models.

A complete Python reproduction of Habibi & Tahar's DATE 2005 paper:

* :mod:`repro.uml` -- UML class/use-case diagrams and the paper's
  *modified sequence diagram* property notation,
* :mod:`repro.asm` -- an AsmL-flavoured Abstract State Machine
  framework (typed state, update-set semantics, guarded actions),
* :mod:`repro.explorer` -- FSM generation by bounded reachability with
  on-the-fly property checking, filters and counterexamples,
* :mod:`repro.psl` -- the Accellera PSL subset: Boolean layer, SEREs,
  FL formulas, four-valued finite-trace semantics, parser, and
  compiled assertion monitors,
* :mod:`repro.sysc` -- a SystemC-like discrete-event simulation kernel
  (delta cycles, signals, clocked threads, modules/ports),
* :mod:`repro.translate` -- the paper's ASM -> SystemC rules R1-R3 and
  PSL -> C# monitor generation, plus runnable translations,
* :mod:`repro.abv` -- runtime assertion-based verification,
* :mod:`repro.models` -- the two case studies: PCI (Table 1) and the
  generic Master/Slave bus (Table 2),
* :mod:`repro.workbench` -- the unified verification-session API:
  DUV registry, typed stages, pluggable engines, session reports,
* :mod:`repro.service` / :mod:`repro.store` -- the shared JSON
  service base and content store under the dispatch worker and the
  coordinator daemons,
* :mod:`repro.cli` -- the ``python -m repro`` command line.

Quickstart::

    from repro import Workbench, VerificationPlan

    report = Workbench("pci").run_plan(VerificationPlan.figure1())
    assert report.ok
    print(report.summary())          # one digest across all stages

Or stage by stage::

    wb = Workbench("master_slave")
    wb.explore()                     # model checking; exports residue
    wb.simulate_abv(cycles=5_000)    # monitors in simulation
    wb.regress(scenarios=40, bias=True)
"""

__version__ = "1.1.0"

#: workbench names re-exported at the top level, resolved lazily so
#: `import repro` stays light for subpackage-only consumers
_WORKBENCH_EXPORTS = (
    "Workbench",
    "VerificationPlan",
    "DUV",
    "SessionReport",
    "StageResult",
    "ModelRegistry",
    "default_registry",
)

__all__ = ["__version__", *_WORKBENCH_EXPORTS]


def __getattr__(name: str):
    if name in _WORKBENCH_EXPORTS:
        from . import workbench

        return getattr(workbench, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
