"""The design-under-verification bundle.

A :class:`DUV` captures, once, everything the Figure 1 flow needs to
know about one design: the ASM model factory (the formal leg), the PSL
property suite, the SystemC-level simulation factory (the ABV leg) and
the scenario-regression binding.  A :class:`~.session.Workbench` then
composes verification *stages* over the bundle without the caller
re-plumbing factories into every entry point.

Case studies register their bundles with the
:class:`~.registry.ModelRegistry` (see ``repro.models.*.duv``); ad-hoc
designs -- tests, notebooks -- build a :class:`DUV` directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Mapping, Optional, Sequence, Tuple

from ..asm.machine import AsmModel
from ..explorer.config import ExplorationConfig
from ..explorer.fsm import Fsm
from ..explorer.sim_coverage import SimCoverage
from ..psl.ast_nodes import Directive, DirectiveKind, Property


@dataclass
class LivenessCheck:
    """One liveness obligation checked on the generated FSM."""

    name: str
    trigger: Callable[..., bool]
    goal: Callable[..., bool]


@dataclass(frozen=True)
class CoverageResidue:
    """FSM states/transitions hit only by the model checker.

    Right after :meth:`~.session.Workbench.explore` the residue is the
    whole FSM (nothing has simulated yet); once a simulation's coverage
    is folded in, the residue shrinks to the formal leg's added value.
    :meth:`~.session.Workbench.regress` accepts it as a bias input --
    the first directional step of the formal<->simulation loop.
    """

    states_total: int
    transitions_total: int
    uncovered_states: Tuple[int, ...]
    uncovered_transitions: Tuple[str, ...]
    #: simulation samples folded in so far (0 = model checker only)
    samples: int = 0

    @property
    def state_coverage(self) -> float:
        if self.states_total == 0:
            return 1.0
        return 1.0 - len(self.uncovered_states) / self.states_total

    @property
    def transition_coverage(self) -> float:
        if self.transitions_total == 0:
            return 1.0
        return 1.0 - len(self.uncovered_transitions) / self.transitions_total

    @classmethod
    def from_fsm(cls, fsm: Fsm) -> "CoverageResidue":
        """The residue before any simulation: the entire FSM."""
        return cls(
            states_total=fsm.state_count(),
            transitions_total=fsm.transition_count(),
            uncovered_states=tuple(s.index for s in fsm.states),
            uncovered_transitions=tuple(
                f"s{t.source} --{t.label()}--> s{t.target}" for t in fsm.transitions
            ),
        )

    @classmethod
    def from_sim_coverage(cls, coverage: SimCoverage) -> "CoverageResidue":
        """The residue after observing a simulation run."""
        return cls(
            states_total=coverage.fsm.state_count(),
            transitions_total=coverage.fsm.transition_count(),
            uncovered_states=tuple(coverage.uncovered_states()),
            uncovered_transitions=tuple(coverage.uncovered_transitions()),
            samples=coverage.samples,
        )

    def to_json(self) -> dict:
        return {
            "states_total": self.states_total,
            "transitions_total": self.transitions_total,
            "uncovered_states": len(self.uncovered_states),
            "uncovered_transitions": len(self.uncovered_transitions),
            "state_coverage": round(self.state_coverage, 4),
            "transition_coverage": round(self.transition_coverage, 4),
            "samples": self.samples,
        }

    def summary(self) -> str:
        return (
            f"residue: {len(self.uncovered_states)}/{self.states_total} states, "
            f"{len(self.uncovered_transitions)}/{self.transitions_total} "
            f"transitions reached only by the model checker"
        )


def _as_directives(
    directives: Sequence[Directive | Property],
) -> Tuple[Directive, ...]:
    """Bare properties become ASSERT directives."""
    return tuple(
        d if isinstance(d, Directive) else Directive(DirectiveKind.ASSERT, d)
        for d in directives
    )


@dataclass
class DUV:
    """One design-under-verification, registered once, staged many times.

    ``systemc_factory`` (``seed -> system``) builds the hand-written
    SystemC-level model for ABV simulation; the system must expose
    ``simulator``, ``clock``, ``letter``, ``run_cycles`` and ``close``
    (both case studies build their
    :class:`~repro.scenarios.scoreboard.ScenarioSystem`, driven by
    endless seeded random traffic, so simulation and regression run
    one design).  When it is None the workbench falls back to the
    generic ASM->SystemC runtime translation
    (:func:`repro.translate.runtime.build_runtime`), which is what
    ad-hoc/toy designs use.

    ``scenario_model`` is the key the scenario-regression layer knows
    the design by (``"master_slave"`` / ``"pci"``); None disables the
    ``regress`` stage unless explicit specs are passed.
    """

    name: str
    model_factory: Callable[[], AsmModel]
    description: str = ""
    directives: Sequence[Directive | Property] = ()
    extractor: Optional[Callable[[AsmModel], Mapping[str, Any]]] = None
    exploration: ExplorationConfig = field(default_factory=ExplorationConfig)
    liveness_checks: Sequence[LivenessCheck] = ()
    systemc_factory: Optional[Callable[[int], Any]] = None
    #: monitor suite bound in simulation; None = the explored directives
    simulation_directives: Optional[Sequence[Directive | Property]] = None
    scenario_model: Optional[str] = None
    clock_period_ps: int = 30_000
    metadata: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.directives = _as_directives(self.directives)
        if self.simulation_directives is not None:
            self.simulation_directives = _as_directives(self.simulation_directives)
        self.liveness_checks = tuple(self.liveness_checks)

    def assert_directives(self) -> List[Directive]:
        """The directives explored formally (ASSERT kind only)."""
        return [d for d in self.directives if d.kind == DirectiveKind.ASSERT]

    def monitor_directives(self) -> List[Directive]:
        """The directives bound as runtime monitors in simulation."""
        if self.simulation_directives is not None:
            return list(self.simulation_directives)
        return list(self.directives)
