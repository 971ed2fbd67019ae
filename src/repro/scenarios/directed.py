"""Directed sequences: FSM path plans lowered onto bus stimulus.

The counterpart of :mod:`repro.explorer.goal_planner` on the stimulus
side.  A planned FSM path arrives here as an ordered list of
:class:`TransactionGoal` records -- "master ``unit`` moves ``burst``
words to ``target``, posting its request ``idle`` cycles in" -- and a
:class:`DirectedSequence` feeds each master exactly its own goals, in
plan order, with per-goal randomization (address offset, payload)
derived from ``(seed, goal_index)`` so a directed scenario is as
reproducible as a constrained-random one and the regression digest
stays worker-count invariant.

:class:`DirectedClosureLoop` is the driving loop: plan goals for the
current residue, run them, fold the transitions the runs *actually*
exercised back into the residue, and re-plan until the residue stops
shrinking (dry) or the round budget is spent.  Achievement is measured,
never assumed -- the runner reconstructs each scenario's observable ASM
call stream and :func:`~repro.explorer.goal_planner.walk_fsm_events`
walks it on the FSM, so a plan the simulation could not realize simply
stays in the residue.

Goal lowering is model-specific (the coarse action vocabulary and the
arbitration discipline differ per design); the per-model entry points
live next to the drivers in ``repro.models.*.scenario`` and are
dispatched by :func:`lower_path_for_model`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence as Seq, Tuple

from .random_ import ScenarioRng
from .sequences import Sequence, SequenceItem, StimulusContext


@dataclass(frozen=True)
class TransactionGoal:
    """One directed transaction: the unit that must issue it, where it
    must go, and how its request is timed relative to the plan."""

    unit: int                 # master index that must drive the goal
    target: int               # slave/target index
    is_write: bool
    burst: int
    #: cycles the unit idles before posting this goal's request --
    #: the lowering's lever over request interleavings
    idle: int = 0

    def describe(self) -> str:
        """One-line human form, e.g. ``master0:W target1 x2 idle=3``."""
        direction = "W" if self.is_write else "R"
        return (
            f"master{self.unit}:{direction} target{self.target} "
            f"x{self.burst} idle={self.idle}"
        )

    def to_json(self) -> dict:
        """Goal wire form: plain JSON scalars, carried in
        :class:`~repro.scenarios.regression.ScenarioSpec.goals` so
        directed shards cross host boundaries like random ones."""
        return {
            "unit": self.unit,
            "target": self.target,
            "is_write": self.is_write,
            "burst": self.burst,
            "idle": self.idle,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "TransactionGoal":
        """Rebuild a goal from its :meth:`to_json` form (lossless)."""
        return cls(
            unit=doc["unit"],
            target=doc["target"],
            is_write=doc["is_write"],
            burst=doc["burst"],
            idle=doc.get("idle", 0),
        )


class DirectedSequence(Sequence):
    """Plays an ordered goal list; each driving unit sees its own goals.

    The scenario systems hand every master ``sequence.for_unit(index)``,
    so one :class:`DirectedSequence` carries the whole plan and each
    master pulls only the goals addressed to it -- in global plan order,
    with the per-goal stream derived from the *global* goal index under
    the master's own ``rng``.  Randomization is therefore a function of
    ``(seed, unit, goal_index)``: stable for a fixed plan, but
    re-attributing a goal to a different unit draws a fresh stream.
    """

    name = "directed"

    def __init__(
        self, goals: Seq[TransactionGoal], unit: Optional[int] = None
    ):
        self.goals = tuple(goals)
        self.unit = unit

    def for_unit(self, unit: int) -> "DirectedSequence":
        """This plan narrowed to one master's goals (the driver seam)."""
        return DirectedSequence(self.goals, unit=unit)

    def items(
        self, rng: ScenarioRng, ctx: StimulusContext
    ) -> Iterator[SequenceItem]:
        """Yield the unit's goals, in plan order, with per-goal
        ``(seed, goal_index)``-derived address/payload randomization."""
        for index, goal in enumerate(self.goals):
            if self.unit is not None and goal.unit != self.unit:
                continue
            stream = rng.derive(f"goal{index}")
            burst = ctx.clamp_burst(goal.burst)
            offset = stream.ranged_int(0, max(ctx.address_span - burst, 0))
            payload = (
                stream.payload(burst, ctx.payload_bits) if goal.is_write else ()
            )
            yield SequenceItem(
                target=goal.target,
                is_write=goal.is_write,
                burst=burst,
                address_offset=offset,
                payload=payload,
                idle=max(goal.idle, 0),
            )


def lower_path_for_model(
    model: str, calls: Seq, topology: Tuple[int, ...]
) -> Optional[List[TransactionGoal]]:
    """Dispatch a planned FSM path to the model's goal lowering.

    Returns None when the path contains actions the model's drivers
    cannot realize at transaction level (e.g. PCI target-initiated
    STOP#) -- the planner's edge then simply stays in the residue.
    """
    # imported lazily, mirroring regression._build_system: the model
    # packages import this module's types
    if model == "master_slave":
        from ..models.master_slave.scenario import lower_path_to_goals

        return lower_path_to_goals(calls, *topology)
    if model == "pci":
        from ..models.pci.scenario import lower_path_to_goals

        return lower_path_to_goals(calls, *topology)
    raise ValueError(f"unknown model {model!r}")


@dataclass
class ClosureRound:
    """One iteration of the directed-closure loop."""

    index: int
    goals_planned: int
    achieved_edges: Tuple[str, ...]
    residue_before: int
    residue_after: int

    def summary(self) -> str:
        """One line: goals planned, edges closed, residue remaining."""
        return (
            f"round {self.index}: {self.goals_planned} goal(s) -> "
            f"{len(self.achieved_edges)} residue edge(s) closed, "
            f"{self.residue_after} remain"
        )


class DirectedClosureLoop:
    """Plan -> run -> fold -> re-plan until dry or out of rounds.

    ``plan_round(edges, round_index)`` returns the round's planned
    goals (opaque to the loop; an empty plan ends it).
    ``run_round(planned, round_index)`` executes them and returns the
    residue edge labels the runs demonstrably exercised.  The loop owns
    the folding: achieved edges leave the residue, and a round that
    closes nothing new ends the loop (the plan is dry -- re-running it
    would reproduce the same outcome).
    """

    def __init__(
        self,
        residue_edges: Seq[str],
        plan_round: Callable[[Tuple[str, ...], int], Seq],
        run_round: Callable[[Seq, int], Seq[str]],
        max_rounds: int = 3,
    ):
        # preserve residue order (FSM order) while deduplicating
        self.residue: List[str] = list(dict.fromkeys(residue_edges))
        self.plan_round = plan_round
        self.run_round = run_round
        self.max_rounds = max(max_rounds, 1)
        self.rounds: List[ClosureRound] = []
        self.went_dry = False

    @property
    def remaining(self) -> Tuple[str, ...]:
        """Residue edges still unexercised, in FSM order."""
        return tuple(self.residue)

    @property
    def closed(self) -> int:
        """Total residue edges the loop's rounds demonstrably closed."""
        return sum(len(r.achieved_edges) for r in self.rounds)

    def run(self) -> List[ClosureRound]:
        """Drive plan/run/fold rounds until dry or out of budget.

        A loop runs once: it lets go of ``plan_round`` and
        ``run_round`` as it starts, since a caller's closures usually
        hold the caller, which holds the loop's results."""
        plan_round, run_round = self.plan_round, self.run_round
        if plan_round is None:
            raise RuntimeError("a closure loop runs once")
        self.plan_round = self.run_round = None
        for round_index in range(self.max_rounds):
            if not self.residue:
                break
            before = len(self.residue)
            planned = plan_round(tuple(self.residue), round_index)
            if not planned:
                self.went_dry = True
                break
            achieved = set(run_round(planned, round_index))
            achieved &= set(self.residue)
            self.residue = [e for e in self.residue if e not in achieved]
            self.rounds.append(
                ClosureRound(
                    index=round_index,
                    goals_planned=len(planned),
                    achieved_edges=tuple(sorted(achieved)),
                    residue_before=before,
                    residue_after=len(self.residue),
                )
            )
            if not achieved:
                self.went_dry = True
                break
        return self.rounds

    def summary(self) -> str:
        """Per-round lines plus the remaining-residue tail."""
        lines = [r.summary() for r in self.rounds]
        tail = f"{len(self.residue)} residue edge(s) remain"
        if self.went_dry:
            tail += " (closure went dry)"
        lines.append(tail)
        return "\n".join(lines)
