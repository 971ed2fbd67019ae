"""Coverage-driven stimulus biasing.

The paper's Section 4.3 argument -- fast monitored simulation "offers
good coverage for the assertions" -- becomes a feedback loop here:

1. bin every observed transaction by (target, direction, burst
   bucket) -- the stimulus features a sequence can actually steer,
2. fold in the monitor-side signals the repo already computes
   (:class:`repro.abv.coverage.CoverageCollector` uncovered covers and
   vacuous assertions, :class:`repro.explorer.sim_coverage.SimCoverage`
   FSM residue),
3. emit a re-biased :class:`~.sequences.TrafficProfile` whose weights
   point at the unhit bins, and whose idle gaps shrink when monitors
   report starvation-style vacuity.

The loop never touches the random seed path: a biased profile is new
*constraints*, not a new stream, so a run remains reproducible from
``(seed, round)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..sysc.bus import Transaction
from .random_ import BURST_PROFILES
from .sequences import StimulusContext, TrafficProfile

if TYPE_CHECKING:  # annotations only: a plain regression loads neither layer
    from ..abv.coverage import CoverageCollector
    from ..explorer.sim_coverage import SimCoverage

#: Burst-length buckets: boundary singles, the common middle, the top.
BURST_BUCKETS: Tuple[Tuple[str, int, Optional[int]], ...] = (
    ("single", 1, 1),
    ("short", 2, 3),
    ("long", 4, None),
)


def burst_bucket(burst: int) -> str:
    if burst < 1:
        # a burst below 1 word is a driver bug, not "long" traffic --
        # falling through to the largest bucket silently misclassified
        raise ValueError(f"burst length must be >= 1, got {burst}")
    for name, low, high in BURST_BUCKETS:
        if burst >= low and (high is None or burst <= high):
            return name
    raise AssertionError("BURST_BUCKETS must cover every burst >= 1")


@dataclass(frozen=True)
class StimulusBin:
    """One coverage bin over steerable stimulus features."""

    target: int
    is_write: bool
    bucket: str

    def describe(self) -> str:
        direction = "W" if self.is_write else "R"
        return f"target{self.target}/{direction}/{self.bucket}"


def bin_universe(ctx: StimulusContext) -> List[StimulusBin]:
    """Every reachable bin under the context's burst range."""
    buckets = []
    for name, low, high in BURST_BUCKETS:
        reach_low = max(low, ctx.min_burst)
        reach_high = ctx.max_burst if high is None else min(high, ctx.max_burst)
        if reach_low <= reach_high:
            buckets.append(name)
    return [
        StimulusBin(target, is_write, bucket)
        for target in range(ctx.n_targets)
        for is_write in (True, False)
        for bucket in buckets
    ]


@dataclass
class BinCoverage:
    """Hit accounting over the stimulus-bin universe."""

    ctx: StimulusContext
    hits: Dict[StimulusBin, int] = field(default_factory=dict)
    #: transactions whose address decoded outside [0, n_targets) --
    #: they are counted, not binned, so ``hits`` never grows bins that
    #: can't match ``bin_universe`` (which would inflate
    #: ``CoverageRound.new_bins`` and break early-exit accounting)
    off_universe: int = 0

    def record(self, txn: Transaction, window: int = 0x100, base: int = 0) -> None:
        """Bin one transaction; ``window`` is the per-target address
        window, ``base`` the first target's window index (PCI maps
        target 0 at the second page, so its drivers pass ``base=1``)."""
        target = (txn.address // window - base) if window else 0
        if not 0 <= target < self.ctx.n_targets:
            self.off_universe += 1
            return
        bin_ = StimulusBin(
            target=target,
            is_write=txn.is_write,
            bucket=burst_bucket(txn.burst_length),
        )
        self.hits[bin_] = self.hits.get(bin_, 0) + 1

    def record_many(
        self, txns: Iterable[Transaction], window: int = 0x100, base: int = 0
    ) -> None:
        for txn in txns:
            self.record(txn, window, base)

    def unhit(self) -> List[StimulusBin]:
        return [b for b in bin_universe(self.ctx) if self.hits.get(b, 0) == 0]

    @property
    def ratio(self) -> float:
        universe = bin_universe(self.ctx)
        if not universe:
            return 1.0
        hit = sum(1 for b in universe if self.hits.get(b, 0) > 0)
        return hit / len(universe)

    def summary(self) -> str:
        universe = bin_universe(self.ctx)
        missing = self.unhit()
        head = (
            f"stimulus coverage {len(universe) - len(missing)}/{len(universe)} "
            f"bins ({self.ratio:.0%})"
        )
        if missing:
            head += "; unhit: " + ", ".join(b.describe() for b in missing[:8])
            if len(missing) > 8:
                head += f" (+{len(missing) - 8} more)"
        if self.off_universe:
            head += f"; {self.off_universe} off-universe transaction(s)"
        return head


class CoverageFeedback:
    """Turns coverage residue into the next round's traffic profile."""

    def __init__(self, ctx: StimulusContext, base: TrafficProfile = TrafficProfile()):
        self.ctx = ctx
        self.base = base
        self.bins = BinCoverage(ctx)
        #: names of cover directives never hit / assertions never triggered
        self.starved_monitors: Set[str] = set()
        #: FSM transition coverage of the latest observed run (None until seen)
        self.fsm_transition_ratio: Optional[float] = None
        self.rounds_observed = 0

    # -- observations ------------------------------------------------------

    def observe_transactions(
        self, txns: Iterable[Transaction], window: int = 0x100, base: int = 0
    ) -> None:
        self.bins.record_many(txns, window, base)
        self.rounds_observed += 1

    def observe_monitors(self, collector: CoverageCollector) -> None:
        """Fold in ABV-side coverage: uncovered cover directives and
        vacuous (never-triggered) assertions mean the traffic never
        created the triggering condition -- push harder."""
        self.starved_monitors.update(collector.uncovered)
        self.starved_monitors.update(collector.never_triggered)

    def observe_fsm(self, coverage: SimCoverage) -> None:
        """Fold in formal-side residue: low FSM transition coverage
        means the interleavings are too tame."""
        self.fsm_transition_ratio = coverage.transition_coverage

    # -- the feedback step -------------------------------------------------

    def next_profile(self) -> TrafficProfile:
        """Bias the base profile toward everything still unhit."""
        profile = self.base
        unhit = self.bins.unhit()

        # 1. target weights: boost once per *distinct* starved target.
        #    Boosting per unhit bin compounded the weight with every
        #    unhit bin a target had, so one bad round starved every
        #    other target of traffic.
        for target in sorted({b.target for b in unhit}):
            profile = profile.with_target_boost(
                target, 2.0, self.ctx.n_targets
            )

        # 2. direction: shift write bias toward the starved direction
        unhit_writes = sum(1 for b in unhit if b.is_write)
        unhit_reads = len(unhit) - unhit_writes
        if unhit_writes != unhit_reads:
            shift = 0.25 if unhit_writes > unhit_reads else -0.25
            profile = replace(
                profile,
                write_bias=min(max(self.base.write_bias + shift, 0.1), 0.9),
            )

        # 3. burst shape: unhit long bins want the long-burst profile,
        #    unhit singles want the edges profile
        unhit_buckets = {b.bucket for b in unhit}
        if "long" in unhit_buckets:
            profile = replace(profile, burst=BURST_PROFILES["long"])
        elif "single" in unhit_buckets:
            profile = replace(profile, burst=BURST_PROFILES["edges"])

        # 4. starved monitors / tame interleavings: more pressure --
        #    shrink idle gaps so requests actually collide.  A design
        #    with no FSM transitions at all is vacuously covered
        #    (ratio 1.0 by contract, matching BinCoverage.ratio), so
        #    it never triggers pressure here.
        pressure = bool(self.starved_monitors) or (
            self.fsm_transition_ratio is not None
            and self.fsm_transition_ratio < 0.5
        )
        if pressure:
            profile = replace(profile, idle_min=0, idle_max=max(profile.idle_max // 2, 0))
        return profile

    def report(self) -> str:
        lines = [self.bins.summary()]
        if self.starved_monitors:
            lines.append(
                "starved monitors: " + ", ".join(sorted(self.starved_monitors))
            )
        if self.fsm_transition_ratio is not None:
            lines.append(
                f"FSM transition coverage observed: {self.fsm_transition_ratio:.0%}"
            )
        return "\n".join(lines)


@dataclass
class CoverageRound:
    """One iteration of the closed loop."""

    index: int
    profile: TrafficProfile
    new_bins: int
    ratio: float


class CoverageDrivenLoop:
    """Closed loop: run a batch, absorb its coverage, re-bias, repeat.

    ``run_batch(profile, round_index)`` builds and runs one scenario
    (the caller owns seeding -- derive from ``(seed, round_index)``)
    and returns its transactions.  The loop stops early once the bin
    universe is saturated.
    """

    def __init__(
        self,
        feedback: CoverageFeedback,
        run_batch,
        window: int = 0x100,
        base: int = 0,
    ):
        self.feedback = feedback
        self.run_batch = run_batch
        self.window = window
        self.base = base
        self.rounds: List[CoverageRound] = []

    def run(self, max_rounds: int = 4) -> List[CoverageRound]:
        for round_index in range(max_rounds):
            profile = (
                self.feedback.base if round_index == 0 else self.feedback.next_profile()
            )
            before = len(self.feedback.bins.hits)
            txns = self.run_batch(profile, round_index)
            self.feedback.observe_transactions(txns, self.window, self.base)
            after = len(self.feedback.bins.hits)
            self.rounds.append(
                CoverageRound(
                    index=round_index,
                    profile=profile,
                    new_bins=after - before,
                    ratio=self.feedback.bins.ratio,
                )
            )
            if not self.feedback.bins.unhit():
                break
        return self.rounds

    def summary(self) -> str:
        lines = [
            f"round {r.index}: +{r.new_bins} bins -> {r.ratio:.0%}"
            for r in self.rounds
        ]
        lines.append(self.feedback.report())
        return "\n".join(lines)
