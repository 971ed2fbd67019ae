"""Opt-in kernel witness mode: record actual per-delta access sets.

The race detector in :mod:`.race` is static -- it over- and
under-approximates.  The witness cross-checks it against a real run:
with a :class:`DeltaWitness` installed, every :meth:`Signal.read` /
:meth:`Signal.write` on the target simulator is recorded into the
current delta's read/write set, attributed to the running process via
the ``Simulator.witness`` seam in the kernel's evaluation loop.  At
each delta boundary (an ``on_delta`` hook, which also forces the
kernel off its merged fast path and through the general scheduler) the
sets are folded: a signal written by two *distinct* processes inside
one delta is a witnessed multi-driver race -- not a heuristic, an
observed last-write-wins resolution.

Witness output is split along the digest boundary: conflicts become
``race.multi-driver`` findings (anchored back to the declaration line
via :func:`repro.analyze.race.declaration_for`), while set-size
statistics are *facts* -- they feed ``analyze.witness.*`` metrics and
never enter the findings digest, so a witnessed run over a clean model
digests byte-identically to the static-only run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..sysc.kernel import Simulator
from ..sysc.signal import Signal

#: Attribution label for accesses outside any process (testbench code,
#: monitor sampling hooks, elaboration-time initial writes).
ENV = "<env>"

#: Module-level reentrancy guard: Signal.read/write are patched at
#: class level, so only one witness may be installed per interpreter.
_ACTIVE: Optional["DeltaWitness"] = None


@dataclass
class WitnessStats:
    """Aggregate witness-run statistics (telemetry, never digested)."""

    deltas: int = 0
    reads: int = 0
    writes: int = 0
    max_read_set: int = 0
    max_write_set: int = 0
    total_read_set: int = 0
    total_write_set: int = 0

    def to_json(self) -> Dict[str, object]:
        """Wire/facts form, including derived mean set sizes."""
        deltas = self.deltas or 1
        return {
            "deltas": self.deltas,
            "reads": self.reads,
            "writes": self.writes,
            "max_read_set": self.max_read_set,
            "max_write_set": self.max_write_set,
            "mean_read_set": round(self.total_read_set / deltas, 3),
            "mean_write_set": round(self.total_write_set / deltas, 3),
        }


class DeltaWitness:
    """Records per-delta read/write sets for one simulator.

    Use as a context manager around ``simulator.run(...)``::

        with DeltaWitness(system.simulator) as witness:
            system.simulator.run(cycles * period)
        witness.conflicts  # signal name -> witnessed writer sets

    Installation patches :class:`Signal` read/write class-wide
    (filtered to the target simulator), registers an ``on_delta``
    boundary hook, and sets ``simulator.witness`` so the kernel
    attributes each access to the process it runs.
    """

    def __init__(self, simulator: Simulator):
        self.simulator = simulator
        self.stats = WitnessStats()
        #: signal name -> set of witnessed same-delta writer tuples
        self.conflicts: Dict[str, Set[Tuple[str, ...]]] = {}
        self._reads: Dict[str, Set[str]] = {}
        self._writes: Dict[str, Set[str]] = {}
        self._current: str = ENV
        self._saved: Optional[tuple] = None

    # -- kernel seam (called from Simulator._delta_cycle) -----------------

    def process_run(self, process) -> None:
        """Attribute subsequent accesses to ``process``."""
        self._current = getattr(process, "name", None) or repr(process)

    # -- install / remove -------------------------------------------------

    def __enter__(self) -> "DeltaWitness":
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("a DeltaWitness is already installed")
        _ACTIVE = self
        original_read = Signal.read
        original_write = Signal.write
        self._saved = (original_read, original_write)
        witness = self
        target = self.simulator

        def read(sig):
            if sig.simulator is target:
                witness._record_read(sig)
            return original_read(sig)

        def write(sig, value):
            if sig.simulator is target:
                witness._record_write(sig)
            return original_write(sig, value)

        Signal.read = read  # type: ignore[method-assign]
        Signal.write = write  # type: ignore[method-assign]
        # The boundary hook doubles as the fast-path disabler: a
        # non-empty on_delta list routes every instant through
        # _delta_cycle, where the witness seam attributes processes.
        target.on_delta.append(self._boundary)
        target.witness = self
        return self

    def __exit__(self, *exc_info) -> None:
        global _ACTIVE
        target = self.simulator
        if self._saved is not None:
            Signal.read, Signal.write = self._saved  # type: ignore[method-assign]
            self._saved = None
        if self._boundary in target.on_delta:
            target.on_delta.remove(self._boundary)
        target.witness = None
        _ACTIVE = None
        # flush a trailing partial delta so nothing witnessed is lost
        if self._reads or self._writes:
            self._boundary(target)

    # -- recording --------------------------------------------------------

    def _record_read(self, sig: Signal) -> None:
        self.stats.reads += 1
        self._reads.setdefault(sig.name, set()).add(self._current)

    def _record_write(self, sig: Signal) -> None:
        self.stats.writes += 1
        self._writes.setdefault(sig.name, set()).add(self._current)

    def _boundary(self, _sim: Simulator) -> None:
        """Delta boundary: fold this delta's sets into conflicts/stats."""
        stats = self.stats
        stats.deltas += 1
        read_set = len(self._reads)
        write_set = len(self._writes)
        stats.total_read_set += read_set
        stats.total_write_set += write_set
        if read_set > stats.max_read_set:
            stats.max_read_set = read_set
        if write_set > stats.max_write_set:
            stats.max_write_set = write_set
        for name, writers in self._writes.items():
            if len(writers) >= 2:
                self.conflicts.setdefault(name, set()).add(
                    tuple(sorted(writers))
                )
        self._reads.clear()
        self._writes.clear()
        self._current = ENV

    # -- results ----------------------------------------------------------

    def conflict_summaries(self) -> List[Tuple[str, str]]:
        """Sorted (signal name, writer description) per conflicted signal."""
        out: List[Tuple[str, str]] = []
        for name in sorted(self.conflicts):
            writer_sets = sorted(self.conflicts[name])
            described = "; ".join(", ".join(ws) for ws in writer_sets)
            out.append((name, described))
        return out


def run_witnessed(system, duration: int) -> DeltaWitness:
    """Run ``system.simulator`` for ``duration`` under a fresh witness."""
    simulator: Simulator = system.simulator
    with DeltaWitness(simulator) as witness:
        simulator.run(duration)
    return witness
