"""Opt-in kernel witness mode: record actual per-delta access sets.

The race detector in :mod:`.race` is static -- it over- and
under-approximates.  The witness cross-checks it against a real run:
with a :class:`DeltaWitness` installed, every :meth:`Signal.read` /
:meth:`Signal.write` on the target simulator is recorded into the
current delta's read/write set, attributed to the running process by
a wrapper around the process classes' ``execute``.  At each delta
boundary (an ``on_delta`` hook, which also keeps the kernel's cycle
step off, so every process runs through ``execute``) the sets are
folded: a signal written by two *distinct* processes inside one delta
is a witnessed multi-driver race -- not a heuristic, an observed
last-write-wins resolution.

Witness output is split along the digest boundary: conflicts become
``race.multi-driver`` findings (anchored back to the declaration line
via :func:`repro.analyze.race.declaration_for`), while set-size
statistics are *facts* -- they feed ``analyze.witness.*`` metrics and
never enter the findings digest, so a witnessed run over a clean model
digests byte-identically to the static-only run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..sysc.kernel import Simulator
from ..sysc.process_ import Process
from ..sysc.signal import Signal

#: Attribution label for accesses outside any process (testbench code,
#: monitor sampling hooks, elaboration-time initial writes).
ENV = "<env>"

#: Module-level reentrancy guard: Signal.read/write and the processes'
#: execute are patched at class level, so only one witness may be
#: installed per interpreter.
_ACTIVE: Optional["DeltaWitness"] = None


def _process_classes() -> List[type]:
    """Every loaded process class that defines its own ``execute``."""
    pending: List[type] = [Process]
    found: List[type] = []
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "execute" in cls.__dict__:
            found.append(cls)
    return found


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

    Installation patches :class:`Signal` read/write and every process
    class's ``execute`` class-wide (each filtered to the target
    simulator) and registers an ``on_delta`` boundary hook; the
    ``execute`` wrapper attributes each access to the process it runs.
    """

    def __init__(self, simulator: Simulator):
        self.simulator = simulator
        self.stats = WitnessStats()
        #: signal name -> set of witnessed same-delta writer tuples
        self.conflicts: Dict[str, Set[Tuple[str, ...]]] = {}
        self._reads: Dict[str, Set[str]] = {}
        self._writes: Dict[str, Set[str]] = {}
        self._current: str = ENV
        #: (class, attribute, original) for each patched method
        self._saved: List[Tuple[type, str, Callable]] = []

    # -- install / remove -------------------------------------------------

    def __enter__(self) -> "DeltaWitness":
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("a DeltaWitness is already installed")
        _ACTIVE = self
        original_read = Signal.read
        original_write = Signal.write
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

        def attributing(original_execute):
            def execute(process, simulator):
                if simulator is target:
                    witness._current = (
                        getattr(process, "name", None) or repr(process)
                    )
                return original_execute(process, simulator)

            return execute

        patches = [(Signal, "read", read), (Signal, "write", write)]
        for cls in _process_classes():
            patches.append(
                (cls, "execute", attributing(cls.__dict__["execute"]))
            )
        for cls, attribute, wrapper in patches:
            self._saved.append((cls, attribute, cls.__dict__[attribute]))
            setattr(cls, attribute, wrapper)
        # The boundary hook also keeps the cycle step, which resumes
        # posedge threads without execute, off for the witnessed run.
        target.on_delta.append(self._boundary)
        return self

    def __exit__(self, *exc_info) -> None:
        global _ACTIVE
        target = self.simulator
        for cls, attribute, original in self._saved:
            setattr(cls, attribute, original)
        self._saved = []
        if self._boundary in target.on_delta:
            target.on_delta.remove(self._boundary)
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
