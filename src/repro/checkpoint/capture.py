"""Snapshot and restore of live scenario systems.

The capture side walks a quiescent system -- kernel, clock driver,
signals, stateful modules, monitor letter stream and the monitor
sample owed to the next run -- into a
:class:`~repro.checkpoint.snapshot.Checkpoint`.  The restore side
rebuilds the system *from its spec* (construction is deterministic), so
only simulation state travels on the wire: processes are re-created
fresh, parked by a zero-length run, and then every register the
checkpoint carries is written back over them.  Module registers are
captured and written back through each module's declared ``STATE``
table (:mod:`repro.sysc.state`), so capture and restore cannot drift
apart.

Restore equivalence is the contract: ``restore(snapshot(run_to(T)))``
then running ``k`` more cycles is wake-for-wake identical to running
``T+k`` cycles uninterrupted -- same transaction stream, same monitor
verdicts, same coverage, same digests.  ``tests/test_checkpoint.py``
gates it per model, per engine, serial and sharded.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..scenarios.directed import DirectedSequence
from ..scenarios.regression import ScenarioSpec, _attach_monitors, _build_system
from ..scenarios.sequences import sequence_for_profile
from ..sysc.signal import _NOTHING
from ..sysc.state import SCALAR
from .errors import CheckpointFormatError, CheckpointStateError
from .snapshot import Checkpoint, decode_signal_value, encode_signal_value

#: KernelStats counters carried through a checkpoint (wall_seconds is a
#: run fact of the *process*, not of the simulated state, and restarts
#: at zero in the restored process)
_STAT_FIELDS = (
    "process_runs",
    "delta_cycles",
    "signal_changes",
    "time_advances",
    "max_deltas_per_instant",
    "fast_path_instants",
    "full_path_instants",
)


def _stateful_modules(system: Any) -> Dict[str, Any]:
    """basename -> module, for every module that declares ``STATE``."""
    modules: Dict[str, Any] = {}
    for module in system.simulator.modules:
        if module.STATE:
            if module.basename in modules:
                raise CheckpointStateError(
                    f"two stateful modules share the name {module.basename!r}"
                )
            modules[module.basename] = module
    return modules


def _capture_module(module: Any) -> Dict[str, Any]:
    doc: Dict[str, Any] = {}
    for key, attr, codec in module.STATE:
        value = getattr(module, attr)
        doc[key] = value if codec is SCALAR else codec.encode(value)
    return doc


def _restore_module(name: str, module: Any, doc: Dict[str, Any]) -> None:
    """Write a module document back through the module's declaration;
    a missing or undeclared field, or a value its codec cannot adopt,
    is a :class:`CheckpointFormatError` naming module and field."""
    declared = {key for key, _, _ in module.STATE}
    if doc.keys() != declared:
        raise CheckpointFormatError(
            f"module {name!r} document does not match its declared state "
            f"(missing fields {sorted(declared - set(doc))!r}, "
            f"undeclared fields {sorted(set(doc) - declared)!r})"
        )
    for key, attr, codec in module.STATE:
        try:
            setattr(module, attr, codec.decode(module, attr, doc[key]))
        except (TypeError, ValueError, LookupError, AttributeError) as exc:
            raise CheckpointFormatError(
                f"module {name!r} field {key!r}: {exc}"
            ) from exc


def _clock_driver(system: Any):
    """The kernel-internal clock driver process (found by name)."""
    name = f"{system.clock.name}.driver"
    for process in system.simulator.processes:
        if process.name == name:
            return process
    raise CheckpointStateError(f"clock driver {name!r} not registered")


def snapshot_system(
    system: Any,
    spec: ScenarioSpec,
    cycles_run: int,
    harness: Optional[Any] = None,
) -> Checkpoint:
    """Capture a quiescent scenario system into a checkpoint.

    The system must sit at a cycle boundary right after a
    ``run_cycles`` returned: no runnable processes, no pending signal
    updates, and exactly one pending timer (the clock driver's next
    edge).  Anything else means mid-instant state that a fresh process
    tree could not re-enter, so capture refuses rather than producing a
    checkpoint that restores *almost* correctly.
    """
    sim = system.simulator
    if sim._runnable or sim._delta_notified or sim._update_requests:
        raise CheckpointStateError(
            "system is mid-instant (runnable processes or pending "
            "updates); snapshot only at a cycle boundary"
        )
    driver = _clock_driver(system)
    pending: List[Tuple[int, Any]] = [
        (fire_time, event)
        for fire_time, sequence, event in sim._timed
        if sequence not in sim._cancelled
    ]
    if len(pending) != 1 or pending[0][1] is not driver._timer:
        names = [event.name for _, event in pending]
        raise CheckpointStateError(
            f"expected exactly the clock timer pending, found {names!r}"
        )
    for signal in sim.signals:
        if signal._next is not _NOTHING:
            raise CheckpointStateError(
                f"signal {signal.name!r} has an uncommitted write"
            )
    if spec.with_monitors:
        if harness is None or not harness.record_letters:
            raise CheckpointStateError(
                "spec runs with monitors but the harness did not record "
                "its letter stream (set harness.record_letters before "
                "running)"
            )
        letters = [dict(letter) for letter in harness.recorded_letters]
    else:
        letters = []
    clock = system.clock
    clock_doc = {
        "cycle_count": clock.cycle_count,
        "high_next": driver._high_next,
        "started": driver._started,
        "timer_delay": pending[0][0] - sim.time,
    }
    # the deadline posedge's sample: its negedge falls in the next run
    owed = [due for due, sampler in sim._settle if sampler is harness]
    if len(owed) != len(sim._settle) or len(owed) > 1:
        raise CheckpointStateError(
            "only the harness's one owed monitor sample may be pending"
        )
    if owed:
        clock_doc["owed_sample_in"] = owed[0] - sim.time
    return Checkpoint(
        spec=spec,
        cycles_run=cycles_run,
        kernel={
            "time": sim.time,
            "delta_count": sim.delta_count,
            "stats": {
                name: getattr(sim.stats, name) for name in _STAT_FIELDS
            },
        },
        clock=clock_doc,
        signals={
            signal.name: [
                encode_signal_value(signal.read()),
                signal._last_change_delta,
            ]
            for signal in sim.signals
        },
        modules={
            name: _capture_module(module)
            for name, module in _stateful_modules(system).items()
        },
        txn_next=system.txn_ids._next,
        letters=letters,
    )


def restore_system(checkpoint: Checkpoint) -> Tuple[Any, Optional[Any]]:
    """Rebuild a live system in the checkpointed state.

    Returns ``(system, harness)`` -- the harness is None unless the
    spec runs with monitors.  The system is ready for more
    ``run_cycles`` calls and behaves wake-for-wake like the original.
    """
    spec = checkpoint.spec
    system = _build_system(spec)
    harness = _attach_monitors(spec, system) if spec.with_monitors else None
    sim = system.simulator
    # Park every process: the zero-length run executes the time-0
    # instant (processes run to their first wait and the first posedge
    # fires), leaving the kernel quiescent.  All state that instant
    # produced is overwritten below.
    sim.run(0)
    if sim._runnable or sim._delta_notified or sim._update_requests:
        raise CheckpointStateError("system did not quiesce during restore")

    # -- kernel clocking ------------------------------------------------------
    sim.time = checkpoint.kernel["time"]
    sim.delta_count = checkpoint.kernel["delta_count"]
    for name, value in checkpoint.kernel["stats"].items():
        setattr(sim.stats, name, value)

    # -- clock driver: drop the time-0 timer, arm the checkpointed one ---------
    driver = _clock_driver(system)
    sim._timed.clear()
    sim._timed_ids.clear()
    sim._cancelled.clear()
    driver._high_next = checkpoint.clock["high_next"]
    driver._started = checkpoint.clock["started"]
    system.clock.cycle_count = checkpoint.clock["cycle_count"]
    # the driver is already in its timer's dynamic waiters (it armed
    # itself during the time-0 instant); only the heap entry is rebuilt
    if driver not in driver._timer.dynamic_waiters:
        raise CheckpointStateError("clock driver lost its timer wait")
    sim._notify_timed_fast(driver._timer, checkpoint.clock["timer_delay"])
    # the time-0 posedge armed a sample of its own; only the
    # checkpointed one is owed
    sim._settle.clear()
    owed_in = checkpoint.clock.get("owed_sample_in")
    if owed_in is not None:
        if harness is None or not harness._settling:
            raise CheckpointStateError(
                "checkpoint owes a monitor sample but the restored "
                "system does not sample at settle"
            )
        sim._settle.append((sim.time + owed_in, harness))

    # -- signals ---------------------------------------------------------------
    by_name = {signal.name: signal for signal in sim.signals}
    if set(by_name) != set(checkpoint.signals):
        missing = sorted(set(checkpoint.signals) - set(by_name))
        extra = sorted(set(by_name) - set(checkpoint.signals))
        raise CheckpointStateError(
            f"signal set mismatch (missing={missing!r}, extra={extra!r}); "
            "checkpoint does not match this spec's topology"
        )
    for name, (value_doc, last_change) in checkpoint.signals.items():
        signal = by_name[name]
        signal._current = decode_signal_value(value_doc)
        signal._last_change_delta = last_change

    # -- modules ---------------------------------------------------------------
    modules = _stateful_modules(system)
    if set(modules) != set(checkpoint.modules):
        raise CheckpointStateError(
            "module set mismatch; checkpoint does not match this spec"
        )
    for name, doc in checkpoint.modules.items():
        _restore_module(name, modules[name], doc)

    # -- bookkeeping ---------------------------------------------------------
    system.txn_ids._next = checkpoint.txn_next
    if harness is not None:
        harness.record_letters = True
        harness.replay_letters(checkpoint.letters)
    return system, harness


#: spec fields that must agree between a resuming spec and the
#: checkpoint it resumes from -- they determine topology, module set
#: and monitor wiring, none of which a restore can change
_PINNED_FIELDS = ("model", "topology", "seed", "fault", "with_monitors")


def restore_scenario(
    spec: ScenarioSpec, checkpoint: Checkpoint
) -> Tuple[Any, Optional[Any]]:
    """Restore a checkpoint and retarget the live system at ``spec``.

    Two shapes, one entry point:

    * **plain resume** -- ``spec`` carries the same stimulus as the
      checkpoint's spec and simply asks for more total cycles; the
      restored masters keep consuming the original item streams.
    * **fork** -- ``spec`` carries different ``goals`` (or profile);
      the restored system is re-armed with the new sequence via
      :meth:`rebind_sequence`, which is how frontier planning plays a
      fresh goal set from a mid-run state instead of from reset.

    Fields that define the system itself (model, topology, seed, fault,
    monitor wiring) must match -- a checkpoint cannot restore into a
    structurally different system.
    """
    base = checkpoint.spec
    for name in _PINNED_FIELDS:
        if getattr(spec, name) != getattr(base, name):
            raise CheckpointStateError(
                f"cannot resume: spec field {name!r} differs from the "
                f"checkpoint's ({getattr(spec, name)!r} != "
                f"{getattr(base, name)!r})"
            )
    if spec.cycles < checkpoint.cycles_run:
        raise CheckpointStateError(
            f"spec asks for {spec.cycles} total cycles but the "
            f"checkpoint already ran {checkpoint.cycles_run}"
        )
    system, harness = restore_system(checkpoint)
    if spec.goals != base.goals or spec.profile != base.profile:
        if spec.goals:
            sequence: Any = DirectedSequence(spec.goals)
        else:
            sequence = sequence_for_profile(spec.profile)
        system.rebind_sequence(sequence)
    return system, harness


def snapshot_scenario_run(spec: ScenarioSpec, cycles: int) -> Checkpoint:
    """Run a spec from reset for ``cycles`` and snapshot the result.

    The standalone capture entry point (CLI ``python -m repro
    checkpoint``, the differential tests, frontier planning).
    """
    system = _build_system(spec)
    harness = None
    if spec.with_monitors:
        harness = _attach_monitors(spec, system)
        harness.record_letters = True
    system.run_cycles(cycles)
    return snapshot_system(system, spec, cycles, harness)
