"""The differential checkpoint suite (this PR's CI gate).

The contract under test: ``restore(snapshot(T)) + k cycles`` is
*byte-identical* to ``run(T + k)`` -- same transaction stream, same
scoreboard, same monitor verdicts, same report digest -- for both
shipped scenario models, both PSL stepping engines, at any quiescent
snapshot boundary, whether the resumed run executes serially or in
fresh shard subprocesses.  Around it: the wire form's typed rejection
taxonomy (Hypothesis round trips included), crash-safe persistence,
the one channel a checkpoint crosses processes by (a capture on its
verdict, a resume source in the spec file or an upload), and the
frontier planner the directed-closure loop forks from.
"""

import hashlib
import json
import os
import re
import subprocess
import sys
from contextlib import contextmanager
from copy import deepcopy
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.checkpoint import (
    WIRE_VERSION,
    Checkpoint,
    CheckpointError,
    CheckpointFormatError,
    CheckpointIntegrityError,
    CheckpointStateError,
    CheckpointVersionError,
    UnknownCheckpointError,
    global_registry,
    load_checkpoint,
    reset_global_registry,
    restore_scenario,
    restore_system,
    snapshot_scenario_run,
    snapshot_system,
)
from repro.checkpoint import snapshot
from repro.checkpoint.snapshot import WIRE_KIND
from repro.dispatch import HttpHost, ShardDispatcher
from repro.dispatch.worker import start_worker
from repro.explorer.goal_planner import GoalPlanner, walk_fsm_events
from repro.psl.compiled import ENGINES
from repro.scenarios.regression import (
    RegressionRunner,
    ScenarioSpec,
    ScenarioVerdict,
    SpecFileError,
    _attach_monitors,
    _build_system,
    load_specs,
    run_scenario,
    save_specs,
)
from repro.scenarios.scoreboard import FaultPlan
from repro.scenarios.sequences import NAMED_PROFILES
from repro.store import atomic_write
from repro.workbench import SerialEngine, StageStatus, Workbench

CYCLES = 120

#: One monitored, fsm-tracked spec per shipped model: the differential
#: runs compare *everything* a verdict carries (stream, scoreboard,
#: monitor verdicts, reconstructed FSM events).
MONITORED_SPECS = {
    "master_slave": ScenarioSpec(
        "master_slave", 2005, (2, 2, 2), "bursty", CYCLES,
        None, True, (), True,
    ),
    "pci": ScenarioSpec(
        "pci", 2011, (2, 2), "default", CYCLES, None, True, (), True,
    ),
}


@pytest.fixture(autouse=True)
def _fresh_registry():
    """Isolate every test from the process-global checkpoint registry."""
    reset_global_registry()
    yield
    reset_global_registry()


def _comparable(verdict):
    """A verdict's full wire form minus wall time and resume plumbing
    (the only fields allowed to differ between a resumed and an
    uninterrupted run)."""
    doc = verdict.to_json()
    doc.pop("wall_seconds")
    for key in ("resume_from", "checkpoint_at"):
        doc["spec"].pop(key, None)
    return doc


_BASELINES = {}


def _baseline(model, engine):
    """The uninterrupted run's verdict, cached per (model, engine)."""
    key = (model, engine)
    if key not in _BASELINES:
        _BASELINES[key] = _comparable(run_scenario(MONITORED_SPECS[model]))
    return _BASELINES[key]


class TestRestoreEquivalence:
    """snapshot at T -> restore -> run to T+k == uninterrupted run."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("model", sorted(MONITORED_SPECS))
    @pytest.mark.parametrize("snap_at", (1, 60, CYCLES - 1))
    def test_resume_matches_uninterrupted(
        self, model, snap_at, engine, monkeypatch
    ):
        monkeypatch.setenv("REPRO_PSL_ENGINE", engine)
        spec = MONITORED_SPECS[model]
        checkpoint = snapshot_scenario_run(
            replace(spec, cycles=snap_at), snap_at
        )
        digest = global_registry().put(checkpoint)
        resumed = _comparable(run_scenario(replace(spec, resume_from=digest)))
        assert resumed == _baseline(model, engine)

    def test_snapshot_crosses_psl_engines(self, monkeypatch):
        """Monitor state travels as replayed letters, so a snapshot
        taken under one stepping engine restores under the other."""
        spec = MONITORED_SPECS["master_slave"]
        monkeypatch.setenv("REPRO_PSL_ENGINE", "compiled")
        checkpoint = snapshot_scenario_run(replace(spec, cycles=60), 60)
        digest = global_registry().put(checkpoint)
        monkeypatch.setenv("REPRO_PSL_ENGINE", "interpreted")
        resumed = _comparable(run_scenario(replace(spec, resume_from=digest)))
        assert resumed == _baseline("master_slave", "interpreted")

    def test_fresh_process_restore_serial_vs_sharded(self):
        """Resumed specs produce the baseline report digest both on the
        serial engine and across shard *subprocesses* that rebuild the
        checkpoints from the wire documents in their spec file."""
        resumed = []
        for model in sorted(MONITORED_SPECS):
            spec = MONITORED_SPECS[model]
            checkpoint = snapshot_scenario_run(replace(spec, cycles=60), 60)
            digest = global_registry().put(checkpoint)
            resumed.append(replace(spec, resume_from=digest))
        baseline = RegressionRunner(
            list(MONITORED_SPECS.values()), engine=SerialEngine()
        ).run()
        serial = RegressionRunner(resumed, engine=SerialEngine()).run()
        sharded = ShardDispatcher(resumed, shards=2).run().report
        assert serial.digest() == baseline.digest()
        assert sharded.digest() == baseline.digest()

    def test_directed_goals_resume_too(self):
        """A fork can swap the stimulus: resuming with *different* goals
        re-arms the sequence instead of replaying the original items."""
        from repro.scenarios.directed import TransactionGoal

        spec = ScenarioSpec(
            "master_slave", 2005, (1, 1, 2), "default", 80, track_fsm=True
        )
        checkpoint = snapshot_scenario_run(spec, 80)
        digest = global_registry().put(checkpoint)
        goals = (TransactionGoal(unit=0, target=0, is_write=True, burst=1),)
        forked = run_scenario(
            replace(
                spec, cycles=96, goals=goals, profile="directed",
                resume_from=digest,
            )
        )
        assert forked.ok
        assert forked.cycles == 96
        assert forked.fsm_events  # the forked stimulus actually drove


class TestRestoreGuards:
    """Typed refusals: a checkpoint never restores into the wrong run."""

    def _checkpoint(self):
        spec = ScenarioSpec("master_slave", 2005, (1, 1, 2), "default", 60)
        return spec, snapshot_scenario_run(replace(spec, cycles=30), 30)

    def test_pinned_field_mismatch_rejected(self):
        spec, checkpoint = self._checkpoint()
        with pytest.raises(CheckpointStateError, match="seed"):
            restore_scenario(replace(spec, seed=7), checkpoint)
        with pytest.raises(CheckpointStateError, match="topology"):
            restore_scenario(replace(spec, topology=(2, 1, 3)), checkpoint)

    def test_total_cycles_below_checkpoint_rejected(self):
        spec, checkpoint = self._checkpoint()
        with pytest.raises(CheckpointStateError, match="already ran"):
            restore_scenario(replace(spec, cycles=10), checkpoint)

    def test_unknown_digest_rejected(self):
        spec, checkpoint = self._checkpoint()
        global_registry().put(checkpoint)
        with pytest.raises(UnknownCheckpointError, match="unknown"):
            run_scenario(replace(spec, resume_from="0" * 64))


class TestWireTaxonomy:
    """Corrupt, truncated and stale wire forms are rejected, typed."""

    @pytest.fixture(scope="class")
    def checkpoint(self):
        return snapshot_scenario_run(
            ScenarioSpec("master_slave", 2005, (1, 1, 2), "default", 40), 40
        )

    def test_round_trip_preserves_the_digest(self, checkpoint):
        wire = json.loads(json.dumps(checkpoint.to_json()))
        again = Checkpoint.from_json(wire)
        assert again.digest == checkpoint.digest
        assert again.canonical_payload() == checkpoint.canonical_payload()

    def test_corrupt_payload_rejected(self, checkpoint):
        doc = checkpoint.to_json()
        doc["payload"]["txn_next"] += 1
        with pytest.raises(CheckpointIntegrityError, match="digest mismatch"):
            Checkpoint.from_json(doc)

    def test_truncated_payload_rejected(self, checkpoint):
        doc = checkpoint.to_json()
        del doc["payload"]["signals"]
        with pytest.raises(CheckpointFormatError, match="malformed"):
            Checkpoint.from_json(doc)

    def test_newer_version_rejected(self, checkpoint):
        doc = checkpoint.to_json()
        doc["version"] = WIRE_VERSION + 1
        with pytest.raises(CheckpointVersionError, match="newer"):
            Checkpoint.from_json(doc)

    def test_non_checkpoint_documents_rejected(self):
        with pytest.raises(CheckpointFormatError, match="object"):
            Checkpoint.from_json([1, 2, 3])
        with pytest.raises(CheckpointFormatError, match="kind"):
            Checkpoint.from_json({"kind": "something-else"})
        with pytest.raises(CheckpointFormatError, match="version"):
            Checkpoint.from_json({"kind": WIRE_KIND, "version": "1"})
        with pytest.raises(CheckpointFormatError, match="payload"):
            Checkpoint.from_json(
                {"kind": WIRE_KIND, "version": WIRE_VERSION}
            )

    def test_every_rejection_is_one_taxonomy(self):
        for klass in (
            CheckpointFormatError,
            CheckpointVersionError,
            CheckpointIntegrityError,
            CheckpointStateError,
            UnknownCheckpointError,
        ):
            assert issubclass(klass, CheckpointError)


    def _restore_edited(self, checkpoint, module, edit):
        """Restore ``checkpoint`` with one module document edited.  The
        edit is a new checkpoint value over a deep-copied field, so it
        carries its own valid digest through the wire: only the
        declared-state check can refuse it."""
        modules = deepcopy(checkpoint.modules)
        edit(modules[module])
        edited = replace(checkpoint, modules=modules)
        restore_system(Checkpoint.from_json(edited.to_json()))

    def test_missing_module_field_rejected(self, checkpoint):
        with pytest.raises(
            CheckpointFormatError, match=r"'master0'.*missing fields \['phase'\]"
        ):
            self._restore_edited(
                checkpoint, "master0", lambda doc: doc.pop("phase")
            )

    def test_undeclared_module_field_rejected(self, checkpoint):
        with pytest.raises(
            CheckpointFormatError, match=r"'slave0'.*undeclared fields \['parity'\]"
        ):
            self._restore_edited(
                checkpoint, "slave0", lambda doc: doc.update(parity=1)
            )

    def test_unknown_phase_name_rejected(self):
        checkpoint = snapshot_scenario_run(
            ScenarioSpec("pci", 2011, (1, 1), "default", 40), 40
        )
        with pytest.raises(
            CheckpointFormatError, match=r"'target0' field 'phase'.*'bogus'"
        ):
            self._restore_edited(
                checkpoint, "target0", lambda doc: doc.update(phase="bogus")
            )


#: content digests of 120-cycle snapshots, pinned so the wire form of
#: every module's declared state stays byte-identical (plain specs,
#: fsm tracking off; stable under any PYTHONHASHSEED)
PINNED_DIGESTS = {
    "ms-bursty-monitored": (
        ScenarioSpec(
            "master_slave", 2005, (2, 2, 2), "bursty", CYCLES,
            with_monitors=True,
        ),
        "039b6fd7ce7ba3eedd94d6ed34034d3f3c1a4f02e0a3e6d479f1fd25f783a85b",
    ),
    "ms-corrupt-read": (
        ScenarioSpec(
            "master_slave", 7, (1, 1, 2), "default", CYCLES,
            fault=FaultPlan("corrupt-read", unit=0, nth=1),
        ),
        "d55ffe9aad967a9ef977c0c3cccd63a145d75e6dd44039a09f941575fed3c0e5",
    ),
    "pci-monitored": (
        ScenarioSpec(
            "pci", 2011, (2, 2), "default", CYCLES, with_monitors=True,
        ),
        "765ed5d9683e0f18ad532dbf3ec2e8ffd74397e1f68d2c31387452073a367126",
    ),
    "pci-drop": (
        ScenarioSpec(
            "pci", 7, (2, 2), "default", CYCLES,
            fault=FaultPlan("drop", unit=0, nth=1),
        ),
        "8cac1d4d30aaf2f14c2941c337f4c5f75b28ff022b663ce370a69bbd1a051fd8",
    ),
}


class TestPinnedWire:
    """Checkpoint documents are byte-identical to the pinned captures."""

    def test_wire_version_is_two(self):
        assert WIRE_VERSION == 2

    @pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
    def test_snapshot_digest_is_pinned(self, name):
        spec, digest = PINNED_DIGESTS[name]
        assert snapshot_scenario_run(spec, CYCLES).digest == digest

    def test_spilled_file_bytes_are_pinned(self, tmp_path):
        """The file ``repro checkpoint --out`` writes for a pinned
        capture (one ``atomic_write`` of its wire document): the file's
        SHA-256, not just the payload digest."""
        spec, digest = PINNED_DIGESTS["pci-monitored"]
        path = tmp_path / "run.ckpt"
        atomic_write(str(path), snapshot_scenario_run(spec, CYCLES).to_json())
        assert load_checkpoint(str(path)).digest == digest
        data = path.read_bytes()
        assert hashlib.sha256(data).hexdigest() == (
            "cd5f5a40dcd7b095d46bc4e63a8eb09bbb753d026f65ad9e7b29b7f43e0c7e66"
        )


def _fresh_digest(checkpoint):
    """The digest re-derived from the checkpoint's fields right now."""
    text = json.dumps(
        checkpoint.payload(), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestCachedDigest:
    """A checkpoint encodes its payload once: the cached digest serves
    every later read, store key and wire document, and nothing a live
    system shares with the checkpoint can make it stale."""

    @pytest.mark.parametrize(
        "with_monitors", [False, True], ids=["plain", "monitored"]
    )
    @pytest.mark.parametrize("model", sorted(MONITORED_SPECS))
    def test_running_on_cannot_stale_the_digest(self, model, with_monitors):
        spec = replace(MONITORED_SPECS[model], with_monitors=with_monitors)
        at, more = 40, 30
        system = _build_system(spec)
        harness = None
        if with_monitors:
            harness = _attach_monitors(spec, system)
            harness.record_letters = True
        system.run_cycles(at)
        checkpoint = snapshot_system(system, spec, at, harness)
        digest = checkpoint.digest
        # the source system runs on past the capture ...
        system.run_cycles(more)
        assert _fresh_digest(checkpoint) == checkpoint.digest == digest
        # ... and so does a system restored from it
        restored, _ = restore_system(checkpoint)
        restored.run_cycles(more)
        assert _fresh_digest(checkpoint) == checkpoint.digest == digest

    def test_a_put_and_a_fetch_encode_once_each(self, tmp_path, monkeypatch):
        """A registry put and the file written from the stored value
        share one encode; reading the file back verifies with one."""
        checkpoint = snapshot_scenario_run(
            ScenarioSpec("master_slave", 2005, (1, 1, 2), "default", 40), 40
        )
        calls = []

        def dumps(doc, **options):
            calls.append(options)
            return json.dumps(doc, **options)

        # the canonical encodes are the json.dumps calls in snapshot.py
        monkeypatch.setattr(snapshot, "json", SimpleNamespace(dumps=dumps))
        path = str(tmp_path / "run.ckpt")
        digest = global_registry().put(checkpoint)
        atomic_write(path, global_registry().get(digest).to_json())
        assert len(calls) == 1
        calls.clear()
        fetched = load_checkpoint(path)
        assert len(calls) == 1
        assert fetched.digest == digest == _fresh_digest(fetched)

    def test_an_edit_is_a_new_value_with_its_own_digest(self):
        checkpoint = snapshot_scenario_run(
            ScenarioSpec("pci", 2011, (1, 1), "default", 40), 40
        )
        with pytest.raises(AttributeError):
            checkpoint.txn_next = 0
        edited = replace(checkpoint, txn_next=checkpoint.txn_next + 1)
        assert edited.digest == _fresh_digest(edited) != checkpoint.digest
        assert checkpoint.digest == _fresh_digest(checkpoint)


class TestAtomicPersistence:
    """Satellite fix: a crash mid-write never leaves a half-checkpoint
    that restore would accept."""

    def _checkpoints(self):
        spec = ScenarioSpec("master_slave", 2005, (1, 1, 2), "default", 40)
        return (
            snapshot_scenario_run(replace(spec, cycles=20), 20),
            snapshot_scenario_run(spec, 40),
        )

    def test_crash_before_rename_keeps_the_old_file(
        self, tmp_path, monkeypatch
    ):
        old, new = self._checkpoints()
        path = str(tmp_path / "run.ckpt")

        def save(checkpoint):
            # what `python -m repro checkpoint --out` does
            atomic_write(path, checkpoint.to_json())

        save(old)
        with monkeypatch.context() as patch:
            def crash(src, dst):
                raise OSError("disk went away before rename")

            patch.setattr(os, "replace", crash)
            with pytest.raises(OSError, match="went away"):
                save(new)
        # the old file is intact and no tempfile litter remains
        assert load_checkpoint(path).digest == old.digest
        assert os.listdir(tmp_path) == ["run.ckpt"]

    def test_half_written_file_is_rejected_not_restored(self, tmp_path):
        old, _ = self._checkpoints()
        text = json.dumps(old.to_json())
        path = tmp_path / "torn.ckpt"
        path.write_text(text[: len(text) // 2], encoding="utf-8")
        with pytest.raises(CheckpointFormatError, match="cannot read"):
            load_checkpoint(str(path))


class TestHypothesisRoundTrip:
    """Random prefixes: wire round trip and re-snapshot identity."""

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        prefix=st.integers(min_value=1, max_value=48),
        model=st.sampled_from(sorted(MONITORED_SPECS)),
    )
    def test_random_prefix_round_trips(self, seed, prefix, model):
        topology = (1, 1, 2) if model == "master_slave" else (1, 1)
        spec = ScenarioSpec(model, seed, topology, "default", prefix)
        checkpoint = snapshot_scenario_run(spec, prefix)
        wire = json.loads(json.dumps(checkpoint.to_json()))
        again = Checkpoint.from_json(wire)
        assert again.digest == checkpoint.digest
        # restoring the parsed wire form and re-snapshotting at the
        # same boundary reproduces the identical payload bytes
        system, harness = restore_system(again)
        resnap = snapshot_system(
            system, again.spec, again.cycles_run, harness=harness
        )
        assert resnap.digest == checkpoint.digest


_FAULT_PLANS = st.one_of(
    st.none(),
    st.builds(
        FaultPlan,
        kind=st.sampled_from(("corrupt-read", "drop")),
        unit=st.integers(min_value=0, max_value=1),
        nth=st.integers(min_value=1, max_value=4),
    ),
)


class TestFaultedRestoreEquivalence:
    """Generated restore equivalence: snapshot at T, resume to T+k,
    compare with the uninterrupted run -- over model, seed, profile,
    fault plan, T and k.  Faulted systems carry extra declared state
    (a faulty slave's read count), which only this property covers."""

    @settings(max_examples=40, deadline=None)
    @given(
        model=st.sampled_from(sorted(MONITORED_SPECS)),
        seed=st.integers(min_value=0, max_value=2**16),
        profile=st.sampled_from(sorted(NAMED_PROFILES)),
        fault=_FAULT_PLANS,
        snap_at=st.integers(min_value=1, max_value=60),
        more=st.integers(min_value=1, max_value=40),
    )
    @example(
        model="master_slave", seed=7, profile="default",
        fault=FaultPlan("corrupt-read", unit=0, nth=2), snap_at=40, more=40,
    )
    @example(
        model="pci", seed=2005, profile="reads",
        fault=FaultPlan("corrupt-read", unit=1, nth=2), snap_at=30, more=30,
    )
    @example(
        model="pci", seed=11, profile="default",
        fault=FaultPlan("drop", unit=0, nth=3), snap_at=50, more=30,
    )
    def test_faulted_resume_matches_uninterrupted(
        self, model, seed, profile, fault, snap_at, more
    ):
        topology = (1, 1, 2) if model == "master_slave" else (2, 2)
        spec = ScenarioSpec(
            model, seed, topology, profile, snap_at + more, fault,
            track_fsm=True,
        )
        checkpoint = snapshot_scenario_run(
            replace(spec, cycles=snap_at), snap_at
        )
        digest = global_registry().put(checkpoint)
        resumed = run_scenario(replace(spec, resume_from=digest))
        assert _comparable(resumed) == _comparable(run_scenario(spec))


_TOPOLOGIES = {"master_slave": [(1, 1, 2), (2, 2, 2)], "pci": [(2, 2), (3, 2)]}


class TestMonitoredRestoreEquivalence:
    """Generated restore equivalence with monitors on, under both PSL
    engines.  The uninterrupted run samples through the generated
    sample-and-step; the resumed one replays the recorded letters into
    fresh monitors and goes on stepping letters -- so the property
    also checks that the two paths' windows and cycle counts agree
    across capture and replay.  Every snapshot here lands on a
    deadline posedge, so each checkpoint carries the owed sample."""

    @settings(max_examples=30, deadline=None)
    @given(
        model=st.sampled_from(sorted(MONITORED_SPECS)),
        engine=st.sampled_from(ENGINES),
        topology=st.integers(min_value=0, max_value=1),
        seed=st.integers(min_value=0, max_value=2**16),
        profile=st.sampled_from(sorted(NAMED_PROFILES)),
        snap_at=st.integers(min_value=1, max_value=60),
        more=st.integers(min_value=1, max_value=40),
    )
    @example(
        model="pci", engine="compiled", topology=1, seed=2005,
        profile="default", snap_at=23, more=17,
    )
    @example(
        model="master_slave", engine="interpreted", topology=1, seed=7,
        profile="bursty", snap_at=40, more=40,
    )
    def test_monitored_resume_matches_uninterrupted(
        self, model, engine, topology, seed, profile, snap_at, more
    ):
        spec = ScenarioSpec(
            model, seed, _TOPOLOGIES[model][topology], profile,
            snap_at + more, None, True, track_fsm=True,
        )
        previous = os.environ.get("REPRO_PSL_ENGINE")
        os.environ["REPRO_PSL_ENGINE"] = engine
        try:
            checkpoint = snapshot_scenario_run(
                replace(spec, cycles=snap_at), snap_at
            )
            owed = checkpoint.clock["owed_sample_in"]
            assert owed == _build_system(spec).clock._high_time
            digest = global_registry().put(checkpoint)
            resumed = _comparable(run_scenario(replace(spec, resume_from=digest)))
            uninterrupted = _comparable(run_scenario(spec))
            # the monitors themselves: windows, cycles, verdicts
            system, harness = restore_system(checkpoint)
            system.run_cycles(more)
            ref_system = _build_system(spec)
            ref = _attach_monitors(spec, ref_system)
            ref_system.run_cycles(snap_at + more)
        finally:
            if previous is None:
                del os.environ["REPRO_PSL_ENGINE"]
            else:
                os.environ["REPRO_PSL_ENGINE"] = previous
        assert resumed["failed_assertions"] == uninterrupted["failed_assertions"]
        assert resumed == uninterrupted
        assert harness.cycles_observed == ref.cycles_observed == snap_at + more
        assert [_monitor_state(b) for b in harness.bindings] == [
            _monitor_state(b) for b in ref.bindings
        ]


def _monitor_state(binding):
    monitor = binding.monitor
    return (
        monitor.name, binding.fired, monitor.verdict(),
        monitor.failure_cycle, monitor.snapshot(),
    )


@pytest.fixture(scope="module")
def ms_workbench():
    """One explored Master/Slave workbench shared by the planner tests."""
    workbench = Workbench("master_slave")
    workbench.explore()
    return workbench


class TestFrontierPlanning:
    """The planner side of frontier forking: origin choice, fallback,
    and the event walk's final-state bookkeeping."""

    def _planner(self, ms_workbench):
        fsm = ms_workbench._exploration.fsm
        edges = ms_workbench._residue.uncovered_transitions
        return fsm, GoalPlanner(fsm), edges

    def test_frontier_origin_wins_only_when_strictly_shorter(
        self, ms_workbench
    ):
        _, planner, edges = self._planner(ms_workbench)
        from_reset = {p.target_edge: p for p in planner.plan(edges)}
        plans = planner.plan(edges, frontier=[3, 5])
        forked = [p for p in plans if p.origin_state is not None]
        assert forked, "no plan adopted a frontier origin"
        for plan in forked:
            assert plan.origin_state in (3, 5)
            assert f"from s{plan.origin_state}" in plan.describe()
            baseline = from_reset.get(plan.target_edge)
            if baseline is not None:
                # a fork is only taken when strictly shorter than the
                # from-reset path, whose length it records
                assert len(plan.transitions) < len(baseline.transitions)
                assert plan.initial_steps == len(baseline.transitions)
        # goals that kept the initial origin plan the same path (the
        # greedy dedup may give the two rosters different edges, so
        # compare only the shared ones)
        for plan in plans:
            if plan.origin_state is None and plan.target_edge in from_reset:
                assert (
                    plan.transitions
                    == from_reset[plan.target_edge].transitions
                )

    def test_forked_plans_sort_after_from_reset_plans(self, ms_workbench):
        """Longest-first ordering pushes the (short) forked plans to the
        tail -- the property the workbench's max_goals exemption relies
        on."""
        _, planner, edges = self._planner(ms_workbench)
        plans = planner.plan(edges, frontier=[3, 5])
        lengths = [len(p.transitions) for p in plans]
        assert lengths == sorted(lengths, reverse=True)
        first_fork = next(
            i for i, p in enumerate(plans) if p.origin_state is not None
        )
        assert all(p.origin_state is not None for p in plans[first_fork:])

    def test_replan_from_initial_recovers_an_undrivable_fork(
        self, ms_workbench
    ):
        _, planner, edges = self._planner(ms_workbench)
        plans = planner.plan(edges, frontier=[3, 5])
        forked = [p for p in plans if p.origin_state is not None][0]
        fallback = planner.replan_from_initial(forked)
        assert fallback is not None
        assert fallback.origin_state is None
        assert fallback.target_edge == forked.target_edge
        assert fallback.initial_steps == len(fallback.transitions)
        assert fallback.transitions[-1].label() == (
            forked.transitions[-1].label()
        )

    def test_walk_final_state_tracks_the_frontier(self, ms_workbench):
        fsm, _, _ = self._planner(ms_workbench)
        initial = fsm.initial_states()[0].index
        assert walk_fsm_events(fsm, []).final_state == initial
        transition = next(
            t
            for t in fsm.outgoing(initial)
            if sum(
                1
                for o in fsm.outgoing(initial)
                if o.label() == t.label()
            )
            == 1
        )
        call = transition.call
        walk = walk_fsm_events(
            fsm, [(call.machine, call.action, tuple(call.args))]
        )
        assert walk.final_state == transition.target
        assert walk.steps_walked == 1

    def test_close_coverage_frontier_forks_and_saves_cycles(self):
        """End to end: with frontier forking on, later rounds fork
        checkpointed states and bank real cycle savings."""
        workbench = Workbench("master_slave")
        workbench.explore()
        result = workbench.close_coverage(
            rounds=2, cycles=160, max_goals=6, frontier=True
        )
        data = result.data
        assert data["frontier"] is True
        assert len(data["frontier_states"]) >= 1
        assert data["forked_goals"] >= 1
        assert data["cycles_saved"] > 0
        assert data["achieved"] >= 1

    def test_frontier_closure_reaches_the_coverage_target(self):
        """The close-frontier regime (6 rounds x 160 cycles, 6 goals a
        round) closes at least 23 of the 29 formal-only Master/Slave
        edges, and reaches 17 closed in fewer simulated cycles than
        the same budget replayed from reset."""

        def close(frontier):
            workbench = Workbench("master_slave")
            workbench.explore()
            result = workbench.close_coverage(
                rounds=6, cycles=160, max_goals=6, frontier=frontier
            )
            assert result.ok, result.summary
            return result.data

        def cycles_until(data, closed):
            per_round = {r["round"]: r["edges_closed"] for r in data["rounds"]}
            cycles = done = 0
            for entry in data["run"]:
                cycles += entry["cycles_simulated"]
                done += per_round.get(entry["round"], 0)
                if done >= closed:
                    return cycles
            return None

        from_reset, forked = close(False), close(True)
        assert forked["achieved"] >= max(23, from_reset["achieved"])
        assert forked["forked_goals"] >= 1
        assert forked["cycles_saved"] > 0
        to_mid = cycles_until(forked, 17)
        to_mid_from_reset = cycles_until(from_reset, 17)
        assert to_mid is not None and to_mid_from_reset is not None
        assert to_mid < to_mid_from_reset


class TestCheckpointChannel:
    """A capture travels home as its verdict's sidecar, a resume source
    out in its spec file: neither needs a shared directory, and neither
    fills a registry behind the caller's back."""

    SPEC = ScenarioSpec(
        "master_slave", 2005, (1, 1, 2), "default", 80,
        track_fsm=True, checkpoint_at=50,
    )

    def test_a_capture_rides_the_verdict_not_the_registry(self):
        verdict = run_scenario(self.SPEC)
        assert len(global_registry()) == 0
        assert verdict.checkpoint.digest == verdict.frontier_digest
        assert verdict.checkpoint.cycles_run == 50
        wire = json.loads(json.dumps(verdict.to_json()))
        again = ScenarioVerdict.from_json(wire)
        assert again.to_json() == wire
        assert again.checkpoint.digest == verdict.frontier_digest
        # outside equality, and absent from a capture-free verdict
        assert replace(verdict, checkpoint=None) == verdict
        plain = run_scenario(replace(self.SPEC, checkpoint_at=None))
        assert "checkpoint" not in plain.to_json()

    @pytest.mark.parametrize("damage", ["tampered", "foreign"])
    def test_a_bad_sidecar_is_a_typed_error(self, damage):
        doc = run_scenario(self.SPEC).to_json()
        if damage == "tampered":
            doc["checkpoint"]["payload"]["txn_next"] += 1
        else:
            doc["frontier_digest"] = "0" * 64
        with pytest.raises(CheckpointIntegrityError):
            ScenarioVerdict.from_json(doc)

    def _saved(self, tmp_path):
        spec = MONITORED_SPECS["pci"]
        checkpoint = snapshot_scenario_run(replace(spec, cycles=60), 60)
        resumed = replace(spec, resume_from=global_registry().put(checkpoint))
        path = str(tmp_path / "specs.json")
        save_specs([spec, resumed], path)
        reset_global_registry()
        return path, [spec, resumed]

    def test_a_spec_file_carries_the_checkpoints_it_resumes_from(
        self, tmp_path
    ):
        path, specs = self._saved(tmp_path)
        assert load_specs(path) == specs
        digest = specs[1].resume_from
        assert global_registry().get(digest).digest == digest
        plain = str(tmp_path / "plain.json")
        save_specs(specs[:1], plain)
        with open(plain, encoding="utf-8") as handle:
            assert "checkpoints" not in json.load(handle)

    def test_a_corrupt_embedded_checkpoint_names_the_path(self, tmp_path):
        path, _ = self._saved(tmp_path)
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        doc["checkpoints"][0]["payload"]["txn_next"] += 1
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        with pytest.raises(
            SpecFileError, match=re.escape(path) + ".*checkpoint entry 0"
        ):
            load_specs(path)
        assert len(global_registry()) == 0


_SPAWNED_POOL = """
import multiprocessing
from dataclasses import replace
from repro.checkpoint import global_registry, snapshot_scenario_run
from repro.scenarios.engines import MultiprocessingEngine, SerialEngine
from repro.scenarios.regression import RegressionRunner, ScenarioSpec

if __name__ == "__main__":
    multiprocessing.set_start_method("spawn")
    spec = ScenarioSpec("pci", 2011, (2, 2), "default", 120, None, True)
    plain = ScenarioSpec("master_slave", 2005, (2, 2, 2), "bursty", 120)
    checkpoint = snapshot_scenario_run(replace(spec, cycles=60), 60)
    resumed = replace(spec, resume_from=global_registry().put(checkpoint))
    engine = MultiprocessingEngine(2)
    pooled = RegressionRunner([resumed, plain], engine=engine).run()
    serial = RegressionRunner([spec, plain], engine=SerialEngine()).run()
    print(pooled.digest(), serial.digest())
"""


def test_spawned_pool_children_get_the_resume_checkpoints(tmp_path):
    """A pool child started by ``spawn`` inherits no registry: the
    engine hands every child the checkpoints its batch resumes from.
    (Its own process, so the spawn helpers end with it.)"""
    script = tmp_path / "spawned_pool.py"
    script.write_text(_SPAWNED_POOL, encoding="utf-8")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    result = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    pooled, serial = result.stdout.split()
    assert pooled == serial


class _ForgetfulEngine:
    """Runs every spec inline, then loses each capture: the verdict
    names a frontier digest nobody holds."""

    name = "forgetful"
    workers = 1

    def imap(self, fn, specs):
        for spec in specs:
            verdict = fn(spec)
            if verdict.frontier_digest:
                verdict = replace(
                    verdict, frontier_digest="0" * 64, checkpoint=None
                )
            yield verdict


def test_a_frontier_digest_nobody_holds_is_a_typed_error():
    workbench = Workbench("master_slave", engine=_ForgetfulEngine())
    result = workbench.close_coverage(rounds=2, cycles=60, max_goals=2)
    assert result.status is StageStatus.ERROR
    assert isinstance(result.exception, UnknownCheckpointError)
    assert re.search(r"master_slave\[[0-9x]+\]#\d+/directed", result.error)
    assert "0" * 64 in result.error


@contextmanager
def _worker_daemon():
    """A ``python -m repro.dispatch.worker`` subprocess; its address."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.dispatch.worker", "--port", "0"],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    try:
        line = process.stdout.readline()
        assert "http://" in line, line
        yield line.rsplit("http://", 1)[1].strip()
    finally:
        process.terminate()
        process.wait(timeout=30)
        process.stdout.close()


@contextmanager
def _transport(name):
    """The close_coverage options that run its rounds on ``name``."""
    if name == "embedded-worker":
        handle = start_worker()
        try:
            yield {"hosts": [HttpHost(handle.address)]}
        finally:
            handle.stop()
    elif name == "worker-daemon":
        with _worker_daemon() as address:
            yield {"hosts": [HttpHost(address)]}
    else:
        yield {"serial": {"workers": 1}, "workers": {"workers": 2},
               "shards": {"shards": 2}}[name]


#: the close-frontier regime's outcome on Master/Slave, serial
CLOSE_FACTS = {
    "achieved": 23,
    "forked_goals": 2,
    "cycles_saved": 212,
    "cycles_simulated": 5868,
}


@pytest.mark.parametrize(
    "transport",
    ["serial", "workers", "shards", "embedded-worker", "worker-daemon"],
)
def test_frontier_closure_forks_alike_on_every_transport(transport):
    """Whatever process ran a round's scenarios, their captures come
    home on the verdicts, so the next round forks the same goals."""
    workbench = Workbench("master_slave")
    workbench.explore()
    with _transport(transport) as options:
        result = workbench.close_coverage(
            rounds=6, cycles=160, max_goals=6, frontier=True, **options
        )
    assert result.ok, result.error or result.summary
    data = result.data
    assert {key: data[key] for key in CLOSE_FACTS} == CLOSE_FACTS
    assert data["residue_before"]["uncovered_transitions"] == 29
