"""The differential checkpoint suite (this PR's CI gate).

The contract under test: ``restore(snapshot(T)) + k cycles`` is
*byte-identical* to ``run(T + k)`` -- same transaction stream, same
scoreboard, same monitor verdicts, same report digest -- for both
shipped scenario models, both PSL stepping engines, at any quiescent
snapshot boundary, whether the resumed run executes serially or in
fresh shard subprocesses.  Around it: the wire form's typed rejection
taxonomy (Hypothesis round trips included), crash-safe persistence,
and the frontier planner the directed-closure loop forks from.
"""

import hashlib
import json
import os
import subprocess
import sys
from copy import deepcopy
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.checkpoint import (
    SPILL_DIR_ENV,
    WIRE_VERSION,
    Checkpoint,
    CheckpointError,
    CheckpointFormatError,
    CheckpointIntegrityError,
    CheckpointStateError,
    CheckpointVersionError,
    UnknownCheckpointError,
    checkpoint_store,
    ensure_spill_dir,
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
from repro.dispatch import ShardDispatcher
from repro.explorer.goal_planner import GoalPlanner, walk_fsm_events
from repro.psl.compiled import ENGINES
from repro.scenarios.regression import (
    RegressionRunner,
    ScenarioSpec,
    _attach_monitors,
    _build_system,
    run_scenario,
)
from repro.scenarios.scoreboard import FaultPlan
from repro.scenarios.sequences import NAMED_PROFILES
from repro.store import atomic_write
from repro.workbench import SerialEngine, Workbench

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

    def test_fresh_process_restore_serial_vs_sharded(
        self, tmp_path, monkeypatch
    ):
        """Resumed specs produce the baseline report digest both on the
        serial engine and across shard *subprocesses* that rebuild the
        checkpoints from the spilled wire files."""
        monkeypatch.setenv(SPILL_DIR_ENV, str(tmp_path / "spill"))
        reset_global_registry()
        resumed = []
        for model in sorted(MONITORED_SPECS):
            spec = MONITORED_SPECS[model]
            checkpoint = snapshot_scenario_run(replace(spec, cycles=60), 60)
            digest = global_registry().put(checkpoint)
            resumed.append(replace(spec, resume_from=digest))
        ensure_spill_dir()
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
        """The store entry a spilling registry writes for a pinned
        capture: the file's SHA-256, not just the payload digest."""
        spec, digest = PINNED_DIGESTS["pci-monitored"]
        checkpoint_store(str(tmp_path)).put(snapshot_scenario_run(spec, CYCLES))
        data = (tmp_path / f"{digest}.json").read_bytes()
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
        checkpoint = snapshot_scenario_run(
            ScenarioSpec("master_slave", 2005, (1, 1, 2), "default", 40), 40
        )
        calls = []

        def dumps(doc, **options):
            calls.append(options)
            return json.dumps(doc, **options)

        # the canonical encodes are the json.dumps calls in snapshot.py
        monkeypatch.setattr(snapshot, "json", SimpleNamespace(dumps=dumps))
        digest = checkpoint_store(str(tmp_path)).put(checkpoint)
        assert len(calls) == 1
        calls.clear()
        fetched = checkpoint_store(str(tmp_path)).fetch(digest)
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

    def test_registry_spill_round_trips_across_reset(self, tmp_path):
        old, _ = self._checkpoints()
        first = checkpoint_store(str(tmp_path))
        digest = first.put(old)
        # a second registry over the same directory (= a fresh worker
        # process) resolves the digest purely from disk
        second = checkpoint_store(str(tmp_path))
        assert second.get(digest).digest == digest
        with pytest.raises(UnknownCheckpointError):
            second.get("f" * 64)



class TestSpillDirectory:
    """``ensure_spill_dir`` removes a spill directory it created at
    exit, and never one named by ``REPRO_CHECKPOINT_DIR``."""

    def _close_in_a_subprocess(self, tmp_path, spill=None):
        env = {
            k: v for k, v in os.environ.items() if k != SPILL_DIR_ENV
        }
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.abspath(src), env.get("PYTHONPATH")])
        )
        env["TMPDIR"] = str(tmp_path)
        if spill is not None:
            env[SPILL_DIR_ENV] = spill
        result = subprocess.run(
            [
                sys.executable,
                "-c",
                "import os\n"
                "from repro.checkpoint import SPILL_DIR_ENV\n"
                "from repro.workbench import Workbench\n"
                "Workbench('master_slave').close_coverage(rounds=1, cycles=60)\n"
                "spill = os.environ[SPILL_DIR_ENV]\n"
                "print(spill, len(os.listdir(spill)))\n",
            ],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        used, entries = result.stdout.split()
        assert int(entries) > 0
        return used

    def test_a_created_spill_directory_is_removed_at_exit(self, tmp_path):
        used = self._close_in_a_subprocess(tmp_path)
        assert os.path.dirname(used) == str(tmp_path)
        assert not os.path.exists(used)
        assert os.listdir(tmp_path) == []

    def test_a_named_spill_directory_survives(self, tmp_path):
        spill = str(tmp_path / "spill")
        assert self._close_in_a_subprocess(tmp_path, spill) == spill
        assert os.listdir(spill)

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
