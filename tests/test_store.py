"""The one content store, under every configuration the system uses.

Each case is a store a former class became: the coordinator's result
store and shard resume checkpoints, the process-global (in-memory)
checkpoint registry, and the worker's spec-list and checkpoint LRU
caches.  The contract: values come back only verified,
a put whose content does not derive its claimed key is refused, a
corrupt directory entry is dropped and counted, a crash mid-write
leaves no partial entry, and the worker caches evict at their limits.
"""

import json
import os
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.checkpoint import (
    UnknownCheckpointError,
    checkpoint_store,
    snapshot_scenario_run,
)
from repro.coordinator import StoredReport, report_store
from repro.dispatch.worker import (
    CHECKPOINT_CACHE_LIMIT,
    SPEC_CACHE_LIMIT,
    UnknownCheckpointDigestError,
    UnknownFingerprintError,
    make_checkpoint_cache,
    make_spec_cache,
)
from repro.scenarios.regression import RegressionRunner, ScenarioSpec, build_specs
from repro.store import KeyMismatchError, atomic_write
from repro.workbench import SerialEngine

SPEC = ScenarioSpec("master_slave", 2005, (1, 1, 2), "default", 40)


@pytest.fixture(scope="module")
def values():
    """Two distinct values of every kind the stores hold."""
    report = RegressionRunner(
        build_specs(count=2, cycles=60), engine=SerialEngine()
    ).run()
    checkpoints = [
        snapshot_scenario_run(replace(SPEC, cycles=cycles), cycles)
        for cycles in (10, 20)
    ]
    return {
        "result": [
            StoredReport("ab" * 8, (1, 2), report),
            StoredReport("cd" * 8, (3,), report),
        ],
        "shard": [
            StoredReport("ab" * 8, (1, 2), report, (0, 4)),
            StoredReport("ab" * 8, (1, 2), report, (1, 4)),
        ],
        "checkpoint-registry": checkpoints,
        "spec-cache": [
            build_specs(count=1, cycles=60, base_seed=seed) for seed in (1, 2)
        ],
        "checkpoint-cache": checkpoints,
    }


#: case -> (factory over a directory, missing-key error)
CASES = {
    "result": (lambda root: report_store(root), None),
    "shard": (lambda root: report_store(os.path.join(root, "shards")), None),
    "checkpoint-registry": (
        lambda root: checkpoint_store(), UnknownCheckpointError
    ),
    "spec-cache": (lambda root: make_spec_cache(), UnknownFingerprintError),
    "checkpoint-cache": (
        lambda root: make_checkpoint_cache(), UnknownCheckpointDigestError
    ),
}
ON_DISK = ["result", "shard"]


def _digest_of(value):
    """What a verified read must reproduce, per value kind."""
    if isinstance(value, StoredReport):
        return (value.key(), value.report.digest())
    if isinstance(value, list):
        return [spec.to_json() for spec in value]
    return value.digest


@pytest.mark.parametrize("case", sorted(CASES))
class TestContentStore:
    def test_roundtrip_and_miss(self, case, values, tmp_path):
        make, missing = CASES[case]
        store = make(str(tmp_path))
        first, second = values[case]
        key = store.put(first)
        assert key == store.key_of(first)
        assert key != store.key_of(second)
        assert len(store) == 1
        # a directory store answers from disk in a fresh instance too
        reader = make(str(tmp_path)) if case in ON_DISK else store
        assert _digest_of(reader.fetch(key)) == _digest_of(first)
        assert key in reader
        assert reader.fetch(store.key_of(second)) is None
        with pytest.raises(missing or KeyError):
            reader.get(store.key_of(second))

    def test_put_with_a_key_its_content_does_not_derive_is_rejected(
        self, case, values, tmp_path
    ):
        store = CASES[case][0](str(tmp_path))
        first, second = values[case]
        with pytest.raises(KeyMismatchError):
            store.put(first, key=store.key_of(second))
        assert len(store) == 0
        assert store.put(first, key=store.key_of(first)) == store.key_of(first)


@pytest.mark.parametrize("case", ON_DISK)
class TestContentStoreOnDisk:
    @pytest.mark.parametrize("corruption", ["garbage", "foreign-entry"])
    def test_corrupt_entry_is_dropped_and_counted(
        self, case, corruption, values, tmp_path
    ):
        make = CASES[case][0]
        store = make(str(tmp_path))
        first, second = values[case]
        key = store.put(first)
        path = os.path.join(store.directory, f"{key}.json")
        if corruption == "garbage":
            with open(path, "w") as handle:
                handle.write("{not json")
        else:
            # a well-formed entry filed under the wrong key
            with open(path, "w") as handle:
                json.dump(store.encode(second), handle)
        reader = make(str(tmp_path))
        assert reader.fetch(key) is None
        assert reader.corruptions == 1
        assert not os.path.exists(path)
        # the miss heals: a fresh put serves again
        reader.put(first)
        assert _digest_of(make(str(tmp_path)).fetch(key)) == _digest_of(first)

    def test_crash_between_write_and_rename_leaves_no_partial_entry(
        self, case, values, tmp_path, monkeypatch
    ):
        make = CASES[case][0]
        store = make(str(tmp_path))
        first, _ = values[case]

        def crash(src, dst):
            raise OSError("disk went away before rename")

        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", crash)
            with pytest.raises(OSError, match="went away"):
                store.put(first)
        # no entry and no temp-file litter on disk
        assert [
            name for name in os.listdir(store.directory)
            if not os.path.isdir(os.path.join(store.directory, name))
        ] == []
        assert make(str(tmp_path)).fetch(store.key_of(first)) is None


class TestWorkerCacheLimits:
    """The worker caches are LRUs bounded at today's constants."""

    def test_spec_cache_evicts_least_recently_used(self):
        cache = make_spec_cache()
        lists = [
            build_specs(count=1, cycles=60, base_seed=seed)
            for seed in range(SPEC_CACHE_LIMIT + 1)
        ]
        keys = [cache.put(specs) for specs in lists[:SPEC_CACHE_LIMIT]]
        cache.get(keys[0])                  # refresh the oldest
        cache.put(lists[SPEC_CACHE_LIMIT])  # one over the limit
        assert len(cache) == SPEC_CACHE_LIMIT
        assert keys[0] in cache
        with pytest.raises(UnknownFingerprintError, match="evicted"):
            cache.get(keys[1])

    def test_checkpoint_cache_evicts_least_recently_used(self):
        cache = make_checkpoint_cache()
        stand_ins = [
            SimpleNamespace(digest=f"{n:064x}")
            for n in range(CHECKPOINT_CACHE_LIMIT + 1)
        ]
        for checkpoint in stand_ins:
            cache.put(checkpoint)
        assert len(cache) == CHECKPOINT_CACHE_LIMIT
        with pytest.raises(UnknownCheckpointDigestError, match="evicted"):
            cache.get(stand_ins[0].digest)
        assert cache.get(stand_ins[-1].digest) is stand_ins[-1]


def test_atomic_write_is_one_sorted_dumps(tmp_path):
    """The entry's bytes are exactly ``json.dumps(doc, sort_keys=True)``."""
    doc = {"b": [1, 2.5, None, "\u00e9"], "a": {"z": {}, "y": True}}
    path = tmp_path / "entry.json"
    assert atomic_write(str(path), doc) == str(path)
    assert path.read_bytes() == json.dumps(doc, sort_keys=True).encode()
    assert os.listdir(tmp_path) == ["entry.json"]


def test_atomic_write_of_an_unencodable_document_leaves_nothing(tmp_path):
    path = tmp_path / "entry.json"
    with pytest.raises(TypeError):
        atomic_write(str(path), {"value": object()})
    assert os.listdir(tmp_path) == []
