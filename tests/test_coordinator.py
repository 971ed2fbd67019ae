"""The coordinator tier: elastic pool, spec cache, result store, auth.

The contract under test extends the dispatch invariant one level up:
the coordinator's merged report digest is byte-identical to a serial
run at any fleet size *and under churn* -- workers registering after a
job started, workers dying mid-shard -- and a repeat submission of the
same ``(spec fingerprint, seed set)`` is answered from the persistent
result store with its digest re-verified on the way out.
"""

import json
import os
import threading
import time
import urllib.error
import urllib.request
from dataclasses import replace

import pytest

from repro.checkpoint import (
    global_registry,
    reset_global_registry,
    snapshot_scenario_run,
)
from repro.coordinator import (
    Coordinator,
    CoordinatorClient,
    CoordinatorError,
    StoredReport,
    UnknownFingerprintError,
    WorkerRegistry,
    report_store,
    start_coordinator,
    store_key,
)
from repro.dispatch import (
    CachingHttpHost,
    HostFailure,
    InProcessHost,
    plan_shards,
    specs_fingerprint,
)
from repro.dispatch.worker import start_worker
from repro.scenarios.regression import RegressionRunner, ScenarioSpec, build_specs
from repro.workbench import SerialEngine, Workbench

SPECS = build_specs(count=6, cycles=120)
FINGERPRINT = specs_fingerprint(SPECS)


@pytest.fixture(scope="module")
def serial_report():
    return RegressionRunner(SPECS, engine=SerialEngine()).run()


class TestSpecsFingerprint:
    """The spec-cache / job key: pure content, no plan geometry."""

    def test_stable_and_content_sensitive(self):
        assert specs_fingerprint(SPECS) == FINGERPRINT
        assert len(FINGERPRINT) == 16
        other = build_specs(count=6, cycles=120, base_seed=999)
        assert specs_fingerprint(other) != FINGERPRINT

    def test_independent_of_shard_count(self):
        """However the list is later partitioned, the key is the same --
        that is what lets a worker re-derive any (index, of) slice from
        one cached upload."""
        for of in (1, 2, 3, 6):
            reassembled = [
                spec for shard in plan_shards(SPECS, of) for spec in shard.specs
            ]
            assert sorted(s.label for s in reassembled) == sorted(
                s.label for s in SPECS
            )
        assert specs_fingerprint(list(SPECS)) == FINGERPRINT


class TestResultStore:
    """Persistence with the digest re-verified on every read."""

    def test_roundtrip(self, tmp_path, serial_report):
        store = report_store(str(tmp_path))
        seeds = tuple(sorted({s.seed for s in SPECS}))
        key = store.put(StoredReport(FINGERPRINT, seeds, serial_report))
        assert key == store_key(FINGERPRINT, seeds)
        assert len(store) == 1
        fetched = store.fetch(key)
        assert fetched is not None
        assert fetched.report.digest() == serial_report.digest()

    def test_miss_on_unknown_key(self, tmp_path):
        store = report_store(str(tmp_path))
        assert store.fetch(store_key("feedface00000000", [1, 2])) is None

    def test_key_covers_fingerprint_and_seed_set(self):
        assert store_key("abc", [3, 1, 2]) == store_key("abc", [1, 2, 3, 3])
        assert store_key("abc", [1, 2]) != store_key("abc", [1, 3])
        assert store_key("abc", [1, 2]) != store_key("abd", [1, 2])

    def test_tampered_entry_reads_as_miss_and_is_dropped(
        self, tmp_path, serial_report
    ):
        """A stored report whose content no longer matches its recorded
        digest must never be served: the entry is removed and counted."""
        store = report_store(str(tmp_path))
        seeds = tuple(sorted({s.seed for s in SPECS}))
        key = store.put(StoredReport(FINGERPRINT, seeds, serial_report))
        path = os.path.join(str(tmp_path), f"{key}.json")
        with open(path) as handle:
            doc = json.load(handle)
        doc["report"]["verdicts"][0]["stream_digest"] = "0" * 16
        with open(path, "w") as handle:
            json.dump(doc, handle)
        assert store.fetch(key) is None
        assert store.corruptions == 1
        assert len(store) == 0
        # and the miss re-runs cleanly: a fresh put serves again
        store.put(StoredReport(FINGERPRINT, seeds, serial_report))
        assert store.fetch(key).report.digest() == serial_report.digest()

    def test_unparseable_entry_reads_as_miss(self, tmp_path, serial_report):
        store = report_store(str(tmp_path))
        key = store.put(StoredReport(FINGERPRINT, (1,), serial_report))
        with open(os.path.join(str(tmp_path), f"{key}.json"), "w") as handle:
            handle.write("not json at all")
        assert store.fetch(key) is None
        assert store.corruptions == 1


class TestShardStore:
    """Per-shard checkpoints: the resumable-job ledger on disk."""

    def test_roundtrip_geometry_keying_and_prune(
        self, tmp_path, serial_report
    ):
        store = report_store(str(tmp_path))
        seeds = tuple(sorted({s.seed for s in SPECS}))
        for index in (0, 2):
            store.put(StoredReport(FINGERPRINT, seeds, serial_report, (index, 4)))
        assert len(store) == 2
        fetched = store.fetch(store_key(FINGERPRINT, seeds, (0, 4)))
        assert fetched is not None
        assert fetched.report.digest() == serial_report.digest()
        # the plan geometry is part of the key: the same index under a
        # different split, or a never-completed index, reads as a miss
        assert store.fetch(store_key(FINGERPRINT, seeds, (0, 2))) is None
        assert store.fetch(store_key(FINGERPRINT, seeds, (1, 4))) is None
        # a finished job discards its plan's shard keys
        for index in range(4):
            store.discard(store_key(FINGERPRINT, seeds, (index, 4)))
        assert len(store) == 0

    def test_tampered_shard_reads_as_miss_and_is_dropped(
        self, tmp_path, serial_report
    ):
        """A resume must never trust a rotted checkpoint: the digest is
        re-verified on read, the bad entry removed and counted, and the
        shard simply re-runs as a miss."""
        store = report_store(str(tmp_path))
        seeds = (1, 2)
        key = store.put(StoredReport(FINGERPRINT, seeds, serial_report, (1, 3)))
        path = os.path.join(str(tmp_path), f"{key}.json")
        with open(path) as handle:
            doc = json.load(handle)
        doc["report"]["verdicts"][0]["stream_digest"] = "0" * 16
        with open(path, "w") as handle:
            json.dump(doc, handle)
        assert store.fetch(key) is None
        assert store.corruptions == 1
        assert len(store) == 0


@pytest.fixture()
def worker():
    handle = start_worker()
    yield handle
    handle.stop()


class TestWorkerSpecCache:
    """The POST /specs + by-reference /run protocol on a real worker."""

    def _healthz(self, handle):
        with urllib.request.urlopen(
            f"http://{handle.address}/healthz", timeout=5
        ) as response:
            return json.loads(response.read())

    def test_by_reference_run_matches_by_value(self, worker, serial_report):
        host = CachingHttpHost(worker.address)
        host.prime(FINGERPRINT, SPECS)
        shards = plan_shards(SPECS, 2)
        from repro.dispatch import ShardWork, merge_reports

        reports = [
            host.run_shard(ShardWork(shard=s, spec_file="")) for s in shards
        ]
        assert merge_reports(reports).digest() == serial_report.digest()
        # the list crossed the wire once; both shards ran by reference
        assert host.bytes_shipped > 0
        assert host.bytes_saved > host.bytes_shipped / 2
        assert self._healthz(worker)["spec_cache_entries"] == 1

    def test_unknown_fingerprint_is_a_404(self, worker):
        body = json.dumps(
            {
                "version": 1,
                "shard": {"index": 0, "of": 2, "fingerprint": "ab" * 8},
                "workers": 1,
            }
        ).encode("utf-8")
        request = urllib.request.Request(
            f"http://{worker.address}/run", data=body, method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5)
        assert excinfo.value.code == 404
        assert "unknown spec fingerprint" in json.loads(excinfo.value.read())[
            "error"
        ]

    def test_upload_fingerprint_mismatch_is_a_400(self, worker):
        body = json.dumps(
            {
                "version": 1,
                "fingerprint": "00" * 8,
                "specs": [spec.to_json() for spec in SPECS],
            }
        ).encode("utf-8")
        request = urllib.request.Request(
            f"http://{worker.address}/specs", data=body, method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5)
        assert excinfo.value.code == 400
        assert "mismatch" in json.loads(excinfo.value.read())["error"]

    def test_worker_that_lost_the_entry_gets_one_reupload(
        self, worker, serial_report
    ):
        """A worker that restarted (or evicted the entry) answers the
        by-reference run with the 404; the caching host re-ships the
        list once and retries instead of failing the shard."""
        host = CachingHttpHost(worker.address)
        host.prime(FINGERPRINT, SPECS)
        # claim the upload already happened without performing it: the
        # worker-side state a restart would have wiped
        host._uploaded.add(FINGERPRINT)
        from repro.dispatch import ShardWork

        shard = plan_shards(SPECS, 6)[0]
        report = host.run_shard(ShardWork(shard=shard, spec_file=""))
        assert [v.spec.label for v in report.verdicts] == [
            s.label for s in shard.specs
        ]
        assert host.bytes_shipped > 0     # the recovery upload happened


class TestAuth:
    """One shared bearer secret across worker and coordinator POSTs."""

    def test_worker_refuses_unauthenticated_posts(self, serial_report):
        handle = start_worker(token="fleet-secret")
        try:
            body = json.dumps(
                {
                    "version": 1,
                    "shard": {
                        "index": 0,
                        "of": 1,
                        "specs": [s.to_json() for s in SPECS[:1]],
                    },
                }
            ).encode("utf-8")
            request = urllib.request.Request(
                f"http://{handle.address}/run", data=body, method="POST"
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=5)
            assert excinfo.value.code == 401
            # GET probes stay open: no secret needed for liveness
            with urllib.request.urlopen(
                f"http://{handle.address}/healthz", timeout=5
            ) as response:
                assert json.loads(response.read())["ok"] is True
            # the right token serves normally
            from repro.dispatch import HttpHost, ShardWork

            host = HttpHost(handle.address, token="fleet-secret")
            report = host.run_shard(
                ShardWork(shard=plan_shards(SPECS[:1], 1)[0], spec_file="")
            )
            assert len(report.verdicts) == 1
        finally:
            handle.stop()

    def test_worker_metrics_need_the_token(self):
        """``/metrics`` is gated like every route but ``/healthz``, and a
        token-carrying host still pulls it into the fleet aggregate."""
        from repro.dispatch import HttpHost
        from repro.obs import disable, enable_metrics
        from repro.workbench import default_registry

        handle = start_worker(token="fleet-secret")
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    f"http://{handle.address}/metrics", timeout=5
                )
            assert excinfo.value.code == 401
            enable_metrics()
            try:
                bench = Workbench(default_registry().get("pci"), seed=2005)
                bench.regress(
                    scenarios=2,
                    cycles=60,
                    hosts=[HttpHost(handle.address, token="fleet-secret")],
                )
                report = bench.report()
            finally:
                disable()
        finally:
            handle.stop()
        fleet = report.observability["fleet_metrics"]
        assert fleet[0]["aggregate"]["counters"]["worker.scenarios_run"] == 2

    def test_coordinator_gates_everything_but_healthz(self, tmp_path):
        handle = start_coordinator(
            store_path=str(tmp_path), token="fleet-secret"
        )
        try:
            with urllib.request.urlopen(
                f"{handle.url}/healthz", timeout=5
            ) as response:
                assert json.loads(response.read())["ok"] is True
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"{handle.url}/status", timeout=5)
            assert excinfo.value.code == 401
            request = urllib.request.Request(
                f"{handle.url}/jobs", data=b"{}", method="POST"
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=5)
            assert excinfo.value.code == 401
            assert CoordinatorClient(
                handle.url, token="fleet-secret"
            ).status()["ok"]
        finally:
            handle.stop()


class _ScriptedWorkerHost:
    """In-process stand-in for a CachingHttpHost with controlled fate.

    ``delay`` stretches every shard so the test can interleave joins
    and deaths mid-job; flipping ``dead`` makes the next run raise the
    connection-refused failure a crashed daemon would produce.
    """

    def __init__(self, name, delay=0.15):
        self.name = name
        self.delay = delay
        self.dead = False
        self.primed = {}
        self.served = 0
        self.bytes_saved = 0

    def prime(self, fingerprint, specs):
        self.primed[fingerprint] = list(specs)

    def run_shard(self, work):
        time.sleep(self.delay)
        if self.dead:
            raise HostFailure(
                self.name,
                work.shard.label,
                "transport failed: connection refused",
                kind="refused",
            )
        report = InProcessHost(self.name).run_shard(work)
        self.served += 1
        return report


class TestElasticService:
    """The coordinator core driven directly with injected hosts."""

    def _coordinator(self, tmp_path, hosts, **kwargs):
        registry = WorkerRegistry(
            stale_after=60.0,
            host_factory=lambda address, token: hosts[address],
        )
        return Coordinator(str(tmp_path), registry=registry, **kwargs)

    def test_churn_mid_job_keeps_the_digest(self, tmp_path, serial_report):
        """Satellite: a worker registers after dispatch starts and
        another dies mid-shard; the merged digest still equals serial.
        """
        early = _ScriptedWorkerHost("early", delay=0.25)
        late = _ScriptedWorkerHost("late", delay=0.05)
        hosts = {"early:1": early, "late:1": late}
        coordinator = self._coordinator(tmp_path, hosts)
        coordinator.registry.register("early:1")
        job = coordinator.submit(specs=SPECS)
        assert job.status == "queued"

        runner = threading.Thread(target=coordinator.run_next)
        runner.start()
        # join mid-run: by now 'early' holds its first shard
        time.sleep(0.1)
        coordinator.registry.register("late:1")
        # die mid-shard: 'early' is still inside that first shard (its
        # 0.25s stretch ends after this flip), so the failure lands on
        # an in-flight shard, which is re-queued to the late joiner
        time.sleep(0.1)
        early.dead = True
        runner.join(timeout=60)
        assert not runner.is_alive()

        assert job.status == "done", job.error
        assert job.report_doc["digest"] == serial_report.digest()
        assert late.served >= 1            # the late joiner stole work
        assert job.dispatch["worker_joins"] == 2
        assert job.dispatch["worker_leaves"] >= 1
        assert "late" in job.dispatch["hosts"]

    def test_killed_job_resumes_from_shard_checkpoints(
        self, tmp_path, serial_report
    ):
        """Satellite: the whole pool dies mid-job; resubmission resumes
        from the shards checkpointed before the death instead of
        starting over, and the merged digest still equals serial.
        """
        hosts = {}
        coordinator = self._coordinator(
            tmp_path, hosts, idle_timeout=0.5, poll_interval=0.02
        )
        first = _ScriptedWorkerHost("first", delay=0.12)
        hosts["first:1"] = first
        coordinator.registry.register("first:1")
        job = coordinator.submit(specs=SPECS)
        runner = threading.Thread(target=coordinator.run_next)
        runner.start()
        # let a couple of shards land, then kill the only worker: the
        # job fails (no live workers), but every completed shard was
        # checkpointed to the shard store as it finished
        time.sleep(0.3)
        first.dead = True
        runner.join(timeout=60)
        assert not runner.is_alive()
        assert job.status == "failed", (job.status, job.error)
        resumable = len(coordinator.shard_store)
        assert resumable >= 1, "no shard checkpoints written before death"

        # a fresh worker joins and the job is resubmitted: checkpointed
        # shards are pre-completed from disk, only the rest re-run
        second = _ScriptedWorkerHost("second", delay=0.0)
        hosts["second:1"] = second
        coordinator.registry.register("second:1")
        retry = coordinator.submit(specs=SPECS)
        coordinator.run_pending()
        assert retry.status == "done", retry.error
        assert retry.report_doc["digest"] == serial_report.digest()
        assert retry.dispatch["shards_resumed"] == resumable
        assert (
            coordinator.metrics.counter("coordinator.checkpoint.resume").value
            == 1
        )
        assert (
            coordinator.metrics.counter(
                "coordinator.checkpoint.shards_skipped"
            ).value
            == resumable
        )
        # the finished job pruned its checkpoints from the shard store
        assert len(coordinator.shard_store) == 0

    def test_repeat_submission_is_served_from_the_store(
        self, tmp_path, serial_report
    ):
        host = _ScriptedWorkerHost("only", delay=0.0)
        coordinator = self._coordinator(tmp_path, {"only:1": host})
        coordinator.registry.register("only:1")
        first = coordinator.submit(specs=SPECS)
        coordinator.run_pending()
        assert first.status == "done"
        assert first.from_cache is False
        served_before = host.served
        second = coordinator.submit(specs=SPECS)
        # already done at submit time: no queueing, no worker touched
        assert second.status == "done"
        assert second.from_cache is True
        assert host.served == served_before
        assert second.report_doc["digest"] == serial_report.digest()
        assert first.report_doc["digest"] == second.report_doc["digest"]

    def test_by_reference_submission_needs_an_upload(self, tmp_path):
        coordinator = self._coordinator(tmp_path, {})
        with pytest.raises(UnknownFingerprintError, match="unknown spec"):
            coordinator.submit(fingerprint="ab" * 8)
        # after a by-value submission the fingerprint resolves
        job = coordinator.submit(specs=SPECS)
        assert job.fingerprint == FINGERPRINT
        again = coordinator.submit(fingerprint=FINGERPRINT)
        assert again.fingerprint == FINGERPRINT

    def test_job_with_no_workers_fails_after_idle_timeout(self, tmp_path):
        coordinator = self._coordinator(
            tmp_path, {}, idle_timeout=0.3, poll_interval=0.02
        )
        job = coordinator.submit(specs=SPECS)
        coordinator.run_pending()
        assert job.status == "failed"
        assert "no live workers" in job.error

    def test_stale_workers_are_pruned(self):
        registry = WorkerRegistry(stale_after=0.1)
        registry.register("w:1")
        assert [r.address for r in registry.live()] == ["w:1"]
        time.sleep(0.25)
        assert registry.live() == []
        assert registry.leaves == 1
        # heartbeat from a pruned worker says "re-register"
        assert registry.heartbeat("w:1") is False


class TestCoordinatorHttp:
    """The daemon end to end: registration, jobs, cache, workbench."""

    @pytest.fixture()
    def fleet(self, tmp_path):
        coordinator = start_coordinator(
            store_path=str(tmp_path), token="fleet-secret"
        )
        workers = [
            start_worker(
                token="fleet-secret",
                coordinator=coordinator.url,
                heartbeat=0.2,
            )
            for _ in range(2)
        ]
        client = CoordinatorClient(
            coordinator.url, token="fleet-secret", timeout=120
        )
        deadline = time.monotonic() + 10
        while len(client.status()["workers"]) < 2:
            assert time.monotonic() < deadline, "workers never registered"
            time.sleep(0.05)
        yield coordinator, workers, client
        for worker in workers:
            worker.stop()
        coordinator.stop()

    def test_submit_poll_resubmit_roundtrip(self, fleet, serial_report):
        coordinator, _workers, client = fleet
        report, job = client.run(list(SPECS))
        assert report.digest() == serial_report.digest()
        assert job["from_cache"] is False
        assert job["dispatch"]["shards"] >= 2
        # the shards ran by reference, not by value
        assert job["dispatch"]["spec_cache_bytes_saved"] > 0
        # the identical submission never reaches a worker again
        report_again, job_again = client.run(list(SPECS))
        assert job_again["from_cache"] is True
        assert report_again.digest() == serial_report.digest()
        status = client.status()
        assert status["worker_joins"] >= 2
        assert status["store_entries"] == 1
        assert status["spec_lists_cached"] == 1

    def test_workbench_regress_over_coordinator(self, fleet):
        coordinator, _workers, _client = fleet
        workbench = Workbench("master_slave")
        result = workbench.regress(
            scenarios=4,
            cycles=120,
            coordinator=coordinator.url,
            token="fleet-secret",
        )
        assert result.status.name == "PASSED"
        assert result.metrics["engine"] == "coordinator"
        assert result.metrics["coordinator"]["from_cache"] is False
        specs = build_specs(
            models=["master_slave"], count=4, base_seed=2005, cycles=120
        )
        serial = RegressionRunner(specs, engine=SerialEngine()).run()
        assert result.data["regression_digest"] == serial.digest()

    def test_resume_spec_ships_its_checkpoint_through_the_fleet(
        self, fleet
    ):
        """A spec carrying ``resume_from`` works end to end: the client
        uploads the checkpoint to the coordinator, the coordinator fans
        it out to workers, and the job's digest equals the same spec
        run fresh from reset."""
        coordinator, _workers, client = fleet
        spec = ScenarioSpec(
            "master_slave", 2005, (2, 2, 2), "bursty", 120, None, True, (),
            True,
        )
        baseline = RegressionRunner([spec]).run()
        reset_global_registry()
        try:
            checkpoint = snapshot_scenario_run(replace(spec, cycles=60), 60)
            digest = global_registry().put(checkpoint)
            resumed = replace(spec, resume_from=digest)
            report, job = client.run([resumed])
            assert report.digest() == baseline.digest()
            assert job["from_cache"] is False
            uploads = coordinator.coordinator.metrics.counter(
                "coordinator.checkpoint_uploads"
            ).value
            assert uploads >= 1
        finally:
            reset_global_registry()

    def test_corrupt_checkpoint_upload_is_a_400(self, fleet):
        """The coordinator applies the same wire taxonomy as a worker:
        a tampered checkpoint is refused with a 400, not accepted or
        crashed on."""
        coordinator, _workers, _client = fleet
        spec = ScenarioSpec(
            "master_slave", 2005, (2, 2, 2), "bursty", 60, None, True, (),
            True,
        )
        reset_global_registry()
        try:
            doc = snapshot_scenario_run(spec, 30).to_json()
            doc["payload"]["cycles_run"] += 1      # digest now lies
            body = json.dumps(
                {"version": 1, "checkpoint": doc}
            ).encode("utf-8")
            request = urllib.request.Request(
                f"{coordinator.url}/checkpoints",
                data=body,
                headers={"Authorization": "Bearer fleet-secret"},
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=5)
            assert excinfo.value.code == 400
            message = json.loads(excinfo.value.read())["error"]
            assert "rejected checkpoint upload" in message
        finally:
            reset_global_registry()

    def test_worker_reregisters_after_coordinator_forgets_it(self, fleet):
        coordinator, workers, client = fleet
        address = workers[0].link.advertise
        assert coordinator.coordinator.registry.deregister(address)
        # the worker's next heartbeat gets the 404 and re-registers
        deadline = time.monotonic() + 10
        while address not in [
            w["address"] for w in client.status()["workers"]
        ]:
            assert time.monotonic() < deadline, "worker never came back"
            time.sleep(0.05)

    def test_unknown_job_is_a_404(self, fleet):
        _coordinator, _workers, client = fleet
        with pytest.raises(CoordinatorError, match="404"):
            client.job("job-9999-deadbeef")


class TestCliCoordinator:
    """--coordinator flag plumbing and conflict validation."""

    def test_coordinator_conflicts_with_local_dispatch_flags(self):
        from repro.cli import main

        for extra in (
            ["--shards", "2"],
            ["--shard", "1/2"],
            ["--hosts", "127.0.0.1:8421"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(
                    [
                        "regress",
                        "--model",
                        "pci",
                        "--coordinator",
                        "http://127.0.0.1:1",
                    ]
                    + extra
                )
            assert excinfo.value.code == 2

    def test_unreachable_coordinator_is_a_stage_error(self):
        workbench = Workbench("master_slave")
        result = workbench.regress(
            scenarios=2, cycles=60, coordinator="http://127.0.0.1:1"
        )
        assert result.status.name == "ERROR"
        assert "unreachable" in result.error
