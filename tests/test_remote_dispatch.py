"""Remote HTTP dispatch: worker daemon, HttpHost transport, work stealing.

The contract under test is the same one ``test_dispatch.py`` enforces
for subprocess hosts, extended across a network boundary: the merged
report digest is byte-identical to a serial run through any pattern of
worker death, garbage responses, retries and steal races that still
lets every shard complete somewhere.
"""

import json
import socket
import struct
import sys
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest

from repro.checkpoint import (
    UnknownCheckpointError,
    global_registry,
    snapshot_scenario_run,
)
from repro.dispatch import (
    DispatchError,
    HostFailure,
    HttpHost,
    InProcessHost,
    LocalSubprocessHost,
    ShardDispatcher,
    ShardQueue,
    ShardWork,
    parse_hosts,
    plan_shards,
    shards_for_hosts,
    specs_fingerprint,
)
from repro.dispatch.worker import (
    UnknownCheckpointDigestError,
    WorkerError,
    make_checkpoint_cache,
    make_spec_cache,
    run_shard_request,
    start_worker,
    store_checkpoint_request,
)
from repro.scenarios.regression import (
    RegressionRunner,
    ScenarioSpec,
    build_specs,
)
from repro.workbench import SerialEngine, Workbench

SPECS = build_specs(count=6, cycles=120)


@pytest.fixture(scope="module")
def serial_report():
    return RegressionRunner(SPECS, engine=SerialEngine()).run()


@pytest.fixture()
def worker():
    handle = start_worker()
    yield handle
    handle.stop()


@pytest.fixture()
def worker_pair():
    first, second = start_worker(), start_worker()
    yield first, second
    first.stop()
    second.stop()


def _shard_body(specs, index=0, of=1, workers=1):
    """A by-fingerprint ``/run`` body and a spec cache holding its list."""
    cache = make_spec_cache()
    fingerprint = cache.put(list(specs))
    body = {
        "version": 1,
        "shard": {"index": index, "of": of, "fingerprint": fingerprint},
        "workers": workers,
    }
    return body, cache


def _primed_work(host, specs, index=0, of=1):
    """Prime ``host`` with ``specs``; the ShardWork for one slice of them."""
    fingerprint = specs_fingerprint(specs)
    host.prime(fingerprint, specs)
    return ShardWork(
        shard=plan_shards(specs, of)[index],
        spec_file="",
        fingerprint=fingerprint,
    )


def _post_json(worker, path, doc):
    """POST ``doc`` to a worker; (status, decoded body) on any status."""
    request = urllib.request.Request(
        f"http://{worker.address}{path}",
        data=json.dumps(doc).encode("utf-8"),
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _counter(doc, name):
    return doc["counters"].get(name, 0)


class TestWorkerProtocol:
    """The /run + /healthz wire contract, with and without HTTP."""

    def test_run_shard_request_matches_serial(self, serial_report):
        body, cache = _shard_body(SPECS)
        doc = run_shard_request(body, cache)
        assert doc["digest"] == serial_report.digest()
        assert doc["scenarios"] == len(SPECS)
        assert doc["shard"] == {"index": 0, "of": 1}

    def test_run_shard_request_rejects_malformed_bodies(self):
        body, cache = _shard_body(SPECS)
        with pytest.raises(WorkerError, match="JSON object"):
            run_shard_request([1, 2, 3], cache)
        with pytest.raises(WorkerError, match='"shard"'):
            run_shard_request({"version": 1}, cache)
        with pytest.raises(WorkerError, match="POST /specs"):
            run_shard_request({"shard": {"specs": [{"model": "pci"}]}}, cache)
        with pytest.raises(WorkerError, match="0 <= index < of"):
            run_shard_request(
                body | {"shard": body["shard"] | {"index": 1}}, cache
            )
        with pytest.raises(WorkerError, match="wire version"):
            run_shard_request(body | {"version": 99}, cache)
        # a non-integer version is a 400-class refusal, not a 500 crash
        with pytest.raises(WorkerError, match="must be an integer"):
            run_shard_request(body | {"version": "2"}, cache)

    def test_inline_specs_are_refused_with_a_pointer_to_specs(self, worker):
        """``/run`` has one form: a shard carrying its specs inline is a
        400 that names the upload endpoint, and nothing runs."""
        status, doc = _post_json(
            worker,
            "/run",
            {
                "version": 1,
                "shard": {
                    "index": 0,
                    "of": 1,
                    "specs": [spec.to_json() for spec in SPECS[:1]],
                },
                "workers": 1,
            },
        )
        assert status == 400
        assert doc["kind"] == "bad-request"
        assert "/specs" in doc["error"]
        assert HttpHost(worker.address).fetch_metrics()["counters"] == {}

    def test_unprimed_fingerprint_is_a_caller_bug(self, worker):
        """Running a list the host was never primed with is a ValueError
        (no request is sent), not a HostFailure the dispatcher retries."""
        host = HttpHost(worker.address)
        work = _primed_work(host, SPECS)
        host.forget(work.fingerprint)
        with pytest.raises(ValueError, match="never primed"):
            host.run_shard(work)
        assert HttpHost(worker.address).fetch_metrics()["counters"] == {}

    def test_healthz_counts_served_shards(self, worker):
        def probe():
            with urllib.request.urlopen(
                f"http://{worker.address}/healthz", timeout=5
            ) as response:
                return json.loads(response.read())

        import repro

        doc = probe()
        # the liveness document's full shape: version and uptime for
        # fleet dashboards, serving counters for dispatch forensics
        assert set(doc) == {
            "ok",
            "version",
            "uptime_seconds",
            "shards_served",
            "spec_cache_entries",
            "checkpoint_cache_entries",
            "slots",
            "psl_engine",
            "compile_cache",
        }
        assert doc["ok"] is True
        assert doc["version"] == repro.__version__
        assert doc["uptime_seconds"] >= 0
        assert doc["shards_served"] == 0
        assert doc["spec_cache_entries"] == 0
        assert doc["checkpoint_cache_entries"] == 0
        # an embedded worker never forks its host program: one slot
        assert doc["slots"] == 1
        assert doc["psl_engine"] in ("compiled", "interpreted")
        assert {"plan_hits", "plan_misses", "automaton_hits", "automaton_misses"} <= set(
            doc["compile_cache"]
        )
        host = HttpHost(worker.address)
        host.run_shard(_primed_work(host, SPECS[:2]))
        after = probe()
        assert after["shards_served"] == 1
        assert after["uptime_seconds"] >= doc["uptime_seconds"]

    def test_unknown_paths_and_garbage_bodies_get_json_errors(self, worker):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"http://{worker.address}/nope", timeout=5)
        assert excinfo.value.code == 404
        request = urllib.request.Request(
            f"http://{worker.address}/run", data=b"not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5)
        assert excinfo.value.code == 400
        assert "error" in json.loads(excinfo.value.read())

    def test_parse_hosts(self):
        hosts = parse_hosts("127.0.0.1:8421, example.org:9000")
        assert [h.address for h in hosts] == [
            "127.0.0.1:8421",
            "example.org:9000",
        ]
        for bad in ("", "no-port", "h:badport", "h:0", "h:70000"):
            with pytest.raises(ValueError):
                parse_hosts(bad)

    def test_parse_hosts_names_the_bad_token(self):
        """Satellite fix: rejection messages say which entry is wrong."""
        with pytest.raises(ValueError, match="at least one host"):
            parse_hosts("  ,  ,  ")
        with pytest.raises(ValueError, match=r"entry 2 of 3 is empty"):
            parse_hosts("a:1,,b:2")
        with pytest.raises(ValueError, match=r"entry 2.*1-65535.*70000"):
            parse_hosts("a:1,b:70000")
        with pytest.raises(ValueError, match=r"entry 1.*'no-port'"):
            parse_hosts("no-port,b:2")


class TestHttpDispatch:
    """ShardDispatcher over real worker daemons."""

    def test_two_worker_dispatch_matches_serial(self, worker_pair, serial_report):
        hosts = [HttpHost(w.address) for w in worker_pair]
        shards = shards_for_hosts(len(hosts), len(SPECS))
        outcome = ShardDispatcher(SPECS, shards=shards, hosts=hosts).run()
        assert outcome.report.ok
        assert outcome.report.digest() == serial_report.digest()
        assert outcome.retries == 0
        assert sum(outcome.host_loads().values()) == shards

    def test_every_shard_runs_by_fingerprint_after_one_upload(
        self, worker_pair, serial_report
    ):
        """The dispatcher primes each host, each worker receives the
        list at most once, and all four shards run from its cache."""
        hosts = [HttpHost(w.address) for w in worker_pair]
        outcome = ShardDispatcher(SPECS, shards=4, hosts=hosts).run()
        assert outcome.report.digest() == serial_report.digest()
        metrics = [host.fetch_metrics() for host in hosts]
        assert all(_counter(doc, "worker.spec_uploads") <= 1 for doc in metrics)
        assert sum(_counter(doc, "worker.spec_cache_hits") for doc in metrics) == 4
        # the dispatch is over: no host still holds the list
        assert all(host._specs == {} for host in hosts)

    def test_workbench_regress_over_http_hosts(self, worker_pair):
        hosts = [HttpHost(w.address) for w in worker_pair]
        workbench = Workbench("master_slave")
        result = workbench.regress(scenarios=4, cycles=120, hosts=hosts)
        assert result.status.name == "PASSED"
        assert result.metrics["engine"] == "sharded"
        specs = build_specs(
            models=["master_slave"], count=4, base_seed=2005, cycles=120
        )
        serial = RegressionRunner(specs, engine=SerialEngine()).run()
        assert result.data["regression_digest"] == serial.digest()

    def test_dead_worker_address_is_retried_elsewhere(self, worker, serial_report):
        # nothing listens on the dead address: connection refused on
        # every attempt, so every shard it takes moves to the live one
        dead = HttpHost(_dead_address(), name="dead")
        live = HttpHost(worker.address, name="live")
        outcome = ShardDispatcher(
            SPECS, shards=2, hosts=[dead, live], max_attempts=3
        ).run()
        assert outcome.report.digest() == serial_report.digest()
        assert all(run.host == "live" for run in outcome.runs)
        failed = [reason for run in outcome.runs for reason in run.failures]
        assert all("transport failed" in reason for reason in failed)

    def test_worker_dying_mid_run_is_recovered(self, worker_pair, serial_report):
        """A worker daemon that goes down between shards: its next POST
        hits a closed port, the shard is retried on the survivor and
        the merged digest never notices."""
        dying, surviving = worker_pair

        class _DiesBeforeFirstPost(HttpHost):
            killed = False

            def run_shard(self, work):
                if not type(self).killed:
                    type(self).killed = True
                    dying.stop()
                return super().run_shard(work)

        hosts = [
            _DiesBeforeFirstPost(dying.address, name="dying"),
            HttpHost(surviving.address, name="surviving"),
        ]
        outcome = ShardDispatcher(
            SPECS, shards=3, hosts=hosts, max_attempts=4
        ).run()
        assert outcome.report.digest() == serial_report.digest()
        assert outcome.retries >= 1
        assert all(run.host == "surviving" for run in outcome.runs)


class _MisbehavingServer:
    """A TCP server that accepts /run connections and misbehaves.

    ``mode="reset"`` hard-closes the connection after the first bytes
    (what a worker daemon dying mid-shard looks like from the client);
    ``mode="garbage"`` answers a well-formed HTTP 200 whose body is not
    JSON.
    """

    def __init__(self, mode: str):
        self.mode = mode
        self._listener = socket.socket()
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(4)
        self.address = "127.0.0.1:%d" % self._listener.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while True:
            try:
                connection, _ = self._listener.accept()
            except OSError:
                return
            with connection:
                if self.mode == "reset":
                    connection.recv(1024)
                    # SO_LINGER 0 turns close() into a hard RST
                    connection.setsockopt(
                        socket.SOL_SOCKET,
                        socket.SO_LINGER,
                        struct.pack("ii", 1, 0),
                    )
                else:
                    self._drain_request(connection)
                    body = b"this is not json"
                    connection.sendall(
                        b"HTTP/1.1 200 OK\r\n"
                        b"Content-Type: text/plain\r\n"
                        b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
                    )

    @staticmethod
    def _drain_request(connection):
        """Read headers + declared body so the client finishes sending."""
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = connection.recv(65536)
            if not chunk:
                return
            data += chunk
        headers, _, seen = data.partition(b"\r\n\r\n")
        length = 0
        for line in headers.split(b"\r\n"):
            if line.lower().startswith(b"content-length:"):
                length = int(line.split(b":", 1)[1])
        while len(seen) < length:
            chunk = connection.recv(65536)
            if not chunk:
                return
            seen += chunk

    def stop(self):
        self._listener.close()


class TestTransportFailureTaxonomy:
    """Every transport mishap is a HostFailure, and retry heals it."""

    @staticmethod
    def _run_one(host):
        return host.run_shard(_primed_work(host, SPECS[:1]))

    def test_connection_reset_mid_shard_is_a_host_failure(self):
        server = _MisbehavingServer("reset")
        try:
            with pytest.raises(HostFailure, match="transport failed"):
                self._run_one(HttpHost(server.address))
        finally:
            server.stop()

    def test_malformed_json_response_is_a_host_failure(self):
        server = _MisbehavingServer("garbage")
        try:
            with pytest.raises(HostFailure, match="unparseable shard report"):
                self._run_one(HttpHost(server.address))
        finally:
            server.stop()

    def test_connection_refused_is_a_host_failure(self):
        with pytest.raises(HostFailure, match="transport failed"):
            self._run_one(HttpHost(_dead_address(), timeout=5))

    def test_misbehaving_host_in_pool_never_drifts_the_digest(
        self, worker, serial_report
    ):
        for mode in ("reset", "garbage"):
            server = _MisbehavingServer(mode)
            try:
                outcome = ShardDispatcher(
                    SPECS,
                    shards=2,
                    hosts=[
                        HttpHost(server.address, name="bad"),
                        HttpHost(worker.address, name="good"),
                    ],
                    max_attempts=3,
                ).run()
                assert outcome.report.digest() == serial_report.digest(), mode
                assert all(run.host == "good" for run in outcome.runs)
            finally:
                server.stop()


class TestCheckpointTransport:
    """``POST /checkpoints`` + by-digest resume: the same 400/404
    taxonomy as the spec cache, extended to checkpoint wire forms."""

    def _resume_setup(self):
        """A monitored spec, its cycle-60 checkpoint (registered in the
        local registry) and the spec resuming from it."""
        spec = ScenarioSpec(
            "master_slave", 2005, (2, 2, 2), "bursty", 120,
            None, True, (), True,
        )
        checkpoint = snapshot_scenario_run(replace(spec, cycles=60), 60)
        digest = global_registry().put(checkpoint)
        return spec, checkpoint, replace(spec, resume_from=digest)

    def test_store_checkpoint_request_taxonomy(self):
        """The pure request handler: every malformed upload is a typed
        WorkerError (-> 400), a cache miss is the 404-class error."""
        cache = make_checkpoint_cache()
        _, checkpoint, _ = self._resume_setup()
        with pytest.raises(WorkerError, match='"checkpoint" object'):
            store_checkpoint_request({"version": 1}, cache)
        corrupt = checkpoint.to_json()
        corrupt["payload"]["txn_next"] += 1
        with pytest.raises(WorkerError, match="rejected checkpoint upload"):
            store_checkpoint_request(
                {"version": 1, "checkpoint": corrupt}, cache
            )
        newer = checkpoint.to_json()
        newer["version"] = 99
        with pytest.raises(WorkerError, match="rejected checkpoint upload"):
            store_checkpoint_request(
                {"version": 1, "checkpoint": newer}, cache
            )
        accepted = store_checkpoint_request(
            {"version": 1, "checkpoint": checkpoint.to_json()}, cache
        )
        assert accepted["ok"] is True
        assert accepted["digest"] == checkpoint.digest
        assert cache.get(checkpoint.digest).digest == checkpoint.digest
        with pytest.raises(
            UnknownCheckpointDigestError, match="unknown checkpoint"
        ):
            cache.get("0" * 64)

    def test_resume_over_http_matches_uninterrupted(self, worker):
        """The host ships the checkpoint, the worker resumes from it,
        and the report digest equals the uninterrupted serial run."""
        spec, _, resume_spec = self._resume_setup()
        base = RegressionRunner([spec], engine=SerialEngine()).run()
        host = HttpHost(worker.address)
        report = host.run_shard(_primed_work(host, [resume_spec]))
        assert report.digest() == base.digest()

    @pytest.mark.parametrize(
        "missing,reshipped",
        [
            (["unknown spec fingerprint"], ["/specs"]),
            (["unknown checkpoint"], ["/checkpoints"]),
            # a restarted worker lost both: each item goes again once
            (
                ["unknown spec fingerprint", "unknown checkpoint"],
                ["/specs", "/checkpoints"],
            ),
        ],
        ids=["specs", "checkpoint", "both"],
    )
    def test_typed_404_reships_that_item_once_and_retries(
        self, worker, missing, reshipped
    ):
        """One recovery rule for both uploads: the worker's typed 404
        for an item makes the host ship that item again and retry."""
        spec, _, resume_spec = self._resume_setup()
        base = RegressionRunner([spec], engine=SerialEngine()).run()
        host = _ForgetfulHost(worker.address, missing)
        report = host.run_shard(_primed_work(host, [resume_spec]))
        assert report.digest() == base.digest()
        retries = [post for item in reshipped for post in (item, "/run")]
        assert host.posts == ["/checkpoints", "/specs", "/run"] + retries

    def test_embedded_worker_answers_from_its_cache_not_the_registry(
        self, worker
    ):
        """An in-process worker shares the client's checkpoint registry,
        yet a digest its cache never received still gets the typed 404;
        the host re-ships that checkpoint once and the run matches."""
        spec, _, resume_spec = self._resume_setup()
        assert resume_spec.resume_from in global_registry()
        base = RegressionRunner([spec], engine=SerialEngine()).run()
        host = _ForgetfulHost(worker.address, [])
        # marked as uploaded, never sent
        host._uploaded.add(("/checkpoints", resume_spec.resume_from))
        report = host.run_shard(_primed_work(host, [resume_spec]))
        assert report.digest() == base.digest()
        assert host.posts == ["/specs", "/run", "/checkpoints", "/run"]

    def test_each_worker_resolves_only_the_checkpoints_it_was_sent(
        self, worker_pair
    ):
        """Two workers in one process: the one sent the checkpoint
        resumes from it without filling the process-global registry,
        and the other still answers the typed 404."""
        spec = ScenarioSpec(
            "pci", 2005, (2, 2), "default", 90, None, False, (), False
        )
        checkpoint = snapshot_scenario_run(replace(spec, cycles=40), 40)
        resumed = replace(spec, resume_from=checkpoint.digest)
        assert checkpoint.digest not in global_registry()
        fingerprint = specs_fingerprint([resumed])
        run = {
            "version": 1,
            "shard": {"index": 0, "of": 1, "fingerprint": fingerprint},
        }
        sent, never_sent = worker_pair
        for worker in worker_pair:
            status, _ = _post_json(
                worker,
                "/specs",
                {"version": 1, "fingerprint": fingerprint,
                 "specs": [resumed.to_json()]},
            )
            assert status == 200
        status, _ = _post_json(
            sent, "/checkpoints",
            {"version": 1, "checkpoint": checkpoint.to_json()},
        )
        assert status == 200
        status, doc = _post_json(sent, "/run", run)
        assert status == 200
        base = RegressionRunner([spec], engine=SerialEngine()).run()
        assert doc["digest"] == base.digest()
        assert checkpoint.digest not in global_registry()
        status, doc = _post_json(never_sent, "/run", run)
        assert status == 404
        assert "unknown checkpoint" in doc["error"]

    def test_a_second_404_for_the_same_item_surfaces(self, worker):
        host = _ForgetfulHost(
            worker.address, ["unknown spec fingerprint"] * 2
        )
        with pytest.raises(HostFailure, match="unknown spec fingerprint"):
            host.run_shard(_primed_work(host, SPECS[:1]))
        assert host.posts == ["/specs", "/run", "/specs", "/run"]

    def test_worker_that_never_saw_the_digest_answers_404(self, worker):
        spec, _, _ = self._resume_setup()
        ghost = replace(spec, resume_from="0" * 64)
        fingerprint = specs_fingerprint([ghost])
        status, _ = _post_json(
            worker,
            "/specs",
            {
                "version": 1,
                "fingerprint": fingerprint,
                "specs": [ghost.to_json()],
            },
        )
        assert status == 200
        status, doc = _post_json(
            worker,
            "/run",
            {
                "version": 1,
                "shard": {"index": 0, "of": 1, "fingerprint": fingerprint},
                "workers": 1,
            },
        )
        assert status == 404
        assert "unknown checkpoint" in doc["error"]

    def test_corrupt_upload_is_a_400_not_a_crash(self, worker):
        _, checkpoint, _ = self._resume_setup()
        doc = checkpoint.to_json()
        doc["payload"]["cycles_run"] += 1
        request = urllib.request.Request(
            f"http://{worker.address}/checkpoints",
            data=json.dumps({"version": 1, "checkpoint": doc}).encode(
                "utf-8"
            ),
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400
        assert "digest mismatch" in json.loads(excinfo.value.read())["error"]

    def test_missing_local_checkpoint_surfaces_client_side(self, worker):
        """A resume digest nobody registered fails in the *client's*
        registry lookup before anything crosses the wire."""
        spec, _, _ = self._resume_setup()
        ghost = replace(spec, resume_from="f" * 64)
        host = HttpHost(worker.address)
        with pytest.raises(UnknownCheckpointError, match="unknown"):
            host.run_shard(_primed_work(host, [ghost]))
        assert host.fetch_metrics()["counters"] == {}


class _ReplyingHost(HttpHost):
    """An HTTP host whose worker answers every ``/run`` with ``reply``."""

    def __init__(self, reply):
        super().__init__("127.0.0.1:9", name="replying")
        self.reply = reply

    def _post(self, path, payload, label):
        return self.reply if path == "/run" else b"{}"


def _work(host, specs):
    """One whole-list shard of ``specs`` for ``host`` (primed if HTTP)."""
    if isinstance(host, HttpHost):
        return _primed_work(host, specs)
    return ShardWork(shard=plan_shards(specs, 1)[0], spec_file="")


def _printing_host(tmp_path, doc):
    """A subprocess host whose ``--shard`` child prints ``doc``."""
    path = tmp_path / "report.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    host = LocalSubprocessHost("printing")
    host._command = lambda work: [
        sys.executable,
        "-c",
        "import sys; sys.stdout.write(open(sys.argv[1]).read())",
        str(path),
    ]
    return host


class TestCheckpointSidecarVerification:
    """Both hosts verify the checkpoint a verdict brings home: a
    damaged sidecar, or one that is not the verdict's frontier digest,
    is a typed HostFailure, never an escaped CheckpointError."""

    SPEC = ScenarioSpec(
        "master_slave", 2005, (1, 1, 2), "default", 80,
        track_fsm=True, checkpoint_at=50,
    )

    @pytest.fixture(scope="class")
    def report_doc(self):
        runner = RegressionRunner([self.SPEC], engine=SerialEngine())
        return runner.run().to_json()

    @staticmethod
    def _damaged(report_doc, damage):
        doc = json.loads(json.dumps(report_doc))
        verdict = doc["verdicts"][0]
        if damage == "tampered":
            verdict["checkpoint"]["payload"]["txn_next"] += 1
        else:
            verdict["frontier_digest"] = "0" * 64
        return doc

    @pytest.mark.parametrize("damage", ["tampered", "foreign"])
    def test_http_host(self, report_doc, damage):
        damaged = self._damaged(report_doc, damage)
        host = _ReplyingHost(json.dumps(damaged).encode())
        with pytest.raises(HostFailure, match="sidecar") as caught:
            host.run_shard(_work(host, [self.SPEC]))
        assert caught.value.kind == "digest-mismatch"

    @pytest.mark.parametrize("damage", ["tampered", "foreign"])
    def test_subprocess_host(self, report_doc, damage, tmp_path):
        host = _printing_host(tmp_path, self._damaged(report_doc, damage))
        with pytest.raises(HostFailure, match="sidecar") as caught:
            host.run_shard(_work(host, [self.SPEC]))
        assert caught.value.kind == "digest-mismatch"

    def test_an_intact_sidecar_comes_home_on_both_hosts(
        self, report_doc, tmp_path
    ):
        digest = report_doc["verdicts"][0]["frontier_digest"]
        for host in (
            _ReplyingHost(json.dumps(report_doc).encode()),
            _printing_host(tmp_path, report_doc),
        ):
            report = host.run_shard(_work(host, [self.SPEC]))
            assert report.verdicts[0].checkpoint.digest == digest


class TestSubprocessHostReports:
    """The subprocess host parses a child's report the way the HTTP
    host parses a worker's: every malformed report is typed."""

    def test_an_empty_object_is_garbage_json(self, tmp_path):
        host = _printing_host(tmp_path, {})
        with pytest.raises(HostFailure, match="verdicts") as caught:
            host.run_shard(_work(host, SPECS[:1]))
        assert caught.value.kind == "garbage-json"

    def test_a_report_for_other_specs_is_a_bad_report(
        self, serial_report, tmp_path
    ):
        host = _printing_host(tmp_path, serial_report.to_json())
        with pytest.raises(HostFailure, match="6 verdicts for 1") as caught:
            host.run_shard(_work(host, SPECS[:1]))
        assert caught.value.kind == "bad-report"


class _ForgetfulHost(HttpHost):
    """An HttpHost whose worker answers its first ``/run`` requests with
    the typed 404 for each item in ``missing`` (what a restart or an
    eviction looks like), recording every POST path it sends."""

    def __init__(self, address, missing):
        super().__init__(address)
        self.missing = list(missing)
        self.posts = []

    def _post(self, path, payload, label):
        self.posts.append(path)
        if path == "/run" and self.missing:
            raise HostFailure(
                self.name,
                label,
                f"worker returned HTTP 404: {self.missing.pop(0)} ...",
                kind="non-200",
            )
        return super()._post(path, payload, label)


class _SlowHost:
    """In-process host that sleeps before every shard (runtime skew)."""

    def __init__(self, name, delay):
        self.name = name
        self.delay = delay
        self._inner = InProcessHost(name)

    def run_shard(self, work):
        time.sleep(self.delay)
        return self._inner.run_shard(work)


def _fixed_assignment(specs, shards, hosts):
    """The baseline work stealing must beat: a fixed-assignment stub.

    Shard ``k`` is pinned to host ``k mod len(hosts)`` up front and
    each host runs its own shards one after another on one thread (as
    a dispatcher serving thread does), so a slow host keeps its whole
    share of the queue.  Returns the merged report and the wall
    seconds it took.
    """
    from repro.dispatch import merge_reports

    live = [shard for shard in plan_shards(specs, shards) if shard.specs]

    def serve(position):
        host = hosts[position]
        return [
            host.run_shard(ShardWork(shard=shard, spec_file=""))
            for shard in live
            if shard.index % len(hosts) == position
        ]

    started = time.perf_counter()
    with ThreadPoolExecutor(max_workers=len(hosts)) as pool:
        per_host = list(pool.map(serve, range(len(hosts))))
    wall = time.perf_counter() - started
    return merge_reports([r for reports in per_host for r in reports]), wall


class TestWorkStealing:
    """The scheduler itself: rebalance, retry exclusion, dedupe."""

    def test_fast_host_steals_the_tail(self, serial_report):
        """With one deliberately slow host, the fast host must complete
        most of the queue instead of half of it (fixed round-robin
        would pin 3 of 6 shards to the slow host)."""
        slow = _SlowHost("slow", delay=0.5)
        fast = InProcessHost("fast")
        outcome = ShardDispatcher(SPECS, shards=6, hosts=[slow, fast]).run()
        assert outcome.report.digest() == serial_report.digest()
        loads = outcome.host_loads()
        assert loads["fast"] >= 4, loads
        assert loads["slow"] + loads["fast"] == 6

    def test_stealing_beats_fixed_assignment_under_a_slow_host(self):
        """The rebalance claim, gated in tier 1: 12 specs in 6 shards
        over one host slowed by 0.4 s per shard and one fast host.
        Fixed assignment leaves 3 shards queued on the slow host;
        stealing must finish sooner, with the fast host completing
        more than half the shards, and both digests equal serial."""
        specs = build_specs(count=12, cycles=150)
        serial = RegressionRunner(specs, engine=SerialEngine()).run().digest()
        shards = 6

        def hosts():
            return [_SlowHost("slow", delay=0.4), InProcessHost("fast")]

        fixed, fixed_wall = _fixed_assignment(specs, shards, hosts())
        stealing = ShardDispatcher(specs, shards=shards, hosts=hosts()).run()
        assert fixed.digest() == serial
        assert stealing.report.digest() == serial
        assert stealing.report.wall_seconds < fixed_wall, (
            f"stealing {stealing.report.wall_seconds:.2f}s did not beat "
            f"fixed assignment {fixed_wall:.2f}s"
        )
        loads = stealing.host_loads()
        assert loads["fast"] > shards // 2, loads

    def test_single_flaky_host_pool_recovers_via_exclusion_reset(
        self, serial_report
    ):
        """When every host has failed a shard once the exclusions reset,
        so a flaky-but-alive single-host pool still finishes."""

        class _FlakyOnce:
            name = "only"
            calls = 0

            def run_shard(self, work):
                type(self).calls += 1
                if type(self).calls == 1:
                    raise HostFailure(self.name, work.shard.label, "hiccup")
                return InProcessHost(self.name).run_shard(work)

        outcome = ShardDispatcher(
            SPECS, shards=2, hosts=[_FlakyOnce()], max_attempts=3
        ).run()
        assert outcome.report.digest() == serial_report.digest()
        assert outcome.retries == 1

    def test_exhausted_attempts_abort_the_dispatch(self):
        class _AlwaysDown:
            def __init__(self, name):
                self.name = name

            def run_shard(self, work):
                raise HostFailure(self.name, work.shard.label, "down")

        with pytest.raises(DispatchError, match="failed on every host"):
            ShardDispatcher(
                SPECS, shards=2, hosts=[_AlwaysDown("a"), _AlwaysDown("b")]
            ).run()

    def test_duplicate_completion_is_dropped_not_merged(self, serial_report):
        """The queue's idempotence invariant: a completion for a shard
        that already completed elsewhere is counted and discarded.
        Today's blocking transports can't produce this through the
        dispatcher (a thread fails or completes, never both) -- the
        invariant is what keeps a late-completing future transport, or
        a direct ShardQueue user, from double-merging verdicts."""
        live = plan_shards(SPECS, 2)
        queue = ShardQueue(live, ["a", "b"], max_attempts=4)
        host = InProcessHost("a")
        first = queue.take("a")
        second = queue.take("b")
        report_one = host.run_shard(ShardWork(shard=first.shard, spec_file=""))
        report_two = host.run_shard(ShardWork(shard=second.shard, spec_file=""))
        assert queue.complete(first, "a", report_one) is True
        # the same shard completes again on the other host: dropped
        assert queue.complete(first, "b", report_one) is False
        assert queue.complete(second, "b", report_two) is True
        assert queue.duplicates == 1
        results = queue.results([shard for shard in live])
        assert len(results) == 2
        from repro.dispatch import merge_reports

        merged = merge_reports([report for _, report in results])
        assert merged.digest() == serial_report.digest()

    def test_duplicate_host_names_are_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            ShardDispatcher(
                SPECS,
                shards=2,
                hosts=[InProcessHost("same"), InProcessHost("same")],
            )

    def test_shards_for_hosts_oversubscribes_but_never_exceeds_specs(self):
        assert shards_for_hosts(2, 100) == 4
        assert shards_for_hosts(3, 100, factor=3) == 9
        assert shards_for_hosts(4, 3) == 3      # capped by the spec count
        assert shards_for_hosts(1, 0) == 1      # degenerate empty regression
        with pytest.raises(ValueError):
            shards_for_hosts(0, 10)


class TestSubprocessReaping:
    """Satellite fix: HostFailure exits must never leak a child process."""

    def test_timed_out_child_is_killed_and_reaped(self):
        host = LocalSubprocessHost("slowpoke", timeout=0.5)
        host._command = lambda work: [
            sys.executable,
            "-c",
            "import time; time.sleep(60)",
        ]
        seen = {}
        host._started = lambda process: seen.setdefault("process", process)
        shard = plan_shards(SPECS[:1], 1)[0]
        with pytest.raises(HostFailure, match="timed out"):
            host.run_shard(ShardWork(shard=shard, spec_file=""))
        process = seen["process"]
        # reaped: the exit status has been collected, no zombie left
        assert process.returncode is not None

    def test_crashed_startup_hook_still_reaps_the_child(self):
        host = LocalSubprocessHost("hooked", timeout=30)
        host._command = lambda work: [
            sys.executable,
            "-c",
            "import time; time.sleep(60)",
        ]
        seen = {}

        def exploding_hook(process):
            seen["process"] = process
            raise RuntimeError("hook went sideways")

        host._started = exploding_hook
        shard = plan_shards(SPECS[:1], 1)[0]
        with pytest.raises(RuntimeError, match="sideways"):
            host.run_shard(ShardWork(shard=shard, spec_file=""))
        assert seen["process"].returncode is not None


class TestCliHosts:
    """--hosts flag plumbing on ``repro regress``, raw and as a session."""

    def test_scenarios_cli_hosts_matches_serial(self, worker_pair, capsys):
        from repro.cli import main

        addresses = ",".join(w.address for w in worker_pair)
        code = main(
            ["regress", "--scenarios", "6", "--cycles", "120",
             "--hosts", addresses, "--json"]
        )
        captured = capsys.readouterr()
        assert code == 0
        doc = json.loads(captured.out)
        serial = RegressionRunner(
            build_specs(count=6, cycles=120), engine=SerialEngine()
        ).run()
        assert doc["digest"] == serial.digest()
        assert "stealing schedule" in captured.err

    def test_repro_cli_hosts_matches_serial(self, worker_pair, capsys):
        from repro.cli import main

        addresses = ",".join(w.address for w in worker_pair)
        code = main(
            [
                "regress",
                "--model",
                "master_slave",
                "--scenarios",
                "4",
                "--cycles",
                "120",
                "--hosts",
                addresses,
                "--json",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        doc = json.loads(captured.out)
        regress = [s for s in doc["stages"] if s["stage"] == "regress"][0]
        specs = build_specs(
            models=["master_slave"], count=4, base_seed=2005, cycles=120
        )
        serial = RegressionRunner(specs, engine=SerialEngine()).run()
        assert regress["data"]["regression_digest"] == serial.digest()

    def test_hosts_conflicts_with_shard_and_merge(self):
        from repro.cli import main as repro_main

        with pytest.raises(SystemExit) as excinfo:
            repro_main(["regress", "--hosts", "127.0.0.1:8421", "--shard", "1/2"])
        assert excinfo.value.code == 2       # parser.error: usage + exit 2
        with pytest.raises(SystemExit) as excinfo:
            repro_main(
                [
                    "regress",
                    "--model",
                    "pci",
                    "--hosts",
                    "127.0.0.1:8421",
                    "--shard",
                    "1/2",
                ]
            )
        assert excinfo.value.code == 2       # same with a session model

    def test_bad_hosts_string_rejected(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["regress", "--hosts", "nonsense", "--scenarios", "2"])


def _dead_address() -> str:
    """An address nothing listens on (bound then immediately closed)."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return f"127.0.0.1:{port}"
