"""The tracing + metrics layer: spans, counters, digest invariance.

Three contracts under test:

* the :mod:`repro.obs` primitives themselves (tracer nesting, JSONL
  round trip, fixed-bucket histogram merging),
* the instrumentation woven through kernel / monitors / scenarios /
  dispatch (right spans, right attribution, fleet metrics fold),
* the hard one -- **report digests are byte-identical with
  observability on or off**, serial, sharded and over live HTTP
  workers.
"""

import json
import sys
import urllib.request
from pathlib import Path

import pytest

from repro.abv import AbvHarness
from repro.dispatch import FAILURE_KINDS, HostFailure, ShardDispatcher
from repro.dispatch.http_host import _transport_kind, parse_hosts
from repro.dispatch.worker import start_worker
from repro.obs import (
    OBS,
    MetricsRegistry,
    NullTracer,
    Tracer,
    enable_metrics,
    enable_tracing,
    merge_metric_docs,
    metric_name,
    render_metrics,
)
from repro.obs import runtime
from repro.psl import build_monitor, compile_property
from repro.psl.compiled import ENGINES
from repro.models.pci.properties import pci_safety_properties
from repro.scenarios import build_specs
from repro.scenarios.regression import RegressionRunner
from repro.workbench import Workbench, default_registry

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def _obs_off():
    """Every test starts and ends with observability disabled."""
    runtime.disable()
    yield
    runtime.disable()


def _trace_report():
    sys.path.insert(0, str(REPO_ROOT / "tools"))
    try:
        import trace_report
    finally:
        sys.path.pop(0)
    return trace_report


class TestTracer:
    def test_nesting_records_parent_ids(self):
        tracer = Tracer()
        with tracer.span("outer", "t") as outer:
            with tracer.span("inner", "t") as inner:
                assert tracer.current_span_id() == inner.span_id
        spans = tracer.spans()
        by_name = {s.name: s for s in spans}
        assert by_name["inner"].parent_id == outer.span_id
        assert by_name["outer"].parent_id is None

    def test_attrs_and_exception_capture(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom", "t", seed=7) as span:
                span.set(extra=1)
                raise ValueError("nope")
        (span,) = tracer.spans()
        assert span.attrs["seed"] == 7
        assert span.attrs["extra"] == 1
        assert "ValueError" in span.attrs["error"]

    def test_record_synthesizes_parented_span(self):
        tracer = Tracer()
        with tracer.span("parent", "t") as parent:
            pass
        tracer.record("child", "t", 0.25, parent_id=parent.span_id, steps=3)
        child = [s for s in tracer.spans() if s.name == "child"][0]
        assert child.parent_id == parent.span_id
        assert child.duration_s == pytest.approx(0.25)
        assert child.attrs["steps"] == 3

    def test_jsonl_round_trip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("a", "t", k="v"):
            pass
        path = tmp_path / "trace.jsonl"
        count = tracer.dump(path)
        assert count == 1
        doc = json.loads(path.read_text().strip())
        assert doc["name"] == "a"
        assert doc["component"] == "t"
        assert doc["attrs"] == {"k": "v"}
        assert doc["parent_id"] is None

    def test_null_tracer_is_inert(self, tmp_path):
        tracer = NullTracer()
        with tracer.span("x", "t") as span:
            span.set(ignored=True)
        assert tracer.spans() == []
        assert tracer.current_span_id() is None
        assert tracer.dump(tmp_path / "empty.jsonl") == 0


class TestMetrics:
    def test_counter_and_labels(self):
        registry = MetricsRegistry()
        registry.counter("hits", host="a").inc()
        registry.counter("hits", host="a").inc(2)
        registry.counter("hits", host="b").inc()
        doc = registry.to_json()
        assert doc["counters"][metric_name("hits", host="a")] == 3
        assert doc["counters"][metric_name("hits", host="b")] == 1

    def test_histogram_buckets_are_deterministic(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", edges=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0, 0.5):
            hist.observe(value)
        doc = registry.to_json()["histograms"]["lat"]
        assert doc["buckets"] == [1, 2, 1]
        assert doc["count"] == 4
        assert doc["sum"] == pytest.approx(6.05)

    def test_merge_sums_elementwise(self):
        docs = []
        for values in ((0.05, 0.5), (5.0,)):
            registry = MetricsRegistry()
            registry.counter("n").inc(len(values))
            hist = registry.histogram("lat", edges=(0.1, 1.0))
            for value in values:
                hist.observe(value)
            docs.append(registry.to_json())
        merged = merge_metric_docs(docs)
        assert merged["counters"]["n"] == 3
        assert merged["histograms"]["lat"]["buckets"] == [1, 1, 1]
        assert merged["histograms"]["lat"]["count"] == 3

    def test_merge_rejects_mismatched_edges(self):
        a = MetricsRegistry()
        a.histogram("lat", edges=(0.1,)).observe(1)
        b = MetricsRegistry()
        b.histogram("lat", edges=(0.2,)).observe(1)
        with pytest.raises(ValueError):
            merge_metric_docs([a.to_json(), b.to_json()])

    def test_render_is_stable_text(self):
        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.counter("a").inc(2)
        text = render_metrics(registry.to_json())
        assert text.index("a 2") < text.index("b 1")


class TestRuntime:
    def test_disabled_by_default(self):
        assert OBS.enabled is False
        assert isinstance(OBS.tracer, NullTracer)
        assert OBS.metrics.enabled is False

    def test_enable_is_idempotent(self):
        enable_tracing()
        tracer = OBS.tracer
        enable_tracing()
        assert OBS.tracer is tracer
        assert OBS.enabled is True

    def test_metrics_only_still_null_tracer(self):
        enable_metrics()
        assert OBS.enabled is True
        assert isinstance(OBS.tracer, NullTracer)
        assert OBS.metrics.enabled is True


def _pci_system():
    """The PCI (1, 1) system ``simulate_abv`` runs."""
    return default_registry().get("pci", 1, 1).systemc_factory(11)


class TestKernelAndMonitorSpans:
    def _simulate(self, cycles=150):
        system = _pci_system()
        harness = AbvHarness(system.simulator, system.clock, system.letter)
        harness.add_monitors(
            [build_monitor(d) for d in pci_safety_properties(1, 1)[:3]]
        )
        system.run_cycles(cycles)
        harness.finish()
        return system

    def test_kernel_span_carries_delta_counters(self):
        enable_tracing()
        self._simulate()
        runs = [s for s in OBS.tracer.spans() if s.name == "sysc.kernel.run"]
        assert runs
        span = runs[0]
        assert span.component == "sysc.kernel"
        assert span.attrs["delta_cycles"] > 0
        assert span.attrs["process_runs"] > 0
        assert 0.0 <= span.attrs["livelock_proximity"] <= 1.0

    def test_kernel_span_and_metric_count_cycle_step_instants(self):
        """The instants the kernel's cycle step ran reach the span and
        the metrics, but not a checkpoint (a run fact, not state)."""
        from repro.checkpoint.capture import _STAT_FIELDS

        enable_tracing()
        enable_metrics()
        system = self._simulate()
        stats = system.simulator.stats
        assert 0 < stats.cycle_step_instants < stats.time_advances
        [span] = [s for s in OBS.tracer.spans() if s.name == "sysc.kernel.run"]
        assert span.attrs["cycle_step_instants"] == stats.cycle_step_instants
        counters = OBS.metrics.to_json()["counters"]
        assert counters["sysc.kernel.cycle_step_instants"] == (
            stats.cycle_step_instants
        )
        assert "cycle_step_instants" not in _STAT_FIELDS

    def test_monitor_spans_attribute_properties_under_kernel(self):
        enable_tracing()
        system = self._simulate()
        spans = OBS.tracer.spans()
        kernel_id = system.simulator.last_run_span_id
        monitor_spans = [s for s in spans if s.component == "psl.monitor"]
        assert len(monitor_spans) == 3
        for span in monitor_spans:
            assert span.parent_id == kernel_id
            assert span.attrs["property"]
            assert span.attrs["steps"] > 0
            assert span.attrs["verdict"]

    def test_fused_set_spans_share_one_timer(self):
        """A compiled set is timed once per step; its members' spans
        split that time by step count and keep every attribute."""
        enable_tracing()
        system = _pci_system()
        harness = AbvHarness(system.simulator, system.clock, system.letter)
        harness.add_properties(pci_safety_properties(1, 1)[:3], engine="compiled")
        system.run_cycles(150)
        harness.finish()
        fused = harness.bindings[0].monitor.property_set
        assert fused.obs_steps == harness.cycles_observed
        spans = [s for s in OBS.tracer.spans() if s.component == "psl.monitor"]
        assert len(spans) == 3
        for span in spans:
            assert span.parent_id == system.simulator.last_run_span_id
            assert span.attrs["engine"] == "compiled"
            assert span.attrs["steps"] == fused.obs_steps
            assert span.attrs["verdict"]
        assert sum(s.duration_s for s in spans) == pytest.approx(fused.obs_seconds)

    def test_monitor_step_counts_disabled_path_untouched(self):
        system = self._simulate()
        assert system.simulator.last_run_span_id is None

    @pytest.mark.parametrize("observability", ["off", "on"])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_monitor_steps_every_letter_either_way(self, engine, observability):
        if observability == "on":
            enable_tracing()
            enable_metrics()
        monitor = compile_property("always {req0} |=> {gnt0}", engine=engine)
        letters = [{"req0": i % 3 == 0, "gnt0": True} for i in range(500)]
        for letter in letters:
            monitor.step(letter)
        assert monitor.cycle == len(letters) - 1


class TestDigestInvariance:
    CYCLES = 120
    COUNT = 6

    def _serial_digest(self):
        specs = build_specs(count=self.COUNT, cycles=self.CYCLES)
        return RegressionRunner(specs, workers=1).run().digest()

    def test_serial_tracing_and_metrics(self):
        plain = self._serial_digest()
        enable_tracing()
        enable_metrics()
        assert self._serial_digest() == plain
        assert OBS.tracer.spans()

    def test_sharded_dispatch_with_tracing(self):
        plain = self._serial_digest()
        enable_tracing()
        enable_metrics()
        specs = build_specs(count=self.COUNT, cycles=self.CYCLES)
        outcome = ShardDispatcher(specs, shards=3).run()
        assert outcome.report.digest() == plain
        names = {s.name for s in OBS.tracer.spans()}
        assert "dispatch.run" in names
        assert any(name.startswith("dispatch.shard/") for name in names)

    def test_http_hosts_with_metrics(self):
        plain = self._serial_digest()
        workers = [start_worker(), start_worker()]
        try:
            hosts = parse_hosts(
                ",".join(w.address for w in workers), timeout=30.0
            )
            enable_tracing()
            enable_metrics()
            specs = build_specs(count=self.COUNT, cycles=self.CYCLES)
            outcome = ShardDispatcher(specs, shards=2, hosts=hosts).run()
        finally:
            for worker in workers:
                worker.stop()
        assert outcome.report.digest() == plain
        assert outcome.host_metrics
        merged = merge_metric_docs(outcome.host_metrics.values())
        assert merged["counters"]["worker.scenarios_run"] == self.COUNT

    def test_close_coverage_session_digest(self):
        registry = default_registry()

        def run_close(trace):
            if trace:
                enable_tracing()
                enable_metrics()
            try:
                bench = Workbench(registry.get("master_slave"), seed=2005)
                bench.close_coverage(rounds=1, cycles=140)
                return bench.report()
            finally:
                runtime.disable()

        plain = run_close(False)
        traced = run_close(True)
        assert traced.digest() == plain.digest()
        assert "metrics" in traced.observability
        assert plain.observability == {}


class TestCliFlags:
    def test_trace_and_metrics_flags(self, tmp_path, capsys):
        from repro.cli import main as repro_main

        trace_path = tmp_path / "run.jsonl"
        code = repro_main(
            ["regress", "--model", "pci", "--scenarios", "3",
             "--cycles", "100", "--workers", "1", "--json",
             "--trace", str(trace_path), "--metrics"]
        )
        captured = capsys.readouterr()
        assert code == 0
        doc = json.loads(captured.out)  # stdout is exactly one report
        assert "metrics" in doc["observability"]
        assert "trace:" in captured.err
        assert "=== metrics ===" in captured.err
        assert trace_path.exists()
        lines = trace_path.read_text().strip().splitlines()
        assert all(json.loads(line)["span_id"] for line in lines)
        # the scope tears down: the next command must start clean
        assert OBS.enabled is False

    def test_scenarios_cli_accepts_flags(self, tmp_path, capsys):
        from repro.cli import main as repro_main

        trace_path = tmp_path / "scen.jsonl"
        code = repro_main(
            ["regress", "--scenarios", "3", "--cycles", "100", "--workers", "1",
             "--json", "--trace", str(trace_path)]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["digest"]
        assert trace_path.exists()

    def test_dispatch_facts_in_regress_json(self, capsys):
        from repro.cli import main as repro_main

        code = repro_main(
            ["regress", "--model", "pci", "--scenarios", "4",
             "--cycles", "100", "--shards", "2", "--json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        facts = doc["stages"][0]["metrics"]["dispatch"]
        assert facts["duplicates"] == 0
        assert sum(facts["host_loads"].values()) == 2
        assert facts["failures"] == {}


class TestTraceReport:
    def _spans(self):
        return [
            {"span_id": 1, "parent_id": None, "name": "run",
             "component": "sysc.kernel", "start_s": 0.0, "duration_s": 1.0,
             "attrs": {}},
            {"span_id": 2, "parent_id": 1, "name": "psl.monitor/p",
             "component": "psl.monitor", "start_s": 0.1, "duration_s": 0.7,
             "attrs": {"property": "p", "steps": 42}},
        ]

    def test_self_time_subtracts_children(self, tmp_path):
        trace_report = self._trace_report()
        path = tmp_path / "t.jsonl"
        path.write_text(
            "\n".join(json.dumps(s) for s in self._spans()) + "\n"
        )
        report = trace_report.fold(trace_report.load_spans([str(path)]))
        by_name = {row["name"]: row for row in report["components"]}
        assert by_name["sysc.kernel"]["self_s"] == pytest.approx(0.3)
        assert by_name["psl.monitor"]["self_s"] == pytest.approx(0.7)
        # ranked by self time: the monitor leads
        assert report["components"][0]["name"] == "psl.monitor"
        (prop,) = report["properties"]
        assert prop["name"] == "p"
        assert prop["steps"] == 42

    def test_multi_file_ids_do_not_collide(self, tmp_path):
        trace_report = self._trace_report()
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        for path in (a, b):
            path.write_text(
                "\n".join(json.dumps(s) for s in self._spans()) + "\n"
            )
        spans = trace_report.load_spans([str(a), str(b)])
        assert len({s["span_id"] for s in spans}) == 4
        report = trace_report.fold(spans)
        by_name = {row["name"]: row for row in report["components"]}
        assert by_name["sysc.kernel"]["count"] == 2
        assert by_name["sysc.kernel"]["self_s"] == pytest.approx(0.6)

    _trace_report = staticmethod(_trace_report)


class TestFailureTaxonomy:
    def test_kind_table_is_closed(self):
        assert "refused" in FAILURE_KINDS
        assert "digest-mismatch" in FAILURE_KINDS
        failure = HostFailure("h", "s", "reason")
        assert failure.kind == "transport"

    def test_transport_kind_classification(self):
        import socket
        import urllib.error

        assert _transport_kind(ConnectionRefusedError()) == "refused"
        assert _transport_kind(ConnectionResetError()) == "reset"
        assert _transport_kind(socket.timeout()) == "timeout"
        assert (
            _transport_kind(urllib.error.URLError(ConnectionRefusedError()))
            == "refused"
        )
        assert _transport_kind(OSError("weird")) == "transport"

    def test_failure_counts_aggregate_per_host(self):
        class FlakyThenGood:
            """Fails its first shard with a classified kind, then works."""

            name = "flaky"

            def __init__(self):
                self.calls = 0

            def run_shard(self, work):
                self.calls += 1
                if self.calls == 1:
                    raise HostFailure(
                        self.name, work.shard.label, "boom", kind="reset"
                    )
                from repro.dispatch.hosts import InProcessHost

                return InProcessHost(name=self.name).run_shard(work)

        specs = build_specs(count=4, cycles=100)
        outcome = ShardDispatcher(
            specs, shards=2, hosts=[FlakyThenGood()], max_attempts=3
        ).run()
        counts = outcome.failure_counts()
        assert counts == {"flaky": {"reset": 1}}
        assert outcome.report.ok
        assert any("failure kinds" in line for line in outcome.log_lines())


class TestWorkerMetricsEndpoint:
    def test_metrics_shape_and_isolation(self):
        worker = start_worker()
        try:
            specs = build_specs(count=2, cycles=100)
            (host,) = parse_hosts(worker.address, timeout=30.0)
            outcome = ShardDispatcher(specs, hosts=[host], shards=1).run()
            with urllib.request.urlopen(
                f"http://{worker.address}/metrics", timeout=10
            ) as response:
                doc = json.loads(response.read())
        finally:
            worker.stop()
        assert doc["ok"] is True
        counters = doc["metrics"]["counters"]
        assert counters["worker.shards_served"] == 1
        assert counters["worker.scenarios_run"] == 2
        assert "worker.shard_seconds" in doc["metrics"]["histograms"]
        # the daemon's registry is its own: the process-global one
        # (disabled here) saw nothing
        assert OBS.metrics.to_json() == {"counters": {}, "histograms": {}}
        assert outcome.host_metrics[host.name]["counters"][
            "worker.shards_served"
        ] == 1


class TestFleetObservability:
    def test_session_report_fleet_section(self):
        workers = [start_worker(), start_worker()]
        try:
            hosts = parse_hosts(
                ",".join(w.address for w in workers), timeout=30.0
            )
            enable_metrics()
            registry = default_registry()
            bench = Workbench(registry.get("pci"), seed=2005)
            bench.regress(scenarios=6, cycles=100, hosts=hosts)
            report = bench.report()
        finally:
            for worker in workers:
                worker.stop()
        fleet = report.observability["fleet_metrics"]
        assert fleet and fleet[0]["stage"] == "regress"
        aggregate = fleet[0]["aggregate"]
        assert aggregate["counters"]["worker.scenarios_run"] == 6
        doc = report.to_json()
        assert "observability" in doc
        # and the digest ignores all of it
        assert report.digest() == report.digest()
