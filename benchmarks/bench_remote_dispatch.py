"""Remote dispatch benchmarks: work-stealing rebalance + HTTP transport.

Two entries in the BENCH trajectory:

* ``test_work_stealing_rebalance`` -- the scheduler claim, measured:
  the same spec list over one deliberately slowed host and one fast
  host, a fixed shard-to-host assignment vs work stealing.  Fixed
  round-robin pins half the shards to the slow host so wall clock is
  bounded by it; stealing lets the fast host drain the queue tail.
  The benchmark times the stealing run and records the fixed run in
  ``extra_info`` (the pass/fail gate is the tier-1 test
  ``test_remote_dispatch.py::TestWorkStealing::test_stealing_beats_fixed_assignment_under_a_slow_host``).
* ``test_http_dispatch_round_trip`` -- the network tier's overhead:
  a sharded regression POSTed to two in-process worker daemons through
  :class:`HttpHost`, digest-gated against serial.

``REPRO_FULL=1`` scales the workload up, like the other harnesses.
"""

import time
from concurrent.futures import ThreadPoolExecutor

from repro.dispatch import (
    HttpHost,
    InProcessHost,
    ShardDispatcher,
    ShardWork,
    merge_reports,
    plan_shards,
)
from repro.dispatch.worker import start_worker
from repro.scenarios.regression import RegressionRunner, build_specs
from repro.workbench import SerialEngine

from common import FULL_RUN

#: Bounded by default so CI stays fast; REPRO_FULL=1 scales up.
SCENARIOS = 24 if FULL_RUN else 12
CYCLES = 300 if FULL_RUN else 150
SHARDS = 6
#: Per-shard delay injected into the slow host.  Fixed assignment
#: gives it SHARDS/2 shards (3x this delay of dead time on the
#: critical path); stealing should leave it 1-2.
SLOW_DELAY = 0.4


class _SlowHost:
    """In-process host with a fixed per-shard delay (runtime skew)."""

    def __init__(self, name, delay):
        self.name = name
        self.delay = delay
        self._inner = InProcessHost(name)

    def run_shard(self, work):
        time.sleep(self.delay)
        return self._inner.run_shard(work)


def _fixed_assignment(specs, hosts):
    """Shard k pinned to host k mod n, each host serving its own shards
    in turn; returns (merged report, wall seconds)."""
    live = [shard for shard in plan_shards(specs, SHARDS) if shard.specs]

    def serve(position):
        return [
            hosts[position].run_shard(ShardWork(shard=shard, spec_file=""))
            for shard in live
            if shard.index % len(hosts) == position
        ]

    started = time.perf_counter()
    with ThreadPoolExecutor(max_workers=len(hosts)) as pool:
        per_host = list(pool.map(serve, range(len(hosts))))
    wall = time.perf_counter() - started
    return merge_reports([r for reports in per_host for r in reports]), wall


def test_work_stealing_rebalance(benchmark):
    """Stealing must beat fixed assignment under a skewed host pool."""
    specs = build_specs(count=SCENARIOS, cycles=CYCLES)
    serial_digest = RegressionRunner(specs, engine=SerialEngine()).run().digest()

    def hosts():
        return [_SlowHost("slow", SLOW_DELAY), InProcessHost("fast")]

    fixed_report, fixed_wall = _fixed_assignment(specs, hosts())
    stealing_outcome = benchmark.pedantic(
        lambda: ShardDispatcher(specs, shards=SHARDS, hosts=hosts()).run(),
        rounds=1,
        iterations=1,
    )
    stealing_wall = stealing_outcome.report.wall_seconds

    assert fixed_report.digest() == serial_digest
    assert stealing_outcome.report.digest() == serial_digest
    # the rebalance win: the fast host stole the tail a fixed
    # assignment leaves queued on the slow host
    assert stealing_wall < fixed_wall, (
        f"stealing {stealing_wall:.2f}s did not beat fixed {fixed_wall:.2f}s"
    )
    loads = stealing_outcome.host_loads()
    assert loads["fast"] > SHARDS // 2, loads
    benchmark.extra_info.update(
        {
            "digest": serial_digest,
            "fixed_wall_seconds": round(fixed_wall, 3),
            "stealing_wall_seconds": round(stealing_wall, 3),
            "speedup": round(fixed_wall / stealing_wall, 2),
            "stealing_loads": loads,
        }
    )
    print(
        f"\nfixed {fixed_wall:.2f}s -> stealing {stealing_wall:.2f}s "
        f"({fixed_wall / stealing_wall:.1f}x) loads {loads}"
    )


def test_http_dispatch_round_trip(benchmark):
    """Sharded regression through two HTTP worker daemons, digest-gated."""
    specs = build_specs(count=SCENARIOS, cycles=CYCLES)
    serial_digest = RegressionRunner(specs, engine=SerialEngine()).run().digest()
    workers = [start_worker(), start_worker()]
    try:
        def run():
            hosts = [HttpHost(w.address) for w in workers]
            return ShardDispatcher(specs, shards=4, hosts=hosts).run()

        outcome = benchmark.pedantic(run, rounds=1, iterations=1)
        report = outcome.report
        assert report.ok, report.summary()
        assert report.digest() == serial_digest
        assert outcome.retries == 0
        benchmark.extra_info.update(
            {
                "digest": report.digest(),
                "scenarios": len(report.verdicts),
                "txn_per_second": round(report.throughput),
                "hosts": list(outcome.host_loads()),
            }
        )
        print(f"\n{report.summary()}")
    finally:
        for worker in workers:
            worker.stop()
