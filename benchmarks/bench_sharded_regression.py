"""Shard-count scaling of the sharded regression dispatcher.

The third execution tier's entry in the BENCH trajectory: the same
seeded spec list dispatched over N ``python -m repro regress
--shard`` subprocess hosts, measuring

* end-to-end dispatch wall time at 1 vs N shards (includes the
  per-shard interpreter start-up that a remote host would also pay),
* the determinism gate: the merged digest must be byte-identical to a
  serial in-process run at every shard count.

Numbers land in ``benchmark.extra_info`` next to the timings, like the
other harnesses; ``REPRO_FULL=1`` scales the workload up.
"""

import pytest

from repro.dispatch import InProcessHost, ShardDispatcher
from repro.scenarios.regression import RegressionRunner, build_specs
from repro.workbench import SerialEngine

from common import FULL_RUN

#: Bounded by default so CI stays fast; REPRO_FULL=1 scales up.
SCENARIOS = 48 if FULL_RUN else 12
CYCLES = 400 if FULL_RUN else 200
SHARD_COUNTS = (1, 3)


@pytest.mark.parametrize("shards", SHARD_COUNTS, ids=["s1", "s3"])
def test_sharded_dispatch_throughput(benchmark, shards):
    """Merged-report throughput across N subprocess shard hosts."""
    specs = build_specs(count=SCENARIOS, cycles=CYCLES)

    def run():
        return ShardDispatcher(specs, shards=shards).run()

    outcome = benchmark.pedantic(run, rounds=1, iterations=1)
    report = outcome.report
    assert report.ok, report.summary()
    assert len(report.verdicts) == SCENARIOS
    assert outcome.retries == 0
    benchmark.extra_info.update(
        {
            "shards": shards,
            "scenarios": len(report.verdicts),
            "transactions": report.transactions,
            "txn_per_second": round(report.throughput),
            "digest": report.digest(),
            "plan": outcome.plan_fingerprint,
        }
    )
    print(f"\n{report.summary()}")


def test_sharded_digest_equals_serial(benchmark):
    """The equivalence gate, timed: serial vs 3 in-process shards."""
    specs = build_specs(count=8, cycles=150)

    def run():
        serial = RegressionRunner(specs, engine=SerialEngine()).run()
        sharded = ShardDispatcher(
            specs, shards=3, hosts=[InProcessHost(f"h{i}") for i in range(3)]
        ).run()
        return serial, sharded

    serial, sharded = benchmark.pedantic(run, rounds=1, iterations=1)
    assert serial.digest() == sharded.report.digest()
    benchmark.extra_info.update({"digest": serial.digest()})
