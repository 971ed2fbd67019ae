"""The worker daemon's process pool, driven through real daemon processes.

``python -m repro.dispatch.worker`` forks one child per CPU it may run
on before it serves.  These tests hold it to its lifecycle: ``slots``
on ``/healthz`` is the pool size, SIGTERM and SIGINT join every child
and exit 0, a child killed mid-shard costs one 500 and one client
retry (never a hang or a drifted digest), and resumed scenarios get
their checkpoints with the task.  ``TestForkPool`` checks the pool
itself: child exceptions, early close and stop.  Child pids are read from
``/proc/<pid>/task/*/children``, so the module is Linux-only.
"""

import json
import os
import signal
import subprocess
import sys
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import pytest

from repro.checkpoint import global_registry, snapshot_scenario_run
from repro.dispatch import HttpHost, ShardDispatcher, specs_fingerprint
from repro.dispatch.pool import ForkPool, PoolChildDied
from repro.scenarios.regression import RegressionRunner, ScenarioSpec, build_specs
from repro.workbench import SerialEngine

pytestmark = pytest.mark.skipif(
    not Path("/proc/self/task").is_dir(), reason="reads child pids from /proc"
)

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _start(preexec_fn=None):
    """A worker daemon subprocess on an ephemeral port, answering /healthz."""
    env = dict(os.environ, PYTHONPATH=SRC)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.dispatch.worker", "--port", "0"],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        preexec_fn=preexec_fn,
    )
    line = process.stdout.readline()
    assert "http://" in line, line
    address = line.rsplit("http://", 1)[1].strip()
    return process, address


def _health(address):
    with urllib.request.urlopen(f"http://{address}/healthz", timeout=10) as reply:
        return json.loads(reply.read())


def _children(pid):
    """Every child of process ``pid``, across all its threads."""
    children = []
    for task in Path(f"/proc/{pid}/task").iterdir():
        children += (task / "children").read_text().split()
    return sorted(int(child) for child in children)


def _alive(pid):
    return Path(f"/proc/{pid}").exists()


def _cpu_ticks(pid):
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return int(fields[11]) + int(fields[12])  # utime + stime


def _stop(process):
    if process.poll() is None:
        process.kill()
        process.wait(timeout=10)
    process.stdout.close()


@pytest.fixture()
def daemon():
    process, address = _start()
    yield process, address
    _stop(process)


@pytest.fixture()
def pooled(daemon):
    process, address = daemon
    if _health(address)["slots"] < 2:
        pytest.skip("one allowed core: the daemon runs shards inline")
    return daemon


def _dispatch(address, specs, **kwargs):
    host = HttpHost(address, name="pooled")
    host.prime(specs_fingerprint(specs), specs)
    return ShardDispatcher(specs, hosts=[host], **kwargs).run()


def test_slots_is_the_allowed_core_count_and_one_child_each(daemon):
    process, address = daemon
    slots = _health(address)["slots"]
    assert slots == len(os.sched_getaffinity(0))
    assert len(_children(process.pid)) == (slots if slots > 1 else 0)


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity control"
)
def test_one_allowed_core_runs_inline_with_no_children():
    core = min(os.sched_getaffinity(0))
    process, address = _start(lambda: os.sched_setaffinity(0, {core}))
    try:
        assert _health(address)["slots"] == 1
        specs = build_specs(count=4, cycles=60)
        outcome = _dispatch(address, specs, shards=2)
        serial = RegressionRunner(specs, engine=SerialEngine()).run()
        assert outcome.report.digest() == serial.digest()
        assert _children(process.pid) == []
    finally:
        _stop(process)


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT], ids=["TERM", "INT"])
def test_signal_stops_serving_joins_the_children_and_exits_0(daemon, signum):
    process, address = daemon
    specs = build_specs(count=4, cycles=60)
    assert _dispatch(address, specs, shards=2).report.ok
    children = _children(process.pid)
    process.send_signal(signum)
    assert process.wait(timeout=20) == 0
    assert [child for child in children if _alive(child)] == []


def test_child_killed_mid_shard_is_one_500_then_a_fresh_pool(pooled):
    """The shard's /run answers 500 (naming the dead child), the
    client's retry runs it on the replaced pool, and the merged digest
    equals the serial run."""
    process, address = pooled
    slots = _health(address)["slots"]
    specs = build_specs(count=2 * slots, cycles=12_000)
    warm = build_specs(count=slots, cycles=40, base_seed=11)
    assert _dispatch(address, warm, shards=1).report.ok  # children import
    before = _children(process.pid)
    ticks = {child: _cpu_ticks(child) for child in before}
    with ThreadPoolExecutor(1) as running:
        future = running.submit(_dispatch, address, specs, shards=1, max_attempts=2)
        deadline = time.monotonic() + 30
        victim = None
        while victim is None:
            assert time.monotonic() < deadline, "no child ever started the shard"
            busy = [child for child in before if _cpu_ticks(child) > ticks[child]]
            victim = busy[0] if busy else None
            time.sleep(0.005)
        os.kill(victim, signal.SIGKILL)
        outcome = future.result(timeout=120)
    serial = RegressionRunner(specs, engine=SerialEngine()).run()
    assert outcome.report.digest() == serial.digest()
    assert outcome.retries == 1
    [reason] = outcome.runs[0].failures
    assert "HTTP 500" in reason and f"pool child {victim} died" in reason
    after = _children(process.pid)
    assert victim not in after and len(after) == slots
    assert _health(address)["slots"] == slots


def test_resume_runs_in_the_children_with_the_uploaded_checkpoint(daemon):
    """A resumed monitored spec through the daemon equals the
    uninterrupted serial run; its pool children hold no registry, so
    the checkpoint reached them with the task.  The children's monitor
    compiles show up on /healthz."""
    _, address = daemon
    spec = ScenarioSpec(
        "master_slave", 2005, (2, 2, 2), "bursty", 120, None, True, (), True
    )
    checkpoint = snapshot_scenario_run(replace(spec, cycles=60), 60)
    resumed = replace(spec, resume_from=global_registry().put(checkpoint))
    plain = build_specs(count=3, cycles=60)
    outcome = _dispatch(address, [resumed] + plain, shards=1)
    serial = RegressionRunner([spec] + plain, engine=SerialEngine()).run()
    assert outcome.report.digest() == serial.digest()
    compiles = _health(address)["compile_cache"]
    assert compiles["plan_misses"] > 0 and compiles["plans"] > 0


class TestForkPool:
    """The pool on its own, forked from the test process's main thread."""

    @pytest.fixture()
    def pool(self):
        pool = ForkPool(2)
        yield pool
        pool.stop()

    def test_results_and_child_exceptions_come_back(self, pool):
        assert sorted(pool.imap(abs, range(-6, 0))) == [1, 2, 3, 4, 5, 6]
        with pytest.raises(ValueError, match="invalid literal"):
            list(pool.imap(int, ["1", "x", "3"]))
        # the failed call collected what it was owed: both children
        # are idle again and answer the next call in full
        assert sorted(pool.imap(len, ["a", "bb", "ccc"])) == [1, 2, 3]

    def test_closing_early_collects_the_results_still_owed(self, pool):
        results = pool.imap(abs, range(-8, 0))
        next(results)
        results.close()
        assert sorted(pool.imap(abs, [-1, -2])) == [1, 2]

    def test_stop_terminates_and_joins_every_child(self, pool):
        list(pool.imap(abs, [-1, -2]))
        children = _children(os.getpid())
        assert len(children) >= 2
        pool.stop()
        assert [child for child in children if _alive(child)] == []
        with pytest.raises(PoolChildDied, match="shut down"):
            list(pool.imap(abs, [-1]))
