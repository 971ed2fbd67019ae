#!/usr/bin/env python3
"""Fixed-workload benchmark of the scenario regression stack.

One command, one workload per invocation::

    python3 perfbench/run.py --workload regress-plain --seed 2005 \\
        --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with the program's
tracing off: one warm-up pass, then warm passes until ``--seconds``
have elapsed (at least ``MIN_PASSES``), with fresh-process set-up
probes spread between them.  Pass timings are best-of-window, set-up
is the median probe.  ``--trace 1`` runs one traced
pass instead and reports the per-layer metrics (see ``traced.py``),
writing the JSONL trace under ``.perfbench_work/`` for
``tools/trace_report.py``.

Every pass is checked: each scenario must pass its scoreboard, and
the pass digest must equal the one recorded in ``digests.json`` for
the seed (or, for a seed without a record, the warm-up pass's digest
and the cross-workload rules).  Human-readable lines go first; the
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

Exit status: 0 all outputs correct; 1 a check failed (the JSON line
still printed); 2 no program to benchmark here (no ``src/repro``);
3 the checked-out program lacks an API the workload needs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".perfbench_work")

#: fresh-process set-up probes per run (setup_s is their median)
PROBES = 5
#: warm passes per run even when --seconds is already spent
MIN_PASSES = 5
#: the tail is the highest of these percentiles with >= 10 samples beyond
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ns_per_cycle": "ns/cycle",
    "txn_per_s": "txn/s",
    "scenario_ms_p50": "ms",
    "scenario_ms_tail": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    from traced import LAYERS

    units = {
        "models.build_us": "us",
        "sysc.run_ns_per_cycle": "ns/cycle",
        "sysc.process_runs_per_cycle": "count/cycle",
        "sysc.deltas_per_cycle": "count/cycle",
        "sysc.signal_changes_per_cycle": "count/cycle",
        "sysc.fast_path_ratio": "ratio",
        "abv.letter_ns": "ns",
        "psl.step_ns_per_cycle": "ns/cycle",
        "psl.steps_per_cycle": "count/cycle",
        "psl.compile_ms_cold": "ms",
        "psl.compile_cache_hit_ratio": "ratio",
        "scenarios.check_us_per_txn": "us/txn",
        "scenarios.replayed_calls_per_txn": "count/txn",
        "scenarios.coverage_us": "us",
        "explorer.explore_s": "s",
        "explorer.states": "count",
        "explorer.transitions": "count",
        "checkpoint.snapshot_ms": "ms",
        "checkpoint.restore_ms": "ms",
        "checkpoint.wire_bytes": "B",
        "close.run_ms_resumed": "ms",
        "close.run_ms_from_reset": "ms",
        "close.forked_goals": "count",
        "close.cycles_saved": "count",
        "dispatch.shard_rtt_ms": "ms",
        "dispatch.overhead_ms_per_shard": "ms",
        "dispatch.bytes_shipped": "B",
        "dispatch.bytes_saved": "B",
        "dispatch.merge_ms": "ms",
        "dispatch.retries": "count",
        "obs.overhead_ratio": "ratio",
    }
    units.update({f"share.{layer}": "ratio" for layer in LAYERS})
    units.update({f"ns_per_cycle.{layer}": "ns/cycle" for layer in LAYERS})
    return units


def load_digests() -> Dict:
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as handle:
        return json.load(handle)


def percentile(samples: List[float], pct: float) -> float:
    """Nearest-rank percentile (so a higher percentile is never lower)."""
    ordered = sorted(samples)
    return ordered[max(math.ceil(len(ordered) * pct / 100), 1) - 1]


def tail(samples: List[float]):
    """(value, percentile, samples beyond) by nearest rank."""
    count = len(samples)
    for pct in TAIL_PERCENTILES:
        beyond = count - math.ceil(count * pct / 100)
        if beyond >= 10:
            return percentile(samples, pct), pct, beyond
    return max(samples), 100.0, 0


class Gate:
    """The correctness gate: counts failed scenarios against attempted."""

    def __init__(self, workload: str, seed: int, digests: Dict):
        self.recorded = digests.get(
            "regress-plain" if workload == "regress-http" else workload, {}
        ).get(str(seed))
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []
        #: digests a pass must equal, with the reason each is required
        self.required: List[tuple] = []
        if self.recorded is not None:
            digest = self.recorded if isinstance(self.recorded, str) else self.recorded["digest"]
            self.required.append((digest, f"recorded digest for seed {seed}"))

    def require(self, digest: str, why: str) -> None:
        self.required.append((digest, why))

    def check(self, result) -> bool:
        """Fold one pass in; True when everything in it was correct."""
        scenarios = len(result.verdicts)
        bad = sum(1 for ok, _ in result.verdicts if not ok)
        for digest, why in self.required:
            if result.digest != digest:
                self.note(f"digest {result.digest} != {digest} ({why})")
                bad = scenarios
        if isinstance(self.recorded, dict):
            for key, value in self.recorded.items():
                if key != "digest" and result.facts.get(key) != value:
                    self.note(f"{key} {result.facts.get(key)} != recorded {value}")
                    bad = scenarios
        self.attempted += scenarios
        self.failed += bad
        return bad == 0

    def crash(self, scenarios: int) -> None:
        self.note(traceback.format_exc().strip().splitlines()[-1])
        traceback.print_exc(file=sys.stderr)
        self.attempted += scenarios
        self.failed += scenarios

    def note(self, text: str) -> None:
        if text not in self.notes:
            self.notes.append(text)


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh process to its ``ready`` line."""
    from workloads import child_env, stop_process

    started = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "probe.py"), workload, str(seed)],
        cwd=ROOT,
        env=child_env(ROOT, WORKDIR),
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        line = process.stdout.readline()
        elapsed = time.perf_counter() - started
        if line.strip() != "ready":
            raise RuntimeError(f"set-up probe for {workload} failed")
        process.wait(timeout=60)
    finally:
        stop_process(process)
    return elapsed


def reference_digests(workload, gate: Gate) -> None:
    """Cross-workload rules: http and monitored must equal plain."""
    if workload.name not in ("regress-http", "regress-monitored"):
        return
    from workloads import make_workload

    plain = make_workload(
        "regress-plain", workload.seed, ROOT, WORKDIR, small=workload.small
    )
    plain.setup()
    gate.require(plain.run_pass().digest, "regress-plain's digest for the same seed")


def measure(name: str, seed: int, seconds: float, digests: Dict, small=False):
    """End-to-end metrics for one workload (tracing off)."""
    from workloads import make_workload

    workload = make_workload(name, seed, ROOT, WORKDIR, small=small)
    gate = Gate(name, seed, digests)
    probes = 1 if small else PROBES
    min_passes = 1 if small else MIN_PASSES
    setups: List[float] = []
    try:
        workload.setup()
        reference_digests(workload, gate)
        scenarios = 0
        try:
            warm = workload.run_pass()
            scenarios = len(warm.verdicts)
            if gate.check(warm) and gate.recorded is None:
                gate.require(warm.digest, "the warm-up pass's digest")
        except Exception:  # noqa: BLE001 -- a crashed pass is a counted failure
            gate.crash(max(scenarios, 1))
        walls: List[float] = []
        fastest = None
        #: scenario index -> its fastest host wall over the window
        best: Dict[int, float] = {}
        crashes = 0
        started_run = time.perf_counter()
        deadline = started_run + seconds
        # set-up probes are spread over the window, between passes, so a
        # slow or fast spell of the host weighs on both alike
        while crashes < 3 and (
            len(walls) < min_passes
            or len(setups) < probes
            or time.perf_counter() < deadline
        ):
            due = started_run + len(setups) * seconds / probes
            if len(setups) < probes and time.perf_counter() >= min(due, deadline):
                setups.append(probe_setup(name, seed))
                continue
            started = time.perf_counter()
            try:
                result = workload.run_pass()
            except Exception:  # noqa: BLE001 -- a crashed pass is a counted failure
                gate.crash(max(scenarios, 1))
                crashes += 1
                continue
            wall = time.perf_counter() - started
            gate.check(result)
            walls.append(wall)
            if wall <= min(walls):
                fastest = result
            # a pass lists its scenarios in one canonical order, so the
            # index names the same spec in every pass
            for index, (_, seconds_taken) in enumerate(result.verdicts):
                best[index] = min(best.get(index, seconds_taken), seconds_taken)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if hasattr(workload, "worker_peak_rss_kb"):
            rss_kb += workload.worker_peak_rss_kb()
    finally:
        workload.close()
    if not walls:
        return gate, {}, ["no pass completed"]
    # Timings are best-of-window: the fastest pass, and each scenario's
    # fastest run.  This host's speed drifts by up to 1.6x over tens of
    # seconds; medians inherit that drift, minima mostly do not (see
    # README.md, "Why best-of-window and not medians").
    wall = min(walls)
    scenario_best = list(best.values())
    tail_value, tail_pct, beyond = tail(scenario_best)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "ns_per_cycle": wall * 1e9 / fastest.cycles,
        "txn_per_s": fastest.transactions / wall,
        "scenario_ms_p50": percentile(scenario_best, 50) * 1e3,
        "scenario_ms_tail": tail_value * 1e3,
        "peak_rss_mb": rss_kb / 1024,
    }
    notes = [
        f"passes {len(walls)} (warm, after one warm-up), set-up probes {len(setups)}",
        f"pass wall quartiles {_quartiles(walls)} s (the metrics use the fastest)",
        f"scenario_ms_tail is p{tail_pct:g} of {len(scenario_best)} scenarios' "
        f"fastest runs ({beyond} beyond it)",
    ]
    return gate, metrics, notes


def _quartiles(values: List[float]) -> str:
    if len(values) < 2:
        return "n/a"
    low, mid, high = statistics.quantiles(values, n=4)
    return f"{low:.4f} / {mid:.4f} / {high:.4f}"


def trace_run(name: str, seed: int, seconds: float, digests: Dict, small=False):
    """Per-layer metrics from one traced pass (plus the obs overhead)."""
    from traced import (
        cold_compile_ms,
        compile_cache_hit_ratio,
        obs_overhead,
        traced_pass,
    )
    from workloads import distinct_property_sets, make_workload

    workload = make_workload(name, seed, ROOT, WORKDIR, small=small)
    gate = Gate(name, seed, digests)
    cold_ms = 0.0
    try:
        workload.setup()
        if workload.uses_monitors:
            cold_ms = cold_compile_ms(distinct_property_sets(workload.specs))
        reference_digests(workload, gate)
        reference = workload.run_pass()
        gate.check(reference)
        trace_path = os.path.join(WORKDIR, f"trace-{name}-{seed}.jsonl")
        traced = traced_pass(workload, reference, ROOT, trace_path)
        ratio = obs_overhead(workload, 0.0 if small else seconds, 1 if small else 2)
    finally:
        workload.close()
    gate.attempted += traced["attempted"]
    gate.failed += traced["failed"]
    if traced["failed"]:
        gate.note("traced composition differs from run_scenario")
    metrics = dict(traced["metrics"])
    metrics["psl.compile_ms_cold"] = cold_ms
    metrics["psl.compile_cache_hit_ratio"] = compile_cache_hit_ratio()
    metrics["obs.overhead_ratio"] = ratio
    ranked = sorted(
        (m for m in metrics if m.startswith("share.")), key=lambda m: -metrics[m]
    )
    notes = [
        f"trace {os.path.relpath(trace_path, ROOT)} "
        f"({traced['report']['spans']} spans, traced wall {traced['wall']:.4f} s)",
        f"largest layer {ranked[0][len('share.'):]} "
        f"({metrics[ranked[0]]:.1%} of traced wall); "
        f"shares sum to {sum(metrics[m] for m in ranked):.4f}",
    ]
    return gate, metrics, notes


def run_workload(name, seed, seconds, trace, small=False, digests=None):
    """Measure one workload; the result document ``main`` prints."""
    digests = load_digests() if digests is None else digests
    if trace:
        gate, values, notes = trace_run(name, seed, seconds, digests, small)
        units = per_layer_units()
    else:
        gate, values, notes = measure(name, seed, seconds, digests, small)
        units = END_TO_END_UNITS
    correct = gate.failed == 0 and set(values) == set(units)
    return {
        "correct": correct,
        "attempted": max(gate.attempted, 1),
        "failed": gate.failed,
        "metrics": {
            metric: {"value": values[metric], "unit": unit}
            for metric, unit in units.items()
            if metric in values
        },
        "notes": notes + gate.notes,
    }


def prepare_workdir() -> None:
    """All temporary files of this run and its children stay in the checkout."""
    os.makedirs(WORKDIR, exist_ok=True)
    os.environ["TMPDIR"] = WORKDIR
    tempfile.tempdir = WORKDIR
    shutil.rmtree(os.path.join(WORKDIR, "checkpoints"), ignore_errors=True)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2005)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    options = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program to benchmark ({ROOT}/src/repro missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import WORKLOADS, Unavailable

    if options.workload not in WORKLOADS:
        parser.error(f"unknown workload (choose from {', '.join(WORKLOADS)})")
    prepare_workdir()
    try:
        doc = run_workload(
            options.workload, options.seed, options.seconds, options.trace
        )
    except Unavailable as exc:
        print(f"{options.workload}: unavailable in this checkout: {exc}", file=sys.stderr)
        return 3

    fail_frac = doc["failed"] / doc["attempted"]
    print(f"workload {options.workload}  seed {options.seed}  trace {options.trace}")
    for metric, entry in doc["metrics"].items():
        print(f"  {metric:<34} {entry['value']:>14.6g} {entry['unit']}")
    print(f"  {'fail_frac':<34} {fail_frac:>14.6g} ({doc['failed']}/{doc['attempted']})")
    for note in doc.pop("notes"):
        print(f"  # {note}")
    print(json.dumps(doc, sort_keys=True))
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
