"""The traced pass: per-layer time and counts, measured from outside.

The pass runs every spec through the same public calls
``repro.scenarios.regression._run_scenario`` makes -- the scenario
system constructor, ``AbvHarness(...).add_properties``,
``system.run_cycles``, ``harness.finish``, ``system.check`` and
``BinCoverage.record_many`` (plus the ``repro.checkpoint`` capture
functions for resumed and snapshotting specs) -- with a span of the
benchmark's own ``repro.obs.Tracer`` around each call.  Nothing under
``src/`` is touched and the program's process-wide ``OBS`` switch
stays off, so the spans are the only instrumentation running.

Letter construction and monitor stepping happen inside
``run_cycles``; the harness is handed a timing wrapper around
``system.letter`` and each bound monitor's ``step`` is wrapped, and
their accumulated time is recorded as synthetic child spans of the
``run_cycles`` span, so ``tools/trace_report.py`` subtracts them from
the kernel's self time.

Every composed verdict must equal the verdict ``run_scenario`` gave
for the same spec in the untraced reference pass; the caller counts a
difference as a failure.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import statistics
import time
from dataclasses import replace
from typing import Any, Dict, List

from workloads import RegressHttp, property_set

_perf = time.perf_counter

#: the layers a share of traced wall is reported for; ``other`` is the
#: benchmark's own root-span self time (runner, engine, bookkeeping)
LAYERS = (
    "models",
    "sysc",
    "abv",
    "psl",
    "scenarios",
    "checkpoint",
    "explorer",
    "close",
    "dispatch",
    "worker",
    "other",
)

_KERNEL_FIELDS = (
    "process_runs",
    "delta_cycles",
    "signal_changes",
    "fast_path_instants",
    "full_path_instants",
)


def _kernel_counts(simulator) -> List[int]:
    stats = simulator.stats
    return [getattr(stats, name, 0) for name in _KERNEL_FIELDS]


def verdict_key(verdict) -> tuple:
    """Everything a verdict determines except its wall time."""
    return (
        verdict.spec,
        verdict.ok,
        verdict.stream_digest,
        verdict.scoreboard_digest,
        tuple(verdict.failed_assertions),
        verdict.transactions,
        tuple(verdict.bin_hits),
        tuple(getattr(verdict, "fsm_events", ())),
        getattr(verdict, "frontier_digest", None),
    )


def build_system(spec):
    """The scenario-system constructor call ``_run_scenario`` makes."""
    from repro.scenarios import DirectedSequence, sequence_for_profile

    sequence = (
        DirectedSequence(spec.goals) if spec.goals else sequence_for_profile(spec.profile)
    )
    if spec.model == "master_slave":
        from repro.models.master_slave.scenario import MsScenarioSystem

        blocking, non_blocking, slaves = spec.topology
        return MsScenarioSystem(
            blocking, non_blocking, slaves, sequence, spec.seed, fault=spec.fault
        )
    from repro.models.pci.scenario import PciScenarioSystem

    masters, targets = spec.topology
    extra = {"stop_probability": 0.0} if spec.goals else {}
    return PciScenarioSystem(
        masters, targets, sequence, spec.seed, fault=spec.fault, **extra
    )


class Composer:
    """``run_scenario`` re-assembled from public calls, one span per call.

    Callable on a spec like ``run_scenario``; keeps the counts the
    per-layer metrics divide by.  Timing comes from the trace itself.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.counts: Dict[str, float] = {}
        #: (spec, recorded letters, in-run verdicts) per monitored run
        self.monitored: List[tuple] = []
        self.checkpoints: list = []

    def _add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def __call__(self, spec):
        from repro.abv import AbvHarness
        from repro.scenarios import BinCoverage, ScenarioVerdict

        tracer = self.tracer
        letter = [0.0, 0]
        step = [0.0, 0]
        letters: list = []
        started = _perf()
        kind = "resumed" if spec.resume_from else "from_reset"
        with tracer.span(f"bench.scenario.{kind}", "bench", label=spec.label):
            if spec.resume_from:
                from repro.checkpoint import global_registry, restore_scenario

                with tracer.span("checkpoint.restore", "checkpoint"):
                    checkpoint = global_registry().get(spec.resume_from)
                    system, harness = restore_scenario(spec, checkpoint)
                done = checkpoint.cycles_run
            else:
                with tracer.span("models.build", "models", model=spec.model):
                    system = build_system(spec)
                harness = None
                if spec.with_monitors:
                    with tracer.span("abv.attach", "abv"):
                        harness = AbvHarness(
                            system.simulator,
                            system.clock,
                            _timed_letter(system.letter, letter, letters),
                        )
                    with tracer.span("psl.add_properties", "psl"):
                        harness.add_properties(property_set(spec))
                    if spec.checkpoint_at is not None:
                        harness.record_letters = True
                done = 0
            if harness is not None:
                for binding in harness.bindings:
                    binding.monitor.step = _timed_step(binding.monitor.step, step)
            self._add("cycles", spec.cycles - done)
            frontier = None
            if spec.checkpoint_at is not None and done < spec.checkpoint_at <= spec.cycles:
                self._run(system, spec.checkpoint_at - done, letter, step)
                from repro.checkpoint import global_registry, snapshot_system

                with tracer.span("checkpoint.snapshot", "checkpoint"):
                    base = replace(
                        spec,
                        cycles=spec.checkpoint_at,
                        resume_from=None,
                        checkpoint_at=None,
                    )
                    checkpoint = snapshot_system(
                        system, base, spec.checkpoint_at, harness=harness
                    )
                    frontier = global_registry().put(checkpoint)
                self.checkpoints.append(checkpoint)
                done = spec.checkpoint_at
            if spec.cycles > done:
                self._run(system, spec.cycles - done, letter, step)
            if harness is not None:
                with tracer.span("abv.finish", "abv"):
                    harness.finish()
            with tracer.span("scenarios.check", "scenarios"):
                report = system.check(spec.label)
            with tracer.span("scenarios.coverage", "scenarios"):
                stream = system.transaction_stream()
                records = system.records()
                ctx, window, base_cycle = system.coverage_context()
                bins = BinCoverage(ctx)
                bins.record_many((txn for txn, _ in records), window, base_cycle)
            failed = tuple(
                binding.monitor.name for binding in (harness.failed if harness else [])
            )
            verdict = ScenarioVerdict(
                spec=spec,
                ok=report.ok and not failed,
                matches=report.matches,
                mismatches=tuple(m.describe() for m in report.mismatches),
                mismatch_kinds=tuple(m.kind.value for m in report.mismatches),
                failed_assertions=failed,
                transactions=len(records),
                words=report.words_checked,
                cycles=spec.cycles,
                wall_seconds=_perf() - started,
                stream_digest=hashlib.sha256(stream.encode("utf-8")).hexdigest()[:16],
                scoreboard_digest=report.digest(),
                bin_hits=tuple(
                    sorted((b.describe(), hits) for b, hits in bins.hits.items())
                ),
                fsm_events=(
                    tuple((m, a, tuple(args)) for m, a, args in system.fsm_events())
                    if spec.track_fsm
                    else ()
                ),
                frontier_digest=frontier,
            )
        self._add("scenarios", 1)
        self._add("transactions", len(records))
        self._add("replayed_calls", report.replayed_calls)
        self._add("letter_calls", letter[1])
        if harness is not None and letters:
            self.monitored.append(
                (spec, letters, [b.monitor.verdict() for b in harness.bindings])
            )
        return verdict

    def _run(self, system, cycles: int, letter: list, step: list) -> None:
        """``run_cycles`` in a kernel span; letter/step time as children."""
        tracer = self.tracer
        before = _kernel_counts(system.simulator)
        letter_s, letter_n, step_s, step_n = letter[0], letter[1], step[0], step[1]
        with tracer.span("sysc.run_cycles", "sysc", cycles=cycles) as span:
            system.run_cycles(cycles)
        for name, start, end in zip(
            _KERNEL_FIELDS, before, _kernel_counts(system.simulator)
        ):
            self._add(name, end - start)
        if letter[1] > letter_n:
            tracer.record(
                "abv.letter",
                "abv",
                letter[0] - letter_s,
                parent_id=span.span_id,
                calls=letter[1] - letter_n,
            )
        if step[1] > step_n:
            tracer.record(
                "psl.step",
                "psl",
                step[0] - step_s,
                parent_id=span.span_id,
                steps=step[1] - step_n,
            )


def _timed_letter(extract, acc: list, letters: list):
    def letter():
        started = _perf()
        value = extract()
        acc[0] += _perf() - started
        acc[1] += 1
        letters.append(value)
        return value

    return letter


def _timed_step(step, acc: list):
    def timed(letter):
        started = _perf()
        verdict = step(letter)
        acc[0] += _perf() - started
        acc[1] += 1
        return verdict

    return timed


def replay_monitors(composer: Composer) -> Dict[str, float]:
    """Replay recorded letters through fresh monitors; compare verdicts.

    The psl layer's own cost, free of kernel interleaving: each
    monitored run's letter stream is stepped through a freshly
    compiled property set, and its final verdicts must equal the ones
    the in-run monitors reached.
    """
    from repro.psl import compile_properties

    seconds = 0.0
    steps = 0
    cycles = 0
    mismatches = 0
    for spec, letters, in_run in composer.monitored:
        monitors = compile_properties(property_set(spec))
        started = _perf()
        for letter in letters:
            for monitor in monitors:
                monitor.step(letter)
        seconds += _perf() - started
        steps += len(letters) * len(monitors)
        cycles += len(letters)
        if [m.verdict() for m in monitors] != in_run:
            mismatches += 1
    return {"seconds": seconds, "steps": steps, "cycles": cycles, "mismatches": mismatches}


class TimedHost:
    """Wraps a dispatch host: round-trip time and worker time per shard."""

    def __init__(self, inner, tracer, parent_id):
        self.inner = inner
        self.name = inner.name
        self.tracer = tracer
        self.parent_id = parent_id
        self.reports: list = []
        self.rtts: List[float] = []
        self.overheads: List[float] = []

    def run_shard(self, work):
        started = _perf()
        report = self.inner.run_shard(work)
        rtt = _perf() - started
        worker_s = sum(v.wall_seconds for v in report.verdicts)
        span_id = self.tracer.record(
            "dispatch.shard", "dispatch", rtt, parent_id=self.parent_id
        )
        self.tracer.record(
            "worker.scenarios",
            "worker",
            worker_s,
            parent_id=span_id,
            scenarios=len(report.verdicts),
        )
        self.reports.append(report)
        self.rtts.append(rtt)
        self.overheads.append(rtt - worker_s)
        return report

    def __getattr__(self, name):
        return getattr(self.inner, name)


def load_trace_report(root: str):
    """``tools/trace_report.py`` of the checkout, imported by path."""
    path = os.path.join(root, "tools", "trace_report.py")
    spec = importlib.util.spec_from_file_location("perfbench_trace_report", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _mean(total: float, count: float) -> float:
    return total / count if count else 0.0


def traced_pass(workload, reference, root: str, trace_path: str) -> Dict[str, Any]:
    """Run one traced pass of ``workload``; per-layer metrics + checks.

    ``reference`` is the untraced pass result the composition must
    reproduce.  Returns ``{"metrics": {...}, "failed": n, "attempted":
    n, "report": folded trace}``.
    """
    from repro.obs import Tracer

    tracer = Tracer()
    composer = Composer(tracer)
    timed_hosts: List[TimedHost] = []

    def wrap_host(host, parent_id):
        timed = TimedHost(host, tracer, parent_id)
        timed_hosts.append(timed)
        return timed

    with tracer.span("bench.pass", "bench", workload=workload.name) as root_span:
        if isinstance(workload, RegressHttp):
            result = workload.run_pass(wrap_host=wrap_host, tracer=tracer)
        elif workload.name == "close-frontier":
            result = workload.run_pass(runner=composer, tracer=tracer)
        else:
            result = workload.run_pass(runner=composer)
    pass_id = root_span.span_id
    tracer.dump(trace_path)

    failed = len(result.verdicts) if result.digest != reference.digest else 0
    if not isinstance(workload, RegressHttp):
        composed, expected = result.payload, reference.payload
        if len(composed) != len(expected):
            failed = len(result.verdicts)
        else:
            failed = max(
                failed,
                sum(verdict_key(a) != verdict_key(b) for a, b in zip(composed, expected)),
            )

    report_module = load_trace_report(root)
    spans = report_module.load_spans([trace_path])
    folded = report_module.fold(spans)
    components = {row["name"]: row for row in folded["components"]}
    names = {row["name"]: row for row in folded["names"]}
    wall = next(span["duration_s"] for span in spans if span["span_id"][1] == pass_id)

    def total(name: str) -> float:
        return names.get(name, {}).get("total_s", 0.0)

    def count(name: str) -> int:
        return names.get(name, {}).get("count", 0)

    counts = composer.counts
    #: cycles the composition simulated in-process (0 on regress-http)
    composed_cycles = counts.get("cycles", 0)
    cycles = composed_cycles or result.cycles
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        self_s = components.get("bench" if layer == "other" else layer, {}).get(
            "self_s", 0.0
        )
        metrics[f"share.{layer}"] = self_s / wall
        metrics[f"ns_per_cycle.{layer}"] = self_s * 1e9 / cycles

    txns = counts.get("transactions", 0)
    fast = counts.get("fast_path_instants", 0)
    full = counts.get("full_path_instants", 0)
    replay = replay_monitors(composer)
    failed += replay["mismatches"]
    metrics.update(
        {
            "models.build_us": _mean(total("models.build"), count("models.build")) * 1e6,
            "sysc.run_ns_per_cycle": _mean(
                components.get("sysc", {}).get("self_s", 0.0), composed_cycles
            )
            * 1e9,
            "sysc.process_runs_per_cycle": _mean(
                counts.get("process_runs", 0), composed_cycles
            ),
            "sysc.deltas_per_cycle": _mean(counts.get("delta_cycles", 0), composed_cycles),
            "sysc.signal_changes_per_cycle": _mean(
                counts.get("signal_changes", 0), composed_cycles
            ),
            "sysc.fast_path_ratio": _mean(fast, fast + full),
            "abv.letter_ns": _mean(total("abv.letter"), counts.get("letter_calls", 0))
            * 1e9,
            "psl.step_ns_per_cycle": _mean(replay["seconds"], replay["cycles"]) * 1e9,
            "psl.steps_per_cycle": _mean(replay["steps"], replay["cycles"]),
            "scenarios.check_us_per_txn": _mean(total("scenarios.check"), txns) * 1e6,
            "scenarios.replayed_calls_per_txn": _mean(
                counts.get("replayed_calls", 0), txns
            ),
            "scenarios.coverage_us": _mean(
                total("scenarios.coverage"), count("scenarios.coverage")
            )
            * 1e6,
            "checkpoint.snapshot_ms": _mean(
                total("checkpoint.snapshot"), count("checkpoint.snapshot")
            )
            * 1e3,
            "checkpoint.restore_ms": _mean(
                total("checkpoint.restore"), count("checkpoint.restore")
            )
            * 1e3,
            "checkpoint.wire_bytes": _mean(
                sum(_wire_size(c) for c in composer.checkpoints),
                len(composer.checkpoints),
            ),
            "close.run_ms_resumed": _mean(
                total("bench.scenario.resumed"), count("bench.scenario.resumed")
            )
            * 1e3,
            "close.run_ms_from_reset": (
                _mean(total("bench.scenario.from_reset"), count("bench.scenario.from_reset"))
                * 1e3
                if workload.name == "close-frontier"
                else 0.0
            ),
            "close.forked_goals": result.facts.get("forked_goals", 0),
            "close.cycles_saved": result.facts.get("cycles_saved", 0),
            "explorer.explore_s": total("explorer.explore"),
            "explorer.states": result.facts.get("states", 0),
            "explorer.transitions": result.facts.get("transitions", 0),
        }
    )
    metrics.update(_dispatch_metrics(timed_hosts, result))
    return {
        "metrics": metrics,
        "failed": failed,
        "attempted": len(result.verdicts),
        "report": folded,
        "wall": wall,
    }


def _wire_size(checkpoint) -> int:
    """Bytes of the checkpoint's JSON wire form (what a worker is sent)."""
    return len(json.dumps(checkpoint.to_json(), sort_keys=True).encode("utf-8"))


def _dispatch_metrics(timed_hosts: List[TimedHost], result) -> Dict[str, float]:
    metrics = {
        "dispatch.shard_rtt_ms": 0.0,
        "dispatch.overhead_ms_per_shard": 0.0,
        "dispatch.bytes_shipped": 0,
        "dispatch.bytes_saved": 0,
        "dispatch.merge_ms": 0.0,
        "dispatch.retries": 0,
    }
    if not timed_hosts:
        return metrics
    from repro.dispatch import merge_reports

    rtts = [rtt for host in timed_hosts for rtt in host.rtts]
    overheads = [o for host in timed_hosts for o in host.overheads]
    reports = [r for host in timed_hosts for r in host.reports]
    merges = []
    for _ in range(5):
        started = _perf()
        merged = merge_reports(reports)
        merges.append(_perf() - started)
    if merged.digest() != result.digest:
        raise RuntimeError("merge_reports over the shard reports changed the digest")
    metrics.update(
        {
            "dispatch.shard_rtt_ms": statistics.median(rtts) * 1e3,
            "dispatch.overhead_ms_per_shard": statistics.mean(overheads) * 1e3,
            "dispatch.bytes_shipped": result.facts["bytes_shipped"],
            "dispatch.bytes_saved": result.facts["bytes_saved"],
            "dispatch.merge_ms": statistics.median(merges) * 1e3,
            "dispatch.retries": result.facts["retries"],
        }
    )
    return metrics


def obs_overhead(workload, budget_s: float, min_pairs: int = 2) -> float:
    """Median pass wall with ``repro.obs`` tracing+metrics on / off.

    Pairs alternate which side runs first; at least ``min_pairs``
    pairs, then more until ``budget_s`` is spent.
    """
    from repro.obs import disable, enable_metrics, enable_tracing

    walls: Dict[bool, List[float]] = {False: [], True: []}
    deadline = _perf() + budget_s
    pair = 0
    while pair < min_pairs or _perf() < deadline:
        for enabled in (False, True) if pair % 2 == 0 else (True, False):
            if enabled:
                enable_tracing()
                enable_metrics()
            try:
                started = _perf()
                workload.run_pass()
                walls[enabled].append(_perf() - started)
            finally:
                if enabled:
                    disable()
        pair += 1
    return statistics.median(walls[True]) / statistics.median(walls[False])


def compile_cache_hit_ratio() -> float:
    """Plan-cache hits over lookups since the process started."""
    from repro.psl.compiled import compile_cache_stats

    stats = compile_cache_stats()
    lookups = stats.get("plan_hits", 0) + stats.get("plan_misses", 0)
    return _mean(stats.get("plan_hits", 0), lookups)


def cold_compile_ms(directive_sets) -> float:
    """Milliseconds for the first ``compile_properties`` of the sets."""
    from workloads import compile_sets

    started = _perf()
    compile_sets(directive_sets)
    return (_perf() - started) * 1e3
