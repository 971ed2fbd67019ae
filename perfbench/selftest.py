#!/usr/bin/env python3
"""Self-tests of the benchmark itself, at tiny workload sizes.

    python3 perfbench/selftest.py

Checks that

* every workload, untraced and traced, prints exactly the metric names
  and units ``BENCHMARK.json`` declares, with no failed scenario;
* a planted digest mismatch is counted into ``failed`` and makes the
  result incorrect;
* the traced composition equals ``run_scenario`` for both models and
  both PSL engines, including a resumed-and-snapshotting spec;
* the traced JSONL folds with ``tools/trace_report.py`` and the layer
  shares sum to 1.

Exit status 0 when every check passes.  Takes well under a minute.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 2005

FAILURES: list = []


def check(condition: bool, what: str) -> None:
    print(f"{'ok  ' if condition else 'FAIL'} {what}", flush=True)
    if not condition:
        FAILURES.append(what)


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    return (
        {m["name"]: m["unit"] for m in bench["end_to_end"]},
        {m["name"]: m["unit"] for m in bench["per_layer"]},
        [w["name"] for w in bench["workloads"]],
    )


def units_of(doc) -> dict:
    return {name: entry["unit"] for name, entry in doc["metrics"].items()}


def test_metric_names(run) -> None:
    end_to_end, per_layer, workloads = declared()
    # recorded digests are for full-size workloads; tiny ones check the
    # run-internal rules only
    for workload in workloads:
        doc = run.run_workload(workload, SEED, 0, 0, small=True, digests={})
        check(units_of(doc) == end_to_end, f"{workload}: end-to-end names and units")
        check(doc["correct"] and doc["failed"] == 0, f"{workload}: no failed scenario")
        traced = run.run_workload(workload, SEED, 0, 1, small=True, digests={})
        check(units_of(traced) == per_layer, f"{workload}: per-layer names and units")
        check(traced["correct"] and traced["failed"] == 0, f"{workload} traced: composition ok")
        shares = sum(
            entry["value"] for name, entry in traced["metrics"].items()
            if name.startswith("share.")
        )
        check(abs(shares - 1.0) < 0.01, f"{workload}: shares sum to 1 ({shares:.4f})")
        trace = os.path.join(run.WORKDIR, f"trace-{workload}-{SEED}.jsonl")
        folded = subprocess.run(
            [sys.executable, os.path.join(ROOT, "tools", "trace_report.py"), trace],
            capture_output=True,
            text=True,
        )
        check(folded.returncode == 0, f"{workload}: trace_report folds the trace")


def test_planted_mismatch(run) -> None:
    planted = {
        "regress-plain": {str(SEED): "0" * 16},
        "close-frontier": {str(SEED): {"digest": "0" * 16, "closed": -1}},
    }
    for workload in ("regress-plain", "regress-http", "close-frontier"):
        doc = run.run_workload(workload, SEED, 0, 0, small=True, digests=planted)
        check(
            doc["failed"] > 0 and not doc["correct"],
            f"{workload}: planted digest mismatch raises fail_frac "
            f"({doc['failed']}/{doc['attempted']})",
        )


def test_composition_equals_run_scenario() -> None:
    from repro.checkpoint import global_registry, snapshot_scenario_run
    from repro.obs import Tracer
    from repro.psl.compiled import default_engine, set_default_engine
    from repro.scenarios.regression import run_scenario

    from traced import Composer, verdict_key
    from workloads import regression_specs

    specs = regression_specs(SEED, True, cycles=60, profiles=["edges"])
    previous = default_engine()
    try:
        for engine in ("compiled", "interpreted"):
            set_default_engine(engine)
            for spec in specs[:2] + specs[-2:]:
                composed = Composer(Tracer())(spec)
                check(
                    verdict_key(composed) == verdict_key(run_scenario(spec)),
                    f"{engine}: composition == run_scenario for {spec.label}",
                )
            for spec in specs[:2]:
                base = replace(spec, cycles=30)
                digest = global_registry().put(snapshot_scenario_run(base, 30))
                resumed = replace(spec, resume_from=digest, checkpoint_at=45)
                composed = Composer(Tracer())(resumed)
                check(
                    verdict_key(composed) == verdict_key(run_scenario(resumed)),
                    f"{engine}: resumed composition == run_scenario for {spec.label}",
                )
    finally:
        set_default_engine(previous)


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import run

    run.prepare_workdir()
    test_composition_equals_run_scenario()
    test_planted_mismatch(run)
    test_metric_names(run)
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
