#!/usr/bin/env python3
"""Same-window A/B of two git refs, driven by one copy of the benchmark.

    python3 perfbench/ab.py REF_A REF_B \\
        [--workloads regress-plain,regress-monitored] [--pairs 10] \\
        [--seconds N] [--seed 2005] [--workdir DIR] [--json OUT]

Each ref is exported with ``git archive`` into its own directory under
``--workdir`` (a fresh temporary directory by default, removed
afterwards), and *this* checkout's ``perfbench/`` is copied over it,
so both programs run the identical benchmark code.  For every
workload the two sides run ``--pairs`` times, alternating which side
goes first; pair ``i`` uses seed ``--seed + i`` on both sides, and
every run measures ``--seconds`` (default: ``run_seconds`` of
``BENCHMARK.json``).

For each workload and end-to-end metric the report gives each side's
median and quartiles, the ratio B/A with its base, the pairs B won
(ties count for neither) and a verdict:

* ``improved`` / ``regressed``: one side won at least 9 of 10 pairs
  *and* the medians differ by more than A's interquartile range;
* ``worse by more than bound``: B's median is worse than A's by more
  than the metric's bound in ``BENCHMARK.json``;
* ``unresolved``: either side's spread (IQR / median) exceeds the
  bound, so the runs cannot tell;
* ``no change``: none of the above.

A ref whose program lacks a workload's API (``run.py`` exit 3) reports
that workload as unavailable instead of failing the A/B.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
UNAVAILABLE = 3


def export_ref(ref: str, dest: str) -> str:
    """``git archive`` ``ref`` into ``dest`` and overlay this benchmark."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", ref],
        cwd=ROOT,
        check=True,
        capture_output=True,
    ).stdout
    os.makedirs(dest)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)
    bench = os.path.join(dest, os.path.basename(HERE))
    shutil.rmtree(bench, ignore_errors=True)
    shutil.copytree(HERE, bench, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(os.path.join(ROOT, "BENCHMARK.json"), dest)
    return subprocess.run(
        ["git", "rev-parse", "--short", ref], cwd=ROOT, check=True,
        capture_output=True, text=True,
    ).stdout.strip()


def run_side(tree: str, workload: str, seed: int, seconds: float) -> Dict:
    """One benchmark run in ``tree``; its result document or a status."""
    try:
        process = subprocess.run(
            [
                sys.executable, os.path.join(tree, os.path.basename(HERE), "run.py"),
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0",
            ],
            cwd=tree,
            capture_output=True,
            text=True,
            timeout=600,
        )
    except subprocess.TimeoutExpired:
        return {"status": "error", "reason": "run timed out after 600 s"}
    if process.returncode == UNAVAILABLE:
        return {"status": "unavailable", "reason": process.stderr.strip()}
    lines = process.stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"status": "error", "reason": process.stderr.strip()[-400:]}
    doc["status"] = "ok" if process.returncode == 0 else "incorrect"
    return doc


def verdict(a: List[float], b: List[float], better: str, bound: float) -> Dict:
    """Medians, quartiles, pairs won and the verdict (module docstring)."""
    sign = 1 if better == "higher" else -1
    wins_b = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
    wins_a = sum(1 for x, y in zip(a, b) if sign * (x - y) > 0)
    med_a, med_b = statistics.median(a), statistics.median(b)
    q_a = statistics.quantiles(a, n=4) if len(a) > 1 else [med_a] * 3
    q_b = statistics.quantiles(b, n=4) if len(b) > 1 else [med_b] * 3
    iqr_a, iqr_b = q_a[2] - q_a[0], q_b[2] - q_b[0]
    spread_a = iqr_a / med_a if med_a else 0.0
    spread_b = iqr_b / med_b if med_b else 0.0
    pairs = len(a)
    gap = abs(med_b - med_a)
    worse_by = sign * (med_a - med_b) / med_a if med_a else 0.0
    if wins_b >= 0.9 * pairs and gap > iqr_a:
        call = "improved"
    elif wins_a >= 0.9 * pairs and gap > iqr_a:
        call = "regressed"
    elif spread_a > bound or spread_b > bound:
        call = "unresolved"
    elif worse_by > bound:
        call = "worse by more than bound"
    else:
        call = "no change"
    return {
        "a": {"median": med_a, "quartiles": q_a, "spread": spread_a},
        "b": {"median": med_b, "quartiles": q_b, "spread": spread_b},
        "ratio_b_over_a": med_b / med_a if med_a else None,
        "pairs": pairs,
        "b_won": wins_b,
        "a_won": wins_a,
        "verdict": call,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref_a")
    parser.add_argument("ref_b")
    parser.add_argument("--workloads", default="regress-plain,regress-monitored")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--seed", type=int, default=2005)
    parser.add_argument("--workdir", default=None)
    parser.add_argument("--json", dest="json_out", default=None)
    options = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    seconds = options.seconds or bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workdir = options.workdir or tempfile.mkdtemp(prefix="perfbench-ab-")
    owned = options.workdir is None
    try:
        trees = {side: os.path.join(workdir, side) for side in ("a", "b")}
        for tree in trees.values():
            shutil.rmtree(tree, ignore_errors=True)
        commits = {
            "a": export_ref(options.ref_a, trees["a"]),
            "b": export_ref(options.ref_b, trees["b"]),
        }
        report = {"a": options.ref_a, "b": options.ref_b, "commits": commits,
                  "seconds": seconds, "workloads": {}}
        for workload in options.workloads.split(","):
            runs: Dict[str, List[Dict]] = {"a": [], "b": []}
            status = {"a": "ok", "b": "ok"}
            for pair in range(options.pairs):
                order = ("a", "b") if pair % 2 == 0 else ("b", "a")
                for side in order:
                    doc = run_side(trees[side], workload, options.seed + pair, seconds)
                    if doc["status"] == "unavailable":
                        status[side] = "unavailable: " + doc["reason"].splitlines()[-1]
                        break
                    runs[side].append(doc)
                    print(f"{workload} pair {pair} {side}: {doc['status']} "
                          + " ".join(f"{k}={v['value']:.4g}"
                                     for k, v in sorted(doc.get("metrics", {}).items())),
                          file=sys.stderr, flush=True)
                if status != {"a": "ok", "b": "ok"}:
                    break
            entry: Dict = {"status": status}
            if status == {"a": "ok", "b": "ok"}:
                entry["failed"] = {s: sum(d.get("failed", 0) for d in runs[s]) for s in runs}
                entry["metrics"] = {}
                for name, spec in metrics.items():
                    a = [d["metrics"][name]["value"] for d in runs["a"] if "metrics" in d]
                    b = [d["metrics"][name]["value"] for d in runs["b"] if "metrics" in d]
                    if len(a) == len(b) and a:
                        entry["metrics"][name] = verdict(a, b, spec["better"], spec["bound"])
            report["workloads"][workload] = entry
        print_report(report, metrics)
        if options.json_out:
            with open(options.json_out, "w", encoding="utf-8") as handle:
                json.dump(report, handle, indent=2, sort_keys=True)
    finally:
        if owned:
            shutil.rmtree(workdir, ignore_errors=True)
    return 0


def print_report(report: Dict, metrics: Dict) -> None:
    print(f"A = {report['a']} ({report['commits']['a']}), "
          f"B = {report['b']} ({report['commits']['b']}), "
          f"{report['seconds']:g} s per run")
    for workload, entry in report["workloads"].items():
        print(f"\n== {workload} ==")
        if "metrics" not in entry:
            for side, status in entry["status"].items():
                print(f"  {side.upper()}: {status}")
            continue
        print(f"  failed scenarios: A {entry['failed']['a']}, B {entry['failed']['b']}")
        for name, row in entry["metrics"].items():
            unit = metrics[name]["unit"]
            qa, qb = row["a"]["quartiles"], row["b"]["quartiles"]
            print(
                f"  {name:<17} A {qa[0]:.4g}/{row['a']['median']:.4g}/{qa[2]:.4g}  "
                f"B {qb[0]:.4g}/{row['b']['median']:.4g}/{qb[2]:.4g} {unit}  "
                f"B/A {row['ratio_b_over_a']:.3f} (base A {row['a']['median']:.4g} {unit})  "
                f"B won {row['b_won']}/{row['pairs']}  -> {row['verdict']}"
            )


if __name__ == "__main__":
    sys.exit(main())
