"""Shared command-line plumbing for ``python -m repro`` and the daemons.

The regression dispatch vocabulary of ``python -m repro regress`` and
``close`` -- ``--shards N`` fans a regression over local subprocess
hosts, ``--hosts host:port,...`` over remote ``python -m
repro.dispatch.worker`` daemons, ``--shard K/N`` runs one
deterministic shard for manual cross-host dispatch, ``--merge`` folds
per-shard JSON reports back together -- and the observability flags
are parsed here, and the stdout/stderr hygiene that the CLI and both
daemons share lives here once.  This module sits in the lowest layer:
it imports the dispatch and scenario layers only inside the functions
that need them.

The JSON-mode contract: **stdout is the report and nothing else**.
Dispatchers and CI pipe ``--json`` output straight into a parser, so
every diagnostic -- warnings included -- must land on stderr.
:func:`route_warnings_to_stderr` pins that down regardless of what a
caller (or an embedding process) did to ``warnings.showwarning``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import warnings
from typing import Iterator, List, Sequence, Tuple


def positive_int(text: str) -> int:
    """argparse type: a strictly positive integer."""
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def shard_coordinate(text: str) -> Tuple[int, int]:
    """argparse type for ``--shard K/N``: 1-based shard K of N.

    Returns the zero-based ``(index, of)`` pair the planner uses.
    """
    try:
        k_text, n_text = text.split("/", 1)
        k, n = int(k_text), int(n_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"shard must look like K/N (e.g. 2/3), got {text!r}"
        ) from None
    if n < 1 or not 1 <= k <= n:
        raise argparse.ArgumentTypeError(
            f"shard K/N needs 1 <= K <= N, got {text!r}"
        )
    return k - 1, n


def host_list(text: str) -> List:
    """argparse type for ``--hosts``: ``host:port,host:port`` to a pool
    of :class:`~repro.dispatch.HttpHost` worker clients."""
    # imported here: the dispatch layer sits above this one
    from .dispatch import parse_hosts

    try:
        return parse_hosts(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def add_hosts_argument(parser: argparse.ArgumentParser) -> None:
    """The shared ``--hosts`` flag, worded identically on every subcommand."""
    parser.add_argument(
        "--hosts",
        type=host_list,
        default=None,
        metavar="HOST:PORT[,HOST:PORT...]",
        help="dispatch shards to remote `python -m repro.dispatch.worker` "
        "daemons under the work-stealing schedule (merged digest "
        "identical to a serial run; --shards sizes the queue, "
        "default two shards per host)",
    )


def add_coordinator_arguments(parser: argparse.ArgumentParser) -> None:
    """The shared ``--coordinator`` / ``--token`` fleet flags."""
    parser.add_argument(
        "--coordinator",
        default=None,
        metavar="URL",
        help="submit the whole regression as one job to a "
        "`python -m repro.coordinator` daemon and poll for the merged "
        "report (elastic worker fleet; digest identical to a serial "
        "run; repeat submissions answered from its result store)",
    )
    parser.add_argument(
        "--token",
        default=None,
        metavar="SECRET",
        help="shared fleet bearer secret, presented to --coordinator "
        "and to --hosts worker daemons started with --token",
    )


def reject_hosts_conflict(
    parser: argparse.ArgumentParser, options: argparse.Namespace
) -> None:
    """Shared cross-flag validation for the dispatch selectors.

    ``--hosts`` drives a whole dispatch, so a single-shard
    (``--shard``) or merge-only (``--merge``) invocation has no host
    pool to drive; ``--coordinator`` likewise owns the whole dispatch
    and additionally excludes ``--hosts``/``--shards`` (the
    coordinator's own pool and planner take over).  Every subcommand
    gets the same ``parser.error`` behaviour (exit 2 plus usage).  As a side
    effect a ``--token`` is applied to every parsed ``--hosts`` entry,
    since the argparse type callback cannot see sibling flags.
    """
    if getattr(options, "hosts", None) and (
        getattr(options, "shard", None) is not None
        or getattr(options, "merge", None) is not None
    ):
        parser.error("--hosts cannot be combined with --shard or --merge")
    if getattr(options, "coordinator", None) and (
        getattr(options, "hosts", None)
        or getattr(options, "shards", None) is not None
        or getattr(options, "shard", None) is not None
        or getattr(options, "merge", None) is not None
    ):
        parser.error(
            "--coordinator cannot be combined with --hosts, --shards, "
            "--shard or --merge"
        )
    token = getattr(options, "token", None)
    if token:
        for host in getattr(options, "hosts", None) or ():
            host.token = token


def load_shard_reports(paths: Sequence[str]) -> List:
    """Read per-shard ``--json`` report files for a ``--merge``."""
    # imported here: the scenario layer sits above this one
    from .scenarios.regression import RegressionReport

    reports = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            reports.append(RegressionReport.from_json(json.load(handle)))
    return reports


def emit_regression_report(report, as_json: bool) -> int:
    """Print a RegressionReport to stdout; exit status by its verdict."""
    if as_json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(report.summary())
    return 0 if report.ok else 1


def add_observability_arguments(parser: argparse.ArgumentParser) -> None:
    """The shared ``--trace`` / ``--metrics`` flags (every subcommand).

    Neither flag may change any report digest; traces land in the named
    file and the metrics summary on stderr, so ``--json`` stdout stays
    a single parseable report (see ``docs/observability.md``).
    """
    parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="record spans (delta-cycle to dispatch) and write them to "
        "FILE as JSON lines; fold with tools/trace_report.py",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="collect counters/histograms and print a summary to stderr "
        "(and into the session report's observability section)",
    )


@contextlib.contextmanager
def observability_scope(options: argparse.Namespace) -> Iterator[None]:
    """Enable tracing/metrics for one CLI invocation, then export.

    On exit the trace file is written (with a stderr note) and the
    metrics summary rendered to stderr; the global observability state
    is always restored to disabled so in-process callers (tests, the
    workbench embedding a CLI) never leak collectors between runs.
    No-op when neither ``--trace`` nor ``--metrics`` was given.
    """
    # imported lazily: obs is dependency-free but keep CLI import light
    from .obs import runtime
    from .obs.metrics import render_metrics

    trace_path = getattr(options, "trace", None)
    want_metrics = getattr(options, "metrics", False)
    if not trace_path and not want_metrics:
        yield
        return
    if trace_path:
        runtime.enable_tracing()
    if want_metrics:
        runtime.enable_metrics()
    try:
        yield
        if trace_path:
            count = runtime.OBS.tracer.dump(trace_path)
            print(
                f"trace: {count} spans written to {trace_path}",
                file=sys.stderr,
            )
        if want_metrics:
            rendered = render_metrics(runtime.OBS.metrics.to_json())
            print("=== metrics ===", file=sys.stderr)
            if rendered:
                print(rendered, file=sys.stderr)
    finally:
        runtime.disable()


def route_warnings_to_stderr() -> None:
    """Force every ``warnings.warn`` to stderr for the process lifetime.

    Python's default ``showwarning`` already targets stderr, but it
    honours whatever ``file=`` it is handed and third-party code (or a
    previous in-process CLI invocation under test) may have rebound it.
    CLI mains call this before producing output so a ``--json`` stream
    stays parseable end to end.
    """

    def _show(message, category, filename, lineno, file=None, line=None):
        sys.stderr.write(
            warnings.formatwarning(message, category, filename, lineno, line)
        )

    warnings.showwarning = _show
