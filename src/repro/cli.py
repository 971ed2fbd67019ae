"""``python -m repro`` -- the verification-service command line.

One CLI over the :mod:`repro.workbench` session API::

    python -m repro list
    python -m repro explore  --model pci --json
    python -m repro simulate --model master_slave --cycles 5000
    python -m repro regress  --model pci --scenarios 40 --workers 4 --json
    python -m repro regress  --model pci --scenarios 40 --shards 3 --json
    python -m repro regress  --model pci --hosts 10.0.0.5:8421,10.0.0.6:8421
    python -m repro regress  --model pci --shard 2/3 --json  # + --merge later
    python -m repro close    --model master_slave --json
    python -m repro flow     --model master_slave --json
    python -m repro checkpoint --model pci --cycles 200 --out run.ckpt
    python -m repro resume   --from run.ckpt --cycles 400 --json

``flow`` runs the paper's whole Figure 1 plan (explore -> liveness ->
translate -> ABV simulation -> scenario regression) and exits 0 iff
the session verified.  All subcommands accept ``--json`` for
machine-readable output; the session digest printed either way is
byte-identical across worker counts.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from .cliutil import (
    add_coordinator_arguments,
    add_hosts_argument,
    add_observability_arguments,
    observability_scope,
    positive_int,
    reject_hosts_conflict,
    route_warnings_to_stderr,
    shard_coordinate,
)
from .workbench import (
    SessionReport,
    VerificationPlan,
    Workbench,
    default_registry,
)

_positive_int = positive_int


def _topology(text: str) -> List[int]:
    try:
        parts = [int(p) for p in text.replace("x", ",").split(",") if p != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"topology must be comma-separated ints, got {text!r}"
        ) from None
    if not parts:
        raise argparse.ArgumentTypeError("topology must not be empty")
    return parts


def _add_model_options(
    parser: argparse.ArgumentParser, required: bool = True
) -> None:
    parser.add_argument(
        "--model",
        required=required,
        default=None,
        help="registered model name (see `python -m repro list`)",
    )
    parser.add_argument(
        "--topology",
        type=_topology,
        default=None,
        metavar="N,N[,N]",
        help="model topology, e.g. 2,2 (pci: masters,targets; "
        "master_slave: blocking,non_blocking,slaves)",
    )
    parser.add_argument("--seed", type=int, default=2005)
    parser.add_argument(
        "--json", action="store_true", help="emit machine-readable output"
    )
    add_observability_arguments(parser)


def _workbench(options: argparse.Namespace) -> Workbench:
    registry = default_registry()
    args = tuple(options.topology) if options.topology else ()
    duv = registry.get(options.model, *args)
    return Workbench(duv, seed=options.seed)


def _emit(report: SessionReport, as_json: bool) -> int:
    if as_json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(report.summary())
    return 0 if report.ok else 1


def _cmd_list(options: argparse.Namespace) -> int:
    registry = default_registry()
    names = registry.names()
    if options.json:
        doc = [
            {"name": name, "description": registry.describe(name)}
            for name in names
        ]
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for name in names:
            print(f"{name:<16} {registry.describe(name)}")
    return 0


def _cmd_explore(options: argparse.Namespace) -> int:
    workbench = _workbench(options)
    overrides = {}
    if options.max_states is not None:
        overrides["max_states"] = options.max_states
    workbench.explore(**overrides)
    if options.liveness:
        workbench.check_liveness()
    return _emit(workbench.report(), options.json)


def _cmd_simulate(options: argparse.Namespace) -> int:
    workbench = _workbench(options)
    workbench.simulate_abv(cycles=options.cycles, seed=options.seed)
    return _emit(workbench.report(), options.json)


def _cmd_regress(options: argparse.Namespace) -> int:
    if options.merge is not None:
        from .cliutil import emit_regression_report, load_shard_reports
        from .dispatch import merge_reports

        return emit_regression_report(
            merge_reports(load_shard_reports(options.merge)), options.json
        )

    if options.model is None:
        raise SystemExit("error: --model is required (unless using --merge)")

    if options.shard is not None:
        # manual cross-host dispatch: run exactly shard K of N of the
        # specs this model's full regression would build, and emit the
        # raw shard report for a later --merge
        from .cliutil import emit_regression_report
        from .dispatch.planner import plan_shards
        from .scenarios.regression import RegressionRunner, build_specs

        workbench = _workbench(options)
        if workbench.duv.scenario_model is None:
            raise SystemExit(
                f"error: model {options.model!r} has no scenario binding"
            )
        index, of = options.shard
        specs = build_specs(
            models=[workbench.duv.scenario_model],
            count=options.scenarios,
            base_seed=options.seed,
            cycles=options.cycles,
            with_monitors=options.with_monitors,
        )
        shard = plan_shards(specs, of)[index]
        runner = RegressionRunner(
            list(shard.specs),
            workers=options.workers,
            fail_fast=options.fail_fast,
        )
        return emit_regression_report(runner.run(), options.json)

    workbench = _workbench(options)
    workbench.regress(
        scenarios=options.scenarios,
        cycles=options.cycles,
        workers=options.workers,
        shards=options.shards,
        hosts=options.hosts,
        coordinator=options.coordinator,
        token=options.token,
        fail_fast=options.fail_fast,
        with_monitors=options.with_monitors,
    )
    return _emit(workbench.report(), options.json)


def _cmd_close(options: argparse.Namespace) -> int:
    workbench = _workbench(options)
    workbench.close_coverage(
        rounds=options.rounds,
        cycles=options.cycles,
        max_goals=options.max_goals,
        workers=options.workers,
        shards=options.shards,
        hosts=options.hosts,
        coordinator=options.coordinator,
        token=options.token,
        seed=options.seed,
        frontier=options.frontier,
    )
    return _emit(workbench.report(), options.json)


def _cmd_analyze(options: argparse.Namespace) -> int:
    from .analyze import analyze_duv, analyze_models

    if options.model is not None:
        registry = default_registry()
        args = tuple(options.topology) if options.topology else ()
        duv = registry.get(options.model, *args)
        report = analyze_duv(
            duv,
            witness=options.witness,
            witness_cycles=options.witness_cycles,
            seed=options.seed,
        )
    else:
        report = analyze_models(
            witness=options.witness,
            witness_cycles=options.witness_cycles,
            seed=options.seed,
        )
    if options.json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return 0 if report.ok else 1


def _cmd_checkpoint(options: argparse.Namespace) -> int:
    """Run a scenario from reset and persist its snapshot to a file."""
    from .checkpoint import snapshot_scenario_run
    from .scenarios.regression import (
        MODELS,
        MS_TOPOLOGIES,
        PCI_TOPOLOGIES,
        ScenarioSpec,
    )
    from .store import atomic_write

    if options.model not in MODELS:
        raise SystemExit(
            f"error: unknown scenario model {options.model!r} "
            f"(choose from {', '.join(MODELS)})"
        )
    if options.topology:
        topology = tuple(options.topology)
    elif options.model == "master_slave":
        topology = MS_TOPOLOGIES[0]
    else:
        topology = PCI_TOPOLOGIES[0]
    spec = ScenarioSpec(
        model=options.model,
        seed=options.seed,
        topology=topology,
        profile=options.profile,
        cycles=options.cycles,
        with_monitors=options.with_monitors,
    )
    checkpoint = snapshot_scenario_run(spec, options.cycles)
    path = atomic_write(options.out, checkpoint.to_json())
    doc = {
        "digest": checkpoint.digest,
        "cycles_run": checkpoint.cycles_run,
        "path": path,
        "spec": spec.to_json(),
    }
    if options.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(
            f"checkpoint {checkpoint.digest} after {checkpoint.cycles_run} "
            f"cycles of {spec.label} -> {path}"
        )
    return 0


def _cmd_resume(options: argparse.Namespace) -> int:
    """Load a checkpoint file and run its scenario to a later cycle."""
    from dataclasses import replace

    from .checkpoint import CheckpointError, global_registry, load_checkpoint
    from .scenarios.regression import run_scenario

    try:
        checkpoint = load_checkpoint(options.source)
    except CheckpointError as exc:
        raise SystemExit(f"error: {exc}") from exc
    digest = global_registry().put(checkpoint)
    total = options.cycles
    if total is None:
        total = max(checkpoint.spec.cycles, checkpoint.cycles_run)
    spec = replace(
        checkpoint.spec, cycles=total, resume_from=digest, checkpoint_at=None
    )
    try:
        verdict = run_scenario(spec)
    except CheckpointError as exc:
        raise SystemExit(f"error: {exc}") from exc
    if options.json:
        print(json.dumps(verdict.to_json(), indent=2, sort_keys=True))
    else:
        status = "ok" if verdict.ok else "FAILED"
        print(
            f"resumed {spec.label} from cycle {checkpoint.cycles_run} "
            f"to {total}: {status} ({verdict.transactions} txns, "
            f"stream digest {verdict.stream_digest})"
        )
    return 0 if verdict.ok else 1


def _cmd_flow(options: argparse.Namespace) -> int:
    workbench = _workbench(options)
    plan = VerificationPlan.figure1(
        cycles=options.cycles,
        scenarios=options.scenarios,
        scenario_cycles=options.scenario_cycles,
        workers=options.workers,
        seed=options.seed,
        bias_residue=options.bias_residue,
        fail_fast=options.fail_fast,
    )
    report = workbench.run_plan(plan)
    return _emit(report, options.json)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Unified verification sessions over the registered "
        "designs (paper Figure 1, stage by stage or end to end).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_parser = sub.add_parser("list", help="list registered models")
    list_parser.add_argument("--json", action="store_true")
    list_parser.set_defaults(func=_cmd_list)

    explore = sub.add_parser(
        "explore", help="FSM-generation model checking (+ optional liveness)"
    )
    _add_model_options(explore)
    explore.add_argument("--max-states", type=_positive_int, default=None)
    explore.add_argument(
        "--liveness",
        action="store_true",
        help="also run the registered liveness checks on the FSM",
    )
    explore.set_defaults(func=_cmd_explore)

    simulate = sub.add_parser(
        "simulate", help="ABV simulation with the PSL monitor suite"
    )
    _add_model_options(simulate)
    simulate.add_argument("--cycles", type=_positive_int, default=2_000)
    simulate.set_defaults(func=_cmd_simulate)

    regress = sub.add_parser(
        "regress", help="constrained-random scoreboarded scenario regression"
    )
    # --model stays optional at parse time: --merge needs no model
    _add_model_options(regress, required=False)
    regress.add_argument("--scenarios", type=_positive_int, default=24)
    regress.add_argument("--cycles", type=_positive_int, default=300)
    regress.add_argument("--workers", type=int, default=None)
    sharding = regress.add_mutually_exclusive_group()
    sharding.add_argument(
        "--shards",
        type=_positive_int,
        default=None,
        metavar="N",
        help="dispatch across N local subprocess shard hosts "
        "(merged digest identical to a serial run)",
    )
    sharding.add_argument(
        "--shard",
        type=shard_coordinate,
        default=None,
        metavar="K/N",
        help="run only shard K of N and print the raw shard report "
        "(fold the outputs back with --merge)",
    )
    sharding.add_argument(
        "--merge",
        nargs="+",
        default=None,
        metavar="REPORT.json",
        help="merge per-shard --json reports into one canonical report",
    )
    add_hosts_argument(regress)
    add_coordinator_arguments(regress)
    regress.add_argument("--fail-fast", action="store_true")
    regress.add_argument("--with-monitors", action="store_true")
    regress.set_defaults(func=_cmd_regress)

    close = sub.add_parser(
        "close",
        help="directed coverage closure: plan FSM-path sequence goals "
        "for the formal-only residue and drive them until it stops "
        "shrinking (runs explore first)",
    )
    _add_model_options(close)
    close.add_argument(
        "--rounds",
        type=_positive_int,
        default=3,
        help="plan/run/fold re-plan rounds (default 3)",
    )
    close.add_argument("--cycles", type=_positive_int, default=160)
    close.add_argument(
        "--max-goals",
        type=_positive_int,
        default=None,
        metavar="N",
        help="cap the directed scenarios planned per round",
    )
    close.add_argument(
        "--frontier",
        action="store_true",
        help="checkpoint the states each round reaches and fork the "
        "next round's goals from the nearest snapshot instead of "
        "replaying the warm-up from reset",
    )
    close.add_argument("--workers", type=int, default=None)
    close.add_argument(
        "--shards",
        type=_positive_int,
        default=None,
        metavar="N",
        help="fan the directed goals across N subprocess shard hosts",
    )
    add_hosts_argument(close)
    add_coordinator_arguments(close)
    close.set_defaults(func=_cmd_close)

    analyze = sub.add_parser(
        "analyze",
        help="static analysis: delta-cycle race detection + property "
        "lint (all registered models unless --model narrows it); "
        "exits 0 iff no unsuppressed finding remains",
    )
    # --model stays optional: the default analyzes every registered model
    _add_model_options(analyze, required=False)
    analyze.add_argument(
        "--witness",
        action="store_true",
        help="cross-check statically found races with a witnessed "
        "kernel run recording per-delta read/write sets",
    )
    analyze.add_argument(
        "--witness-cycles",
        type=_positive_int,
        default=None,
        metavar="N",
        help="clock cycles the witnessed run simulates (default 200)",
    )
    analyze.set_defaults(func=_cmd_analyze)

    checkpoint = sub.add_parser(
        "checkpoint",
        help="run a scenario from reset and save its full simulation "
        "snapshot (kernel, signals, modules, monitors) to a file",
    )
    _add_model_options(checkpoint)
    checkpoint.add_argument("--cycles", type=_positive_int, default=200)
    checkpoint.add_argument(
        "--profile",
        default="default",
        help="stimulus profile the scenario drives (default 'default')",
    )
    checkpoint.add_argument("--with-monitors", action="store_true")
    checkpoint.add_argument(
        "--out",
        required=True,
        metavar="FILE",
        help="checkpoint file to write (atomic tempfile + rename)",
    )
    checkpoint.set_defaults(func=_cmd_checkpoint)

    resume = sub.add_parser(
        "resume",
        help="restore a saved checkpoint and run its scenario onward; "
        "the resumed trace is byte-identical to an uninterrupted run",
    )
    resume.add_argument(
        "--from",
        dest="source",
        required=True,
        metavar="FILE",
        help="checkpoint file written by `repro checkpoint`",
    )
    resume.add_argument(
        "--cycles",
        type=_positive_int,
        default=None,
        metavar="TOTAL",
        help="total cycles to reach (default: the checkpoint spec's)",
    )
    resume.add_argument("--json", action="store_true")
    add_observability_arguments(resume)
    resume.set_defaults(func=_cmd_resume)

    flow = sub.add_parser(
        "flow", help="the whole Figure 1 plan: explore -> liveness -> "
        "translate -> simulate -> regress"
    )
    _add_model_options(flow)
    flow.add_argument("--cycles", type=_positive_int, default=2_000)
    flow.add_argument("--scenarios", type=_positive_int, default=24)
    flow.add_argument("--scenario-cycles", type=_positive_int, default=300)
    flow.add_argument("--workers", type=int, default=None)
    flow.add_argument(
        "--bias-residue",
        action="store_true",
        help="bias the regression toward the formal-only coverage residue "
        "(for the registered case studies the simulation cannot shrink "
        "the residue, so this steers toward the whole explored FSM)",
    )
    flow.add_argument("--fail-fast", action="store_true")
    flow.set_defaults(func=_cmd_flow)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Parse, validate cross-flag conflicts, route to the subcommand."""
    parser = build_parser()
    options = parser.parse_args(argv)
    reject_hosts_conflict(parser, options)
    # stdout carries exactly one report; diagnostics go to stderr so
    # --json output stays parseable
    route_warnings_to_stderr()
    # --trace/--metrics wrap the whole subcommand; report digests are
    # identical with observability on or off
    with observability_scope(options):
        return options.func(options)


if __name__ == "__main__":
    sys.exit(main())
