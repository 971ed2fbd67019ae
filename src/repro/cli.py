"""``python -m repro`` -- the verification-service command line.

One CLI over the :mod:`repro.workbench` session API::

    python -m repro list
    python -m repro explore  --model pci --json
    python -m repro simulate --model master_slave --cycles 5000
    python -m repro regress  --model pci --scenarios 40 --workers 4 --json
    python -m repro regress  --model pci --scenarios 40 --shards 3 --json
    python -m repro regress  --model pci --hosts 10.0.0.5:8421,10.0.0.6:8421
    python -m repro regress  --scenarios 40 --shard 2/3 --json  # + --merge later
    python -m repro regress  --spec-file specs.json --json
    python -m repro close    --model master_slave --json
    python -m repro flow     --model master_slave --json
    python -m repro checkpoint --model pci --cycles 200 --out run.ckpt
    python -m repro resume   --from run.ckpt --cycles 400 --json

``flow`` runs the paper's whole Figure 1 plan (explore -> liveness ->
translate -> ABV simulation -> scenario regression) and exits 0 iff
the session verified.  All subcommands accept ``--json`` for
machine-readable output; the session digest printed either way is
byte-identical across worker counts.

``regress`` is the one regression entry point.  With ``--model`` it is
the workbench stage and prints the session report; without it,
and with ``--shard`` / ``--merge`` / ``--spec-file``, it runs the
scenario specs directly (every scenario model by default) and prints
the :class:`~repro.scenarios.regression.RegressionReport` -- the form
every ``--shards N`` subprocess child and every ``--merge`` speaks.
Without ``--model`` that path never imports :mod:`repro.workbench`:
only the commands that resolve a model or build a session load it.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING, List, Optional, Sequence

from .cliutil import (
    add_coordinator_arguments,
    add_hosts_argument,
    add_observability_arguments,
    emit_regression_report,
    load_shard_reports,
    observability_scope,
    positive_int,
    reject_hosts_conflict,
    route_warnings_to_stderr,
    shard_coordinate,
)
from .scenarios.sequences import NAMED_PROFILES

if TYPE_CHECKING:  # the workbench loads only in the commands that build a session
    from .workbench import DUV, SessionReport, Workbench

_positive_int = positive_int

#: ``repro regress`` values for the flags a ``--spec-file`` refuses
REGRESS_DEFAULTS = {"scenarios": 24, "cycles": 300, "seed": 2005}


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
    parser: argparse.ArgumentParser,
    required: bool = True,
    topology: bool = True,
) -> None:
    parser.add_argument(
        "--model",
        required=required,
        default=None,
        help="registered model name (see `python -m repro list`)",
    )
    if topology:
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


def _duv(options: argparse.Namespace) -> DUV:
    from .workbench import default_registry

    topology = getattr(options, "topology", None)
    return default_registry().get(options.model, *(topology or ()))


def _workbench(options: argparse.Namespace) -> Workbench:
    from .workbench import Workbench

    return Workbench(_duv(options), seed=options.seed)


def _emit(report: SessionReport, as_json: bool) -> int:
    if as_json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(report.summary())
    return 0 if report.ok else 1


def _cmd_list(options: argparse.Namespace) -> int:
    from .workbench import default_registry

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
        from .dispatch import merge_reports

        return emit_regression_report(
            merge_reports(load_shard_reports(options.merge)), options.json
        )
    if options.model is None or options.shard is not None:
        return _regress_specs(options)
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
        profiles=options.profiles,
    )
    return _emit(workbench.report(), options.json)


def _regress_specs(options: argparse.Namespace) -> int:
    """Run a spec list directly and print its RegressionReport.

    The specs come from ``--spec-file`` or from :func:`build_specs`
    over every scenario model (``--model`` narrows that to the model's
    scenario binding); ``--shard K/N`` keeps only the planner's slice
    K.  This is the command every ``--shards N`` child runs.
    """
    from .dispatch import plan_shards, select_engine
    from .scenarios.regression import (
        MODELS,
        RegressionRunner,
        SpecFileError,
        build_specs,
        load_specs,
    )

    if options.spec_file is not None:
        try:
            specs = load_specs(options.spec_file)
        except SpecFileError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        models = MODELS
        if options.model is not None:
            scenario_model = _duv(options).scenario_model
            if scenario_model is None:
                raise SystemExit(
                    f"error: model {options.model!r} has no scenario binding"
                )
            models = (scenario_model,)
        specs = build_specs(
            models=models,
            count=options.scenarios,
            base_seed=options.seed,
            cycles=options.cycles,
            with_monitors=options.with_monitors,
            profiles=options.profiles,
        )
    if options.shard is not None:
        index, of = options.shard
        specs = list(plan_shards(specs, of)[index].specs)
    engine = select_engine(
        options.workers,
        options.shards,
        options.hosts,
        len(specs),
        coordinator=options.coordinator,
        token=options.token,
    )
    report = RegressionRunner(
        specs, fail_fast=options.fail_fast, engine=engine
    ).run()
    outcome = getattr(engine, "last_outcome", None)
    if outcome is not None:
        for line in outcome.log_lines():
            print(line, file=sys.stderr)
    return emit_regression_report(report, options.json)


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
        report = analyze_duv(
            _duv(options),
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
    from .workbench import VerificationPlan

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
        "regress",
        help="constrained-random scoreboarded scenario regression: the "
        "workbench stage with --model, else the scenario specs of every "
        "model as a raw regression report",
    )
    # --model stays optional: without it the specs span every scenario
    # model; build_specs cycles its own topologies, so no --topology
    _add_model_options(regress, required=False, topology=False)
    # None until main() has checked them against --spec-file; then the
    # REGRESS_DEFAULTS fill in
    regress.set_defaults(seed=None)
    regress.add_argument("--scenarios", type=_positive_int, default=None)
    regress.add_argument("--cycles", type=_positive_int, default=None)
    regress.add_argument("--workers", type=int, default=None)
    regress.add_argument(
        "--profiles",
        nargs="+",
        default=None,
        choices=sorted(NAMED_PROFILES),
        help="restrict the traffic-profile pool",
    )
    regress.add_argument(
        "--spec-file",
        default=None,
        metavar="FILE",
        help="run the serialized spec list instead of building one "
        "(see repro.scenarios.regression.save_specs)",
    )
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

    # cross-flag conflicts are checked after parsing; each subcommand
    # carries its own parser so their usage line names the subcommand
    for subparser in sub.choices.values():
        subparser.set_defaults(parser=subparser)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Parse, validate cross-flag conflicts, route to the subcommand."""
    options = build_parser().parse_args(argv)
    reject_hosts_conflict(options.parser, options)
    if getattr(options, "spec_file", None) is not None:
        # a spec file fixes the models, profiles and monitors itself;
        # silently ignoring a flag that shapes them would misreport
        # what ran
        conflicting = [
            flag
            for flag, given in (
                ("--model", options.model is not None),
                ("--profiles", options.profiles is not None),
                ("--with-monitors", options.with_monitors),
                ("--merge", options.merge is not None),
                ("--scenarios", options.scenarios is not None),
                ("--cycles", options.cycles is not None),
                ("--seed", options.seed is not None),
            )
            if given
        ]
        if conflicting:
            options.parser.error(
                f"--spec-file cannot be combined with {', '.join(conflicting)}"
            )
    if options.command == "regress":
        for name, value in REGRESS_DEFAULTS.items():
            if getattr(options, name) is None:
                setattr(options, name, value)
    # stdout carries exactly one report; diagnostics go to stderr so
    # --json output stays parseable
    route_warnings_to_stderr()
    # --trace/--metrics wrap the whole subcommand; report digests are
    # identical with observability on or off
    with observability_scope(options):
        return options.func(options)


if __name__ == "__main__":
    sys.exit(main())
