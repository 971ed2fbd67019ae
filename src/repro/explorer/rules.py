"""Static validation of the R-FSM modelling rules.

Section 2.2.1 of the paper defines four rules "to guarantee the
generation of an FSM representing a portion of the complete system's
FSM".  This module checks a model + configuration against them and
reports findings; the checks are advisory (level ``warning``) where a
static check can only approximate the rule.

* **R1** -- every machine class used by the model has a registered list
  of instances ("this ensures that the algorithm will not throw an
  exception").
* **R2** -- the first executed method verifies that all objects were
  correctly instantiated (we check an ``init_action`` is configured and
  exists).
* **R3** -- every explorable method declares preconditions (we inspect
  the action source for ``require(``; :func:`repro.asm.lower.has_require`
  reads each action's source once per process, shared with lowering).
* **R4** -- every action parameter draws from a finite, restricted
  domain inherited from ASM types.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import List

from ..asm.errors import ModelRuleViolation
from ..asm.lower import has_require
from ..asm.machine import AsmModel
from .config import ExplorationConfig

#: Domains larger than this trigger an R4 size warning.
LARGE_DOMAIN_THRESHOLD = 64


@dataclass(frozen=True)
class RuleFinding:
    """One diagnostic from the rule checker."""

    rule: str
    level: str  # "error" | "warning"
    message: str

    def __str__(self) -> str:
        return f"[{self.level}] {self.rule}: {self.message}"


def check_rules(model: AsmModel, config: ExplorationConfig | None = None) -> List[RuleFinding]:
    """Check R1..R4; returns findings (empty = fully conformant)."""
    config = config or ExplorationConfig()
    findings: List[RuleFinding] = []
    findings.extend(_check_r1(model))
    findings.extend(_check_r2(model, config))
    findings.extend(_check_r3(model))
    findings.extend(_check_r4(model, config))
    return findings


def assert_rules(model: AsmModel, config: ExplorationConfig | None = None) -> None:
    """Raise :class:`ModelRuleViolation` on the first error-level finding."""
    for finding in check_rules(model, config):
        if finding.level == "error":
            raise ModelRuleViolation(finding.rule, finding.message)


def _check_r1(model: AsmModel) -> List[RuleFinding]:
    findings: List[RuleFinding] = []
    if not model.machines:
        findings.append(
            RuleFinding("R1_FSM", "error", "model has no registered machine instances")
        )
    classes = {type(m) for m in model.machines.values()}
    for cls in classes:
        if not cls.declared_actions() and not cls.declared_state_vars():
            findings.append(
                RuleFinding(
                    "R1_FSM",
                    "warning",
                    f"class {cls.__name__} declares no state variables or actions",
                )
            )
    return findings


def _check_r2(model: AsmModel, config: ExplorationConfig) -> List[RuleFinding]:
    if config.init_action is None:
        return [
            RuleFinding(
                "R2_FSM",
                "warning",
                "no init action configured; the first explored method should "
                "verify that all objects were correctly instantiated",
            )
        ]
    machine_name, _, action_name = config.init_action.partition(".")
    machine = model.machines.get(machine_name)
    if machine is None:
        return [
            RuleFinding(
                "R2_FSM", "error", f"init action machine {machine_name!r} not registered"
            )
        ]
    if action_name not in type(machine).declared_actions():
        return [
            RuleFinding(
                "R2_FSM",
                "error",
                f"init action {config.init_action!r} is not an @action of "
                f"{type(machine).__name__}",
            )
        ]
    return []


def _check_r3(model: AsmModel) -> List[RuleFinding]:
    findings: List[RuleFinding] = []
    for machine_name in sorted(model.machines):
        machine = model.machines[machine_name]
        for action_name in type(machine).declared_actions():
            unwrapped = inspect.unwrap(getattr(machine, action_name))
            if has_require(unwrapped) is False:
                findings.append(
                    RuleFinding(
                        "R3_FSM",
                        "warning",
                        f"action {machine_name}.{action_name} declares no "
                        f"require(...) precondition",
                    )
                )
    return findings


def _check_r4(model: AsmModel, config: ExplorationConfig) -> List[RuleFinding]:
    findings: List[RuleFinding] = []
    try:
        calls = model.candidate_calls(
            actions=config.actions,
            extra_domains=config.domains,
            groups=config.action_groups,
        )
        total = sum(1 for _ in calls)
    except ModelRuleViolation as violation:
        return [RuleFinding("R4_FSM", "error", str(violation))]
    if total > LARGE_DOMAIN_THRESHOLD * max(len(model.machines), 1):
        findings.append(
            RuleFinding(
                "R4_FSM",
                "warning",
                f"{total} candidate calls per state; consider restricting "
                f"domains to avoid state explosion",
            )
        )
    return findings
