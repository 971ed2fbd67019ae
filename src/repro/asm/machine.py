"""Abstract state machines in the AsmL style.

This module is the heart of the ASM substrate: machine classes declare
typed :class:`StateVar` fields and guarded ``@action`` methods with
AsmL-style ``require`` preconditions; an :class:`AsmModel` groups machine
*instances* (rule R1: "for every class we have to define a list of
instantiations"), takes full-state snapshots, and executes actions under
update-set semantics so the FSM explorer can probe and roll back.

A minimal model in the style of the paper's Figure 4::

    class PciArbiter(AsmMachine):
        m_active_master = StateVar(-1)
        m_req = StateVar(False)
        m_gnt = StateVar(False)

        @action
        def update_m_req(self):
            require(self.model.get_global("system_init") is True)
            require(self.m_gnt is False and self.m_req is False)
            requesting = [i for i in masters_range if masters[i].m_req]
            self.m_active_master = choose_min(requesting)
            self.m_req = True
"""

from __future__ import annotations

import functools
import inspect
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, Sequence, Tuple

from .collections_ import _ATOMIC, _PASSTHROUGH, freeze
from .domains import Domain, cartesian_product
from .errors import (
    AsmError,
    DomainError,
    ModelRuleViolation,
    NoChoiceError,
    RequirementFailure,
)
from .state import FullState, Location, StateKey
from .updates import PARALLEL, SEQUENTIAL, StepMode, UpdateSet

__all__ = [
    "StateVar",
    "action",
    "require",
    "AsmMachine",
    "AsmModel",
    "ActionInfo",
    "ActionCall",
    "choose_min",
    "choose_max",
    "choose_any",
    "exists_where",
    "for_all",
    "PARALLEL",
    "SEQUENTIAL",
]


def require(condition: Any, message: str = "") -> None:
    """AsmL ``require``: raise :class:`RequirementFailure` when false.

    Used at the top of action bodies to express rule-R3 preconditions;
    the explorer interprets the failure as "action not enabled here".
    """
    if not condition:
        raise RequirementFailure(message)


class StateVar:
    """A declared, snapshot-able machine variable.

    Parameters
    ----------
    default:
        Initial value (frozen on assignment; lists/dicts/sets become
        ``Seq``/``Map``/``AsmSet``).
    domain:
        Optional static :class:`Domain`; writes outside it raise
        :class:`DomainError` (rule R4 enforcement).
    state_variable:
        Whether this location participates in the default FSM state key.
        Large bookkeeping fields can opt out to keep the FSM small.
    doc:
        Documentation string shown by :func:`help`.
    """

    __slots__ = ("default", "domain", "state_variable", "doc", "name")

    def __init__(
        self,
        default: Any = None,
        *,
        domain: Domain | None = None,
        state_variable: bool = True,
        doc: str = "",
    ):
        self.default = freeze(default)
        self.domain = domain
        self.state_variable = state_variable
        self.doc = doc
        self.name = ""  # filled by __set_name__

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, instance: "AsmMachine | None", owner: type):
        if instance is None:
            return self
        model = instance.model
        step = (instance if model is None else model)._active_step
        if step is not None and step.mode is StepMode.SEQUENTIAL:
            present, value = step.pending(instance._location(self.name))
            if present:
                return value
        return instance._state[self.name]

    def __set__(self, instance: "AsmMachine", value: Any) -> None:
        cls = value.__class__
        if cls not in _ATOMIC and cls not in _PASSTHROUGH:
            value = freeze(value)
        domain = self.domain
        if domain is not None and domain.is_static:
            if not domain.contains(value):
                raise DomainError(
                    f"{instance.name}.{self.name}: value {value!r} outside "
                    f"domain {domain.name!r}"
                )
        model = instance.model
        step = (instance if model is None else model)._active_step
        if step is None:
            instance._state[self.name] = value
        else:
            step.record(instance._location(self.name), value)


@dataclass(frozen=True)
class ActionInfo:
    """Static metadata attached to an ``@action`` method."""

    name: str
    params: Tuple[str, ...]
    domains: Dict[str, Domain] = field(default_factory=dict)
    mode: StepMode = StepMode.PARALLEL
    group: str | None = None
    doc: str = ""


@dataclass(frozen=True)
class ActionCall:
    """One concrete transition candidate: machine + action + arguments."""

    machine: str
    action: str
    args: Tuple[Any, ...] = ()

    def label(self) -> str:
        """Transition label, e.g. ``arbiter.grant(2)`` -- paper: "the
        transitions in the FSM are the method calls (including argument
        values)"."""
        rendered = ", ".join(repr(a) for a in self.args)
        return f"{self.machine}.{self.action}({rendered})"

    def __str__(self) -> str:
        return self.label()


def action(
    func: Callable | None = None,
    *,
    params: Dict[str, Domain] | None = None,
    mode: StepMode = StepMode.PARALLEL,
    group: str | None = None,
):
    """Mark a machine method as an explorable ASM action.

    ``params`` maps argument names to finite :class:`Domain` objects
    (rule R4); domains may also be supplied later through the
    exploration configuration.  ``mode`` selects update-set semantics
    (:data:`PARALLEL`, the classic ASM default) or AsmL sequential
    semantics (:data:`SEQUENTIAL`).  ``group`` tags the action for the
    explorer's action-group filtering.
    """

    def decorate(f: Callable) -> Callable:
        signature = inspect.signature(f)
        names = tuple(p for p in signature.parameters if p != "self")
        declared = dict(params or {})
        unknown = set(declared) - set(names)
        if unknown:
            raise AsmError(
                f"action {f.__name__!r}: domains given for unknown "
                f"parameters {sorted(unknown)}"
            )
        info = ActionInfo(
            name=f.__name__,
            params=names,
            domains=declared,
            mode=mode,
            group=group,
            doc=(f.__doc__ or "").strip(),
        )

        @functools.wraps(f)
        def wrapper(self: "AsmMachine", *args: Any, **kwargs: Any) -> Any:
            model = self.model
            owner = self if model is None else model
            if owner._active_step is not None:
                # Nested call inside an ongoing step: share the context.
                return f(self, *args, **kwargs)
            if model is not None and model._lowered is not None:
                # Sealed model: run the compiled action (repro.asm.lower)
                try:
                    run = model._lowered[self.__class__, f]
                except KeyError:
                    run = model._bind_lowered(self.__class__, f, info.mode)
                if run is not None:
                    return run(self, *args, **kwargs)
            step = UpdateSet(info.mode)
            owner._active_step = step
            try:
                result = f(self, *args, **kwargs)
            finally:
                owner._active_step = None  # a raise discards the updates
            owner._apply(step)
            return result

        wrapper.asm_action = info  # type: ignore[attr-defined]
        return wrapper

    if func is not None:
        return decorate(func)
    return decorate


#: interned ``$globals`` locations -- global names are few and reused
#: on every ``get_global``/``set_global`` inside action bodies
_GLOBAL_LOCATIONS: Dict[str, Location] = {}


def _global_location(name: str) -> Location:
    location = _GLOBAL_LOCATIONS.get(name)
    if location is None:
        location = _GLOBAL_LOCATIONS[name] = Location("$globals", name)
    return location


class _MachineMeta(type):
    """Collects StateVar and action declarations, preserving order."""

    def __new__(mcls, name, bases, namespace):
        cls = super().__new__(mcls, name, bases, namespace)
        state_vars: Dict[str, StateVar] = {}
        actions: Dict[str, ActionInfo] = {}
        for klass in reversed(cls.__mro__):
            for attr, value in vars(klass).items():
                if isinstance(value, StateVar):
                    state_vars[attr] = value
                elif callable(value) and hasattr(value, "asm_action"):
                    actions[attr] = value.asm_action
        cls._state_vars = state_vars  # type: ignore[attr-defined]
        cls._actions = actions  # type: ignore[attr-defined]
        return cls


class AsmMachine(metaclass=_MachineMeta):
    """Base class for ASM machine instances.

    Subclasses declare :class:`StateVar` fields and ``@action`` methods.
    Instances may live standalone (free writes apply immediately, actions
    run under their own update set) or registered in an
    :class:`AsmModel`, which then owns the step context and snapshots.
    """

    _state_vars: Dict[str, StateVar] = {}
    _actions: Dict[str, ActionInfo] = {}

    def __init__(self, name: str | None = None, model: "AsmModel | None" = None):
        self._state: Dict[str, Any] = {
            var_name: var.default for var_name, var in self._state_vars.items()
        }
        self._active_step: UpdateSet | None = None
        self.model: AsmModel | None = None
        self.name = name or f"{type(self).__name__.lower()}"
        #: interned Location objects, keyed by variable; rebuilt lazily
        #: when the machine is renamed (model registration)
        self._locations: Dict[str, Location] = {}
        if model is not None:
            model.register(self)

    # -- plumbing ---------------------------------------------------------

    def _step_owner(self) -> "AsmMachine | AsmModel":
        return self.model if self.model is not None else self

    def _location(self, variable: str) -> Location:
        location = self._locations.get(variable)
        # location[0] is the machine name (Location is a tuple); the
        # guard rebuilds the cache after a rename at registration
        if location is None or location[0] != self.name:
            location = Location(self.name, variable)
            self._locations[variable] = location
        return location

    def _apply(self, step: UpdateSet) -> None:
        """Apply a finished update set (standalone machines only)."""
        for location, value in step.items():
            if location.machine != self.name:
                raise AsmError(
                    f"standalone machine {self.name!r} cannot update "
                    f"{location} -- register both machines in a model"
                )
            self._state[location.variable] = value

    # -- introspection ------------------------------------------------------

    @classmethod
    def declared_state_vars(cls) -> Dict[str, StateVar]:
        return dict(cls._state_vars)

    @classmethod
    def declared_actions(cls) -> Dict[str, ActionInfo]:
        return dict(cls._actions)

    def state_items(self) -> Iterator[tuple[str, Any]]:
        for var_name in self._state_vars:
            yield var_name, self._state[var_name]

    def __repr__(self) -> str:
        body = ", ".join(f"{k}={v!r}" for k, v in self.state_items())
        return f"<{type(self).__name__} {self.name}: {body}>"


class AsmModel:
    """A model program: a named collection of machine instances.

    The model owns the step context (so one action may update several
    machines atomically), provides full-state snapshot/restore for the
    explorer, and enumerates transition candidates from action domains.
    """

    def __init__(self, name: str = "model"):
        self.name = name
        self.machines: Dict[str, AsmMachine] = {}
        self._globals: Dict[str, Any] = {}
        self._active_step: UpdateSet | None = None
        self._sealed = False
        #: (machine class, action function) -> bound compiled action, or
        #: None where the lowerer declined; set to {} at seal().  Tests
        #: set it back to None to run the interpreted reference.
        self._lowered: Dict[tuple, Callable | None] | None = None
        self._initial_state: FullState | None = None
        #: presorted (Location, machine, var) triples, filled at seal()
        self._machine_locations: tuple | None = None
        #: machines_of results, cached once the instance set is sealed
        self._machines_by_class: Dict[type, list] = {}
        #: Location -> (state dict, variable) write targets for _apply
        self._apply_targets: Dict[Location, tuple] = {}

    # -- registry (rule R1) ---------------------------------------------------

    def register(self, machine: AsmMachine, name: str | None = None) -> AsmMachine:
        if self._sealed:
            raise ModelRuleViolation(
                "R1_FSM", "cannot register machines after the model is sealed"
            )
        if name:
            machine.name = name
        if not machine.name or not (machine.name[0].isalnum() or machine.name[0] == "_"):
            raise AsmError(
                f"machine name {machine.name!r} must start with a letter, "
                f"digit or underscore (reserved prefixes: '$...')"
            )
        if machine.name in self.machines:
            # Disambiguate auto-generated names: arbiter, arbiter_2, ...
            base = machine.name
            counter = 2
            while f"{base}_{counter}" in self.machines:
                counter += 1
            machine.name = f"{base}_{counter}"
        machine.model = self
        self.machines[machine.name] = machine
        return machine

    def machine(self, name: str) -> AsmMachine:
        return self.machines[name]

    def machines_of(self, cls: type) -> list[AsmMachine]:
        cached = self._machines_by_class.get(cls)
        if cached is not None:
            return cached
        selected = [m for m in self.machines.values() if isinstance(m, cls)]
        if self._sealed:
            # The instance set is fixed (rule R1), so the scan result
            # is stable; hot action bodies query it every firing.
            self._machines_by_class[cls] = selected
        return selected

    # -- globals (shared locations such as SystemInit) ---------------------------

    def set_global(self, name: str, value: Any) -> None:
        value = freeze(value)
        if self._active_step is None:
            self._globals[name] = value
        else:
            self._active_step.record(_global_location(name), value)

    def get_global(self, name: str, default: Any = None) -> Any:
        step = self._active_step
        if step is not None and step.mode is StepMode.SEQUENTIAL:
            present, value = step.pending(_global_location(name))
            if present:
                return value
        return self._globals.get(name, default)

    # -- sealing and initial state ------------------------------------------------

    def seal(self) -> None:
        """Fix the instance set (rule R1) and capture the initial state."""
        self._sealed = True
        self._machine_locations = tuple(
            sorted(
                (Location(machine_name, var_name), machine_name, var_name)
                for machine_name in self.machines
                for var_name in self.machines[machine_name]._state_vars
            )
        )
        self._initial_state = self.full_state()
        self._lowered = {}

    def _bind_lowered(
        self, cls: type, func: Callable, mode: StepMode
    ) -> Callable | None:
        """Bind (once) the compiled form of one action to this model."""
        from .lower import bind

        run = self._lowered[cls, func] = bind(self, cls, func, mode)
        return run

    @property
    def sealed(self) -> bool:
        return self._sealed

    def close(self) -> None:
        """Release the model once nothing will run it again.

        Each machine's ``model`` back-reference ties it and the model
        into a cycle; closing detaches every machine and forgets them,
        with the compiled actions bound over them, so both are freed by
        reference counting.  A closed model has no machines.
        """
        for machine in self.machines.values():
            machine.model = None
        self.machines = {}
        self._machines_by_class = {}
        self._apply_targets = {}
        self._lowered = None

    def initial_state(self) -> FullState:
        if self._initial_state is None:
            return self.full_state()
        return self._initial_state

    def reset(self) -> None:
        """Restore the state captured at :meth:`seal` time."""
        if self._initial_state is not None:
            self.restore(self._initial_state)

    # -- snapshots ------------------------------------------------------------

    def full_state(self) -> FullState:
        if self._machine_locations is not None:
            # Fast path after seal: locations are presorted, and
            # "$globals" sorts before every machine name ('$' < letters).
            machines = self.machines
            pairs = [
                (_global_location(name), self._globals[name])
                for name in sorted(self._globals)
            ]
            pairs.extend(
                (loc, machines[machine_name]._state[var_name])
                for loc, machine_name, var_name in self._machine_locations
            )
            return FullState(pairs, presorted=True)
        pairs = []
        for machine_name in sorted(self.machines):
            machine = self.machines[machine_name]
            for var_name, value in machine.state_items():
                pairs.append((Location(machine_name, var_name), value))
        for global_name in sorted(self._globals):
            pairs.append((Location("$globals", global_name), self._globals[global_name]))
        return FullState(pairs)

    def restore(self, state: FullState) -> None:
        if self._active_step is not None:
            raise AsmError("cannot restore state during an active step")
        # in place: compiled actions hold this very dict
        globals_ = self._globals
        globals_.clear()
        for location, value in state.items():
            if location.machine == "$globals":
                globals_[location.variable] = value
            else:
                self.machines[location.machine]._state[location.variable] = value

    def state_variables(self) -> list[Location]:
        """Default FSM state key: every StateVar flagged ``state_variable``."""
        selected: list[Location] = []
        for machine_name in sorted(self.machines):
            machine = self.machines[machine_name]
            for var_name, var in machine._state_vars.items():
                if var.state_variable:
                    selected.append(Location(machine_name, var_name))
        for global_name in sorted(self._globals):
            selected.append(Location("$globals", global_name))
        return selected

    def state_key(self, selected: Iterable[Location] | None = None) -> StateKey:
        chosen = list(selected) if selected is not None else self.state_variables()
        return self.full_state().project(chosen)

    # -- action execution ---------------------------------------------------------

    def _apply(self, step: UpdateSet) -> None:
        # location -> (target_dict, key) resolved once; replay traffic
        # hits the same few locations thousands of times
        targets = self._apply_targets
        for location, value in step._updates.items():
            try:
                target = targets[location]
            except KeyError:
                if location.machine == "$globals":
                    target = (self._globals, location.variable)
                else:
                    target = (
                        self.machines[location.machine]._state,
                        location.variable,
                    )
                targets[location] = target
            target[0][target[1]] = value

    def execute(self, call: ActionCall) -> Any:
        """Run one action under step semantics; raises on failed require."""
        machine = self.machines[call.machine]
        method = getattr(machine, call.action)
        info = getattr(method, "asm_action", None)
        if info is None:
            raise AsmError(f"{call.machine}.{call.action} is not an @action")
        try:
            return method(*call.args)
        except RequirementFailure as failure:
            raise RequirementFailure(str(failure), action=call.label()) from None

    def try_execute(self, call: ActionCall) -> tuple[bool, Any]:
        """Run one action, treating a failed precondition as 'not enabled'.

        Buffered updates guarantee the state is untouched when the
        precondition fails, so this doubles as the explorer's
        enabledness probe.
        """
        try:
            return True, self.execute(call)
        except RequirementFailure:
            return False, None

    # -- candidate enumeration -------------------------------------------------------

    def candidate_calls(
        self,
        actions: Iterable[str] | None = None,
        extra_domains: Dict[str, Domain] | None = None,
        groups: Iterable[str] | None = None,
    ) -> Iterator[ActionCall]:
        """Enumerate all (machine, action, args) transition candidates.

        ``actions`` filters by ``machine.action`` or bare action name;
        ``groups`` filters by action group; ``extra_domains`` supplies or
        overrides argument domains keyed ``"action.param"`` or ``"param"``.
        """
        wanted = set(actions) if actions is not None else None
        wanted_groups = set(groups) if groups is not None else None
        overrides = extra_domains or {}
        for machine_name in sorted(self.machines):
            machine = self.machines[machine_name]
            for action_name, info in machine._actions.items():
                qualified = f"{machine_name}.{action_name}"
                if wanted is not None and qualified not in wanted and action_name not in wanted:
                    continue
                if wanted_groups is not None and info.group not in wanted_groups:
                    continue
                domains = self._resolve_domains(qualified, info, overrides)
                for args in cartesian_product(domains, self):
                    yield ActionCall(machine_name, action_name, args)

    def _resolve_domains(
        self,
        qualified: str,
        info: ActionInfo,
        overrides: Dict[str, Domain],
    ) -> list[Domain]:
        domains: list[Domain] = []
        missing: list[str] = []
        for param in info.params:
            domain = (
                overrides.get(f"{qualified}.{param}")
                or overrides.get(f"{info.name}.{param}")
                or overrides.get(param)
                or info.domains.get(param)
            )
            if domain is None:
                missing.append(param)
            else:
                domains.append(domain)
        if missing:
            raise ModelRuleViolation(
                "R4_FSM",
                f"action {qualified!r} has parameters without finite "
                f"domains: {missing} -- declare them in @action(params=...) "
                f"or in the exploration config",
            )
        return domains


# -- AsmL choice expressions ------------------------------------------------------


def choose_min(candidates: Iterable[Any], where: Callable[[Any], bool] | None = None):
    """AsmL ``min x | x in S where P(x)`` (Figure 4's master selection)."""
    matches = [c for c in candidates if where is None or where(c)]
    if not matches:
        raise NoChoiceError("choose_min: no candidate satisfies the filter")
    return min(matches)


def choose_max(candidates: Iterable[Any], where: Callable[[Any], bool] | None = None):
    """AsmL ``max x | x in S where P(x)``."""
    matches = [c for c in candidates if where is None or where(c)]
    if not matches:
        raise NoChoiceError("choose_max: no candidate satisfies the filter")
    return max(matches)


def choose_any(candidates: Iterable[Any], where: Callable[[Any], bool] | None = None):
    """AsmL ``any x | x in S where P(x)``.

    Deterministic: returns the first matching candidate in iteration
    order, so exploration stays reproducible.
    """
    for candidate in candidates:
        if where is None or where(candidate):
            return candidate
    raise NoChoiceError("choose_any: no candidate satisfies the filter")


def exists_where(candidates: Iterable[Any], where: Callable[[Any], bool]) -> bool:
    """AsmL ``exists x in S where P(x)``."""
    return any(where(c) for c in candidates)


def for_all(candidates: Iterable[Any], where: Callable[[Any], bool]) -> bool:
    """AsmL ``forall x in S holds P(x)``."""
    return all(where(c) for c in candidates)
