"""AsmL-flavoured Abstract State Machines.

This package is the reproduction's stand-in for Microsoft's AsmL
language and runtime (paper Section 2.1.2/2.2.1): machine classes with
typed state variables, guarded actions with ``require`` preconditions,
update-set step semantics, finite domains, and immutable AsmL collection
types.  The FSM explorer (:mod:`repro.explorer`) drives models built
from these pieces exactly like the AsmL tester drives AsmL model
programs.
"""

from .collections_ import AsmSet, Map, Seq, freeze
from .domains import Domain, cartesian_product
from .errors import (
    AsmError,
    DomainError,
    FrozenStateError,
    InconsistentUpdateError,
    ModelRuleViolation,
    NoChoiceError,
    RequirementFailure,
    TypeMismatchError,
)
from .machine import (
    PARALLEL,
    SEQUENTIAL,
    ActionCall,
    ActionInfo,
    AsmMachine,
    AsmModel,
    StateVar,
    action,
    choose_any,
    choose_max,
    choose_min,
    exists_where,
    for_all,
    require,
)
from .state import FullState, Location, StateKey
from .types import Bit, BitVector, Byte, bounded_int_range, ensure_in_range
from .updates import StepMode, UpdateSet
from . import lower  # noqa: F401  (loaded with the package, not inside the first action call)

__all__ = [
    "AsmSet",
    "Map",
    "Seq",
    "freeze",
    "Domain",
    "cartesian_product",
    "AsmError",
    "DomainError",
    "FrozenStateError",
    "InconsistentUpdateError",
    "ModelRuleViolation",
    "NoChoiceError",
    "RequirementFailure",
    "TypeMismatchError",
    "PARALLEL",
    "SEQUENTIAL",
    "ActionCall",
    "ActionInfo",
    "AsmMachine",
    "AsmModel",
    "StateVar",
    "action",
    "choose_any",
    "choose_max",
    "choose_min",
    "exists_where",
    "for_all",
    "require",
    "FullState",
    "Location",
    "StateKey",
    "Bit",
    "BitVector",
    "Byte",
    "bounded_int_range",
    "ensure_in_range",
    "StepMode",
    "UpdateSet",
]
