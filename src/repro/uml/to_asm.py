"""Class diagram -> ASM skeleton generation.

"Then, we translate the UML model to ASM in order to perform model
checking" (paper, Section 2).  Two outputs:

* :func:`diagram_to_asm_source` -- readable Python source text defining
  one :class:`~repro.asm.machine.AsmMachine` subclass per UML class
  (attributes become ``StateVar``s, operations become ``@action``s with
  ``require`` preconditions -- rules R2.1/R3 in reverse),
* :func:`materialize` -- the same classes built dynamically, ready to
  instantiate into an :class:`~repro.asm.machine.AsmModel`.  Generated
  actions evaluate their UML preconditions (Python expressions over
  ``self``/``model``) and then dispatch to an overridable behaviour
  hook ``on_<operation>`` so the skeleton "could be refined ... at the
  ASM level" exactly as the paper prescribes.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple, Type

from ..asm.machine import AsmMachine, StateVar, action, require
from ..asm.types import BitVector
from .class_diagram import Attribute, ClassDiagram, Operation, UmlClass
from .errors import MappingError

#: UML type -> default initial value for the generated StateVar.
_DEFAULTS: Dict[str, Any] = {
    "Boolean": False,
    "Integer": 0,
    "Byte": 0,
    "BitVector": BitVector(0, 8),
    "String": "",
    "Real": 0.0,
}

#: UML type -> AsmL type name used in generated source comments (rule R1).
_ASM_TYPES: Dict[str, str] = {
    "Boolean": "Boolean",
    "Integer": "Integer",
    "Byte": "Byte",
    "BitVector": "BitVector",
    "String": "String",
    "Real": "Real",
}


def _initial_for(attribute: Attribute) -> Any:
    if attribute.initial is not None:
        return attribute.initial
    return _DEFAULTS[attribute.type_name]


# ---------------------------------------------------------------------------
# Source generation
# ---------------------------------------------------------------------------


def class_to_asm_source(cls: UmlClass) -> str:
    """Python source text for the AsmMachine skeleton of one UML class."""
    lines = [f"class {cls.name}(AsmMachine):"]
    doc = cls.doc or f"ASM skeleton generated from UML class {cls.name}."
    lines.append(f'    """{doc}"""')
    lines.append("")
    if not cls.attributes and not cls.operations:
        lines.append("    pass")
        return "\n".join(lines)
    for attribute in cls.attributes:
        initial = _initial_for(attribute)
        lines.append(
            f"    {attribute.name} = StateVar({initial!r})"
            f"  # {_ASM_TYPES[attribute.type_name]}"
        )
    for operation in cls.operations:
        lines.append("")
        params = ", ".join(p.name for p in operation.parameters)
        signature = f"self, {params}" if params else "self"
        lines.append("    @action")
        lines.append(f"    def {operation.name}({signature}):")
        if operation.doc:
            lines.append(f'        """{operation.doc}"""')
        for precondition in operation.preconditions:
            lines.append(f"        require({precondition})")
        hook_args = f", ({params},)" if params else ", ()"
        lines.append(
            f"        return self._behavior({operation.name!r}{hook_args})"
        )
    return "\n".join(lines)


def diagram_to_asm_source(diagram: ClassDiagram) -> str:
    """Source text for the whole diagram (one module)."""
    header = [
        f'"""ASM model skeleton generated from UML class diagram '
        f'{diagram.name!r}."""',
        "",
        "from repro.asm import AsmMachine, StateVar, action, require",
        "",
        "",
    ]
    blocks = [class_to_asm_source(c) for c in diagram.classes.values()]
    return "\n".join(header) + "\n\n\n".join(blocks) + "\n"


# ---------------------------------------------------------------------------
# Dynamic materialization
# ---------------------------------------------------------------------------


class GeneratedMachine(AsmMachine):
    """Base of all materialized skeletons: behaviour hook dispatch."""

    def _behavior(self, operation: str, args: Tuple[Any, ...]) -> Any:
        hook = getattr(self, f"on_{operation}", None)
        if hook is None:
            return None
        return hook(*args)


def _compile_precondition(text: str, cls_name: str, op_name: str):
    try:
        # repro: allow[lint.codegen-sites] a UML precondition is one user-written expression evaluated as written, not generated source
        code = compile(text, f"<{cls_name}.{op_name} precondition>", "eval")
    except SyntaxError as error:
        raise MappingError(
            f"{cls_name}.{op_name}: invalid precondition {text!r}: {error}"
        ) from error

    def check(machine: AsmMachine, arguments: Dict[str, Any]) -> bool:
        scope = {"self": machine, "model": machine.model}
        scope.update(arguments)
        return bool(eval(code, {"__builtins__": {}}, scope))  # noqa: S307

    return check


def _make_action(cls_name: str, operation: Operation):
    checks = [
        (_compile_precondition(text, cls_name, operation.name), text)
        for text in operation.preconditions
    ]
    param_names = [p.name for p in operation.parameters]

    def body(self, *args):
        if len(args) != len(param_names):
            raise MappingError(
                f"{cls_name}.{operation.name} expects {len(param_names)} "
                f"arguments, got {len(args)}"
            )
        bound = dict(zip(param_names, args))
        for check, text in checks:
            require(check(self, bound), text)
        return self._behavior(operation.name, args)

    body.__name__ = operation.name
    body.__doc__ = operation.doc or f"Generated from UML operation {operation.name}."
    # Give the wrapper the right introspectable signature for domains.
    import inspect

    parameters = [
        inspect.Parameter("self", inspect.Parameter.POSITIONAL_OR_KEYWORD)
    ] + [
        inspect.Parameter(name, inspect.Parameter.POSITIONAL_OR_KEYWORD)
        for name in param_names
    ]
    body.__signature__ = inspect.Signature(parameters)  # type: ignore[attr-defined]
    return action(body)


def materialize_class(cls: UmlClass) -> Type[GeneratedMachine]:
    """Build a real AsmMachine subclass from one UML class."""
    namespace: Dict[str, Any] = {
        "__doc__": cls.doc or f"Materialized from UML class {cls.name}."
    }
    for attribute in cls.attributes:
        namespace[attribute.name] = StateVar(_initial_for(attribute))
    for operation in cls.operations:
        namespace[operation.name] = _make_action(cls.name, operation)
    return type(cls.name, (GeneratedMachine,), namespace)


def materialize(diagram: ClassDiagram) -> Dict[str, Type[GeneratedMachine]]:
    """Materialize every class of the diagram."""
    return {name: materialize_class(cls) for name, cls in diagram.classes.items()}
