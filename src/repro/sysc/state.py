"""Declared module state: the registers a checkpoint carries.

The paper's flow builds each SystemC module from an ASM that declares
its state variables once.  A stateful :class:`~repro.sysc.module.Module`
does the same: a class-level ``STATE`` table of ``(wire key, attribute,
codec)`` entries, from which :mod:`repro.checkpoint.capture` derives
both the snapshot document and the restore writes.  A subclass extends
its parent's table (``Parent.STATE + (...)``).

A codec's ``encode(value)`` gives the JSON wire form and its
``decode(module, attr, doc)`` the value to write back to
``module.<attr>``, raising ``TypeError``/``ValueError``/``LookupError``
on a wire value it cannot adopt.  This module imports nothing from the
models or the checkpoint package, so every model can declare its table
without an import cycle.
"""

from __future__ import annotations

import random
from typing import Any, Callable, NamedTuple, Tuple

#: a module's phase handlers are its methods named ``_phase_<name>``
PHASE_PREFIX = "_phase_"


class Codec(NamedTuple):
    encode: Callable[[Any], Any]
    decode: Callable[[Any, str, Any], Any]


#: one declared register: (wire key, attribute name, codec)
StateEntry = Tuple[str, str, Codec]


def plain(encode: Callable[[Any], Any], decode: Callable[[Any], Any]) -> Codec:
    """A codec whose wire value alone determines the register."""
    return Codec(encode, lambda module, attr, doc: decode(doc))


def _same(value: Any) -> Any:
    return value


SCALAR = plain(_same, _same)
#: tuple / list registers travel as (copied) JSON lists
TUPLE = plain(list, tuple)
LIST = plain(list, list)
#: ``dict[int, int]``: JSON object keys are strings
INT_KEYED = plain(
    lambda value: {str(k): v for k, v in value.items()},
    lambda doc: {int(k): v for k, v in doc.items()},
)


def wire(cls: Any) -> Codec:
    """An optional wire object with ``to_json``/``from_json``."""
    return plain(
        lambda value: value.to_json() if value is not None else None,
        lambda doc: cls.from_json(doc) if doc is not None else None,
    )


def wire_pairs(first: Any, second: Any) -> Codec:
    """A list of ``(first, second)`` wire-object pairs."""
    return plain(
        lambda value: [[a.to_json(), b.to_json()] for a, b in value],
        lambda doc: [(first.from_json(a), second.from_json(b)) for a, b in doc],
    )


def _random_encode(value: random.Random) -> Any:
    version, internal, gauss = value.getstate()
    return [version, list(internal), gauss]


def _random_decode(doc: Any) -> random.Random:
    version, internal, gauss = doc
    generator = random.Random()
    generator.setstate((version, tuple(internal), gauss))
    return generator


#: a ``random.Random`` at its exact stream position
RANDOM = plain(_random_encode, _random_decode)


def _phase_decode(module: Any, attr: str, doc: Any) -> Any:
    if not isinstance(doc, str):
        raise TypeError(f"phase name must be a string, got {doc!r}")
    handler = getattr(module, PHASE_PREFIX + doc, None)
    if not callable(handler):
        raise LookupError(f"unknown phase {doc!r}")
    return handler


#: the current phase handler (a bound ``_phase_<name>`` method); only
#: the ``<name>`` travels
PHASE = Codec(
    lambda handler: handler.__name__[len(PHASE_PREFIX):], _phase_decode
)


def replay(advance: str) -> Codec:
    """A consumption count over a deterministic stream: decoding
    re-advances the stream (``module.<advance>()``, which bumps the
    count and returns None once exhausted) to the recorded count, so
    the fresh module draws exactly the items the original had left."""

    def decode(module: Any, attr: str, doc: Any) -> Any:
        step = getattr(module, advance)
        while getattr(module, attr) < doc and step() is not None:
            pass
        return getattr(module, attr)

    return Codec(_same, decode)
