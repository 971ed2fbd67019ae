"""Immutable AsmL-style collections: ``Seq``, ``AsmSet`` and ``Map``.

AsmL model programs manipulate mathematical sequences, sets and maps; the
FSM-generation algorithm snapshots whole machine states, so every value
stored in a state variable must be immutable and hashable.  These classes
provide AsmL's collection vocabulary on top of tuples / frozensets /
sorted tuples of pairs.

The paper's PSL embedding uses ``Seq of Boolean`` for SEREs ("a SERE is
defined as an AsmL sequence of Boolean", Section 2.1.2) and the PCI model
uses maps from master ids to machine instances (``MASTERS(id)`` in
Figure 4).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Callable, Iterable, Iterator, Mapping, Tuple, TypeVar

from .errors import NoChoiceError

T = TypeVar("T")
K = TypeVar("K")
V = TypeVar("V")


class Seq(Tuple[T, ...]):
    """An immutable sequence with AsmL-style functional updates.

    >>> s = Seq([1, 2, 3])
    >>> s.add(4)
    Seq(1, 2, 3, 4)
    >>> s.head(), s.tail()
    (1, Seq(2, 3))
    """

    __slots__ = ()

    def __new__(cls, items: Iterable[T] = ()) -> "Seq[T]":
        return super().__new__(cls, tuple(items))

    # -- functional updates -------------------------------------------------

    def add(self, item: T) -> "Seq[T]":
        """Return a new Seq with ``item`` appended (AsmL ``+ [item]``)."""
        return Seq(tuple(self) + (item,))

    def prepend(self, item: T) -> "Seq[T]":
        return Seq((item,) + tuple(self))

    def concat(self, other: Iterable[T]) -> "Seq[T]":
        return Seq(tuple(self) + tuple(other))

    def replace_at(self, index: int, item: T) -> "Seq[T]":
        items = list(self)
        items[index] = item
        return Seq(items)

    def remove_at(self, index: int) -> "Seq[T]":
        items = list(self)
        del items[index]
        return Seq(items)

    def remove_value(self, item: T) -> "Seq[T]":
        """Remove the first occurrence of ``item`` (no-op if absent)."""
        items = list(self)
        if item in items:
            items.remove(item)
        return Seq(items)

    # -- AsmL vocabulary -----------------------------------------------------

    def head(self) -> T:
        if not self:
            raise NoChoiceError("head of empty Seq")
        return self[0]

    def tail(self) -> "Seq[T]":
        if not self:
            raise NoChoiceError("tail of empty Seq")
        return Seq(self[1:])

    def last(self) -> T:
        if not self:
            raise NoChoiceError("last of empty Seq")
        return self[-1]

    def take(self, count: int) -> "Seq[T]":
        return Seq(self[:count])

    def drop(self, count: int) -> "Seq[T]":
        return Seq(self[count:])

    def indexof(self, item: T) -> int:
        """Index of the first occurrence, or -1 (AsmL ``indexof``)."""
        try:
            return self.index(item)
        except ValueError:
            return -1

    def where(self, predicate: Callable[[T], bool]) -> "Seq[T]":
        return Seq(x for x in self if predicate(x))

    def select(self, mapper: Callable[[T], Any]) -> "Seq[Any]":
        return Seq(mapper(x) for x in self)

    def __getitem__(self, index):  # preserve Seq type for slices
        result = super().__getitem__(index)
        if isinstance(index, slice):
            return Seq(result)
        return result

    def __add__(self, other):  # Seq + iterable -> Seq
        return Seq(tuple(self) + tuple(other))

    def __repr__(self) -> str:
        return f"Seq({', '.join(repr(x) for x in self)})"


class AsmSet(frozenset):
    """An immutable set with AsmL-style functional updates."""

    def add_element(self, item) -> "AsmSet":
        return AsmSet(self | {item})

    def remove_element(self, item) -> "AsmSet":
        return AsmSet(self - {item})

    def where(self, predicate: Callable[[Any], bool]) -> "AsmSet":
        return AsmSet(x for x in self if predicate(x))

    def select(self, mapper: Callable[[Any], Any]) -> "AsmSet":
        return AsmSet(mapper(x) for x in self)

    def __repr__(self) -> str:
        return f"AsmSet({{{', '.join(repr(x) for x in sorted(self, key=repr))}}})"


class Map(Mapping[K, V]):
    """An immutable mapping with AsmL-style functional updates.

    Stored as a tuple of pairs sorted by ``repr(key)`` so two Maps with
    equal content hash equally -- required for state snapshots.
    Functional updates insert by bisection over the cached key order
    instead of re-sorting, so a write costs one ``repr``.

    >>> m = Map({1: 'a'})
    >>> m.set(2, 'b')[2]
    'b'
    """

    __slots__ = ("_pairs", "_index", "_order")

    def __init__(self, items: Mapping[K, V] | Iterable[tuple[K, V]] = ()):
        if isinstance(items, Map):
            self._pairs = items._pairs
            self._index = items._index
            self._order = items._order
            return
        if not isinstance(items, Mapping):
            items = dict(items)
        self._pairs = tuple(sorted(items.items(), key=lambda kv: repr(kv[0])))
        self._index = dict(self._pairs)
        #: repr of each key in _pairs order, built on the first update
        self._order: list | None = None

    def _keys_order(self) -> list:
        order = self._order
        if order is None:
            order = self._order = [repr(k) for k, _ in self._pairs]
        return order

    @classmethod
    def _build(cls, pairs: tuple, order: list, index: dict) -> "Map[K, V]":
        built = cls.__new__(cls)
        built._pairs = pairs
        built._index = index
        built._order = order
        return built

    def set(self, key: K, value: V) -> "Map[K, V]":
        """Return a new Map with ``key`` bound to ``value``."""
        pairs, order = self._pairs, self._keys_order()
        index = self._index.copy()
        if key in index:
            # dict semantics: an equal key keeps the stored key object
            at = _position(pairs, order, key)
            pairs = pairs[:at] + ((pairs[at][0], value),) + pairs[at + 1:]
        else:
            text = repr(key)
            at = bisect_right(order, text)
            pairs = pairs[:at] + ((key, value),) + pairs[at:]
            order = order[:at] + [text] + order[at:]
        index[key] = value
        return Map._build(pairs, order, index)

    def remove(self, key: K) -> "Map[K, V]":
        if key not in self._index:
            return self
        pairs, order = self._pairs, self._keys_order()
        at = _position(pairs, order, key)
        index = self._index.copy()
        del index[key]
        return Map._build(pairs[:at] + pairs[at + 1:], order[:at] + order[at + 1:], index)

    def merge(self, other: Mapping[K, V]) -> "Map[K, V]":
        merged = self
        for key in other.keys():
            merged = merged.set(key, other[key])
        return merged

    def __getitem__(self, key: K) -> V:
        return self._index[key]

    def __iter__(self) -> Iterator[K]:
        return (key for key, _ in self._pairs)

    def __len__(self) -> int:
        return len(self._pairs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Map):
            return self._pairs == other._pairs
        if isinstance(other, Mapping):
            return self._index == dict(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("Map", self._pairs))

    def __repr__(self) -> str:
        body = ", ".join(f"{k!r}: {v!r}" for k, v in self._pairs)
        return f"Map({{{body}}})"


def _position(pairs: tuple, order: list, key: Any) -> int:
    """Index in ``pairs`` of the stored key equal to ``key``."""
    text = repr(key)
    at = bisect_left(order, text)
    while at < len(order) and order[at] == text:
        stored = pairs[at][0]
        if stored is key or stored == key:
            return at
        at += 1
    # an equal key with another repr (1 and True): dict semantics keep
    # the stored key, so find it by equality
    for at, (stored, _) in enumerate(pairs):
        if stored is key or stored == key:
            return at
    raise KeyError(key)  # pragma: no cover -- callers checked membership


#: types freeze returns unchanged -- checked first because nearly every
#: state-variable write on the scoreboard's replay path is one of these
_ATOMIC = frozenset((bool, int, float, str, bytes, type(None)))

#: classes proven to pass through freeze unchanged (ASM containers,
#: enums, other immutable scalars) -- learned on first sight so repeat
#: writes of the same type skip the isinstance chain entirely
_PASSTHROUGH: set = set()


def freeze(value: Any) -> Any:
    """Convert mutable containers to their immutable ASM equivalents.

    State variables only accept immutable values; this helper lets model
    code assign plain lists/dicts/sets and stores the frozen form.
    """
    cls = value.__class__
    if cls in _ATOMIC or cls in _PASSTHROUGH:
        return value
    if isinstance(value, (Seq, AsmSet, Map)):
        _PASSTHROUGH.add(cls)
        return value
    if isinstance(value, list):
        return Seq(freeze(x) for x in value)
    if isinstance(value, tuple):
        return tuple(freeze(x) for x in value)
    if isinstance(value, (set, frozenset)):
        return AsmSet(freeze(x) for x in value)
    if isinstance(value, dict):
        return Map({freeze(k): freeze(v) for k, v in value.items()})
    _PASSTHROUGH.add(cls)
    return value
