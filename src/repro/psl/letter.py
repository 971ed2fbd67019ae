"""Immutable, hash-cached letters (signal valuations).

One simulation/exploration state produces one letter observed by every
monitor; making the letter immutable and caching its hash lets
monitors share references instead of copying dictionaries, and lets
monitor snapshots (tuples of letters) be hashed cheaply into FSM state
keys.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping


class FrozenLetter(Mapping[str, Any]):
    """An immutable signal valuation with a cached structural hash."""

    __slots__ = ("_data", "_hash")

    def __init__(self, values: Mapping[str, Any]):
        self._data = dict(values)
        self._hash = None  # computed on first use: most letters never hash

    def __getitem__(self, key: str) -> Any:
        return self._data[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: object) -> bool:
        return key in self._data

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._data.items()))
        return self._hash

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FrozenLetter):
            return hash(self) == hash(other) and self._data == other._data
        if isinstance(other, Mapping):
            return self._data == dict(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"FrozenLetter({self._data!r})"


def freeze_letter(values: Mapping[str, Any]) -> FrozenLetter:
    """Idempotent freezing."""
    if isinstance(values, FrozenLetter):
        return values
    return FrozenLetter(values)
