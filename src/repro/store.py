"""One content store: keyed by digest or fingerprint, verified on read.

Every store and cache in the system is a :class:`ContentStore`:

* the coordinator's result store and per-shard resume checkpoints
  (a directory, no memory tier);
* the process-global checkpoint registry
  (:func:`repro.checkpoint.global_registry`: an unbounded memory tier,
  spilling to the ``REPRO_CHECKPOINT_DIR`` directory when one is set);
* the worker's spec-list and checkpoint caches (bounded LRU memory
  tiers, no directory).

A store is told how to derive the key a value belongs under
(``key_of``); a ``put`` whose value does not derive its claimed key is
rejected, and a directory entry is decoded and re-keyed on every read
-- an entry that fails to decode or derives another key is deleted and
counted in :attr:`ContentStore.corruptions`, and reads as a miss.  The
store therefore serves verified values or nothing.  A value that
caches its key (a checkpoint's digest) derives it once: the put's key,
its wire document and a read's re-key check all reuse it.  Directory
writes go through :func:`atomic_write`, the one fsync-and-rename in the
package: one ``json.dumps`` and one ``write`` per entry, never
observable half-written.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Optional


class KeyMismatchError(ValueError):
    """A put whose content does not derive the key it was claimed under."""


def atomic_write(path: str, doc: Dict[str, Any]) -> str:
    """Write the JSON document ``doc`` to ``path``: tempfile, fsync, rename.

    The document is encoded in one ``json.dumps`` (sorted keys) and
    written as bytes in one ``write``: the file holds exactly
    ``json.dumps(doc, sort_keys=True)``.  The destination is never
    observable half-written, even through a crash or a killed daemon:
    it holds the old content or the new, and a failed write leaves no
    temp file behind.
    """
    data = json.dumps(doc, sort_keys=True).encode("utf-8")
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    handle, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(handle, "wb") as stream:
            stream.write(data)
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise
    return path


class ContentStore:
    """Key -> value map with an optional LRU memory tier and directory.

    ``key_of(value)`` derives the key a value belongs under.
    ``encode``/``decode`` map values to and from their JSON wire
    documents (needed only with a directory).  ``limit`` bounds the
    memory tier (least recently used evicted first; ``None`` =
    unbounded, ``0`` = no memory tier, every read goes to disk).
    ``missing(key)`` builds the exception :meth:`get` raises on a miss.
    Thread-safe: daemons read and write from handler threads.
    """

    def __init__(
        self,
        key_of: Callable[[Any], str],
        encode: Optional[Callable[[Any], Dict[str, Any]]] = None,
        decode: Optional[Callable[[Dict[str, Any]], Any]] = None,
        limit: Optional[int] = None,
        directory: Optional[str] = None,
        missing: Callable[[str], Exception] = KeyError,
    ):
        self.key_of = key_of
        self.encode = encode
        self.decode = decode
        self.limit = limit
        self.missing = missing
        self.directory: Optional[str] = None
        self.corruptions = 0
        self._memory: "OrderedDict[str, Any]" = OrderedDict()
        self._lock = threading.Lock()
        if directory:
            self.attach(directory)

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.json")

    def _remember(self, key: str, value: Any) -> None:
        if self.limit == 0:
            return
        with self._lock:
            self._memory[key] = value
            self._memory.move_to_end(key)
            while self.limit is not None and len(self._memory) > self.limit:
                self._memory.popitem(last=False)

    def _write(self, key: str, value: Any) -> None:
        path = self._path(key)
        if not os.path.exists(path):
            atomic_write(path, self.encode(value))

    def put(self, value: Any, key: Optional[str] = None) -> str:
        """Store one value; returns its key.

        ``key``, when given, is the key the caller claims for the
        value; a value that derives another key raises
        :class:`KeyMismatchError` and is not stored.
        """
        actual = self.key_of(value)
        if key is not None and key != actual:
            raise KeyMismatchError(
                f"claimed key {key} but the content derives {actual}"
            )
        self._remember(actual, value)
        if self.directory:
            self._write(actual, value)
        return actual

    def fetch(self, key: str) -> Optional[Any]:
        """The verified value for ``key``, or None."""
        with self._lock:
            if key in self._memory:
                self._memory.move_to_end(key)
                return self._memory[key]
        if not self.directory:
            return None
        path = self._path(key)
        try:
            with open(path, encoding="utf-8") as stream:
                value = self.decode(json.load(stream))
            if self.key_of(value) != key:
                raise ValueError(f"entry derives another key than {key}")
        except FileNotFoundError:
            return None
        except Exception:  # noqa: BLE001 -- any decode failure is corruption
            self._drop(path)
            return None
        self._remember(key, value)
        return value

    def get(self, key: str) -> Any:
        """The verified value for ``key``; raises ``missing(key)``."""
        value = self.fetch(key)
        if value is None:
            raise self.missing(key)
        return value

    def discard(self, key: str) -> None:
        """Forget one entry, in memory and on disk."""
        with self._lock:
            self._memory.pop(key, None)
        if self.directory:
            try:
                os.unlink(self._path(key))
            except FileNotFoundError:
                pass

    def _drop(self, path: str) -> None:
        """Delete a corrupt entry and count it."""
        with self._lock:
            self.corruptions += 1
        try:
            os.unlink(path)
        except OSError:
            pass

    def attach(self, directory: str) -> None:
        """Late-bind a directory and flush the memory tier into it."""
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        with self._lock:
            entries = list(self._memory.items())
        for key, value in entries:
            self._write(key, value)

    def __contains__(self, key: str) -> bool:
        return self.fetch(key) is not None

    def __len__(self) -> int:
        """Entries held: on disk with a directory, else in memory."""
        if not self.directory:
            with self._lock:
                return len(self._memory)
        try:
            return sum(
                1 for name in os.listdir(self.directory)
                if name.endswith(".json")
            )
        except OSError:
            return 0
