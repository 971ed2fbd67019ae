"""The worker daemon's process pool: children forked once, reused by every shard.

A :class:`ForkPool` holds one forked child per CPU the daemon may run
on (``os.sched_getaffinity``, so ``taskset`` or a cpuset bounds it).
``imap(fn, items)`` sends each ``(fn, item)`` to an idle child over
its own socket pair and yields results as they complete.  ``fn`` travels by
reference (a module-level function), ``items`` and results by pickle.

Forking is the main thread's job only, and only at points where the
daemon knows what its other threads do: :meth:`ForkPool.replenish`
runs once before the daemon serves or starts its heartbeat thread,
and afterwards from the serving loop's idle hook
(:meth:`repro.service.JsonService.service_actions`) to replace
children that died.  A handler thread never forks -- a child forked
while another thread holds a lock would inherit it held forever.

Failure is typed and bounded: a child that dies mid-task closes its
socket, the waiting ``imap`` raises :class:`PoolChildDied` (the
``/run`` answers 500 and the client's host-failure retry takes over),
and the dead child is replaced before the next request takes it.
Every child also exits when the daemon does, however it ends: a
closed socket reads as end-of-file, and each child holds only its
own.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
from collections import deque
from multiprocessing.connection import Connection, Pipe, wait
from typing import Callable, Dict, Iterable, Iterator, List, Optional, TypeVar

_Item = TypeVar("_Item")
_Result = TypeVar("_Result")

#: Seconds a request waits for the serving loop to replace dead
#: children when none is left, before it answers with an error.
REPLACE_TIMEOUT = 30.0


class PoolChildDied(RuntimeError):
    """A pool child exited while it owed a result (-> a 500 on /run)."""


class _Child:
    __slots__ = ("pid", "conn")

    def __init__(self, pid: int, conn: Connection):
        self.pid = pid
        self.conn = conn


class ForkPool:
    """``workers`` forked children running work units (see module doc).

    Construct it from the main thread before any other thread starts;
    the children are forked on the spot.
    """

    def __init__(self, workers: int):
        if workers < 1:
            raise ValueError(f"a pool needs at least one child, got {workers}")
        self.workers = workers
        self._children: Dict[int, _Child] = {}
        self._idle: List[_Child] = []
        self._condition = threading.Condition()
        self._stopped = False
        self.replenish()

    @classmethod
    def for_this_process(cls) -> Optional["ForkPool"]:
        """One child per allowed core; None when one core (run inline)
        or where the platform cannot say or cannot fork."""
        if not hasattr(os, "sched_getaffinity") or not hasattr(os, "fork"):
            return None
        cores = len(os.sched_getaffinity(0))
        return cls(cores) if cores > 1 else None

    def replenish(self) -> None:
        """Reap idle children that exited; fork until ``workers`` live.

        Main thread only (see the module doc).  Cheap when the pool is
        whole, so the serving loop calls it after every request.
        """
        with self._condition:
            if self._stopped:
                return
            for child in list(self._idle):
                if _exited(child.pid):
                    self._idle.remove(child)
                    self._forget(child)
            while len(self._children) < self.workers:
                child = self._fork()
                self._children[child.pid] = child
                self._idle.append(child)
                self._condition.notify_all()

    def _fork(self) -> _Child:
        ours, theirs = Pipe()
        pid = os.fork()
        if pid == 0:  # pragma: no cover -- the child; coverage runs in the parent
            status = 1
            try:
                ours.close()
                for sibling in self._children.values():
                    sibling.conn.close()
                _serve(theirs)
                status = 0
            finally:
                os._exit(status)
        theirs.close()
        return _Child(pid, ours)

    def imap(
        self, fn: Callable[[_Item], _Result], items: Iterable[_Item]
    ) -> Iterator[_Result]:
        """Yield ``fn(item)`` for every item as children finish them.

        Takes every idle child it can use (at least one, waiting for
        it) and keeps each busy until the items run out.  A child's
        exception re-raises here; a child's death raises
        :class:`PoolChildDied`.  Leaving early -- an error or a closed
        generator -- first collects the results still owed, so every
        child goes back idle with nothing in flight.
        """
        pending = deque(items)
        busy: Dict[Connection, _Child] = {}
        try:
            while pending or busy:
                if pending:
                    for child in self._take(len(pending), wait_for_one=not busy):
                        self._send(child, (fn, pending.popleft()))
                        busy[child.conn] = child
                for conn in wait(list(busy)):
                    ok, value = self._receive(busy.pop(conn))
                    if not ok:
                        raise value
                    yield value
        finally:
            for child in busy.values():
                try:
                    self._receive(child)
                except PoolChildDied:
                    pass

    def _take(self, wanted: int, wait_for_one: bool) -> List[_Child]:
        with self._condition:
            while wait_for_one and not self._idle:
                if self._stopped:
                    raise PoolChildDied("the pool is shut down")
                if self._children:
                    self._condition.wait()
                elif not self._condition.wait(REPLACE_TIMEOUT):
                    raise PoolChildDied(
                        f"no pool child came back within {REPLACE_TIMEOUT:g} s"
                    )
            taken, self._idle = self._idle[:wanted], self._idle[wanted:]
            return taken

    def _send(self, child: _Child, task: tuple) -> None:
        try:
            child.conn.send(task)
        except OSError:
            pass  # it died; the receive that follows reports it

    def _receive(self, child: _Child) -> tuple:
        """The child's ``(ok, value)``; back to idle, or buried if dead."""
        try:
            result = child.conn.recv()
        except (EOFError, OSError):
            with self._condition:
                self._forget(child)
            raise PoolChildDied(
                f"pool child {child.pid} died mid-task ({_reap(child.pid)})"
            ) from None
        with self._condition:
            if child.pid in self._children:
                self._idle.append(child)
                self._condition.notify_all()
        return result

    def _forget(self, child: _Child) -> None:
        """Drop a child from the pool (caller holds the lock)."""
        if self._children.pop(child.pid, None) is not None:
            child.conn.close()
            self._condition.notify_all()

    def stop(self) -> None:
        """Terminate every child, then join them all (idempotent)."""
        with self._condition:
            self._stopped = True
            children = list(self._children.values())
            self._idle = []
            for child in children:
                self._forget(child)
        for child in children:
            try:
                os.kill(child.pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
        for child in children:
            _reap(child.pid)

    def __repr__(self) -> str:
        return f"ForkPool(workers={self.workers})"


def _serve(conn: Connection) -> None:  # pragma: no cover -- runs in the child
    """A child's loop: run each task until the parent's end closes."""
    # the daemon owns Ctrl-C and stops the pool itself; SIGTERM from
    # it must end a child at once, whatever handler the fork copied
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    # a replacement is forked while the daemon's handler threads run,
    # and one of them may have held stderr's lock at that instant:
    # warnings from this child go through a stream of its own
    sys.stderr = open(2, "w", closefd=False)
    while True:
        try:
            fn, item = conn.recv()
        except (EOFError, OSError):
            return
        try:
            result = (True, fn(item))
        except Exception as exc:  # noqa: BLE001 -- re-raised in the parent
            result = (False, exc)
        try:
            conn.send(result)
        except Exception as exc:  # noqa: BLE001 -- an unpicklable result or exception
            conn.send((False, RuntimeError(f"{type(exc).__name__}: {exc}")))


def _exited(pid: int) -> bool:
    """True (and reaped) when child ``pid`` has exited."""
    try:
        return os.waitpid(pid, os.WNOHANG)[0] != 0
    except ChildProcessError:
        return True


def _reap(pid: int) -> str:
    """Wait for child ``pid``; how it ended, in words."""
    try:
        _, status = os.waitpid(pid, 0)
    except ChildProcessError:
        return "already reaped"
    if os.WIFSIGNALED(status):
        return f"killed by signal {os.WTERMSIG(status)}"
    return f"exit status {os.waitstatus_to_exitcode(status)}"
