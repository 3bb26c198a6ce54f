"""Supervised worker processes: one owned ``Process`` and one duplex ``Pipe`` each.

The one supervision primitive behind :class:`~repro.engine.ParallelBackend`
and sharded campaigns.  Workers share no lock, queue or helper thread, so a
worker SIGKILLed mid-message tears only its own pipe.  :func:`wait` blocks on
every pipe and process sentinel at once — a message or a death wakes it, so
supervision never polls — and raises
:class:`~repro.faults.errors.DispatchTimeoutError` when nothing happens in
time.  A target runs as ``target(conn, *args)`` and should return when it
receives ``None``.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from multiprocessing import connection
from typing import Any, Callable, Hashable, List, NamedTuple, Optional, Sequence

from repro.faults.errors import DispatchTimeoutError

#: ``fork`` where available (cheap startup, inherited imports), else the default
START_METHOD = (
    "fork"
    if "fork" in multiprocessing.get_all_start_methods()
    else multiprocessing.get_all_start_methods()[0]
)


class Worker:
    """One supervised process plus the parent's end of its pipe."""

    def __init__(self, key: Hashable, process: Any, conn: Any) -> None:
        self.key, self.process, self.conn = key, process, conn
        self.pid: int = process.pid
        self.exitcode: Optional[int] = None  # set once reaped

    def send(self, message: Any) -> None:
        """Ship ``message``; dropped if the worker is dead (:func:`wait` reports that)."""
        try:
            self.conn.send(message)
        except OSError:
            pass

    def kill(self) -> None:
        """SIGCONT (a stopped worker must be able to die) + SIGKILL + join; idempotent."""
        if self.exitcode is not None:
            return
        if self.process.exitcode is None:
            try:
                os.kill(self.pid, signal.SIGCONT)
                os.kill(self.pid, signal.SIGKILL)
            except ProcessLookupError:  # pragma: no cover - reaped by another thread
                pass
        self.process.join()
        self.exitcode = self.process.exitcode
        self.conn.close()


class Event(NamedTuple):
    """One observation from :func:`wait`: a message, or the worker's death."""

    worker: Worker
    message: Any = None
    died: bool = False


def start(target: Callable[..., None], *args: Any, key: Hashable = None) -> Worker:
    """Start ``target(conn, *args)`` in a daemonic worker process."""
    ctx = multiprocessing.get_context(START_METHOD)
    parent_end, child_end = ctx.Pipe(duplex=True)
    process = ctx.Process(target=target, args=(child_end, *args), daemon=True)
    process.start()
    child_end.close()  # the child's copy must be the last, so its death reads as EOF
    return Worker(key, process, parent_end)


def close(workers: Sequence[Worker], timeout: float) -> None:
    """Ask ``workers`` to stop, join them within ``timeout`` s, kill the rest."""
    for worker in workers:
        if worker.exitcode is None:
            worker.send(None)
    deadline = time.monotonic() + timeout
    for worker in workers:
        if worker.exitcode is None:
            worker.process.join(max(0.0, deadline - time.monotonic()))
            worker.kill()


def wait(workers: Sequence[Worker], timeout: Optional[float] = None) -> List[Event]:
    """Block until one of ``workers`` sends a message or dies.

    Returns each woken worker's readable messages, followed by a ``died``
    event (the worker already reaped) when its pipe hit EOF or it exited.
    """
    if not workers:
        raise ValueError("wait() needs at least one worker")
    owners = {}
    for worker in workers:
        owners[worker.conn] = owners[worker.process.sentinel] = worker
    ready = connection.wait(list(owners), timeout)
    if not ready:
        raise DispatchTimeoutError(f"no worker reported within {timeout:g}s")
    woken = {owners[handle] for handle in ready}
    events: List[Event] = []
    for worker in (w for w in workers if w in woken):
        try:
            while worker.conn.poll():
                events.append(Event(worker, worker.conn.recv()))
            broken = False
        except (EOFError, OSError):
            broken = True
        if broken or not worker.process.is_alive():
            worker.kill()
            events.append(Event(worker, died=True))
    return events


__all__ = ["START_METHOD", "Event", "Worker", "close", "start", "wait"]
