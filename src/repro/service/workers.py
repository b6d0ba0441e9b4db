"""Forked evaluation workers, driven by the server's own event loop.

:class:`WorkerPool` is the service's process executor.  Each of its
``jobs`` workers is a forked child on its own socketpair.  A call goes
out as one length-prefixed pickle frame, ``(fn, args)``, and comes
back as one, ``(ok, value)``.  The loop sends a request without
blocking (the tail of a large one goes out from a writer callback) and
reads replies from a reader callback that buffers a partly written
frame instead of waiting for the rest; tune replies reach hundreds of
KB.  Calls that find no idle worker wait in one FIFO queue.  No helper
thread, wakeup pipe or GIL hand-off sits between a request and its
worker, unlike the process pool of :mod:`concurrent.futures`, whose
queue-manager and feeder threads cost every call CPU time and took the
GIL from the loop.

Each worker's socket stays registered for reading, so a worker that
dies is noticed at once, idle or busy: its socket reads EOF.  The pool
reaps it, fails the call it was running with
:class:`~repro.service.protocol.WorkerLost` (HTTP 503 with
``Retry-After``), forks a replacement, and counts ``worker_lost`` and
``worker_restarts``.  A call that had not yet reached the dead worker
waits for the next one instead.

Workers are forked, not spawned: they start with every module already
imported, so the server's start-up round trip stays cheap.  A worker
may be forked after the server's listener and signal handlers exist,
so right after the fork it

* resets the inherited signal wakeup fd and handlers: SIGTERM kills
  it, and it ignores SIGINT, which a terminal sends the whole process
  group while the server drains and still wants the worker's result;
* closes every inherited descriptor but its own socket and stdio: the
  listening socket, client connections, its siblings' sockets and the
  loop's self-pipe;
* freezes the objects it inherited out of the garbage collector, so a
  collection never finalises a parent object whose descriptor number
  the worker has since reused.

It then serves frames until its socket reads EOF and leaves through
``os._exit``, never unwinding into the parent's stack.  A job that
raises comes back as its exception, with the worker's formatted
traceback attached as a note (``add_note``; a traceback does not
pickle), so the server's log of a 500 names the frame that raised.
"""

from __future__ import annotations

import asyncio
import gc
import os
import pickle
import signal
import socket
import struct
import traceback
from collections import deque
from typing import Any, Callable, Deque, List, Optional, Tuple

from .protocol import WorkerLost

#: Frame header: the byte length of the pickle that follows.
_HEADER = struct.Struct("!Q")
_PROTOCOL = pickle.HIGHEST_PROTOCOL
#: Bytes one read takes off a worker's socket at most.
_RECV_BYTES = 64 * 1024
#: Seconds :meth:`WorkerPool.close` lets idle workers exit on EOF
#: before it kills them.
_EXIT_GRACE_S = 5.0


class _Worker:
    """The parent's end of one worker."""

    __slots__ = ("pid", "sock", "inbox", "outbox", "future")

    def __init__(self, pid: int, sock: socket.socket) -> None:
        self.pid = pid
        self.sock = sock
        #: The part of a reply frame read so far.
        self.inbox = bytearray()
        #: The unsent tail of a request frame the socket could not take.
        self.outbox: Optional[memoryview] = None
        #: The call the worker is running; None while it is idle.
        self.future: Optional[asyncio.Future] = None


class WorkerPool:
    """``jobs`` forked workers with one FIFO queue of waiting calls."""

    def __init__(self, jobs: int, metrics: Optional[Any] = None) -> None:
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        self.jobs = jobs
        #: Counter sink (anything with ``count(name)``).
        self.metrics = metrics
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._workers: List[_Worker] = []
        self._idle: List[_Worker] = []
        self._queue: Deque[Tuple[bytes, asyncio.Future]] = deque()
        self._closed = False

    @property
    def pids(self) -> List[int]:
        return [worker.pid for worker in self._workers]

    def start(self) -> None:
        """Fork the workers; call it on the loop that will drive them."""
        self._loop = asyncio.get_running_loop()
        for _ in range(self.jobs):
            self._spawn()

    async def call(self, fn: Callable[..., Any], *args: Any) -> Any:
        """``fn(*args)`` in a worker: its result, or the exception it
        raised, or :class:`WorkerLost` if the worker died running it."""
        if len(self._workers) < self.jobs:
            self._refill()
        if not self._workers:
            raise WorkerLost("no pool worker could be forked", 1.0)
        body = pickle.dumps((fn, args), _PROTOCOL)
        future = self._loop.create_future()
        self._queue.append((_HEADER.pack(len(body)) + body, future))
        self._dispatch()
        return await future

    async def close(self) -> None:
        """Stop and reap every worker.  Idle workers exit on EOF; a busy
        one runs a job the server gave up on, so it is killed."""
        self._closed = True
        stopping = list(self._workers)
        for worker in stopping:
            self._detach(worker)
            if worker.future is not None:
                _kill(worker.pid)
                _fail(worker.future, "the pool closed")
        while self._queue:
            _fail(self._queue.popleft()[1], "the pool closed")
        deadline = self._loop.time() + _EXIT_GRACE_S
        pids = [worker.pid for worker in stopping]
        while pids and self._loop.time() < deadline:
            pids = [pid for pid in pids if not _reaped(pid)]
            if pids:
                await asyncio.sleep(0.005)
        for pid in pids:
            _kill(pid)
            _reap(pid)

    # -- workers -----------------------------------------------------------

    def _spawn(self) -> None:
        parent, child = socket.socketpair()
        try:
            pid = os.fork()
        except OSError:
            parent.close()
            child.close()
            raise
        if pid == 0:
            _worker_main(child)  # never returns
        child.close()
        parent.setblocking(False)
        worker = _Worker(pid, parent)
        self._workers.append(worker)
        self._idle.append(worker)
        self._loop.add_reader(parent.fileno(), self._on_readable, worker)

    def _refill(self) -> None:
        """Fork replacements up to ``jobs``; a fork that fails is tried
        again by the next call."""
        while len(self._workers) < self.jobs and not self._closed:
            try:
                self._spawn()
            except OSError:
                return
            self._count("worker_restarts")

    def _detach(self, worker: _Worker) -> None:
        fd = worker.sock.fileno()
        self._loop.remove_reader(fd)
        if worker.outbox is not None:
            self._loop.remove_writer(fd)
        worker.sock.close()
        self._workers.remove(worker)
        if worker in self._idle:
            self._idle.remove(worker)

    def _lost(self, worker: _Worker) -> None:
        """Reap a worker whose socket read EOF, fail its call and fork
        its replacement."""
        self._detach(worker)
        _kill(worker.pid)
        _reap(worker.pid)
        self._count("worker_lost")
        if worker.future is not None:
            _fail(worker.future,
                  f"pool worker {worker.pid} died running the job; retry")
        self._refill()
        if not self._workers:
            while self._queue:
                _fail(self._queue.popleft()[1],
                      "no pool worker could be forked")

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.count(name)

    # -- frames ------------------------------------------------------------

    def _dispatch(self) -> None:
        while self._queue and self._idle:
            frame, future = self._queue.popleft()
            if future.done():  # the caller stopped waiting
                continue
            worker = self._idle.pop()
            if self._send(worker, frame):
                worker.future = future
            else:
                # It died idle: the call never reached it.
                self._queue.appendleft((frame, future))
                self._lost(worker)

    def _send(self, worker: _Worker, frame: bytes) -> bool:
        try:
            sent = worker.sock.send(frame)
        except (BlockingIOError, InterruptedError):
            sent = 0
        except OSError:
            return False
        if sent < len(frame):
            worker.outbox = memoryview(frame)[sent:]
            self._loop.add_writer(
                worker.sock.fileno(), self._on_writable, worker
            )
        return True

    def _on_writable(self, worker: _Worker) -> None:
        try:
            sent = worker.sock.send(worker.outbox)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            sent = len(worker.outbox)  # the reader will see the EOF
        worker.outbox = worker.outbox[sent:]
        if not worker.outbox:
            worker.outbox = None
            self._loop.remove_writer(worker.sock.fileno())

    def _on_readable(self, worker: _Worker) -> None:
        try:
            chunk = worker.sock.recv(_RECV_BYTES)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            chunk = b""
        if not chunk:
            self._lost(worker)
            self._dispatch()
            return
        inbox = worker.inbox
        inbox += chunk
        if len(inbox) < _HEADER.size:
            return
        end = _HEADER.size + _HEADER.unpack_from(inbox)[0]
        if len(inbox) < end:
            return
        # A worker sends one reply per request, so the frame is all
        # the inbox holds.
        worker.inbox = bytearray()
        try:
            ok, value = pickle.loads(memoryview(inbox)[_HEADER.size:end])
        except Exception as error:  # noqa: BLE001 - the caller's fault
            ok, value = False, error
        future, worker.future = worker.future, None
        self._idle.append(worker)
        if future is not None and not future.done():
            if ok:
                future.set_result(value)
            else:
                future.set_exception(value)
        self._dispatch()


def _fail(future: asyncio.Future, message: str) -> None:
    if not future.done():
        future.set_exception(WorkerLost(message, 1.0))


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _reap(pid: int) -> None:
    try:
        os.waitpid(pid, 0)
    except ChildProcessError:
        pass


def _reaped(pid: int) -> bool:
    try:
        return os.waitpid(pid, os.WNOHANG)[0] != 0
    except ChildProcessError:
        return True


# -- the worker side -------------------------------------------------------


def _worker_main(sock: socket.socket) -> None:
    """The forked child: shed inherited state, serve frames on ``sock``
    until EOF, and exit."""
    code = 0
    try:
        gc.freeze()
        signal.set_wakeup_fd(-1)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        keep = sock.fileno()
        os.closerange(3, keep)
        os.closerange(keep + 1, os.sysconf("SC_OPEN_MAX"))
        _serve(sock)
    except BaseException:  # noqa: BLE001 - reported, then the exit
        code = 1
        traceback.print_exc()
    finally:
        os._exit(code)


def _serve(sock: socket.socket) -> None:
    while True:
        head = _recv_exactly(sock, _HEADER.size)
        if head is None:
            return
        body = _recv_exactly(sock, _HEADER.unpack(head)[0])
        if body is None:
            return
        try:
            fn, args = pickle.loads(body)
            reply = pickle.dumps((True, fn(*args)), _PROTOCOL)
        except Exception as error:  # noqa: BLE001 - shipped to the caller
            # A traceback does not pickle, but a note does: the caller's
            # log of the fault then shows where the worker raised it.
            error.add_note(
                f"raised in pool worker {os.getpid()}:\n"
                + traceback.format_exc().rstrip()
            )
            reply = _error_reply(error)
        sock.sendall(_HEADER.pack(len(reply)) + reply)


def _recv_exactly(sock: socket.socket, size: int) -> Optional[bytearray]:
    """``size`` bytes from ``sock``, or None at EOF."""
    buffer = bytearray(size)
    view = memoryview(buffer)
    while view:
        got = sock.recv_into(view)
        if not got:
            return None
        view = view[got:]
    return buffer


def _error_reply(error: Exception) -> bytes:
    try:
        return pickle.dumps((False, error), _PROTOCOL)
    except Exception:  # noqa: BLE001 - an unpicklable exception
        described = RuntimeError(f"{type(error).__name__}: {error}")
        for note in getattr(error, "__notes__", ()):
            described.add_note(note)
        return pickle.dumps((False, described), _PROTOCOL)
