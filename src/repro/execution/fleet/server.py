"""``FleetServer``: the coordinator side of the distributed sweep fleet.

The coordinator owns the listening socket.  Persistent workers dial in
(``spnn-repro worker --connect HOST:PORT``) and stay connected across
requests; the local :class:`~repro.execution.fleet.backend.FleetBackend`
enqueues one **request** per ``Backend.map`` call.  Requests are served
strictly FIFO; within the active request, chunks are pulled dynamically by
whichever worker link is idle (the chunk *plan* itself was already fixed
caller-side by ``plan_chunk_size``, so dynamic pull only changes who
evaluates a chunk, never what it contains), and results are reassembled in
task order — the same determinism contract every other backend keeps.

Artifact flow: a request names the spec-hash digests it ``requires``; each
worker link pushes only the blobs that link has not already sent
(tracked per connection), so a warm repeat request transfers nothing but
the hashes inside its ~300-byte chunk tasks.  Per-request transfer totals
land in :attr:`FleetServer.request_log` — the numbers the cold/warm tests
and the ``artifact_cache_hit`` benchmark assert on.

Failure semantics are bounded, never hanging: a worker that dies
mid-request has its in-flight chunk requeued to the survivors; when no
workers remain — or the request's deadline passes — the request fails with
a :class:`FleetRequestError` naming the situation.

This module is numpy-free (enforced by ``tools/check_numpy_seam.py``).
"""

from __future__ import annotations

import socket
import threading
import time
from collections import deque
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .cache import artifact_store
from .protocol import (
    ConnectionClosed,
    format_address,
    parse_address,
    recv_frame,
    send_frame,
)

__all__ = ["FleetRequestError", "FleetServer"]


class FleetRequestError(RuntimeError):
    """A fleet request could not complete (disconnects, timeout, remote error)."""


class _WorkerLink:
    """One connected worker: its socket, identity, and per-link send state."""

    def __init__(self, sock: socket.socket, hello: dict):
        self.sock = sock
        self.host = str(hello.get("host", "?"))
        self.pid = int(hello.get("pid", -1))
        self.sent_digests: set = set()
        self.request_id: Optional[int] = None
        self.lock = threading.Lock()

    @property
    def name(self) -> str:
        return f"{self.host}/pid {self.pid}"


class _Request:
    """One ``map`` call: tasks, result slots, transfer stats, deadline."""

    def __init__(
        self,
        request_id: int,
        fn: Callable[[Any], Any],
        tasks: Sequence[Any],
        required: Tuple[str, ...],
        deadline: Optional[float],
        condition: threading.Condition,
    ):
        self.id = request_id
        self.fn = fn
        self.tasks = list(tasks)
        self.required = tuple(required)
        self.deadline = deadline
        self._condition = condition
        self.pending: deque = deque(range(len(self.tasks)))
        self.results: List[Any] = [None] * len(self.tasks)
        self.done: List[bool] = [False] * len(self.tasks)
        self.completed = 0
        self.error: Optional[BaseException] = None
        self.stats: Dict[str, int] = {
            "tasks": len(self.tasks),
            "task_bytes": 0,
            "fn_bytes": 0,
            "artifacts_sent": 0,
            "artifact_bytes": 0,
            "requeues": 0,
        }

    @property
    def finished(self) -> bool:
        return self.error is not None or self.completed == len(self.tasks)

    # Called with the server condition held. ---------------------------------
    def post(self, index: int, result: Any) -> None:
        if not self.done[index]:
            self.results[index] = result
            self.done[index] = True
            self.completed += 1

    def fail(self, error: BaseException) -> None:
        if self.error is None:
            self.error = error

    def requeue(self, index: int) -> None:
        if not self.done[index]:
            self.pending.appendleft(index)
            self.stats["requeues"] += 1


class FleetServer:
    """Socket coordinator: accepts workers, schedules FIFO requests."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(64)
        # Poll instead of blocking forever: a thread stuck in accept() is
        # not woken by close(), and once the fd number is recycled a stale
        # accept retry can steal connections meant for a newer coordinator.
        self._listener.settimeout(0.25)
        self._host = host
        self._port = int(self._listener.getsockname()[1])
        self._condition = threading.Condition()
        self._links: List[_WorkerLink] = []
        self._queue: deque = deque()
        self._next_request_id = 1
        self._closed = False
        #: Transfer stats of every finished request, in completion order.
        self.request_log: List[dict] = []
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="fleet-accept", daemon=True
        )
        self._accept_thread.start()

    # ------------------------------------------------------------------ #
    # public surface
    # ------------------------------------------------------------------ #
    @property
    def address(self) -> str:
        """The bound ``HOST:PORT`` workers should ``--connect`` to."""
        return format_address(self._host, self._port)

    @property
    def worker_count(self) -> int:
        with self._condition:
            return len(self._links)

    def worker_names(self) -> List[str]:
        with self._condition:
            return [link.name for link in self._links]

    def wait_for_workers(self, count: int, timeout: float = 60.0) -> None:
        """Block until ``count`` workers are connected (or raise)."""
        deadline = time.monotonic() + timeout
        with self._condition:
            while len(self._links) < count:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise FleetRequestError(
                        f"waited {timeout:.0f}s for {count} fleet worker(s) at "
                        f"{self.address}; only {len(self._links)} connected — start "
                        f"workers with: spnn-repro worker --connect {self.address}"
                    )
                self._condition.wait(min(remaining, 0.2))

    def enqueue(
        self,
        fn: Callable[[Any], Any],
        tasks: Sequence[Any],
        required: Tuple[str, ...] = (),
        timeout: Optional[float] = None,
    ) -> "_Request":
        """Append one request to the FIFO queue; results stream via ``iter_results``."""
        with self._condition:
            if self._closed:
                raise FleetRequestError("the fleet coordinator is closed")
            request = _Request(
                self._next_request_id,
                fn,
                tasks,
                required,
                time.monotonic() + timeout if timeout is not None else None,
                self._condition,
            )
            self._next_request_id += 1
            self._queue.append(request)
            self._condition.notify_all()
        return request

    def iter_results(self, request: "_Request") -> Iterator[Any]:
        """Yield ``request``'s results in task order as they complete.

        Raises :class:`FleetRequestError` on worker-side failure, total
        disconnection, or deadline expiry — never hangs.
        """
        for index in range(len(request.tasks)):
            with self._condition:
                while not request.done[index]:
                    if request.error is not None:
                        self._retire(request)
                        raise FleetRequestError(str(request.error)) from request.error
                    if request.deadline is not None and time.monotonic() > request.deadline:
                        request.fail(
                            FleetRequestError(
                                f"fleet request {request.id} timed out with "
                                f"{request.completed}/{len(request.tasks)} chunks done "
                                f"and {len(self._links)} worker(s) connected"
                            )
                        )
                        continue
                    if not self._links and request.pending:
                        # No workers and work outstanding: fail fast rather
                        # than sleeping until the deadline.
                        request.fail(
                            FleetRequestError(
                                f"fleet request {request.id} has no connected workers "
                                f"({request.completed}/{len(request.tasks)} chunks done) "
                                f"— start workers with: spnn-repro worker --connect "
                                f"{self.address}"
                            )
                        )
                        continue
                    self._condition.wait(0.05)
            yield request.results[index]
        with self._condition:
            self._retire(request)

    def close(self) -> None:
        """Shut the coordinator down: close the listener and every link."""
        with self._condition:
            if self._closed:
                return
            self._closed = True
            links = list(self._links)
            self._condition.notify_all()
        for link in links:
            try:
                link.sock.close()
            except OSError:  # pragma: no cover
                pass
        # The accept thread owns the listener fd (see _accept_loop); wait
        # for it to observe the closed flag — at most one poll interval —
        # so the port is really released when close() returns.
        self._accept_thread.join(timeout=5.0)

    def __enter__(self) -> "FleetServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _retire(self, request: "_Request") -> None:
        # Condition held.  Log once, drop from the queue.
        if request in self._queue:
            self._queue.remove(request)
            entry = dict(request.stats)
            entry["id"] = request.id
            entry["error"] = str(request.error) if request.error is not None else None
            self.request_log.append(entry)

    def _accept_loop(self) -> None:
        # This thread is the listener fd's sole owner after construction —
        # closing an fd another thread is blocked accepting on does not
        # wake it on Linux, and a stale accept retry on a recycled fd
        # number would steal connections meant for a newer coordinator.
        # So the loop polls (0.25s listener timeout), exits on the closed
        # flag, and closes the listener itself on the way out.
        while True:
            sock = None
            try:
                sock, _ = self._listener.accept()
            except TimeoutError:
                pass
            except OSError:  # pragma: no cover - listener failed
                break
            with self._condition:
                closed = self._closed
            if closed:
                if sock is not None:
                    try:
                        sock.close()
                    except OSError:  # pragma: no cover
                        pass
                break
            if sock is not None:
                # Handshake off-thread: one worker slow to say hello must
                # not block the other dialing workers behind it.
                threading.Thread(
                    target=self._handshake,
                    args=(sock,),
                    name="fleet-handshake",
                    daemon=True,
                ).start()
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - already closed
            pass

    def _handshake(self, sock: socket.socket) -> None:
        """Read one connection's hello; register the link and serve it."""
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(30.0)
            hello = recv_frame(sock)
            sock.settimeout(None)
            if not isinstance(hello, dict) or hello.get("role") != "worker":
                sock.close()
                return
        except (ConnectionClosed, OSError):
            try:
                sock.close()
            except OSError:  # pragma: no cover
                pass
            return
        link = _WorkerLink(sock, hello)
        with self._condition:
            if self._closed:
                sock.close()
                return
            self._links.append(link)
            self._condition.notify_all()
        threading.current_thread().name = f"fleet-link-{link.pid}"
        self._serve_link(link)

    def _active_request(self) -> Optional["_Request"]:
        # Condition held.  The FIFO head stays active until it finishes.
        while self._queue and self._queue[0].finished:
            self._retire(self._queue[0])
        return self._queue[0] if self._queue else None

    def _claim(self, link: _WorkerLink) -> Optional[Tuple["_Request", int]]:
        """Block until a chunk of the active request is available (or shutdown)."""
        with self._condition:
            while True:
                if self._closed or link not in self._links:
                    return None
                request = self._active_request()
                if request is not None and request.pending:
                    index = request.pending.popleft()
                    return request, index
                self._condition.wait(0.1)

    def _serve_link(self, link: _WorkerLink) -> None:
        """One worker's send/recv loop: artifacts + fn once, then chunks."""
        while True:
            claimed = self._claim(link)
            if claimed is None:
                return
            request, index = claimed
            try:
                if link.request_id != request.id:
                    self._send(
                        link, request, "fn_bytes",
                        {"type": "request", "id": request.id, "fn": request.fn,
                         "required": request.required},
                    )
                    link.request_id = request.id
                for digest in request.required:
                    if digest not in link.sent_digests:
                        self._push_artifact(link, request, digest)
                reply = self._send_task(link, request, index)
                with self._condition:
                    if reply.get("type") == "result":
                        request.post(index, reply["payload"])
                    else:
                        request.fail(
                            FleetRequestError(
                                f"worker {link.name} failed chunk {index}: "
                                f"{reply.get('message', 'unknown error')}"
                            )
                        )
                    self._condition.notify_all()
            except (ConnectionClosed, OSError) as error:
                self._drop_link(link, request, index, error)
                return

    def _send(self, link: _WorkerLink, request: "_Request", key: str, frame: dict) -> None:
        """Send ``frame`` to ``link`` and add its wire size to ``request.stats[key]``.

        Links send concurrently, so the sum is taken under the condition:
        a plain ``+=`` around the blocking send would lose one link's bytes
        whenever another link's send overlaps it.
        """
        size = send_frame(link.sock, frame)
        with self._condition:
            request.stats[key] += size

    def _push_artifact(self, link: _WorkerLink, request: "_Request", digest: str) -> None:
        self._send(
            link, request, "artifact_bytes",
            {"type": "artifact", "digest": digest, "payload": artifact_store().get(digest)},
        )
        with self._condition:
            request.stats["artifacts_sent"] += 1
        link.sent_digests.add(digest)

    def _send_task(self, link: _WorkerLink, request: "_Request", index: int) -> dict:
        task = {"type": "task", "id": request.id, "index": index, "payload": request.tasks[index]}
        self._send(link, request, "task_bytes", task)
        while True:
            reply = recv_frame(link.sock)
            if reply.get("type") == "need":
                # The worker's LRU evicted blobs this link already sent:
                # resend them, then the task.
                for digest in reply.get("digests", ()):
                    self._push_artifact(link, request, digest)
                self._send(link, request, "task_bytes", task)
                continue
            return reply

    def _drop_link(
        self,
        link: _WorkerLink,
        request: Optional["_Request"],
        index: Optional[int],
        error: BaseException,
    ) -> None:
        with self._condition:
            if link in self._links:
                self._links.remove(link)
            if request is not None and index is not None and not request.done[index]:
                if self._links:
                    request.requeue(index)
                else:
                    request.fail(
                        FleetRequestError(
                            f"worker {link.name} disconnected mid-request "
                            f"({type(error).__name__}) and no workers remain "
                            f"connected; chunk {index} of request {request.id} "
                            f"is unrecoverable"
                        )
                    )
            self._condition.notify_all()
        try:
            link.sock.close()
        except OSError:  # pragma: no cover
            pass
