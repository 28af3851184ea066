"""``FleetBackend``: the network execution backend (Backend protocol).

Drop-in for ``SerialBackend``/``MultiprocessBackend`` anywhere a backend
is accepted: ``parallelism`` is the number of connected persistent
workers (so ``plan_chunk_size`` plans exactly as it does for a local pool
of that size) and ``map`` ships the planned chunks over the coordinator's
sockets, reassembling results in task order.  Bit-identity for any fleet
size and cache state follows from the same two facts as every prior
backend: the chunk payloads are self-contained (streams pre-spawned
parent-side, ``StreamSlice`` recipes rebuild bit-identical generators)
and reassembly is by task index, never completion order.

What makes the fleet cheap to talk to is the **dehydration** step in
:meth:`FleetBackend.map`: each chunk's trial — the per-chunk-invariant
bulk of the payload — is content-addressed into the artifact cache and
replaced by a :class:`~repro.execution.fleet.cache.TrialRef`, so the wire
task is ``(start, TrialRef, StreamSlice)``.  Combined with the
host-or-reference hosting path (:meth:`host_eval_arrays` /
:meth:`host_network`, which the ``shared_eval_arrays``/``shared_network``
seam delegates to), a repeat request over the same spec pushes **zero**
artifact bytes — only hashes travel.

Unlike ``MultiprocessBackend``'s pool, the coordinator is deliberately
*persistent across requests* (that is the whole point of the cache), so
``pool_scope``'s enter/exit keeps it alive; call :meth:`close` (or use
:func:`local_fleet`) for deterministic teardown.

This module is numpy-free (enforced by ``tools/check_numpy_seam.py``).
"""

from __future__ import annotations

import os
import subprocess
import sys
from contextlib import contextmanager
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

from ...observability.recorder import active as _active_recorder
from .cache import iter_refs, publish_array, publish_network, publish_trial
from .server import FleetServer

__all__ = ["FLEET_ADDRESS_ENV", "FleetBackend", "local_fleet"]

#: Environment default for ``resolve_backend("fleet")`` / ``--backend fleet``
#: runs that do not pass an explicit ``--fleet HOST:PORT`` bind address.
FLEET_ADDRESS_ENV = "REPRO_FLEET_ADDRESS"


def default_fleet_address() -> str:
    """The coordinator bind address when none is configured explicitly."""
    return os.environ.get(FLEET_ADDRESS_ENV, "127.0.0.1:0")


class FleetBackend:
    """Schedule chunk tasks over a persistent socket-connected worker fleet.

    Parameters
    ----------
    address:
        ``HOST:PORT`` the coordinator binds (port 0 picks an ephemeral
        port; read the bound one back from :attr:`address`).  Workers dial
        it via ``spnn-repro worker --connect HOST:PORT``.
    min_workers:
        How many connected workers to wait for before scheduling; also the
        floor of :attr:`parallelism` during planning, so the chunk plan is
        stable even while stragglers are still dialing in.
    timeout:
        Per-request deadline — a request never hangs longer than this.
    connect_timeout:
        How long to wait for ``min_workers`` workers at first use.
    """

    #: The fleet always crosses a process (and possibly machine) boundary,
    #: whatever its size — stream payloads should compress to recipes.
    remote = True

    def __init__(
        self,
        address: Optional[str] = None,
        min_workers: int = 1,
        timeout: float = 300.0,
        connect_timeout: float = 60.0,
        server: Optional[FleetServer] = None,
    ):
        if min_workers < 1:
            raise ValueError(f"min_workers must be >= 1, got {min_workers}")
        self._address = address if address is not None else default_fleet_address()
        self.min_workers = int(min_workers)
        self.timeout = float(timeout)
        self.connect_timeout = float(connect_timeout)
        self._server = server
        self._ready = False

    # ------------------------------------------------------------------ #
    # coordinator lifetime
    # ------------------------------------------------------------------ #
    @property
    def server(self) -> FleetServer:
        """The coordinator (bound lazily on first use)."""
        if self._server is None:
            from .protocol import parse_address

            host, port = parse_address(self._address)
            self._server = FleetServer(host=host, port=port)
        return self._server

    @property
    def address(self) -> str:
        """The coordinator's bound ``HOST:PORT`` (resolves port 0)."""
        return self.server.address

    def wait_for_workers(self, count: Optional[int] = None, timeout: Optional[float] = None) -> None:
        self.server.wait_for_workers(
            count if count is not None else self.min_workers,
            timeout=timeout if timeout is not None else self.connect_timeout,
        )

    def _ensure_ready(self) -> None:
        if not self._ready:
            self.wait_for_workers()
            self._ready = True

    def close(self) -> None:
        """Shut the coordinator down (workers exit when the socket closes)."""
        if self._server is not None:
            self._server.close()

    # ``pool_scope`` enters backends around sweeps; the fleet is persistent
    # by design (cross-request cache), so scope entry/exit never tears the
    # coordinator down — ``close()`` does.
    def __enter__(self) -> "FleetBackend":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def __repr__(self) -> str:  # pragma: no cover - repr formatting
        bound = self._server.address if self._server is not None else self._address
        return f"FleetBackend(address={bound!r}, min_workers={self.min_workers})"

    # ------------------------------------------------------------------ #
    # Backend protocol
    # ------------------------------------------------------------------ #
    @property
    def parallelism(self) -> int:
        self._ensure_ready()
        return max(self.min_workers, self.server.worker_count, 1)

    def map(self, fn: Callable[[Any], Any], tasks: Sequence[Any]) -> List[Any]:
        from ..backends import gather_with_heartbeat

        self._ensure_ready()
        tasks = list(tasks)
        if not tasks:
            return []
        prepared, required = _dehydrate_tasks(tasks)
        request = self.server.enqueue(fn, prepared, required, timeout=self.timeout)
        return gather_with_heartbeat(
            "fleet", self.server.iter_results(request), len(prepared)
        )

    # ------------------------------------------------------------------ #
    # host-or-reference seam (what shared_eval_arrays/shared_network call)
    # ------------------------------------------------------------------ #
    @contextmanager
    def host_eval_arrays(self, *arrays) -> Iterator[Tuple[Any, ...]]:
        """Content-address the eval arrays; yield refs for the sweep's trials.

        The counterpart of shared-memory hosting: the blobs stay in the
        coordinator's store (pushed per worker link at most once) and the
        refs inside the trials weigh a digest each.  Nothing to unlink on
        exit — eviction is the store's LRU concern.
        """
        with _active_recorder().span("fleet/host_arrays", segments=len(arrays)) as span:
            refs = tuple(publish_array(array) for array in arrays)
            span.set("bytes", sum(ref.nbytes for ref in refs))
        yield refs

    @contextmanager
    def host_network(self, spnn) -> Iterator[Any]:
        """Content-address a compiled network's tuned parameters; yield its ref."""
        with _active_recorder().span("fleet/host_network") as span:
            ref = publish_network(spnn)
            span.set("digest", ref.digest)
        yield ref

    # ------------------------------------------------------------------ #
    # diagnostics
    # ------------------------------------------------------------------ #
    @property
    def request_log(self) -> List[dict]:
        """Per-request transfer stats (see ``FleetServer.request_log``)."""
        return self.server.request_log


def _dehydrate_tasks(tasks: List[Any]) -> Tuple[List[Any], Tuple[str, ...]]:
    """Replace each chunk task's trial with a :class:`TrialRef`; collect deps.

    Chunk tasks across the engine share the ``(start, trial, streams)``
    layout; anything else passes through untouched (its nested refs are
    still collected so the coordinator pushes their blobs).  Identical
    trials dedupe to one digest — for a plain Monte Carlo run the whole
    request then ships one trial blob plus per-chunk seed recipes.
    """
    required: dict = {}  # insertion-ordered digest set
    prepared: List[Any] = []
    for task in tasks:
        if (
            isinstance(task, tuple)
            and len(task) == 3
            and isinstance(task[0], int)
            and callable(task[1])
        ):
            ref, deps = publish_trial(task[1])
            for digest in deps:
                required.setdefault(digest, None)
            required.setdefault(ref.digest, None)
            prepared.append((task[0], ref, task[2]))
        else:
            for nested in iter_refs(task):
                required.setdefault(nested.digest, None)
            prepared.append(task)
    return prepared, tuple(required)


@contextmanager
def local_fleet(
    workers: int = 2,
    address: str = "127.0.0.1:0",
    timeout: float = 300.0,
    connect_timeout: float = 60.0,
    via_cli: bool = False,
) -> Iterator[FleetBackend]:
    """A localhost fleet: coordinator plus ``workers`` worker processes.

    The one-liner behind the tests, the example and the CI smoke job::

        with local_fleet(workers=2) as fleet:
            sweep = yield_sweep(..., backend=fleet)

    ``via_cli=True`` launches real ``python -m repro.cli worker --connect``
    subprocesses (exercising the CLI entry point end to end); the default
    uses ``multiprocessing`` children, which start faster.  Teardown closes
    the coordinator — the workers see EOF and exit — then reaps the
    processes.
    """
    backend = FleetBackend(
        address=address, min_workers=workers, timeout=timeout,
        connect_timeout=connect_timeout,
    )
    bound = backend.address  # bind before the workers dial
    processes: List[Any] = []
    try:
        if via_cli:
            for _ in range(workers):
                processes.append(
                    subprocess.Popen(
                        [sys.executable, "-m", "repro.cli", "worker", "--connect", bound],
                        stdout=subprocess.DEVNULL,
                        stderr=subprocess.DEVNULL,
                    )
                )
        else:
            import multiprocessing

            method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
            context = multiprocessing.get_context(method)
            for _ in range(workers):
                process = context.Process(
                    target=_worker_entry, args=(bound,), daemon=True
                )
                process.start()
                processes.append(process)
        backend.wait_for_workers(workers)
        yield backend
    finally:
        backend.close()
        for process in processes:
            try:
                if hasattr(process, "join"):
                    process.join(timeout=10)
                    if process.is_alive():  # pragma: no cover - stuck worker
                        process.terminate()
                        process.join(timeout=5)
                else:
                    process.wait(timeout=10)
            except Exception:  # pragma: no cover - teardown is best effort
                try:
                    process.kill()
                except Exception:
                    pass


def _worker_entry(address: str) -> None:
    """Module-level multiprocessing target for :func:`local_fleet` workers."""
    from .worker import run_worker

    run_worker(address)
