"""CPU execution backends for the Monte Carlo engine.

The paper's methodology multiplies quickly: 1000 uncertainty realizations
per design point, hundreds of design points across EXP 1 / EXP 2 / the yield
sweeps, all evaluated on the host.  This module factors the *scheduling* of
that work out of :class:`~repro.analysis.monte_carlo.MonteCarloRunner` into a
small backend protocol with three implementations, so the same experiment
code runs

* on threads of the calling process (:class:`ThreadBackend`, the default
  whenever the process may use more than one CPU),
* inline on the calling thread (:class:`SerialBackend`, ``workers=1`` — the
  reference every other backend is compared against), or
* sharded across worker processes (:class:`MultiprocessBackend`, stdlib
  :mod:`concurrent.futures`, no extra dependencies).

A failed task stops its ``map``: the parallel backends cancel every task of
that call that has not started yet, then re-raise the error.

**Threads or processes.**  The chunk work is NumPy ufuncs and BLAS calls,
which release the GIL, so threads of one process use the cores without a
second interpreter: memory stays that of one process, and nothing is
pickled.  Worker processes add their own peak memory each.  Both parallel
backends pin the BLAS thread count to ``max(1, budget // workers)`` while
their workers run (:mod:`repro.execution.blas`); unpinned, every worker
would start a full-width BLAS pool and oversubscribe the CPUs.

**Determinism contract.**  A backend never creates randomness and never
reorders results: it receives a list of self-contained task payloads (for
Monte Carlo work: chunk start index + the trial callable + the
``(seed, range)`` recipes of the chunk's child streams) and returns one
result per task *in task order*.  Because the recipes name child streams
of ``SeedSequence.spawn()`` fixed in the parent before any scheduling
happens, the samples are bit-identical for every backend and every worker
count.
Threads share the process, so every piece of scratch the chunk path
reuses (sweep-kernel buffers, the dispatch collector)
is kept per thread.

**Picklability contract.**  Process-based backends pickle the mapped
function and each task payload into the workers, so both must be picklable:
module-level functions, dataclass instances, stream recipes, NumPy arrays
and bound methods of picklable objects all qualify; locally defined
closures do not (the experiment layers therefore expose their trials as
module-level callable dataclasses).  The eval set and the compiled network
need not travel at all: the workers are forked, and a sweep hosts them as
tokens the workers resolve from the memory they inherited
(:mod:`repro.execution.hosting`).
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, List, Optional, Protocol, Sequence, Union, runtime_checkable

from ..exceptions import ConfigurationError
from ..observability.progress import emit_progress, progress_sink
from ..observability.recorder import Stopwatch
from .blas import available_workers, blas_thread_control, blas_threads, pinned_blas_threads, set_blas_threads
from .hosting import hosting_generation


def _map_with_heartbeat(label: str, results: Iterator[Any], total: int) -> List[Any]:
    """Gather ``results`` in order, emitting a progress record per task.

    Backends call this only when a progress sink is installed (the
    disabled path is the untouched list comprehension); ``results`` is a
    lazy iterator, so each heartbeat fires as its task completes.
    """
    watch = Stopwatch()
    gathered: List[Any] = []
    for result in results:
        gathered.append(result)
        emit_progress(
            "chunk", label=label, done=len(gathered), total=total, seconds=watch.seconds
        )
    return gathered


def gather_with_heartbeat(label: str, results: Iterator[Any], total: int) -> List[Any]:
    """Drain a lazy result iterator in order, heartbeating when a sink is set.

    The one gather loop every backend shares: with no progress sink the
    results are drained as a plain list (zero overhead), with one a
    ``chunk``-kind progress record fires per completed task under
    ``label``.  ``results`` must already yield in task order — heartbeats
    never reorder anything.
    """
    if progress_sink() is None:
        return list(results)
    return _map_with_heartbeat(label, results, total)


def _gather_futures(label: str, futures: List[Any]) -> List[Any]:
    """Collect futures in submission order (with heartbeats when sunk).

    On a failed task (or Ctrl-C) every future of this call that has not
    started yet is cancelled before the error propagates, so a failed
    sweep stops instead of running the rest of its queue.  A persistent
    pool stays usable for the next ``map``.
    """
    try:
        return gather_with_heartbeat(label, (future.result() for future in futures), len(futures))
    except BaseException:
        for future in futures:
            future.cancel()
        raise


@runtime_checkable
class Backend(Protocol):
    """Protocol every execution backend implements.

    ``map`` evaluates ``fn`` over ``tasks`` and returns the results in task
    order; ``parallelism`` reports how many tasks may run concurrently (used
    by callers to pick a chunk size — 1 means "do not bother chunking for
    concurrency").

    An optional ``plan_chunk_size(iterations, cap)`` lets the backend pick
    the chunk size for ``iterations`` realizations, at most ``cap`` each
    (``None``: no cap).  Absent, parallel backends get two chunks per
    worker.
    """

    @property
    def parallelism(self) -> int:  # pragma: no cover - protocol definition
        ...

    def map(self, fn: Callable[[Any], Any], tasks: Sequence[Any]) -> List[Any]:  # pragma: no cover
        ...


@dataclass(frozen=True)
class SerialBackend:
    """Evaluate every task inline on the calling thread (the reference)."""

    @property
    def parallelism(self) -> int:
        return 1

    def map(self, fn: Callable[[Any], Any], tasks: Sequence[Any]) -> List[Any]:
        tasks = list(tasks)
        return gather_with_heartbeat("serial", (fn(task) for task in tasks), len(tasks))


@dataclass(frozen=True)
class ThreadBackend:
    """Run tasks on a thread pool inside the calling process.

    ``map`` starts ``min(workers, len(tasks))`` threads, holds the BLAS
    thread count at ``max(1, budget // threads)`` while they run, and
    restores the previous count afterwards; the pool exists only inside
    ``map``.  One task (or ``workers=1``) runs inline, unpinned.  Results
    are gathered in submission order, so ``map`` preserves task order no
    matter which thread finishes first.
    """

    workers: int

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")

    @property
    def parallelism(self) -> int:
        return self.workers

    def plan_chunk_size(self, iterations: int, cap: Optional[int]) -> int:
        """Chunks of at most ``cap``, in a multiple of the threads.

        Every chunk pays a fixed run of small NumPy calls that hold the
        GIL, so the threads keep the serial plan's cap-sized chunks rather
        than splitting finer (nothing is pickled, so there is no payload to
        shrink either).  The chunk count rounds up to a multiple of the
        threads, so none idles at the end; a run that fits one chunk stays
        one chunk and runs inline.
        """
        if cap is None or iterations <= cap:
            return iterations
        chunks = -(-iterations // cap)
        chunks = -(-chunks // self.workers) * self.workers
        return -(-iterations // chunks)

    def map(self, fn: Callable[[Any], Any], tasks: Sequence[Any]) -> List[Any]:
        tasks = list(tasks)
        threads = min(self.workers, len(tasks))
        if threads <= 1:
            return gather_with_heartbeat("thread", (fn(task) for task in tasks), len(tasks))
        with blas_threads(pinned_blas_threads(threads)):
            executor = ThreadPoolExecutor(max_workers=threads, thread_name_prefix="repro-chunk")
            try:
                return _gather_futures("thread", [executor.submit(fn, task) for task in tasks])
            finally:
                # On a failed task (or Ctrl-C) the queued tasks never start.
                executor.shutdown(wait=True, cancel_futures=True)


@dataclass(frozen=True)
class MultiprocessBackend:
    """Shard tasks across worker processes via :class:`ProcessPoolExecutor`.

    Parameters
    ----------
    workers:
        Number of worker processes; ``None`` uses the CPUs available to the
        process.  A value of 1 degenerates to inline execution (no pool is
        created), so ``MultiprocessBackend(workers=1)`` is behaviorally a
        :class:`SerialBackend` — handy for worker-count sweeps.

    Results are gathered in submission order, so ``map`` preserves task
    order no matter which worker finishes first.  Each worker pins BLAS
    to ``max(1, budget // workers)`` threads as it starts.  A failed task
    cancels the tasks of the same ``map`` that have not started.  Workers
    are forked (the ``fork`` start method is pinned; where it does not
    exist the backend raises :class:`~repro.exceptions.ConfigurationError`),
    so they inherit the inputs a sweep hosted before they started.

    **Pool lifetime.**  By default every :meth:`map` call forks a fresh pool
    and tears it down again — safe, but the spin-up plus copy-on-write
    faulting costs ~0.15 s per map, which dominates work made of many
    maps in a row (bisection probes, the per-model sweeps of the
    robustness experiment).  Entering the backend as a context manager
    keeps one pool alive for every ``map`` inside the block::

        with MultiprocessBackend(workers=4) as backend:
            for sigma in sigmas:
                monte_carlo_accuracy(..., backend=backend)

    Pool reuse never changes results (the backend still schedules
    self-contained payloads in task order); it only removes the per-run
    fork overhead.  The context is reentrant: nested ``with`` blocks reuse
    the outermost pool and only the outermost exit shuts it down.  A
    persistent pool whose workers were forked before a newer hosting
    (:func:`~repro.execution.hosting.hosting_generation`) is replaced
    before its next ``map``, so every task's tokens resolve.
    """

    workers: Optional[int] = None
    #: Live executor while inside a ``with`` block (never pickled/compared).
    _executor: Optional[ProcessPoolExecutor] = field(
        default=None, init=False, repr=False, compare=False
    )
    _entries: int = field(default=0, init=False, repr=False, compare=False)
    #: Hosting generation the live executor's workers forked at (``None``
    #: until its first submit, which forks every worker).
    _forked_at: Optional[int] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")

    @property
    def parallelism(self) -> int:
        return self.workers if self.workers is not None else available_workers()

    # ------------------------------------------------------------------ #
    # persistent-pool lifetime
    # ------------------------------------------------------------------ #
    @property
    def pool_is_open(self) -> bool:
        """Whether a persistent pool is currently alive (inside ``with``)."""
        return self._executor is not None

    def __enter__(self) -> "MultiprocessBackend":
        if self._executor is None and self.parallelism > 1:
            object.__setattr__(self, "_executor", _process_pool(self.parallelism))
        object.__setattr__(self, "_entries", self._entries + 1)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        object.__setattr__(self, "_entries", self._entries - 1)
        if self._entries <= 0 and self._executor is not None:
            self._executor.shutdown(wait=True)
            object.__setattr__(self, "_executor", None)
            object.__setattr__(self, "_forked_at", None)

    def __getstate__(self) -> dict:
        # The live executor must never travel into a worker (pools are not
        # picklable); a pickled copy behaves like a fresh, closed backend.
        return {"workers": self.workers}

    def __setstate__(self, state: dict) -> None:
        object.__setattr__(self, "workers", state["workers"])
        object.__setattr__(self, "_executor", None)
        object.__setattr__(self, "_entries", 0)
        object.__setattr__(self, "_forked_at", None)

    def _forked_pool(self) -> ProcessPoolExecutor:
        """The persistent pool, its workers forked after every live hosting."""
        generation = hosting_generation()
        if self._forked_at is None:
            object.__setattr__(self, "_forked_at", generation)
        elif self._forked_at < generation:
            self._executor.shutdown(wait=True)
            object.__setattr__(self, "_executor", _process_pool(self.parallelism))
            object.__setattr__(self, "_forked_at", generation)
        return self._executor

    def map(self, fn: Callable[[Any], Any], tasks: Sequence[Any]) -> List[Any]:
        tasks = list(tasks)
        max_workers = min(self.parallelism, len(tasks))
        if max_workers <= 1:
            return gather_with_heartbeat(
                "multiprocess", (fn(task) for task in tasks), len(tasks)
            )
        if self._executor is not None:
            executor = self._forked_pool()
            futures = [executor.submit(fn, task) for task in tasks]
            return _gather_futures("multiprocess", futures)
        with _process_pool(max_workers) as executor:
            futures = [executor.submit(fn, task) for task in tasks]
            return _gather_futures("multiprocess", futures)


def _fork_context():
    """The ``fork`` start method: hosted inputs reach workers by inheritance."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError as error:
        raise ConfigurationError(
            "the multiprocess backend needs the 'fork' start method, which this "
            "platform lacks; use workers=1 or the default thread backend"
        ) from error


def _process_pool(workers: int) -> ProcessPoolExecutor:
    """A forked pool whose workers each pin BLAS to their share of the budget.

    With ``fork`` every worker starts at the first submit.
    """
    context = _fork_context()
    # Look the BLAS entry points up here, so forked workers inherit the
    # result (and a missing symbol warns once, in this process).
    blas_thread_control()
    return ProcessPoolExecutor(
        max_workers=workers,
        mp_context=context,
        initializer=set_blas_threads,
        initargs=(pinned_blas_threads(workers),),
    )


@contextmanager
def pool_scope(backend: Backend) -> Iterator[Backend]:
    """Keep the backend's worker pool alive for the duration of the block.

    Sweeps that issue many small Monte Carlo runs wrap their loop in this
    scope so pool-capable backends (currently :class:`MultiprocessBackend`)
    fork their workers once instead of once per run; backends without pool
    lifetime (e.g. :class:`SerialBackend`) pass through unchanged.  Results
    are identical either way — the scope is purely a wall-clock
    optimization.
    """
    enter = getattr(backend, "__enter__", None)
    if enter is None:
        yield backend
        return
    with backend:
        yield backend


#: What callers may pass as a backend: a name, an instance, or None (auto).
BackendLike = Union[None, str, Backend]

#: Registered backend names (the strings accepted by :func:`resolve_backend`).
BACKEND_NAMES = ("serial", "multiprocess")


def resolve_backend(backend: BackendLike = None, workers: Optional[int] = None) -> Backend:
    """Turn a ``backend``/``workers`` knob pair into a backend.

    Resolution rules (shared by every layer that exposes the knobs):

    * an existing :class:`Backend` instance is returned unchanged
      (``workers`` must then be left unset — the instance already
      decided),
    * ``None`` auto-selects: ``workers=None`` gives a
      :class:`ThreadBackend` over every CPU the process may use (the
      serial backend when that is one), ``workers=1`` the serial
      reference, anything larger a multiprocess backend with that many
      workers,
    * ``"serial"`` / ``"multiprocess"`` select explicitly; ``workers`` is
      honored by the multiprocess backend (pool size) and must be unset
      or 1 for the serial one.
    """
    if backend is not None and not isinstance(backend, str):
        if not isinstance(backend, Backend):
            raise TypeError(
                f"backend must be None, one of {BACKEND_NAMES} or a Backend instance, "
                f"got {type(backend)!r}"
            )
        if workers is not None:
            raise ValueError("workers cannot be combined with a Backend instance")
        return backend
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if backend is None:
        if workers is None:
            budget = available_workers()
            return ThreadBackend(budget) if budget > 1 else SerialBackend()
        if workers == 1:
            return SerialBackend()
        return MultiprocessBackend(workers=workers)
    name = backend.lower()
    if name == "serial":
        if workers is not None and workers > 1:
            raise ValueError(f"the serial backend cannot use {workers} workers")
        return SerialBackend()
    if name == "multiprocess":
        return MultiprocessBackend(workers=workers)
    raise ValueError(f"unknown backend {backend!r}; expected one of {BACKEND_NAMES}")
