"""The Monte Carlo engine: one scheduler for every sweep in the reproduction.

The paper's methodology is uniformly "draw 1000 uncertainty realizations,
evaluate a scalar metric (accuracy, RVD), report its mean" (§III-D), and
its studies are many such runs side by side: EXP 1's (case, sigma) grid,
EXP 2's zones, the yield sweep's sigmas, the drift study's timelines.
:func:`run_sweep` schedules all of them.  A sweep is a list of *parts*,
each a trial plus the :class:`~repro.utils.rng.StreamSlice` recipe of its
rows' child streams.  Each part is cut into chunks
(:func:`plan_chunk_size`), every chunk of every part is numbered in one
flat row space and submitted through a single ``map`` of the execution
backend (:mod:`repro.execution`), so a pool never drains between parts,
and each part's results come back in row order.  :func:`sweep_scope` is
the one hosting scope around a sweep: it keeps a process pool alive and
hosts the eval set and the compiled network in shared memory.

:class:`MonteCarloRunner` is the single-trial front end:
:meth:`~MonteCarloRunner.run` calls a scalar trial once per iteration,
:meth:`~MonteCarloRunner.run_batched` hands a *batch trial* the
generators of a whole chunk so it can vectorize over the Monte Carlo axis,
and :meth:`~MonteCarloRunner.run_many` sweeps several labelled trials in
one map.

**RNG-equivalence guarantee.** Every stream is named *before* any
scheduling happens (the recipe of ``spawn_rngs(rng, iterations)``,
:func:`~repro.utils.rng.spawn_slice`), and each chunk builds exactly its
own generators, so a batch trial that consumes ``generators[b]`` exactly
as the scalar trial consumes its per-iteration generator produces
bit-identical samples, and the samples are independent of ``chunk_size``,
of the other parts of the sweep, of the backend and of the worker count.
Batching and sharding are purely wall-clock optimizations.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..exceptions import ShapeError
from ..execution import Backend, BackendLike, pool_scope, resolve_backend
from ..execution.shared import shared_eval_arrays, shared_network
from ..observability import map_chunks
from ..observability.recorder import active as _active_recorder
from ..utils.rng import RNGLike, StreamSlice, materialize_streams, spawn_slice
from .statistics import SummaryStatistics, summarize

#: A Monte Carlo trial: receives an independent generator, returns a scalar metric.
Trial = Callable[[np.random.Generator], float]

#: A batched Monte Carlo trial: receives the child generators of one chunk and
#: returns one metric per generator, shape ``(len(generators),)``.
BatchTrial = Callable[[Sequence[np.random.Generator]], np.ndarray]

#: Worker payload: the chunk's first row in the sweep, the trial, and the
#: recipes of the chunk's child streams in row order (the evaluator builds
#: the generators).
ChunkTask = Tuple[int, Union[Trial, BatchTrial], Tuple[StreamSlice, ...]]

#: One run of a sweep: its trial and the recipe of its rows' child streams.
SweepPart = Tuple[Any, StreamSlice]

#: Target working-set bytes of one scheduled chunk.  The network trials'
#: ``preferred_chunk_size()`` hints divide it by what one realization or
#: timeline holds for the whole chunk; each forward pass runs in its own,
#: smaller sub-chunks (:data:`repro.onn.spnn.FORWARD_CHUNK_BYTES`).
CHUNK_TARGET_BYTES = 8 * 1024 * 1024


def evaluate_scalar_chunk(task: ChunkTask) -> Tuple[int, np.ndarray]:
    """Evaluate one chunk of a scalar trial; returns ``(start, samples)``.

    Module-level so process backends can pickle it into workers.  Each
    generator is consumed exactly as in the inline loop, so the returned
    samples are bit-identical regardless of which process evaluates them.
    """
    start, trial, streams = task
    generators = materialize_streams(streams)
    samples = np.empty(len(generators), dtype=np.float64)
    for index, generator in enumerate(generators):
        samples[index] = float(trial(generator))
    return start, samples


def evaluate_batch_chunk(task: ChunkTask) -> Tuple[int, np.ndarray]:
    """Evaluate one chunk of a batch trial; returns ``(start, samples)``."""
    start, trial, streams = task
    generators = materialize_streams(streams)
    values = np.asarray(trial(generators), dtype=np.float64)
    if values.shape != (len(generators),):
        raise ShapeError(
            f"batch trial must return shape ({len(generators)},), got {values.shape}"
        )
    return start, values


def trial_chunk_hint(trial: Union[Trial, BatchTrial, None]) -> Optional[int]:
    """The trial's own chunk-size preference, when it advertises one.

    Batch trials that know their per-realization working set (eval-set
    slice of the activations, stacked matrices, sampling buffers) expose
    ``preferred_chunk_size()``; schedulers honor it whenever no explicit
    ``chunk_size`` is configured, so default chunking scales with the
    evaluation-set size instead of only the iteration count.
    """
    hint = getattr(trial, "preferred_chunk_size", None)
    if not callable(hint):
        return None
    preferred = int(hint())
    return preferred if preferred >= 1 else None


def plan_chunk_size(
    iterations: int,
    backend: Backend,
    chunk_size: Optional[int] = None,
    trial: Union[Trial, BatchTrial, None] = None,
) -> int:
    """Work-unit granularity shared by the Monte Carlo and timeline runners.

    Serial backends take everything in one chunk (capped by an explicit
    ``chunk_size`` or the trial's memory-derived hint).  A parallel backend
    that plans its own chunks (``plan_chunk_size(iterations, cap)``, e.g.
    :class:`~repro.execution.ThreadBackend`) gets the cap and decides.
    Other parallel backends get two chunks per worker — coarse enough that
    per-task pickling stays negligible, fine enough to absorb worker-speed
    imbalance.  An explicit ``chunk_size`` (or the hint) still caps the
    chunk but never inflates it: otherwise a small run with a large
    chunk_size would collapse to a single task and silently defeat the
    sharding.  Shrinking chunks is always safe — samples are
    chunk-invariant.
    """
    hint = trial_chunk_hint(trial) if chunk_size is None else None
    parallelism = backend.parallelism
    if parallelism <= 1:
        if chunk_size is not None:
            return chunk_size
        return min(iterations, hint) if hint is not None else iterations
    cap = chunk_size if chunk_size is not None else hint
    own_plan = getattr(backend, "plan_chunk_size", None)
    if own_plan is not None:
        return own_plan(iterations, cap)
    target = max(1, -(-iterations // (2 * parallelism)))
    return min(cap, target) if cap is not None else target


def sweep_tasks(
    backend: Backend, parts: Sequence[SweepPart], chunk_size: Optional[int] = None
) -> Tuple[List[ChunkTask], List[int]]:
    """Every part's chunks as one task list, and each part's chunk size.

    Each part is planned on its own (:func:`plan_chunk_size` with the
    part's row count and trial), and task ``start`` indices run through
    one flat row space: part ``k``'s rows follow part ``k - 1``'s.  A task
    carries only its trial and the recipe of its rows, so scheduling even
    a paper-scale sweep builds no generator.
    """
    if chunk_size is not None and chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    tasks: List[ChunkTask] = []
    chunks: List[int] = []
    offset = 0
    for trial, streams in parts:
        rows = len(streams)
        if rows < 1:
            raise ValueError("every sweep part needs at least one row")
        chunk = plan_chunk_size(rows, backend, chunk_size, trial)
        chunks.append(chunk)
        tasks.extend(
            (offset + start, trial, (streams[start : start + chunk],))
            for start in range(0, rows, chunk)
        )
        offset += rows
    return tasks, chunks


def _join(blocks: List[Any]) -> Any:
    """One part's chunk results in row order.

    Samples join on their only axis; the timeline evaluator's
    ``(accuracy, events)`` blocks of shape ``(P, B, T)`` join on ``B``.
    """
    if isinstance(blocks[0], tuple):
        return tuple(np.concatenate(members, axis=1) for members in zip(*blocks))
    return np.concatenate(blocks)


def run_sweep(
    backend: Backend,
    evaluator: Callable[[ChunkTask], Tuple[int, Any]],
    parts: Sequence[SweepPart],
    chunk_size: Optional[int] = None,
    label: str = "",
) -> List[Any]:
    """Evaluate every part of a sweep through one ``map``; results per part.

    ``parts`` are ``(trial, streams)`` pairs; ``evaluator`` (for example
    :func:`evaluate_batch_chunk`) turns one ``(start, trial, streams)``
    task into ``(start, result)``.  All parts' chunks (:func:`sweep_tasks`)
    go to the backend in a single ``map``, so workers stay busy across
    part boundaries.  Returns one result per part, its chunks joined in
    row order.  ``label`` tags the chunk frames of a traced run; the
    ``mc/run`` span records the plan (each part's rows and chunk size).
    """
    parts = list(parts)
    if not parts:
        return []
    tasks, chunks = sweep_tasks(backend, parts, chunk_size)
    part_rows = [len(streams) for _, streams in parts]
    with _active_recorder().span(
        "mc/run",
        label=label,
        parts=len(parts),
        rows=sum(part_rows),
        chunks=len(tasks),
        chunk_size=max(chunks),
        part_rows=part_rows,
        part_chunk_sizes=chunks,
        parallelism=backend.parallelism,
    ):
        results = [value for _, value in map_chunks(backend, evaluator, tasks, label=label)]
    joined, first = [], 0
    for rows, chunk in zip(part_rows, chunks):
        last = first - (-rows // chunk)
        joined.append(_join(results[first:last]))
        first = last
    return joined


@contextmanager
def sweep_scope(backend: Backend, features, labels, spnn=None) -> Iterator[tuple]:
    """Host a sweep's inputs for its workers; yields ``(features, labels, spnn)``.

    Keeps the backend's process pool alive for the block
    (:func:`~repro.execution.pool_scope`) and hosts the eval set and the
    compiled network in shared memory when the backend shards across
    processes (:mod:`repro.execution.shared`), so they cross the process
    boundary once per worker rather than once per chunk.  Inputs a caller
    already hosted pass straight through, so scopes nest; ``spnn`` may be
    ``None`` when only the eval set is shared.
    """
    with pool_scope(backend), shared_eval_arrays(backend, features, labels) as (
        features,
        labels,
    ), shared_network(backend, spnn) as network:
        yield features, labels, network


@dataclass
class MonteCarloResult:
    """Samples and summary of one Monte Carlo run."""

    samples: np.ndarray
    summary: SummaryStatistics
    label: str = ""

    @property
    def mean(self) -> float:
        return self.summary.mean

    @property
    def std(self) -> float:
        return self.summary.std

    @property
    def iterations(self) -> int:
        return self.summary.count


@dataclass
class MonteCarloRunner:
    """Runs a scalar-valued trial over many independent random streams.

    Parameters
    ----------
    iterations:
        Number of Monte Carlo iterations (the paper uses 1000).
    confidence:
        Confidence level used for the reported margin of error.
    chunk_size:
        Maximum realizations per scheduled chunk.  For batch trials this
        bounds the peak memory of one vectorized call; for parallel backends
        it is also the work-unit granularity.  ``None`` picks a default:
        everything in one chunk on the serial and thread backends (the
        threads balance the chunk count over themselves), two chunks per
        worker on process backends — in every case additionally capped by
        the trial's own ``preferred_chunk_size()`` hint when it provides one
        (the network trials derive it from the evaluation-set size, so a
        10k-sample eval set gets small, cache-friendly chunks instead of
        one giant vectorized call).  The chunking never changes the
        samples.
    backend, workers:
        Execution-backend selection, resolved via
        :func:`repro.execution.resolve_backend`: by default ``workers`` of
        ``None`` runs chunks on one thread per available CPU, ``workers=1``
        evaluates inline (the serial reference) and ``workers >= 2`` shards
        chunks across that many worker processes.  Threads call the trial
        concurrently, so it must be thread-safe; process backends need it
        picklable.  Samples are bit-identical for every backend and worker
        count.
    """

    iterations: int = 1000
    confidence: float = 0.95
    chunk_size: Optional[int] = None
    backend: BackendLike = None
    workers: Optional[int] = None

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(f"confidence must be in (0, 1), got {self.confidence}")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {self.chunk_size}")
        # Fail fast on unknown backend names / invalid worker counts.
        resolve_backend(self.backend, self.workers)

    def _effective_chunk_size(
        self, backend: Backend, trial: Union[Trial, BatchTrial, None] = None
    ) -> int:
        return plan_chunk_size(self.iterations, backend, self.chunk_size, trial)

    def _sweep(self, evaluator, labelled: List[Tuple[str, Any, StreamSlice]]) -> List[MonteCarloResult]:
        """One :func:`run_sweep` over ``(label, trial, streams)`` runs."""
        backend = resolve_backend(self.backend, self.workers)
        parts = [(trial, streams) for _, trial, streams in labelled]
        samples = run_sweep(backend, evaluator, parts, self.chunk_size, label="mc")
        return [
            MonteCarloResult(samples=values, summary=summarize(values, self.confidence), label=label)
            for (label, _, _), values in zip(labelled, samples)
        ]

    def run(self, trial: Trial, rng: RNGLike = None, label: str = "") -> MonteCarloResult:
        """Evaluate ``trial`` once per iteration and summarize the samples.

        Each iteration receives an independent child generator spawned from
        ``rng``, so results are reproducible and independent of evaluation
        order, chunking and worker count.
        """
        streams = spawn_slice(rng, self.iterations)
        return self._sweep(evaluate_scalar_chunk, [(label, trial, streams)])[0]

    def run_batched(self, trial: BatchTrial, rng: RNGLike = None, label: str = "") -> MonteCarloResult:
        """Evaluate a vectorized trial over all iterations and summarize.

        The batch trial receives the same independent child generators that
        :meth:`run` would hand out one at a time (chunked per
        ``chunk_size``) and must return one sample per generator.  A batch
        trial that consumes each generator exactly as the scalar trial does
        yields a result bit-identical to :meth:`run`.
        """
        streams = spawn_slice(rng, self.iterations)
        return self._sweep(evaluate_batch_chunk, [(label, trial, streams)])[0]

    def run_many(
        self,
        trials: dict[str, Union[Trial, BatchTrial]],
        rng: RNGLike = None,
        batched: bool = False,
    ) -> dict[str, MonteCarloResult]:
        """Run several labelled trials with independent seeds derived from ``rng``.

        With ``batched=True`` every value of ``trials`` is treated as a
        :data:`BatchTrial`, as in :meth:`run_batched`.  Label ``i`` draws
        from the children of the ``i``-th stream spawned from ``rng``, the
        streams a loop of :meth:`run` calls on ``spawn_rngs(rng,
        len(trials))`` would use, and all labels run in one
        :func:`run_sweep`.
        """
        streams = spawn_slice(rng, len(trials))
        labelled = [
            (label, trial, streams.child_slice(index, self.iterations))
            for index, (label, trial) in enumerate(trials.items())
        ]
        evaluator = evaluate_batch_chunk if batched else evaluate_scalar_chunk
        return {result.label: result for result in self._sweep(evaluator, labelled)}
