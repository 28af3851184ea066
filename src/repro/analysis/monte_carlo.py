"""Generic Monte Carlo engine used by every experiment in the reproduction.

The paper's methodology is uniformly "draw 1000 uncertainty realizations,
evaluate a scalar metric (accuracy, RVD), report its mean".  This module
provides that loop once, with reproducible independent per-iteration random
streams and summary statistics attached to the result.

Two evaluation entry points share the same stream-spawning discipline:

* :meth:`MonteCarloRunner.run` calls a scalar trial once per iteration, and
* :meth:`MonteCarloRunner.run_batched` hands a *batch trial* all the child
  generators of a chunk at once so it can vectorize the evaluation over the
  Monte Carlo axis.

Both entry points delegate the *scheduling* of their chunks to an execution
backend (:mod:`repro.execution`): the serial backend evaluates them inline,
the thread backend (the default) on threads of this process, the
multiprocess backend across worker processes.  Chunks
are self-contained ``(start, trial, streams)`` payloads, ``streams`` being
the chunk's :class:`~repro.utils.rng.StreamSlice` recipes; evaluators
return ``(start, samples)`` pairs that reassemble into the exact serial
sample order.

**RNG-equivalence guarantee.** Both entry points name the identical child
streams of the same parent seed (the recipe of ``spawn_rngs(rng,
iterations)``, :func:`~repro.utils.rng.spawn_slice`) *before* any
scheduling happens, and each chunk builds exactly its own generators, so
a batch trial that consumes ``generators[b]`` exactly as the scalar trial
consumes its per-iteration generator produces bit-identical samples — and
the samples are independent of ``chunk_size``, of the backend and of the
worker count.  Batching and sharding are purely wall-clock optimizations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from ..exceptions import ShapeError
from ..execution import Backend, BackendLike, pool_scope, resolve_backend
from ..observability import map_chunks
from ..observability.recorder import active as _active_recorder
from ..utils.rng import RNGLike, StreamSlice, materialize_streams, spawn_rngs, spawn_slice
from .statistics import SummaryStatistics, summarize

#: A Monte Carlo trial: receives an independent generator, returns a scalar metric.
Trial = Callable[[np.random.Generator], float]

#: A batched Monte Carlo trial: receives the child generators of one chunk and
#: returns one metric per generator, shape ``(len(generators),)``.
BatchTrial = Callable[[Sequence[np.random.Generator]], np.ndarray]

#: Worker payload: chunk start index, the trial, and the recipes of the
#: chunk's child streams in row order (one per parent stream the chunk
#: touches; the evaluator builds the generators).
ChunkTask = Tuple[int, Union[Trial, BatchTrial], Tuple[StreamSlice, ...]]

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

    # ------------------------------------------------------------------ #
    # chunk scheduling
    # ------------------------------------------------------------------ #
    def _effective_chunk_size(
        self, backend: Backend, trial: Union[Trial, BatchTrial, None] = None
    ) -> int:
        return plan_chunk_size(self.iterations, backend, self.chunk_size, trial)

    def _schedule(
        self,
        evaluator: Callable[[ChunkTask], Tuple[int, np.ndarray]],
        trial: Union[Trial, BatchTrial],
        rng: RNGLike,
        label: str,
    ) -> MonteCarloResult:
        """Name the child streams, shard them into chunks, reassemble."""
        streams = spawn_slice(rng, self.iterations)
        backend = resolve_backend(self.backend, self.workers)
        chunk = self._effective_chunk_size(backend, trial)
        tasks: list[ChunkTask] = [
            (start, trial, (streams[start : start + chunk],))
            for start in range(0, self.iterations, chunk)
        ]
        samples = np.empty(self.iterations, dtype=np.float64)
        with _active_recorder().span(
            "mc/run",
            label=label,
            iterations=self.iterations,
            chunks=len(tasks),
            chunk_size=chunk,
            parallelism=backend.parallelism,
        ):
            for start, values in map_chunks(backend, evaluator, tasks, label="mc"):
                samples[start : start + len(values)] = values
        return MonteCarloResult(samples=samples, summary=summarize(samples, self.confidence), label=label)

    # ------------------------------------------------------------------ #
    # evaluation entry points
    # ------------------------------------------------------------------ #
    def run(self, trial: Trial, rng: RNGLike = None, label: str = "") -> MonteCarloResult:
        """Evaluate ``trial`` once per iteration and summarize the samples.

        Each iteration receives an independent child generator spawned from
        ``rng``, so results are reproducible and independent of evaluation
        order, chunking and worker count.
        """
        return self._schedule(evaluate_scalar_chunk, trial, rng, label)

    def run_batched(self, trial: BatchTrial, rng: RNGLike = None, label: str = "") -> MonteCarloResult:
        """Evaluate a vectorized trial over all iterations and summarize.

        The batch trial receives the same independent child generators that
        :meth:`run` would hand out one at a time (chunked per
        ``chunk_size``) and must return one sample per generator.  A batch
        trial that consumes each generator exactly as the scalar trial does
        yields a result bit-identical to :meth:`run`.
        """
        return self._schedule(evaluate_batch_chunk, trial, rng, label)

    def run_many(
        self,
        trials: dict[str, Union[Trial, BatchTrial]],
        rng: RNGLike = None,
        batched: bool = False,
    ) -> dict[str, MonteCarloResult]:
        """Run several labelled trials with independent seeds derived from ``rng``.

        With ``batched=True`` every value of ``trials`` is treated as a
        :data:`BatchTrial` and evaluated through :meth:`run_batched`, so
        EXP-style multi-case runs can use the fast path uniformly; each
        label still gets its own independent child stream, identical to the
        scalar route at the same seed.

        The execution backend is resolved once for the whole call and its
        worker pool (if any) is kept alive across the trials
        (:func:`repro.execution.pool_scope`), so many small runs pay the
        pool spin-up once instead of once per label.
        """
        streams = spawn_rngs(rng, len(trials))
        backend = resolve_backend(self.backend, self.workers)
        runner = replace(self, backend=backend, workers=None)
        evaluate = runner.run_batched if batched else runner.run
        with pool_scope(backend):
            return {
                label: evaluate(trial, rng=stream, label=label)
                for (label, trial), stream in zip(trials.items(), streams)
            }
