"""Batched hardware-inference helpers for Monte Carlo accuracy studies.

Two Monte Carlo evaluation paths are provided:

* the historical *looped* path (``vectorized=False``), which rebuilds every
  layer's perturbed matrix and runs the forward pass once per iteration, and
* the *vectorized* path (default), which stacks the ``B`` Monte Carlo
  realizations along a leading batch axis and evaluates the perturbed
  meshes and the forward pass for all realizations at once.

Both paths run through :class:`~repro.analysis.monte_carlo.MonteCarloRunner`
and therefore through the pluggable execution backends: passing
``workers=N`` shards the realization chunks across ``N`` worker processes.
The trials are module-level callable dataclasses
(:class:`NetworkAccuracyTrial`, :class:`NetworkAccuracyBatchTrial`) so they
pickle cleanly into those workers.

**RNG-equivalence guarantee.** Both paths spawn the same independent child
stream per iteration (:func:`repro.utils.rng.spawn_rngs`) and consume each
stream with exactly the same draws; the batched linear algebra applies the
same per-slice kernels NumPy uses for the 2-D products, and chunk
scheduling never touches the streams.  At a fixed seed the vectorized path
therefore reproduces the looped path *bit for bit*, sample for sample, for
every backend and worker count — it is purely a wall-clock optimization
(4-7x on the paper's 1000-iteration runs, growing as the per-iteration
engine cost dominates, times the process-level scaling).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..analysis.monte_carlo import MonteCarloRunner
from ..execution import BackendLike
from ..execution.shared import ArrayLike, resolve_array, resolve_network
from ..training.workspace import process_workspace
from ..utils.rng import RNGLike
from ..variation.models import UncertaintyModel
from ..variation.process import IIDGaussianProcess, PerturbationProcess
from .spnn import SPNN, NetworkPerturbation, stack_network_perturbations

#: Target working-set bytes of one scheduled Monte Carlo chunk: the runner's
#: default chunking keeps a whole chunk (sampling buffers, stacked matrices
#: and the chunk's forward activations) near this size no matter how large
#: the evaluation set grows.  It sizes the scheduled chunk only; the forward
#: inside :meth:`SPNN.accuracy_batch` runs in its own, smaller sub-chunks
#: (:data:`repro.onn.spnn.FORWARD_CHUNK_BYTES`).
CHUNK_TARGET_BYTES = 8 * 1024 * 1024


def hardware_accuracy(
    spnn: SPNN,
    features: np.ndarray,
    labels: np.ndarray,
    perturbations: Optional[NetworkPerturbation] = None,
) -> float:
    """Accuracy of the (optionally perturbed) hardware on a test set."""
    return spnn.accuracy(features, labels, perturbations=perturbations, use_hardware=True)


@dataclass(frozen=True, eq=False)
class NetworkAccuracyTrial:
    """Scalar Monte Carlo trial: one perturbation realization -> accuracy.

    A picklable module-level callable (usable by process backends) that
    consumes its generator exactly as the historical inline loop did:
    sample a network perturbation, evaluate hardware accuracy.

    ``spnn`` may be a plain :class:`SPNN` or a
    :class:`~repro.execution.shared.SharedNetwork` handle — sweeps over
    process backends host the compiled mesh parameters in shared memory
    once (:func:`~repro.execution.shared.shared_network`) so the per-chunk
    payload shrinks to the perturbation draws.
    """

    spnn: object
    features: ArrayLike
    labels: ArrayLike
    model: Optional[UncertaintyModel] = None
    perturbation_factory: Optional[Callable[[np.random.Generator], NetworkPerturbation]] = None
    #: Perturbation process supplying the draws; defaults to the i.i.d.
    #: Gaussian process, bit-identical to the historical raw-sampler path.
    #: Mutually exclusive with ``perturbation_factory``.
    process: Optional[PerturbationProcess] = None

    def __post_init__(self) -> None:
        if self.process is not None and self.perturbation_factory is not None:
            raise ValueError("process and perturbation_factory are mutually exclusive")

    def sample(self, generator: np.random.Generator) -> NetworkPerturbation:
        if self.perturbation_factory is not None:
            return self.perturbation_factory(generator)
        process = self.process if self.process is not None else IIDGaussianProcess()
        return process.sample_single(
            resolve_network(self.spnn).photonic_layers, self.model, generator
        )

    def __call__(self, generator: np.random.Generator) -> float:
        return resolve_network(self.spnn).accuracy(
            resolve_array(self.features),
            resolve_array(self.labels),
            perturbations=self.sample(generator),
            use_hardware=True,
        )


@dataclass(frozen=True, eq=False)
class NetworkAccuracyBatchTrial:
    """Batch Monte Carlo trial: one accuracy per child generator.

    Draws every stream directly into stacked ``(B, ...)`` perturbation
    buffers (or stacks per-stream draws of a custom factory) and evaluates
    them with :meth:`SPNN.accuracy_batch`.  Consumes each generator exactly
    as :class:`NetworkAccuracyTrial` does, so the samples are bit-identical
    to the looped path.  ``spnn`` may be a plain :class:`SPNN` or a
    :class:`~repro.execution.shared.SharedNetwork` handle (shared-memory
    hosted mesh parameters, rebuilt once per worker process).
    """

    spnn: object
    features: ArrayLike
    labels: ArrayLike
    model: Optional[UncertaintyModel] = None
    perturbation_factory: Optional[Callable[[np.random.Generator], NetworkPerturbation]] = None
    #: Perturbation process supplying the stacked draws; defaults to the
    #: i.i.d. Gaussian process, bit-identical to the historical raw-sampler
    #: path.  Mutually exclusive with ``perturbation_factory``.
    process: Optional[PerturbationProcess] = None
    #: Realizations per forward-pass chunk inside ``accuracy_batch`` (memory
    #: bound); automatic when ``None``.  Does not change the samples.
    forward_chunk_size: Optional[int] = None
    #: Recycle the per-chunk scratch buffers through the process-local
    #: workspace arena (:func:`repro.training.workspace.process_workspace`).
    #: Each worker process lazily creates its own arena, so buffer reuse is
    #: aliasing-safe under every backend; samples are bit-identical.
    use_workspace: bool = False

    def __post_init__(self) -> None:
        if self.process is not None and self.perturbation_factory is not None:
            raise ValueError("process and perturbation_factory are mutually exclusive")

    def preferred_chunk_size(self) -> int:
        """Realizations per chunk keeping one vectorized call near the target.

        Consulted by :class:`~repro.analysis.monte_carlo.MonteCarloRunner`
        when no explicit ``chunk_size`` is given.  The estimate counts what
        one realization adds to a chunk's working set — its slice of the
        forward activations, the stacked per-layer hardware matrices, and
        the perturbation sampling buffers — so the default chunk shrinks as
        the evaluation set grows (the paper's 10k MNIST test set lands at a
        handful of realizations per chunk) instead of letting a whole
        1000-iteration run blow past :data:`CHUNK_TARGET_BYTES` in one
        call.  Chunking never changes the samples.
        """
        spnn = resolve_network(self.spnn)
        features = resolve_array(self.features)
        samples = int(features.shape[0]) if features.ndim > 1 else 1
        architecture = spnn.architecture
        width = max(architecture.layer_dims)
        activation_bytes = samples * width * 16  # complex128 forward block
        matrix_bytes = sum(out * inp for out, inp in architecture.weight_shapes()) * 16
        mzis = (
            sum(layer.num_mzis for layer in spnn.photonic_layers)
            if spnn.is_compiled
            else 0
        )
        # Four perturbed parameter families per MZI, drawn then scaled.
        sampling_bytes = 2 * 4 * mzis * 8
        per_realization = activation_bytes + matrix_bytes + sampling_bytes
        return max(1, CHUNK_TARGET_BYTES // max(1, per_realization))

    def __call__(self, generators: Sequence[np.random.Generator]) -> np.ndarray:
        generators = list(generators)
        spnn = resolve_network(self.spnn)
        workspace = process_workspace() if self.use_workspace else None
        if self.perturbation_factory is None:
            process = self.process if self.process is not None else IIDGaussianProcess()
            batch = process.sample_batch(
                spnn.photonic_layers, self.model, generators, workspace=workspace
            )
        else:
            batch = stack_network_perturbations(
                [self.perturbation_factory(generator) for generator in generators],
                workspace=workspace,
            )
        return spnn.accuracy_batch(
            resolve_array(self.features),
            resolve_array(self.labels),
            batch,
            batch_size=len(generators),
            chunk_size=self.forward_chunk_size,
            workspace=workspace,
        )


@dataclass(frozen=True, eq=False)
class SigmaFoldedAccuracyBatchTrial(NetworkAccuracyBatchTrial):
    """Batch trial whose rows carry *different* uncertainty levels.

    The sigma-folded sweeps (:func:`repro.analysis.yield_analysis.
    yield_sweep`) stack the realizations of several sigmas along the Monte
    Carlo batch axis and evaluate them in shared vectorized chunks — one
    column sweep and one forward pass per chunk instead of one scheduling
    barrier per sigma.  ``model`` supplies the (uniform) family gating of
    the fold; ``phase_std_rows``/``splitter_std_rows`` hold each row's own
    *physical* standard deviations, shape ``(B, 1)`` aligned with the
    chunk's generators.  Scaling a row's normalized draws by its actual
    stds is the exact float multiply the per-sigma trial performs, so the
    folded samples are bit-identical to running each sigma separately with
    the same child streams — for every backend, worker count and chunk
    size (chunks may freely cross sigma boundaries).

    Only the default i.i.d. Gaussian sampling path supports folding:
    custom factories and temporal processes draw per-row state the fold
    cannot rescale.
    """

    phase_std_rows: Optional[np.ndarray] = None
    splitter_std_rows: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.perturbation_factory is not None:
            raise ValueError("sigma folding requires the default sampler (no perturbation_factory)")
        if self.process is not None and not isinstance(self.process, IIDGaussianProcess):
            raise ValueError("sigma folding requires the i.i.d. Gaussian process")

    def __call__(self, generators: Sequence[np.random.Generator]) -> np.ndarray:
        from ..variation.sampler import sample_network_perturbation_batch

        generators = list(generators)
        spnn = resolve_network(self.spnn)
        workspace = process_workspace() if self.use_workspace else None
        batch = sample_network_perturbation_batch(
            spnn.photonic_layers,
            self.model,
            generators,
            workspace=workspace,
            phase_std_rows=self.phase_std_rows,
            splitter_std_rows=self.splitter_std_rows,
        )
        return spnn.accuracy_batch(
            resolve_array(self.features),
            resolve_array(self.labels),
            batch,
            batch_size=len(generators),
            chunk_size=self.forward_chunk_size,
            workspace=workspace,
        )


def monte_carlo_accuracy(
    spnn: SPNN,
    features: ArrayLike,
    labels: ArrayLike,
    model: UncertaintyModel,
    iterations: int,
    rng: RNGLike = None,
    perturbation_factory: Optional[Callable[[np.random.Generator], NetworkPerturbation]] = None,
    process: Optional[PerturbationProcess] = None,
    vectorized: bool = True,
    chunk_size: Optional[int] = None,
    backend: BackendLike = None,
    workers: Optional[int] = None,
    use_workspace: bool = False,
) -> np.ndarray:
    """Accuracy samples over ``iterations`` uncertainty realizations.

    Parameters
    ----------
    spnn:
        Compiled network under test.
    features, labels:
        Evaluation set (the paper uses the full MNIST test set).  Plain
        arrays or :class:`~repro.execution.shared.SharedArray` handles —
        sweeps over process backends host the eval set in shared memory
        once (:func:`~repro.execution.shared.shared_eval_arrays`) so it is
        not re-pickled into the workers for every chunk.
    model:
        Component uncertainty model used by the default sampler.
    iterations:
        Number of Monte Carlo iterations (1000 in the paper).
    rng:
        Seed; each iteration receives an independent child stream.
    perturbation_factory:
        Optional custom sampler ``generator -> NetworkPerturbation``
        (used by the zonal experiments); defaults to the global Gaussian
        sampler with ``model``.  Works with both evaluation paths; must be
        picklable (module-level) when used with a process backend.
    process:
        Optional :class:`~repro.variation.process.PerturbationProcess`
        supplying the draws (its stateless fabrication-draw marginal; for
        *temporal* studies use :func:`repro.analysis.timeline.
        timeline_sweep`).  Defaults to the i.i.d. Gaussian process, which
        reproduces the historical samples bit for bit.  Mutually exclusive
        with ``perturbation_factory``.
    vectorized:
        Evaluate all realizations with the batched hardware path (default).
        The looped path (``False``) produces bit-identical samples and is
        kept for cross-checking and tiny runs.
    chunk_size:
        Realizations per scheduled Monte Carlo chunk: bounds the peak
        memory of one vectorized sampling + evaluation call and sets the
        work-unit granularity when sharding across workers (the forward
        pass additionally auto-chunks within a call to stay
        cache-resident).  Picked automatically when omitted.  Chunking
        never changes the samples.
    backend, workers:
        Execution-backend knobs (see :func:`repro.execution.resolve_backend`):
        ``workers=N`` shards the realization chunks across ``N`` worker
        processes, bit-identical to the serial run at the same seed.
    use_workspace:
        Recycle the vectorized path's scratch buffers through the
        process-local workspace arena (one per worker process).  Purely an
        allocation optimization; samples are bit-identical.

    Returns
    -------
    numpy.ndarray
        Accuracy per iteration, shape ``(iterations,)``.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    runner = MonteCarloRunner(
        iterations=iterations, chunk_size=chunk_size, backend=backend, workers=workers
    )
    if not vectorized:
        trial = NetworkAccuracyTrial(
            spnn=spnn,
            features=features,
            labels=labels,
            model=model,
            perturbation_factory=perturbation_factory,
            process=process,
        )
        return runner.run(trial, rng=rng).samples
    batch_trial = NetworkAccuracyBatchTrial(
        spnn=spnn,
        features=features,
        labels=labels,
        model=model,
        perturbation_factory=perturbation_factory,
        process=process,
        use_workspace=use_workspace,
    )
    return runner.run_batched(batch_trial, rng=rng).samples


def predict_batched(
    spnn: SPNN,
    features: np.ndarray,
    perturbations: Optional[NetworkPerturbation] = None,
    batch_size: int = 2048,
) -> np.ndarray:
    """Class predictions computed in batches (bounds peak memory on large sets)."""
    features = np.asarray(features)
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    outputs: List[np.ndarray] = []
    for start in range(0, len(features), batch_size):
        chunk = features[start : start + batch_size]
        outputs.append(spnn.predict(chunk, perturbations=perturbations, use_hardware=True))
    return np.concatenate(outputs) if outputs else np.zeros(0, dtype=np.int64)
