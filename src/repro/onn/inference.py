"""Batched hardware-inference helpers for Monte Carlo accuracy studies.

:func:`monte_carlo_accuracy` stacks the ``B`` Monte Carlo realizations of a
chunk along a leading batch axis and evaluates the perturbed meshes and the
forward pass for all of them at once (:class:`NetworkAccuracyBatchTrial`).
It runs through :class:`~repro.analysis.monte_carlo.MonteCarloRunner` and
therefore through the pluggable execution backends: passing ``workers=N``
shards the realization chunks across ``N`` worker processes.  The trials
are module-level callable dataclasses so they pickle cleanly into those
workers.

:class:`NetworkAccuracyTrial` is the scalar reference: it rebuilds every
layer's perturbed matrix and runs the forward pass once per realization.
No experiment runs it; it is the oracle the batched trial is tested
against (``MonteCarloRunner(...).run(NetworkAccuracyTrial(...))``).

**RNG-equivalence guarantee.** Both trials consume the same independent
child stream per iteration (:func:`repro.utils.rng.spawn_rngs`) with
exactly the same draws; the batched linear algebra applies the same
per-slice kernels NumPy uses for the 2-D products, and chunk scheduling
never touches the streams.  At a fixed seed the batched trial therefore
reproduces the scalar oracle *bit for bit*, sample for sample, for every
backend and worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..analysis.monte_carlo import CHUNK_TARGET_BYTES, MonteCarloRunner
from ..execution import BackendLike
from ..execution.hosting import ArrayLike, resolve_array, resolve_network
from ..utils.rng import RNGLike
from ..variation import sampler
from ..variation.models import UncertaintyModel
from .spnn import SPNN


def network_chunk_size(spnn) -> int:
    """Realizations per chunk keeping one chunk's working set near the target.

    :data:`~repro.analysis.monte_carlo.CHUNK_TARGET_BYTES` over what one
    realization holds for its whole chunk: the network-wide draws and
    their scaled fields (four parameter families per MZI, float64), the
    largest mesh's complex block components, their column-sorted copies
    and the sweep's ``CA``/``CB`` stacks (four values per MZI each; one
    mesh is evaluated at a time), and the per-layer matrices.  Forward
    activations are not counted: :meth:`SPNN.accuracy_batch` runs the
    forward in its own sub-chunks (:data:`repro.onn.spnn.FORWARD_CHUNK_BYTES`)
    whatever the chunk size.  ``spnn`` may be a hosted token.
    """
    spnn = resolve_network(spnn)
    per_realization = sum(out * inp for out, inp in spnn.architecture.weight_shapes()) * 16
    if spnn.is_compiled:
        layers = spnn.photonic_layers
        largest_mesh = max(mesh.num_mzis for layer in layers for mesh in (layer.mesh_u, layer.mesh_v))
        per_realization += 2 * 4 * sum(layer.num_mzis for layer in layers) * 8
        per_realization += 3 * 4 * largest_mesh * 16
    return max(1, CHUNK_TARGET_BYTES // per_realization)


@dataclass(frozen=True, eq=False)
class NetworkAccuracyTrial:
    """Scalar Monte Carlo trial: one perturbation realization -> accuracy.

    The looped reference for :class:`NetworkAccuracyBatchTrial`: sample
    one network perturbation, evaluate hardware accuracy.  Run it through
    :meth:`MonteCarloRunner.run <repro.analysis.monte_carlo.
    MonteCarloRunner.run>`; it consumes each generator exactly as the
    batched trial consumes its row, so the two agree bit for bit.

    ``spnn`` may be a plain :class:`SPNN` or a
    :class:`~repro.execution.hosting.Hosted` token.
    """

    spnn: object
    features: ArrayLike
    labels: ArrayLike
    model: UncertaintyModel

    def __call__(self, generator: np.random.Generator) -> float:
        spnn = resolve_network(self.spnn)
        return spnn.accuracy(
            resolve_array(self.features),
            resolve_array(self.labels),
            perturbations=sampler.sample_network_perturbation(
                spnn.photonic_layers, self.model, generator
            ),
            use_hardware=True,
        )


@dataclass(frozen=True, eq=False)
class NetworkAccuracyBatchTrial:
    """Batch Monte Carlo trial: one accuracy per child generator.

    Draws every stream directly into stacked ``(B, ...)`` perturbation
    buffers and evaluates them with :meth:`SPNN.accuracy_batch`.  Consumes
    each generator exactly as :class:`NetworkAccuracyTrial` does, so the
    samples are bit-identical to the looped oracle.  ``spnn`` may be a
    plain :class:`SPNN` or a :class:`~repro.execution.hosting.Hosted`
    token (resolved from the memory a forked worker inherited).
    """

    spnn: object
    features: ArrayLike
    labels: ArrayLike
    model: UncertaintyModel

    def preferred_chunk_size(self) -> int:
        """Realizations per chunk: :func:`network_chunk_size` of the network.

        Consulted by :func:`~repro.analysis.monte_carlo.run_sweep` when no
        explicit ``chunk_size`` is given.  It does not depend on the evaluation-set size, since the
        forward runs in its own sub-chunks.  Chunking never changes the
        samples.
        """
        return network_chunk_size(self.spnn)

    def __call__(self, generators: Sequence[np.random.Generator]) -> np.ndarray:
        generators = list(generators)
        spnn = resolve_network(self.spnn)
        # Looked up on the module at call time, so a wrapper installed on
        # ``repro.variation.sampler`` after import still sees every draw.
        batch = sampler.sample_network_perturbation_batch(
            spnn.photonic_layers, self.model, generators
        )
        return spnn.accuracy_batch(
            resolve_array(self.features),
            resolve_array(self.labels),
            batch,
            batch_size=len(generators),
        )


def monte_carlo_accuracy(
    spnn: SPNN,
    features: ArrayLike,
    labels: ArrayLike,
    model: UncertaintyModel,
    iterations: int,
    rng: RNGLike = None,
    chunk_size: Optional[int] = None,
    backend: BackendLike = None,
    workers: Optional[int] = None,
) -> np.ndarray:
    """Accuracy samples over ``iterations`` uncertainty realizations.

    Parameters
    ----------
    spnn:
        Compiled network under test.
    features, labels:
        Evaluation set (the paper uses the full MNIST test set).  Plain
        arrays or :class:`~repro.execution.hosting.Hosted` tokens —
        sweeps over process backends host the eval set for their forked
        workers (:func:`~repro.execution.hosting.hosted_inputs`) so it is
        not re-pickled into the workers for every chunk.
    model:
        Component uncertainty model of the i.i.d. Gaussian draws.
    iterations:
        Number of Monte Carlo iterations (1000 in the paper).
    rng:
        Seed; each iteration receives an independent child stream.
    chunk_size:
        Realizations per scheduled Monte Carlo chunk: bounds the peak
        memory of one vectorized sampling + evaluation call and sets the
        work-unit granularity when sharding across workers (the forward
        pass additionally auto-chunks within a call to stay
        cache-resident).  Picked automatically when omitted.  Chunking
        never changes the samples.
    backend, workers:
        Execution-backend knobs (see :func:`repro.execution.resolve_backend`):
        by default the realization chunks run on one thread per available
        CPU, ``workers=1`` runs them inline and ``workers=N`` shards them
        across ``N`` worker processes, all bit-identical at the same seed.

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
    trial = NetworkAccuracyBatchTrial(spnn=spnn, features=features, labels=labels, model=model)
    return runner.run_batched(trial, rng=rng).samples
