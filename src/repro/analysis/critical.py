"""Critical-component identification (the paper's design-time framework).

The stated purpose of the paper's modeling framework is to identify, before
fabrication, which MZIs / regions of an SPNN are *critical* — i.e. where
random uncertainties cause disproportionate damage (§I, §III-C/D).  This
module implements that identification at two granularities:

* per-MZI criticality of a single unitary mesh, scored by the average RVD
  when only that device is perturbed (the Fig. 3 study), and
* per-zone criticality of a full SPNN, scored by the mean accuracy loss when
  the zone's uncertainty is elevated (the Fig. 5 / EXP 2 study) — see
  :mod:`repro.experiments.exp2_zonal` for the experiment wrapper.

Scoring follows the engine-wide stream discipline: one child stream per
component, spawned up front, consumed identically by the scalar loop and
the batched metric — so scores are bit-identical across evaluation paths,
backends and worker counts, and components can be spread over threads (the
default) or processes (``workers=N``) without changing a single sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ShapeError
from ..execution import BackendLike, resolve_backend
from ..mesh.mesh import MeshPerturbationBatch, MZIMesh
from ..utils.rng import RNGLike, spawn_rngs
from ..variation.models import UncertaintyModel
from ..variation.sampler import sample_single_mzi_perturbation
from .rvd import rvd, rvd_batch
from .statistics import summarize

#: Scalar criticality metric: one Monte Carlo draw for one component.
MetricFn = Callable[[int, np.random.Generator], float]

#: Batched criticality metric: all ``iterations`` draws for one component at
#: once, consuming the component's stream exactly as the scalar loop would;
#: returns samples of shape ``(iterations,)``.
BatchMetricFn = Callable[[int, np.random.Generator, int], np.ndarray]

#: Worker payload for one component's scoring run.
ComponentTask = Tuple[int, np.random.Generator, int, Optional[MetricFn], Optional[BatchMetricFn]]


@dataclass(frozen=True)
class ComponentCriticality:
    """Criticality score of one component (MZI or zone)."""

    identifier: int
    score: float
    std: float
    extra: tuple = ()

    def __lt__(self, other: "ComponentCriticality") -> bool:  # pragma: no cover - trivial
        return self.score < other.score


@dataclass
class CriticalityReport:
    """Ranked criticality scores for the components of one mesh/network."""

    scores: List[ComponentCriticality]
    metric: str

    def ranked(self, descending: bool = True) -> List[ComponentCriticality]:
        """Components sorted by score (most critical first by default)."""
        return sorted(self.scores, key=lambda c: c.score, reverse=descending)

    def most_critical(self, count: int = 1) -> List[ComponentCriticality]:
        return self.ranked()[: max(0, count)]

    def least_critical(self, count: int = 1) -> List[ComponentCriticality]:
        return self.ranked(descending=False)[: max(0, count)]

    def as_array(self) -> np.ndarray:
        """Scores ordered by component identifier (useful for plotting)."""
        ordered = sorted(self.scores, key=lambda c: c.identifier)
        return np.array([c.score for c in ordered], dtype=np.float64)

    @property
    def spread(self) -> float:
        """Max minus min score — the paper's evidence that impact is non-uniform."""
        values = self.as_array()
        return float(values.max() - values.min()) if values.size else 0.0


def evaluate_component_samples(task: ComponentTask) -> Tuple[int, np.ndarray]:
    """Draw one component's Monte Carlo samples; returns ``(id, samples)``.

    Module-level so process backends can pickle it into workers.  The
    batched metric (when provided) must consume the stream exactly as the
    scalar loop would to keep the two paths bit-identical.
    """
    component_id, generator, iterations, metric_fn, batch_metric_fn = task
    if batch_metric_fn is not None:
        samples = np.asarray(batch_metric_fn(component_id, generator, iterations), dtype=np.float64)
        if samples.shape != (iterations,):
            raise ShapeError(
                f"batched metric must return shape ({iterations},), got {samples.shape}"
            )
    else:
        samples = np.array(
            [float(metric_fn(component_id, generator)) for _ in range(iterations)],
            dtype=np.float64,
        )
    return component_id, samples


def score_components(
    component_ids: Sequence[int],
    metric_fn: Optional[MetricFn] = None,
    iterations: int = 1000,
    rng: RNGLike = None,
    metric: str = "custom",
    batch_metric_fn: Optional[BatchMetricFn] = None,
    backend: BackendLike = None,
    workers: Optional[int] = None,
) -> CriticalityReport:
    """Generic criticality scoring loop on the batched/sharded engine.

    ``metric_fn(component_id, generator)`` evaluates the impact metric for
    one Monte Carlo draw targeting one component; the component score is the
    mean over ``iterations`` draws.  ``batch_metric_fn(component_id,
    generator, iterations)`` evaluates all of a component's draws at once
    (vectorized) and takes precedence when provided; the scalar path stays
    as the reference implementation and a batched metric that consumes the
    stream identically is bit-identical to it.

    Components are independent work units, each carrying its pre-spawned
    child stream, so scores do not depend on the backend or worker count.
    By default (no ``workers``/``backend``) they run on one thread per
    available CPU: the metric callables are then called concurrently and
    must be thread-safe.  ``workers=1`` evaluates them serially on the
    calling thread (the reference); ``workers=N`` shards them across worker
    processes, which needs picklable metric callables (module-level
    functions, bound methods of picklable objects).
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    if metric_fn is None and batch_metric_fn is None:
        raise ValueError("score_components requires metric_fn and/or batch_metric_fn")
    component_ids = [int(component_id) for component_id in component_ids]
    streams = spawn_rngs(rng, len(component_ids))
    tasks: List[ComponentTask] = [
        (component_id, stream, iterations, metric_fn, batch_metric_fn)
        for component_id, stream in zip(component_ids, streams)
    ]
    results = resolve_backend(backend, workers).map(evaluate_component_samples, tasks)
    scores: List[ComponentCriticality] = []
    for component_id, samples in results:
        summary = summarize(samples)
        scores.append(
            ComponentCriticality(identifier=component_id, score=summary.mean, std=summary.std)
        )
    return CriticalityReport(scores=scores, metric=metric)


@dataclass(frozen=True, eq=False)
class SingleMZIRVDMetric:
    """Criticality metric of the Fig. 3 study: RVD with one MZI perturbed.

    Picklable callable pair for :func:`score_components` — ``scalar``
    evaluates one draw, ``batched`` stacks a component's ``iterations``
    realizations and evaluates them with :meth:`MZIMesh.matrix_batch`.
    Both consume the component stream with exactly the same draws.
    """

    mesh: MZIMesh
    model: UncertaintyModel
    reference: np.ndarray
    rvd_eps: float = 0.0

    def scalar(self, mzi_index: int, generator: np.random.Generator) -> float:
        perturbation = sample_single_mzi_perturbation(self.mesh, mzi_index, self.model, generator)
        return rvd(self.mesh.matrix(perturbation), self.reference, eps=self.rvd_eps)

    def batched(self, mzi_index: int, generator: np.random.Generator, iterations: int) -> np.ndarray:
        realizations = [
            sample_single_mzi_perturbation(self.mesh, mzi_index, self.model, generator)
            for _ in range(iterations)
        ]
        matrices = self.mesh.matrix_batch(MeshPerturbationBatch.stack(realizations))
        return rvd_batch(matrices, self.reference, eps=self.rvd_eps)


def per_mzi_rvd_criticality(
    mesh: MZIMesh,
    model: UncertaintyModel,
    iterations: int = 1000,
    rng: RNGLike = None,
    rvd_eps: float = 0.0,
    backend: BackendLike = None,
    workers: Optional[int] = None,
) -> CriticalityReport:
    """Average RVD of a mesh when each MZI is perturbed in isolation (Fig. 3).

    For every MZI the mesh is re-evaluated ``iterations`` times with random
    perturbations applied to that device only; the average RVD against the
    nominal unitary is that device's criticality score.

    The ``iterations`` realizations of one device are stacked and
    evaluated with :meth:`MZIMesh.matrix_batch`
    (:meth:`SingleMZIRVDMetric.batched`); they draw from the same
    per-device streams as the scalar reference
    (:meth:`SingleMZIRVDMetric.scalar`) and give bit-identical scores.
    By default the devices are scored concurrently on one thread per
    available CPU, ``workers=1`` scores them serially and ``workers=N``
    shards them across worker processes — bit-identical every way, since
    each device's stream is spawned up front and consumed in one place.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    scorer = SingleMZIRVDMetric(
        mesh=mesh, model=model, reference=mesh.ideal_matrix(), rvd_eps=rvd_eps
    )
    return score_components(
        range(mesh.num_mzis),
        iterations=iterations,
        rng=rng,
        metric="mean_rvd",
        batch_metric_fn=scorer.batched,
        backend=backend,
        workers=workers,
    )
