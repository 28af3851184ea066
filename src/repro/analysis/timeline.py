"""Timeline sweep: served accuracy of many drifting devices over time.

The Monte Carlo engine answers the *static* question ("what accuracy does a
fresh fabrication draw serve?"); this runner answers the *operations*
question: advance ``B`` independent device timelines through ``T`` steps of
a temporal perturbation process (:mod:`repro.variation.process`), serve the
evaluation set at every step, optionally re-null drifting phases under
one or more :class:`~repro.analysis.recalibration.RecalibrationPolicy`
objects served from the same trajectories, and report each policy's
served-accuracy-vs-time curve plus the recalibration events that produced
it.

Scheduling is the Monte Carlo engine's: one child stream per *timeline*
is named up front (the :class:`~repro.utils.rng.StreamSlice` recipe of
:func:`~repro.utils.rng.spawn_rngs`), and the timelines are one part of a
:func:`~repro.analysis.monte_carlo.run_sweep`, cut into vectorized chunks
that build their own generators from their slice of the recipe.
Each timeline consumes only its own stream, in a fixed per-step stage
order, so the resulting curves are **bit-identical for every backend,
worker count and chunk size** — and recalibration consumes no randomness,
so policies cannot perturb the draws either.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..execution import BackendLike, resolve_backend
from ..execution.hosting import ArrayLike, resolve_array, resolve_network
from ..observability.recorder import active as _active_recorder
from ..training.workspace import process_workspace
from ..utils.rng import RNGLike, StreamSlice, materialize_streams, spawn_slice
from ..utils.serialization import format_table
from ..variation.models import UncertaintyModel
from ..variation.process import PerturbationProcess, state_values_per_timeline
from ..variation.sampler import diagonal_batch_draw_length
from .monte_carlo import CHUNK_TARGET_BYTES, run_sweep, sweep_scope
from .recalibration import RecalibrationPolicy

__all__ = [
    "AccuracyTimelineTrial",
    "TimelineSweepResult",
    "evaluate_timeline_chunk",
    "timeline_sweep",
]


@dataclass(frozen=True, eq=False)
class AccuracyTimelineTrial:
    """Picklable chunk evaluator: ``B`` timelines through ``T`` steps.

    Advances one :class:`~repro.variation.process.DriftState` for its chunk
    of timelines and serves the evaluation set at every step under each of
    ``policies``, each through its own
    :meth:`~repro.variation.process.DriftState.view`, so the draws are
    made once.  Per step the order is: evolve the state; then, per policy,
    apply due recalibrations (schedule, drift threshold, and accuracy
    triggers raised by the *previous* step's served traffic); serve;
    measure.  A chunk whose timelines all realize the same bytes (a full
    re-null that clears every field) evaluates one timeline and serves it
    to all: a sample never depends on its chunk.  ``spnn``/``features``/
    ``labels`` accept hosted tokens exactly like the Monte Carlo
    trials.
    """

    spnn: object
    features: ArrayLike
    labels: ArrayLike
    model: UncertaintyModel
    process: PerturbationProcess
    num_steps: int
    #: Recalibration policies served from the one trajectory; ``None`` (or
    #: a null policy) is the no-maintenance baseline.
    policies: Tuple[Optional[RecalibrationPolicy], ...] = (None,)
    #: Samples per forward-pass chunk inside ``accuracy_batch``; automatic
    #: when ``None``.  Never changes the curves.
    forward_chunk_size: Optional[int] = None
    #: Recycle forward-pass scratch through the process-local workspace
    #: arena (bit-identical; allocation reuse only).
    use_workspace: bool = False

    def preferred_chunk_size(self) -> int:
        """Timelines per chunk keeping one chunk's working set near target.

        Counts what one timeline holds while a step is served: its state
        ``z`` and the compensation of the tunable columns (once per armed
        policy, and at least once), the realized
        perturbation fields, the per-layer hardware matrices, and the
        packed component stacks of the largest mesh (meshes are evaluated
        one at a time).  Forward activations are not counted — each
        step's forward runs in fixed-size sub-chunks of
        :meth:`~repro.onn.SPNN.accuracy_batch`, whatever the chunk size.
        Consulted by :func:`timeline_sweep` when no explicit
        ``chunk_size`` is given.
        """
        spnn = resolve_network(self.spnn)
        matrix_bytes = sum(out * inp for out, inp in spnn.architecture.weight_shapes()) * 16
        per_timeline = matrix_bytes
        if spnn.is_compiled:
            layers = spnn.photonic_layers
            model = self.model
            meshes = [mesh for layer in layers for mesh in (layer.mesh_u, layer.mesh_v)]
            # Realized fields: theta and phi always, the splitters and the
            # output screen only when perturbed, four per Sigma-bank device.
            fields = sum(
                (4 if model.perturb_splitters else 2) * mesh.num_mzis
                + (mesh.n if model.perturb_output_phases else 0)
                for mesh in meshes
            )
            fields += sum(
                4 * layer.diagonal.num_mzis
                for layer in layers
                if diagonal_batch_draw_length(layer.diagonal.num_mzis, model) is not None
            )
            armed = sum(policy is not None and not policy.is_null for policy in self.policies)
            values = state_values_per_timeline(layers, model, max(1, armed)) + fields
            stacks = 2 * 2 * 16 * max(mesh.num_mzis for mesh in meshes)
            per_timeline += 8 * values + stacks
        return max(1, CHUNK_TARGET_BYTES // max(1, per_timeline))

    def __call__(
        self, generators: Sequence[np.random.Generator]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(accuracy, events)`` blocks of shape ``(len(policies), B, num_steps)``."""
        generators = list(generators)
        spnn = resolve_network(self.spnn)
        features = resolve_array(self.features)
        labels = resolve_array(self.labels)
        workspace = process_workspace() if self.use_workspace else None
        policies = [
            policy if policy is not None else RecalibrationPolicy() for policy in self.policies
        ]
        state = self.process.init_state(spnn.photonic_layers, self.model, generators)
        # One trajectory, one view per policy: each keeps its own re-nulls.
        views = [state] + [state.view() for _ in policies[1:]]
        shape = (len(policies), len(generators), self.num_steps)
        accuracy = np.empty(shape, dtype=np.float64)
        events = np.zeros(shape, dtype=bool)
        # Accuracy-triggered re-nulls raised by the previous step's traffic.
        pending = np.zeros(shape[:2], dtype=bool)
        for step in range(self.num_steps):
            state.advance()
            for index, (policy, view) in enumerate(zip(policies, views)):
                mask = pending[index].copy()
                if policy.scheduled(step):
                    mask[:] = True
                if policy.drift_threshold is not None:
                    drifted = view.drift_rms() >= policy.drift_threshold
                    mask |= drifted
                renulled = bool(mask.all())
                if renulled:
                    view.renull()
                elif mask.any():
                    view.renull(rows=mask)
                events[index, :, step] = mask
                shared = renulled and view.renull_clears_every_field
                served = self._serve(spnn, features, labels, view, shared, workspace)
                accuracy[index, :, step] = served
                if policy.accuracy_threshold is not None:
                    pending[index] = accuracy[index, :, step] < policy.accuracy_threshold
        return accuracy, events

    def _serve(self, spnn, features, labels, view, shared: bool, workspace):
        """Served accuracy of the view's timelines; only timeline 0's when
        ``shared`` (every timeline realizes the same bytes)."""
        perturbations = view.realize()
        if shared:
            perturbations = [layer.realizations(slice(0, 1)) for layer in perturbations]
        return spnn.accuracy_batch(
            features,
            labels,
            perturbations,
            batch_size=1 if shared else view.batch_size,
            chunk_size=self.forward_chunk_size,
            workspace=workspace,
        )


#: Worker payload: chunk's first timeline index, the trial, the recipes of
#: the chunk's streams.
TimelineChunkTask = Tuple[int, AccuracyTimelineTrial, Tuple[StreamSlice, ...]]


def evaluate_timeline_chunk(task: TimelineChunkTask) -> Tuple[int, Tuple[np.ndarray, np.ndarray]]:
    """Evaluate one chunk of timelines; module-level so workers can pickle it."""
    start, trial, streams = task
    return start, trial(materialize_streams(streams))


@dataclass
class TimelineSweepResult:
    """Served accuracy and recalibration events of a timeline sweep."""

    #: Per-timeline served accuracy, shape ``(timelines, num_steps)``.
    accuracy: np.ndarray = field(repr=False)
    #: Which timelines re-nulled at which step, same shape, boolean.
    recalibrations: np.ndarray = field(repr=False)
    num_steps: int = 0
    timelines: int = 0
    process: str = ""
    policy: Optional[RecalibrationPolicy] = None
    nominal_accuracy: float = 0.0

    def served_accuracy_curve(self) -> np.ndarray:
        """Mean served accuracy per step across timelines, shape ``(T,)``."""
        return self.accuracy.mean(axis=0)

    def recalibration_curve(self) -> np.ndarray:
        """Fraction of timelines re-nulling per step, shape ``(T,)``."""
        return self.recalibrations.mean(axis=0)

    @property
    def mean_served_accuracy(self) -> float:
        """Mean accuracy over every (timeline, step) service slot."""
        return float(self.accuracy.mean())

    @property
    def final_step_accuracy(self) -> float:
        """Mean served accuracy at the last step (the aged fleet)."""
        return float(self.accuracy[:, -1].mean())

    @property
    def total_recalibrations(self) -> int:
        """Recalibration events summed over all timelines and steps."""
        return int(self.recalibrations.sum())

    @property
    def recalibrations_per_timeline(self) -> float:
        """Mean recalibration events one timeline pays over the horizon."""
        return self.total_recalibrations / max(1, self.timelines)

    def report(self) -> str:
        """Compact served-accuracy-vs-time table (sub-sampled to ~12 rows)."""
        curve = self.served_accuracy_curve()
        recal = self.recalibration_curve()
        stride = max(1, self.num_steps // 12)
        steps = list(range(0, self.num_steps, stride))
        if steps[-1] != self.num_steps - 1:
            steps.append(self.num_steps - 1)
        rows = [
            [step, 100.0 * float(curve[step]), 100.0 * float(recal[step])]
            for step in steps
        ]
        header = (
            f"Timeline sweep — {self.timelines} device timelines x {self.num_steps} steps "
            f"under process {self.process!r} (nominal {100.0 * self.nominal_accuracy:.2f}%)"
        )
        footer = (
            f"mean served accuracy {100.0 * self.mean_served_accuracy:.2f}%, "
            f"final step {100.0 * self.final_step_accuracy:.2f}%, "
            f"{self.recalibrations_per_timeline:.2f} recalibrations per timeline"
        )
        table = format_table(["step", "served acc [%]", "recal [% of fleet]"], rows)
        return "\n".join([header, table, footer])


def timeline_sweep(
    spnn,
    features: ArrayLike,
    labels: ArrayLike,
    model: UncertaintyModel,
    process: PerturbationProcess,
    num_steps: int,
    timelines: int = 256,
    policies: Sequence[Optional[RecalibrationPolicy]] = (None,),
    rng: RNGLike = None,
    chunk_size: Optional[int] = None,
    backend: BackendLike = None,
    workers: Optional[int] = None,
    forward_chunk_size: Optional[int] = None,
    use_workspace: bool = False,
) -> List[TimelineSweepResult]:
    """Advance ``timelines`` independent devices ``num_steps`` steps and serve.

    Parameters
    ----------
    spnn:
        Compiled network under test (or a
        :class:`~repro.execution.hosting.Hosted` token).
    features, labels:
        Evaluation set served at every step (plain arrays or
        :class:`~repro.execution.hosting.Hosted` tokens; plain arrays
        are hosted for the forked workers on process backends, as
        in :func:`~repro.analysis.yield_analysis.yield_sweep`).
    model:
        Component uncertainty model scaling the normalized drift state.
    process:
        Temporal perturbation process
        (:func:`~repro.variation.process.build_process` or an instance).
    num_steps:
        Timeline horizon ``T``.
    timelines:
        Number of independent device timelines ``B`` (the Monte Carlo axis;
        each gets its own child stream spawned from ``rng`` up front).
    policies:
        The :class:`~repro.analysis.recalibration.RecalibrationPolicy`
        objects to serve under; ``None`` (or a null policy) is the
        no-maintenance baseline.  All of them are served from the same
        drift trajectories in one pass (re-nulling consumes no
        randomness), so their curves are exactly paired and each equals a
        sweep of that policy alone.
    rng:
        Seed; curves are reproducible and worker-count invariant at a
        fixed seed.
    chunk_size, backend, workers:
        Scheduling knobs, exactly as in the Monte Carlo engine: timelines
        are sharded into vectorized chunks across the selected execution
        backend.
    forward_chunk_size, use_workspace:
        Forwarded to the per-step forward pass (memory knobs; never change
        the curves).

    Returns
    -------
    list of TimelineSweepResult
        One per policy, in order: per-timeline served accuracy and
        recalibration events, with the fleet-level curves derived on
        demand.
    """
    if num_steps < 1:
        raise ValueError(f"num_steps must be >= 1, got {num_steps}")
    if timelines < 1:
        raise ValueError(f"timelines must be >= 1, got {timelines}")
    policies = tuple(policies)
    if not policies:
        raise ValueError("timeline_sweep needs at least one policy (None is the baseline)")

    nominal_accuracy = resolve_network(spnn).accuracy(
        resolve_array(features), resolve_array(labels), use_hardware=True
    )
    streams = spawn_slice(rng, timelines)
    resolved = resolve_backend(backend, workers)
    sweep_span = _active_recorder().span(
        "timeline/sweep", timelines=timelines, steps=num_steps, parallelism=resolved.parallelism
    )
    with sweep_span, sweep_scope(resolved, features, labels, spnn) as (x, y, network):
        trial = AccuracyTimelineTrial(
            spnn=network,
            features=x,
            labels=y,
            model=model,
            process=process,
            num_steps=num_steps,
            policies=policies,
            forward_chunk_size=forward_chunk_size,
            use_workspace=use_workspace,
        )
        [(accuracy, events)] = run_sweep(
            resolved, evaluate_timeline_chunk, [(trial, streams)], chunk_size, label="timeline"
        )
    return [
        TimelineSweepResult(
            accuracy=accuracy[index],
            recalibrations=events[index],
            num_steps=int(num_steps),
            timelines=int(timelines),
            process=getattr(process, "name", "") or type(process).__name__,
            policy=policy,
            nominal_accuracy=float(nominal_accuracy),
        )
        for index, policy in enumerate(policies)
    ]

