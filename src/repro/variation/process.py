"""Perturbation processes: the temporal generalization of the i.i.d. sampler.

The paper's Monte Carlo methodology is *static*: every trial draws a fresh
i.i.d. Gaussian realization of the component errors (§III-A).  A deployed
mesh instead degrades along a *timeline* — thermal drift wanders, aging
accumulates, a bias ramp creeps — and the operations question becomes
"what accuracy does the service actually serve at time t, and when must we
re-null the phases?".

This module turns the variation stack into a first-class
:class:`PerturbationProcess` timeline seam.  Static Monte Carlo draws do not
go through it: they come straight from :mod:`repro.variation.sampler`.

* :class:`IIDGaussianProcess` redraws the state from scratch at every
  timeline step, so step ``t`` is bit-identical to a fresh
  :func:`~repro.variation.sampler.sample_network_perturbation_batch` call
  on the same streams.
* :class:`OrnsteinUhlenbeckProcess` models thermal drift: a stationary
  mean-reverting walk whose marginal stays exactly the model's Gaussian at
  every step (an OU process in normalized units, ``rho = exp(-dt/tau)``).
* :class:`RandomWalkProcess` models aging: variance grows linearly with
  time on top of the fabrication draw.
* :class:`DriftRampProcess` models a deterministic drift (e.g. a slow bias
  or temperature ramp) and consumes **no** randomness after the
  fabrication draw.

**State representation.** A process state holds, per (layer, stage), the
``(B, draws)`` matrix of *normalized* draws ``z`` — the same concatenated
standard-normal layout the i.i.d. sampler slices into device families
(:func:`~repro.variation.sampler.mesh_perturbation_batch_from_draws`).
Physical perturbations are always ``sigma * z``.

**Determinism.** Timeline ``b`` consumes ``generators[b]`` only, in a
fixed per-step order (layer by layer; U mesh, V mesh, Sigma bank — the
i.i.d. sampler's order), so advancing timelines ``[0:4]`` in one state is
bit-identical to advancing ``[0:2]`` and ``[2:4]`` in two: the timeline
sweep can shard timelines across any worker count without changing a
single draw.

**Recalibration.** Re-nulling a deployed mesh re-tunes its *phase
shifters* to cancel the accumulated drift; splitter (reflectance) errors
are fabrication properties no phase tuner can remove.  The state models
this exactly: :meth:`DriftState.renull` snapshots the tunable phase-family
slices of ``z`` into a compensation buffer that is subtracted from every
later realization, while the splitter slices keep drifting uncompensated.
This is the idealized form of :meth:`~repro.mesh.svd_layer.
PhotonicLinearLayer.retune_from_weight` (which re-nulls a real layer in
place and is exercised by :mod:`repro.analysis.recalibration` for the
cost accounting).
"""

from __future__ import annotations

import copy
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import ClassVar, List, Optional, Sequence, Tuple

import numpy as np

from ..mesh.svd_layer import LayerPerturbationBatch, PhotonicLinearLayer
from .models import UncertaintyModel
from .sampler import (
    _draw_rows,
    diagonal_batch_draw_length,
    diagonal_perturbation_batch_from_draws,
    mesh_batch_draw_length,
    mesh_perturbation_batch_from_draws,
)

# Re-exported: the traced benchmark wraps this name on both modules.
from .sampler import sample_network_perturbation_batch  # noqa: F401

__all__ = [
    "PerturbationProcess",
    "IIDGaussianProcess",
    "OrnsteinUhlenbeckProcess",
    "RandomWalkProcess",
    "DriftRampProcess",
    "DriftState",
    "state_values_per_timeline",
    "PROCESS_NAMES",
    "build_process",
]


# --------------------------------------------------------------------------- #
# per-stage layout
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class _StageSpec:
    """Draw layout of one (layer, stage) slot of the state."""

    layer_index: int
    stage: str  # "u" | "v" | "sigma"
    length: int
    #: Half-open ``(start, stop)`` column ranges of the tunable phase-family
    #: draws — the part of the state a re-null can compensate.  Splitter
    #: slices are never tunable; phase slices only count when the model
    #: actually perturbs phases (otherwise their draws never reach the
    #: hardware and must not pollute the drift metric).
    tunable: Tuple[Tuple[int, int], ...]


def _mesh_tunable_slices(mesh, model: UncertaintyModel) -> Tuple[Tuple[int, int], ...]:
    if not model.phase_std:
        return ()
    count = mesh.num_mzis
    slices = [(0, count), (count, 2 * count)]
    if model.perturb_output_phases:
        slices.append((4 * count, 4 * count + mesh.n))
    return tuple(slices)


def _network_stage_specs(
    layers: Sequence[PhotonicLinearLayer], model: UncertaintyModel
) -> List[Optional[_StageSpec]]:
    """Flat stage layout, in exact stream-consumption order.

    ``None`` entries mark inactive Sigma stages (which the i.i.d. sampler
    skips without consuming any draws — the processes must skip them too).
    """
    specs: List[Optional[_StageSpec]] = []
    for index, layer in enumerate(layers):
        for stage, mesh in (("u", layer.mesh_u), ("v", layer.mesh_v)):
            specs.append(
                _StageSpec(
                    layer_index=index,
                    stage=stage,
                    length=mesh_batch_draw_length(mesh, model),
                    tunable=_mesh_tunable_slices(mesh, model),
                )
            )
        num_mzis = layer.diagonal.num_mzis
        length = diagonal_batch_draw_length(num_mzis, model)
        if length is None:
            specs.append(None)
        else:
            tunable = ((0, 2 * num_mzis),) if model.phase_std else ()
            specs.append(
                _StageSpec(layer_index=index, stage="sigma", length=length, tunable=tunable)
            )
    return specs


def state_values_per_timeline(
    layers: Sequence[PhotonicLinearLayer], model: UncertaintyModel, compensations: int = 1
) -> int:
    """Floats one timeline of a :class:`DriftState` holds once re-nulled.

    The normalized state ``z`` of every active stage plus the compensation
    of its tunable columns, once per re-nulling view
    (:meth:`DriftState.view`) — the sizing input of the timeline chunk hint.
    """
    return sum(
        spec.length + compensations * sum(stop - start for start, stop in spec.tunable)
        for spec in _network_stage_specs(layers, model)
        if spec is not None
    )


# --------------------------------------------------------------------------- #
# timeline state
# --------------------------------------------------------------------------- #


class _Trajectory:
    """What every view of one drift state shares: the draws ``z`` and the step."""

    __slots__ = ("z", "step")

    def __init__(self, stages: int):
        self.z: List[Optional[object]] = [None] * stages
        self.step = -1


class DriftState:
    """State of ``B`` independent device timelines under one process.

    Created by :meth:`PerturbationProcess.init_state`; holds one
    ``(B, length)`` normalized draw matrix per (layer, stage) plus the
    re-null compensation buffers.  :meth:`advance` evolves every timeline
    one step (consuming each timeline's own generator in the fixed stage
    order), :meth:`realize` maps the compensated state to physical
    perturbation batches, and :meth:`renull`/:meth:`drift_rms` implement
    the recalibration seam.  :meth:`view` gives further handles on the same
    trajectory, one per recalibration policy.
    """

    def __init__(
        self,
        process: "PerturbationProcess",
        layers: Sequence[PhotonicLinearLayer],
        model: UncertaintyModel,
        generators: Sequence[np.random.Generator],
    ):
        self.process = process
        self.layers = list(layers)
        self.model = model
        self.generators = list(generators)
        if not self.generators:
            raise ValueError("a drift state requires at least one generator (one per timeline)")
        self.specs = _network_stage_specs(self.layers, model)
        self._trajectory = _Trajectory(len(self.specs))
        #: Re-null compensation: one ``(B, stop - start)`` block per
        #: ``spec.tunable`` range, subtracted from those columns of ``z`` at
        #: realization time (the other columns are never compensated, so no
        #: block is held for them).  Allocated lazily on the first re-null.
        self.compensation: List[Optional[Tuple[object, ...]]] = [None] * len(self.specs)

    @property
    def z(self) -> List[Optional[object]]:
        """Normalized draw matrices, aligned with ``specs`` (``None`` until
        the first :meth:`advance`, and for inactive Sigma stages)."""
        return self._trajectory.z

    @property
    def step(self) -> int:
        """Steps taken so far minus one (-1 = not yet advanced; the first
        :meth:`advance` is step 0, the fabrication draw)."""
        return self._trajectory.step

    @property
    def batch_size(self) -> int:
        """Number of independent timelines."""
        return len(self.generators)

    def view(self) -> "DriftState":
        """Another handle on this trajectory, with compensation of its own.

        The view shares ``z`` and the step (an :meth:`advance` through
        either moves both) but re-nulls on its own.  Re-nulling consumes no
        randomness, so each view realizes what a separate state on the same
        generators would: one trajectory serves several policies.
        """
        view = copy.copy(self)
        view.compensation = [None] * len(self.specs)
        return view

    @property
    def renull_clears_every_field(self) -> bool:
        """Whether a re-null of every timeline leaves every realized field ``+0.0``.

        True when every draw that reaches the hardware is tunable (phases
        with a non-zero sigma, no splitters): ``z - z`` is ``+0.0``, so all
        timelines then realize the same bytes.
        """
        return bool(self.model.phase_std) and not self.model.perturb_splitters

    # ------------------------------------------------------------------ #
    # evolution
    # ------------------------------------------------------------------ #
    def advance(self) -> None:
        """Evolve every timeline one step.

        Step 0 is the fabrication draw ``z = eps`` for every process; later
        steps apply the process's update rule.  Each timeline's generator
        is consumed in the i.i.d. sampler's stage order, and only by its
        own row, so the evolution is invariant to how timelines are
        chunked across workers.
        """
        self._trajectory.step += 1
        uses_noise = self.step == 0 or self.process.uses_noise_after_init
        for index, spec in enumerate(self.specs):
            if spec is None:
                continue
            if self.step == 0:
                self.z[index] = _draw_rows(self.generators, spec.length)
            else:
                eps = _draw_rows(self.generators, spec.length) if uses_noise else None
                self.process._update(self.z[index], eps)

    # ------------------------------------------------------------------ #
    # realization
    # ------------------------------------------------------------------ #
    def _effective(self, index: int):
        z = self.z[index]
        compensation = self.compensation[index]
        if compensation is None:
            return z
        # Bit-identical to ``z - full_width_compensation``: subtracting the
        # +0.0 of an uncompensated column returns ``z`` exactly.
        effective = z.copy()
        for (start, stop), block in zip(self.specs[index].tunable, compensation):
            effective[:, start:stop] -= block
        return effective

    def realize(self) -> List[Optional[LayerPerturbationBatch]]:
        """Physical perturbation batches for the current step.

        Applies the shared draws→fields mapping of the i.i.d. sampler to
        the compensated state, so an :class:`IIDGaussianProcess` step is
        bit-identical to a fresh
        :func:`~repro.variation.sampler.sample_network_perturbation_batch`
        call on the same streams.
        """
        if self.step < 0:
            raise RuntimeError("advance() the state before realizing perturbations")
        batches: List[Optional[LayerPerturbationBatch]] = []
        for layer_index, layer in enumerate(self.layers):
            base = 3 * layer_index
            u = mesh_perturbation_batch_from_draws(
                layer.mesh_u, self.model, self._effective(base)
            )
            v = mesh_perturbation_batch_from_draws(
                layer.mesh_v, self.model, self._effective(base + 1)
            )
            sigma = None
            if self.specs[base + 2] is not None:
                sigma = diagonal_perturbation_batch_from_draws(
                    layer.diagonal.num_mzis, self.model, self._effective(base + 2)
                )
            batches.append(LayerPerturbationBatch(u=u, v=v, sigma=sigma))
        return batches

    # ------------------------------------------------------------------ #
    # recalibration seam
    # ------------------------------------------------------------------ #
    def drift_rms(self):
        """Per-timeline RMS of the compensated tunable drift, shape ``(B,)``.

        Measured in normalized units ("how many sigmas has the tunable
        phase state wandered from its re-nulled point"); splitter drift is
        excluded because no phase re-null can touch it.  All-splitter
        models have no tunable state and report zero drift.
        """
        if self.step < 0:
            raise RuntimeError("advance() the state before measuring drift")
        total = None
        width = 0
        for index, spec in enumerate(self.specs):
            if spec is None or not spec.tunable:
                continue
            effective = self._effective(index)
            for start, stop in spec.tunable:
                if stop <= start:
                    continue
                block = effective[:, start:stop]
                contribution = np.mean(block * block, axis=1) * (stop - start)
                total = contribution if total is None else total + contribution
                width += stop - start
        if total is None or width == 0:
            return np.zeros(self.batch_size)
        return np.sqrt(total / width)

    def renull(self, rows=None) -> None:
        """Re-null the tunable phase families (all timelines or ``rows``).

        Snapshots the current tunable slices of ``z`` into the
        compensation buffers, so subsequent realizations see zero phase
        drift at this instant — the idealized effect of re-tuning the
        phase shifters via
        :meth:`~repro.mesh.svd_layer.PhotonicLinearLayer.retune_from_weight`.
        Splitter slices are untouched: fabrication reflectance errors are
        not tunable.  ``rows`` is an optional ``(B,)`` boolean mask
        selecting which timelines re-null (threshold-triggered policies
        re-null only the timelines that tripped).  Consumes no randomness,
        so re-nulling never changes any stream's draw sequence.
        """
        if self.step < 0:
            raise RuntimeError("advance() the state before re-nulling")
        for index, spec in enumerate(self.specs):
            if spec is None or not spec.tunable:
                continue
            z = self.z[index]
            if self.compensation[index] is None:
                self.compensation[index] = tuple(
                    np.zeros((self.batch_size, stop - start)) for start, stop in spec.tunable
                )
            for (start, stop), block in zip(spec.tunable, self.compensation[index]):
                if rows is None:
                    block[...] = z[:, start:stop]
                else:
                    block[rows] = z[rows, start:stop]


# --------------------------------------------------------------------------- #
# the process protocol and its implementations
# --------------------------------------------------------------------------- #


class PerturbationProcess(ABC):
    """How component errors evolve along a timeline of ``B`` devices.

    :meth:`init_state` / :meth:`DriftState.advance` give a vectorized
    timeline of ``B`` independent devices, used by
    :func:`repro.analysis.timeline.timeline_sweep`.  Subclasses implement
    :meth:`_update`, the in-place one-step evolution of a normalized
    ``(B, length)`` state matrix.
    """

    #: Whether steps after the fabrication draw consume randomness.  The
    #: deterministic ramp sets this False and draws nothing after step 0.
    uses_noise_after_init: ClassVar[bool] = True
    #: Registry name (see :func:`build_process`).
    name: ClassVar[str] = ""

    def init_state(
        self,
        layers: Sequence[PhotonicLinearLayer],
        model: UncertaintyModel,
        generators: Sequence[np.random.Generator],
    ) -> DriftState:
        """Fresh (not yet advanced) timeline state for ``len(generators)`` devices."""
        return DriftState(self, layers, model, generators)

    @abstractmethod
    def _update(self, z, eps) -> None:
        """Evolve a normalized state matrix one step, in place.

        ``eps`` is a fresh standard-normal matrix of the same shape, or
        ``None`` when :attr:`uses_noise_after_init` is False.
        """


@dataclass(frozen=True)
class IIDGaussianProcess(PerturbationProcess):
    """The paper's static model: every step is a fresh fabrication draw.

    Each timeline step replaces the state with fresh draws, so step ``t``
    equals a standalone i.i.d. Monte Carlo batch on the same streams.
    """

    name: ClassVar[str] = "iid"

    def _update(self, z, eps) -> None:
        z[...] = eps


@dataclass(frozen=True)
class OrnsteinUhlenbeckProcess(PerturbationProcess):
    """Stationary mean-reverting thermal drift (OU in normalized units).

    ``z_{t+1} = rho z_t + sqrt(1 - rho^2) eps`` with
    ``rho = exp(-dt / correlation_time)``, started from the stationary
    distribution (the fabrication draw), so the *marginal* at every step
    is exactly the model's ``N(0, sigma^2)`` — the static yield picture is
    preserved while consecutive steps correlate with time constant
    ``correlation_time``.
    """

    #: Autocorrelation time constant, in units of the timeline step.
    correlation_time: float = 25.0
    #: Timeline step duration in the same units.
    dt: float = 1.0
    name: ClassVar[str] = "ou"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.correlation_time) and self.correlation_time > 0):
            raise ValueError(
                f"correlation_time must be positive and finite, got {self.correlation_time}"
            )
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")

    @property
    def rho(self) -> float:
        """One-step autocorrelation ``exp(-dt / correlation_time)``."""
        return math.exp(-self.dt / self.correlation_time)

    def _update(self, z, eps) -> None:
        rho = self.rho
        diffusion = math.sqrt(1.0 - rho * rho)
        z *= rho
        z += diffusion * eps


@dataclass(frozen=True)
class RandomWalkProcess(PerturbationProcess):
    """Aging: an unbounded random walk on top of the fabrication draw.

    ``z_{t+1} = z_t + step_scale * eps``, so the normalized drift variance
    grows as ``1 + t * step_scale^2`` — the accumulating degradation that
    makes periodic re-nulling a necessity rather than an optimization
    (cf. the mean-first-passage statistics of random walks: every
    timeline eventually exceeds any fixed drift threshold).
    """

    #: Per-step walk increment, in units of the model sigma.
    step_scale: float = 0.1
    name: ClassVar[str] = "walk"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.step_scale) and self.step_scale >= 0):
            raise ValueError(f"step_scale must be non-negative and finite, got {self.step_scale}")

    def _update(self, z, eps) -> None:
        z += self.step_scale * eps


@dataclass(frozen=True)
class DriftRampProcess(PerturbationProcess):
    """Deterministic drift: a constant per-step ramp on every component.

    After the fabrication draw the state creeps by ``rate`` per step (in
    units of the model sigma) with **no further randomness** — e.g. a slow
    ambient-temperature or bias ramp.  Useful as an analytically exact
    sanity case: ``z_t = z_0 + rate * t`` bit for bit.
    """

    #: Per-step deterministic increment, in units of the model sigma.
    rate: float = 0.05
    name: ClassVar[str] = "ramp"
    uses_noise_after_init: ClassVar[bool] = False

    def __post_init__(self) -> None:
        if not math.isfinite(self.rate):
            raise ValueError(f"rate must be finite, got {self.rate}")

    def _update(self, z, eps) -> None:
        z += self.rate


# --------------------------------------------------------------------------- #
# registry (config/CLI-facing)
# --------------------------------------------------------------------------- #

#: Process names accepted by :func:`build_process` (CLI/config-facing).
PROCESS_NAMES = ("iid", "ou", "walk", "ramp")


def build_process(
    name: str,
    correlation_time: float = 25.0,
    dt: float = 1.0,
    step_scale: float = 0.1,
    rate: float = 0.05,
) -> PerturbationProcess:
    """Construct a named perturbation process from scalar knobs.

    Only the knobs relevant to ``name`` are consulted, so one config
    dataclass can carry all of them (the drift experiment does).
    """
    key = name.lower()
    if key == "iid":
        return IIDGaussianProcess()
    if key == "ou":
        return OrnsteinUhlenbeckProcess(correlation_time=correlation_time, dt=dt)
    if key == "walk":
        return RandomWalkProcess(step_scale=step_scale)
    if key == "ramp":
        return DriftRampProcess(rate=rate)
    raise ValueError(f"unknown perturbation process {name!r}; expected one of {PROCESS_NAMES}")
