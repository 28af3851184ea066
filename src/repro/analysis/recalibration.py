"""Online recalibration policies: when to re-null a drifting mesh.

A deployed mesh accumulates phase drift (:mod:`repro.variation.process`);
an operator can periodically *re-null* the phase shifters — re-tune them
to cancel the accumulated drift — at the cost of taking the device out of
service for the duration of a retune.  This module provides:

* :class:`RecalibrationPolicy` — the trigger rules consumed by the
  timeline sweep (:mod:`repro.analysis.timeline`): a fixed schedule, a
  drift-magnitude threshold, a served-accuracy threshold, or any
  combination (a timeline re-nulls when *any* armed trigger fires).
* :func:`renull_network` — the real re-nulling machinery: warm-retunes
  every layer in place via :meth:`~repro.mesh.svd_layer.
  PhotonicLinearLayer.retune_from_weight` (falling back to an exact
  recompile when a warm start diverges), which is what a recalibration
  event physically is.
* :func:`measure_renull_cost` — warm-vs-exact retune seconds, the price
  of one recalibration event used for the budget accounting of the drift
  experiment (served accuracy vs recalibration budget).

The vectorized timeline sweep models a re-null as a state reset on the
tunable phase families (:meth:`~repro.variation.process.DriftState.renull`)
— the idealized effect of a successful warm retune, applied to thousands
of timelines at once — and uses the measured per-event cost to convert
event counts into a time budget.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..mesh.svd_layer import PhotonicLinearLayer
from ..observability.recorder import Stopwatch
from ..utils.serialization import format_table

__all__ = [
    "RecalibrationPolicy",
    "RenullReport",
    "RenullCost",
    "renull_network",
    "measure_renull_cost",
]


@dataclass(frozen=True)
class RecalibrationPolicy:
    """Trigger rules deciding when a timeline re-nulls its phases.

    Parameters
    ----------
    every:
        Scheduled maintenance: re-null every ``every`` steps, *including
        step 0* (re-nulling at deployment cancels the fabrication phase
        errors — often the single largest win).  ``None`` disarms the
        schedule.
    drift_threshold:
        Condition-based maintenance: re-null a timeline whose normalized
        tunable drift RMS (:meth:`~repro.variation.process.DriftState.
        drift_rms`, in units of the model sigma) reaches the threshold.
        Checked before serving each step; only the timelines that tripped
        re-null.  ``None`` disarms the trigger.
    accuracy_threshold:
        Reactive maintenance: a timeline whose *served* accuracy fell
        below the threshold re-nulls before the next step (the operator
        only observes accuracy on served traffic, so the reaction lags one
        step).  ``None`` disarms the trigger.

    A policy with every trigger disarmed (:attr:`is_null`) never
    recalibrates — the no-maintenance baseline.  Triggers compose with
    OR semantics.  Policies are frozen dataclasses and pickle cleanly
    into worker processes; deciding and applying triggers never consumes
    randomness, so recalibration cannot perturb any stream's draw
    sequence (timelines stay bit-identical for every worker count no
    matter what the policy does).
    """

    every: Optional[int] = None
    drift_threshold: Optional[float] = None
    accuracy_threshold: Optional[float] = None

    def __post_init__(self) -> None:
        if self.every is not None and self.every < 1:
            raise ValueError(f"every must be >= 1, got {self.every}")
        if self.drift_threshold is not None and self.drift_threshold <= 0:
            raise ValueError(
                f"drift_threshold must be positive, got {self.drift_threshold}"
            )
        if self.accuracy_threshold is not None and not 0.0 <= self.accuracy_threshold <= 1.0:
            raise ValueError(
                f"accuracy_threshold must be in [0, 1], got {self.accuracy_threshold}"
            )

    @property
    def is_null(self) -> bool:
        """True when no trigger is armed (the no-recalibration baseline)."""
        return (
            self.every is None
            and self.drift_threshold is None
            and self.accuracy_threshold is None
        )

    def scheduled(self, step: int) -> bool:
        """Whether the fixed schedule fires at ``step`` (step 0 counts)."""
        return self.every is not None and step % self.every == 0


# --------------------------------------------------------------------------- #
# the real re-nulling machinery (single device)
# --------------------------------------------------------------------------- #


@dataclass
class RenullReport:
    """Outcome of re-nulling one network's layers."""

    warm_retunes: int
    exact_recompiles: int
    seconds: float

    @property
    def layers(self) -> int:
        return self.warm_retunes + self.exact_recompiles


def renull_network(layers: Sequence[PhotonicLinearLayer]) -> Tuple[List[PhotonicLinearLayer], RenullReport]:
    """Re-null every layer of a network to its own weight.

    Each layer is warm-retuned in place
    (:meth:`~repro.mesh.svd_layer.PhotonicLinearLayer.retune_from_weight`
    — rotation-updated SVD in the cached basis plus fast Clements phase
    re-nulling, validated to 1e-7); a layer whose warm start diverges is
    rebuilt exactly (retune leaves a failed layer unspecified, so the
    fallback constructs a fresh one).  Returns the (possibly replaced)
    layers and a report of what happened — after the call every layer's
    hardware matrices match its weight to compile precision, i.e. all
    accumulated tuning drift is cancelled.
    """
    renulled: List[PhotonicLinearLayer] = []
    warm = exact = 0
    watch = Stopwatch()
    for layer in layers:
        if layer.retune_from_weight(layer.weight):
            renulled.append(layer)
            warm += 1
        else:
            renulled.append(PhotonicLinearLayer(layer.weight, scheme=layer.scheme))
            exact += 1
    return renulled, RenullReport(warm_retunes=warm, exact_recompiles=exact, seconds=watch.seconds)


@dataclass
class RenullCost:
    """Measured price of one recalibration event (one network re-null)."""

    warm_seconds: float
    exact_seconds: float
    layers: int
    repeats: int

    @property
    def speedup(self) -> float:
        """Exact-recompile seconds per warm-retune second."""
        return self.exact_seconds / self.warm_seconds if self.warm_seconds > 0 else float("inf")

    def report(self) -> str:
        headers = ["path", "seconds / event"]
        rows = [
            ["warm retune (incremental re-null)", self.warm_seconds],
            ["exact recompile (from scratch)", self.exact_seconds],
        ]
        footer = (
            f"warm re-null is {self.speedup:.1f}x cheaper per event "
            f"({self.layers} layers, best of {self.repeats})"
        )
        return "\n".join([format_table(headers, rows), footer])


def measure_renull_cost(layers: Sequence[PhotonicLinearLayer], repeats: int = 3) -> RenullCost:
    """Time one recalibration event: warm retune vs exact recompile.

    Both paths re-map the same weights; the warm path reuses the cached
    decomposition basis and structures (PR 4's incremental recompile
    machinery, here serving as the production re-null primitive).  Best of
    ``repeats`` to shed scheduler noise.  Both paths run on copies, so the
    caller's layers keep their phases bit for bit (a warm retune to the
    same weight still moves them in the last bits).
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    layers = [copy.deepcopy(layer) for layer in layers]
    weights = [np.array(layer.weight, copy=True) for layer in layers]
    watch = Stopwatch()
    warm_seconds = float("inf")
    for _ in range(repeats):
        watch.restart()
        for layer, weight in zip(layers, weights):
            if not layer.retune_from_weight(weight):
                # A same-weight warm start should never diverge; rebuild so
                # the layer stays usable and time the honest total anyway.
                layer = PhotonicLinearLayer(weight, scheme=layer.scheme)
        warm_seconds = min(warm_seconds, watch.seconds)
    exact_seconds = float("inf")
    for _ in range(repeats):
        watch.restart()
        for layer, weight in zip(layers, weights):
            PhotonicLinearLayer(weight, scheme=layer.scheme)
        exact_seconds = min(exact_seconds, watch.seconds)
    return RenullCost(
        warm_seconds=warm_seconds,
        exact_seconds=exact_seconds,
        layers=len(layers),
        repeats=int(repeats),
    )
