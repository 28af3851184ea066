"""Perturbation schedules: how hard to shake the network per training epoch.

Noise-injected training does not have to apply the full target uncertainty
from epoch 0 — ramping the injected sigma in (or walking it through a
curriculum of levels) lets the network first learn the task and then harden
against variations, which is how in-situ-training work on MZI networks
stages its noise.  A :class:`PerturbationSchedule` maps ``(epoch,
total_epochs)`` to a *sigma scale factor* multiplied into the base
:class:`~repro.variation.models.UncertaintyModel` of the injector:

* ``constant`` — the same scale every epoch (1.0 trains at the target sigma
  throughout),
* ``linear`` — linear ramp from ``start_scale`` to ``end_scale`` across the
  epochs (first epoch gets ``start_scale``, last gets ``end_scale``),
* ``curriculum`` — an explicit staircase of scales split evenly over the
  epochs (e.g. ``(0.0, 0.5, 1.0, 1.5)`` trains the last quarter *above* the
  target sigma).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..exceptions import ConfigurationError

#: The schedule kinds accepted by :class:`PerturbationSchedule`.
SCHEDULE_KINDS = ("constant", "linear", "curriculum")


@dataclass(frozen=True)
class PerturbationSchedule:
    """Sigma scale factor as a function of the training epoch.

    Parameters
    ----------
    kind:
        One of :data:`SCHEDULE_KINDS`.
    start_scale, end_scale:
        Scale factors at the first / last epoch.  ``constant`` uses only
        ``end_scale``; ``linear`` interpolates between the two.
    levels:
        Scale staircase for ``curriculum`` (must be non-empty for that
        kind); epoch ``e`` of ``E`` uses ``levels[floor(e * len / E)]``.
    """

    kind: str = "constant"
    start_scale: float = 0.0
    end_scale: float = 1.0
    levels: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in SCHEDULE_KINDS:
            raise ConfigurationError(
                f"unknown schedule kind {self.kind!r}; expected one of {SCHEDULE_KINDS}"
            )
        if self.start_scale < 0 or self.end_scale < 0:
            raise ConfigurationError(
                f"schedule scales must be non-negative, got start={self.start_scale}, end={self.end_scale}"
            )
        if self.kind == "curriculum":
            if not self.levels:
                raise ConfigurationError("curriculum schedule requires at least one level")
            if any(level < 0 for level in self.levels):
                raise ConfigurationError(f"curriculum levels must be non-negative, got {self.levels}")
        elif self.levels:
            raise ConfigurationError(f"levels are only valid for the curriculum kind, got kind={self.kind!r}")

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def constant(cls, scale: float = 1.0) -> "PerturbationSchedule":
        """The same sigma scale every epoch."""
        return cls(kind="constant", end_scale=scale)

    @classmethod
    def linear_ramp(cls, start_scale: float = 0.0, end_scale: float = 1.0) -> "PerturbationSchedule":
        """Linear ramp from ``start_scale`` (epoch 0) to ``end_scale`` (last epoch)."""
        return cls(kind="linear", start_scale=start_scale, end_scale=end_scale)

    @classmethod
    def curriculum(cls, levels: Tuple[float, ...]) -> "PerturbationSchedule":
        """Staircase of sigma scales split evenly over the epochs."""
        return cls(kind="curriculum", levels=tuple(float(level) for level in levels))

    @classmethod
    def named(cls, name: str) -> "PerturbationSchedule":
        """Default instance of a schedule kind, selected by name."""
        name = name.lower()
        if name == "constant":
            return cls.constant()
        if name == "linear":
            return cls.linear_ramp()
        if name == "curriculum":
            return cls.curriculum((0.0, 0.5, 1.0, 1.5))
        raise ConfigurationError(f"unknown schedule {name!r}; expected one of {SCHEDULE_KINDS}")

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #
    def scale(self, epoch: int, total_epochs: int) -> float:
        """Sigma scale factor for ``epoch`` of a ``total_epochs``-epoch run."""
        if total_epochs < 1:
            raise ConfigurationError(f"total_epochs must be >= 1, got {total_epochs}")
        if not 0 <= epoch < total_epochs:
            raise ConfigurationError(f"epoch must be in [0, {total_epochs}), got {epoch}")
        if self.kind == "constant":
            return float(self.end_scale)
        if self.kind == "linear":
            if total_epochs == 1:
                return float(self.end_scale)
            fraction = epoch / (total_epochs - 1)
            return float(self.start_scale + fraction * (self.end_scale - self.start_scale))
        # curriculum: even segments, last level covers any remainder epochs.
        segment = min(len(self.levels) - 1, epoch * len(self.levels) // total_epochs)
        return float(self.levels[segment])

    def scales(self, total_epochs: int) -> Tuple[float, ...]:
        """The full per-epoch scale sequence (useful for reports and tests)."""
        return tuple(self.scale(epoch, total_epochs) for epoch in range(total_epochs))

    def change_epochs(self, total_epochs: int) -> Tuple[int, ...]:
        """Epochs whose sigma scale differs from the previous epoch's.

        These are the schedule's level boundaries — the only points where a
        draw-amortizing :class:`~repro.training.injector.NoiseInjector` has
        to rescale its cached perturbations mid-window, so the length of this tuple bounds the
        extra draw work a schedule adds per training run.  Constant
        schedules return an empty tuple; a ``linear`` ramp changes at every
        epoch.
        """
        scales = self.scales(total_epochs)
        return tuple(
            epoch for epoch in range(1, total_epochs) if scales[epoch] != scales[epoch - 1]
        )
