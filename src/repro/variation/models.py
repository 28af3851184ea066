"""Uncertainty models for phase shifters and beam splitters (paper §III-A).

The paper perturbs the tuned phase angles and the splitter amplitudes with
Gaussian noise:

* Phase shifters: ``theta, phi ~ N(nominal, sigma)`` with
  ``sigma = sigma_phs * 2*pi`` and ``sigma_phs`` swept over
  ``0.005 ... 0.15`` (the normalized quantity the paper calls
  ``sigma_PhS``).  The 0.21-radian error reported for mature fabrication
  processes corresponds to ``sigma_phs ~ 0.0334``.
* Beam splitters: ``r ~ N(1/sqrt(2), sigma)`` with
  ``sigma = sigma_bes / sqrt(2)`` and ``sigma_bes`` swept over the same
  normalized range (the paper calls it ``sigma_BeS``).

:class:`UncertaintyModel` bundles the two normalized sigmas plus switches
selecting which component family is perturbed — exactly the three cases of
EXP 1 (PhS only / BeS only / both).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ..exceptions import VariationModelError
from ..photonics import constants


@dataclass(frozen=True)
class UncertaintyModel:
    """Gaussian component-level uncertainty specification.

    Parameters
    ----------
    sigma_phs:
        Normalized phase-shifter sigma (``sigma / 2*pi``); the physical
        phase standard deviation is ``sigma_phs * 2*pi`` radians.
    sigma_bes:
        Normalized beam-splitter sigma (``sqrt(2) * sigma``); the physical
        reflectance standard deviation is ``sigma_bes / sqrt(2)``.
    perturb_phases:
        Whether phase shifters are perturbed.
    perturb_splitters:
        Whether beam splitters are perturbed.
    perturb_sigma_stage:
        Whether the diagonal (singular-value) attenuator MZIs are perturbed.
        EXP 2 keeps the Sigma stage error-free; EXP 1 perturbs every MZI.
    perturb_output_phases:
        Whether the output phase screens of the unitary meshes are
        perturbed (off by default: the paper counts only the 2 phase
        shifters per MZI).
    """

    sigma_phs: float = 0.0
    sigma_bes: float = 0.0
    perturb_phases: bool = True
    perturb_splitters: bool = True
    perturb_sigma_stage: bool = True
    perturb_output_phases: bool = False

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma_phs) and self.sigma_phs >= 0):
            raise VariationModelError(
                f"sigma_phs must be non-negative and finite, got {self.sigma_phs}"
            )
        if not (math.isfinite(self.sigma_bes) and self.sigma_bes >= 0):
            raise VariationModelError(
                f"sigma_bes must be non-negative and finite, got {self.sigma_bes}"
            )

    # ------------------------------------------------------------------ #
    # constructors for the three EXP 1 cases
    # ------------------------------------------------------------------ #
    @classmethod
    def phase_only(cls, sigma_phs: float, **kwargs) -> "UncertaintyModel":
        """Uncertainties in phase shifters only (EXP 1 case i)."""
        return cls(sigma_phs=sigma_phs, sigma_bes=0.0, perturb_splitters=False, **kwargs)

    @classmethod
    def splitter_only(cls, sigma_bes: float, **kwargs) -> "UncertaintyModel":
        """Uncertainties in beam splitters only (EXP 1 case ii)."""
        return cls(sigma_phs=0.0, sigma_bes=sigma_bes, perturb_phases=False, **kwargs)

    @classmethod
    def both(cls, sigma: float, **kwargs) -> "UncertaintyModel":
        """Equal normalized uncertainties in PhS and BeS (EXP 1 case iii)."""
        return cls(sigma_phs=sigma, sigma_bes=sigma, **kwargs)

    #: The named component-uncertainty cases accepted by :meth:`for_case`.
    CASES = ("phs", "bes", "both")

    @classmethod
    def for_case(cls, case: str, sigma: float, **kwargs) -> "UncertaintyModel":
        """Build the model for one named EXP 1 case at one normalized sigma.

        Shared by the EXP 1 sweep and the yield sweep so the case names map
        to component families in exactly one place.
        """
        case = case.lower()
        if case == "phs":
            return cls.phase_only(sigma, **kwargs)
        if case == "bes":
            return cls.splitter_only(sigma, **kwargs)
        if case == "both":
            return cls.both(sigma, **kwargs)
        raise ValueError(f"unknown uncertainty case {case!r}; expected one of {cls.CASES}")

    @classmethod
    def mature_process(cls) -> "UncertaintyModel":
        """Uncertainty levels quoted for mature fabrication processes ([4], §III-A)."""
        return cls(
            sigma_phs=constants.MATURE_PROCESS_PHASE_ERROR_FRACTION,
            sigma_bes=constants.TYPICAL_SPLITTER_ERROR_FRACTION,
        )

    # ------------------------------------------------------------------ #
    # physical standard deviations
    # ------------------------------------------------------------------ #
    @property
    def phase_std(self) -> float:
        """Physical standard deviation of the phase errors [rad]."""
        return self.sigma_phs * 2.0 * np.pi if self.perturb_phases else 0.0

    @property
    def splitter_std(self) -> float:
        """Physical standard deviation of the reflectance errors."""
        return self.sigma_bes / np.sqrt(2.0) if self.perturb_splitters else 0.0

    def with_sigma(self, sigma_phs: float | None = None, sigma_bes: float | None = None) -> "UncertaintyModel":
        """Return a copy with new normalized sigmas (switches unchanged)."""
        return replace(
            self,
            sigma_phs=self.sigma_phs if sigma_phs is None else float(sigma_phs),
            sigma_bes=self.sigma_bes if sigma_bes is None else float(sigma_bes),
        )

    @property
    def is_null(self) -> bool:
        """True when the model injects no uncertainty at all."""
        return self.phase_std == 0.0 and self.splitter_std == 0.0
