"""Exception hierarchy for the :mod:`repro` library.

All exceptions raised intentionally by the library derive from
:class:`ReproError` so that callers can catch library failures without
masking unrelated bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


class ShapeError(ReproError, ValueError):
    """An array argument has an incompatible shape."""


class NotUnitaryError(ReproError, ValueError):
    """A matrix expected to be unitary fails the unitarity tolerance."""


class DecompositionError(ReproError, RuntimeError):
    """A mesh decomposition could not be completed or verified."""


class ConfigurationError(ReproError, ValueError):
    """An experiment or model configuration is invalid."""


class AutogradError(ReproError, RuntimeError):
    """A failure inside the automatic-differentiation engine."""


class TrainingError(ReproError, RuntimeError):
    """Training could not proceed (e.g. divergence, empty dataset)."""


class VariationModelError(ReproError, ValueError):
    """A variation/uncertainty model received invalid parameters."""


class ExperimentError(ReproError, RuntimeError):
    """An experiment runner failed or was asked for an unknown experiment."""


class HostingError(ReproError, LookupError):
    """A worker was handed a hosted-input token its process cannot resolve."""
