"""Statistics utilities for Monte Carlo experiments.

The paper justifies using 1000 Monte Carlo iterations by bounding the 95%
confidence-interval margin of error of the mean inferencing accuracy at
6.27% (§III-D).  The helpers here compute exactly those quantities so the
claim can be checked against measured samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np


def _two_sided_z(confidence: float) -> float:
    """Standard-normal quantile at ``0.5 + confidence / 2``.

    ``ndtri`` is the kernel behind ``scipy.stats.norm.ppf`` (which returns
    ``ndtri(q) * 1 + 0``), so the value is bit-identical without importing
    ``scipy.stats``, whose import alone costs most of a CLI start.  scipy is
    imported here, not at module level, so runs that report no margin of
    error (``yield``, ``drift``) never load it.
    """
    from scipy.special import ndtri

    return ndtri(0.5 + confidence / 2.0)


@dataclass(frozen=True)
class SummaryStatistics:
    """Summary of a set of Monte Carlo samples."""

    mean: float
    std: float
    minimum: float
    maximum: float
    count: int
    confidence: float
    margin_of_error: float

    @property
    def confidence_interval(self) -> Tuple[float, float]:
        return (self.mean - self.margin_of_error, self.mean + self.margin_of_error)


def margin_of_error(samples: Sequence[float], confidence: float = 0.95) -> float:
    """Margin of error of the sample mean at the given confidence level.

    Uses the normal approximation ``z * s / sqrt(n)`` (the paper's
    survey-style formula); for ``n = 1`` the margin is infinite.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 1 or samples.size == 0:
        raise ValueError("samples must be a non-empty 1-D sequence")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if samples.size == 1:
        return float("inf")
    z = _two_sided_z(confidence)
    return float(z * samples.std(ddof=1) / np.sqrt(samples.size))


def worst_case_margin_of_error(iterations: int, confidence: float = 0.95, proportion_std: float = 0.5) -> float:
    """A-priori margin of error for a proportion estimated from ``iterations`` samples.

    With the conservative ``p = 0.5`` assumption this reproduces the paper's
    justification: 1000 iterations give a worst-case 95% margin of error of
    about 3.1% for a proportion in [0, 1]; the paper's 6.27% figure
    corresponds to the full width of that interval expressed in percent.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    z = _two_sided_z(confidence)
    return float(z * proportion_std / np.sqrt(iterations))


def confidence_interval(samples: Sequence[float], confidence: float = 0.95) -> Tuple[float, float]:
    """Confidence interval of the sample mean (normal approximation)."""
    samples = np.asarray(samples, dtype=np.float64)
    moe = margin_of_error(samples, confidence)
    mean = float(samples.mean())
    return (mean - moe, mean + moe)


def summarize(samples: Sequence[float], confidence: float = 0.95) -> SummaryStatistics:
    """Full summary (mean/std/min/max/margin of error) of MC samples."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 1 or samples.size == 0:
        raise ValueError("samples must be a non-empty 1-D sequence")
    return SummaryStatistics(
        mean=float(samples.mean()),
        std=float(samples.std(ddof=1)) if samples.size > 1 else 0.0,
        minimum=float(samples.min()),
        maximum=float(samples.max()),
        count=int(samples.size),
        confidence=float(confidence),
        margin_of_error=margin_of_error(samples, confidence) if samples.size > 1 else float("inf"),
    )


def required_iterations(target_margin: float, confidence: float = 0.95, proportion_std: float = 0.5) -> int:
    """Iterations needed so the worst-case margin of error falls below ``target_margin``."""
    if target_margin <= 0:
        raise ValueError(f"target_margin must be positive, got {target_margin}")
    z = _two_sided_z(confidence)
    return int(np.ceil((z * proportion_std / target_margin) ** 2))
