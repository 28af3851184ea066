"""Relative-variation distance (RVD) figure of merit (paper §III-C).

The paper quantifies how far a perturbed unitary ``U`` deviates from its
intended form ``U_ref`` with::

    RVD(U, U_ref) = sum_{m,n} |U_mn - U_ref_mn| / |U_ref_mn|

i.e. the element-wise absolute deviation normalized by the magnitude of the
nominal element, summed over the matrix.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..exceptions import ShapeError
from ..utils.validation import as_complex_array


def rvd(actual: np.ndarray, reference: np.ndarray, eps: float = 0.0) -> float:
    """Relative-variation distance between ``actual`` and ``reference``.

    Parameters
    ----------
    actual:
        The deviated matrix ``U``.
    reference:
        The intended (nominal) matrix ``U_ref``.
    eps:
        Optional floor added to ``|U_ref_mn|`` in the denominator.  The
        paper's definition has no floor (its unitaries have no vanishing
        elements); pass a small positive value when reference elements can
        be numerically zero.

    Returns
    -------
    float
        The RVD value (0 for identical matrices, grows with deviation).
    """
    actual = as_complex_array(actual, "actual")
    reference = as_complex_array(reference, "reference")
    if actual.shape != reference.shape:
        raise ShapeError(f"shape mismatch: actual {actual.shape} vs reference {reference.shape}")
    magnitude = np.abs(reference)
    if eps < 0:
        raise ValueError(f"eps must be non-negative, got {eps}")
    if eps == 0.0 and np.any(magnitude == 0.0):
        raise ZeroDivisionError(
            "reference matrix has zero-magnitude elements; pass eps > 0 to regularize the RVD"
        )
    return float(np.sum(np.abs(actual - reference) / (magnitude + eps)))


def rvd_batch(actuals: np.ndarray, reference: np.ndarray, eps: float = 0.0) -> np.ndarray:
    """RVD of a stack of deviated matrices against one reference.

    Parameters
    ----------
    actuals:
        Array of shape ``(B, ...)`` where the trailing dimensions match
        ``reference`` — the ``B`` Monte Carlo realizations.
    reference:
        The intended (nominal) matrix.
    eps:
        Same denominator floor as :func:`rvd`.

    Returns
    -------
    numpy.ndarray
        RVD per realization, shape ``(B,)``; bit-identical to calling
        :func:`rvd` on each slice.
    """
    actuals = as_complex_array(actuals, "actuals")
    reference = as_complex_array(reference, "reference")
    if actuals.ndim != reference.ndim + 1 or actuals.shape[1:] != reference.shape:
        raise ShapeError(
            f"actuals must have shape (B,) + {reference.shape}, got {actuals.shape}"
        )
    if eps < 0:
        raise ValueError(f"eps must be non-negative, got {eps}")
    magnitude = np.abs(reference)
    if eps == 0.0 and np.any(magnitude == 0.0):
        raise ZeroDivisionError(
            "reference matrix has zero-magnitude elements; pass eps > 0 to regularize the RVD"
        )
    axes = tuple(range(1, actuals.ndim))
    return np.sum(np.abs(actuals - reference) / (magnitude + eps), axis=axes)


def mean_rvd(actuals, reference: np.ndarray, eps: float = 0.0) -> float:
    """Average RVD of several deviated matrices against one reference.

    This is the quantity plotted per MZI in the paper's Fig. 3 (averaged
    over Monte Carlo realizations).
    """
    actuals = list(actuals)
    if not actuals:
        raise ValueError("mean_rvd requires at least one deviated matrix")
    return float(np.mean([rvd(actual, reference, eps=eps) for actual in actuals]))


def normalized_rvd(actual: np.ndarray, reference: np.ndarray, eps: float = 0.0) -> float:
    """RVD divided by the number of matrix elements (per-element average).

    Forwards the full input validation of :func:`rvd` (shape agreement,
    ``eps >= 0``, zero-magnitude reference elements) and additionally
    rejects empty references, whose per-element average is undefined.
    """
    reference = as_complex_array(reference, "reference")
    if reference.size == 0:
        raise ShapeError("normalized_rvd requires a non-empty reference matrix")
    return rvd(actual, reference, eps=eps) / reference.size
