"""Light-weight argument-validation helpers shared across the library."""

from __future__ import annotations

import numpy as np

from ..exceptions import ShapeError


def as_complex_array(value, name: str = "array") -> np.ndarray:
    """Convert ``value`` to a ``complex128`` NumPy array.

    Raises
    ------
    ShapeError
        If the value cannot be interpreted as a numeric array.
    """
    try:
        arr = np.asarray(value, dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise ShapeError(f"{name} cannot be converted to a complex array: {exc}") from exc
    return arr


def as_float_array(value, name: str = "array") -> np.ndarray:
    """Convert ``value`` to a ``float64`` NumPy array."""
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ShapeError(f"{name} cannot be converted to a float array: {exc}") from exc
    return arr


def check_square_matrix(matrix: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Ensure ``matrix`` is a 2-D square array and return it."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ShapeError(f"{name} must be a square 2-D matrix, got shape {matrix.shape}")
    return matrix


def check_positive(value: float, name: str = "value", allow_zero: bool = False) -> float:
    """Ensure a scalar is positive (or non-negative when ``allow_zero``)."""
    value = float(value)
    if allow_zero:
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    elif value <= 0:
        raise ValueError(f"{name} must be > 0, got {value}")
    return value
