"""Linear-algebra utilities used throughout the photonic-mesh machinery.

The functions here are intentionally small, pure and NumPy-only: Haar-random
unitary sampling, unitarity checks, matrix fidelity and SVD helpers used by
the SVD-based photonic linear layers (paper §II-B).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..exceptions import NotUnitaryError, ShapeError
from .rng import RNGLike, ensure_rng
from .validation import as_complex_array, check_square_matrix

#: Default absolute tolerance for unitarity checks.
DEFAULT_UNITARY_ATOL = 1e-8


def random_unitary(n: int, rng: RNGLike = None) -> np.ndarray:
    """Draw an ``n x n`` unitary matrix from the Haar measure.

    Uses the QR-based construction of Mezzadri (2007): a complex Ginibre
    matrix is QR-factorized and the phases of R's diagonal are absorbed into
    Q so that the distribution is exactly Haar.

    Parameters
    ----------
    n:
        Matrix dimension (``n >= 1``).
    rng:
        Seed or generator for reproducibility.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    gen = ensure_rng(rng)
    z = (gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    phases = diag / np.abs(diag)
    return q * phases[np.newaxis, :]


def random_complex_matrix(rows: int, cols: int, rng: RNGLike = None, scale: float = 1.0) -> np.ndarray:
    """Draw a dense complex Gaussian matrix with the given standard deviation."""
    if rows < 1 or cols < 1:
        raise ValueError(f"rows and cols must be >= 1, got {rows}x{cols}")
    gen = ensure_rng(rng)
    return scale * (gen.standard_normal((rows, cols)) + 1j * gen.standard_normal((rows, cols))) / np.sqrt(2.0)


def is_unitary(matrix: np.ndarray, atol: float = DEFAULT_UNITARY_ATOL) -> bool:
    """Return ``True`` when ``matrix`` is unitary within ``atol``."""
    matrix = as_complex_array(matrix, "matrix")
    matrix = check_square_matrix(matrix, "matrix")
    identity = np.eye(matrix.shape[0], dtype=np.complex128)
    return bool(
        np.allclose(matrix.conj().T @ matrix, identity, atol=atol)
        and np.allclose(matrix @ matrix.conj().T, identity, atol=atol)
    )


def assert_unitary(matrix: np.ndarray, atol: float = DEFAULT_UNITARY_ATOL, name: str = "matrix") -> np.ndarray:
    """Validate unitarity and return the matrix as ``complex128``.

    Raises
    ------
    NotUnitaryError
        If the deviation from unitarity exceeds ``atol``.
    """
    matrix = as_complex_array(matrix, name)
    matrix = check_square_matrix(matrix, name)
    if not is_unitary(matrix, atol=atol):
        deviation = unitarity_deviation(matrix)
        raise NotUnitaryError(f"{name} is not unitary (max deviation {deviation:.3e}, atol {atol:.1e})")
    return matrix


def unitarity_deviation(matrix: np.ndarray) -> float:
    """Return ``max |M^H M - I|`` as a scalar measure of non-unitarity."""
    matrix = as_complex_array(matrix, "matrix")
    matrix = check_square_matrix(matrix, "matrix")
    identity = np.eye(matrix.shape[0], dtype=np.complex128)
    return float(np.max(np.abs(matrix.conj().T @ matrix - identity)))


def fidelity(actual: np.ndarray, target: np.ndarray) -> float:
    """Normalized matrix fidelity ``|Tr(T^H A)|^2 / (N * Tr(A^H A))``.

    Equals 1 when ``actual`` matches ``target`` up to a global phase, which
    is the natural equivalence for interferometer meshes.
    """
    actual = as_complex_array(actual, "actual")
    target = as_complex_array(target, "target")
    if actual.shape != target.shape:
        raise ShapeError(f"shape mismatch: actual {actual.shape} vs target {target.shape}")
    num = np.abs(np.trace(target.conj().T @ actual)) ** 2
    den = actual.shape[0] * np.abs(np.trace(actual.conj().T @ actual))
    if den == 0:
        return 0.0
    return float(num / den)


def svd_decompose(matrix: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singular-value decomposition ``M = U @ diag(s) @ Vh`` (full matrices).

    Returns square unitary ``U`` (m x m), singular values ``s`` (length
    ``min(m, n)``) and square unitary ``Vh`` (n x n), matching the way the
    paper maps a weight matrix onto two unitary MZI meshes and a diagonal
    stage (§II-B).
    """
    matrix = as_complex_array(matrix, "matrix")
    if matrix.ndim != 2:
        raise ShapeError(f"matrix must be 2-D, got shape {matrix.shape}")
    u, s, vh = np.linalg.svd(matrix, full_matrices=True)
    return u, s, vh


def apply_two_mode_left(matrix: np.ndarray, m: int, block: np.ndarray) -> np.ndarray:
    """Return ``embed(block) @ matrix`` without forming the embedded matrix."""
    matrix = as_complex_array(matrix, "matrix")
    block = as_complex_array(block, "block")
    out = matrix.copy()
    rows = matrix[m : m + 2, :]
    out[m : m + 2, :] = block @ rows
    return out
