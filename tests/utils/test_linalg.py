"""Tests for linear-algebra utilities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import NotUnitaryError, ShapeError
from repro.utils.linalg import (
    apply_two_mode_left,
    assert_unitary,
    fidelity,
    is_unitary,
    random_complex_matrix,
    random_unitary,
    svd_decompose,
    unitarity_deviation,
)


class TestRandomUnitary:
    def test_is_unitary(self):
        for n in (1, 2, 5, 16):
            assert is_unitary(random_unitary(n, rng=n))

    def test_reproducible_with_seed(self):
        assert np.allclose(random_unitary(4, rng=3), random_unitary(4, rng=3))

    def test_different_seeds_differ(self):
        assert not np.allclose(random_unitary(4, rng=1), random_unitary(4, rng=2))

    def test_rejects_nonpositive_dimension(self):
        with pytest.raises(ValueError):
            random_unitary(0)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**32 - 1))
    def test_property_always_unitary(self, n, seed):
        assert is_unitary(random_unitary(n, rng=seed))


class TestUnitarityChecks:
    def test_identity_is_unitary(self):
        assert is_unitary(np.eye(4))

    def test_non_square_raises(self):
        with pytest.raises(ShapeError):
            is_unitary(np.ones((2, 3)))

    def test_scaled_identity_not_unitary(self):
        assert not is_unitary(2.0 * np.eye(3))

    def test_assert_unitary_raises_with_deviation(self):
        with pytest.raises(NotUnitaryError):
            assert_unitary(np.eye(3) * 1.01)

    def test_unitarity_deviation_zero_for_unitary(self):
        assert unitarity_deviation(random_unitary(5, rng=0)) < 1e-10

    def test_unitarity_deviation_positive_for_non_unitary(self):
        assert unitarity_deviation(1.1 * np.eye(3)) > 0.1


class TestDistances:
    def test_fidelity_identity(self):
        u = random_unitary(6, rng=1)
        assert fidelity(u, u) == pytest.approx(1.0)

    def test_fidelity_global_phase_invariant(self):
        u = random_unitary(6, rng=2)
        assert fidelity(np.exp(1j * 0.7) * u, u) == pytest.approx(1.0)

    def test_fidelity_lower_for_different_unitaries(self):
        a, b = random_unitary(6, rng=3), random_unitary(6, rng=4)
        assert fidelity(a, b) < 0.95

    def test_fidelity_shape_mismatch(self):
        with pytest.raises(ShapeError):
            fidelity(np.eye(2), np.eye(3))


def _reconstruct(u, s, vh):
    """``U @ Sigma @ Vh`` with ``s`` on the leading diagonal of ``Sigma``."""
    sigma = np.zeros((u.shape[0], vh.shape[0]), dtype=np.complex128)
    sigma[: len(s), : len(s)] = np.diag(s)
    return u @ sigma @ vh


class TestSVD:
    def test_reconstruction_square(self):
        m = random_complex_matrix(5, 5, rng=0)
        u, s, vh = svd_decompose(m)
        assert np.allclose(_reconstruct(u, s, vh), m)

    def test_reconstruction_rectangular(self):
        m = random_complex_matrix(3, 7, rng=1)
        u, s, vh = svd_decompose(m)
        assert u.shape == (3, 3) and vh.shape == (7, 7) and s.shape == (3,)
        assert np.allclose(_reconstruct(u, s, vh), m)

    def test_factors_are_unitary(self):
        m = random_complex_matrix(6, 4, rng=2)
        u, _, vh = svd_decompose(m)
        assert is_unitary(u) and is_unitary(vh)

    def test_singular_values_nonnegative_sorted(self):
        m = random_complex_matrix(5, 5, rng=3)
        _, s, _ = svd_decompose(m)
        assert np.all(s >= 0) and np.all(np.diff(s) <= 0)

    def test_rejects_non_2d(self):
        with pytest.raises(ShapeError):
            svd_decompose(np.zeros(3))


class TestTwoModeOps:
    def test_embed_matches_apply_left(self):
        matrix = random_complex_matrix(5, 5, rng=9)
        block = random_unitary(2, rng=10)
        embedded = np.eye(5, dtype=np.complex128)
        embedded[2:4, 2:4] = block
        assert np.allclose(apply_two_mode_left(matrix, 2, block), embedded @ matrix)

    def test_apply_left_changes_only_the_two_rows_of_a_copy(self):
        matrix = random_complex_matrix(5, 4, rng=11)
        before = matrix.copy()
        out = apply_two_mode_left(matrix, 1, random_unitary(2, rng=12))
        assert np.array_equal(matrix, before)
        assert np.array_equal(np.delete(out, [1, 2], axis=0), np.delete(before, [1, 2], axis=0))
        assert not np.allclose(out[1:3], before[1:3])

    def test_apply_left_keeps_a_unitary_unitary(self):
        unitary = random_unitary(6, rng=13)
        assert is_unitary(apply_two_mode_left(unitary, 4, random_unitary(2, rng=14)))
