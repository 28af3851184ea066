"""Tests for argument-validation helpers."""

import numpy as np
import pytest

from repro.exceptions import ShapeError
from repro.utils.validation import (
    as_complex_array,
    as_float_array,
    check_positive,
    check_square_matrix,
)


def test_as_complex_array_converts_lists():
    arr = as_complex_array([[1, 2], [3, 4]])
    assert arr.dtype == np.complex128 and arr.shape == (2, 2)


def test_as_complex_array_rejects_strings():
    with pytest.raises(ShapeError):
        as_complex_array("not numeric")


def test_as_float_array_converts():
    assert as_float_array([1, 2, 3]).dtype == np.float64


def test_as_float_array_rejects_complex():
    with pytest.raises(ShapeError):
        as_float_array([1 + 2j])


def test_check_square_matrix_accepts_square():
    m = np.eye(3)
    assert check_square_matrix(m) is not None


@pytest.mark.parametrize("shape", [(2, 3), (3,), (2, 2, 2)])
def test_check_square_matrix_rejects(shape):
    with pytest.raises(ShapeError):
        check_square_matrix(np.zeros(shape))


def test_check_positive():
    assert check_positive(1.5) == 1.5
    with pytest.raises(ValueError):
        check_positive(0.0)
    assert check_positive(0.0, allow_zero=True) == 0.0
    with pytest.raises(ValueError):
        check_positive(-1.0, allow_zero=True)
