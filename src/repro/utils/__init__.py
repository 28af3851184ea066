"""Shared utilities: RNG handling, linear algebra, validation, serialization."""

from .linalg import (
    assert_unitary,
    fidelity,
    is_unitary,
    random_complex_matrix,
    random_unitary,
    svd_decompose,
    unitarity_deviation,
)
from .rng import RNGLike, ensure_rng, spawn_rngs
from .serialization import (
    format_table,
    load_json,
    save_json,
    to_jsonable,
)
from .validation import (
    as_complex_array,
    as_float_array,
    check_positive,
    check_square_matrix,
)

__all__ = [
    "RNGLike",
    "ensure_rng",
    "spawn_rngs",
    "random_unitary",
    "random_complex_matrix",
    "is_unitary",
    "assert_unitary",
    "unitarity_deviation",
    "fidelity",
    "svd_decompose",
    "as_complex_array",
    "as_float_array",
    "check_square_matrix",
    "check_positive",
    "save_json",
    "load_json",
    "to_jsonable",
    "format_table",
]
