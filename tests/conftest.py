"""Shared pytest fixtures for the repro test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.onn import SPNNArchitecture, SPNNTrainingConfig, build_trained_spnn
from repro.utils import random_unitary


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic generator for per-test randomness."""
    return np.random.default_rng(12345)


@pytest.fixture
def unitary_5x5() -> np.ndarray:
    """A fixed Haar-random 5x5 unitary (the Fig. 3 mesh size)."""
    return random_unitary(5, rng=7)


@pytest.fixture
def unitary_8x8() -> np.ndarray:
    """A fixed Haar-random 8x8 unitary."""
    return random_unitary(8, rng=11)


@pytest.fixture(scope="session")
def small_task():
    """A small trained + compiled SPNN task shared across system-level tests.

    Uses the paper's architecture (16-16-16-10) but a reduced synthetic
    corpus and few epochs so the whole test suite stays fast.  Session
    scoped: trained once per pytest run.
    """
    config = SPNNTrainingConfig(
        architecture=SPNNArchitecture(layer_dims=(16, 16, 16, 10)),
        num_train=800,
        num_test=250,
        epochs=35,
        seed=99,
    )
    return build_trained_spnn(config)
