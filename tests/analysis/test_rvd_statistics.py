"""Tests for the RVD figure of merit and Monte Carlo statistics."""

import numpy as np
import pytest

from repro.analysis import (
    confidence_interval,
    margin_of_error,
    mean_rvd,
    normalized_rvd,
    required_iterations,
    rvd,
    rvd_batch,
    summarize,
    worst_case_margin_of_error,
)
from repro.exceptions import ShapeError
from repro.utils import random_unitary


class TestRVD:
    def test_zero_for_identical_matrices(self):
        u = random_unitary(5, rng=0)
        assert rvd(u, u) == 0.0

    def test_positive_for_different_matrices(self):
        a, b = random_unitary(4, rng=1), random_unitary(4, rng=2)
        assert rvd(a, b) > 0.0

    def test_manual_example(self):
        reference = np.array([[1.0, 2.0], [4.0, 5.0]], dtype=complex)
        actual = reference + np.array([[0.1, 0.2], [0.4, 0.5]])
        # every element deviates by 10% of its magnitude -> RVD = 4 * 0.1
        assert rvd(actual, reference) == pytest.approx(0.4)

    def test_scales_linearly_with_small_deviation(self):
        reference = random_unitary(4, rng=3)
        delta = 1e-3 * random_unitary(4, rng=4)
        small = rvd(reference + delta, reference)
        large = rvd(reference + 2 * delta, reference)
        assert large == pytest.approx(2 * small, rel=1e-9)

    def test_zero_reference_element_raises_without_eps(self):
        reference = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(ZeroDivisionError):
            rvd(reference + 0.1, reference)
        assert np.isfinite(rvd(reference + 0.1, reference, eps=1e-9))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            rvd(np.eye(2), np.eye(3))

    def test_mean_rvd(self):
        reference = random_unitary(3, rng=5)
        actuals = [reference, reference]
        assert mean_rvd(actuals, reference) == 0.0
        with pytest.raises(ValueError):
            mean_rvd([], reference)

    def test_normalized_rvd(self):
        reference = np.full((2, 2), 1.0, dtype=complex)
        actual = reference + 0.1
        assert normalized_rvd(actual, reference) == pytest.approx(0.1)

    def test_negative_eps_rejected_everywhere(self):
        reference = random_unitary(3, rng=6)
        with pytest.raises(ValueError):
            rvd(reference, reference, eps=-1e-3)
        with pytest.raises(ValueError):
            normalized_rvd(reference, reference, eps=-1e-3)
        with pytest.raises(ValueError):
            rvd_batch(reference[np.newaxis], reference, eps=-1e-3)

    def test_normalized_rvd_rejects_empty_reference(self):
        empty = np.zeros((0, 0), dtype=complex)
        with pytest.raises(ShapeError):
            normalized_rvd(empty, empty)

    def test_rvd_batch_matches_looped_rvd(self):
        reference = random_unitary(4, rng=7)
        rng = np.random.default_rng(8)
        actuals = reference + 0.01 * (
            rng.normal(size=(6, 4, 4)) + 1j * rng.normal(size=(6, 4, 4))
        )
        batched = rvd_batch(actuals, reference)
        looped = np.array([rvd(actual, reference) for actual in actuals])
        assert np.array_equal(batched, looped)

    def test_rvd_batch_validation(self):
        reference = random_unitary(3, rng=9)
        with pytest.raises(ShapeError):
            rvd_batch(reference, reference)  # missing batch axis
        zero_ref = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(ZeroDivisionError):
            rvd_batch(zero_ref[np.newaxis] + 0.1, zero_ref)


class TestStatistics:
    def test_margin_of_error_decreases_with_samples(self):
        gen = np.random.default_rng(0)
        small = margin_of_error(gen.normal(0, 1, 50))
        large = margin_of_error(gen.normal(0, 1, 5000))
        assert large < small

    def test_margin_of_error_single_sample_infinite(self):
        assert margin_of_error([1.0]) == float("inf")

    def test_margin_of_error_validation(self):
        with pytest.raises(ValueError):
            margin_of_error([])
        with pytest.raises(ValueError):
            margin_of_error([1.0, 2.0], confidence=1.5)

    def test_worst_case_margin_matches_paper_scale(self):
        """1000 iterations -> worst-case 95% margin ~3.1%, i.e. a ~6.2%-wide interval.

        This is the paper's justification for using 1000 Monte Carlo
        iterations (maximum margin of error 6.27%).
        """
        moe = worst_case_margin_of_error(1000)
        assert moe == pytest.approx(0.031, abs=0.002)
        assert 2 * moe * 100 == pytest.approx(6.27, abs=0.3)

    def test_required_iterations_roundtrip(self):
        iterations = required_iterations(0.031)
        assert 900 <= iterations <= 1100

    def test_confidence_interval_contains_mean(self):
        samples = np.random.default_rng(1).normal(5.0, 1.0, 500)
        low, high = confidence_interval(samples)
        assert low < samples.mean() < high

    def test_summarize_fields(self):
        samples = np.array([1.0, 2.0, 3.0, 4.0])
        summary = summarize(samples)
        assert summary.mean == pytest.approx(2.5)
        assert summary.minimum == 1.0 and summary.maximum == 4.0
        assert summary.count == 4
        low, high = summary.confidence_interval
        assert low < summary.mean < high

    def test_summarize_validation(self):
        with pytest.raises(ValueError):
            summarize(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            required_iterations(0.0)

    @pytest.mark.parametrize("confidence", [0.5, 0.8, 0.9, 0.95, 0.975, 0.99, 0.995, 0.999])
    def test_z_values_equal_scipy_norm_ppf(self, confidence):
        """The quantile is bit-identical to ``scipy.stats.norm.ppf`` (the oracle)."""
        from scipy.stats import norm

        from repro.analysis.statistics import _two_sided_z

        expected = norm.ppf(0.5 + confidence / 2.0)
        assert _two_sided_z(confidence) == expected
        samples = np.random.default_rng(3).normal(0.0, 1.0, 40)
        assert margin_of_error(samples, confidence) == float(
            expected * samples.std(ddof=1) / np.sqrt(samples.size)
        )
        assert worst_case_margin_of_error(1000, confidence) == float(expected * 0.5 / np.sqrt(1000))

    def test_z_equals_ndtri_bitwise_on_a_grid(self):
        """The lazily imported quantile is ``ndtri(0.5 + c / 2)`` to the bit."""
        from scipy.special import ndtri

        from repro.analysis.statistics import _two_sided_z

        levels = [k / 200 for k in range(1, 200)]
        assert 0.95 in levels
        for confidence in levels:
            expected = ndtri(0.5 + confidence / 2.0)
            assert np.float64(_two_sided_z(confidence)).tobytes() == np.float64(expected).tobytes()

    def test_cli_import_leaves_scipy_stats_unloaded(self):
        """``import repro.cli`` in a fresh interpreter never pulls in ``scipy.stats``."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parent.parent))
        code = "import sys, repro.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert result.stdout.strip() == "[]"
