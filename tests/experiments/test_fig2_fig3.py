"""Tests for the Fig. 2 and Fig. 3 experiment runners."""

import numpy as np
import pytest

from repro.analysis import SingleMZIRVDMetric, score_components
from repro.experiments import Fig2Config, Fig3Config, run_fig2, run_fig3
from repro.mesh import MZIMesh
from repro.utils import random_unitary
from repro.variation import UncertaintyModel


class TestFig2Experiment:
    def test_runs_and_reports(self):
        result = run_fig2(Fig2Config(grid_points=16))
        assert set(result.peak_deviation) == {"T11", "T12", "T21", "T22"}
        report = result.report()
        assert "Fig. 2" in report and "T22" in report

    def test_paper_claim_monotonic_growth(self):
        """Fig. 2's message: sensitivity grows with the tuned phase angles."""
        result = run_fig2(Fig2Config(grid_points=32))
        assert all(result.monotonic.values())

    def test_sensitivity_surfaces_shape(self):
        result = run_fig2(Fig2Config(grid_points=12))
        assert result.sensitivity.relative_deviation.shape == (12, 12, 2, 2)

    def test_larger_k_larger_deviation(self):
        small = run_fig2(Fig2Config(grid_points=12, k=0.01))
        large = run_fig2(Fig2Config(grid_points=12, k=0.10))
        assert large.peak_deviation["T21"] > small.peak_deviation["T21"]


class TestFig3Experiment:
    def test_runs_with_small_config(self):
        result = run_fig3(Fig3Config(iterations=10, num_matrices=2, seed=0))
        table = result.rvd_table()
        assert table.shape == (2, 10)  # 2 unitaries x 10 MZIs of a 5x5 mesh
        assert np.all(table > 0)

    def test_paper_claim_non_uniform_impact(self):
        """Fig. 3's message: the average RVD differs across MZIs and across unitaries."""
        result = run_fig3(Fig3Config(iterations=30, num_matrices=2, seed=1))
        spreads = result.spread_per_matrix()
        assert np.all(spreads > 0.1)
        table = result.rvd_table()
        # The per-MZI pattern differs between the two unitaries.
        assert not np.allclose(table[0], table[1], rtol=0.05)

    def test_reproducible_with_seed(self):
        a = run_fig3(Fig3Config(iterations=5, num_matrices=1, seed=3)).rvd_table()
        b = run_fig3(Fig3Config(iterations=5, num_matrices=1, seed=3)).rvd_table()
        assert np.allclose(a, b)

    def test_report_contains_all_mzis(self):
        result = run_fig3(Fig3Config(iterations=5, num_matrices=1, seed=2))
        report = result.report()
        assert "MZI 10" in report and "Fig. 3" in report

    def test_mesh_sizes_follow_config(self):
        result = run_fig3(Fig3Config(iterations=5, num_matrices=1, matrix_size=4, seed=4))
        assert result.rvd_table().shape == (1, 6)

    def test_vectorized_matches_loop(self):
        """The batched study equals the scalar RVD oracle on the same streams."""
        fast = run_fig3(Fig3Config(iterations=6, num_matrices=2, seed=7)).rvd_table()
        gen = np.random.default_rng(7)
        slow = []
        for _ in range(2):
            mesh = MZIMesh.from_unitary(random_unitary(5, rng=gen), scheme="clements")
            model = UncertaintyModel.both(0.05)
            scorer = SingleMZIRVDMetric(mesh=mesh, model=model, reference=mesh.ideal_matrix())
            slow.append(
                score_components(
                    range(mesh.num_mzis), metric_fn=scorer.scalar, iterations=6, rng=gen
                ).as_array()
            )
        assert np.array_equal(fast, np.stack(slow))
