"""Tests for the Monte Carlo engine, sensitivity maps and criticality ranking."""

import numpy as np
import pytest

from repro.analysis import (
    ELEMENT_LABELS,
    MonteCarloRunner,
    SingleMZIRVDMetric,
    device_sensitivity_map,
    exact_relative_deviation,
    first_order_model_error,
    per_mzi_rvd_criticality,
    score_components,
)
from repro.mesh import MZIMesh
from repro.utils import random_unitary
from repro.variation import UncertaintyModel


class TestMonteCarloRunner:
    def test_runs_requested_iterations(self):
        runner = MonteCarloRunner(iterations=25)
        result = runner.run(lambda gen: gen.normal(), rng=0)
        assert result.iterations == 25
        assert result.samples.shape == (25,)

    def test_reproducible_with_seed(self):
        runner = MonteCarloRunner(iterations=10)
        a = runner.run(lambda gen: gen.normal(), rng=3)
        b = runner.run(lambda gen: gen.normal(), rng=3)
        assert np.allclose(a.samples, b.samples)

    def test_iterations_use_independent_streams(self):
        runner = MonteCarloRunner(iterations=50)
        result = runner.run(lambda gen: gen.normal(), rng=0)
        assert len(np.unique(np.round(result.samples, 10))) == 50

    def test_mean_estimate_converges(self):
        runner = MonteCarloRunner(iterations=2000)
        result = runner.run(lambda gen: gen.normal(3.0, 1.0), rng=1)
        assert result.mean == pytest.approx(3.0, abs=0.1)
        assert result.summary.margin_of_error < 0.1

    def test_run_many_labels(self):
        runner = MonteCarloRunner(iterations=5)
        results = runner.run_many({"a": lambda g: 1.0, "b": lambda g: 2.0}, rng=0)
        assert results["a"].mean == 1.0 and results["b"].mean == 2.0
        assert results["a"].label == "a"

    def test_validation(self):
        with pytest.raises(ValueError):
            MonteCarloRunner(iterations=0)
        with pytest.raises(ValueError):
            MonteCarloRunner(iterations=10, confidence=1.5)
        with pytest.raises(ValueError):
            MonteCarloRunner(iterations=10, chunk_size=0)


class TestMonteCarloRunnerBatched:
    def test_run_batched_equals_run_for_matching_trials(self):
        """A batch trial consuming each stream like the scalar trial is bit-identical."""
        runner = MonteCarloRunner(iterations=40)
        looped = runner.run(lambda gen: gen.normal(), rng=7)
        batched = runner.run_batched(
            lambda gens: np.array([g.normal() for g in gens]), rng=7
        )
        assert np.array_equal(looped.samples, batched.samples)

    def test_chunking_preserves_streams(self):
        full = MonteCarloRunner(iterations=30).run_batched(
            lambda gens: np.array([g.normal() for g in gens]), rng=3
        )
        chunked = MonteCarloRunner(iterations=30, chunk_size=7).run_batched(
            lambda gens: np.array([g.normal() for g in gens]), rng=3
        )
        assert np.array_equal(full.samples, chunked.samples)

    def test_batch_trial_shape_enforced(self):
        runner = MonteCarloRunner(iterations=5)
        from repro.exceptions import ShapeError

        with pytest.raises(ShapeError):
            runner.run_batched(lambda gens: np.zeros(len(gens) + 1), rng=0)

    def test_label_and_summary(self):
        result = MonteCarloRunner(iterations=10).run_batched(
            lambda gens: np.ones(len(gens)), rng=0, label="ones"
        )
        assert result.label == "ones"
        assert result.mean == 1.0 and result.iterations == 10


class TestSensitivityMap:
    def test_grid_shapes(self):
        sens = device_sensitivity_map(k=0.05, grid_points=16)
        assert sens.relative_deviation.shape == (16, 16, 2, 2)
        assert sens.element(0, 1).shape == (16, 16)
        assert sens.element_by_label("T21").shape == (16, 16)

    def test_unknown_label_rejected(self):
        sens = device_sensitivity_map(grid_points=8)
        with pytest.raises(KeyError):
            sens.element_by_label("T33")

    def test_monotonic_growth_reproduces_paper_claim(self):
        """Fig. 2: relative deviation grows with the tuned phase angles."""
        sens = device_sensitivity_map(k=0.05, grid_points=48)
        for label in ELEMENT_LABELS:
            assert sens.monotonic_along_axes(label), f"{label} not growing with angles"

    def test_peak_deviation_positive(self):
        peaks = device_sensitivity_map(grid_points=16).peak_deviation()
        assert all(value > 0 for value in peaks.values())

    def test_zero_k_gives_zero_deviation(self):
        sens = device_sensitivity_map(k=0.0, grid_points=8)
        finite = sens.relative_deviation[np.isfinite(sens.relative_deviation)]
        assert np.allclose(finite, 0.0)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            device_sensitivity_map(grid_points=1)

    def test_exact_deviation_close_to_first_order_for_small_k(self):
        errors = first_order_model_error(k=0.01, grid_points=12)
        assert all(np.isnan(v) or v < 0.2 for v in errors.values())

    def test_exact_deviation_nan_at_zero_magnitude(self):
        out = exact_relative_deviation(0.0, 0.0, 0.05)
        assert np.isnan(out[0, 0])


class TestCriticality:
    def test_per_mzi_rvd_scores_all_devices(self):
        mesh = MZIMesh.from_unitary(random_unitary(5, rng=0))
        report = per_mzi_rvd_criticality(mesh, UncertaintyModel.both(0.05), iterations=20, rng=0)
        assert len(report.scores) == mesh.num_mzis
        assert report.as_array().shape == (10,)
        assert all(score.score > 0 for score in report.scores)

    def test_scores_are_non_uniform(self):
        """The paper's Fig. 3 claim: different MZIs have different impact."""
        mesh = MZIMesh.from_unitary(random_unitary(5, rng=1))
        report = per_mzi_rvd_criticality(mesh, UncertaintyModel.both(0.05), iterations=40, rng=0)
        assert report.spread > 0.1

    def test_ranking_order(self):
        mesh = MZIMesh.from_unitary(random_unitary(4, rng=2))
        report = per_mzi_rvd_criticality(mesh, UncertaintyModel.both(0.05), iterations=15, rng=0)
        ranked = report.ranked()
        assert ranked[0].score >= ranked[-1].score
        assert report.most_critical(1)[0] == ranked[0]
        assert report.least_critical(1)[0] == ranked[-1]

    def test_reproducible_with_seed(self):
        mesh = MZIMesh.from_unitary(random_unitary(4, rng=3))
        model = UncertaintyModel.both(0.05)
        a = per_mzi_rvd_criticality(mesh, model, iterations=10, rng=5).as_array()
        b = per_mzi_rvd_criticality(mesh, model, iterations=10, rng=5).as_array()
        assert np.allclose(a, b)

    @pytest.mark.parametrize("scheme", ["clements", "reck"])
    def test_vectorized_path_is_bit_identical(self, scheme):
        mesh = MZIMesh.from_unitary(random_unitary(5, rng=6), scheme=scheme)
        model = UncertaintyModel.both(0.05)
        fast = per_mzi_rvd_criticality(mesh, model, iterations=15, rng=2)
        scorer = SingleMZIRVDMetric(mesh=mesh, model=model, reference=mesh.ideal_matrix())
        slow = score_components(
            range(mesh.num_mzis), metric_fn=scorer.scalar, iterations=15, rng=2
        )
        assert np.array_equal(fast.as_array(), slow.as_array())
        assert [c.std for c in fast.scores] == [c.std for c in slow.scores]

    def test_iterations_validation(self):
        mesh = MZIMesh.from_unitary(random_unitary(3, rng=4))
        with pytest.raises(ValueError):
            per_mzi_rvd_criticality(mesh, UncertaintyModel.both(0.05), iterations=0)

    def test_score_components_generic(self):
        report = score_components(
            component_ids=[0, 1, 2],
            metric_fn=lambda cid, gen: float(cid) + 0.0 * gen.normal(),
            iterations=5,
            rng=0,
            metric="identity",
        )
        assert report.metric == "identity"
        assert report.ranked()[0].identifier == 2
        with pytest.raises(ValueError):
            score_components([0], lambda c, g: 0.0, iterations=0)
