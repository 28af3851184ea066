"""Tests for the EXP 1 (Fig. 4) and EXP 2 (Fig. 5) experiment runners."""

import numpy as np
import pytest

from repro.analysis import MonteCarloRunner
from repro.experiments import (
    EXP1_CASES,
    Exp1Config,
    Exp2Config,
    run_exp1,
    run_exp2,
    uncertainty_model_for_case,
)
from repro.mesh import LayerPerturbation
from repro.onn.inference import NetworkAccuracyTrial
from repro.variation import UncertaintyModel, ZoneGrid, sample_mesh_perturbation


class TestUncertaintyModelForCase:
    def test_case_switches(self):
        phs = uncertainty_model_for_case("phs", 0.1)
        assert phs.perturb_phases and not phs.perturb_splitters
        bes = uncertainty_model_for_case("bes", 0.1)
        assert bes.perturb_splitters and not bes.perturb_phases
        both = uncertainty_model_for_case("both", 0.1)
        assert both.sigma_phs == both.sigma_bes == 0.1

    def test_unknown_case(self):
        with pytest.raises(ValueError):
            uncertainty_model_for_case("all", 0.1)


@pytest.fixture(scope="module")
def exp1_result(small_task_module):
    config = Exp1Config(sigmas=(0.0, 0.05, 0.1), iterations=6, seed=1)
    return run_exp1(config, task=small_task_module)


@pytest.fixture(scope="module")
def small_task_module(request):
    # Reuse the session-scoped task fixture from conftest through a
    # module-scoped alias so the expensive runs below happen once.
    return request.getfixturevalue("small_task")


class TestExp1:
    def test_result_structure(self, exp1_result):
        assert set(exp1_result.results) == set(EXP1_CASES)
        for case in EXP1_CASES:
            assert len(exp1_result.results[case]) == 3
            assert exp1_result.mean_accuracy(case).shape == (3,)

    def test_zero_sigma_equals_nominal(self, exp1_result):
        for case in EXP1_CASES:
            assert exp1_result.mean_accuracy(case)[0] == pytest.approx(exp1_result.nominal_accuracy)

    def test_paper_shape_accuracy_collapses_with_sigma(self, exp1_result):
        """Fig. 4: accuracy falls steeply and approaches random guessing."""
        both = exp1_result.mean_accuracy("both")
        assert both[1] < exp1_result.nominal_accuracy - 0.2
        assert both[2] < 0.35

    def test_paper_shape_phs_hurts_more_than_bes(self, exp1_result):
        """Fig. 4: phase-shifter uncertainties dominate beam-splitter ones."""
        assert exp1_result.mean_accuracy("phs")[1] < exp1_result.mean_accuracy("bes")[1]

    def test_loss_and_saturation_helpers(self, exp1_result):
        loss = exp1_result.loss_at_sigma("both", 0.05)
        assert 0.0 < loss <= 1.0
        # First swept sigma where the mean accuracy falls below 50%: with the
        # steep collapse of Fig. 4 that is already the first non-zero sigma.
        saturation = exp1_result.saturation_sigma("both", threshold=0.5)
        assert saturation == 0.05
        # A threshold below any achievable accuracy is never reached.
        assert exp1_result.saturation_sigma("both", threshold=0.0) is None

    def test_report_mentions_paper_numbers(self, exp1_result):
        report = exp1_result.report()
        assert "69.98%" in report and "EXP 1" in report

    def test_reproducible_with_seed(self, small_task_module):
        config = Exp1Config(sigmas=(0.05,), cases=("both",), iterations=3, seed=9)
        a = run_exp1(config, task=small_task_module).mean_accuracy("both")
        b = run_exp1(config, task=small_task_module).mean_accuracy("both")
        assert np.allclose(a, b)


class TestExp2:
    @pytest.fixture(scope="class")
    def exp2_result(self, small_task_module):
        config = Exp2Config(iterations=3, seed=2)
        return run_exp2(config, task=small_task_module, mesh_names=["U_L2", "VH_L2"])

    def test_heatmap_structure(self, exp2_result):
        assert set(exp2_result.heatmaps) == {"U_L2", "VH_L2"}
        heatmap = exp2_result.heatmaps["VH_L2"]
        assert heatmap.accuracy_loss.shape == heatmap.zone_shape
        assert np.isfinite(heatmap.accuracy_loss).sum() > 0

    def test_vh_l2_zone_grid_is_8x8(self, exp2_result):
        """A 16-mode Clements mesh partitioned into 2x2 zones gives an 8x8 grid."""
        assert exp2_result.heatmaps["VH_L2"].zone_shape == (8, 8)

    def test_u_l2_zone_grid_smaller(self, exp2_result):
        """U_L2 is only 10x10 (output layer), so its zone grid is smaller."""
        rows, cols = exp2_result.heatmaps["U_L2"].zone_shape
        assert rows <= 5 and cols <= 5

    def test_paper_shape_losses_cluster_near_global_loss(self, exp2_result):
        """Fig. 5: zonal losses hover around the global-uncertainty loss."""
        global_loss = exp2_result.global_loss
        for heatmap in exp2_result.heatmaps.values():
            finite = heatmap.finite_losses()
            assert np.all(np.abs(finite - global_loss) < 0.35)

    def test_paper_shape_zone_impact_is_non_uniform(self, exp2_result):
        """Fig. 5: some zones reduce, others exacerbate the loss."""
        spreads = [h.spread for h in exp2_result.heatmaps.values()]
        assert max(spreads) > 0.0

    def test_report_contains_reference(self, exp2_result):
        report = exp2_result.report()
        assert "69.98%" in report and "EXP 2" in report

    def test_unknown_mesh_name_rejected(self, small_task_module):
        with pytest.raises(KeyError):
            run_exp2(Exp2Config(iterations=1), task=small_task_module, mesh_names=["U_L9"])


class TestVectorizedEquivalence:
    """The batched experiment paths reproduce the looped oracle bit for bit."""

    def test_exp1_vectorized_matches_loop(self, small_task_module):
        task = small_task_module
        fast = run_exp1(
            Exp1Config(sigmas=(0.0, 0.05), cases=("both",), iterations=3, seed=5), task=task
        )
        gen = np.random.default_rng(5)
        oracle = NetworkAccuracyTrial(
            task.spnn, task.test_features, task.test_labels, uncertainty_model_for_case("both", 0.05)
        )
        slow = MonteCarloRunner(iterations=3).run(oracle, rng=gen).samples
        nominal = task.spnn.accuracy(task.test_features, task.test_labels, use_hardware=True)
        assert np.array_equal(fast.results["both"][0].samples, np.full(3, nominal))
        assert np.array_equal(fast.results["both"][1].samples, slow)

    def test_exp2_vectorized_matches_loop(self, small_task_module):
        """EXP 2 equals a scalar loop over the single-realization sampler."""
        task = small_task_module
        spnn, features, labels = task.spnn, task.test_features, task.test_labels
        fast = run_exp2(Exp2Config(iterations=2, seed=6), task=task, mesh_names=["U_L0"])

        background = UncertaintyModel.both(0.05, perturb_sigma_stage=False)

        def zonal_trial(target, sigma_map):
            def trial(generator):
                perturbations = []
                for index, layer in enumerate(spnn.photonic_layers):
                    u_map = sigma_map if target == f"U_L{index}" else None
                    v_map = sigma_map if target == f"VH_L{index}" else None
                    u = sample_mesh_perturbation(
                        layer.mesh_u, background, generator, u_map, u_map
                    )
                    v = sample_mesh_perturbation(
                        layer.mesh_v, background, generator, v_map, v_map
                    )
                    perturbations.append(LayerPerturbation(u=u, v=v, sigma=None))
                return spnn.accuracy(features, labels, perturbations, use_hardware=True)

            return trial

        gen = np.random.default_rng(6)
        runner = MonteCarloRunner(iterations=2)
        nominal = spnn.accuracy(features, labels, use_hardware=True)
        assert fast.global_loss == nominal - runner.run(zonal_trial("", None), rng=gen).mean
        grid = ZoneGrid(dict(spnn.unitary_meshes())["U_L0"], zone_rows=2, zone_cols=2)
        losses = np.full(grid.shape, np.nan)
        for zone in grid.zones():
            sigma_map = grid.sigma_map(zone, 0.10, 0.05)
            result = runner.run(zonal_trial("U_L0", sigma_map), rng=gen)
            losses[zone.row_index, zone.col_index] = nominal - result.mean
        assert np.array_equal(fast.heatmaps["U_L0"].accuracy_loss, losses, equal_nan=True)
