"""Tests for the uncertainty models and the perturbation samplers."""

import numpy as np
import pytest

from repro.exceptions import VariationModelError
from repro.mesh import MZIMesh
from repro.photonics import constants
from repro.utils import random_complex_matrix, random_unitary
from repro.mesh.svd_layer import PhotonicLinearLayer
from repro.variation import (
    UncertaintyModel,
    sample_diagonal_perturbation,
    sample_layer_perturbation,
    sample_mesh_perturbation,
    sample_network_perturbation,
    sample_single_mzi_perturbation,
)


class TestUncertaintyModel:
    def test_sigma_normalization_phases(self):
        model = UncertaintyModel(sigma_phs=0.05, sigma_bes=0.0)
        assert model.phase_std == pytest.approx(0.05 * 2 * np.pi)
        assert model.splitter_std == 0.0

    def test_sigma_normalization_splitters(self):
        model = UncertaintyModel(sigma_phs=0.0, sigma_bes=0.05)
        assert model.splitter_std == pytest.approx(0.05 / np.sqrt(2))

    def test_case_constructors(self):
        phs = UncertaintyModel.phase_only(0.1)
        assert phs.perturb_phases and not phs.perturb_splitters
        bes = UncertaintyModel.splitter_only(0.1)
        assert bes.perturb_splitters and not bes.perturb_phases
        both = UncertaintyModel.both(0.1)
        assert both.sigma_phs == both.sigma_bes == 0.1

    def test_mature_process_values(self):
        model = UncertaintyModel.mature_process()
        assert model.sigma_phs == pytest.approx(constants.MATURE_PROCESS_PHASE_ERROR_FRACTION)
        # ~0.21 rad as quoted in the paper
        assert model.phase_std == pytest.approx(0.21, abs=0.01)

    def test_disabled_families_have_zero_std(self):
        model = UncertaintyModel(sigma_phs=0.1, sigma_bes=0.1, perturb_phases=False, perturb_splitters=False)
        assert model.phase_std == 0.0 and model.splitter_std == 0.0 and model.is_null

    def test_with_sigma(self):
        model = UncertaintyModel.both(0.05).with_sigma(sigma_phs=0.1)
        assert model.sigma_phs == 0.1 and model.sigma_bes == 0.05

    def test_rejects_negative_sigmas(self):
        with pytest.raises(VariationModelError):
            UncertaintyModel(sigma_phs=-0.1)
        with pytest.raises(VariationModelError):
            UncertaintyModel(sigma_bes=-0.1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_sigmas(self, bad):
        with pytest.raises(VariationModelError, match="finite"):
            UncertaintyModel.both(bad)
        with pytest.raises(VariationModelError, match="finite"):
            UncertaintyModel(sigma_phs=0.05, sigma_bes=bad)
        with pytest.raises(VariationModelError, match="finite"):
            UncertaintyModel.both(0.05).with_sigma(sigma_phs=bad)


class TestMeshSampler:
    @pytest.fixture
    def mesh(self):
        return MZIMesh.from_unitary(random_unitary(6, rng=0))

    def test_shapes_and_reproducibility(self, mesh):
        model = UncertaintyModel.both(0.05)
        a = sample_mesh_perturbation(mesh, model, rng=1)
        b = sample_mesh_perturbation(mesh, model, rng=1)
        assert a.delta_theta.shape == (mesh.num_mzis,)
        assert np.allclose(a.delta_theta, b.delta_theta)
        assert np.allclose(a.delta_r_in, b.delta_r_in)

    def test_empirical_std_matches_model(self, mesh):
        model = UncertaintyModel.both(0.05)
        gen = np.random.default_rng(0)
        draws = np.concatenate(
            [sample_mesh_perturbation(mesh, model, gen).delta_theta for _ in range(200)]
        )
        assert np.std(draws) == pytest.approx(model.phase_std, rel=0.1)

    def test_phase_only_leaves_splitters_untouched(self, mesh):
        perturbation = sample_mesh_perturbation(mesh, UncertaintyModel.phase_only(0.1), rng=0)
        assert np.allclose(perturbation.delta_r_in, 0.0)
        assert not np.allclose(perturbation.delta_theta, 0.0)

    def test_splitter_only_leaves_phases_untouched(self, mesh):
        perturbation = sample_mesh_perturbation(mesh, UncertaintyModel.splitter_only(0.1), rng=0)
        assert np.allclose(perturbation.delta_theta, 0.0)
        assert not np.allclose(perturbation.delta_r_in, 0.0)

    def test_per_mzi_sigma_override(self, mesh):
        model = UncertaintyModel.both(0.05)
        sigma_map = np.zeros(mesh.num_mzis)
        sigma_map[3] = 0.5
        gen = np.random.default_rng(0)
        draws = np.stack(
            [
                sample_mesh_perturbation(mesh, model, gen, sigma_phs_per_mzi=sigma_map, sigma_bes_per_mzi=sigma_map).delta_theta
                for _ in range(100)
            ]
        )
        assert np.allclose(draws[:, np.arange(mesh.num_mzis) != 3], 0.0)
        assert np.std(draws[:, 3]) > 1.0

    def test_output_phase_perturbation_optional(self, mesh):
        silent = sample_mesh_perturbation(mesh, UncertaintyModel.both(0.05), rng=0)
        assert silent.delta_output_phase is None
        noisy = sample_mesh_perturbation(
            mesh, UncertaintyModel.both(0.05, perturb_output_phases=True), rng=0
        )
        assert noisy.delta_output_phase.shape == (mesh.n,)

    def test_single_mzi_perturbation_targets_one_device(self, mesh):
        perturbation = sample_single_mzi_perturbation(mesh, 4, UncertaintyModel.both(0.1), rng=0)
        touched = np.flatnonzero(perturbation.delta_theta)
        assert set(touched) <= {4}
        assert perturbation.delta_theta[4] != 0.0
        with pytest.raises(IndexError):
            sample_single_mzi_perturbation(mesh, mesh.num_mzis, UncertaintyModel.both(0.1))


class TestLayerAndNetworkSampler:
    def test_diagonal_perturbation_respects_switch(self):
        model_off = UncertaintyModel.both(0.1, perturb_sigma_stage=False)
        assert sample_diagonal_perturbation(4, model_off, rng=0) is None
        model_on = UncertaintyModel.both(0.1)
        perturbation = sample_diagonal_perturbation(4, model_on, rng=0)
        assert perturbation.delta_theta.shape == (4,)

    def test_layer_perturbation_covers_all_stages(self):
        layer = PhotonicLinearLayer(random_complex_matrix(4, 5, rng=0))
        perturbation = sample_layer_perturbation(layer, UncertaintyModel.both(0.05), rng=1)
        assert perturbation.u.delta_theta.shape == (layer.mesh_u.num_mzis,)
        assert perturbation.v.delta_theta.shape == (layer.mesh_v.num_mzis,)
        assert perturbation.sigma.delta_theta.shape == (layer.diagonal.num_mzis,)

    def test_network_perturbation_one_entry_per_layer(self):
        layers = [
            PhotonicLinearLayer(random_complex_matrix(4, 4, rng=0)),
            PhotonicLinearLayer(random_complex_matrix(3, 4, rng=1)),
        ]
        network = sample_network_perturbation(layers, UncertaintyModel.both(0.05), rng=2)
        assert len(network) == 2
