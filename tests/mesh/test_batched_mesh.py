"""Tests for the batched (leading Monte Carlo axis) mesh evaluation path."""

import numpy as np
import pytest

from repro.exceptions import ShapeError
from repro.mesh import (
    DiagonalPerturbation,
    DiagonalPerturbationBatch,
    DiagonalStage,
    LayerPerturbationBatch,
    MeshPerturbation,
    MeshPerturbationBatch,
    MZIMesh,
    PhotonicLinearLayer,
)
from repro.utils import random_unitary
from repro.utils.rng import spawn_rngs
from repro.variation import (
    UncertaintyModel,
    sample_diagonal_perturbation,
    sample_layer_perturbation,
    sample_mesh_perturbation,
    sample_mesh_perturbation_batch,
)


@pytest.mark.parametrize("scheme", ["clements", "reck"])
class TestMatrixBatchAgreement:
    """matrix_batch must reproduce the per-realization loop bit for bit."""

    def test_matrix_batch_equals_loop(self, scheme):
        mesh = MZIMesh.from_unitary(random_unitary(8, rng=3), scheme=scheme)
        model = UncertaintyModel.both(0.05, perturb_output_phases=True)
        generators = spawn_rngs(11, 16)
        perturbations = [sample_mesh_perturbation(mesh, model, g) for g in generators]
        batched = mesh.matrix_batch(MeshPerturbationBatch.stack(perturbations))
        looped = np.stack([mesh.matrix(p) for p in perturbations])
        assert batched.shape == (16, 8, 8)
        assert np.array_equal(batched, looped)

    def test_batch_sampler_equals_looped_sampler(self, scheme):
        """The batch sampler draws the exact same values from the same streams.

        Covers the global model and the EXP 2 zonal draw: per-MZI sigma
        maps (zeros included) with the output phase screen perturbed.
        """
        mesh = MZIMesh.from_unitary(random_unitary(6, rng=4), scheme=scheme)
        zone_map = np.where(np.arange(mesh.num_mzis) % 3 == 0, 0.0, 0.1)
        zone_map[:2] = 0.05
        cases = [
            (UncertaintyModel.both(0.08), {}),
            (
                UncertaintyModel.both(0.05, perturb_output_phases=True),
                dict(sigma_phs_per_mzi=zone_map, sigma_bes_per_mzi=zone_map),
            ),
        ]
        for model, maps in cases:
            batch = sample_mesh_perturbation_batch(mesh, model, spawn_rngs(2, 9), **maps)
            singles = [
                sample_mesh_perturbation(mesh, model, g, **maps) for g in spawn_rngs(2, 9)
            ]
            for index, single in enumerate(singles):
                row = batch.realization(index)
                assert np.array_equal(row.delta_theta, single.delta_theta)
                assert np.array_equal(row.delta_phi, single.delta_phi)
                assert np.array_equal(row.delta_r_in, single.delta_r_in)
                assert np.array_equal(row.delta_r_out, single.delta_r_out)
                if model.perturb_output_phases:
                    assert np.array_equal(row.delta_output_phase, single.delta_output_phase)
                else:
                    assert single.delta_output_phase is None
        # The zeros of the map really silence their devices.
        assert np.all(batch.delta_theta[:, zone_map == 0.0] == 0.0)
        assert np.all(batch.delta_r_in[:, zone_map == 0.0] == 0.0)


class TestMatrixBatchSemantics:
    def test_nominal_batch_replicates_ideal(self, unitary_5x5):
        mesh = MZIMesh.from_unitary(unitary_5x5)
        nominal = mesh.matrix_batch(None, batch_size=4)
        assert nominal.shape == (4, 5, 5)
        for matrix in nominal:
            assert np.array_equal(matrix, mesh.ideal_matrix())

    def test_nominal_batch_requires_batch_size(self, unitary_5x5):
        mesh = MZIMesh.from_unitary(unitary_5x5)
        with pytest.raises(ValueError):
            mesh.matrix_batch(None)
        with pytest.raises(ValueError):
            mesh.matrix_batch(None, batch_size=0)

    def test_batch_size_mismatch_rejected(self, unitary_5x5):
        mesh = MZIMesh.from_unitary(unitary_5x5)
        model = UncertaintyModel.both(0.05)
        batch = sample_mesh_perturbation_batch(mesh, model, spawn_rngs(0, 3))
        with pytest.raises(ShapeError):
            mesh.matrix_batch(batch, batch_size=5)

    def test_output_phase_only_batch(self, unitary_5x5):
        """A batch perturbing only the output screen still gets a full batch axis."""
        mesh = MZIMesh.from_unitary(unitary_5x5)
        rng = np.random.default_rng(0)
        screens = rng.normal(0.0, 0.1, size=(3, mesh.n))
        batch = MeshPerturbationBatch(delta_output_phase=screens)
        batched = mesh.matrix_batch(batch)
        looped = np.stack(
            [mesh.matrix(MeshPerturbation(delta_output_phase=screen)) for screen in screens]
        )
        assert np.array_equal(batched, looped)

    def test_validation_rejects_wrong_shapes(self, unitary_5x5):
        mesh = MZIMesh.from_unitary(unitary_5x5)
        bad = MeshPerturbationBatch(delta_theta=np.zeros((2, mesh.num_mzis + 1)))
        with pytest.raises(ShapeError):
            mesh.matrix_batch(bad)

    def test_empty_batch_objects_rejected(self):
        with pytest.raises(ShapeError):
            MeshPerturbationBatch().batch_size
        with pytest.raises(ValueError):
            MeshPerturbationBatch.stack([])


class TestStackSemantics:
    def test_stack_zero_fills_missing_fields(self):
        present = MeshPerturbation(delta_theta=np.ones(4))
        absent = MeshPerturbation()
        batch = MeshPerturbationBatch.stack([present, absent])
        assert np.array_equal(batch.delta_theta, np.stack([np.ones(4), np.zeros(4)]))
        assert batch.delta_phi is None

    def test_realization_roundtrip(self):
        rng = np.random.default_rng(5)
        perturbations = [
            MeshPerturbation(
                delta_theta=rng.normal(size=3),
                delta_phi=rng.normal(size=3),
                delta_r_in=rng.normal(size=3),
                delta_r_out=rng.normal(size=3),
                delta_output_phase=rng.normal(size=4),
            )
            for _ in range(5)
        ]
        batch = MeshPerturbationBatch.stack(perturbations)
        assert batch.batch_size == 5
        for index, original in enumerate(perturbations):
            row = batch.realization(index)
            assert np.array_equal(row.delta_theta, original.delta_theta)
            assert np.array_equal(row.delta_output_phase, original.delta_output_phase)


class TestDiagonalBatch:
    def test_matrix_batch_equals_loop(self):
        stage = DiagonalStage(np.array([2.0, 1.0, 0.5]), shape=(3, 5))
        model = UncertaintyModel.both(0.05)
        perturbations = [sample_diagonal_perturbation(3, model, g) for g in spawn_rngs(7, 8)]
        batch = DiagonalPerturbationBatch.stack(perturbations)
        batched = stage.matrix_batch(batch)
        looped = np.stack([stage.matrix(p) for p in perturbations])
        assert batched.shape == (8, 3, 5)
        assert np.array_equal(batched, looped)

    def test_nominal_batch(self):
        stage = DiagonalStage(np.array([1.0, 0.25]))
        nominal = stage.matrix_batch(None, batch_size=3)
        assert nominal.shape == (3, 2, 2)
        assert np.array_equal(nominal[0], stage.ideal_matrix())

    def test_attenuations_batch_shape(self):
        stage = DiagonalStage(np.array([1.0, 0.5]))
        batch = DiagonalPerturbationBatch(delta_theta=np.zeros((4, 2)))
        amplitudes = stage.attenuations_batch(batch)
        assert amplitudes.shape == (4, 2)
        assert np.allclose(np.abs(amplitudes), stage.normalized_values(), atol=1e-12)

    def test_empty_batch_rejected(self):
        with pytest.raises(ShapeError):
            DiagonalPerturbationBatch().batch_size
        with pytest.raises(ValueError):
            DiagonalPerturbationBatch.stack([])


class TestLayerBatch:
    def test_matrix_batch_equals_loop(self, rng):
        weight = rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))
        layer = PhotonicLinearLayer(weight)
        model = UncertaintyModel.both(0.05)
        perturbations = [sample_layer_perturbation(layer, model, g) for g in spawn_rngs(13, 6)]
        batch = LayerPerturbationBatch.stack(perturbations)
        batched = layer.matrix_batch(batch)
        looped = np.stack([layer.matrix(p) for p in perturbations])
        assert batched.shape == (6, 4, 6)
        assert np.array_equal(batched, looped)

    def test_nominal_batch_matches_weight(self, rng):
        weight = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        layer = PhotonicLinearLayer(weight)
        nominal = layer.matrix_batch(None, batch_size=2)
        assert nominal.shape == (2, 3, 3)
        assert np.allclose(nominal[1], weight, atol=1e-8)

    def test_stack_with_missing_sigma_rows(self, rng):
        weight = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        layer = PhotonicLinearLayer(weight)
        with_sigma = sample_layer_perturbation(layer, UncertaintyModel.both(0.05), 0)
        without_sigma = sample_layer_perturbation(
            layer, UncertaintyModel.both(0.05, perturb_sigma_stage=False), 1
        )
        batch = LayerPerturbationBatch.stack([with_sigma, without_sigma])
        assert batch.sigma is not None
        assert np.array_equal(batch.sigma.delta_theta[1], np.zeros(layer.diagonal.num_mzis))
        batched = layer.matrix_batch(batch)
        assert np.array_equal(batched[0], layer.matrix(with_sigma))
        assert np.array_equal(batched[1], layer.matrix(without_sigma))
