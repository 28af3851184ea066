"""Conformance of the batched hot paths against the looped oracle.

Every batched kernel, sampler and evaluator must reproduce, **bit for
bit**, what the per-realization code computes from the same random
streams.  The cases span both mesh schemes, several sizes and the three
uncertainty cases (phase-only perturbations carry no splitter fields,
splitter-only ones no phase fields), and the engine cases hold every
execution backend and chunking to the serial run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.monte_carlo import MonteCarloRunner
from repro.execution import MultiprocessBackend, ThreadBackend
from repro.mesh import MeshPerturbationBatch, MZIMesh
from repro.onn import stack_network_perturbations
from repro.onn.inference import NetworkAccuracyBatchTrial, NetworkAccuracyTrial, monte_carlo_accuracy
from repro.onn.spnn import SPNN, SPNNArchitecture
from repro.training.workspace import VectorizedWorkspace, reset_process_workspace
from repro.utils import random_unitary
from repro.utils.rng import spawn_rngs
from repro.variation.models import UncertaintyModel
from repro.variation.sampler import (
    sample_layer_perturbation,
    sample_layer_perturbation_batch,
    sample_mesh_perturbation,
    sample_mesh_perturbation_batch,
    sample_network_perturbation,
    sample_network_perturbation_batch,
)

MODEL = UncertaintyModel(sigma_phs=0.01, sigma_bes=0.008)

#: The three uncertainty cases of the paper's experiments.
CASES = {
    "phs": UncertaintyModel.phase_only(0.02),
    "bes": UncertaintyModel.splitter_only(0.02),
    "both": UncertaintyModel.both(0.02),
}

MESHES = [(4, "clements"), (5, "reck"), (6, "clements"), (7, "reck")]


@pytest.fixture
def spnn() -> SPNN:
    gen = np.random.default_rng(21)
    architecture = SPNNArchitecture(layer_dims=(6, 6, 4))
    weights = [
        (gen.standard_normal(shape) + 1j * gen.standard_normal(shape)) / 3.0
        for shape in architecture.weight_shapes()
    ]
    return SPNN(weights, architecture)


@pytest.fixture
def eval_set():
    gen = np.random.default_rng(22)
    features = (gen.standard_normal((20, 6)) + 1j * gen.standard_normal((20, 6))) / 2.0
    labels = gen.integers(0, 4, 20)
    return features, labels


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("n,scheme", MESHES)
class TestMeshConformance:
    def test_sampler_batch_equals_looped_samples(self, n, scheme, case):
        mesh = MZIMesh.from_unitary(random_unitary(n, rng=n), scheme=scheme)
        model = CASES[case]
        batch = sample_mesh_perturbation_batch(mesh, model, spawn_rngs(5, 4))
        looped = MeshPerturbationBatch.stack(
            [sample_mesh_perturbation(mesh, model, g) for g in spawn_rngs(5, 4)]
        )
        for field in batch._FIELDS:
            value = getattr(batch, field)
            if value is None:
                # A family the model leaves unperturbed carries no field; the
                # stacked loop holds zeros there.
                expected = getattr(looped, field)
                assert expected is None or not np.any(expected)
            else:
                np.testing.assert_array_equal(value, getattr(looped, field))

    def test_matrix_batch_equals_looped_matrices(self, n, scheme, case):
        mesh = MZIMesh.from_unitary(random_unitary(n, rng=n), scheme=scheme)
        model = CASES[case]
        perturbations = [sample_mesh_perturbation(mesh, model, g) for g in spawn_rngs(6, 5)]
        batched = mesh.matrix_batch(
            sample_mesh_perturbation_batch(mesh, model, spawn_rngs(6, 5))
        )
        looped = np.stack([mesh.matrix(p) for p in perturbations])
        assert batched.shape == (5, n, n)
        np.testing.assert_array_equal(batched, looped)


@pytest.mark.parametrize("n,scheme", MESHES)
def test_mesh_matrix_batch_nominal(n, scheme):
    mesh = MZIMesh.from_unitary(random_unitary(n, rng=n), scheme=scheme)
    nominal = mesh.matrix_batch(None, batch_size=3)
    assert nominal.shape == (3, n, n)
    for matrix in nominal:
        np.testing.assert_array_equal(matrix, mesh.matrix())


@pytest.mark.parametrize("case", sorted(CASES))
class TestNetworkConformance:
    def test_layer_matrix_batch(self, spnn, case):
        layer = spnn.photonic_layers[0]
        model = CASES[case]
        batched = layer.matrix_batch(
            sample_layer_perturbation_batch(layer, model, spawn_rngs(8, 3))
        )
        looped = np.stack(
            [layer.matrix(sample_layer_perturbation(layer, model, g)) for g in spawn_rngs(8, 3)]
        )
        np.testing.assert_array_equal(batched, looped)

    def test_forward_hardware_batch(self, spnn, eval_set, case):
        features, _labels = eval_set
        model = CASES[case]
        realizations = [
            sample_network_perturbation(spnn.photonic_layers, model, g)
            for g in spawn_rngs(11, 3)
        ]
        batched = spnn.forward_hardware_batch(
            features, sample_network_perturbation_batch(spnn.photonic_layers, model, spawn_rngs(11, 3))
        )
        looped = np.stack([spnn.forward_hardware(features, r) for r in realizations])
        np.testing.assert_array_equal(batched, looped)

    def test_accuracy_batch(self, spnn, eval_set, case):
        features, labels = eval_set
        model = CASES[case]
        realizations = [
            sample_network_perturbation(spnn.photonic_layers, model, g)
            for g in spawn_rngs(12, 4)
        ]
        batched = spnn.accuracy_batch(features, labels, stack_network_perturbations(realizations))
        looped = np.array([spnn.accuracy(features, labels, perturbations=r) for r in realizations])
        np.testing.assert_array_equal(batched, looped)

    def test_accuracy_batch_with_workspace(self, spnn, eval_set, case):
        features, labels = eval_set
        model = CASES[case]
        plain = spnn.accuracy_batch(
            features,
            labels,
            sample_network_perturbation_batch(spnn.photonic_layers, model, spawn_rngs(13, 4)),
        )
        workspace = VectorizedWorkspace()
        batch = sample_network_perturbation_batch(
            spnn.photonic_layers, model, spawn_rngs(13, 4), workspace=workspace
        )
        fused = spnn.accuracy_batch(features, labels, batch, workspace=workspace)
        np.testing.assert_array_equal(fused, plain)


class TestEngineConformance:
    @pytest.mark.parametrize("backend", [ThreadBackend(2), MultiprocessBackend(2)], ids=repr)
    def test_monte_carlo_engine_end_to_end(self, spnn, eval_set, backend):
        features, labels = eval_set
        serial = monte_carlo_accuracy(spnn, features, labels, MODEL, iterations=16, rng=7)
        sharded = monte_carlo_accuracy(
            spnn, features, labels, MODEL, iterations=16, rng=7, chunk_size=5, backend=backend
        )
        np.testing.assert_array_equal(sharded, serial)

    @pytest.mark.parametrize("chunk_size", [1, 5, 12])
    def test_engine_with_workspace_and_chunking(self, spnn, eval_set, chunk_size):
        features, labels = eval_set
        reset_process_workspace()
        try:
            serial = monte_carlo_accuracy(spnn, features, labels, MODEL, iterations=12, rng=3)
            chunked = monte_carlo_accuracy(
                spnn,
                features,
                labels,
                MODEL,
                iterations=12,
                rng=3,
                chunk_size=chunk_size,
                use_workspace=True,
            )
            np.testing.assert_array_equal(chunked, serial)
        finally:
            reset_process_workspace()

    def test_scalar_looped_trial_equals_batched_trial(self, spnn, eval_set):
        features, labels = eval_set
        oracle = NetworkAccuracyTrial(spnn, features, labels, MODEL)
        looped = MonteCarloRunner(iterations=6).run(oracle, rng=9).samples
        batched = NetworkAccuracyBatchTrial(
            spnn=spnn, features=features, labels=labels, model=MODEL
        )
        np.testing.assert_array_equal(batched(spawn_rngs(9, 6)), looped)

    def test_batch_trial_returns_a_host_array(self, spnn, eval_set):
        features, labels = eval_set
        trial = NetworkAccuracyBatchTrial(
            spnn=spnn, features=features, labels=labels, model=MODEL
        )
        result = trial(spawn_rngs(1, 3))
        assert isinstance(result, np.ndarray)
        assert result.shape == (3,) and result.dtype == np.float64


class TestWorkspaceFusion:
    """The fused matrix_batch path: same values, arena-backed buffers."""

    def test_fused_matrices_bit_identical(self, spnn):
        layer = spnn.photonic_layers[0]
        batch = sample_layer_perturbation_batch(layer, MODEL, spawn_rngs(31, 4))
        plain = layer.matrix_batch(batch)
        workspace = VectorizedWorkspace()
        fused = layer.matrix_batch(batch, workspace=workspace, workspace_key="t")
        np.testing.assert_array_equal(plain, fused)
        assert workspace.num_buffers > 0

    def test_fused_buffers_reused_across_calls(self, spnn):
        layer = spnn.photonic_layers[0]
        workspace = VectorizedWorkspace()
        batch = sample_layer_perturbation_batch(layer, MODEL, spawn_rngs(32, 4))
        first = layer.matrix_batch(batch, workspace=workspace, workspace_key="t")
        buffers_after_first = workspace.num_buffers
        second = layer.matrix_batch(batch, workspace=workspace, workspace_key="t")
        assert workspace.num_buffers == buffers_after_first
        assert np.shares_memory(first, second)  # same arena backing handed back

    def test_fused_partial_batch_reuses_capacity(self, spnn):
        layer = spnn.photonic_layers[0]
        workspace = VectorizedWorkspace()
        full = sample_layer_perturbation_batch(layer, MODEL, spawn_rngs(33, 4))
        layer.matrix_batch(full, workspace=workspace, workspace_key="t")
        nbytes_full = workspace.nbytes
        tail = sample_layer_perturbation_batch(layer, MODEL, spawn_rngs(34, 2))
        plain = layer.matrix_batch(tail)
        fused = layer.matrix_batch(tail, workspace=workspace, workspace_key="t")
        np.testing.assert_array_equal(plain, fused)
        assert workspace.nbytes == nbytes_full  # no reallocation for the tail

    def test_network_level_fusion_bit_identical(self, spnn, eval_set):
        features, labels = eval_set
        batch = sample_network_perturbation_batch(
            spnn.photonic_layers, MODEL, spawn_rngs(35, 3)
        )
        plain = spnn.accuracy_batch(features, labels, batch)
        workspace = VectorizedWorkspace()
        fused = spnn.accuracy_batch(features, labels, batch, workspace=workspace)
        np.testing.assert_array_equal(plain, fused)
