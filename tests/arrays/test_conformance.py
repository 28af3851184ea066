"""Backend conformance: the numerics core against the array seam.

Every parametrized case runs a kernel/sampler/evaluator once on the NumPy
reference backend and once on a device backend, and compares the results.
For the strict mock backend the comparison is **exact** (its arithmetic is
NumPy's — any difference means a seam bug); a real CuPy device, when
present, is held to the documented ``allclose``-at-fixed-seeds contract.

Because the mock namespace refuses implicit host transfers, merely *running*
these cases under it proves the hot paths are free of stray ``np.`` calls
and host/device mixing.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arrays import available_array_backends, get_array_backend, to_host, use_array_backend
from repro.execution import GpuBackend
from repro.mesh.mesh import MZIMesh
from repro.analysis.monte_carlo import MonteCarloRunner
from repro.onn.inference import NetworkAccuracyBatchTrial, NetworkAccuracyTrial, monte_carlo_accuracy
from repro.onn.spnn import SPNN, SPNNArchitecture
from repro.training.workspace import VectorizedWorkspace, reset_process_workspace
from repro.utils import random_unitary
from repro.utils.rng import spawn_rngs
from repro.variation.models import UncertaintyModel
from repro.variation.sampler import (
    sample_layer_perturbation_batch,
    sample_mesh_perturbation_batch,
    sample_network_perturbation_batch,
)

#: Device backends to hold against the NumPy reference.  The mock backend
#: must match bit for bit; CuPy (exercised only on GPU machines) to
#: allclose at the shared fixed seeds.
DEVICE_BACKENDS = [
    name for name in ("mock_device", "cupy") if name in available_array_backends()
]


def _assert_matches(backend_name: str, device_result, host_result) -> None:
    device_result = to_host(device_result)
    if backend_name == "mock_device":
        np.testing.assert_array_equal(device_result, host_result)
    else:  # pragma: no cover - requires a CUDA device
        np.testing.assert_allclose(device_result, host_result, rtol=1e-10, atol=1e-12)


@pytest.fixture
def mesh() -> MZIMesh:
    return MZIMesh.from_unitary(random_unitary(6, rng=3))


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


MODEL = UncertaintyModel(sigma_phs=0.01, sigma_bes=0.008)


@pytest.mark.parametrize("backend_name", DEVICE_BACKENDS)
class TestKernelConformance:
    def test_mesh_sampler_batch(self, backend_name, mesh):
        host = sample_mesh_perturbation_batch(mesh, MODEL, spawn_rngs(5, 4))
        with use_array_backend(backend_name):
            device = sample_mesh_perturbation_batch(mesh, MODEL, spawn_rngs(5, 4))
        for field in host._FIELDS:
            host_value = getattr(host, field)
            device_value = getattr(device, field)
            if host_value is None:
                assert device_value is None
            else:
                _assert_matches(backend_name, device_value, host_value)

    def test_mesh_matrix_batch(self, backend_name, mesh):
        host_batch = sample_mesh_perturbation_batch(mesh, MODEL, spawn_rngs(5, 4))
        host_matrices = mesh.matrix_batch(host_batch)
        with use_array_backend(backend_name):
            device_batch = sample_mesh_perturbation_batch(mesh, MODEL, spawn_rngs(5, 4))
            device_matrices = mesh.matrix_batch(device_batch)
        _assert_matches(backend_name, device_matrices, host_matrices)

    def test_mesh_matrix_batch_nominal(self, backend_name, mesh):
        host_matrices = mesh.matrix_batch(None, batch_size=3)
        with use_array_backend(backend_name):
            device_matrices = mesh.matrix_batch(None, batch_size=3)
        _assert_matches(backend_name, device_matrices, host_matrices)

    def test_layer_matrix_batch(self, backend_name, spnn):
        layer = spnn.photonic_layers[0]
        host_batch = sample_layer_perturbation_batch(layer, MODEL, spawn_rngs(8, 3))
        host_matrices = layer.matrix_batch(host_batch)
        with use_array_backend(backend_name):
            device_batch = sample_layer_perturbation_batch(layer, MODEL, spawn_rngs(8, 3))
            device_matrices = layer.matrix_batch(device_batch)
        _assert_matches(backend_name, device_matrices, host_matrices)

    def test_forward_hardware_batch(self, backend_name, spnn, eval_set):
        features, _labels = eval_set
        host_batch = sample_network_perturbation_batch(
            spnn.photonic_layers, MODEL, spawn_rngs(11, 3)
        )
        host_logits = spnn.forward_hardware_batch(features, host_batch)
        with use_array_backend(backend_name):
            device_batch = sample_network_perturbation_batch(
                spnn.photonic_layers, MODEL, spawn_rngs(11, 3)
            )
            device_logits = spnn.forward_hardware_batch(features, device_batch)
        _assert_matches(backend_name, device_logits, host_logits)

    def test_accuracy_batch(self, backend_name, spnn, eval_set):
        features, labels = eval_set
        host_batch = sample_network_perturbation_batch(
            spnn.photonic_layers, MODEL, spawn_rngs(12, 4)
        )
        host_accuracy = spnn.accuracy_batch(features, labels, host_batch)
        with use_array_backend(backend_name):
            device_batch = sample_network_perturbation_batch(
                spnn.photonic_layers, MODEL, spawn_rngs(12, 4)
            )
            device_accuracy = spnn.accuracy_batch(features, labels, device_batch)
        _assert_matches(backend_name, device_accuracy, host_accuracy)

    def test_accuracy_batch_with_device_workspace(self, backend_name, spnn, eval_set):
        features, labels = eval_set
        host_batch = sample_network_perturbation_batch(
            spnn.photonic_layers, MODEL, spawn_rngs(13, 4)
        )
        host_accuracy = spnn.accuracy_batch(features, labels, host_batch)
        with use_array_backend(backend_name) as backend:
            workspace = VectorizedWorkspace(backend)
            device_batch = sample_network_perturbation_batch(
                spnn.photonic_layers, MODEL, spawn_rngs(13, 4), workspace=workspace
            )
            device_accuracy = spnn.accuracy_batch(
                features, labels, device_batch, workspace=workspace
            )
        _assert_matches(backend_name, device_accuracy, host_accuracy)


@pytest.mark.parametrize("backend_name", DEVICE_BACKENDS)
class TestEngineConformance:
    def test_monte_carlo_engine_end_to_end(self, backend_name, spnn, eval_set):
        """The full engine behind ``--device gpu`` vs. the serial CPU run."""
        features, labels = eval_set
        serial = monte_carlo_accuracy(spnn, features, labels, MODEL, iterations=16, rng=7)
        device = monte_carlo_accuracy(
            spnn,
            features,
            labels,
            MODEL,
            iterations=16,
            rng=7,
            backend=GpuBackend(array_backend=backend_name),
        )
        _assert_matches(backend_name, device, serial)

    def test_device_engine_with_workspace_and_chunking(self, backend_name, spnn, eval_set):
        features, labels = eval_set
        reset_process_workspace()
        try:
            serial = monte_carlo_accuracy(
                spnn, features, labels, MODEL, iterations=12, rng=3
            )
            device = monte_carlo_accuracy(
                spnn,
                features,
                labels,
                MODEL,
                iterations=12,
                rng=3,
                chunk_size=5,
                use_workspace=True,
                backend=GpuBackend(array_backend=backend_name),
            )
            _assert_matches(backend_name, device, serial)
        finally:
            reset_process_workspace()

    def test_scalar_looped_path_stays_host_under_device_backend(
        self, backend_name, spnn, eval_set
    ):
        """The scalar oracle trial is host-only by design and must not pick
        up the active device namespace (its mesh evaluators are host-only,
        so mixing would crash)."""
        features, labels = eval_set
        oracle = NetworkAccuracyTrial(spnn, features, labels, MODEL)
        serial = MonteCarloRunner(iterations=6).run(oracle, rng=9).samples
        device = (
            MonteCarloRunner(iterations=6, backend=GpuBackend(array_backend=backend_name))
            .run(oracle, rng=9)
            .samples
        )
        np.testing.assert_array_equal(device, serial)

    def test_trial_returns_device_array_and_engine_rehosts(
        self, backend_name, spnn, eval_set
    ):
        features, labels = eval_set
        trial = NetworkAccuracyBatchTrial(
            spnn=spnn, features=features, labels=labels, model=MODEL
        )
        with use_array_backend(backend_name) as backend:
            result = trial(spawn_rngs(1, 3))
            assert backend.owns(result)


class TestWorkspaceFusion:
    """The fused matrix_batch path (host): same values, arena-backed buffers."""

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
