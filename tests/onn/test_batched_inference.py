"""Tests for the batched SPNN forward / Monte Carlo accuracy path."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.arrays import kernels, to_host, use_array_backend
from repro.exceptions import ConfigurationError, ShapeError
from repro.analysis.monte_carlo import MonteCarloRunner
from repro.onn import SPNN, SPNNArchitecture, monte_carlo_accuracy, stack_network_perturbations
from repro.onn.inference import NetworkAccuracyTrial
from repro.utils.rng import spawn_rngs
from repro.variation import UncertaintyModel, sample_network_perturbation, sample_network_perturbation_batch


@pytest.fixture()
def spnn(small_task):
    return small_task.spnn


class TestForwardHardwareBatch:
    def test_equals_stacked_forward_hardware(self, small_task):
        spnn = small_task.spnn
        features = small_task.test_features[:32]
        model = UncertaintyModel.both(0.05)
        realizations = [
            sample_network_perturbation(spnn.photonic_layers, model, g) for g in spawn_rngs(3, 5)
        ]
        batch = stack_network_perturbations(realizations)
        batched = spnn.forward_hardware_batch(features, batch)
        looped = np.stack([spnn.forward_hardware(features, r) for r in realizations])
        assert batched.shape == (5, 32, spnn.architecture.output_size)
        assert np.array_equal(batched, looped)

    def test_nominal_batch_requires_batch_size(self, spnn, small_task):
        features = small_task.test_features[:4]
        with pytest.raises(ValueError):
            spnn.forward_hardware_batch(features, None)
        out = spnn.forward_hardware_batch(features, None, batch_size=2)
        assert out.shape == (2, 4, spnn.architecture.output_size)
        assert np.array_equal(out[0], out[1])

    def test_rejects_wrong_layer_count(self, spnn, small_task):
        with pytest.raises(ConfigurationError):
            spnn.forward_hardware_batch(small_task.test_features[:4], [None])


class TestAccuracyBatch:
    def test_equals_looped_accuracy(self, small_task):
        spnn = small_task.spnn
        features, labels = small_task.test_features[:40], small_task.test_labels[:40]
        model = UncertaintyModel.both(0.05)
        realizations = [
            sample_network_perturbation(spnn.photonic_layers, model, g) for g in spawn_rngs(5, 6)
        ]
        batched = spnn.accuracy_batch(features, labels, stack_network_perturbations(realizations))
        looped = np.array([spnn.accuracy(features, labels, perturbations=r) for r in realizations])
        assert np.array_equal(batched, looped)

    def test_chunking_does_not_change_results(self, small_task):
        spnn = small_task.spnn
        features, labels = small_task.test_features[:24], small_task.test_labels[:24]
        model = UncertaintyModel.both(0.05)
        batch = sample_network_perturbation_batch(spnn.photonic_layers, model, spawn_rngs(2, 7))
        full = spnn.accuracy_batch(features, labels, batch)
        chunked = spnn.accuracy_batch(features, labels, batch, chunk_size=3)
        assert np.array_equal(full, chunked)

    def test_label_validation(self, spnn, small_task):
        features = small_task.test_features[:4]
        with pytest.raises(ShapeError):
            spnn.accuracy_batch(features, np.zeros((2, 2), dtype=int), None, batch_size=1)
        with pytest.raises(ShapeError):
            spnn.accuracy_batch(features, np.zeros(3, dtype=int), None, batch_size=1)
        with pytest.raises(ConfigurationError):
            spnn.accuracy_batch(features[:0], np.zeros(0, dtype=int), None, batch_size=1)

    @pytest.mark.parametrize("chunk_size", [0, -2, 2.5, "3", True])
    def test_chunk_size_validated_before_matrix_work(
        self, spnn, small_task, monkeypatch, chunk_size
    ):
        calls = []
        monkeypatch.setattr(spnn, "hardware_matrices_batch", lambda *a, **k: calls.append(a))
        features, labels = small_task.test_features[:4], small_task.test_labels[:4]
        with pytest.raises(ValueError, match="chunk_size"):
            spnn.accuracy_batch(features, labels, None, batch_size=2, chunk_size=chunk_size)
        assert calls == []

    def test_numpy_integer_chunk_size_accepted(self, spnn, small_task):
        features, labels = small_task.test_features[:4], small_task.test_labels[:4]
        accuracies = spnn.accuracy_batch(features, labels, None, batch_size=3, chunk_size=np.int64(2))
        assert accuracies.shape == (3,)


@st.composite
def forward_cases(draw):
    """Random networks, evaluation sets and batches for the forward properties.

    2-4 linear layers of widths 2-16 whose last layer is never wider than
    the one before it; weight scale 8 pushes hidden entries past the
    Softplus threshold (its saturated branch), 0.25 keeps them below it.
    """
    layers = draw(st.integers(2, 4))
    dims = [draw(st.integers(2, 16)) for _ in range(layers)]
    dims.append(draw(st.integers(2, dims[-1])))
    batch = draw(st.integers(1, 12))
    return dict(
        dims=tuple(dims),
        samples=draw(st.integers(1, 64)),
        batch=batch,
        chunk_size=draw(st.sampled_from([None, 1, 3, batch])),
        beta=draw(st.sampled_from([0.5, 1.0, 2.0])),
        scale=draw(st.sampled_from([0.25, 8.0])),
        seed=draw(st.integers(0, 2**16)),
    )


def _forward_case(dims, samples, batch, beta, scale, seed, **_):
    gen = np.random.default_rng(seed)
    architecture = SPNNArchitecture(layer_dims=dims, softplus_beta=beta)
    weights = [
        scale * (gen.standard_normal(shape) + 1j * gen.standard_normal(shape))
        for shape in architecture.weight_shapes()
    ]
    spnn = SPNN(weights, architecture)
    features = gen.standard_normal((samples, dims[0])) + 1j * gen.standard_normal((samples, dims[0]))
    labels = gen.integers(0, dims[-1], samples)
    realizations = [
        sample_network_perturbation(spnn.photonic_layers, UncertaintyModel.both(0.05), g)
        for g in spawn_rngs(seed, batch)
    ]
    return spnn, features, labels, realizations


#: The paper's 16-16-16-10 network, the shape the hand-picked tests cover.
PAPER_CASE = dict(dims=(16, 16, 16, 10), samples=40, batch=6, chunk_size=None, beta=1.0, scale=0.25, seed=5)


class TestForwardProperties:
    """The batched forward against the single-realization oracle, bit for bit."""

    @settings(max_examples=30, deadline=None)
    @given(forward_cases())
    @example(PAPER_CASE)
    def test_forward_and_accuracy_equal_the_looped_oracle(self, case):
        spnn, features, labels, realizations = _forward_case(**case)
        batch = stack_network_perturbations(realizations)
        looped_log_probs = np.stack([spnn.forward_hardware(features, r) for r in realizations])
        assert np.array_equal(spnn.forward_hardware_batch(features, batch), looped_log_probs)
        looped = np.array([spnn.accuracy(features, labels, perturbations=r) for r in realizations])
        batched = spnn.accuracy_batch(features, labels, batch, chunk_size=case["chunk_size"])
        assert np.array_equal(batched, looped)

    @settings(max_examples=10, deadline=None)
    @given(forward_cases())
    @example(PAPER_CASE)
    def test_mock_device_equals_the_looped_oracle(self, case):
        spnn, features, labels, realizations = _forward_case(**case)
        looped_log_probs = np.stack([spnn.forward_hardware(features, r) for r in realizations])
        looped = np.array([spnn.accuracy(features, labels, perturbations=r) for r in realizations])
        model = UncertaintyModel.both(0.05)
        with use_array_backend("mock_device"):
            batch = sample_network_perturbation_batch(
                spnn.photonic_layers, model, spawn_rngs(case["seed"], case["batch"])
            )
            log_probs = to_host(spnn.forward_hardware_batch(features, batch))
            batched = to_host(
                spnn.accuracy_batch(features, labels, batch, chunk_size=case["chunk_size"])
            )
        assert np.array_equal(log_probs, looped_log_probs)
        assert np.array_equal(batched, looped)


def _softplus_before_fast_paths(x, beta=1.0, threshold=30.0):
    """The Softplus kernel as it was before it skipped the exact passes."""
    scaled = beta * x
    saturated = scaled > threshold
    result = np.minimum(scaled, threshold, out=scaled)
    np.exp(result, out=result)
    np.log1p(result, out=result)
    if beta != 1.0:
        result /= beta
    return np.where(saturated, x, result) if saturated.any() else result


class TestSoftplusKernel:
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize(
        "values",
        [
            [0.0, -0.0, 0.3, 1.7, 29.9, -5.0, -800.0],
            [np.nan, 2.0, -np.inf, 14.0],
            [np.inf, 31.0, 1e300, 0.5, np.nan, -np.inf],
            [45.0, 60.0, 7.0],
        ],
    )
    def test_bit_identical_to_the_full_pass_sequence(self, beta, values):
        x = np.array(values)
        expected = _softplus_before_fast_paths(x.copy(), beta=beta).view(np.uint64)
        fresh = kernels.softplus(np, x, beta=beta)
        assert np.array_equal(fresh.view(np.uint64), expected)
        assert np.array_equal(x, np.array(values), equal_nan=True)  # input untouched
        out = np.empty_like(x)
        assert np.array_equal(kernels.softplus(np, x, beta=beta, out=out).view(np.uint64), expected)
        inplace = x.copy()
        result = kernels.softplus(np, inplace, beta=beta, out=inplace)
        assert np.array_equal(result.view(np.uint64), expected)
        if not np.any(beta * x > 30.0):
            assert result is inplace


class TestMonteCarloAccuracyVectorized:
    def test_seed_equivalence_with_looped_path(self, small_task):
        """The engine guarantee: batched == the looped oracle, sample for sample."""
        spnn = small_task.spnn
        features, labels = small_task.test_features[:50], small_task.test_labels[:50]
        model = UncertaintyModel.both(0.05)
        oracle = NetworkAccuracyTrial(spnn, features, labels, model)
        looped = MonteCarloRunner(iterations=8).run(oracle, rng=42).samples
        batched = monte_carlo_accuracy(spnn, features, labels, model, iterations=8, rng=42)
        assert np.array_equal(looped, batched)

    def test_chunk_size_does_not_change_samples(self, small_task):
        kwargs = dict(
            spnn=small_task.spnn,
            features=small_task.test_features[:30],
            labels=small_task.test_labels[:30],
            model=UncertaintyModel.both(0.05),
            iterations=6,
            rng=9,
        )
        assert np.array_equal(
            monte_carlo_accuracy(chunk_size=2, **kwargs), monte_carlo_accuracy(**kwargs)
        )

    def test_chunk_size_validation(self, small_task):
        with pytest.raises(ValueError):
            monte_carlo_accuracy(
                small_task.spnn,
                small_task.test_features[:10],
                small_task.test_labels[:10],
                UncertaintyModel.both(0.05),
                iterations=2,
                rng=0,
                chunk_size=0,
            )


class TestStackNetworkPerturbations:
    def test_all_none_layers_stay_none(self):
        batch = stack_network_perturbations([[None, None], [None, None]])
        assert batch == [None, None]

    def test_rejects_empty_and_ragged(self):
        with pytest.raises(ValueError):
            stack_network_perturbations([])
        with pytest.raises(ShapeError):
            stack_network_perturbations([[None, None], [None]])

    def test_batch_sampler_matches_stacked_looped_samples(self, small_task):
        spnn = small_task.spnn
        model = UncertaintyModel.both(0.05)
        direct = sample_network_perturbation_batch(spnn.photonic_layers, model, spawn_rngs(17, 4))
        stacked = stack_network_perturbations(
            [sample_network_perturbation(spnn.photonic_layers, model, g) for g in spawn_rngs(17, 4)]
        )
        for layer_direct, layer_stacked in zip(direct, stacked):
            assert np.array_equal(layer_direct.u.delta_theta, layer_stacked.u.delta_theta)
            assert np.array_equal(layer_direct.v.delta_r_out, layer_stacked.v.delta_r_out)
            assert np.array_equal(layer_direct.sigma.delta_phi, layer_stacked.sigma.delta_phi)
