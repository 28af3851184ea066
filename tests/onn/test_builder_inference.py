"""Tests for the SPNN builder pipeline and Monte Carlo inference helpers."""

import numpy as np
import pytest

from repro.nn import ComplexLinear
from repro.onn import (
    SPNNArchitecture,
    SPNNTrainingConfig,
    build_software_model,
    build_trained_spnn,
    extract_weights,
    hardware_accuracy,
    monte_carlo_accuracy,
    predict_batched,
    spnn_from_model,
)
from repro.variation import UncertaintyModel


class TestSoftwareModelBuilder:
    def test_layer_structure_matches_architecture(self):
        arch = SPNNArchitecture(layer_dims=(16, 16, 16, 10))
        model = build_software_model(arch, rng=0)
        weights = extract_weights(model)
        assert [w.shape for w in weights] == [(16, 16), (16, 16), (10, 16)]

    def test_linear_layer_count(self):
        arch = SPNNArchitecture(layer_dims=(8, 4, 2))
        model = build_software_model(arch, rng=0)
        assert sum(isinstance(m, ComplexLinear) for m in model) == 2

    def test_spnn_from_model_compiles(self):
        arch = SPNNArchitecture(layer_dims=(6, 5, 4))
        model = build_software_model(arch, rng=1)
        spnn = spnn_from_model(model, arch)
        assert spnn.is_compiled
        assert spnn.hardware_fidelity() < 1e-8

    def test_mismatched_crop_rejected(self):
        config = SPNNTrainingConfig(fft_crop=3, num_train=30, num_test=10, epochs=1)
        with pytest.raises(ValueError):
            build_trained_spnn(config)


class TestBuildTrainedSPNN:
    def test_task_contents(self, small_task):
        assert small_task.spnn.is_compiled
        assert small_task.test_features.shape[1] == 16
        assert small_task.num_test_samples == len(small_task.test_labels)
        assert 0.0 <= small_task.baseline_accuracy <= 1.0

    def test_training_learns_something(self, small_task):
        """Even the reduced training run must beat random guessing clearly."""
        assert small_task.baseline_accuracy > 0.5
        assert small_task.history.epochs > 0

    def test_software_and_hardware_agree_on_task(self, small_task):
        soft = small_task.spnn.accuracy(
            small_task.test_features, small_task.test_labels, use_hardware=False
        )
        assert soft == pytest.approx(small_task.baseline_accuracy, abs=1e-9)


class TestMonteCarloAccuracy:
    def test_samples_shape_and_range(self, small_task):
        samples = monte_carlo_accuracy(
            small_task.spnn,
            small_task.test_features[:60],
            small_task.test_labels[:60],
            UncertaintyModel.both(0.05),
            iterations=5,
            rng=0,
        )
        assert samples.shape == (5,)
        assert np.all((samples >= 0) & (samples <= 1))

    def test_reproducible_with_seed(self, small_task):
        kwargs = dict(
            spnn=small_task.spnn,
            features=small_task.test_features[:40],
            labels=small_task.test_labels[:40],
            model=UncertaintyModel.both(0.05),
            iterations=4,
        )
        assert np.allclose(monte_carlo_accuracy(rng=7, **kwargs), monte_carlo_accuracy(rng=7, **kwargs))

    def test_uncertainty_degrades_accuracy(self, small_task):
        """Core paper claim: accuracy under sigma=0.05 is far below nominal."""
        samples = monte_carlo_accuracy(
            small_task.spnn,
            small_task.test_features,
            small_task.test_labels,
            UncertaintyModel.both(0.05),
            iterations=6,
            rng=1,
        )
        assert samples.mean() < small_task.baseline_accuracy - 0.2

    def test_iterations_validation(self, small_task):
        with pytest.raises(ValueError):
            monte_carlo_accuracy(
                small_task.spnn,
                small_task.test_features[:10],
                small_task.test_labels[:10],
                UncertaintyModel.both(0.05),
                iterations=0,
            )


class TestInferenceHelpers:
    def test_hardware_accuracy_matches_spnn_method(self, small_task):
        features, labels = small_task.test_features[:50], small_task.test_labels[:50]
        assert hardware_accuracy(small_task.spnn, features, labels) == pytest.approx(
            small_task.spnn.accuracy(features, labels, use_hardware=True)
        )

    def test_predict_batched_matches_unbatched(self, small_task):
        features = small_task.test_features[:70]
        batched = predict_batched(small_task.spnn, features, batch_size=16)
        direct = small_task.spnn.predict(features)
        assert np.array_equal(batched, direct)

    def test_predict_batched_validation_and_empty(self, small_task):
        with pytest.raises(ValueError):
            predict_batched(small_task.spnn, small_task.test_features[:5], batch_size=0)
        assert predict_batched(small_task.spnn, small_task.test_features[:0]).size == 0
