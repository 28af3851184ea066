"""Tests for the training loop and metrics."""

import numpy as np
import pytest

from repro.exceptions import TrainingError
from repro.nn import (
    Adam,
    ComplexLinear,
    LogSoftmax,
    ModulusSquared,
    RunningAverage,
    Sequential,
    Trainer,
    TrainerConfig,
    TrainingHistory,
    iterate_minibatches,
    top1_accuracy,
)


def _toy_complex_dataset(n=200, seed=0):
    """Two classes whose energy sits in different feature slots.

    Class 0 has most of its optical power in features 0-1, class 1 in
    features 2-3, so an intensity-reading (modulus-based) classifier can
    separate them — mirroring how the SPNN reads out |z|^2.
    """
    gen = np.random.default_rng(seed)
    half = n // 2
    noise = lambda: 0.3 * (gen.standard_normal((half, 4)) + 1j * gen.standard_normal((half, 4)))
    class0 = noise()
    class0[:, :2] += 3.0 * np.exp(1j * gen.uniform(0, 2 * np.pi, (half, 2)))
    class1 = noise()
    class1[:, 2:] += 3.0 * np.exp(1j * gen.uniform(0, 2 * np.pi, (half, 2)))
    features = np.concatenate([class0, class1])
    labels = np.array([0] * half + [1] * half)
    return features, labels


class TestMinibatches:
    def test_covers_all_samples(self):
        x, y = np.arange(10).reshape(10, 1), np.arange(10)
        batches = list(iterate_minibatches(x, y, batch_size=3, shuffle=False))
        assert sum(len(b[1]) for b in batches) == 10
        assert len(batches) == 4

    def test_shuffle_reproducible(self):
        x, y = np.arange(10).reshape(10, 1), np.arange(10)
        a = [b[1].tolist() for b in iterate_minibatches(x, y, 4, shuffle=True, rng=1)]
        b = [b[1].tolist() for b in iterate_minibatches(x, y, 4, shuffle=True, rng=1)]
        assert a == b

    def test_errors(self):
        with pytest.raises(TrainingError):
            list(iterate_minibatches(np.zeros((3, 1)), np.zeros(2), 1))
        with pytest.raises(TrainingError):
            list(iterate_minibatches(np.zeros((0, 1)), np.zeros(0), 1))
        with pytest.raises(TrainingError):
            list(iterate_minibatches(np.zeros((3, 1)), np.zeros(3), 0))


class TestMetrics:
    def test_top1_accuracy(self):
        outputs = np.array([[0.8, 0.2], [0.3, 0.7]])
        assert top1_accuracy(outputs, [0, 1]) == 1.0
        assert top1_accuracy(outputs, [1, 1]) == 0.5

    def test_top1_accuracy_errors(self):
        with pytest.raises(ValueError):
            top1_accuracy(np.zeros((2, 2)), [0])
        with pytest.raises(ValueError):
            top1_accuracy(np.zeros((0, 2)), np.zeros(0, dtype=int))

    def test_running_average(self):
        avg = RunningAverage()
        avg.update(1.0, weight=1)
        avg.update(3.0, weight=3)
        assert avg.value == pytest.approx(2.5)
        avg.reset()
        assert np.isnan(avg.value)

    def test_training_history(self):
        hist = TrainingHistory()
        hist.record(1.0, 0.5, 0.9, 0.6)
        hist.record(0.5, 0.7, 0.8, 0.75)
        assert hist.epochs == 2
        assert hist.best_val_accuracy() == 0.75
        assert set(hist.as_dict()) == {"train_loss", "train_accuracy", "val_loss", "val_accuracy"}


class TestTrainer:
    def _model(self, seed=0):
        return Sequential(ComplexLinear(4, 2, rng=seed), ModulusSquared(), LogSoftmax())

    def test_training_improves_accuracy(self):
        features, labels = _toy_complex_dataset()
        model = self._model()
        trainer = Trainer(
            model,
            Adam(model.parameters(), lr=0.05),
            config=TrainerConfig(epochs=15, batch_size=32),
            rng=0,
        )
        history = trainer.fit(features, labels, features, labels)
        assert history.val_accuracy[-1] > 0.9
        assert history.train_loss[-1] < history.train_loss[0]

    def test_evaluate_does_not_update_weights(self):
        features, labels = _toy_complex_dataset(80)
        model = self._model()
        trainer = Trainer(model, Adam(model.parameters(), lr=0.05), rng=0)
        before = model.state_dict()
        trainer.evaluate(features, labels)
        after = model.state_dict()
        assert all(np.allclose(before[k], after[k]) for k in before)

    def test_gradient_clipping_limits_norm(self):
        features, labels = _toy_complex_dataset(64)
        model = self._model()
        trainer = Trainer(
            model,
            Adam(model.parameters(), lr=0.05),
            config=TrainerConfig(epochs=1, batch_size=16, clip_grad_norm=1e-8),
            rng=0,
        )
        before = model.state_dict()
        trainer.fit(features, labels)
        after = model.state_dict()
        # With a tiny clip norm the updates are bounded by Adam's lr but the
        # run must still complete without blowing up.
        assert all(np.isfinite(after[k]).all() for k in after)
        assert any(not np.allclose(before[k], after[k]) for k in before)
