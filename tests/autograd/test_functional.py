"""Tests for functional ops: activations, softmax, losses."""

import numpy as np
import pytest

from repro.autograd import (
    Tensor,
    accuracy,
    check_gradients,
    cross_entropy,
    log_softmax,
    modulus,
    nll_loss,
    relu,
    sigmoid,
    softmax,
    softplus,
)
from repro.exceptions import AutogradError


class TestActivationValues:
    def test_softplus_matches_reference(self):
        x = np.array([-2.0, 0.0, 3.0])
        assert np.allclose(softplus(Tensor(x)).data, np.log1p(np.exp(x)))

    def test_softplus_large_inputs_linear(self):
        out = softplus(Tensor([100.0]))
        assert np.isfinite(out.data).all() and out.item() == pytest.approx(100.0)

    def test_softplus_beta(self):
        x = np.array([0.5])
        assert softplus(Tensor(x), beta=2.0).item() == pytest.approx(np.log1p(np.exp(1.0)) / 2.0)

    def test_relu_sigmoid(self):
        x = Tensor([-1.0, 0.0, 2.0])
        assert np.allclose(relu(x).data, [0, 0, 2])
        assert np.allclose(sigmoid(x).data, 1 / (1 + np.exp([1.0, 0.0, -2.0])))

    def test_real_only_activations_reject_complex(self):
        z = Tensor([1 + 1j])
        for fn in (softplus, relu, sigmoid, log_softmax):
            with pytest.raises(AutogradError):
                fn(z)

    def test_modulus_helpers(self):
        z = Tensor([3 + 4j])
        assert modulus(z).item() == pytest.approx(5.0)


class TestSoftmax:
    def test_log_softmax_normalization(self):
        x = Tensor(np.random.default_rng(0).standard_normal((4, 6)))
        lp = log_softmax(x)
        assert np.allclose(np.exp(lp.data).sum(axis=-1), 1.0)

    def test_log_softmax_shift_invariance(self):
        x = np.random.default_rng(1).standard_normal((3, 5))
        assert np.allclose(log_softmax(Tensor(x)).data, log_softmax(Tensor(x + 100.0)).data)

    def test_log_softmax_extreme_values_stable(self):
        x = Tensor(np.array([[1000.0, 0.0, -1000.0]]))
        assert np.isfinite(log_softmax(x).data).all()

    def test_softmax_sums_to_one(self):
        x = Tensor(np.random.default_rng(2).standard_normal((2, 4)))
        assert np.allclose(softmax(x).data.sum(axis=-1), 1.0)

    def test_log_softmax_gradient(self):
        x = Tensor(np.random.default_rng(3).standard_normal((2, 4)), requires_grad=True)
        check_gradients(lambda t: (log_softmax(t) * log_softmax(t)).sum(), [x])


class TestLosses:
    def test_nll_picks_target_entries(self):
        log_probs = Tensor(np.log(np.array([[0.7, 0.3], [0.2, 0.8]])))
        loss = nll_loss(log_probs, [0, 1])
        assert loss.item() == pytest.approx(-(np.log(0.7) + np.log(0.8)) / 2)

    def test_nll_reductions(self):
        log_probs = Tensor(np.log(np.array([[0.5, 0.5], [0.5, 0.5]])))
        assert nll_loss(log_probs, [0, 1], reduction="sum").item() == pytest.approx(2 * np.log(2))
        assert nll_loss(log_probs, [0, 1], reduction="none").shape == (2,)

    def test_nll_rejects_bad_targets(self):
        log_probs = Tensor(np.zeros((2, 3)))
        with pytest.raises(AutogradError):
            nll_loss(log_probs, [0, 3])
        with pytest.raises(AutogradError):
            nll_loss(log_probs, [0])
        with pytest.raises(AutogradError):
            nll_loss(Tensor(np.zeros(3)), [0])

    def test_nll_unknown_reduction(self):
        with pytest.raises(AutogradError):
            nll_loss(Tensor(np.zeros((1, 2))), [0], reduction="median")

    def test_cross_entropy_uniform_logits(self):
        logits = Tensor(np.zeros((3, 10)))
        assert cross_entropy(logits, [0, 5, 9]).item() == pytest.approx(np.log(10))

    def test_cross_entropy_gradient(self):
        logits = Tensor(np.random.default_rng(4).standard_normal((3, 5)), requires_grad=True)
        check_gradients(lambda t: cross_entropy(t, np.array([0, 2, 4])), [logits])

    def test_cross_entropy_decreases_for_correct_confidence(self):
        confident = Tensor(np.array([[10.0, 0.0], [0.0, 10.0]]))
        uncertain = Tensor(np.zeros((2, 2)))
        assert cross_entropy(confident, [0, 1]).item() < cross_entropy(uncertain, [0, 1]).item()

    def test_accuracy_metric(self):
        log_probs = Tensor(np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]]))
        assert accuracy(log_probs, [0, 1, 1]) == pytest.approx(2 / 3)
        with pytest.raises(AutogradError):
            accuracy(log_probs, [0, 1])
