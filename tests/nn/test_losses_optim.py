"""Tests for loss modules and optimizers."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.exceptions import TrainingError
from repro.nn import SGD, Adam, CrossEntropyLoss, Parameter


class TestLossModules:
    def test_cross_entropy_from_logits(self):
        logits = Tensor(np.zeros((2, 4)))
        loss = CrossEntropyLoss()(logits, [0, 1])
        assert loss.item() == pytest.approx(np.log(4))

    def test_cross_entropy_from_log_probs(self):
        log_probs = Tensor(np.log(np.full((2, 4), 0.25)))
        loss = CrossEntropyLoss(from_log_probs=True)(log_probs, [2, 3])
        assert loss.item() == pytest.approx(np.log(4))

    def test_invalid_reduction_rejected(self):
        with pytest.raises(ValueError):
            CrossEntropyLoss(reduction="nope")


class TestSGD:
    def test_basic_step_moves_against_gradient(self):
        p = Parameter(np.array([1.0]))
        opt = SGD([p], lr=0.1)
        (p * p).sum().backward()
        opt.step()
        assert p.data[0] == pytest.approx(1.0 - 0.1 * 2.0)

    def test_momentum_accumulates(self):
        p = Parameter(np.array([1.0]))
        opt = SGD([p], lr=0.1, momentum=0.9)
        for _ in range(2):
            p.zero_grad()
            (p * Tensor([1.0])).sum().backward()
            opt.step()
        # second step includes momentum of the first: 0.1*(1 + 0.9) extra
        assert p.data[0] == pytest.approx(1.0 - 0.1 - 0.1 * 1.9)

    def test_weight_decay(self):
        p = Parameter(np.array([1.0]))
        opt = SGD([p], lr=0.1, weight_decay=0.5)
        p.zero_grad()
        (p * Tensor([0.0])).sum().backward()
        opt.step()
        assert p.data[0] == pytest.approx(1.0 - 0.1 * 0.5)

    def test_skips_parameters_without_grad(self):
        p = Parameter(np.array([1.0]))
        SGD([p], lr=0.1).step()  # no backward called
        assert p.data[0] == 1.0

    def test_validation_errors(self):
        p = Parameter(np.array([1.0]))
        with pytest.raises(TrainingError):
            SGD([], lr=0.1)
        with pytest.raises(TrainingError):
            SGD([p], lr=-1.0)
        with pytest.raises(TrainingError):
            SGD([p], lr=0.1, momentum=1.5)
        with pytest.raises(TrainingError):
            SGD([p], lr=0.1, weight_decay=-0.1)
        with pytest.raises(TrainingError):
            SGD([Tensor([1.0])], lr=0.1)


class TestAdam:
    def test_first_step_size_is_lr(self):
        p = Parameter(np.array([1.0]))
        opt = Adam([p], lr=0.01)
        (p * Tensor([3.0])).sum().backward()
        opt.step()
        # Adam's first step has magnitude ~lr regardless of gradient scale.
        assert p.data[0] == pytest.approx(1.0 - 0.01, rel=1e-3)

    def test_converges_on_quadratic(self):
        p = Parameter(np.array([4.0, -3.0]))
        opt = Adam([p], lr=0.2)
        for _ in range(200):
            p.zero_grad()
            (p * p).sum().backward()
            opt.step()
        assert np.all(np.abs(p.data) < 0.1)

    def test_complex_parameter_support(self):
        p = Parameter(np.array([2.0 + 2.0j]))
        opt = Adam([p], lr=0.1)
        for _ in range(300):
            p.zero_grad()
            p.abs2().sum().backward()
            opt.step()
        assert abs(p.data[0]) < 0.2

    def test_validation_errors(self):
        p = Parameter(np.array([1.0]))
        with pytest.raises(TrainingError):
            Adam([p], lr=0.0)
        with pytest.raises(TrainingError):
            Adam([p], betas=(1.0, 0.9))
        with pytest.raises(TrainingError):
            Adam([p], eps=0.0)
        with pytest.raises(TrainingError):
            Adam([p], weight_decay=-1.0)
